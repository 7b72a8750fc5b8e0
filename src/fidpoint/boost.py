"""Adapted discrete AdaBoost over single-feature decision stumps.

A weak classifier is (feature, threshold, parity): a sample is called
positive iff ``parity * value < parity * threshold``.  Each boosting
round re-searches every feature for the minimum weighted error stump,
then reweights samples by ``beta ** (1 - e)`` where ``e`` is 0 for
correctly classified samples (so correct samples shrink and mistakes
keep their weight before renormalisation).

:class:`Booster` runs the rounds over a value matrix computed once
(feature values are weight-independent).  What else does not depend on
the weights is built with it: each feature's stable sort order, stored
feature-major (one contiguous row per feature; only rows with equal
values pay for stability), and a mask of the sorted positions tied with
the next value, read off the values as ``np.sort`` returns them.  A
round is then, per block of features, one gather of the weights as
complex numbers (real part the positive class, imaginary part the
negative), one running sum of them in sorted order, and one masked
minimum over both parities.  Complex addition adds the two parts as two
separate float additions, so the real and imaginary parts of the
running sum are bit for bit the two per-class running sums.
``cascade.train_stage`` is the driver that builds the matrix and grows
a stage from the rounds.  :func:`train_weak` is the one stump search
over a single feature: ``Booster.step`` reduces every feature's errors
to find the winning column, then takes that column's stump from
:func:`train_weak`, whose running sums are the block's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .haar import HaarFeature, feature_value
from .raster import IntegralTables

EPS_CLAMP = 1e-10  # keeps beta away from {0, inf} on separable rounds
# features per Booster block; bounds the (block x samples) temporaries of
# __init__ and step (step's running sums are complex128, 16 bytes each)
_STEP_BLOCK = 256


@dataclass
class WeakClassifier:
    threshold: float
    parity: int
    error: float = 0.0
    feature_index: int = -1
    feature: HaarFeature | None = None

    def predict_value(self, value: float) -> int:
        return 1 if self.parity * value < self.parity * self.threshold else 0


@dataclass
class StrongClassifier:
    """alpha-weighted vote of weak classifiers against a threshold."""

    rounds: list[tuple[float, WeakClassifier]] = field(default_factory=list)
    threshold: float = 0.0

    @property
    def alpha_sum(self) -> float:
        return sum(a for a, _ in self.rounds)


def init_weights(labels) -> np.ndarray:
    """Initial weights: 1/(2l) per positive and 1/(2m) per negative.

    Every label must be 1 (positive) or 0 (negative).
    """
    y = np.asarray(labels)
    l = int(np.count_nonzero(y == 1))
    m = int(np.count_nonzero(y == 0))
    if l + m != y.size:
        raise ValueError(f"labels must be 0 or 1; {y.size - l - m} are not")
    if l == 0 or m == 0:
        raise ValueError(f"degenerate training set: {l} positives, {m} negatives")
    return np.where(y == 1, 1.0 / (2 * l), 1.0 / (2 * m))


def train_weak(values, labels, weights) -> WeakClassifier:
    """Minimum weighted-error stump over one feature's values.

    Candidate thresholds are midpoints between consecutive distinct
    sorted values plus -inf/+inf sentinels; ties break toward the
    smaller threshold, then parity +1.
    """
    v = np.asarray(values, dtype=np.float64)
    y = np.asarray(labels)
    w = np.asarray(weights, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    w1 = np.where(y == 1, w, 0.0)[order]
    w0 = np.where(y == 0, w, 0.0)[order]
    c1 = np.cumsum(w1)
    c0 = np.cumsum(w0)
    tot1, tot0 = c1[-1], c0[-1]
    n = len(v)
    # Row r is the candidate after sorted position r-1; row 0 is -inf.
    thr = np.empty(n + 1)
    thr[0] = -np.inf
    thr[1:n] = (sv[:-1] + sv[1:]) / 2.0
    thr[n] = np.inf
    valid = np.ones(n + 1, dtype=bool)
    valid[1:n] = sv[:-1] != sv[1:]
    e_plus = np.empty(n + 1)
    e_plus[0] = tot1
    e_plus[1:] = (tot1 - c1) + c0
    e_minus = np.empty(n + 1)
    e_minus[0] = tot0
    e_minus[1:] = c1 + (tot0 - c0)
    best = None
    for parity, errs in ((1, e_plus), (-1, e_minus)):
        for r in np.nonzero(valid)[0]:
            key = (errs[r], thr[r], 0 if parity == 1 else 1)
            if best is None or key < best[0]:
                best = (key, parity)
    (err, t, _), parity = best
    return WeakClassifier(threshold=float(t), parity=parity, error=float(err))


def _stable_within_ties(sv, order) -> np.ndarray:
    """The stable sort order of rows already sorted by ``order``.

    ``sv`` holds each row's sorted values.  A stable sort keeps equal
    values (-0.0 and 0.0 are equal; NaNs sort last and count as equal
    here) in index order, so the sorted index order within each run of
    equal values is the stable order.  Sorting the key
    ``run * n + index`` does that for every run at once.
    """
    n = sv.shape[1]
    same = (sv[:, 1:] == sv[:, :-1]) | (np.isnan(sv[:, 1:]) & np.isnan(sv[:, :-1]))
    base = np.zeros(sv.shape, dtype=np.int64)
    np.cumsum(~same, axis=1, out=base[:, 1:])
    base *= n
    key = base + order
    key.sort(axis=1)
    key -= base
    return key


class Booster:
    """Incremental boosting over a fixed value matrix.

    ``values`` has shape (n_samples, n_features).  Everything that does
    not depend on the weights is built once, block by block over
    ``_STEP_BLOCK`` features:

    - ``_order`` (n_features, n_samples, int32) is each feature's stable
      sort order, one contiguous row per feature.  Rows are sorted with
      numpy's default (unstable) argsort.  Distinct values have only one
      order; a row whose sorted values are not strictly increasing (ties,
      -0.0 next to 0.0, NaN) gets its runs of equal values put back in
      index order by :func:`_stable_within_ties`, so every row equals
      ``argsort(kind="stable")``.
    - ``_tied`` (n_features, n_samples, bool) marks sorted positions whose
      value equals the next one: no threshold falls between them, so
      ``step`` skips that candidate.  The last column is always False.

    The sorted values that find the ties come from ``np.sort``, not from
    gathering each row through its order: the two may place -0.0 and 0.0,
    or NaNs, differently, but the masks read them only with ``<`` and
    ``==``, under which such values are equal, so every run of equal
    values falls on the same positions either way.

    ``step`` keeps the class weights as one complex vector, the weight
    times is-positive in the real part and times is-negative in the
    imaginary part, so each block takes one gather and one ``cumsum``.
    """

    def __init__(self, values: np.ndarray, labels: np.ndarray, weights: np.ndarray):
        self.values = values
        self.labels = np.asarray(labels)
        self.weights = np.asarray(weights, dtype=np.float64).copy()
        n, nf = values.shape
        self._order = np.empty((nf, n), dtype=np.int32)
        self._tied = np.zeros((nf, n), dtype=bool)
        for lo in range(0, nf, _STEP_BLOCK):
            hi = min(nf, lo + _STEP_BLOCK)
            # a copy, never a view of ``values``: it is sorted in place
            sv = values[:, lo:hi].T.copy()
            order = np.argsort(sv, axis=1)
            sv.sort(axis=1)
            redo = np.flatnonzero(~(sv[:, :-1] < sv[:, 1:]).all(axis=1))
            if len(redo):
                order[redo] = _stable_within_ties(sv[redo], order[redo])
            self._order[lo:hi] = order
            self._tied[lo:hi, :-1] = sv[:, :-1] == sv[:, 1:]
        self._is_pos = (self.labels == 1).astype(np.float64)
        self._is_neg = 1.0 - self._is_pos

    def step(self) -> tuple[float, WeakClassifier, np.ndarray]:
        """One round: normalise, pick the global best stump, reweight.

        Per block, the running sum of the complex class weights along each
        sorted row gives every candidate's error for both parities; their
        minimum, with tied rows set to inf, is reduced once.  The winner is
        the first feature with the minimum error, and :func:`train_weak` on
        that column gives its stump.
        Returns (alpha, weak, predictions over samples).
        """
        self.weights /= self.weights.sum()
        nf = self.values.shape[1]
        wc = np.empty(len(self.weights), dtype=np.complex128)
        wc.real = self.weights * self._is_pos
        wc.imag = self.weights * self._is_neg
        best_err, best = np.inf, 0
        for lo in range(0, nf, _STEP_BLOCK):
            hi = min(nf, lo + _STEP_BLOCK)
            c = np.take(wc, self._order[lo:hi])
            np.cumsum(c, axis=1, out=c)
            c1, c0 = c.real, c.imag
            # c1 and c0 are strided views: the errors go to fresh contiguous
            # arrays, which costs less than writing back into the views
            tot1, tot0 = c1[:, -1:], c0[:, -1:]
            errs = tot1 - c1
            errs += c0  # e_plus = (tot1 - c1) + c0
            e_minus = tot0 - c0
            e_minus += c1  # = c1 + (tot0 - c0)
            np.minimum(errs, e_minus, out=errs)
            np.putmask(errs, self._tied[lo:hi], np.inf)
            errs = np.minimum(errs.min(axis=1), np.minimum(tot1[:, 0], tot0[:, 0]))
            k = int(np.argmin(errs))
            if errs[k] < best_err:
                best_err, best = errs[k], lo + k
        col = self.values[:, best]
        weak = train_weak(col, self.labels, self.weights)
        weak.feature_index = best
        eps = min(max(weak.error, EPS_CLAMP), 0.5 - EPS_CLAMP)
        beta = eps / (1.0 - eps)
        alpha = math.log(1.0 / beta)
        pred = (weak.parity * col < weak.parity * weak.threshold).astype(np.int8)
        correct = pred == self.labels
        self.weights[correct] *= beta  # exponent 1 - e, with e = 0 when correct
        return alpha, weak, pred


def eval_strong(
    sc: StrongClassifier,
    tables: IntegralTables,
    origin: tuple[int, int] = (0, 0),
    scale: float = 1.0,
    inv_sigma: float = 1.0,
) -> tuple[float, bool]:
    """(score, decision): alpha-weighted vote against the threshold."""
    score = 0.0
    for alpha, weak in sc.rounds:
        v = feature_value(weak.feature, tables, origin, scale, inv_sigma)
        score += alpha * weak.predict_value(v)
    return score, score >= sc.threshold
