"""Adapted discrete AdaBoost over single-feature decision stumps.

A weak classifier is (feature, threshold, parity): a sample is called
positive iff ``parity * value < parity * threshold``.  Each boosting
round re-searches every feature for the minimum weighted error stump,
then reweights samples by ``beta ** (1 - e)`` where ``e`` is 0 for
correctly classified samples (so correct samples shrink and mistakes
keep their weight before renormalisation).

:class:`Booster` runs the rounds over a value source read block by
block: a value matrix, or a ``haar.FeatureValues`` that computes each
block of feature values when it is read, as ``cascade.train_stage``
passes it.  Feature values do not depend on the weights, and neither
does what ``Booster`` keeps of them: each feature's stable sort order
(int32, one contiguous row per feature; only rows with equal values pay
for stability) and a mask of the sorted positions tied with the next
value, 5 bytes per (sample, feature) pair.  The values themselves are
not kept; the winning column of a round is read again from the source.

A round screens every feature with one real running sum of the signed
weights in its sorted order, which bounds its least stump error to
within a proven rounding tolerance (``Booster.step``), then re-scores
only the features within that tolerance of the least screened error
with the per-class running sums of :func:`_stump_errors`, taken as one
complex running sum.  The winning feature's stump comes from the same
running sums, its sort order and its values (``Booster._stump``); ties
break toward the smaller threshold, then parity +1.
``cascade.train_stage`` builds the source and grows a stage from the
rounds.  :func:`train_weak`, the stump over a single feature, is a
one-column ``Booster``, so there is one stump search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .haar import FeatureValues, HaarFeature, feature_value
from .raster import IntegralTables

EPS_CLAMP = 1e-10  # keeps beta away from {0, inf} on separable rounds
# features per Booster block, and per read of the value source; bounds the
# (block x samples) temporaries of __init__ and step.  At 188 samples x
# 14,140 features, 256 gave the fastest init and step; 128 a slower init,
# 512 and 1024 larger peaks.
_STEP_BLOCK = 256


@dataclass
class WeakClassifier:
    threshold: float
    parity: int
    error: float = 0.0
    feature_index: int = -1
    feature: HaarFeature | None = None

    def predict_value(self, value):
        """True where ``parity * value < parity * threshold``; ``value`` is a scalar or an array."""
        return self.parity * value < self.parity * self.threshold


@dataclass
class StrongClassifier:
    """alpha-weighted vote of weak classifiers against a threshold."""

    rounds: list[tuple[float, WeakClassifier]] = field(default_factory=list)
    threshold: float = 0.0

    @property
    def alpha_sum(self) -> float:
        return sum(a for a, _ in self.rounds)


def _label_masks(labels) -> tuple[np.ndarray, np.ndarray]:
    """(is_pos, is_neg) masks; every label must be 1 or 0 (``True`` or ``False``)."""
    y = np.asarray(labels)
    is_pos, is_neg = y == 1, y == 0
    bad = y.size - int(np.count_nonzero(is_pos | is_neg))
    if bad:
        raise ValueError(f"labels must be 0 or 1; {bad} are not")
    return is_pos, is_neg


def init_weights(labels) -> np.ndarray:
    """Initial weights: 1/(2l) per positive (label 1) and 1/(2m) per negative (label 0)."""
    is_pos, is_neg = _label_masks(labels)
    l, m = int(np.count_nonzero(is_pos)), int(np.count_nonzero(is_neg))
    if l == 0 or m == 0:
        raise ValueError(f"degenerate training set: {l} positives, {m} negatives")
    return np.where(is_pos, 1.0 / (2 * l), 1.0 / (2 * m))


def train_weak(values, labels, weights) -> WeakClassifier:
    """Minimum weighted-error stump over one feature's values.

    The N = 1 case of :class:`Booster`: candidate thresholds are midpoints
    between consecutive distinct sorted values plus -inf/+inf sentinels,
    and ties break as in ``Booster.step``.
    """
    v = np.asarray(values, dtype=np.float64)
    return Booster(v[:, None], labels, weights)._stump(0, v)


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


def _stump_errors(wc: np.ndarray, order: np.ndarray, tied: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's stump errors for parity +1 and for parity -1.

    ``wc`` holds the class weights as complex numbers, the weight times
    is-positive in the real part and times is-negative in the imaginary
    part; ``order`` and ``tied`` are rows of ``Booster._order`` and
    ``Booster._tied``.  Column 0 is the threshold -inf and column r + 1 the
    threshold above sorted position r; tied columns are inf.  One gather
    and one ``cumsum`` give both per-class running sums c1 and c0, as
    complex addition adds the two parts as two separate float additions.
    """
    c = np.zeros((len(order), order.shape[1] + 1), dtype=np.complex128)
    np.cumsum(np.take(wc, order), axis=1, out=c[:, 1:])
    c1, c0 = c.real, c.imag
    # c1 and c0 are strided views: the errors go to fresh contiguous
    # arrays, which costs less than writing back into the views
    tot1, tot0 = c1[:, -1:], c0[:, -1:]
    e_plus = tot1 - c1
    e_plus += c0  # (tot1 - c1) + c0
    e_minus = tot0 - c0
    e_minus += c1  # c1 + (tot0 - c0)
    for errs in (e_plus, e_minus):
        np.copyto(errs[:, 1:], np.inf, where=tied)
    return e_plus, e_minus


def _untied_extremes(d: np.ndarray, tied: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's max and min of ``d`` over the positions ``tied`` leaves out.

    A row's plain argmax and argmin seldom fall on a tied position, so
    only the rows where one does are reduced again with the ties masked.
    """
    rows = np.arange(len(d))
    top, bottom = d.argmax(axis=1), d.argmin(axis=1)
    redo = np.flatnonzero(tied[rows, top] | tied[rows, bottom])
    top, bottom = d[rows, top], d[rows, bottom]
    if len(redo):
        sub, t = d[redo], tied[redo]
        top[redo] = np.where(t, -np.inf, sub).max(axis=1)
        bottom[redo] = np.where(t, np.inf, sub).min(axis=1)
    return top, bottom


class Booster:
    """Incremental boosting over a fixed value source.

    ``values`` has shape (n_samples, n_features) and is read only through
    ``values[:, lo:hi]`` and ``values[:, j]``: a numpy array, or a
    :class:`~fidpoint.haar.FeatureValues` that computes each block when
    it is read, so the whole matrix never exists at once.  What does not
    depend on the weights is built once, reading ``_STEP_BLOCK`` features
    at a time, and the values themselves are not kept:

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

    That is 5 bytes per (sample, feature) pair.  The sorted values that
    find the ties come from ``np.sort``, not from gathering each row
    through its order: the two may place -0.0 and 0.0, or NaNs,
    differently, but the masks read them only with ``<`` and ``==``,
    under which such values are equal, so every run of equal values falls
    on the same positions either way.

    ``step`` screens every feature with one real running sum of the
    signed weights and re-scores only the features the screen cannot rule
    out with :func:`_stump_errors`; its docstring bounds the screen.  It
    reads the winning column again from ``values`` and fits its stump
    with ``_stump``, from the order and ties kept here.
    """

    def __init__(self, values: np.ndarray | FeatureValues, labels: np.ndarray, weights: np.ndarray):
        self.values = values
        self.labels = np.asarray(labels)
        self._is_pos, self._is_neg = (m.astype(np.float64) for m in _label_masks(self.labels))
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
        # 1 for a positive, 1j for a negative: times the weights (exact
        # products by 1 and 0), each class's weights fill their own part
        self._classes = self._is_pos + 1j * self._is_neg

    def step(self) -> tuple[float, WeakClassifier, np.ndarray]:
        """One round: normalise, pick the global best stump, reweight.

        The winner is the first feature whose :func:`_stump_errors` error is
        least, and ``_stump`` fits its stump from the same errors.  Only
        features that a screen cannot rule out are scored that way.

        The screen.  With signed weights s = w * (is_pos - is_neg), T1 the
        positives' weight and T0 the negatives', the running sum d_r of s
        over a feature's first r + 1 sorted samples is C1_r - C0_r, the
        difference of the class sums below the threshold after sorted
        position r.  Its two parities err by (T1 - C1_r) + C0_r = T1 - d_r
        and C1_r + (T0 - C0_r) = T0 + d_r, and the thresholds -inf and +inf
        by T1 and T0 either way, so the feature's least error is
        min(T1 - max d, T0 + min d, T1, T0), max and min over untied r.
        One real ``cumsum`` per block gives every d.

        The bound.  With u = eps / 2 and gamma_n = n u / (1 - n u), a
        running sum of at most n terms is within gamma_n times the sum of
        their absolute values, here at most S = T1 + T0.  The exact path
        takes three such sums (c1, c0 and a total) and two more roundings,
        so each error it returns is within about (3n + 2) u S of the true
        error; the screen takes two (d and a total) and one rounding, so
        it is within about (2n + 2) u S, and a max or min of values moves
        by at most their largest error.  If the exact path's winner j has
        screened error s_j and the screen's least is s_k, then
        s_j - s_k <= 2 ((3n + 2) + (2n + 2)) u S = (10n + 8) u S, up to
        terms of relative size n u.  The tolerance 8 (n + 2) eps S =
        (16n + 32) u S covers that and the rounding of the comparison, so
        every feature within it of the least screened error is re-scored,
        the winner among them, and the first minimum over those features
        is the first minimum over all.
        Returns (alpha, weak, predictions over samples).
        """
        self.weights /= self.weights.sum()
        n, nf = self.values.shape
        s = self.weights * (self._is_pos - self._is_neg)
        t1 = float(self.weights @ self._is_pos)
        t0 = float(self.weights @ self._is_neg)
        screened = np.empty(nf)
        for lo in range(0, nf, _STEP_BLOCK):
            hi = min(nf, lo + _STEP_BLOCK)
            d = np.take(s, self._order[lo:hi])
            np.cumsum(d, axis=1, out=d)
            top, bottom = _untied_extremes(d, self._tied[lo:hi])
            np.minimum(t1 - top, t0 + bottom, out=screened[lo:hi])
        np.minimum(screened, min(t1, t0), out=screened)
        tol = 8 * (n + 2) * np.finfo(np.float64).eps * (t1 + t0)
        near = np.flatnonzero(screened <= screened.min() + tol)
        wc = self.weights * self._classes
        blocks = (near[i : i + _STEP_BLOCK] for i in range(0, len(near), _STEP_BLOCK))
        errs = np.concatenate(
            [np.minimum(*_stump_errors(wc, self._order[b], self._tied[b])).min(axis=1)
             for b in blocks]
        )
        best = int(near[np.argmin(errs)])
        col = self.values[:, best]
        weak = self._stump(best, col)
        weak.feature_index = best
        eps = min(max(weak.error, EPS_CLAMP), 0.5 - EPS_CLAMP)
        beta = eps / (1.0 - eps)
        alpha = math.log(1.0 / beta)
        pred = weak.predict_value(col).astype(np.int8)
        correct = pred == self.labels
        self.weights[correct] *= beta  # exponent 1 - e, with e = 0 when correct
        return alpha, weak, pred

    def _stump(self, j: int, col: np.ndarray) -> WeakClassifier:
        """Feature j's least-error stump under the current weights; ``col`` is its values.

        Ties break toward the smaller threshold, then parity +1.
        Thresholds rise with the sorted position, so each parity's first
        ``argmin`` is its smallest-threshold minimum.
        """
        rows = slice(j, j + 1)
        (e_plus,), (e_minus,) = _stump_errors(self.weights * self._classes, self._order[rows], self._tied[rows])
        sv = np.asarray(col, dtype=np.float64)[self._order[j]]
        thr = np.concatenate(([-np.inf], (sv[:-1] + sv[1:]) / 2.0, [np.inf]))
        p, m = np.argmin(e_plus), np.argmin(e_minus)
        err, t, parity = min((e_plus[p], thr[p], 1), (e_minus[m], thr[m], -1), key=lambda c: c[:2])
        return WeakClassifier(threshold=float(t), parity=parity, error=float(err))


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
        if weak.predict_value(v):
            score += alpha
    return score, score >= sc.threshold
