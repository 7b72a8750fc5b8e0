"""Adapted discrete AdaBoost over single-feature decision stumps.

A weak classifier is (feature, threshold, parity): a sample is called
positive iff ``parity * value < parity * threshold``.  Each boosting
round re-searches every feature for the minimum weighted error stump,
then reweights samples by ``beta ** (1 - e)`` where ``e`` is 0 for
correctly classified samples (so correct samples shrink and mistakes
keep their weight before renormalisation).

:class:`Booster` runs the rounds over a value matrix computed once
(feature values are weight-independent); ``cascade.train_stage`` is the
driver that builds that matrix and grows a stage from the rounds.
:func:`train_weak` is the scalar one-feature stump search that
``Booster.step`` must agree with bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .haar import HaarFeature, feature_value
from .raster import IntegralTables, window_inv_stddevs

EPS_CLAMP = 1e-10  # keeps beta away from {0, inf} on separable rounds
# features per Booster.step block; bounds its (samples x block) temporaries
_STEP_BLOCK = 1024


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


def sample_inv_sigma(tables: IntegralTables) -> float:
    """Lighting correction factor of a full training patch."""
    return float(window_inv_stddevs(tables, 0, 0, tables.width, tables.height))


def init_weights(labels) -> np.ndarray:
    """Initial weights: 1/(2l) per positive and 1/(2m) per negative."""
    y = np.asarray(labels)
    l = int(np.count_nonzero(y == 1))
    m = int(np.count_nonzero(y == 0))
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


def _column_stump(e_plus, e_minus, sv) -> tuple[float, float, int]:
    """(error, threshold, parity) of one scanned column, in train_weak's order.

    ``e_plus``/``e_minus`` are the column's n + 1 candidate errors (inf on
    rows between tied values) and ``sv`` its sorted values.  Candidate
    thresholds rise with the row, so each parity's first argmin row is
    its smallest-threshold minimum; ties then go to parity +1.
    """
    n = len(sv)
    keys = []
    for rank, errs in enumerate((e_plus, e_minus)):
        r = int(np.argmin(errs))
        t = -np.inf if r == 0 else np.inf if r == n else (sv[r - 1] + sv[r]) / 2.0
        keys.append((float(errs[r]), float(t), rank))
    err, t, rank = min(keys)
    return err, t, 1 - 2 * rank


class Booster:
    """Incremental boosting over a fixed value matrix.

    ``values`` has shape (n_samples, n_features); its column sort order
    is cached once since the values are weight-independent.
    """

    def __init__(self, values: np.ndarray, labels: np.ndarray, weights: np.ndarray):
        self.values = values
        self.labels = np.asarray(labels)
        self.weights = np.asarray(weights, dtype=np.float64).copy()
        self._order = np.argsort(values, axis=0, kind="stable").astype(np.int32)
        self._is_pos = (self.labels == 1).astype(np.float64)
        self._is_neg = 1.0 - self._is_pos

    def step(self) -> tuple[float, WeakClassifier, np.ndarray]:
        """One round: normalise, pick the global best stump, reweight.

        The winner is the first feature with the minimum error, and its
        stump is the one :func:`train_weak` would pick on that column.
        Returns (alpha, weak, predictions over samples).
        """
        self.weights /= self.weights.sum()
        n, nf = self.values.shape
        best_err = np.inf
        wp_full = self.weights * self._is_pos
        wn_full = self.weights * self._is_neg
        for lo in range(0, nf, _STEP_BLOCK):
            hi = min(nf, lo + _STEP_BLOCK)
            order = self._order[:, lo:hi]
            sv = np.take_along_axis(self.values[:, lo:hi], order, axis=0)
            c1 = np.cumsum(wp_full[order], axis=0)
            c0 = np.cumsum(wn_full[order], axis=0)
            tot1, tot0 = c1[-1], c0[-1]
            e_plus = np.vstack([tot1[None, :], (tot1 - c1) + c0])
            e_minus = np.vstack([tot0[None, :], c1 + (tot0 - c0)])
            invalid = np.zeros((n + 1, hi - lo), dtype=bool)
            invalid[1:n] = sv[:-1] == sv[1:]
            e_plus[invalid] = np.inf
            e_minus[invalid] = np.inf
            errs = np.minimum(e_plus.min(axis=0), e_minus.min(axis=0))
            k = int(np.argmin(errs))
            if errs[k] < best_err:
                best_err = errs[k]
                err, t, parity = _column_stump(e_plus[:, k], e_minus[:, k], sv[:, k])
                weak = WeakClassifier(t, parity, err, feature_index=lo + k)
        col = self.values[:, weak.feature_index]
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
