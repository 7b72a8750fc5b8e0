"""Adapted discrete AdaBoost over single-feature decision stumps.

A weak classifier is (feature, threshold, parity): a sample is called
positive iff ``parity * value < parity * threshold``.  Each boosting
round re-searches every feature for the minimum weighted error stump,
then reweights samples by ``beta ** (1 - e)`` where ``e`` is 0 for
correctly classified samples (so correct samples shrink and mistakes
keep their weight before renormalisation).

Feature values are weight-independent, so they are computed once into a
value matrix and reused across rounds; results are bit-identical to
recomputing per round.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .haar import HaarFeature, feature_matrix, feature_value
from .raster import IntegralTables, window_inv_stddevs

EPS_CLAMP = 1e-10  # keeps beta away from {0, inf} on separable rounds
# features per Booster.step block; bounds its (samples x block) temporaries
_STEP_BLOCK = 1024


@dataclass
class TrainingSample:
    """A window-sized patch with its label and current boosting weight."""

    tables: IntegralTables
    label: int
    weight: float = 0.0


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


def init_weights(samples: list[TrainingSample]) -> list[TrainingSample]:
    """Set weights to 1/(2l) per positive and 1/(2m) per negative."""
    l = sum(1 for s in samples if s.label == 1)
    m = sum(1 for s in samples if s.label == 0)
    if l == 0 or m == 0:
        raise ValueError(f"degenerate training set: {l} positives, {m} negatives")
    for s in samples:
        s.weight = 1.0 / (2 * l) if s.label == 1 else 1.0 / (2 * m)
    return samples


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


class Booster:
    """Incremental boosting over a fixed value matrix.

    ``values`` has shape (n_samples, n_features); sort order, candidate
    thresholds, and validity masks are cached once since the values are
    weight-independent.
    """

    def __init__(self, values: np.ndarray, labels: np.ndarray, weights: np.ndarray,
                 progress=None):
        self.values = values
        self.labels = np.asarray(labels)
        self.weights = np.asarray(weights, dtype=np.float64).copy()
        self.progress = progress
        self.round_no = 0
        n, nf = values.shape
        self._order = np.argsort(values, axis=0, kind="stable").astype(np.int32)
        self._is_pos = (self.labels == 1).astype(np.float64)
        self._is_neg = 1.0 - self._is_pos

    def step(self) -> tuple[float, WeakClassifier, np.ndarray]:
        """One round: normalise, pick the global best stump, reweight.

        Returns (alpha, weak, predictions over samples).
        """
        self.round_no += 1
        self.weights /= self.weights.sum()
        n, nf = self.values.shape
        best_err = np.inf
        best_feat = -1
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
                best_err = float(errs[k])
                best_feat = lo + k
        col = self.values[:, best_feat]
        weak = train_weak(col, self.labels, self.weights)
        weak.feature_index = best_feat
        eps = min(max(weak.error, EPS_CLAMP), 0.5 - EPS_CLAMP)
        beta = eps / (1.0 - eps)
        alpha = math.log(1.0 / beta)
        pred = (weak.parity * col < weak.parity * weak.threshold).astype(np.int8)
        correct = pred == self.labels
        self.weights[correct] *= beta  # exponent 1 - e, with e = 0 when correct
        if self.progress is not None:
            print(
                f"round {self.round_no} feature {best_feat} "
                f"eps {weak.error:.12g} alpha {alpha:.12g}",
                file=self.progress,
            )
        return alpha, weak, pred


def adaboost(
    samples: list[TrainingSample],
    features: list[HaarFeature],
    rounds: int,
    progress=None,
) -> StrongClassifier:
    """Run ``rounds`` boosting rounds and assemble the strong classifier."""
    if rounds < 1:
        raise ValueError("need at least one round")
    labels = np.array([s.label for s in samples])
    if not ((labels == 1).any() and (labels == 0).any()):
        raise ValueError("degenerate training set")
    weights = np.array([s.weight for s in samples], dtype=np.float64)
    if weights.sum() <= 0:
        init_weights(samples)
        weights = np.array([s.weight for s in samples])
    inv = np.array([sample_inv_sigma(s.tables) for s in samples])
    values = feature_matrix(features, [s.tables for s in samples], inv)
    booster = Booster(values, labels, weights, progress=progress)
    sc = StrongClassifier()
    for _ in range(rounds):
        alpha, weak, _ = booster.step()
        weak.feature = features[weak.feature_index]
        sc.rounds.append((alpha, weak))
    sc.threshold = 0.5 * sc.alpha_sum
    for s, w in zip(samples, booster.weights / booster.weights.sum()):
        s.weight = float(w)
    return sc


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
