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
in the narrowest unsigned index type, from one integer sort of (value,
sample) keys per block, and a mask of the sorted positions a threshold
falls after, samples-major, 2 or 3 bytes per (sample, feature) pair.
The values themselves are not kept; the winning column of a round is
read again from the source.

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
# (block x samples) temporaries of __init__ and step.  Init with the values
# at 14,140 features, blocks of 128/256/512/1024: 139/119/117/118 ms at 188
# samples (traced peak 6.3/7.5/9.9/14.8 MB), 1.22/1.18/1.27/1.26 s at 2,000.
_STEP_BLOCK = 256
# features per block of step's screen (four float64 vectors this long); at
# 500 samples x 162,336 features, 16,384 screened in 0.83 s, 4,096 to
# 32,768 in up to 0.97 s, and longer vectors fall out of cache
_SCREEN_BLOCK = 16_384


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

    The N = 1 case of :class:`Booster`, finite values only: thresholds
    fall between consecutive distinct sorted values (``Booster._stump``),
    plus -inf/+inf sentinels, and ties break as in ``Booster.step``.
    """
    v = np.asarray(values, dtype=np.float64)
    return Booster(v[:, None], labels, weights)._stump(0, v)


def _stump_errors(wc: np.ndarray, order: np.ndarray, cut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's stump errors for parity +1 and for parity -1.

    ``wc`` holds the class weights as complex numbers, the weight times
    is-positive in the real part and times is-negative in the imaginary
    part; ``order`` and ``cut`` hold one feature per row, columns of
    ``Booster._order`` and ``Booster._cut`` transposed.  Column 0 is the
    threshold -inf and column r + 1 the threshold above sorted position r;
    columns where ``cut`` is False (no threshold falls) are inf.  One gather
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
        np.copyto(errs[:, 1:], np.inf, where=~cut)
    return e_plus, e_minus


class Booster:
    """Incremental boosting over a fixed value source.

    ``values`` has shape (n_samples, n_features) and is read only through
    ``values[:, lo:hi]`` and ``values[:, j]``: a numpy array, or a
    :class:`~fidpoint.haar.FeatureValues` that computes each block when
    it is read, so the whole matrix never exists at once.  Every value
    must be finite, else ``ValueError``.  What does not depend on the
    weights is built once, reading ``_STEP_BLOCK`` features at a time, and
    the values themselves are not kept:

    - ``_order`` (n_samples, n_features) holds each feature's stable sort
      order in a column, in ``np.min_scalar_type(n_samples - 1)`` (uint8
      up to 256 samples, uint16 up to 65,536).  A block is sorted once as
      uint64 keys that order the values (-0.0 made 0.0; all bits of a
      negative value flipped, the sign bit of any other) and hold the
      sample index in their low ``8 * itemsize`` bits, so equal values
      sort by index, as ``argsort(kind="stable")``.
    - ``_cut`` (same shape, bool) marks sorted positions whose value
      differs from the next one, where ``step`` places a threshold; the
      last row is always True (the +inf threshold).

    That is 2 or 3 bytes per (sample, feature) pair.  The cuts come from
    ``np.sort``'s values.  The key sort misorders only different values
    that share a key's high bits.  Keys sharing high bits are a run of
    sorted positions holding the same values as ``np.sort``'s, so such a
    run has two neighbouring keys with equal high bits where ``_cut`` is
    set; only those features are sorted again, stably.

    ``step`` screens every feature with one real running sum of the
    signed weights and re-scores only the features the screen cannot rule
    out with :func:`_stump_errors`; its docstring bounds the screen.  It
    reads the winning column again from ``values`` and fits its stump
    with ``_stump``, from the order and cuts kept here.
    """

    def __init__(self, values: np.ndarray | FeatureValues, labels: np.ndarray, weights: np.ndarray):
        self.values = values
        self.labels = np.asarray(labels)
        self._is_pos, self._is_neg = (m.astype(np.float64) for m in _label_masks(self.labels))
        self.weights = np.asarray(weights, dtype=np.float64).copy()
        n, nf = values.shape
        self._order = np.empty((n, nf), dtype=np.min_scalar_type(n - 1))
        self._cut = np.empty((n, nf), dtype=bool)
        low = np.uint64((1 << 8 * self._order.itemsize) - 1)  # the index bits of a key
        for lo in range(0, nf, _STEP_BLOCK):
            cols = slice(lo, lo + _STEP_BLOCK)
            block = values[:, cols].T
            # a fresh C-ordered copy, never a view of ``values``; -0.0 + 0.0 is 0.0
            key = np.add(block, 0.0, order="C")
            sv = np.sort(key, axis=1)
            # np.sort puts -inf first and +inf, then every NaN, last
            if not (np.isfinite(sv[:, :1]).all() and np.isfinite(sv[:, -1:]).all()):
                raise ValueError("feature values must be finite")
            # neighbours compared along the flattened block (several times faster than
            # by row); the last column pairs two rows until it is the +inf threshold's cut
            cut = np.empty(key.shape, dtype=bool)
            np.not_equal(sv.ravel()[1:], sv.ravel()[:-1], out=cut.ravel()[:-1])
            key = key.view(np.uint64)
            flip = np.right_shift(key.view(np.int64), 63, out=sv.view(np.int64)).view(np.uint64)
            key ^= np.bitwise_or(flip, 1 << 63, out=flip)
            key &= ~low
            key |= np.arange(n, dtype=np.uint64)
            key.sort(axis=1)
            self._order[:, cols] = key.T
            k = key.ravel()  # re-sort the rows where a cut falls between equal high bits
            if ((np.bitwise_xor(k[1:], k[:-1], out=flip.ravel()[1:]) <= low) & cut.ravel()[:-1]).any():
                redo = (((key[:, 1:] ^ key[:, :-1]) <= low) & cut[:, :-1]).any(axis=1)
                self._order[:, cols][:, redo] = np.argsort(block[redo], axis=1, kind="stable").T
            cut[:, -1:] = True
            self._cut[:, cols] = cut.T
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
        min(T1 - max d, T0 + min d, T1, T0), max and min over the cut r.
        It walks r = 0 ... n - 1 over ``_SCREEN_BLOCK`` features at a time,
        adds the signed weights that row r of ``_order`` gathers to each d,
        and keeps max and min where row r of ``_cut`` is set: a ``cumsum``'s
        additions, so every d is the same float.

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
        for lo in range(0, nf, _SCREEN_BLOCK):
            hi = min(nf, lo + _SCREEN_BLOCK)
            g, d = np.empty(hi - lo), np.zeros(hi - lo)
            top, bottom = np.full(hi - lo, -np.inf), np.full(hi - lo, np.inf)
            for order, cut in zip(self._order[:, lo:hi], self._cut[:, lo:hi]):
                np.take(s, order, out=g, mode="clip")  # in range; "raise" buffers out
                d += g
                np.maximum(top, d, out=top, where=cut)
                np.minimum(bottom, d, out=bottom, where=cut)
            np.minimum(t1 - top, t0 + bottom, out=screened[lo:hi])
        np.minimum(screened, min(t1, t0), out=screened)
        tol = 8 * (n + 2) * np.finfo(np.float64).eps * (t1 + t0)
        near = np.flatnonzero(screened <= screened.min() + tol)
        wc = self.weights * self._classes
        blocks = (near[i : i + _STEP_BLOCK] for i in range(0, len(near), _STEP_BLOCK))
        errs = np.concatenate(
            [np.minimum(*_stump_errors(wc, self._order[:, b].T, self._cut[:, b].T)).min(axis=1)
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

        Parity +1 calls ``v < t`` positive and parity -1 ``v > t``, so the
        threshold between sorted neighbours lo < hi makes the calls its
        error counts if lo < t <= hi (parity +1) or lo <= t < hi (parity
        -1).  Each takes the midpoint where it meets that, else hi (parity
        +1) or lo (parity -1): the midpoint of floats one ulp apart rounds
        onto one of them.  Ties break toward the smaller threshold, then
        parity +1.  Thresholds rise with the sorted position, so each
        parity's first ``argmin`` is its smallest-threshold minimum.
        """
        cols = slice(j, j + 1)
        (e_plus,), (e_minus,) = _stump_errors(self.weights * self._classes, self._order[:, cols].T, self._cut[:, cols].T)
        sv = np.asarray(col, dtype=np.float64)[self._order[:, j]]
        lo, hi = sv[:-1], sv[1:]
        mid = lo / 2.0 + hi / 2.0  # halves first, so finite neighbours never overflow
        thr_plus = np.concatenate(([-np.inf], np.where(mid > lo, mid, hi), [np.inf]))
        thr_minus = np.concatenate(([-np.inf], np.where(mid < hi, mid, lo), [np.inf]))
        p, m = np.argmin(e_plus), np.argmin(e_minus)
        err, t, parity = min((e_plus[p], thr_plus[p], 1), (e_minus[m], thr_minus[m], -1), key=lambda c: c[:2])
        return WeakClassifier(threshold=float(t), parity=parity, error=float(err))


def eval_strong(
    sc: StrongClassifier,
    tables: IntegralTables,
    origin: tuple[int, int] = (0, 0),
    scale: float = 1.0,
    inv_sigma: float = 1.0,
) -> tuple[float, bool]:
    """(score, decision): alpha-weighted vote against the threshold.

    The decision is ``not score < threshold``, the stage loop's rule, so a
    NaN threshold accepts like ``cascade.run_stages`` does.
    """
    score = 0.0
    for alpha, weak in sc.rounds:
        v = feature_value(weak.feature, tables, origin, scale, inv_sigma)
        if weak.predict_value(v):
            score += alpha
    return score, not score < sc.threshold
