"""Cascade stages: threshold adaptation, bootstrapped training, file format, mirroring.

A cascade is an ordered list of strong classifiers sharing one
enumeration window.  :func:`train_stage` is the one boosting driver: it
adds ``Booster`` rounds (each the least-error stump over all features)
until the stage's false-alarm rate on
its own negatives drops to ``maxfalsealarm``, adapting the stage
threshold downward from the boosting default after each round so the
stage keeps at least ``minhitrate`` of its training positives.
:func:`train_cascade` trains stage after stage; between stages the
negative pool is filtered to survivors of the cascade so far and
replenished from the negative source, which makes hit and false-alarm
rates compound multiplicatively across stages.

:func:`run_stages` is the one batch stage loop: the scanner runs it per
scale over a frame's windows, and bootstrap filtering runs it over the
stacked negative patches.  It keeps the survivors compact, with one
running margin per window summed stump by stump in cascade order.
:func:`classify_window` is its scalar oracle, scoring each stage with
``boost.eval_strong``.  Training and filtering stack each batch of
patches once, with ``raster.stack_tables``, which also returns every
patch's 1/sigma.  Each stage reads its own ``haar.feature_table`` through
a ``haar.FeatureValues``, block by block; ``enumerate_features`` and
``feature_matrix`` stay imported here only for ``perfbench/layers.py``,
which rebinds them by this module's name.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .boost import Booster, StrongClassifier, WeakClassifier, eval_strong, init_weights
from .haar import (
    FeatureSet,
    HaarFeature,
    FeatureKind,
    FeatureValues,
    enumerate_features,
    feature_matrix,
    feature_table,
    fits_window,
    mirror_feature,
    cells_at,
    round_half_up,
    scan_plan,
)
from .raster import (
    BoundsError,
    IntegralTables,
    LineFormatError,
    LineReader,
    Rect,
    require_same_size,
    stack_tables,
    window_inv_stddev,
)

FORMAT_MAGIC = "FIDCASCADE"
FORMAT_VERSION = 1


class CascadeFormatError(LineFormatError):
    """Malformed cascade file; ``line`` is the offending line (see ``raster.LineReader``)."""


class StageStuckError(RuntimeError):
    """Stage could not reach the false-alarm target; carries the plateau."""

    def __init__(self, stage_index: int, hit_rate: float, false_alarm: float, n_weak: int):
        super().__init__(
            f"stage {stage_index} stuck after {n_weak} weak classifiers "
            f"(HR {hit_rate:.6f}, FA {false_alarm:.6f}); slacken the training parameters"
        )
        self.stage_index = stage_index
        self.hit_rate = hit_rate
        self.false_alarm = false_alarm
        self.n_weak = n_weak


@dataclass
class Stage:
    strong: StrongClassifier
    train_hit_rate: float = 1.0
    train_false_alarm: float = 1.0


@dataclass
class Cascade:
    window_w: int
    window_h: int
    feature_set: FeatureSet
    stages: list[Stage] = field(default_factory=list)


@dataclass
class TrainParams:
    nstages: int = 15
    npos: int = 1000
    nneg: int = 1000
    minhitrate: float = 0.995
    maxfalsealarm: float = 0.5
    mode: FeatureSet = FeatureSet.BASIC
    max_weak_per_stage: int = 40
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.maxfalsealarm < 1:
            raise ValueError("maxfalsealarm must lie in (0, 1)")
        if not 0 < self.minhitrate < 1:
            raise ValueError("minhitrate must lie in (0, 1)")
        if self.minhitrate <= self.maxfalsealarm:
            raise ValueError("minhitrate must exceed maxfalsealarm")
        if min(self.nstages, self.npos, self.nneg, self.max_weak_per_stage) < 1:
            raise ValueError("counts must be positive")


def compound_bounds(minhitrate: float, maxfalsealarm: float, nstages: int) -> tuple[float, float]:
    """Worst-case overall (hit rate, false alarm) after ``nstages`` stages."""
    return minhitrate**nstages, maxfalsealarm**nstages


def adapt_threshold(sc: StrongClassifier, positive_scores, minhitrate: float) -> float:
    """Largest threshold that keeps at least ``minhitrate`` of the scores.

    With the n scores sorted ascending, theta is the k-th smallest where
    k = floor(n * (1 - minhitrate)) + 1 (the bottom floor(n*(1-mhr))
    scores are the most that may be lost); ties only ever admit more
    positives.  The result is additionally capped at the boosting
    default of half the alpha sum, so adaptation can only lower it.
    """
    scores = np.sort(np.asarray(positive_scores, dtype=np.float64))
    n = len(scores)
    if n == 0:
        raise ValueError("need at least one positive score")
    k = int(math.floor(n * (1.0 - minhitrate) + 1e-9)) + 1
    k = min(k, n)
    theta = float(scores[k - 1])
    return min(theta, 0.5 * sc.alpha_sum)


def train_stage(
    positives: list[IntegralTables],
    negatives: list[IntegralTables],
    params: TrainParams,
) -> Stage:
    """Grow one boosted stage until its false alarm rate is acceptable.

    This is the one boosting loop: it hands :class:`Booster` the
    1/sigma-corrected values of the samples' ``haar.feature_table`` in
    ``params.mode`` as a ``haar.FeatureValues``, which computes them block
    by block, then takes rounds and adapts the stage threshold after each.
    Only the rows that weak classifiers keep become ``HaarFeature`` values.
    Raises :class:`StageStuckError` carrying the final (HR, FA, T)
    plateau when ``max_weak_per_stage`` rounds cannot reach the target.
    """
    if not positives or not negatives:
        raise ValueError("both sample sets must be non-empty")
    table = feature_table(positives[0].width, positives[0].height, params.mode)
    if not len(table):
        raise ValueError(f"no feature fits the {positives[0].width}x{positives[0].height} window")
    npos = len(positives)
    labels = np.repeat([1, 0], [npos, len(negatives)])
    values = FeatureValues(table, [*positives, *negatives])
    booster = Booster(values, labels, init_weights(labels))
    scores = np.zeros(len(labels))
    sc = StrongClassifier()
    hr = fa = 1.0
    for _ in range(params.max_weak_per_stage):
        alpha, weak, pred = booster.step()
        kind, *xywh = table[weak.feature_index].tolist()
        weak.feature = HaarFeature(FeatureKind(kind), *xywh)
        sc.rounds.append((alpha, weak))
        scores += alpha * pred
        sc.threshold = adapt_threshold(sc, scores[:npos], params.minhitrate)
        hr = float(np.mean(scores[:npos] >= sc.threshold))
        fa = float(np.mean(scores[npos:] >= sc.threshold))
        if fa <= params.maxfalsealarm:
            return Stage(sc, train_hit_rate=hr, train_false_alarm=fa)
    raise StageStuckError(-1, hr, fa, params.max_weak_per_stage)


def classify_window(
    c: Cascade,
    tables: IntegralTables,
    origin: tuple[int, int] = (0, 0),
    scale: float = 1.0,
) -> tuple[bool, int | None]:
    """Evaluate stages in order; (accepted, index of the rejecting stage).

    The effective cell scale is the exact ratio of the realized window
    width round(window_w * scale) to the base window width, so windows
    produced by the scanner evaluate identically here.  A zero-stage
    cascade accepts every window by convention (the recursion base for
    bootstrapping).  Raises ``BoundsError`` if the window leaves the tables.
    """
    frac = Fraction(round_half_up(c.window_w * scale), c.window_w)
    win_w = round_half_up(c.window_w * frac)
    win_h = round_half_up(c.window_h * frac)
    inv_sigma = window_inv_stddev(tables, Rect(*origin, win_w, win_h))
    for i, stage in enumerate(c.stages):
        if not eval_strong(stage.strong, tables, origin, frac, inv_sigma)[1]:
            return False, i
    return True, None


def run_stages(c: Cascade, cells: list, tables_by_kind: dict, stride: int, at, inv):
    """(accepted, summed stump margin) of N windows, each stage reading only its survivors.

    ``cells``: the weak classifiers' ScaledCells in cascade order; ``tables_by_kind``: rotated
    -> flattened table of row stride ``stride``; ``at``, ``inv``: the windows' offsets (one
    array for every table) and 1/sigma.  The survivors' offsets, 1/sigma and running margins
    (stumps added in cascade order) stay compact, then scatter once, 0 where rejected.

    The feature values, stump votes and margin terms are written into buffers allocated once
    per call, a stage of m survivors using their leading m entries.  Each window still sees
    the same elementwise operations in the same order, so verdicts and margins are those of
    fresh arrays bit for bit.
    """
    alive, full = np.zeros(len(inv), dtype=bool), np.zeros(len(inv))
    idx, margin = np.arange(len(inv)), np.zeros(len(inv))
    values, terms, scores = np.empty(len(inv)), np.empty(len(inv)), np.empty(len(inv))
    votes = np.empty(len(inv), dtype=bool)
    cell_iter = iter(cells)
    for stage in c.stages:
        m = len(idx)
        if m == 0:
            break
        v, tmp, score, cmp = values[:m], terms[:m], scores[:m], votes[:m]
        score.fill(0.0)
        for (alpha, weak), sc in zip(stage.strong.rounds, cell_iter):
            cells_at(tables_by_kind[sc.rotated], stride, at, sc.slots, sc.rotated, out=v)
            v *= inv
            # parity * v < parity * threshold and alpha * (parity * d), sign flips hoisted
            (np.less if weak.parity > 0 else np.greater)(v, weak.threshold, out=cmp)
            score += np.multiply(cmp, alpha, out=tmp)
            np.subtract(weak.threshold, v, out=tmp)
            tmp *= alpha * weak.parity
            margin += tmp
        np.less(score, stage.strong.threshold, out=cmp)
        keep = np.flatnonzero(~cmp)  # not >=: NaN keeps all
        idx, at, inv, margin = idx[keep], at[keep], inv[keep], margin[keep]
    alive[idx], full[idx] = True, margin
    return alive, full


def _batch_accept(c: Cascade, tables_list: list[IntegralTables]) -> np.ndarray:
    """Cascade verdicts for window-sized patches: one :func:`run_stages` pass.

    Bit-identical to :func:`classify_window` at scale 1.  Only the first
    patch is checked against the window: ``stack_tables`` rejects any
    patch whose size differs from the first's.
    """
    if not tables_list:
        return np.ones(0, dtype=bool)
    t = tables_list[0]
    if (t.width, t.height) != (c.window_w, c.window_h):
        raise ValueError(f"{t.width}x{t.height} patch for a {c.window_w}x{c.window_h} cascade")
    features = tuple(wk.feature for st in c.stages for _, wk in st.strong.rounds)
    cells, overhang = scan_plan(c.window_w, c.window_h, features, Fraction(1), False)
    if any(overhang):
        raise BoundsError(f"cells overhang the {c.window_w}x{c.window_h} window by {overhang}")
    return run_stages(c, cells, *stack_tables(tables_list, {sc.rotated for sc in cells}))[0]


def train_cascade(
    positives: list[IntegralTables],
    negative_source: Iterable[IntegralTables],
    params: TrainParams,
) -> Cascade:
    """Stage-by-stage training with negative bootstrapping.

    The negative pool is filtered between stages to patches the cascade
    still accepts.  While it holds fewer than ``nneg`` patches, it is
    topped up from ``negative_source`` in batches of max(nneg, 128)
    candidates, and every candidate of a batch that the cascade accepts
    joins it; so a stage can train on more than ``nneg`` negatives (the
    first stage, with no stage to reject any, on a whole first batch).  The
    draws have a per-stage budget of 200 * nneg candidates, so an
    unbounded source (background mining) cannot stall training once the
    cascade rejects nearly everything; a stage short of ``nneg`` trains
    on whatever negatives were found.  Training ends after ``nstages``
    stages or as soon as no accepted negatives remain anywhere,
    whichever is first.
    """
    if not positives:
        raise ValueError("no positive samples")
    positives = positives[: params.npos]
    require_same_size(positives)  # even if no stage trains
    cascade = Cascade(positives[0].width, positives[0].height, params.mode, [])
    source: Iterator[IntegralTables] = iter(negative_source)
    pool: list[IntegralTables] = []
    exhausted = False
    batch_size = max(params.nneg, 128)
    for stage_index in range(params.nstages):
        if pool:
            keep = _batch_accept(cascade, pool)
            pool = [t for t, k in zip(pool, keep) if k]
        budget = 200 * params.nneg
        while len(pool) < params.nneg and not exhausted and budget > 0:
            want = min(batch_size, budget)
            batch = list(itertools.islice(source, want))
            exhausted = len(batch) < want
            budget -= len(batch)
            keep = _batch_accept(cascade, batch)
            pool.extend(t for t, k in zip(batch, keep) if k)
        if not pool:
            break  # cascade already rejects every available negative
        try:
            stage = train_stage(positives, pool, params)
        except StageStuckError as err:
            raise StageStuckError(stage_index, err.hit_rate, err.false_alarm, err.n_weak) from None
        cascade.stages.append(stage)
    return cascade


# --- serialization -----------------------------------------------------------

# the keys of a stage line after "stage <index>", and of a weak line after "weak"
_STAGE_KEYS = ("threshold", "nweak", "hr", "fa")
_WEAK_KEYS = ("alpha", "parity", "thresh", "kind", "x", "y", "w", "h")
# the kinds a file of each feature set may hold, by name: scans build rotated sums only for ALL
_KINDS = {
    fs: {k.name: k for k in FeatureKind if fs is FeatureSet.ALL or not k.rotated}
    for fs in FeatureSet
}


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _record(lead: tuple, keys: tuple, values) -> str:
    """One line of the ``lead`` tokens, then each key followed by its value."""
    return " ".join([*lead, *(f"{k} {v}" for k, v in zip(keys, values))])


def serialize(c: Cascade) -> bytes:
    """The cascade as ASCII lines, each ending in LF, read back by :func:`deserialize`.

    The grammar, one record per line and tokens separated by one space::

        FIDCASCADE 1
        window <window_w> <window_h>
        features BASIC|ALL
        stages <nstages>
        then per stage i = 0, 1, ...:
        stage <i> threshold <real> nweak <nweak> hr <real> fa <real>
        and nweak lines:
        weak alpha <real> parity +1|-1 thresh <real> kind <name> x <int> y <int> w <int> h <int>

    ``<name>`` is a ``FeatureKind`` name, rotated (``_45``) kinds only
    under ``features ALL``.  Reals are written with 17 significant digits,
    so they read back exactly; a stump ``thresh`` may be ``inf`` or ``-inf``.
    """
    lines = [
        f"{FORMAT_MAGIC} {FORMAT_VERSION}",
        f"window {c.window_w} {c.window_h}",
        f"features {c.feature_set.value}",
        f"stages {len(c.stages)}",
    ]
    for i, stage in enumerate(c.stages):
        sc = stage.strong
        rates = _fmt(stage.train_hit_rate), _fmt(stage.train_false_alarm)
        values = _fmt(sc.threshold), len(sc.rounds), *rates
        lines.append(_record(("stage", str(i)), _STAGE_KEYS, values))
        for alpha, weak in sc.rounds:
            f = weak.feature
            parity = "+1" if weak.parity > 0 else "-1"
            values = _fmt(alpha), parity, _fmt(weak.threshold), f.kind.name, f.x, f.y, f.w, f.h
            lines.append(_record(("weak",), _WEAK_KEYS, values))
    return ("\n".join(lines) + "\n").encode("ascii")


def deserialize(data: bytes) -> Cascade:
    """The cascade of a :func:`serialize` file, read by the line rule of ``raster.LineReader``.

    Raises :class:`CascadeFormatError` at the offending line for any
    malformed file, including a rotated kind in a ``features BASIC``
    cascade, whose scans build no rotated sums.
    """
    r = LineReader(data, CascadeFormatError)
    if r.integer(r.next(FORMAT_MAGIC, count=1)[0]) != FORMAT_VERSION:
        raise CascadeFormatError("unsupported version", r.no)
    window_w, window_h = map(r.integer, r.next("window", count=2))
    if window_w < 1 or window_h < 1:
        raise CascadeFormatError("window must be positive", r.no)
    name = r.next("features", count=1)[0]
    try:
        feature_set = FeatureSet(name)
    except ValueError:
        raise CascadeFormatError("features must be BASIC or ALL", r.no) from None
    nstages = r.integer(r.next("stages", count=1)[0])
    if nstages < 0:
        raise CascadeFormatError(f"negative stage count {nstages}", r.no)
    kinds = _KINDS[feature_set]
    cascade = Cascade(window_w, window_h, feature_set, [])
    for i in range(nstages):
        vals = r.next("stage", str(i), keys=_STAGE_KEYS)
        threshold = r.real(vals[0])
        nweak = r.integer(vals[1])
        if nweak < 0:
            raise CascadeFormatError(f"negative weak count {nweak}", r.no)
        hr, fa = r.real(vals[2]), r.real(vals[3])
        sc = StrongClassifier(threshold=threshold)
        for _ in range(nweak):
            vals = r.next("weak", keys=_WEAK_KEYS)
            alpha = r.real(vals[0])
            if vals[1] not in ("+1", "-1"):
                raise CascadeFormatError("parity must be +1 or -1", r.no)
            parity = 1 if vals[1] == "+1" else -1
            thresh = r.real(vals[2], allow_inf=True)  # the +-inf stump sentinels
            kind = kinds.get(vals[3])
            if kind is None:
                if vals[3] in FeatureKind.__members__:
                    raise CascadeFormatError(f"rotated kind {vals[3]} needs features ALL", r.no)
                raise CascadeFormatError(f"unknown kind {vals[3]!r}", r.no)
            x, y = r.integer(vals[4]), r.integer(vals[5])
            w, h = r.integer(vals[6]), r.integer(vals[7])
            if w < 1 or h < 1:
                raise CascadeFormatError("cell extent must be >= 1", r.no)
            feature = HaarFeature(kind, x, y, w, h)
            if not fits_window(feature, window_w, window_h):
                raise CascadeFormatError(
                    f"feature {kind.name} at ({x},{y}) size {w}x{h} exceeds window", r.no
                )
            sc.rounds.append((alpha, WeakClassifier(thresh, parity, feature=feature)))
        cascade.stages.append(Stage(sc, hr, fa))
    r.end()
    return cascade


# --- mirroring ----------------------------------------------------------------

def mirror(c: Cascade) -> Cascade:
    """Horizontally mirrored cascade; it serves mirrored cascade files only.

    Scans reflect the scaled cells instead (``haar.scan_plan``): rotated
    cells mirrored before scaling can land one pixel off the mirror image.
    Upright cell rects (x, y, w, h) become (window_w - x - w, y, w, h);
    kinds whose signed layout is left/right asymmetric (EDGE_H, DIAG)
    mirror by negating both parity and stump threshold, which leaves
    every classification decision on mirrored input unchanged; rotated
    kinds map to the opposite-diagonal kind.  Alphas, stage thresholds,
    and recorded training rates are unchanged.
    """
    out = Cascade(c.window_w, c.window_h, c.feature_set, [])
    for stage in c.stages:
        sc = StrongClassifier(threshold=stage.strong.threshold)
        for alpha, weak in stage.strong.rounds:
            mf, flips = mirror_feature(weak.feature, c.window_w)
            sc.rounds.append(
                (
                    alpha,
                    WeakClassifier(
                        threshold=-weak.threshold if flips else weak.threshold,
                        parity=-weak.parity if flips else weak.parity,
                        error=weak.error,
                        feature_index=weak.feature_index,
                        feature=mf,
                    ),
                )
            )
        out.stages.append(Stage(sc, stage.train_hit_rate, stage.train_false_alarm))
    return out
