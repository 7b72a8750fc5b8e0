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
    Rect,
    require_same_size,
    stack_tables,
    window_inv_stddev,
)

FORMAT_MAGIC = "FIDCASCADE"
FORMAT_VERSION = 1


class CascadeFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


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
        score, _ = eval_strong(stage.strong, tables, origin, frac, inv_sigma)
        if score < stage.strong.threshold:  # not eval_strong's >=: a NaN threshold keeps all
            return False, i
    return True, None


def run_stages(c: Cascade, cells: list, tables_by_kind: dict, stride: int, at, inv):
    """(accepted, summed stump margin) of N windows, each stage reading only its survivors.

    ``cells``: the weak classifiers' ScaledCells in cascade order; ``tables_by_kind``: rotated
    -> flattened table of row stride ``stride``; ``at``, ``inv``: the windows' offsets (one
    array for every table) and 1/sigma.  The survivors' offsets, 1/sigma and running margins
    (stumps added in cascade order) stay compact, then scatter once, 0 where rejected.
    """
    alive, full = np.zeros(len(inv), dtype=bool), np.zeros(len(inv))
    idx, margin = np.arange(len(inv)), np.zeros(len(inv))
    cell_iter = iter(cells)
    for stage in c.stages:
        if len(idx) == 0:
            break
        score = np.zeros(len(idx))
        for (alpha, weak), sc in zip(stage.strong.rounds, cell_iter):
            v = cells_at(tables_by_kind[sc.rotated], stride, at, sc.slots, sc.rotated) * inv
            # parity * v < parity * threshold and alpha * (parity * d), sign flips hoisted
            score += alpha * (v < weak.threshold if weak.parity > 0 else v > weak.threshold)
            margin += (alpha * weak.parity) * (weak.threshold - v)
        keep = np.flatnonzero(~(score < stage.strong.threshold))  # not >=: NaN keeps all
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
    still accepts and replenished from ``negative_source`` (also
    filtered) up to ``nneg``.  Candidates are pulled in fixed-size
    batches with a bounded per-stage budget, so an unbounded source
    (background mining) cannot stall training once the cascade rejects
    nearly everything; a stage short of ``nneg`` trains on whatever
    negatives were found.  Training ends after ``nstages`` stages or as
    soon as no accepted negatives remain anywhere, whichever is first.
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

def _fmt(x: float) -> str:
    return format(x, ".17g")


def serialize(c: Cascade) -> bytes:
    lines = [
        f"{FORMAT_MAGIC} {FORMAT_VERSION}",
        f"window {c.window_w} {c.window_h}",
        f"features {c.feature_set.value}",
        f"stages {len(c.stages)}",
    ]
    for i, stage in enumerate(c.stages):
        lines.append(
            f"stage {i} threshold {_fmt(stage.strong.threshold)} "
            f"nweak {len(stage.strong.rounds)} "
            f"hr {_fmt(stage.train_hit_rate)} fa {_fmt(stage.train_false_alarm)}"
        )
        for alpha, weak in stage.strong.rounds:
            f = weak.feature
            lines.append(
                f"weak alpha {_fmt(alpha)} parity {'+1' if weak.parity > 0 else '-1'} "
                f"thresh {_fmt(weak.threshold)} kind {f.kind.name} "
                f"x {f.x} y {f.y} w {f.w} h {f.h}"
            )
    return ("\n".join(lines) + "\n").encode("ascii")


class _LineReader:
    def __init__(self, data: bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as e:
            raise CascadeFormatError("not ASCII", 0) from e
        self.lines = text.split("\n")
        self.no = 0

    def next(self, expect: str) -> list[str]:
        if self.no >= len(self.lines):
            raise CascadeFormatError(f"unexpected end of file, expected '{expect}'", self.no + 1)
        self.no += 1
        parts = self.lines[self.no - 1].split()
        if not parts or parts[0] != expect:
            raise CascadeFormatError(f"expected '{expect}' line", self.no)
        return parts


def _parse_int(tok: str, reader: _LineReader) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CascadeFormatError(f"bad integer {tok!r}", reader.no) from None


def _parse_float(tok: str, reader: _LineReader, allow_inf: bool = False) -> float:
    try:
        v = float(tok)
    except ValueError:
        v = math.nan  # rejected below, like "nan" itself
    if math.isnan(v) or (math.isinf(v) and not allow_inf):
        raise CascadeFormatError(f"bad real {tok!r}", reader.no)
    return v


def deserialize(data: bytes) -> Cascade:
    r = _LineReader(data)
    magic = r.next(FORMAT_MAGIC)
    if len(magic) != 2 or _parse_int(magic[1], r) != FORMAT_VERSION:
        raise CascadeFormatError("unsupported version", r.no)
    win = r.next("window")
    if len(win) != 3:
        raise CascadeFormatError("malformed window line", r.no)
    window_w, window_h = _parse_int(win[1], r), _parse_int(win[2], r)
    if window_w < 1 or window_h < 1:
        raise CascadeFormatError("window must be positive", r.no)
    fs = r.next("features")
    if len(fs) != 2:
        raise CascadeFormatError("malformed features line", r.no)
    try:
        feature_set = FeatureSet(fs[1])
    except ValueError:
        raise CascadeFormatError("features must be BASIC or ALL", r.no) from None
    st = r.next("stages")
    if len(st) != 2:
        raise CascadeFormatError("malformed stages line", r.no)
    nstages = _parse_int(st[1], r)
    if nstages < 0:
        raise CascadeFormatError(f"negative stage count {nstages}", r.no)
    cascade = Cascade(window_w, window_h, feature_set, [])
    for i in range(nstages):
        parts = r.next("stage")
        want = ["stage", str(i), "threshold", None, "nweak", None, "hr", None, "fa", None]
        if len(parts) != len(want) or parts[::2] != want[::2] or parts[1] != str(i):
            raise CascadeFormatError("malformed stage line", r.no)
        threshold = _parse_float(parts[3], r)
        nweak = _parse_int(parts[5], r)
        if nweak < 0:
            raise CascadeFormatError(f"negative weak count {nweak}", r.no)
        hr = _parse_float(parts[7], r)
        fa = _parse_float(parts[9], r)
        sc = StrongClassifier(threshold=threshold)
        for _ in range(nweak):
            wparts = r.next("weak")
            keys = wparts[1::2]
            vals = wparts[2::2]
            if keys != ["alpha", "parity", "thresh", "kind", "x", "y", "w", "h"] or len(vals) != 8:
                raise CascadeFormatError("malformed weak line", r.no)
            alpha = _parse_float(vals[0], r)
            if vals[1] not in ("+1", "-1"):
                raise CascadeFormatError("parity must be +1 or -1", r.no)
            parity = 1 if vals[1] == "+1" else -1
            thresh = _parse_float(vals[2], r, allow_inf=True)  # the +-inf stump sentinels
            try:
                kind = FeatureKind[vals[3]]
            except KeyError:
                raise CascadeFormatError(f"unknown kind {vals[3]!r}", r.no) from None
            x, y = _parse_int(vals[4], r), _parse_int(vals[5], r)
            w, h = _parse_int(vals[6], r), _parse_int(vals[7], r)
            if w < 1 or h < 1:
                raise CascadeFormatError("cell extent must be >= 1", r.no)
            feature = HaarFeature(kind, x, y, w, h)
            if not fits_window(feature, window_w, window_h):
                raise CascadeFormatError(
                    f"feature {kind.name} at ({x},{y}) size {w}x{h} exceeds window", r.no
                )
            sc.rounds.append((alpha, WeakClassifier(thresh, parity, feature=feature)))
        cascade.stages.append(Stage(sc, hr, fa))
    for extra in r.lines[r.no :]:
        if extra.strip():
            raise CascadeFormatError("trailing content", r.no + 1)
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
