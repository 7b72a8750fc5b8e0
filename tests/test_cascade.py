import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fidpoint.boost import StrongClassifier, WeakClassifier
from fidpoint.cascade import (
    Cascade,
    _batch_accept,
    CascadeFormatError,
    Stage,
    StageStuckError,
    TrainParams,
    adapt_threshold,
    classify_window,
    compound_bounds,
    deserialize,
    mirror,
    run_stages,
    scaled_cells,
    serialize,
    train_cascade,
    train_stage,
)
from fidpoint.haar import (
    FeatureKind,
    FeatureSet,
    HaarFeature,
    enumerate_features,
    round_half_up,
    scale_feature,
)
from fidpoint.raster import BoundsError, GrayImage, Rect, build_tables, is_inside, stack_tables
import oracles
from conftest import row_ids
from oracles import eval_strong, window_inv_stddev


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PINNED = PERFBENCH / "data"
PINS = json.loads((PERFBENCH / "pins.json").read_text())["cascades"]


def make_tables(rng, side=6, rotated=False):
    img = GrayImage(rng.integers(0, 256, (side, side), dtype=np.uint8))
    return build_tables(img, want_rotated=rotated)


def separable_patches(rng, n_pos, n_neg, side=6):
    pos, neg = [], []
    for _ in range(n_pos):
        px = rng.integers(0, 40, (side, side))
        px[:, side // 2 :] += 180
        pos.append(build_tables(GrayImage(px.astype(np.uint8))))
    for _ in range(n_neg):
        px = rng.integers(0, 40, (side, side))
        px[:, : side // 2] += 180
        neg.append(build_tables(GrayImage(px.astype(np.uint8))))
    return pos, neg


def random_cascade(rng, window=8, n_stages=3, feature_set=FeatureSet.BASIC, easy=True):
    feats = enumerate_features(window, window, feature_set)
    stages = []
    for _ in range(n_stages):
        rounds = []
        for _ in range(int(rng.integers(1, 4))):
            f = feats[int(rng.integers(0, len(feats)))]
            rounds.append(
                (
                    float(rng.uniform(0.2, 1.5)),
                    WeakClassifier(
                        threshold=float(rng.normal(0, 30)),
                        parity=int(rng.choice([-1, 1])),
                        feature=f,
                    ),
                )
            )
        sc = StrongClassifier(rounds=rounds)
        total = sc.alpha_sum
        sc.threshold = float(rng.uniform(0, 0.4 if easy else 1.0) * total)
        stages.append(Stage(sc, 0.99, 0.5))
    return Cascade(window, window, feature_set, stages)


# --- adapt_threshold ---------------------------------------------------------

def strong_with_alpha(total=1000.0):
    f = HaarFeature(FeatureKind.EDGE_H, 0, 0, 1, 1)
    return StrongClassifier(rounds=[(total, WeakClassifier(0.0, 1, feature=f))], threshold=0.0)


def test_adapt_threshold_full_hit_rate():
    sc = strong_with_alpha()
    assert adapt_threshold(sc, [3.0, 1.0, 2.0], 1.0) == 1.0


def test_adapt_threshold_three_quarters():
    sc = strong_with_alpha()
    assert adapt_threshold(sc, [1.0, 2.0, 3.0, 4.0], 0.75) == 2.0


def test_adapt_threshold_postcondition_replay():
    rng = np.random.default_rng(3)
    sc = strong_with_alpha()
    for _ in range(200):
        n = int(rng.integers(1, 60))
        scores = rng.normal(0, 10, n)
        mhr = float(rng.uniform(0.5, 1.0))
        theta = adapt_threshold(sc, scores, mhr)
        assert np.mean(scores >= theta) >= mhr
        assert theta <= 0.5 * sc.alpha_sum


def test_adapt_threshold_caps_at_half_alpha_sum():
    sc = strong_with_alpha(total=2.0)  # cap at 1.0
    assert adapt_threshold(sc, [5.0, 6.0, 7.0], 0.9) == 1.0


# --- train_stage ---------------------------------------------------------------

def test_train_stage_trivially_separable():
    rng = np.random.default_rng(5)
    pos, neg = separable_patches(rng, 12, 12)
    params = TrainParams(nstages=1, npos=12, nneg=12, max_weak_per_stage=10)
    stage = train_stage(pos, neg, params)
    assert len(stage.strong.rounds) == 1
    assert stage.train_hit_rate >= params.minhitrate
    assert stage.train_false_alarm <= params.maxfalsealarm


def test_train_stage_unlearnable_sticks():
    rng = np.random.default_rng(7)
    pos = [make_tables(rng) for _ in range(15)]
    neg = [make_tables(rng) for _ in range(15)]  # same distribution: unlearnable
    params = TrainParams(
        nstages=1, npos=15, nneg=15, minhitrate=0.999, maxfalsealarm=0.01,
        max_weak_per_stage=3,
    )
    with pytest.raises(StageStuckError) as err:
        train_stage(pos, neg, params)
    assert err.value.n_weak == 3
    assert 0.0 <= err.value.false_alarm <= 1.0


def test_train_cascade_rejects_window_without_features():
    # no feature fits a 1x1 window; the empty value matrix used to reach Booster
    rng = np.random.default_rng(11)
    pos = [make_tables(rng, side=1) for _ in range(4)]
    neg = [make_tables(rng, side=1) for _ in range(8)]
    params = TrainParams(nstages=1, npos=4, nneg=4)
    with pytest.raises(ValueError, match="no feature fits the 1x1 window"):
        train_cascade(pos, iter(neg), params)


def test_train_stage_rejects_mixed_sample_sizes():
    rng = np.random.default_rng(13)
    pos, neg = separable_patches(rng, 4, 4)
    neg[2] = make_tables(rng, side=7)
    with pytest.raises(ValueError, match="7x7 sample among 6x6 samples"):
        train_stage(pos, neg, TrainParams(nstages=1, npos=4, nneg=4))


@pytest.mark.parametrize("with_negatives", [True, False], ids=["negatives", "empty"])
def test_train_cascade_rejects_mixed_positive_sizes(with_negatives):
    # with no negatives no stage trains, so the check must not wait for one
    rng = np.random.default_rng(13)
    pos, neg = separable_patches(rng, 4, 8)
    pos[2] = make_tables(rng, side=7)
    source = iter(neg if with_negatives else [])
    with pytest.raises(ValueError, match="7x7 sample among 6x6 samples"):
        train_cascade(pos, source, TrainParams(nstages=1, npos=4, nneg=4))


def test_train_stage_postconditions_replay():
    rng = np.random.default_rng(9)
    pos, neg = separable_patches(rng, 10, 30)
    params = TrainParams(nstages=1, npos=10, nneg=30, max_weak_per_stage=20)
    stage = train_stage(pos, neg, params)
    hits = sum(
        eval_strong(stage.strong, t, inv_sigma=window_inv_stddev(t, Rect(0, 0, 6, 6)))[1]
        for t in pos
    )
    fas = sum(
        eval_strong(stage.strong, t, inv_sigma=window_inv_stddev(t, Rect(0, 0, 6, 6)))[1]
        for t in neg
    )
    assert hits / len(pos) == stage.train_hit_rate
    assert fas / len(neg) == stage.train_false_alarm


# --- train_cascade ----------------------------------------------------------------

def test_compound_bounds_paper_values():
    hit, fa = compound_bounds(0.995, 0.5, 15)
    assert hit == pytest.approx(0.9276, rel=1e-3)
    assert fa == pytest.approx(3.05e-5, rel=1e-2)


def test_single_stage_cascade_equals_stage():
    rng = np.random.default_rng(11)
    pos, neg = separable_patches(rng, 12, 24)
    params = TrainParams(nstages=1, npos=12, nneg=24)
    cascade = train_cascade(pos, iter(neg), params)
    assert len(cascade.stages) == 1
    stage = cascade.stages[0]
    for t in pos + neg:
        accepted, _ = classify_window(cascade, t)
        _, want = eval_strong(
            stage.strong, t, inv_sigma=window_inv_stddev(t, Rect(0, 0, 6, 6))
        )
        assert accepted == want


def test_cascade_stage_constraints_and_compound_fa():
    rng = np.random.default_rng(13)
    # noisy blobs: positives have a bright center blob, negatives textured noise
    pos, neg = [], []
    for _ in range(40):
        px = rng.integers(0, 120, (8, 8))
        px[2:6, 2:6] += 130
        pos.append(build_tables(GrayImage(np.clip(px, 0, 255).astype(np.uint8))))
    for _ in range(300):
        neg.append(make_tables(rng, 8))
    params = TrainParams(nstages=4, npos=40, nneg=80, max_weak_per_stage=25)
    cascade = train_cascade(pos, iter(neg), params)
    assert cascade.stages
    for st in cascade.stages:
        assert st.train_hit_rate >= params.minhitrate
        assert st.train_false_alarm <= params.maxfalsealarm
    accepted = sum(classify_window(cascade, t)[0] for t in neg)
    assert accepted / len(neg) <= params.maxfalsealarm ** len(cascade.stages) + 1e-12


# --- classify_window ---------------------------------------------------------------

def test_zero_stage_accepts_everything():
    rng = np.random.default_rng(17)
    c = Cascade(6, 6, FeatureSet.BASIC, [])
    for _ in range(5):
        assert classify_window(c, make_tables(rng)) == (True, None)


def test_impossible_threshold_rejects_at_zero():
    rng = np.random.default_rng(19)
    c = random_cascade(rng, n_stages=2)
    c.stages[0].strong.threshold = c.stages[0].strong.alpha_sum + 1.0
    for _ in range(5):
        assert classify_window(c, make_tables(rng, 8)) == (False, 0)


def test_classify_matches_no_early_exit():
    rng = np.random.default_rng(23)
    for _ in range(40):
        c = random_cascade(rng, n_stages=int(rng.integers(1, 5)), easy=False)
        t = make_tables(rng, 8)
        accepted, rejected_at = classify_window(c, t)
        verdicts = []
        for st in c.stages:
            inv = window_inv_stddev(t, Rect(0, 0, 8, 8))
            verdicts.append(eval_strong(st.strong, t, inv_sigma=inv)[1])
        assert accepted == all(verdicts)
        if accepted:
            assert rejected_at is None
        else:
            assert rejected_at == verdicts.index(False)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    feature_set=st.sampled_from(FeatureSet),
    n_stages=st.integers(0, 3),
    reach=st.booleans(),
    scale=st.sampled_from([1.0, 1.2, 1.5]),
    x=st.integers(-1, 5),
    y=st.integers(-1, 5),
)
@example(seed=4, feature_set=FeatureSet.BASIC, n_stages=1, reach=True, scale=1.0, x=5, y=5)
def test_classify_window_agrees_with_scalar_reference(
    seed, feature_set, n_stages, reach, scale, x, y
):
    # ``reach`` appends a stage of features drawn from a 10x10 window, whose cells may
    # pass the 8x8 window; when an earlier stage rejects, the reference never reads them
    rng = np.random.default_rng(seed)
    c = random_cascade(rng, 8, n_stages, feature_set, easy=False)
    if reach:
        c.stages += random_cascade(rng, 10, 1, feature_set).stages
    t = make_tables(rng, 13, rotated=feature_set is FeatureSet.ALL)
    side = round_half_up(8 * scale)
    features = [wk.feature for s in c.stages for _, wk in s.strong.rounds]
    cells = [scale_feature(f, Fraction(side, 8)) for f in features]
    window_inside = is_inside(13, 13, x, y, side, side, False)
    cells_inside = all(
        is_inside(13, 13, x + cx, y + cy, cw, ch, sc.rotated)
        for sc in cells
        for cx, cy, cw, ch, _ in sc.slots
    )
    if window_inside and cells_inside:
        assert classify_window(c, t, (x, y), scale) == oracles.classify_window(c, t, (x, y), scale)
        return
    with pytest.raises(BoundsError):  # whichever stage holds the cell
        classify_window(c, t, (x, y), scale)
    if not window_inside:
        with pytest.raises(BoundsError):
            oracles.classify_window(c, t, (x, y), scale)


# --- _batch_accept ------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    feature_set=st.sampled_from(FeatureSet),
    n_stages=st.integers(0, 3),
    n_samples=st.integers(0, 40),
    dead_stage=st.booleans(),
)
def test_batch_accept_matches_classify_window(seed, feature_set, n_stages, n_samples, dead_stage):
    # weak classifiers draw from a small pool of features of mixed kinds,
    # so kinds interleave and features repeat within and across stages
    rng = np.random.default_rng(seed)
    feats = enumerate_features(8, 8, feature_set)
    pool = [feats[int(i)] for i in rng.integers(0, len(feats), 4)]
    stages = []
    for _ in range(n_stages):
        sc = StrongClassifier()
        for _ in range(int(rng.integers(1, 4))):
            weak = WeakClassifier(
                float(rng.normal(0, 3)), int(rng.choice([-1, 1])), feature=pool[rng.integers(4)]
            )
            sc.rounds.append((float(rng.uniform(0.2, 1.5)), weak))
        if rng.random() < 0.5:
            sc.threshold = float(rng.uniform(0, 1) * sc.alpha_sum)
        else:  # a sum of some alphas, which a window can score exactly
            sc.threshold = sum(alpha for alpha, _ in sc.rounds if rng.random() < 0.5)
        stages.append(Stage(sc))
    if dead_stage and stages:
        dead = stages[int(rng.integers(len(stages)))].strong
        dead.threshold = dead.alpha_sum + 1.0  # no sample passes this stage
    c = Cascade(8, 8, feature_set, stages)
    rotated = feature_set is FeatureSet.ALL
    tables = [make_tables(rng, 8, rotated) for _ in range(n_samples)]
    if tables:
        # a flat patch (sigma 0) and one off by a single grey level (sigma
        # about 0.12): 1/sigma clamps to 1 for both
        flat = np.full((8, 8), int(rng.integers(0, 256)), dtype=np.uint8)
        nearly = flat.copy()
        nearly[int(rng.integers(8)), int(rng.integers(8))] ^= 1
        at = sorted(int(i) for i in rng.integers(0, len(tables) + 1, 2))
        tables.insert(at[0], build_tables(GrayImage(flat), rotated))
        tables.insert(at[1] + 1, build_tables(GrayImage(nearly), rotated))
    got = _batch_accept(c, tables)
    assert got.dtype == bool
    assert got.tolist() == [oracles.classify_window(c, t)[0] for t in tables]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    feature_set=st.sampled_from(FeatureSet),
    n_stages=st.integers(0, 4),
    n_samples=st.integers(1, 30),
    dead=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_run_stages_reports_the_funnel(seed, feature_set, n_stages, n_samples, dead):
    # survivors[i] counts the patches that stage i lets through; the list stops
    # at the first stage that leaves none, as no later stage runs
    rng = np.random.default_rng(seed)
    c = random_cascade(rng, 8, n_stages, feature_set, easy=False)
    for stage, rejects_all in zip(c.stages, dead):
        if rejects_all:
            stage.strong.threshold = stage.strong.alpha_sum + 1.0
    tables = [make_tables(rng, 8, feature_set is FeatureSet.ALL) for _ in range(n_samples)]
    cells, _ = scaled_cells(c, Fraction(1), False)
    flat, stride, at, inv = stack_tables(tables, {sc.rotated for sc in cells})
    alive, _, survivors = run_stages(c, cells, flat, stride, at, inv)
    rejected_at = [oracles.classify_window(c, t)[1] for t in tables]
    passed = [sum(r is None or r > i for r in rejected_at) for i in range(n_stages)]
    ran = passed.index(0) + 1 if 0 in passed else n_stages
    assert survivors == passed[:ran]
    assert alive.tolist() == [r is None for r in rejected_at]


@pytest.mark.parametrize("side", [7, 9])
@pytest.mark.parametrize("n_stages", [0, 2])
def test_batch_accept_rejects_patches_off_the_window(side, n_stages):
    # a stacked read past a patch's own table would score the wrong pixels
    rng = np.random.default_rng(29)
    c = random_cascade(rng, n_stages=n_stages)
    with pytest.raises(ValueError, match=f"{side}x{side}"):
        _batch_accept(c, [make_tables(rng, side) for _ in range(3)])
    # the first patch fits the window, a later one does not
    with pytest.raises(ValueError, match=f"{side}x{side}"):
        _batch_accept(c, [make_tables(rng, 8), make_tables(rng, 8), make_tables(rng, side)])


def test_batch_accept_bounds_error():
    # a feature whose cells leave the cascade window has no scale-1 plan
    rng = np.random.default_rng(47)
    patches = [make_tables(rng, 13) for _ in range(3)]

    def one_feature(f):
        sc = StrongClassifier(rounds=[(1.0, WeakClassifier(0.0, 1, feature=f))], threshold=0.5)
        return Cascade(13, 13, FeatureSet.BASIC, [Stage(sc)])

    _batch_accept(one_feature(HaarFeature(FeatureKind.EDGE_H, 9, 0, 2, 3)), patches)
    with pytest.raises(BoundsError):  # footprint 4 wide at x=12 in 13
        _batch_accept(one_feature(HaarFeature(FeatureKind.EDGE_H, 12, 0, 2, 3)), patches)


@pytest.mark.parametrize("scale", [1.0, 1.5])
@pytest.mark.parametrize("n_stages", [0, 2])
def test_classify_window_bounds_error(scale, n_stages):
    # the 8x8 window, scaled to side x side, must lie inside the 13x13 tables
    rng = np.random.default_rng(53)
    c = random_cascade(rng, n_stages=n_stages)
    t = make_tables(rng, 13)
    side = round(8 * scale)
    for origin in [(0, 0), (13 - side, 13 - side)]:
        classify_window(c, t, origin, scale)
    for origin in [(-1, 0), (0, -1), (14 - side, 0), (0, 14 - side)]:
        with pytest.raises(BoundsError):
            classify_window(c, t, origin, scale)


# --- serialization -----------------------------------------------------------------

def test_empty_cascade_roundtrip():
    c = Cascade(13, 13, FeatureSet.ALL, [])
    data = serialize(c)
    again = deserialize(data)
    assert serialize(again) == data
    assert (again.window_w, again.window_h) == (13, 13)
    assert again.feature_set is FeatureSet.ALL


def test_random_cascade_roundtrip_byte_identical():
    rng = np.random.default_rng(29)
    for _ in range(10):
        c = random_cascade(rng, window=13, n_stages=3, feature_set=FeatureSet.ALL)
        data = serialize(c)
        assert serialize(deserialize(data)) == data


def test_deserialize_bounds_violation():
    c = Cascade(13, 13, FeatureSet.BASIC, [])
    lines = serialize(c).decode().splitlines()
    lines[3] = "stages 1"
    lines.append("stage 0 threshold 0.5 nweak 1 hr 1 fa 0.5")
    lines.append("weak alpha 1 parity +1 thresh 0 kind EDGE_H x 12 y 0 w 2 h 2")
    with pytest.raises(CascadeFormatError) as err:
        deserialize(("\n".join(lines) + "\n").encode())
    assert err.value.line == 6


def test_deserialize_version_and_malformed_lines():
    with pytest.raises(CascadeFormatError):
        deserialize(b"FIDCASCADE 2\nwindow 13 13\nfeatures ALL\nstages 0\n")
    with pytest.raises(CascadeFormatError) as err:
        deserialize(b"FIDCASCADE 1\nwindow 13\nfeatures ALL\nstages 0\n")
    assert err.value.line == 2
    with pytest.raises(CascadeFormatError, match="malformed features line") as err:
        deserialize(b"FIDCASCADE 1\nwindow 13 13\nfeatures BASIC junk\nstages 0\n")
    assert err.value.line == 3
    # negative counts would parse to empty lists and re-serialize as 0
    with pytest.raises(CascadeFormatError) as err:
        deserialize(b"FIDCASCADE 1\nwindow 13 13\nfeatures ALL\nstages -2\n")
    assert err.value.line == 4
    with pytest.raises(CascadeFormatError) as err:
        deserialize(
            b"FIDCASCADE 1\nwindow 13 13\nfeatures ALL\nstages 1\n"
            b"stage 0 threshold 0.5 nweak -4 hr 1 fa 1\n"
        )
    assert err.value.line == 5


def one_weak_file(threshold="0.5", alpha="1", thresh="0", w="2", h="2") -> bytes:
    return (
        "FIDCASCADE 1\nwindow 13 13\nfeatures BASIC\nstages 1\n"
        f"stage 0 threshold {threshold} nweak 1 hr 1 fa 0.5\n"
        f"weak alpha {alpha} parity +1 thresh {thresh} kind EDGE_H x 0 y 0 w {w} h {h}\n"
    ).encode()


@pytest.mark.parametrize(
    "field, value, line",
    [
        ("threshold", "nan", 5),
        ("threshold", "inf", 5),
        ("threshold", "-inf", 5),
        ("alpha", "nan", 6),
        ("alpha", "inf", 6),
        ("alpha", "-inf", 6),
        ("thresh", "nan", 6),
    ],
)
def test_deserialize_rejects_non_finite_weights(field, value, line):
    deserialize(one_weak_file())
    with pytest.raises(CascadeFormatError) as err:
        deserialize(one_weak_file(**{field: value}))
    assert err.value.line == line


@pytest.mark.parametrize("token", ["0", "9", "edge_h", "rotated"])
def test_deserialize_rejects_kind_not_named(token):
    # a kind is stored by its name; its number and other spellings are not kinds
    data = one_weak_file().replace(b"kind EDGE_H", b"kind " + token.encode())
    with pytest.raises(CascadeFormatError, match="unknown kind") as err:
        deserialize(data)
    assert err.value.line == 6


@pytest.mark.parametrize("field, value", [("w", "0"), ("h", "0"), ("w", "-1")])
def test_deserialize_rejects_cell_below_1x1(field, value):
    # the file is the one place features arrive from outside, and
    # HaarFeature itself checks nothing
    with pytest.raises(CascadeFormatError, match="cell extent must be >= 1") as err:
        deserialize(one_weak_file(**{field: value}))
    assert err.value.line == 6


def _edit(old: bytes, new: bytes) -> bytes:
    data = one_weak_file()
    assert data.count(old) == 1
    return data.replace(old, new)


# one (file, line, message) per raise site of deserialize and its reader helpers
FORMAT_ERRORS = [
    (b"FIDCASCADE 1\n\xff\n", 0, "not ASCII"),
    (b"FIDCASCADE 1\nwindow 13 13\nfeatures BASIC\nstages 1", 5,
     "unexpected end of file, expected 'stage'"),
    (_edit(b"window 13 13", b"windows 13 13"), 2, "expected 'window' line"),
    (_edit(b"window 13 13", b"window 13 x"), 2, "bad integer 'x'"),
    (_edit(b"window 13 13", b"window 1_3 13"), 2, "bad integer '1_3'"),
    (_edit(b"threshold 0.5", b"threshold 0.5x"), 5, "bad real '0.5x'"),
    (_edit(b"threshold 0.5", b"threshold 0_5"), 5, "bad real '0_5'"),
    (_edit(b"FIDCASCADE 1", b"FIDCASCADE 2"), 1, "unsupported version"),
    (_edit(b"window 13 13", b"window 13"), 2, "malformed window line"),
    (_edit(b"window 13 13", b"window 0 13"), 2, "window must be positive"),
    (_edit(b"features BASIC", b"features BASIC ALL"), 3, "malformed features line"),
    (_edit(b"features BASIC", b"features SOME"), 3, "features must be BASIC or ALL"),
    (_edit(b"stages 1", b"stages 1 1"), 4, "malformed stages line"),
    (_edit(b"stages 1", b"stages -2"), 4, "negative stage count -2"),
    (_edit(b"stage 0 ", b"stage 1 "), 5, "malformed stage line"),
    (_edit(b"nweak 1", b"nweak -4"), 5, "negative weak count -4"),
    (_edit(b" h 2", b""), 6, "malformed weak line"),
    (_edit(b" h 2", b" height 2"), 6, "malformed weak line"),
    (_edit(b"parity +1", b"parity 1"), 6, "parity must be +1 or -1"),
    (_edit(b"kind EDGE_H", b"kind EDGE"), 6, "unknown kind 'EDGE'"),
    (_edit(b"w 2", b"w 0"), 6, "cell extent must be >= 1"),
    (_edit(b"x 0", b"x 12"), 6, "feature EDGE_H at (12,0) size 2x2 exceeds window"),
    (one_weak_file() + b"junk\n", 7, "trailing content"),
    (serialize(Cascade(4, 4, FeatureSet.BASIC, [])) + b"\n\njunk\n", 7, "trailing content"),
    (_edit(b"kind EDGE_H", b"kind EDGE_H_45"), 6, "rotated kind EDGE_H_45 needs features ALL"),
]


@pytest.mark.parametrize("data, line, message", FORMAT_ERRORS, ids=row_ids(FORMAT_ERRORS))
def test_deserialize_error_line_and_message(data, line, message):
    with pytest.raises(CascadeFormatError) as err:
        deserialize(data)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_deserialize_reads_any_line_break(end):
    data = one_weak_file()
    assert serialize(deserialize(data.replace(b"\n", end))) == data


@pytest.mark.parametrize("name", sorted({p.stem for p in PINNED.glob("*.cascade")} | set(PINS)))
def test_pinned_cascade_file_matches_its_pin_and_roundtrips(name):
    # the benchmark loads these files; a reader change must leave each one readable as is
    data = (PINNED / f"{name}.cascade").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINS[name]
    assert serialize(deserialize(data)) == data


def test_nan_stage_threshold_same_verdict_everywhere():
    # the batch stage loop keeps a window unless score < threshold, which a
    # NaN threshold never is; every scalar and batch path must agree
    from fidpoint.scan import DetectorConfig, scan_roi

    rng = np.random.default_rng(59)
    c = random_cascade(rng, n_stages=2)
    c.stages[0].strong.threshold = math.nan
    c.stages[1].strong.threshold = -math.inf  # accepts every window as well
    t = make_tables(rng, 8)
    inv_sigma = window_inv_stddev(t, Rect(0, 0, 8, 8))
    decisions = [eval_strong(st.strong, t, (0, 0), 1.0, inv_sigma)[1] for st in c.stages]
    raw = scan_roi(c, t, DetectorConfig(cascade=c))
    assert decisions == [True, True]
    assert classify_window(c, t) == (True, None)
    assert _batch_accept(c, [t]).tolist() == [True]
    assert [(r["x"], r["y"], r["w"], r["h"]) for r in raw] == [(0, 0, 8, 8)]


def test_infinite_weak_threshold_roundtrips():
    f = HaarFeature(FeatureKind.EDGE_V, 0, 0, 2, 3)
    sc = StrongClassifier(
        rounds=[(0.7, WeakClassifier(math.inf, -1, feature=f))], threshold=0.35
    )
    c = Cascade(8, 8, FeatureSet.BASIC, [Stage(sc, 1.0, 0.25)])
    data = serialize(c)
    assert serialize(deserialize(data)) == data


# --- mirroring -----------------------------------------------------------------------

def test_mirror_involution_bytes():
    rng = np.random.default_rng(31)
    for _ in range(10):
        c = random_cascade(rng, window=13, n_stages=2, feature_set=FeatureSet.ALL)
        assert serialize(mirror(mirror(c))) == serialize(c)


def test_mirror_window_preserved():
    rng = np.random.default_rng(37)
    c = random_cascade(rng, window=13, n_stages=1)
    m = mirror(c)
    assert (m.window_w, m.window_h) == (13, 13)


def test_mirror_classification_equivalence():
    # classify_window(mirror(c), mirror(img)) == classify_window(c, img),
    # exact, including rotated kinds at unit scale.
    rng = np.random.default_rng(41)
    for _ in range(60):
        c = random_cascade(rng, window=9, n_stages=2, feature_set=FeatureSet.ALL, easy=False)
        img = GrayImage(rng.integers(0, 256, (9, 9), dtype=np.uint8))
        t = build_tables(img, want_rotated=True)
        t_m = build_tables(img.mirrored(), want_rotated=True)
        assert classify_window(mirror(c), t_m) == classify_window(c, t)


def test_mirror_equivalence_at_odd_window_scales():
    # upright kinds stay exact at fractional scales for odd windows
    rng = np.random.default_rng(43)
    for _ in range(40):
        c = random_cascade(rng, window=13, n_stages=2, feature_set=FeatureSet.BASIC, easy=False)
        scale = float(int(rng.integers(13, 27))) / 13.0
        side = int(round(13 * scale))
        img = GrayImage(rng.integers(0, 256, (side, side), dtype=np.uint8))
        t = build_tables(img)
        t_m = build_tables(img.mirrored())
        got = classify_window(mirror(c), t_m, (0, 0), scale)
        want = classify_window(c, t, (0, 0), scale)
        assert got == want
