import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidpoint import boost
from fidpoint.boost import (
    Booster,
    StrongClassifier,
    WeakClassifier,
    eval_strong,
    init_weights,
    train_weak,
)
from fidpoint import haar
from fidpoint.cascade import TrainParams, serialize, train_cascade, train_stage
from fidpoint.haar import (
    FeatureKind,
    FeatureSet,
    FeatureValues,
    HaarFeature,
    enumerate_features,
    feature_matrix,
    feature_value,
)
from fidpoint.raster import GrayImage, Rect, build_tables, window_inv_stddev


def dyadic_weights(rng, n, denom_bits=12):
    """Random normalized weights that are exact binary fractions.

    Keeps every partial sum exact in float64 so stump errors computed by
    any summation order agree bit-for-bit.
    """
    ints = rng.integers(1, 2**denom_bits, size=n)
    total_bits = int(np.ceil(np.log2(ints.sum())))
    scale = 2.0 ** -(denom_bits + total_bits)
    w = ints * scale
    return w  # unnormalised but exact; stump search never needs sum == 1


def exhaustive_stump(values, labels, weights):
    """Independent O(n^2) search over all candidate (threshold, parity)."""
    v = np.asarray(values, dtype=np.float64)
    y = np.asarray(labels)
    w = np.asarray(weights, dtype=np.float64)
    sv = np.unique(v)
    cands = [-np.inf, np.inf]
    cands += [(a + b) / 2.0 for a, b in zip(sv[:-1], sv[1:])]
    best = None
    for parity in (1, -1):
        for t in cands:
            pred = (parity * v < parity * t).astype(int)
            err = float(np.dot(w, np.abs(pred - y)))
            key = (err, t, 0 if parity == 1 else 1)
            if best is None or key < best:
                best = key
    return best  # (error, threshold, parity_rank)


# --- init_weights -----------------------------------------------------------

def test_init_weights_one_each():
    assert list(init_weights([1, 0])) == [0.5, 0.5]


def test_init_weights_two_each():
    assert list(init_weights([1, 1, 0, 0])) == [0.25] * 4


def test_init_weights_three_one():
    assert list(init_weights([1, 1, 1, 0])) == pytest.approx([1 / 6, 1 / 6, 1 / 6, 1 / 2])


def test_init_weights_rejects_labels_other_than_0_and_1():
    # a label 2 used to count as neither class in the weights (they summed
    # to 1.25), and a label 0.5 got the weight of both
    for labels in ([1, 0, 2, 1, 0], [1.0, 0.0, 0.5], [1, 0, -1], [1.0, 0.0, np.nan]):
        with pytest.raises(ValueError, match="0 or 1"):
            init_weights(labels)


def test_init_weights_accepts_float_and_bool_labels():
    assert list(init_weights([1.0, 0.0, 0.0])) == list(init_weights([1, 0, 0]))
    assert list(init_weights(np.array([True, False]))) == [0.5, 0.5]


def test_booster_rejects_labels_other_than_0_and_1():
    # a label 2 used to count as a negative in the errors but never as
    # correct in the reweighting: error 0.0, yet its weights stayed at 0.25
    with pytest.raises(ValueError, match="0 or 1"):
        Booster(np.array([[1.0], [2.0], [3.0], [4.0]]), [1, 1, 2, 2], [0.25] * 4)
    with pytest.raises(ValueError, match="0 or 1"):
        train_weak([1, 2, 3, 4], [1, 1, 2, 2], [0.25] * 4)


def test_init_weights_degenerate():
    with pytest.raises(ValueError):
        init_weights([1, 1])


# --- train_weak -------------------------------------------------------------

def test_train_weak_separable():
    wk = train_weak([1, 2, 9, 10], [1, 1, 0, 0], [0.25] * 4)
    assert wk.error == 0.0
    assert wk.threshold == 5.5
    assert wk.parity == 1


def test_train_weak_all_positive_sentinel():
    wk = train_weak([3, 1, 4], [1, 1, 1], [1 / 3] * 3)
    assert wk.error == 0.0
    assert math.isinf(wk.threshold)


def test_train_weak_matches_exhaustive():
    columns = [
        # all values equal: only the -inf and +inf sentinel rows are valid
        ([5.0, 5.0, 5.0], [1, 0, 1], [0.25, 0.25, 0.5]),
        ([5.0, 5.0], [1, 0], [0.5, 0.5]),  # both parities' best is (0.5, -inf)
        # two distinct values
        ([3.0, 7.0, 3.0, 7.0, 7.0], [1, 1, 0, 0, 1], [0.125, 0.25, 0.25, 0.125, 0.25]),
        # both parities' best errors are 0.25: parity -1 has the smaller
        # threshold in the first column, parity +1 in the second
        ([1.0, 2.0, 3.0, 4.0], [0, 1, 1, 0], [0.25] * 4),
        ([1.0, 2.0, 3.0, 4.0], [1, 0, 0, 1], [0.25] * 4),
    ]
    columns = [tuple(map(np.array, column)) for column in columns]
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        v = rng.integers(-40, 40, n).astype(float)
        y = rng.integers(0, 2, n)
        w = dyadic_weights(rng, n)
        columns.append((v, y, w))
    for v, y, w in columns:
        wk = train_weak(v, y, w)
        err, t, prank = exhaustive_stump(v, y, w)
        assert wk.error == err
        assert wk.threshold == t
        assert (0 if wk.parity == 1 else 1) == prank
        # classification vectors agree as well
        got = (wk.parity * v < wk.parity * wk.threshold).astype(int)
        parity = 1 if prank == 0 else -1
        want = (parity * v < parity * t).astype(int)
        assert (got == want).all()


def special_columns():
    """Seeded (values, labels, weights) columns that integer columns never reach.

    Values mix NaN, +-inf, -0.0 next to 0.0 and long runs of equal values;
    weights are thirds over odd totals, so no partial sum is exact.
    """
    rnd = random.Random(22)
    pool = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.5, -2.0, 1 / 3]
    columns = [
        [0.0] * 9 + [-0.0] * 9 + [1.0] * 6,
        [math.nan] * 7 + [2.0] * 7 + [-math.inf] * 4 + [math.inf] * 4,
        [-0.0, 0.0] * 8,
        [math.inf, -math.inf],
        [math.nan],
    ]
    for n in (2, 3, 5, 8, 13, 21, 34):
        for _ in range(3):
            columns.append([rnd.choice(pool) if rnd.random() < 0.5 else float(rnd.randint(-2, 2))
                            for _ in range(n)])
    out = []
    for values in columns:
        n = len(values)
        labels = [rnd.randint(0, 1) for _ in range(n)]
        ints = [rnd.randint(1, 60) for _ in range(n)]
        out.append((values, labels, [k / 3.0 / sum(ints) for k in ints]))
    return out


# repr of train_weak's (threshold, parity, error) for each of special_columns()
SPECIAL_STUMPS = [
    '(0.5, -1, 0.14250854075158614)',
    '(-inf, -1, 0.10550887021475258)',
    '(-inf, -1, 0.07813378302417089)',
    '(nan, -1, 0.0)',
    '(-inf, -1, 0.0)',
    '(-0.33333333333333337, 1, 0.0)',
    '(-inf, 1, 0.0)',
    '(nan, -1, 0.0)',
    '(-inf, 1, 0.0)',
    '(-inf, 1, 0.0)',
    '(-inf, -1, 0.1056910569105691)',
    '(-inf, 1, 0.0)',
    '(0.5, 1, 0.06613756613756616)',
    '(1.75, 1, 0.0423728813559322)',
    '(0.16666666666666666, -1, 0.03265765765765766)',
    '(-1.5, -1, 0.05501618122977345)',
    '(-1.0, -1, 0.10650069156293222)',
    '(-1.5, 1, 0.1035923141186299)',
    '(1.25, 1, 0.08277404921700225)',
    '(nan, -1, 0.13506815365551422)',
    '(-1.5, -1, 0.12589413447782546)',
    '(1.25, -1, 0.1165674603174603)',
    '(-inf, 1, 0.08083832335329341)',
    '(-0.5, 1, 0.09183006535947713)',
    '(inf, -1, 0.09992372234935164)',
    '(1.75, -1, 0.09063745019920319)',
]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # midpoint of -inf and inf
def test_train_weak_special_values_golden():
    got = []
    for v, y, w in special_columns():
        wk = train_weak(v, y, w)
        got.append(repr((wk.threshold, wk.parity, wk.error)))
    assert got == SPECIAL_STUMPS


# --- boosting rounds ---------------------------------------------------------

def test_worked_update_quarter_error():
    values = np.array([[1.0], [6.0], [4.0], [9.0]])
    labels = np.array([1, 1, 0, 0])
    weights = np.full(4, 0.25)
    b = Booster(values, labels, weights)
    alpha, weak, pred = b.step()
    assert weak.error == pytest.approx(0.25, abs=1e-15)
    assert alpha == pytest.approx(math.log(3.0), abs=1e-12)
    norm = b.weights / b.weights.sum()
    assert norm == pytest.approx([1 / 6, 1 / 2, 1 / 6, 1 / 6], abs=1e-12)
    assert list(pred) == [1, 0, 0, 0]  # sample 1 (v=6, label 1) is the miss


def test_weights_stay_distribution():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(30, 8))
    labels = rng.integers(0, 2, 30)
    labels[0], labels[1] = 1, 0
    weights = np.full(30, 1 / 30)
    b = Booster(values, labels, weights)
    for _ in range(10):
        before = b.weights.copy()
        b.step()
        normalised = before / before.sum()
        assert abs(normalised.sum() - 1.0) <= 1e-9
        assert (b.weights >= 0).all()


def test_correct_samples_shrink_by_beta():
    values = np.array([[1.0], [6.0], [4.0], [9.0]])
    labels = np.array([1, 1, 0, 0])
    b = Booster(values, labels, np.full(4, 0.25))
    _, weak, pred = b.step()
    beta = weak.error / (1 - weak.error)
    correct = pred == labels
    assert b.weights[correct] == pytest.approx(0.25 * beta)
    assert b.weights[~correct] == pytest.approx(0.25)  # exponent 1-e is zero


def test_selected_weak_is_global_minimum():
    rng = np.random.default_rng(11)
    values = rng.integers(-20, 20, size=(25, 12)).astype(float)
    labels = rng.integers(0, 2, 25)
    labels[:2] = [0, 1]
    w = np.full(25, 1 / 25)
    b = Booster(values, labels, w.copy())
    _, weak, _ = b.step()
    norm = w / w.sum()
    per_feature = [train_weak(values[:, j], labels, norm).error for j in range(12)]
    assert weak.error == min(per_feature)
    assert weak.feature_index == int(np.argmin(per_feature))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 24),
    nf=st.integers(1, 12),
    spread=st.sampled_from([1, 2, 4, 40]),
    rounds=st.integers(1, 5),
    block=st.sampled_from([1, 3, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_tie_break_matches_train_weak(n, nf, spread, rounds, block, seed):
    # small-integer values tie often, and dyadic first-round weights make
    # equal errors exact, so both tie-breaks (first feature; then smaller
    # threshold, then parity +1) are exercised; small blocks split features
    rng = np.random.default_rng(seed)
    values = rng.integers(-spread, spread + 1, size=(n, nf)).astype(float)
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boost, "_STEP_BLOCK", block)
        b = Booster(values, labels, dyadic_weights(rng, n, denom_bits=4))
        for _ in range(rounds):
            w = b.weights / b.weights.sum()
            _, weak, pred = b.step()
            per_feature = [train_weak(values[:, j], labels, w) for j in range(nf)]
            errors = [wk.error for wk in per_feature]
            assert weak.feature_index == errors.index(min(errors))
            ref = per_feature[weak.feature_index]
            assert (weak.threshold, weak.parity, weak.error) == (
                ref.threshold, ref.parity, ref.error)
            col = values[:, weak.feature_index]
            assert (pred == (ref.parity * col < ref.parity * ref.threshold)).all()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # midpoint of -inf and inf
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 70),
    kinds=st.lists(st.sampled_from(["float", "int", "special"]), min_size=1, max_size=10),
    rounds=st.integers(1, 4),
    block=st.sampled_from([1, 3, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_matches_brute_force_with_unequal_weights(n, kinds, rounds, block, seed):
    # weights that are not binary fractions round differently when a tie
    # group is summed in another order, so only train_weak's stable sort
    # order reproduces its errors bit for bit, while numpy's default
    # argsort may order ties otherwise
    rng = np.random.default_rng(seed)
    column = {
        "float": lambda: rng.normal(size=n),
        "int": lambda: rng.integers(-3, 4, n).astype(float),
        "special": lambda: rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.0], n),
    }
    values = np.stack([column[k]() for k in kinds], axis=1)
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boost, "_STEP_BLOCK", block)
        b = Booster(values, labels, rng.random(n) + 0.05)
        for _ in range(rounds):
            w = b.weights / b.weights.sum()
            _, weak, pred = b.step()
            per_feature = [train_weak(values[:, j], labels, w) for j in range(len(kinds))]
            errors = [wk.error for wk in per_feature]
            j = errors.index(min(errors))
            ref = per_feature[j]
            assert repr((weak.feature_index, weak.threshold, weak.parity, weak.error)) == repr(
                (j, ref.threshold, ref.parity, ref.error))
            want = (ref.parity * values[:, j] < ref.parity * ref.threshold).astype(np.int8)
            assert pred.tolist() == want.tolist()
            eps = min(max(ref.error, boost.EPS_CLAMP), 0.5 - boost.EPS_CLAMP)
            w[want == labels] *= eps / (1.0 - eps)
            assert repr(b.weights.tolist()) == repr(w.tolist())


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    nf=st.integers(1, 8),
    block=st.sampled_from([1, 3, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_order_and_ties_match_stable_argsort(n, nf, block, seed):
    # columns mix -0.0 and 0.0, NaN, +-inf and repeated values, which sort
    # to equal neighbours whose order np.sort and a gather may disagree on
    rng = np.random.default_rng(seed)
    pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.0, 7.0])
    values = rng.choice(pool, size=(n, nf))
    mixed = rng.random((n, nf)) < 0.3
    values[mixed] = rng.integers(-2, 3, int(mixed.sum()))  # more ties
    labels = np.zeros(n, dtype=int)
    labels[0] = 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boost, "_STEP_BLOCK", block)
        b = Booster(values, labels, np.full(n, 1.0 / n))
    assert b._order.shape == b._tied.shape == (nf, n)
    for j in range(nf):
        want = np.argsort(values[:, j], kind="stable")
        assert b._order[j].tolist() == want.tolist()
        sv = values[want, j]
        assert b._tied[j].tolist() == (sv[:-1] == sv[1:]).tolist() + [False]


def test_booster_leaves_values_unchanged():
    # a one-column block, or any block of an F-ordered matrix, transposes
    # to a contiguous view; sorting that in place would reorder the values
    rng = np.random.default_rng(3)
    for values in (rng.normal(size=(9, 1)), np.asfortranarray(rng.normal(size=(9, 5)))):
        before = values.copy()
        Booster(values, np.arange(9) % 2, np.full(9, 1 / 9))
        assert np.array_equal(values, before)


def test_booster_memory_below_value_matrix():
    # the int32 order and the tie mask take 5/8 of the float64 values and
    # block temporaries bound the rest; a full int64 argsort alone would
    # be as large as the values
    rng = np.random.default_rng(37)
    values = rng.normal(size=(188, 14_140))
    labels = rng.integers(0, 2, 188)
    labels[:2] = [0, 1]
    weights = init_weights(labels)
    tracemalloc.start()
    try:
        b = Booster(values, labels, weights)
        b.step()
        b.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 40),
    nbase=st.integers(1, 3),
    rounds=st.integers(1, 4),
    block=st.sampled_from([1, 3, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_picks_first_minimum_among_near_ties(n, nbase, rounds, block, seed):
    # each small-integer column comes back as an exact copy (an exact tie:
    # the first feature wins) and twice with its tie groups split in a
    # random order; a split column's error at a group edge is the same sum
    # taken in another order, so errors differ by a few ulps, and weights
    # spanning 1e-9 to 1 make every order round differently
    rng = np.random.default_rng(seed)
    base = rng.integers(-2, 3, size=(n, nbase)).astype(float)
    splits = [base + rng.permutation(n)[:, None] / (2.0 * n) for _ in range(2)]
    values = np.concatenate([base, base, *splits], axis=1)
    values = values[:, rng.permutation(values.shape[1])]
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boost, "_STEP_BLOCK", block)
        b = Booster(values, labels, 10.0 ** rng.uniform(-9, 0, n))
        for _ in range(rounds):
            w = b.weights / b.weights.sum()
            _, weak, _ = b.step()
            per_feature = [train_weak(values[:, j], labels, w) for j in range(values.shape[1])]
            errors = [wk.error for wk in per_feature]
            j = errors.index(min(errors))
            ref = per_feature[j]
            assert repr((weak.feature_index, weak.threshold, weak.parity, weak.error)) == repr(
                (j, ref.threshold, ref.parity, ref.error))


@pytest.mark.parametrize("step_block, matrix_block", [(256, 2048), (256, 100), (7, 2048)])
def test_booster_over_feature_values_matches_value_matrix(step_block, matrix_block):
    # reads of 256 columns cross product blocks of 100, and reads of 7
    # cut the kinds of an ALL enumeration at other places
    rng = np.random.default_rng(43)
    pixels = [rng.integers(0, 256, (8, 8), dtype=np.uint8) for _ in range(36)]
    pixels[5] = np.full((8, 8), 9, dtype=np.uint8)  # flat: every value 0, ties
    pixels[7] = pixels[3]  # a duplicate sample ties on every feature
    tables = [build_tables(GrayImage(px), want_rotated=True) for px in pixels]
    features = enumerate_features(8, 8, FeatureSet.ALL)
    labels = np.arange(36) % 3 == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boost, "_STEP_BLOCK", step_block)
        mp.setattr(haar, "_MATRIX_BLOCK", matrix_block)
        lazy = Booster(FeatureValues(features, tables), labels, init_weights(labels))
        full = Booster(feature_matrix(features, tables), labels, init_weights(labels))
        assert np.array_equal(lazy._order, full._order)
        assert np.array_equal(lazy._tied, full._tied)
        for _ in range(6):
            got, want = lazy.step(), full.step()
            assert repr(got[:2]) == repr(want[:2]) and np.array_equal(got[2], want[2])
            assert repr(lazy.weights.tolist()) == repr(full.weights.tolist())


def test_train_stage_memory_below_value_matrix():
    # the stage reads its values block by block and Booster keeps 5 bytes
    # per (sample, feature) pair, so the stage never holds the 8-byte
    # value matrix
    rng = np.random.default_rng(47)
    pos, neg = half_bright_patches(rng, 94, 94, side=13)
    features = enumerate_features(13, 13, FeatureSet.BASIC)
    params = TrainParams(nstages=1, npos=94, nneg=94, max_weak_per_stage=3)
    tracemalloc.start()
    try:
        train_stage(pos, neg, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(features) == 14_140
    assert peak < 188 * len(features) * 8


def test_alpha_always_positive():
    rng = np.random.default_rng(13)
    values = rng.normal(size=(20, 5))
    labels = rng.integers(0, 2, 20)
    labels[:2] = [0, 1]
    b = Booster(values, labels, np.full(20, 0.05))
    for _ in range(6):
        alpha, _, _ = b.step()
        assert alpha > 0


# --- the boosting driver on real patches ----------------------------------------

def half_bright_patches(rng, n_pos, n_neg, side=6):
    """(positives, negatives): bright right half against bright left half."""
    pos, neg = [], []
    for _ in range(n_pos):
        px = rng.integers(0, 40, (side, side))
        px[:, side // 2 :] += 180  # bright right half
        pos.append(build_tables(GrayImage(px.astype(np.uint8))))
    for _ in range(n_neg):
        px = rng.integers(0, 40, (side, side))
        px[:, : side // 2] += 180  # bright left half
        neg.append(build_tables(GrayImage(px.astype(np.uint8))))
    return pos, neg


def test_train_stage_separable_reaches_zero_error():
    rng = np.random.default_rng(17)
    pos, neg = half_bright_patches(rng, 20, 20)
    params = TrainParams(nstages=1, npos=20, nneg=20, maxfalsealarm=0.01,
                         max_weak_per_stage=20)
    sc = train_stage(pos, neg, params).strong
    errors = 0
    for tables, label in [(t, 1) for t in pos] + [(t, 0) for t in neg]:
        inv = window_inv_stddev(tables, Rect(0, 0, tables.width, tables.height))
        _, decision = eval_strong(sc, tables, inv_sigma=inv)
        errors += int(decision) != label
    assert errors == 0
    assert sc.threshold == pytest.approx(0.5 * sc.alpha_sum)


def test_train_stage_deterministic():
    rng = np.random.default_rng(19)
    pos, neg = half_bright_patches(rng, 8, 8)
    params = TrainParams(nstages=1, npos=8, nneg=8, maxfalsealarm=0.01,
                         max_weak_per_stage=5)
    a = train_stage(pos, neg, params).strong
    b = train_stage(pos, neg, params).strong
    assert [(al, w.feature_index, w.threshold, w.parity) for al, w in a.rounds] == [
        (al, w.feature_index, w.threshold, w.parity) for al, w in b.rounds
    ]


def test_train_cascade_serialize_deterministic():
    rng = np.random.default_rng(21)

    def patch(bias):
        px = rng.integers(0, 170, (6, 6))
        px[:, 3:] += bias  # faint right half: several stages and rounds to learn
        return build_tables(GrayImage(px.astype(np.uint8)))

    pos = [patch(40) for _ in range(30)]
    neg = [patch(0) for _ in range(600)]
    params = TrainParams(nstages=3, npos=30, nneg=40, minhitrate=0.95, maxfalsealarm=0.4,
                         max_weak_per_stage=10, seed=3)
    first, second = (train_cascade(pos, iter(neg), params) for _ in range(2))
    assert [len(st.strong.rounds) for st in first.stages] == [2, 4, 4]
    assert serialize(first) == serialize(second)


# --- eval_strong ---------------------------------------------------------------

def one_weak_classifier(alpha=math.log(3.0)):
    f = HaarFeature(FeatureKind.EDGE_H, 0, 0, 2, 4)
    wk = WeakClassifier(threshold=10.0, parity=1, feature=f, feature_index=0)
    return StrongClassifier(rounds=[(alpha, wk)], threshold=0.5 * alpha)


def test_eval_strong_single_weak_reduces_to_vote():
    rng = np.random.default_rng(23)
    sc = one_weak_classifier()
    for _ in range(20):
        img = GrayImage(rng.integers(0, 256, (4, 4), dtype=np.uint8))
        t = build_tables(img)
        v = feature_value(sc.rounds[0][1].feature, t)
        score, decision = eval_strong(sc, t)
        assert decision == (v < 10.0)
        assert score == (math.log(3.0) if v < 10.0 else 0.0)


def test_eval_strong_threshold_extremes():
    rng = np.random.default_rng(29)
    img = GrayImage(rng.integers(0, 256, (4, 4), dtype=np.uint8))
    t = build_tables(img)
    sc = one_weak_classifier()
    sc.threshold = -np.inf
    assert eval_strong(sc, t)[1] is True
    sc.threshold = np.inf
    assert eval_strong(sc, t)[1] is False


def test_eval_strong_matches_term_by_term():
    rng = np.random.default_rng(31)
    features = enumerate_features(5, 5, FeatureSet.BASIC)
    for _ in range(20):
        img = GrayImage(rng.integers(0, 256, (5, 5), dtype=np.uint8))
        t = build_tables(img)
        rounds = []
        for _ in range(int(rng.integers(1, 6))):
            f = features[int(rng.integers(0, len(features)))]
            wk = WeakClassifier(
                threshold=float(rng.normal(0, 50)),
                parity=int(rng.choice([-1, 1])),
                feature=f,
            )
            rounds.append((float(rng.uniform(0.1, 2.0)), wk))
        sc = StrongClassifier(rounds=rounds, threshold=0.5 * sum(a for a, _ in rounds))
        inv = window_inv_stddev(t, Rect(0, 0, t.width, t.height))
        score, decision = eval_strong(sc, t, inv_sigma=inv)
        want = 0.0
        for a, wk in rounds:
            v = feature_value(wk.feature, t, inv_sigma=inv)
            want += a * (1 if wk.parity * v < wk.parity * wk.threshold else 0)
        assert score == want
        assert decision == (score >= sc.threshold)
