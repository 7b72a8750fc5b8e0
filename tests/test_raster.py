import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fidpoint.raster import (
    BoundsError,
    GrayImage,
    PgmFormatError,
    Rect,
    build_tables,
    is_inside,
    load_pgm,
    rect_sum,
    rotated_rect_members,
    rotated_rect_sum,
    save_pgm,
    stack_tables,
    window_inv_stddev,
    window_inv_stddevs,
)


def random_image(rng, max_side=64):
    w = int(rng.integers(1, max_side + 1))
    h = int(rng.integers(1, max_side + 1))
    return GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))


# --- brute-force oracles -------------------------------------------------

def brute_rect_sum(img: GrayImage, r: Rect) -> int:
    total = 0
    for y in range(r.y, r.y + r.h):
        for x in range(r.x, r.x + r.w):
            total += int(img.pixels[y, x])
    return total


def brute_rotated_sum(img: GrayImage, r: Rect) -> int:
    # Same membership rule as the fast path: pixels apex + a*(1,1) + b*(-1,1).
    return sum(int(img.pixels[py, px]) for px, py in rotated_rect_members(r))


# --- PGM ------------------------------------------------------------------

def test_load_p5_basic():
    img = load_pgm(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
    assert (img.width, img.height) == (2, 2)
    assert img.pixels[0, 0] == 0
    assert img.pixels[0, 1] == 255
    assert img.pixels[1, 0] == 255
    assert img.pixels[1, 1] == 0


def test_load_p2_single_sample():
    img = load_pgm(b"P2\n1 1\n255\n7\n")
    assert (img.width, img.height) == (1, 1)
    assert img.pixels[0, 0] == 7


def test_save_single_pixel():
    data = save_pgm(GrayImage(np.array([[7]], dtype=np.uint8)))
    assert data.endswith(b"\n" + bytes([7]))
    assert data.startswith(b"P5\n1 1\n255\n")


def test_save_all_zero():
    data = save_pgm(GrayImage(np.zeros((4, 4), dtype=np.uint8)))
    assert data[-16:] == bytes(16)


def test_roundtrip_random_images():
    rng = np.random.default_rng(7)
    for _ in range(50):
        img = random_image(rng, max_side=20)
        again = load_pgm(save_pgm(img))
        assert again == img


def test_header_comments_skipped():
    img = load_pgm(b"P5\n# a comment\n2 1 # trailing\n255\n" + bytes([1, 2]))
    assert img.width == 2 and img.pixels[0, 1] == 2


@pytest.mark.parametrize(
    "blob",
    [
        b"P6\n1 1\n255\n\x00",
        b"P5\n2 2\n255\n\x00\x00",  # truncated raster
        b"P2 1000000 1000000 255\n1 2 3",  # header far larger than the samples
        b"P5\n2 2\n999\n" + bytes(4),  # maxval too large
        b"P5\n2\n255\n\x00\x00",  # missing height
        b"P5\nx 2\n255\n\x00\x00",  # non-numeric
    ],
)
def test_malformed_pgm_raises_with_offset(blob):
    with pytest.raises(PgmFormatError) as exc:
        load_pgm(blob)
    assert exc.value.offset >= 0


@pytest.mark.parametrize(
    "blob, offset",
    [
        (b"P5\n" + b"9" * 5000 + b" 1\n255\n\x00", 3),  # past int()'s 4300-digit limit
        (b"P2\n1 1\n255\n" + b"9" * 5000 + b"\n", 11),
        (b"P2\n1 1\n255\n-1\n", 11),  # a sign is not a digit
        (b"P5\n+1 1\n255\n\x07", 3),
        (b"P5\n1 1\n7\n\xff", 9),  # a binary sample above maxval
    ],
)
def test_pgm_bad_number_raises_with_offset(blob, offset):
    with pytest.raises(PgmFormatError) as exc:
        load_pgm(blob)
    assert exc.value.offset == offset


@pytest.mark.parametrize(
    "blob, expected",
    [
        (b"P2 2 1 15\n15 0\n", [255, 0]),
        (b"P2\n3 1\n2\n0 1 2\n", [0, 128, 255]),  # 127.5 rounds half up
        (b"P5\n3 1\n7\n" + bytes([7, 0, 3]), [255, 0, 109]),
        (b"P5\n2 1\n1\n" + bytes([1, 0]), [255, 0]),
    ],
)
def test_pgm_maxval_below_255_rescales(blob, expected):
    assert load_pgm(blob).pixels.tolist() == [expected]


def test_pgm_leading_zeros_are_decimal():
    img = load_pgm(b"P2\n" + b"0" * 5000 + b"1 1\n255\n0007\n")
    assert img.width == 1 and img.pixels[0, 0] == 7


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_gray_image_rejects_non_finite_pixels(bad):
    for px in ([[bad, 1.0]], [[1.0, 2.0], [3.0, bad]]):
        with pytest.raises(ValueError, match=r"pixel values outside \[0, 255\]"):
            GrayImage(np.array(px))
    assert GrayImage(np.array([[0.0, 255.0]])).pixels.tolist() == [[0, 255]]


# --- integral tables ------------------------------------------------------

def test_tables_single_pixel():
    t = build_tables(GrayImage(np.array([[5]], dtype=np.uint8)))
    assert t.sums[1, 1] == 5


def test_tables_all_zero():
    t = build_tables(GrayImage(np.zeros((3, 4), dtype=np.uint8)))
    assert not t.sums.any()
    assert not t.sq_sums.any()


def test_tables_match_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(200):
        img = random_image(rng)
        t = build_tables(img)
        # every entry equals the double-loop prefix sum
        expect = np.zeros((img.height + 1, img.width + 1), dtype=np.int64)
        expect[1:, 1:] = np.cumsum(np.cumsum(img.pixels.astype(np.int64), 0), 1)
        assert np.array_equal(t.sums, expect)
        px = img.pixels.astype(np.int64)
        expect[1:, 1:] = np.cumsum(np.cumsum(px * px, 0), 1)
        assert np.array_equal(t.sq_sums, expect)


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 30),
    height=st.integers(1, 30),
    rotated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(width=1, height=1, rotated=False, seed=0)
@example(width=1, height=1, rotated=True, seed=0)
@example(width=17, height=1, rotated=False, seed=1)
@example(width=17, height=1, rotated=True, seed=1)
@example(width=1, height=17, rotated=False, seed=2)
@example(width=1, height=17, rotated=True, seed=2)
def test_tables_match_brute_force_any_shape(width, height, rotated, seed):
    # the sums and squared sums come out of one buffer, whether or not the
    # rotated table is built alongside them
    px = np.random.default_rng(seed).integers(0, 256, (height, width), dtype=np.uint8)
    t = build_tables(GrayImage(px), want_rotated=rotated)
    expect = np.zeros((height + 1, width + 1), dtype=np.int64)
    expect[1:, 1:] = np.cumsum(np.cumsum(px.astype(np.int64), 0), 1)
    assert np.array_equal(t.sums, expect)
    expect[1:, 1:] = np.cumsum(np.cumsum(px.astype(np.int64) ** 2, 0), 1)
    assert np.array_equal(t.sq_sums, expect)
    assert (t.tilted is not None) == rotated


def test_tables_monotone_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        img = random_image(rng, max_side=32)
        t = build_tables(img)
        assert (t.sums >= 0).all()
        assert (np.diff(t.sums, axis=0) >= 0).all()
        assert (np.diff(t.sums, axis=1) >= 0).all()
        assert t.sums[-1, -1] == int(img.pixels.astype(np.int64).sum())


@settings(max_examples=50, deadline=None)
@given(
    width=st.integers(1, 24),
    height=st.integers(1, 24),
    rotated=st.booleans(),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(width=1, height=1, rotated=True, n=2, seed=0)
def test_tables_share_one_flat_layout(width, height, rotated, n, seed):
    rng = np.random.default_rng(seed)
    samples = [
        build_tables(GrayImage(rng.integers(0, 256, (height, width), dtype=np.uint8)), rotated)
        for _ in range(n)
    ]
    t = samples[0]
    assert t.stride == width + 2
    named = {"sums": (t.sums, t._flat[0]), "sq_sums": (t.sq_sums, t._flat[1])}
    assert t.flat(False) is t._flat[0]
    if rotated:
        named["tilted"] = (t.tilted, t.flat(True))
    for table, flat in named.values():
        assert flat.shape == ((height + 2) * t.stride,)
        rows, cols = table.shape
        ys, xs = np.mgrid[:rows, :cols]
        # entry [y, x] of every table at flat offset y * stride + x
        assert np.array_equal(flat[ys * t.stride + xs], table)
    for _, flat in (named["sums"], named["sq_sums"]):
        # the last row and column pad the sums to tilted's shape and read 0
        padded = flat.reshape(height + 2, t.stride)
        assert not padded[-1].any() and not padded[:, -1].any()
    stacks, stride, bases, inv = stack_tables(samples, {False, rotated})
    assert stride == t.stride and len(bases) == n
    for rot, stacked in stacks.items():
        for s, sample in enumerate(samples):
            part = sample.flat(rot)
            assert np.array_equal(stacked[bases[s] : bases[s] + len(part)], part)
    # the stack's 1/sigma is each whole sample's, bit for bit
    assert inv.tolist() == [window_inv_stddev(u, Rect(0, 0, width, height)) for u in samples]


# --- rect_sum ---------------------------------------------------------------

def test_rect_sum_full_image():
    rng = np.random.default_rng(11)
    img = random_image(rng, max_side=16)
    t = build_tables(img)
    full = Rect(0, 0, img.width, img.height)
    assert rect_sum(t, full) == int(img.pixels.astype(np.int64).sum())


def test_rect_sum_checkerboard():
    img = GrayImage(np.array([[0, 255], [255, 0]], dtype=np.uint8))
    t = build_tables(img)
    assert rect_sum(t, Rect(0, 0, 2, 2)) == 510


def test_rect_sum_random_against_oracle():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 1000:
        img = random_image(rng, max_side=24)
        t = build_tables(img)
        for _ in range(10):
            w = int(rng.integers(1, img.width + 1))
            h = int(rng.integers(1, img.height + 1))
            x = int(rng.integers(0, img.width - w + 1))
            y = int(rng.integers(0, img.height - h + 1))
            r = Rect(x, y, w, h)
            assert rect_sum(t, r) == brute_rect_sum(img, r)
            checked += 1


def test_rect_sum_partition_additive():
    rng = np.random.default_rng(31)
    img = random_image(rng, max_side=32)
    t = build_tables(img)
    for _ in range(50):
        w = int(rng.integers(2, img.width + 1)) if img.width > 1 else 1
        h = int(rng.integers(1, img.height + 1))
        x = int(rng.integers(0, img.width - w + 1))
        y = int(rng.integers(0, img.height - h + 1))
        if w < 2:
            continue
        cut = int(rng.integers(1, w))
        whole = rect_sum(t, Rect(x, y, w, h))
        left = rect_sum(t, Rect(x, y, cut, h))
        right = rect_sum(t, Rect(x + cut, y, w - cut, h))
        assert whole == left + right


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 6),
    height=st.integers(1, 6),
    x=st.integers(-4, 8),
    y=st.integers(-4, 8),
    w=st.integers(1, 5),
    h=st.integers(1, 5),
    rotated=st.booleans(),
)
def test_is_inside_matches_member_pixels(width, height, x, y, w, h, rotated):
    # the one inside rule: every member pixel lies in the image, for int and array geometry
    r = Rect(x, y, w, h)
    members = rotated_rect_members(r) if rotated else (
        (px, py) for py in range(y, y + h) for px in range(x, x + w))
    want = all(0 <= px < width and 0 <= py < height for px, py in members)
    assert bool(is_inside(width, height, x, y, w, h, rotated)) == want
    mask = is_inside(width, height, np.array([x, 0]), np.array([y, 0]), np.array([w, 1]),
                     np.array([h, 1]), rotated)
    assert mask.tolist() == [want, True]  # a 1x1 cell at the origin lies in any image


def test_rect_sum_out_of_bounds():
    t = build_tables(GrayImage(np.zeros((4, 4), dtype=np.uint8)))
    with pytest.raises(BoundsError):
        rect_sum(t, Rect(2, 2, 3, 1))


# --- rotated sums -----------------------------------------------------------

def random_rotated_rect(rng, width, height):
    for _ in range(200):
        w = int(rng.integers(1, 8))
        h = int(rng.integers(1, 8))
        x = int(rng.integers(0, width))
        y = int(rng.integers(0, height))
        if x - (h - 1) >= 0 and x + w - 1 < width and y + w + h - 2 < height:
            return Rect(x, y, w, h)
    return None


def test_rotated_degenerate_single_pixel():
    rng = np.random.default_rng(41)
    img = random_image(rng, max_side=10)
    t = build_tables(img, want_rotated=True)
    for y in range(img.height):
        for x in range(img.width):
            assert rotated_rect_sum(t, Rect(x, y, 1, 1)) == int(img.pixels[y, x])


def test_rotated_all_zero():
    img = GrayImage(np.zeros((12, 12), dtype=np.uint8))
    t = build_tables(img, want_rotated=True)
    rng = np.random.default_rng(43)
    for _ in range(30):
        r = random_rotated_rect(rng, 12, 12)
        if r is not None:
            assert rotated_rect_sum(t, r) == 0


def test_rotated_random_against_oracle():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 1000:
        img = random_image(rng, max_side=24)
        t = build_tables(img, want_rotated=True)
        for _ in range(10):
            r = random_rotated_rect(rng, img.width, img.height)
            if r is None:
                continue
            assert rotated_rect_sum(t, r) == brute_rotated_sum(img, r)
            checked += 1


def brute_pyramid(px: np.ndarray, ax: int, ay: int) -> int:
    """Pixels (x, y) with y <= ay - |x - ax| whose x + y has the parity of ax + ay."""
    ys, xs = np.mgrid[0 : px.shape[0], 0 : px.shape[1]]
    inside = (ys <= ay - np.abs(xs - ax)) & ((xs + ys - ax - ay) % 2 == 0)
    return int(px[inside].astype(np.int64).sum())


@settings(max_examples=60, deadline=None)
@given(height=st.integers(1, 14), width=st.integers(1, 14), seed=st.integers(0, 2**32 - 1))
@example(height=1, width=1, seed=0)
@example(height=1, width=9, seed=1)
@example(height=9, width=1, seed=2)
def test_tilted_matches_brute_pyramid(height, width, seed):
    # every apex the table holds, edges included: ax = -1 and ax = width
    # (apexes beside the image) and ay = -2 (above it)
    px = np.random.default_rng(seed).integers(0, 256, (height, width), dtype=np.uint8)
    tilted = build_tables(GrayImage(px), want_rotated=True).tilted
    assert tilted.shape == (height + 2, width + 2)
    for ay in range(-2, height):
        for ax in range(-1, width + 1):
            assert tilted[ay + 2, ax + 1] == brute_pyramid(px, ax, ay), (ax, ay)


def test_rotated_out_of_bounds():
    t = build_tables(GrayImage(np.zeros((6, 6), dtype=np.uint8)), want_rotated=True)
    with pytest.raises(BoundsError):
        rotated_rect_sum(t, Rect(0, 0, 2, 2))  # x - (h-1) < 0


# --- window statistics -------------------------------------------------------

def test_inv_stddev_uniform_clamps():
    img = GrayImage(np.full((5, 5), 77, dtype=np.uint8))
    t = build_tables(img)
    assert window_inv_stddev(t, Rect(0, 0, 5, 5)) == 1.0


def test_inv_stddev_two_level():
    img = GrayImage(np.array([[0, 255], [0, 255]], dtype=np.uint8))
    t = build_tables(img)
    assert window_inv_stddev(t, Rect(0, 0, 2, 2)) == pytest.approx(1 / 127.5, rel=1e-12)


def test_inv_stddev_random_against_direct():
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 500:
        img = random_image(rng, max_side=24)
        t = build_tables(img)
        for _ in range(5):
            w = int(rng.integers(1, img.width + 1))
            h = int(rng.integers(1, img.height + 1))
            x = int(rng.integers(0, img.width - w + 1))
            y = int(rng.integers(0, img.height - h + 1))
            block = img.pixels[y : y + h, x : x + w].astype(np.float64)
            sigma = float(np.sqrt(np.mean(block * block) - np.mean(block) ** 2))
            want = 1.0 if sigma < 1.0 else 1.0 / sigma
            got = window_inv_stddev(t, Rect(x, y, w, h))
            assert got == pytest.approx(want, rel=1e-9)
            checked += 1


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 24),
    height=st.integers(1, 24),
    fill=st.sampled_from([None, 0, 7, 255]),  # None: random pixels; else a constant patch
    seed=st.integers(0, 2**32 - 1),
)
@example(width=1, height=24, fill=None, seed=0)
@example(width=24, height=1, fill=None, seed=1)
@example(width=24, height=24, fill=255, seed=0)
def test_window_inv_stddev_matches_window_inv_stddevs(width, height, fill, seed):
    # the scalar path is the batch's N = 1 case bit for bit: on the whole
    # patch, as training and bootstrap filtering read it, and on sub-windows
    rng = np.random.default_rng(seed)
    if fill is None:
        px = rng.integers(0, 256, (height, width), dtype=np.uint8)
    else:
        px = np.full((height, width), fill, dtype=np.uint8)
    t = build_tables(GrayImage(px))
    windows = [(0, 0, width, height)]
    for _ in range(4):
        w, h = int(rng.integers(1, width + 1)), int(rng.integers(1, height + 1))
        x, y = int(rng.integers(0, width - w + 1)), int(rng.integers(0, height - h + 1))
        windows.append((x, y, w, h))
    for x, y, w, h in windows:
        got = window_inv_stddev(t, Rect(x, y, w, h))
        assert type(got) is float
        assert got == window_inv_stddevs(t, y * t.stride + x, w, h)


def inv_stddevs_2d(tables, xs, ys, w, h):
    # the batch formula with 2-D corner indexing, operation for operation
    n = w * h
    s, sq = tables.sums, tables.sq_sums
    s1 = s[ys + h, xs + w] - s[ys, xs + w] - s[ys + h, xs] + s[ys, xs]
    s2 = sq[ys + h, xs + w] - sq[ys, xs + w] - sq[ys + h, xs] + sq[ys, xs]
    mean = s1 / n
    sigma = np.sqrt(np.maximum(s2 / n - mean * mean, 0.0))
    return 1.0 / np.maximum(sigma, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 20),
    height=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([1, 3, 256]),  # flat windows clamp sigma to 1
    data=st.data(),
)
@example(width=1, height=17, seed=0, spread=256, data=None)
@example(width=17, height=1, seed=1, spread=256, data=None)
def test_window_inv_stddevs_bit_exact(width, height, seed, spread, data):
    rng = np.random.default_rng(seed)
    lo = int(rng.integers(0, 257 - spread))
    img = GrayImage(rng.integers(lo, lo + spread, size=(height, width), dtype=np.uint8))
    t = build_tables(img)
    if data is None:
        w, h = max(1, width // 2), max(1, height // 2)
    else:
        w, h = data.draw(st.integers(1, width)), data.draw(st.integers(1, height))
    # every origin, so windows touch the first and the last row and column
    ys, xs = (g.ravel() for g in np.mgrid[: height - h + 1, : width - w + 1])
    got = window_inv_stddevs(t, ys * t.stride + xs, w, h)
    want = inv_stddevs_2d(t, xs, ys, w, h)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for x in (0, width - w):
        for y in (0, height - h):
            assert window_inv_stddevs(t, y * t.stride + x, w, h) == inv_stddevs_2d(t, x, y, w, h)
