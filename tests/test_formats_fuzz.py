"""Mutation fuzzing of the file formats: a malformed file raises only the
format's typed error, never IndexError, MemoryError, UnicodeDecodeError or
another crash.

Each case takes a valid file and applies a few mutations: truncation, a
flipped byte, a dropped whitespace-separated token, or an inserted token
drawn from the format's own keywords and from awkward numbers.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidpoint.boost import StrongClassifier, WeakClassifier
from fidpoint.cascade import Cascade, CascadeFormatError, Stage, deserialize, serialize
from fidpoint.geom import Point2
from fidpoint.haar import FeatureKind, FeatureSet, HaarFeature
from fidpoint.raster import GrayImage, PgmFormatError, Rect, load_pgm, save_pgm
from fidpoint.samples import (
    PatchSet,
    PatchSetFormatError,
    PointsFormatError,
    SampleDescription,
    parse_description_log,
    parse_points_file,
    read_patchset,
    write_description_log,
    write_patchset,
    write_points_file,
)


def _cascade_file() -> bytes:
    stages = []
    kinds_per_stage = [(FeatureKind.EDGE_H,), (FeatureKind.LINE_V, FeatureKind.EDGE_H_45)]
    for i, kinds in enumerate(kinds_per_stage):
        rounds = [
            (0.5 + j, WeakClassifier(j - 1.5, 1 - 2 * (j % 2), feature=HaarFeature(k, 2, 1, 1, 2)))
            for j, k in enumerate(kinds)
        ]
        stages.append(Stage(StrongClassifier(rounds, threshold=0.25 * (i + 1)), 0.995, 0.5))
    return serialize(Cascade(9, 9, FeatureSet.ALL, stages))


def _patchset_file() -> bytes:
    rng = np.random.default_rng(3)
    return write_patchset(PatchSet(3, 2, [(i % 2, rng.integers(0, 256, (2, 3), dtype=np.uint8))
                                          for i in range(3)]))


def _description_log() -> bytes:
    return write_description_log([
        SampleDescription("faces/a.pgm", [Rect(3, 4, 20, 22), Rect(0, 0, 1, 1)]),
        SampleDescription("b.pgm", []),
        SampleDescription("c.pgm", [Rect(-2, 7, 5, 5)]),
    ])


def _pixels() -> np.ndarray:
    return np.random.default_rng(5).integers(0, 256, (3, 4), dtype=np.uint8)


def _p2_file() -> bytes:
    rows = "\n".join(" ".join(str(v) for v in row) for row in _pixels())
    return f"P2\n# a comment\n4 3\n255\n{rows}\n".encode("ascii")


PGM_WORDS = [b"P5", b"P2", b"#", b"# c\n", b"255", b"256", b"00", b"9" * 4400, b"\n"]
NUMBERS = [b"0", b"1", b"-1", b"+1", b"2", b"9", b"1e999", b"-1e999", b"nan", b"inf",
           b"0.5", b"99999999999", b"x", b""]
FORMATS = {
    "cascade": (_cascade_file(), deserialize, CascadeFormatError,
                [b"FIDCASCADE", b"window", b"features", b"stages", b"stage", b"weak",
                 b"threshold", b"nweak", b"alpha", b"parity", b"thresh", b"kind", b"w", b"h",
                 b"BASIC", b"ALL", b"EDGE_H", b"EDGE_H_45", b"\n"]),
    "pts": (write_points_file([Point2(1.5, 2.0), Point2(-3.0, 4.25), Point2(0.0, 7.0)]),
            parse_points_file, PointsFormatError, [b"PTS", b"n", b"\n"]),
    "patchset": (_patchset_file(), read_patchset, PatchSetFormatError,
                 [b"FPSET1", b"\x00", b"\x01", b"\x02", b"\xff" * 4]),
    "description": (_description_log(), parse_description_log, PointsFormatError,
                    [b"img.pgm", b"\xff", b"\x0c", b"\r", b"\n"]),
    "pgm_p5": (save_pgm(GrayImage(_pixels())), load_pgm, PgmFormatError, PGM_WORDS),
    "pgm_p2": (_p2_file(), load_pgm, PgmFormatError, PGM_WORDS),
}


def _tokens(data: bytes) -> list[bytes]:
    """Alternating separator / token pieces whose join is ``data``."""
    return re.split(rb"(\s+)", data)


@st.composite
def mutated(draw, name):
    data, _, _, words = FORMATS[name]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["truncate", "flip", "drop", "insert"]))
        if op == "truncate":
            data = data[: draw(st.integers(0, max(0, len(data) - 1)))]
        elif op == "flip" and data:
            i = draw(st.integers(0, len(data) - 1))
            data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]
        elif op == "drop":
            parts = _tokens(data)
            i = draw(st.integers(0, len(parts) - 1))
            data = b"".join(parts[:i] + parts[i + 1 :])
        else:
            parts = _tokens(data)
            i = draw(st.integers(0, len(parts)))
            tok = draw(st.sampled_from(words + NUMBERS))
            sep = draw(st.sampled_from([b" ", b"", b"\n"]))
            data = b"".join(parts[:i] + [sep + tok + sep] + parts[i:])
    return data


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_valid_base_file_parses(name):
    data, parse, _, _ = FORMATS[name]
    parse(data)


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_file_raises_only_typed_error(name, data):
    _, parse, error, _ = FORMATS[name]
    blob = data.draw(mutated(name))
    try:
        parse(blob)
    except error:
        pass
