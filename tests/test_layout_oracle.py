"""Differential tests: the layout kernel against a copy of its dataclass form.

``geometry.Box`` is a tuple that stores its float corners, extents and
centres once, at construction; the clusterers sort on those stored floats,
``dedup_and_assemble`` keys the dedup on each box's already normalized
text, ``_line_text`` probes a line for Japanese once, and
``assemble_layout_text`` reuses the bands the orientation vote built. The
copies below are the form before all of that: the frozen dataclass whose
properties call ``float()`` on every read, and the layout functions that
read them. They share the text-normalization kernel, which
``tests/test_textnorm.py`` checks against its own oracle.

Results are compared by ``repr``; both sides raising the same exception
type counts as equal. The box sets carry int, negative, NaN, infinite and
huge coordinates, repeated dedup keys (some differing only below a unit of
height), ties on ``(center_y, x1, x2)``, bands at the edge of the greedy
window of 8, and sets of 6 or more boxes around the 0.5 and 0.7 tall ratios
of the orientation vote.
"""

from __future__ import annotations

import copy
import math
import pickle
from dataclasses import dataclass
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_ocr_batch_ndrocr_lite_ray.functions import geometry as geo
from pdf_ocr_batch_ndrocr_lite_ray.functions import layout as lay
from pdf_ocr_batch_ndrocr_lite_ray.functions.textnorm import (
    contains_japanese,
    is_ascii_word_like,
    normalize_text,
    polish_line,
)

# ---------------------------------------------------------------------------
# The oracle: the frozen dataclass Box and the layout functions that read it
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    text: str
    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def height(self) -> float:
        h = float(self.y2) - float(self.y1)
        return h if h > 1.0 else 1.0

    @property
    def width(self) -> float:
        w = float(self.x2) - float(self.x1)
        return w if w > 1.0 else 1.0

    @property
    def center_y(self) -> float:
        return (float(self.y1) + float(self.y2)) / 2.0

    @property
    def center_x(self) -> float:
        return (float(self.x1) + float(self.x2)) / 2.0


def _greedy_bands(boxes, order_key, position, size, ratio, emit_key):
    bands = []
    for box in sorted(boxes, key=order_key):
        pos = position(box)
        extent = size(box)
        for band in reversed(bands[-8:]):
            members, s_pos, s_size = band
            n = len(members)
            if abs(pos - s_pos / n) <= max(4.0, min(s_size / n, extent) * ratio):
                members.append(box)
                band[1] = s_pos + pos
                band[2] = s_size + extent
                break
        else:
            bands.append([[box], pos, extent])
    return [sorted(members, key=emit_key) for members, _, _ in bands]


def oracle_group_into_lines(boxes):
    return _greedy_bands(
        boxes, lambda b: (b.center_y, float(b.x1), float(b.x2)), attrgetter("center_y"),
        attrgetter("height"), 0.6, lambda b: (float(b.x1), float(b.x2)),
    )


def oracle_group_into_vertical_columns(boxes):
    return _greedy_bands(
        boxes, lambda b: (-b.center_x, float(b.y1), float(b.y2)), attrgetter("center_x"),
        attrgetter("width"), 0.9, lambda b: (float(b.y1), float(b.y2)),
    )


def oracle_is_vertical_layout(boxes):
    if len(boxes) < 6:
        return False
    tall_ratio = sum(1 for b in boxes if b.height > b.width * 1.25) / max(1, len(boxes))
    if tall_ratio >= 0.70:
        return True
    if tall_ratio >= 0.50:
        h_lines = len(oracle_group_into_lines(boxes))
        v_cols = len(oracle_group_into_vertical_columns(boxes))
        if v_cols <= max(1, h_lines):
            return True
    return False


def oracle_join_line(boxes):
    return _line_text(boxes, [normalize_text(b.text) for b in boxes])


def _line_text(boxes, texts):
    if not boxes:
        return ""
    pieces = []
    prev = None
    prev_text = ""
    line_has_japanese = any(contains_japanese(t) for t in texts)
    for box, cur in zip(boxes, texts):
        if not cur:
            continue
        if prev is not None:
            gap = max(0.0, float(box.x1) - float(prev.x2))
            gap_ratio = gap / max(1.0, min(prev.height, box.height))
            if line_has_japanese:
                need_space = (
                    is_ascii_word_like(prev_text)
                    and is_ascii_word_like(cur)
                    and gap_ratio >= 0.90
                )
            else:
                need_space = gap_ratio >= 0.45
            if need_space:
                pieces.append(" ")
        pieces.append(cur)
        prev, prev_text = box, cur
    return polish_line("".join(pieces))


def _column_order(b):
    return (b.center_y, -b.center_x, float(b.y1), float(b.x1))


def oracle_join_vertical_column(boxes):
    return polish_line("".join(normalize_text(b.text) for b in sorted(boxes, key=_column_order)))


def oracle_dedup_boxes(boxes):
    deduped = []
    seen = set()
    for box in sorted(
        boxes,
        key=lambda b: (round(b.y1, 1), round(b.x1, 1), round(b.y2 - b.y1, 1), b.text),
    ):
        text_key = normalize_text(box.text)
        if not text_key:
            continue
        key = (
            text_key,
            int(round(box.x1)),
            int(round(box.y1)),
            int(round(box.x2)),
            int(round(box.y2)),
        )
        if key in seen:
            continue
        seen.add(key)
        deduped.append(box if text_key == box.text else Box(text_key, box.x1, box.y1, box.x2, box.y2))
    return deduped


def oracle_assemble_layout_text(boxes, blocks):
    segments = []
    if boxes:
        if oracle_is_vertical_layout(boxes):
            kind = "column"
            texts = [
                polish_line("".join(b.text for b in sorted(column, key=_column_order)))
                for column in oracle_group_into_vertical_columns(boxes)
            ]
        else:
            kind = "line"
            texts = [_line_text(line, [b.text for b in line]) for line in oracle_group_into_lines(boxes)]
        segments = [(text, kind) for text in texts if text]
    segments += [(block, "block") for block in blocks if block]
    return lay.join_segments(segments)


def oracle_dedup_and_assemble(boxes, blocks):
    return oracle_assemble_layout_text(oracle_dedup_boxes(boxes), lay.dedup_blocks(blocks))


# ---------------------------------------------------------------------------
# Box sets
# ---------------------------------------------------------------------------

_TEXTS = ["a", "b", "hello", "x,y", "42", "", "  ", "日本", "東京 都", "A 1", "( a", "価格 100 円", "ab cd"]
# few values, so centres, corners and dedup keys collide
_TIE_COORDS = [0, 1, 2, 2.0, 2.5, 3, -3, 10, 10.4, 10.6, 40, 100]
_ODD_COORDS = [
    0.0, -0.0, -1e6, 1e15, 2**53 + 1, 1e300, -1e300, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan, 0.05, 0.15, 0.25, 2.5, 3.5,
]
_coords = st.one_of(
    st.sampled_from(_TIE_COORDS),
    st.integers(-500, 500),
    st.floats(-500, 500, allow_nan=False),
    st.sampled_from(_ODD_COORDS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
)
_fields = st.tuples(st.sampled_from(_TEXTS), _coords, _coords, _coords, _coords)


@st.composite
def _shaped_fields(draw):
    """6 to 14 boxes, the tall share drawn around the 0.5 and 0.7 thresholds."""
    n = draw(st.integers(6, 14))
    target = draw(st.sampled_from([0.5, 0.7]))
    n_tall = max(0, min(n, round(n * target) + draw(st.integers(-1, 1))))
    out = []
    for i in range(n):
        x = draw(st.sampled_from([0, 5, 10, 12, 30, 31, 60, 90]))
        y = draw(st.sampled_from([0, 4, 10, 12, 30, 31, 60, 90]))
        w, h = draw(st.sampled_from([(8, 40), (10, 30), (8, 11)] if i < n_tall else [(40, 8), (30, 10), (8, 10)]))
        out.append((draw(st.sampled_from(_TEXTS)), x, y, x + w, y + h))
    return out


@st.composite
def _tied_fields(draw):
    """Boxes sharing a centre line and a left edge but not their right edge
    or height, so the visiting order decides which band a box joins."""
    out = []
    for _ in range(draw(st.integers(2, 10))):
        cy, h = draw(st.sampled_from([0, 7, 20])), draw(st.sampled_from([4, 10, 20, 100]))
        x1, w = draw(st.sampled_from([0, 10])), draw(st.sampled_from([5, 10, 40]))
        out.append((draw(st.sampled_from(_TEXTS)), x1, cy - h / 2, x1 + w, cy + h / 2))
    return out


@st.composite
def _near_duplicates(draw):
    """Boxes plus copies nudged around the half-unit rounding edges, with the
    text padded or not, so dedup keys collide or just miss."""
    out = draw(st.lists(_fields, min_size=1, max_size=6))
    for text, *coords in draw(st.lists(st.sampled_from(out), max_size=6)):
        nudged = [
            c + draw(st.sampled_from([0, 0.3, -0.3, 0.5, -0.5, 0.7, -0.7]))
            if isinstance(c, (int, float)) and abs(c) < 1e15 else c
            for c in coords
        ]
        out.append((draw(st.sampled_from([text, f" {text} "])), *nudged))
    return draw(st.permutations(out))


@st.composite
def _window_edge(draw):
    """A wide band, then 4 to 11 narrow bands, then a box only the wide band
    can take: it joins that band iff fewer than 8 narrow bands were opened
    after it (the greedy window), for lines or, mirrored, for columns."""
    k = draw(st.integers(4, 11))
    spans = [(-500, 500)] + [(10 * i - 2, 10 * i + 2) for i in range(1, k + 1)]
    spans.append((10 * (k + 1) - 500, 10 * (k + 1) + 500))
    out = []
    for lo, hi in spans:
        x = draw(st.sampled_from([0, 30, 60]))
        out.append((draw(st.sampled_from(_TEXTS)), x, lo, x + 20, hi))
    if draw(st.booleans()):  # columns visit by descending centre x
        out = [(text, -hi, x1, -lo, x2) for text, x1, lo, x2, hi in out]
    return draw(st.permutations(out))


@st.composite
def _thin_duplicates(draw):
    """Copies of one box whose heights differ below 1.0 but whose corners
    round alike: the sort on the unclamped ``round(y2 - y1, 1)`` decides
    which copy survives."""
    text, x1 = draw(st.sampled_from(_TEXTS)), draw(st.sampled_from([0, 3, 10.2]))
    heights = draw(st.lists(st.sampled_from([0.55, 0.6, 0.7, 0.8, 0.9, 1.2, 1.4]), min_size=2, max_size=6))
    return [(text, x1, 10, x1 + 8, 10 + h) for h in heights]


_field_sets = st.one_of(
    st.lists(_fields, max_size=14),
    st.lists(st.tuples(st.sampled_from(_TEXTS), *[st.sampled_from(_TIE_COORDS)] * 4), max_size=14),
    _shaped_fields(),
    _tied_fields(),
    _near_duplicates(),
    _window_edge(),
    _thin_duplicates(),
)
_blocks = st.lists(st.sampled_from(_TEXTS), max_size=3)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # both sides raising the same type counts as equal
        return ("raised", type(exc).__name__)


def _both(fields):
    return [geo.Box(*f) for f in fields], [Box(*f) for f in fields]


def _normalized(fields):
    return [(normalize_text(f[0]), *f[1:]) for f in fields]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@settings(max_examples=600, deadline=None)
@given(_field_sets)
def test_clusterers_and_vote_match_oracle(fields):
    new, old = _both(fields)
    for got, want in (
        (lay.group_into_lines, oracle_group_into_lines),
        (lay.group_into_vertical_columns, oracle_group_into_vertical_columns),
        (lay.is_vertical_layout, oracle_is_vertical_layout),
        (lay.join_line, oracle_join_line),
        (lay.join_vertical_column, oracle_join_vertical_column),
        (lay.dedup_boxes, oracle_dedup_boxes),
    ):
        assert _outcome(got, new) == _outcome(want, old), got.__name__


@settings(max_examples=600, deadline=None)
@given(_field_sets, _blocks)
def test_assembly_matches_oracle(fields, blocks):
    new, old = _both(fields)
    assert _outcome(lambda: lay.assemble_layout_text(lay.dedup_boxes(new), blocks)) == _outcome(
        lambda: oracle_assemble_layout_text(oracle_dedup_boxes(old), blocks)
    )
    # on raw boxes too: the vote, the bands and the joins see NaN and inf
    assert _outcome(lay.assemble_layout_text, new, blocks) == _outcome(
        oracle_assemble_layout_text, old, blocks
    )
    # every producer stores normalized text, which dedup_and_assemble keys on as is
    new, old = _both(_normalized(fields))
    assert _outcome(lay.dedup_and_assemble, new, blocks) == _outcome(
        oracle_dedup_and_assemble, old, blocks
    )


@settings(max_examples=400, deadline=None)
@given(_fields, _fields)
def test_box_contract_matches_dataclass(a, b):
    (new_a, new_b), (old_a, old_b) = _both([a, b])
    assert repr(new_a) == repr(old_a)
    assert (new_a == new_b) == (old_a == old_b)
    assert (new_a != new_b) == (old_a != old_b)
    assert (new_a == new_a) == (old_a == old_a)
    assert hash(new_a) == hash(old_a)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        new_c, old_c = pickle.loads(pickle.dumps(new_a, proto)), pickle.loads(pickle.dumps(old_a, proto))
        assert type(new_c) is geo.Box
        assert repr(new_c) == repr(old_c)
        assert (new_c == new_a) == (old_c == old_a)
    assert repr(copy.deepcopy(new_a)) == repr(copy.deepcopy(old_a))
    for name in ("height", "width", "center_x", "center_y", "text", "x1", "y1", "x2", "y2"):
        assert repr(getattr(new_a, name)) == repr(getattr(old_a, name)), name


def test_box_construction_and_immutability():
    kw = geo.Box(text="t", x1=1, y1=2.5, x2=3, y2=4)
    assert kw == geo.Box("t", 1, 2.5, 3, 4)
    assert repr(kw) == repr(Box("t", 1, 2.5, 3, 4)) == "Box(text='t', x1=1, y1=2.5, x2=3, y2=4)"
    assert kw != ("t", 1, 2.5, 3, 4) and Box("t", 1, 2.5, 3, 4) != ("t", 1, 2.5, 3, 4)
    for box in (kw, Box("t", 1, 2.5, 3, 4)):  # FrozenInstanceError is an AttributeError
        with pytest.raises(AttributeError):
            box.x1 = 9
        with pytest.raises(AttributeError):
            box.extra = 9
        with pytest.raises(AttributeError):
            del box.text
        with pytest.raises(TypeError):
            box < box  # noqa: B015
    assert {kw, geo.Box("t", 1.0, 2.5, 3.0, 4.0)} == {kw}


def test_stored_extents_are_the_float_reads():
    """The stored corners and the derived values the layout layer indexes."""
    box = geo.Box("t", 1, "2", 3.5, 2)
    assert (box[geo.FX1], box[geo.FY1], box[geo.FX2], box[geo.FY2]) == (1.0, 2.0, 3.5, 2.0)
    assert (box[geo.HEIGHT], box[geo.WIDTH]) == (1.0, 2.5)
    assert (box[geo.CENTER_Y], box[geo.CENTER_X], box[geo.NEG_CENTER_X]) == (2.0, 2.25, -2.25)
    nan = geo.Box("t", math.nan, 0, 1, math.nan)
    assert nan.height == nan.width == 1.0 and math.isnan(nan.center_x)

