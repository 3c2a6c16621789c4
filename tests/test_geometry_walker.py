"""Differential tests: the geometry coercers and the payload walker against
copies of their straightforward forms.

``functions.geometry`` probes exact dicts without the ``Mapping`` ABC check
and tests key sets instead of looping over keys, and ``payload.walk_payload``
probes a node's text and bbox once instead of again through
``looks_like_text_leaf``. The reference-parity tests that would guard these
functions skip without the reference implementation, so the copies below
are the oracle: the same key-probing order, the same results on odd input
(non-dict mappings, string / bool / NaN coordinates, a bbox key that does
not coerce ahead of a valid coordinate family, a blank text ahead of a valid
one, nesting at the depth cap).
"""

from __future__ import annotations

import math
import types
from collections.abc import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_ocr_batch_ndrocr_lite_ray.functions import geometry as geo
from pdf_ocr_batch_ndrocr_lite_ray.functions.geometry import Box
from pdf_ocr_batch_ndrocr_lite_ray.functions.textnorm import normalize_text
from pdf_ocr_batch_ndrocr_lite_ray.stages.payload import _MAX_DEPTH, walk_payload

# ---------------------------------------------------------------------------
# The oracle: the coercers and the walker in their straightforward form
# ---------------------------------------------------------------------------

_BBOX_KEYS = ("bbox", "box", "rect", "boundingBox", "bounding_box")
_TEXT_KEYS = (
    "text", "TEXT", "content", "CONTENT", "label", "string", "STRING",
    "unicode", "Unicode", "transcription", "recognized_text", "ocr_text",
    "PlainText",
)
_PAGE_KEYS = ("page", "page_no", "page_num", "page_index", "page_id", "pageNumber", "pageIndex")


def _xywh(obj, kx, ky, kw, kh):
    try:
        x, y = float(obj[kx]), float(obj[ky])
        w, h = float(obj[kw]), float(obj[kh])
    except Exception:
        return None
    return (x, y, x + w, y + h)


def oracle_bbox_from_mapping(obj):
    if not isinstance(obj, Mapping):
        return None
    for key in _BBOX_KEYS:
        if key in obj:
            bbox = oracle_coerce_bbox_value(obj[key])
            if bbox is not None:
                return bbox
    if all(k in obj for k in ("x", "y", "w", "h")):
        bbox = _xywh(obj, "x", "y", "w", "h")
        if bbox is not None:
            return bbox
    if all(k in obj for k in ("X", "Y", "WIDTH", "HEIGHT")):
        bbox = _xywh(obj, "X", "Y", "WIDTH", "HEIGHT")
        if bbox is not None:
            return bbox
    if all(k in obj for k in ("left", "top", "width", "height")):
        bbox = _xywh(obj, "left", "top", "width", "height")
        if bbox is not None:
            return bbox
    if all(k in obj for k in ("xmin", "ymin", "xmax", "ymax")):
        try:
            return (float(obj["xmin"]), float(obj["ymin"]), float(obj["xmax"]), float(obj["ymax"]))
        except Exception:
            pass
    if all(k in obj for k in ("x1", "y1", "x2", "y2")):
        try:
            return (float(obj["x1"]), float(obj["y1"]), float(obj["x2"]), float(obj["y2"]))
        except Exception:
            pass
    return None


def oracle_coerce_bbox_value(value):
    if isinstance(value, Mapping):
        return oracle_bbox_from_mapping(value)
    if isinstance(value, (list, tuple)):
        if len(value) == 4 and all(isinstance(v, (int, float, str)) for v in value):
            try:
                a, b, c, d = (float(x) for x in value)
            except Exception:
                return None
            if c > a and d > b:
                return (a, b, c, d)
        points = []
        for item in value:
            if isinstance(item, Mapping):
                x = item.get("x", item.get("X"))
                y = item.get("y", item.get("Y"))
                if x is not None and y is not None:
                    try:
                        points.append((float(x), float(y)))
                    except Exception:
                        pass
            elif isinstance(item, (list, tuple)) and len(item) >= 2:
                try:
                    points.append((float(item[0]), float(item[1])))
                except Exception:
                    pass
        if points:
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            return (min(xs), min(ys), max(xs), max(ys))
    return None


def oracle_text_from_mapping(obj):
    if not isinstance(obj, Mapping):
        return None
    for key in _TEXT_KEYS:
        value = obj.get(key)
        if isinstance(value, str) and value.strip():
            return value
    return None


def oracle_page_hint(obj, inherited, page_count):
    if isinstance(obj, Mapping):
        for key in _PAGE_KEYS:
            if key in obj:
                try:
                    value = int(obj[key])
                except Exception:
                    continue
                if 0 <= value < page_count:
                    return value
                if 1 <= value <= page_count:
                    return value - 1
    return inherited


def oracle_looks_like_text_leaf(obj):
    if not isinstance(obj, Mapping):
        return False
    if oracle_bbox_from_mapping(obj) is not None:
        return False
    if not oracle_text_from_mapping(obj):
        return False
    scalar_like = 0
    complex_like = 0
    for v in obj.values():
        if isinstance(v, (str, int, float, bool)) or v is None:
            scalar_like += 1
        else:
            complex_like += 1
    return scalar_like >= complex_like


def oracle_walk_payload(data, page_count=None):
    boxes, blocks = [], []

    def visit(node, hint, depth):
        if depth > _MAX_DEPTH:
            return
        if isinstance(node, dict):
            if page_count is not None:
                hint = oracle_page_hint(node, hint, page_count)
            text_value = oracle_text_from_mapping(node)
            bbox = oracle_bbox_from_mapping(node) if text_value else None
            if bbox is not None or (text_value and oracle_looks_like_text_leaf(node)):
                cleaned = normalize_text(text_value)
                if cleaned and bbox is not None:
                    boxes.append((hint, Box(text=cleaned, x1=bbox[0], y1=bbox[1], x2=bbox[2], y2=bbox[3])))
                elif cleaned:
                    blocks.append((hint, cleaned))
                return
            for value in node.values():
                visit(value, hint, depth + 1)
        elif isinstance(node, list):
            for item in node:
                visit(item, hint, depth + 1)

    visit(data, None, 0)
    return boxes, blocks


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

_FAMILY_KEYS = [
    "x", "y", "w", "h", "X", "Y", "WIDTH", "HEIGHT", "left", "top", "width",
    "height", "xmin", "ymin", "xmax", "ymax", "x1", "y1", "x2", "y2",
]
_OTHER_KEYS = ["conf", "id", "items", "meta", "lines"]
_KEYS = list(_BBOX_KEYS) + _FAMILY_KEYS + list(_TEXT_KEYS) + list(_PAGE_KEYS) + _OTHER_KEYS

_coords = st.one_of(
    st.integers(-5, 500),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.sampled_from(["1", "2.5", " 3 ", "x", "", "nan", "inf", "1e400", "-0"]),
    st.none(),
)
_texts = st.one_of(
    st.sampled_from(["", " ", "\t\n", "word", " two  words ", "価格 100 円", "A 1"]),
    st.text(max_size=8),
)
_box_values = st.one_of(
    st.lists(_coords, min_size=4, max_size=4),
    st.tuples(_coords, _coords, _coords, _coords),
    st.lists(st.lists(_coords, min_size=2, max_size=3), max_size=4),
    st.lists(st.fixed_dictionaries({"x": _coords, "y": _coords}), max_size=4),
    st.lists(st.fixed_dictionaries({"X": _coords, "Y": _coords}), max_size=3),
    st.dictionaries(st.sampled_from(_FAMILY_KEYS), _coords, max_size=6),
    _coords,
)


def _value_for(key: str):
    if key in _BBOX_KEYS:
        return _box_values
    if key in _TEXT_KEYS:
        return st.one_of(_texts, _coords)
    return _coords


# keys come in groups, half of them whole coordinate families, so that
# mappings often spell a box more than one way
_FAMILIES = [tuple(_FAMILY_KEYS[i:i + 4]) for i in range(0, len(_FAMILY_KEYS), 4)]
_key_groups = st.one_of(st.sampled_from(_FAMILIES), st.sampled_from(_KEYS).map(lambda k: (k,)))
_flat_mappings = st.lists(_key_groups, max_size=6).flatmap(
    lambda groups: st.fixed_dictionaries(
        {k: _value_for(k) for k in dict.fromkeys(k for group in groups for k in group)}
    )
)
_mappings = st.one_of(_flat_mappings, _flat_mappings.map(types.MappingProxyType))

_payloads = st.recursive(
    st.one_of(_flat_mappings, _coords, _texts),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(
            _flat_mappings,
            st.dictionaries(st.sampled_from(_OTHER_KEYS + list(_PAGE_KEYS)), inner, max_size=3),
        ).map(lambda pair: {**pair[0], **pair[1]}),
    ),
    max_leaves=25,
)


def _same(ours, theirs) -> bool:
    # repr: NaN coordinates compare unequal to themselves
    return repr(ours) == repr(theirs)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@settings(max_examples=1000, deadline=None)
@given(_mappings)
def test_mapping_probes_match_oracle(obj):
    assert _same(geo.bbox_from_mapping(obj), oracle_bbox_from_mapping(obj))
    assert _same(geo.text_from_mapping(obj), oracle_text_from_mapping(obj))
    assert geo.looks_like_text_leaf(obj) == oracle_looks_like_text_leaf(obj)
    for page_count in (1, 3):
        assert geo.page_hint(obj, 7, page_count) == oracle_page_hint(obj, 7, page_count)


@settings(max_examples=800, deadline=None)
@given(_box_values)
def test_coerce_bbox_value_matches_oracle(value):
    assert _same(geo.coerce_bbox_value(value), oracle_coerce_bbox_value(value))


@settings(max_examples=500, deadline=None)
@given(_payloads)
def test_walk_payload_matches_oracle(data):
    for page_count in (None, 1, 3):
        assert _same(walk_payload(data, page_count), oracle_walk_payload(data, page_count))


def test_non_mappings_and_non_dict_mapping():
    for obj in (None, 3, "text", ["text", "bbox"], ("x", 1)):
        assert geo.bbox_from_mapping(obj) is None
        assert geo.text_from_mapping(obj) is None
        assert not geo.looks_like_text_leaf(obj)
    proxy = types.MappingProxyType({"text": "hi", "x": 1, "y": 2, "w": 3, "h": 4})
    assert geo.bbox_from_mapping(proxy) == (1.0, 2.0, 4.0, 6.0)
    assert geo.text_from_mapping(proxy) == "hi"
    # the walker descends into dicts only, as before
    assert walk_payload([proxy]) == oracle_walk_payload([proxy]) == ([], [])


def test_odd_coordinates():
    obj = {"x": "1", "y": True, "w": " 2 ", "h": 3}
    assert geo.bbox_from_mapping(obj) == oracle_bbox_from_mapping(obj) == (1.0, 1.0, 3.0, 4.0)
    nan = {"xmin": float("nan"), "ymin": 0, "xmax": 1, "ymax": 1}
    assert math.isnan(geo.bbox_from_mapping(nan)[0])
    assert geo.coerce_bbox_value([0, 0, float("nan"), 1]) is None


def test_bad_bbox_key_falls_through_to_a_coordinate_family():
    obj = {"bbox": [5, 5, 1, 1], "box": "junk", "left": 1, "top": 2, "width": 3, "height": 4}
    assert geo.bbox_from_mapping(obj) == oracle_bbox_from_mapping(obj) == (1.0, 2.0, 4.0, 6.0)
    # a family whose values do not coerce falls through to the next one
    obj = {"x": "a", "y": 0, "w": 1, "h": 1, "x1": 0, "y1": 0, "x2": 2, "y2": 2}
    assert geo.bbox_from_mapping(obj) == oracle_bbox_from_mapping(obj) == (0.0, 0.0, 2.0, 2.0)


def test_every_spelling_at_once_follows_the_probing_order():
    obj = {"rect": "junk"}
    for n, family in enumerate(_FAMILIES):
        obj.update(dict(zip(family, (n, n, 10 + n, 10 + n))))
    assert geo.bbox_from_mapping(obj) == oracle_bbox_from_mapping(obj) == (0.0, 0.0, 10.0, 10.0)
    for family in _FAMILIES[:-1]:
        obj[family[0]] = "not a number"
        assert geo.bbox_from_mapping(obj) == oracle_bbox_from_mapping(obj)


def test_blank_text_ahead_of_a_valid_one():
    obj = {"text": "  ", "TEXT": 5, "content": "\n", "ocr_text": "found"}
    assert geo.text_from_mapping(obj) == oracle_text_from_mapping(obj) == "found"


def _nested(depth: int, leaf):
    node = leaf
    for i in range(depth):
        node = {"k": node} if i % 2 else [node]
    return node


def test_nesting_around_the_depth_cap():
    leaves = [{"text": "deep", "bbox": [0, 0, 5, 5]}, {"text": "leaf", "n": 1}]
    for depth in range(_MAX_DEPTH - 2, _MAX_DEPTH + 3):
        for leaf in leaves:
            data = _nested(depth, leaf)
            for page_count in (None, 2):
                ours = walk_payload(data, page_count)
                assert _same(ours, oracle_walk_payload(data, page_count))
                assert bool(ours[0] or ours[1]) == (depth <= _MAX_DEPTH)
