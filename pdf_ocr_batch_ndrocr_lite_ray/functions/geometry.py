"""Geometry + dynamic-schema coercion kernel (reference M12-M16 helpers).

A positioned text span is the engine's atomic unit for PDF-ish payloads — the
analog of the reference's ``OCRToken`` dataclass (app.py:946-953). Payload
producers spell bounding boxes and text keys in many different ways; this
module centralises the schema-inference rules:

- ``bbox_from_mapping``   ⇔ ``_extract_bbox_from_mapping``  (app.py:4202-4250)
- ``coerce_bbox_value``   ⇔ ``_coerce_bbox_value``          (app.py:4254-4282)
- ``bbox_from_points``    ⇔ ``_bbox_from_points``           (app.py:4286-4292)
- ``parse_points_string`` ⇔ ``_parse_points_string``        (app.py:4296-4306)
- ``text_from_mapping``   ⇔ ``_extract_text_from_mapping``  (app.py:4145-4165)
- ``page_hint``           ⇔ ``_extract_page_hint``          (app.py:4186-4198)
- ``looks_like_text_leaf``⇔ ``_looks_like_text_leaf``       (app.py:4169-4182)

The key-probing orders are part of the conformance contract and must not be
reordered.
"""

from __future__ import annotations

from collections.abc import Mapping  # typing.Mapping isinstance is ~4x slower
from operator import itemgetter
from typing import Any, Iterable, Optional

BBox = tuple[float, float, float, float]

# A ``Box`` is a tuple: its five fields as given, then the values the layout
# layer reads per box per probe, computed once at construction. These are
# the positions of the derived values, for C-level sort keys (``itemgetter``);
# ``layout.py`` is the one module that indexes a ``Box``.
FX1, FY1, FX2, FY2, HEIGHT, WIDTH, CENTER_Y, CENTER_X, NEG_CENTER_X = range(5, 14)


class Box(tuple):
    """A positioned text span: the atomic unit of layout analysis.

    Built as ``Box(text, x1, y1, x2, y2)`` (positional or keyword), it
    behaves like the frozen dataclass it replaces: the same ``repr`` with the
    coordinates as given (ints stay ints), ``==`` and ``hash`` over the five
    fields, no ordering, and it pickles. Assignment raises ``AttributeError``
    (the dataclass raised its subclass ``FrozenInstanceError``). The float
    corners, ``height`` / ``width`` (each at least 1.0) and the centres are
    computed once, here: a coordinate that ``float()`` rejects (a
    non-numeric string, an int beyond the float range) raises at
    construction rather than at the first read of an extent.

    Being a tuple, it also has ``len`` 14, indexing and iteration; use the
    named fields. A tuple is built in about 0.55 µs, a frozen dataclass that
    stores the same values in about 1.0 µs and a ``__slots__`` class in
    about 2 µs; the dataclass made the pdfish kernel about 4% slower.
    """

    __slots__ = ()

    def __new__(cls, text: str, x1: float, y1: float, x2: float, y2: float) -> "Box":
        fx1, fy1, fx2, fy2 = float(x1), float(y1), float(x2), float(y2)
        # ``max(1.0, h)`` as a conditional (a NaN extent becomes 1.0)
        h = fy2 - fy1
        w = fx2 - fx1
        cx = (fx1 + fx2) / 2.0
        return tuple.__new__(cls, (
            text, x1, y1, x2, y2, fx1, fy1, fx2, fy2,
            h if h > 1.0 else 1.0, w if w > 1.0 else 1.0, (fy1 + fy2) / 2.0, cx, -cx,
        ))

    text = property(itemgetter(0))
    x1 = property(itemgetter(1))
    y1 = property(itemgetter(2))
    x2 = property(itemgetter(3))
    y2 = property(itemgetter(4))
    height = property(itemgetter(HEIGHT))
    width = property(itemgetter(WIDTH))
    center_y = property(itemgetter(CENTER_Y))
    center_x = property(itemgetter(CENTER_X))

    def __repr__(self) -> str:
        text, x1, y1, x2, y2 = self[:5]
        return f"{type(self).__qualname__}(text={text!r}, x1={x1!r}, y1={y1!r}, x2={x2!r}, y2={y2!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self[:5] == other[:5]
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash(self[:5])

    def __lt__(self, other: object) -> bool:  # unordered, like the dataclass
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __reduce__(self) -> tuple:
        return type(self), self[:5]


# Probing order is part of the contract: named bbox keys first, then the
# five coordinate-spelling families.
_BBOX_KEYS = ("bbox", "box", "rect", "boundingBox", "bounding_box")
_XYWH_FAMILIES = (
    ("x", "y", "w", "h"),
    ("X", "Y", "WIDTH", "HEIGHT"),
    ("left", "top", "width", "height"),
)
_CORNER_FAMILIES = (("xmin", "ymin", "xmax", "ymax"), ("x1", "y1", "x2", "y2"))
# (keys, key set, whether the keys spell corners rather than x, y, w, h)
_FAMILIES = tuple(
    (keys, frozenset(keys), keys in _CORNER_FAMILIES) for keys in _XYWH_FAMILIES + _CORNER_FAMILIES
)
_BBOX_KEY_SET = frozenset(_BBOX_KEYS)
# a mapping with none of these keys has no box under any spelling
_ANY_BBOX_KEY = _BBOX_KEY_SET.union(*_XYWH_FAMILIES, *_CORNER_FAMILIES)

_TEXT_KEYS = (
    "text", "TEXT", "content", "CONTENT", "label", "string", "STRING",
    "unicode", "Unicode", "transcription", "recognized_text", "ocr_text",
    "PlainText",
)
_TEXT_KEY_SET = frozenset(_TEXT_KEYS)

_PAGE_KEYS = ("page", "page_no", "page_num", "page_index", "page_id", "pageNumber", "pageIndex")
_PAGE_KEY_SET = frozenset(_PAGE_KEYS)

_COORD_TYPES = (int, float, str)
_SCALAR_TYPES = (str, int, float, bool)


def _is_mapping(obj: Any) -> bool:
    # exact dicts and lists (all of decoded JSON) skip the slower Mapping
    # ABC check
    t = type(obj)
    return t is dict or (t is not list and isinstance(obj, Mapping))


def bbox_from_mapping(obj: Any) -> Optional[BBox]:
    """Infer an (x1, y1, x2, y2) box from any of the known key spellings."""
    if not _is_mapping(obj):
        return None
    keys = obj.keys()
    if keys.isdisjoint(_ANY_BBOX_KEY):
        return None
    if not keys.isdisjoint(_BBOX_KEY_SET):
        for key in _BBOX_KEYS:
            if key in obj:
                bbox = coerce_bbox_value(obj[key])
                if bbox is not None:
                    return bbox
    for (ka, kb, kc, kd), family_set, corners in _FAMILIES:
        if keys >= family_set:
            try:
                a, b = float(obj[ka]), float(obj[kb])
                c, d = float(obj[kc]), float(obj[kd])
            except Exception:
                continue
            return (a, b, c, d) if corners else (a, b, a + c, b + d)
    return None


def coerce_bbox_value(value: Any) -> Optional[BBox]:
    """Coerce a nested bbox value: mapping, 4-list, or point list."""
    if _is_mapping(value):
        return bbox_from_mapping(value)
    if isinstance(value, (list, tuple)):
        if len(value) == 4:
            a, b, c, d = value
            if (
                isinstance(a, _COORD_TYPES) and isinstance(b, _COORD_TYPES)
                and isinstance(c, _COORD_TYPES) and isinstance(d, _COORD_TYPES)
            ):
                try:
                    a, b, c, d = float(a), float(b), float(c), float(d)
                except Exception:
                    return None
                if c > a and d > b:
                    return (a, b, c, d)
        points: list[tuple[float, float]] = []
        for item in value:
            if _is_mapping(item):
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
            return bbox_from_points(points)
    return None


def bbox_from_points(points: Iterable[tuple[float, float]]) -> Optional[BBox]:
    pts = list(points)
    if not pts:
        return None
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return (min(xs), min(ys), max(xs), max(ys))


def parse_points_string(value: Optional[str]) -> list[tuple[float, float]]:
    """Parse an ``"x,y x,y ..."`` points string (PAGE-XML style)."""
    pts: list[tuple[float, float]] = []
    for part in (value or "").split():
        if "," not in part:
            continue
        xs, ys = part.split(",", 1)
        try:
            pts.append((float(xs), float(ys)))
        except ValueError:
            continue
    return pts


def text_from_mapping(obj: Any) -> Optional[str]:
    """Probe the 13 known text-key spellings, first non-blank string wins."""
    if not _is_mapping(obj) or obj.keys().isdisjoint(_TEXT_KEY_SET):
        return None
    for key in _TEXT_KEYS:
        if key in obj:
            value = obj[key]
            if isinstance(value, str) and value.strip():
                return value
    return None


def page_hint(obj: Any, inherited: Optional[int], page_count: int) -> Optional[int]:
    """Infer a 0-based page/fragment index, disambiguating 0- vs 1-based."""
    if _is_mapping(obj) and not obj.keys().isdisjoint(_PAGE_KEY_SET):
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


def scalar_heavy(obj: Mapping) -> bool:
    """At least as many scalar values (str, number, bool, None) as others."""
    scalar_like = complex_like = 0
    for v in obj.values():
        if v is None or isinstance(v, _SCALAR_TYPES):
            scalar_like += 1
        else:
            complex_like += 1
    return scalar_like >= complex_like


def looks_like_text_leaf(obj: Any) -> bool:
    """A mapping is a text leaf iff it has text, no bbox, and is scalar-heavy."""
    if not _is_mapping(obj):
        return False
    if bbox_from_mapping(obj) is not None:
        return False
    if not text_from_mapping(obj):
        return False
    return scalar_heavy(obj)
