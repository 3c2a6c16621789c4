"""XML positioned-token extractor: NDLOCR / ALTO / PAGE-XML payloads.

The transcript analog of the reference's XML parser
(``OCRResultParser._parse_xml_file``, app.py:1911-2007) flattened to one
fragment per turn:

- **NDLOCR-lite fast path** (app.py:1934-1961): ``<PAGE>`` elements whose
  ``<LINE X= Y= WIDTH= HEIGHT= STRING=>`` children carry positioned text.
  A LINE with text + bbox becomes a positioned box; with text only, a free
  block. The reference also appends a page-level combined block when a page
  gathered no free text, but its renderer consumes tokens FIRST and blocks
  only when no tokens exist (app.py:2096-2101) — so the combined block is
  render-dead whenever tokens were emitted and is deliberately not
  reproduced here.
- **one-granularity priority** (app.py:1963-2007): when no PAGE elements
  yield anything, read exactly ONE granularity — the finest present among
  ``String > Word > LINE > TextLine > TextRegion > TextBlock`` — because
  mixing a parent region with its child words duplicates every sentence.
  ``String`` elements carry ALTO ``CONTENT``; the rest probe ``STRING`` or
  nested ``Unicode``/``PlainText`` text. Coordinates come from attribute
  spellings (shared ``bbox_from_mapping``) or a PAGE-XML ``<Coords
  points="x,y x,y">`` child (app.py:2017-2022).
- **last resort** (app.py:2003-2006): the whole document's joined text as a
  single block.

Namespaces are stripped via local-name matching (``_local_xml_tag``,
app.py:4310-4315). Box/block text is normalized on insertion, exactly like
the pdfish path. Parse errors raise ``ValueError``; the extractor isolates
them per row (and falls back to the plain path, reference app.py:1663-1687).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional

from ..functions.geometry import (
    BBox,
    Box,
    bbox_from_mapping,
    bbox_from_points,
    parse_points_string,
)
from ..functions.textnorm import normalize_space, normalize_text

#: one-granularity priority, finest first (reference app.py:1969-1975)
GRANULARITY_PRIORITY: tuple[frozenset[str], ...] = (
    frozenset({"String"}),
    frozenset({"Word"}),
    frozenset({"LINE"}),
    frozenset({"TextLine"}),
    frozenset({"TextRegion"}),
    frozenset({"TextBlock"}),
)

_GENERIC_TAGS = {"Word", "TextLine", "TextRegion", "TextBlock", "LINE"}


def local_tag(tag: object) -> str:
    """Local element name with any ``{namespace}`` prefix stripped."""
    if not isinstance(tag, str):
        return ""
    return tag.rpartition("}")[2]


def element_text(elem: ET.Element) -> str:
    """Nested text of an element: ``Unicode``/``PlainText`` children win,
    else all descendant text, space-normalized (app.py:4319-4329)."""
    unicode_texts = []
    for child in elem.iter():
        if local_tag(child.tag) in {"Unicode", "PlainText"} and child.text and child.text.strip():
            unicode_texts.append(child.text.strip())
    if unicode_texts:
        return normalize_space(" ".join(unicode_texts))
    return normalize_space(" ".join(t for t in elem.itertext() if (t or "").strip()))


def element_coords(elem: ET.Element) -> Optional[BBox]:
    """PAGE-XML ``<Coords points=...>`` child, else attribute spellings."""
    for child in list(elem):
        if local_tag(child.tag) == "Coords":
            pts = parse_points_string(
                child.attrib.get("points") or child.attrib.get("POINTS") or ""
            )
            if pts:
                return bbox_from_points(pts)
    return bbox_from_mapping(elem.attrib)


def parse_xml_payload(text: str) -> tuple[list[Box], list[str]]:
    """Parse one turn's XML payload into (positioned boxes, free text blocks).

    Raises ``ValueError`` on undecodable XML.
    """
    try:
        root = ET.fromstring(text)
    except Exception as exc:
        raise ValueError(f"payload XML parse failed: {exc}") from exc

    boxes: list[Box] = []
    blocks: list[str] = []

    def add_token(raw: str, bbox: BBox) -> None:
        normalized = normalize_text(raw)
        if normalized:
            boxes.append(
                Box(text=normalized, x1=bbox[0], y1=bbox[1], x2=bbox[2], y2=bbox[3])
            )

    def add_text(raw: str) -> None:
        cleaned = normalize_text(raw)
        if cleaned:
            blocks.append(cleaned)

    # each element's local tag, computed once for the three walks below
    # (in document order, as ``root.iter()`` visits them)
    tags = {elem: local_tag(elem.tag) for elem in root.iter()}

    # NDLOCR-lite fast path: PAGE elements with LINE children
    pages = [elem for elem, tag in tags.items() if tag == "PAGE"]
    if pages:
        for page_elem in pages:
            for line_elem in page_elem.iter():
                if tags[line_elem] != "LINE":
                    continue
                attrib = line_elem.attrib or {}
                raw = attrib.get("STRING") or attrib.get("string") or element_text(line_elem)
                bbox = bbox_from_mapping(attrib)
                if raw and bbox is not None:
                    add_token(raw, bbox)
                elif raw:
                    add_text(raw)
        if boxes or blocks:
            return boxes, blocks

    # one-granularity generic path (ALTO / PAGE-XML)
    available = set(tags.values())
    selected: frozenset[str] = frozenset()
    for candidate in GRANULARITY_PRIORITY:
        if available & candidate:
            selected = candidate
            break

    for elem, tag in tags.items():
        if selected and tag not in selected:
            continue
        attrib = elem.attrib or {}
        if tag == "String":
            raw = attrib.get("CONTENT") or attrib.get("content") or attrib.get("TEXT")
            bbox = bbox_from_mapping(attrib)
            if raw and bbox is not None:
                add_token(raw, bbox)
                continue
            if raw:
                add_text(raw)
                continue
        if tag in _GENERIC_TAGS:
            raw = attrib.get("STRING") or attrib.get("string") or element_text(elem)
            coords = element_coords(elem)
            if raw and coords is not None:
                add_token(raw, coords)
                continue
            if raw:
                add_text(raw)

    if not boxes and not blocks:
        whole = normalize_space(" ".join(t for t in root.itertext() if (t or "").strip()))
        if whole:
            blocks.append(whole)
    return boxes, blocks
