"""PDF-ish payload parser: JSON-serialized positioned text → boxes + blocks.

The transcript analog of the reference's dynamic-schema JSON extractor
(``OCRResultParser._parse_json_file``, app.py:1825-1909): a turn's ``text``
holds a JSON document of unknown shape carrying positioned text spans.
``decode_payload`` is the turn's one ``json.loads``; the flat parse and the
paged parse (``stages/paged.py``) both walk the decoded object with the one
visitor here, ``walk_payload``. The rules carried over verbatim:

- a mapping with probed text AND bbox is a positioned box (visit stops there);
- a mapping with text, no bbox, and scalar-heavy values is a free text leaf
  (``looks_like_text_leaf``, app.py:4169-4182);
- otherwise recurse into values / list items;
- given a page count, each mapping inherits or overrides its parent's page
  hint (``page_hint``); the flat parse passes none and ignores the hints,
  because a transcript turn is a single fragment — every nested list
  flattens into the one turn;
- box and block text is normalized on insertion (``add_token``/``add_text``,
  app.py:1838-1851).

Parse errors propagate to the caller; the extractor converts them to
``action="error"`` rows (per-item isolation, app.py:2845-2854).
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ..functions.geometry import Box, bbox_from_mapping, page_hint, scalar_heavy, text_from_mapping
from ..functions.textnorm import normalize_text

# Bounded recursion depth: the reference recurses unboundedly over engine
# output it trusts; transcript payloads are untrusted, so cap nesting to keep
# a pathological row from blowing the stack (analog of the reference's
# bounded page-check scope, app.py:98-100).
_MAX_DEPTH = 64


def decode_payload(text: str) -> Any:
    """The turn's JSON document. Raises ``ValueError`` on undecodable JSON."""
    try:
        return json.loads(text)
    except Exception as exc:
        raise ValueError(f"payload JSON decode failed: {exc}") from exc


def walk_payload(data: Any, page_count: Optional[int] = None) -> tuple[list, list]:
    """A decoded payload's ``([(hint, box)], [(hint, block)])`` in visit order.

    Hints are 0-based page indices when ``page_count`` is given, else None.
    """
    boxes: list[tuple[Optional[int], Box]] = []
    blocks: list[tuple[Optional[int], str]] = []

    def visit(node: Any, hint: Optional[int], depth: int) -> None:
        if depth > _MAX_DEPTH:
            return
        if isinstance(node, dict):
            if page_count is not None:
                hint = page_hint(node, hint, page_count)
            text_value = text_from_mapping(node)
            if text_value:
                # text and bbox are probed once: a box, else a free text
                # leaf when scalar-heavy (``looks_like_text_leaf``)
                bbox = bbox_from_mapping(node)
                if bbox is not None or scalar_heavy(node):
                    cleaned = normalize_text(text_value)
                    if cleaned and bbox is not None:
                        boxes.append((hint, Box(cleaned, *bbox)))
                    elif cleaned:
                        blocks.append((hint, cleaned))
                    return
            for value in node.values():
                visit(value, hint, depth + 1)
        elif isinstance(node, list):
            for item in node:
                visit(item, hint, depth + 1)
        # scalars carry no structure: ignored, as in the reference visit

    visit(data, None, 0)
    return boxes, blocks


def collect_payload(data: Any) -> tuple[list[Box], list[str]]:
    """A decoded payload's (positioned boxes, free text blocks), page hints ignored."""
    boxes, blocks = walk_payload(data)
    return [box for _, box in boxes], [block for _, block in blocks]


def parse_pdfish_payload(text: str) -> tuple[list[Box], list[str]]:
    """Parse one turn's JSON payload into (positioned boxes, free text blocks).

    Raises ``ValueError`` on undecodable JSON.
    """
    return collect_payload(decode_payload(text))
