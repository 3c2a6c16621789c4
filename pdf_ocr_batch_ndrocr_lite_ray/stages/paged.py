"""Page-aware payload parsing and multi-source merge (reference M11/M12).

The flagship extractor flattens a single-page payload into one fragment;
this module carries the reference's full MULTI-PAGE document model for
payloads that are themselves paged (NDLOCR-style
``{"contents": [[...page...], ...]}`` JSON), plus the merge rules that
combine several sources into one document. Every function past the
``*_turn``/``parse_*`` text entry points works on the object
``payload.decode_payload`` returned, so a turn is decoded once:

- ``route_pages`` mirrors ``OCRResultParser._parse_json_file``
  (app.py:1825-1909): the NDLOCR fast path assigns ``contents[i]`` to page
  ``i`` when the list length matches the page count, a single-element
  ``contents`` is attributed via the fuzzy name guess on
  ``imginfo.img_name``, and otherwise the shared walker
  (``payload.walk_payload``) reports the page hint each mapping inherits or
  overrides, unattributable content landing on the ``-1`` bucket.
- ``merge_assignments`` mirrors ``_merge_assignments`` (app.py:1742-1788):
  per-page tokens/texts extend the page state, gated by
  ``only_empty_pages`` (tokens skip pages that already have tokens; texts
  skip pages that have ANY text), and the ``-1`` bucket lands on the page
  guessed from the source name (single-page documents claim everything).
- ``paged_document`` chains them the way the reference's priority loop
  does (app.py:1663-1687): structured parse first, then the raw payload as
  a plain-text fallback source merged with ``only_empty_pages=True`` —
  lower-priority formats fill only what the structured parse left empty.

Both kernels are fuzz-tested against the reference implementation directly
(tests/test_paged.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..functions.geometry import Box, bbox_from_mapping, text_from_mapping
from ..functions.layout import assemble_layout_text, dedup_normalized_boxes
from ..functions.textnorm import guess_page_index, normalize_text
from .payload import decode_payload, walk_payload

PAGE_SEP = "\f"


@dataclass
class PageOcr:
    """Per-page extraction state — analog of the reference's PageOcrData
    (app.py:956-963)."""

    tokens: list[Box] = field(default_factory=list)
    text_blocks: list[str] = field(default_factory=list)

    def has_any_text(self) -> bool:
        if self.tokens:
            return True
        return any(bool((t or "").strip()) for t in self.text_blocks)


def _page_lists(data: Any) -> Optional[list]:
    """The NDLOCR ``contents`` list of a decoded payload when every item is a
    page (a list), else None."""
    contents = data.get("contents") if isinstance(data, dict) else None
    if isinstance(contents, list) and contents and all(isinstance(p, list) for p in contents):
        return contents
    return None


def page_count_of(data: Any) -> int:
    """Payload-intrinsic page count of a decoded payload: the NDLOCR
    ``contents`` list length when it is page-structured, else 1 (a turn is
    one fragment)."""
    pages = _page_lists(data)
    return len(pages) if pages else 1


def _imginfo_page(data: dict, page_names: list[str]) -> Optional[int]:
    """Page fuzzy-guessed from ``imginfo.img_name`` (or ``img_path``/``img``)."""
    imginfo = data.get("imginfo")
    if isinstance(imginfo, dict):
        img_name = imginfo.get("img_name") or imginfo.get("img_path") or imginfo.get("img")
        if isinstance(img_name, str) and img_name.strip():
            return guess_page_index(_stem(img_name), page_names)
    return None


def _contents_entries(hinted: list[tuple[int, Any]]) -> tuple[list, list]:
    """NDLOCR line entries → ``([(hint, box)], [(hint, block)])``: a mapping
    with text is a box when it has a bbox, else a block (no leaf test)."""
    boxes: list[tuple[int, Box]] = []
    blocks: list[tuple[int, str]] = []
    for hint, entry in hinted:
        value = text_from_mapping(entry) if isinstance(entry, dict) else None
        cleaned = normalize_text(value) if value else ""
        if not cleaned:
            continue
        bbox = bbox_from_mapping(entry)
        if bbox is not None:
            boxes.append((hint, Box(text=cleaned, x1=bbox[0], y1=bbox[1], x2=bbox[2], y2=bbox[3])))
        else:
            blocks.append((hint, cleaned))
    return boxes, blocks


def route_pages(
    data: Any, page_count: int, page_names: list[str]
) -> tuple[dict[int, list[Box]], dict[int, list[str]]]:
    """Decoded payload → (page → boxes, page → text blocks); -1 = unattributed."""
    pages = _page_lists(data)
    img_page = _imginfo_page(data, page_names) if pages is not None and len(pages) == 1 else None
    if pages is not None and len(pages) == page_count:  # NDLOCR: contents[i] is page i
        boxes, blocks = _contents_entries([(i, e) for i, lines in enumerate(pages) for e in lines])
    elif img_page is not None:  # one contents page, attributed by its image name
        boxes, blocks = _contents_entries([(img_page, e) for e in pages[0]])
    else:
        boxes, blocks = walk_payload(data, page_count)
    valid_pages = set(range(page_count))
    token_map: dict[int, list[Box]] = {}
    text_map: dict[int, list[str]] = {}
    for hint, box in boxes:
        token_map.setdefault(hint if hint in valid_pages else -1, []).append(box)
    for hint, block in blocks:
        text_map.setdefault(hint if hint in valid_pages else -1, []).append(block)
    return token_map, text_map


def parse_pdfish_pages(
    text: str, page_count: int, page_names: list[str]
) -> tuple[dict[int, list[Box]], dict[int, list[str]]]:
    """JSON payload → (page → boxes, page → text blocks); -1 = unattributed.

    Raises ``ValueError`` on undecodable JSON (the caller isolates).
    """
    return route_pages(decode_payload(text), page_count, page_names)


def _stem(name: str) -> str:
    base = name.replace("\\", "/").rsplit("/", 1)[-1]
    dot = base.rfind(".")
    return base[:dot] if dot > 0 else base


def merge_assignments(
    result: dict[int, PageOcr],
    assignments: dict[int, list[Box]],
    texts: dict[int, list[str]],
    src_name: str,
    page_names: list[str],
    *,
    only_empty_pages: bool = False,
) -> int:
    """Merge one source's page assignments into the document state.

    Faithful port of app.py:1742-1788 (same gating, same hit counting):
    tokens skip an already-tokened page under ``only_empty_pages``; text
    blocks skip a page with ANY text; the ``-1`` bucket goes to the page
    fuzzy-guessed from ``src_name`` (a single-page document claims it).
    """
    hit = 0
    target_page = guess_page_index(_stem(src_name), page_names)
    if target_page is None and len(page_names) == 1:
        target_page = 0
    generic_tokens = assignments.pop(-1, [])
    generic_texts = texts.pop(-1, [])

    for page_index, tokens in assignments.items():
        if page_index in result and tokens:
            if only_empty_pages and result[page_index].tokens:
                continue
            result[page_index].tokens.extend(tokens)
            hit += 1
    for page_index, blocks in texts.items():
        if page_index in result:
            if only_empty_pages and result[page_index].has_any_text():
                continue
            cleaned = [b for b in blocks if (b or "").strip()]
            if cleaned:
                result[page_index].text_blocks.extend(cleaned)
                hit += 1

    if generic_tokens and target_page is not None:
        if not (only_empty_pages and result[target_page].tokens):
            result[target_page].tokens.extend(generic_tokens)
            hit += 1
    if generic_texts and target_page is not None:
        if not (only_empty_pages and result[target_page].has_any_text()):
            result[target_page].text_blocks.extend([b for b in generic_texts if (b or "").strip()])
            hit += 1
    return hit


def page_texts(result: dict[int, PageOcr]) -> list[str]:
    """Per-page layout assembly, pages in index order.

    Page tokens carry normalized text, as the paged parse builds them.
    """
    texts: list[str] = []
    for idx in sorted(result):
        blocks = [b for b in result[idx].text_blocks if (b or "").strip()]
        texts.append(assemble_layout_text(dedup_normalized_boxes(result[idx].tokens), blocks)[0])
    return texts


def assemble_pages(result: dict[int, PageOcr]) -> str:
    """Document text: the page texts joined by form feed — the engine's page
    separator convention (the plain path splits on the same character)."""
    return PAGE_SEP.join(page_texts(result))


def infer_page_count(text: str) -> int:
    """``page_count_of`` the decoded payload; 1 when it does not decode."""
    try:
        return page_count_of(decode_payload(text))
    except ValueError:
        return 1


def paged_document(data: Any, raw: str, src_name: str = "") -> tuple[dict[int, PageOcr], int]:
    """(page index → merged page state, merge_hits) for one decoded pdfish turn.

    The reference's priority chain in per-turn form: the structured parse
    of ``data`` merges first; the raw payload then merges as a generic
    plain-text source with ``only_empty_pages=True``, filling only pages
    the structured parse left empty.
    """
    n_pages = page_count_of(data)
    page_names = [f"p{i + 1:04d}" for i in range(n_pages)]
    result = {i: PageOcr() for i in range(n_pages)}
    token_map, text_map = route_pages(data, n_pages, page_names)
    hits = merge_assignments(
        result, token_map, text_map, src_name, page_names, only_empty_pages=False
    )
    if not any(p.has_any_text() for p in result.values()):
        # structured parse yielded nothing anywhere: the raw payload is the
        # turn's lowest-priority plain representation (flagship M7 rule),
        # merged through the only-empty gate like the reference's txt pass
        fallback = normalize_text(raw)
        if fallback:
            hits += merge_assignments(
                result, {}, {-1: [fallback]}, src_name, page_names, only_empty_pages=True
            )
    return result, hits


def extract_paged_turn(text: str | None, src_name: str = "") -> tuple[str, int, int]:
    """(document_text, n_pages, merge_hits) for one pdfish turn: one decode,
    then ``paged_document``."""
    raw = text or ""
    try:
        data = decode_payload(raw)
    except ValueError:
        # undecodable JSON carries no structure, exactly like a decoded
        # ``null``: one page, and the raw fallback is the only source
        data = None
    result, hits = paged_document(data, raw, src_name)
    return assemble_pages(result), len(result), hits
