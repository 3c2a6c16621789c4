"""Layout-analysis kernel: cluster positioned text boxes into lines/columns
and join them in reading order (reference L1-L7, app.py:4017-4120, 1705-1736).

Conformance-critical constants (do not tune without re-goldening):

- line clustering tolerance   ``max(4.0, 0.6 * min(avg_h, h))``  (app.py:4076)
- column clustering tolerance ``max(4.0, 0.9 * min(avg_w, w))``  (app.py:4040)
- greedy window: only the last 8 open clusters are candidates    (app.py:4036, 4072)
- vertical-page vote: tall-ratio ≥ 0.70, or ≥ 0.50 with cols ≤ lines (app.py:4050-4060)
- horizontal join: space iff gap/min(h_prev, h_cur) ≥ 0.45 (non-JP lines)
  or ≥ 0.90 between ASCII words on JP lines                      (app.py:4104-4112)
- exact dedup keys: (normalized text, int-rounded bbox), first wins after a
  deterministic (round(y1,1), round(x1,1), round(h,1), text) sort (app.py:1709-1725)

Lines and vertical columns are one greedy 1-D clusterer (``_greedy_bands``)
run over y-centers/heights or x-centers/widths. The greedy clustering is
order-dependent by design; the defining order is the pre-sort performed here,
including tie-breakers. ``join_segments`` is the engine's one
segments → (text, spans) joiner: layout lines, plain/HTML blocks and pdfish
pages all go through it. All functions are pure and run inside a single
``map_batches`` call per turn — layout analysis never shuffles.
"""

from __future__ import annotations

from operator import attrgetter

from .geometry import Box
from .textnorm import (
    contains_japanese,
    is_ascii_word_like,
    normalize_text,
    polish_line,
)

_GREEDY_WINDOW = 8
_LINE_TOL_RATIO = 0.6
_COL_TOL_RATIO = 0.9
_MIN_TOLERANCE = 4.0
_TALL_RATIO_STRONG = 0.70
_TALL_RATIO_WEAK = 0.50
_GAP_RATIO_SPACE = 0.45
_GAP_RATIO_SPACE_JP_ASCII = 0.90


def _greedy_bands(boxes: list[Box], order_key, position, size, ratio: float, emit_key) -> list[list[Box]]:
    """Greedy 1-D band clustering, shared by lines (y) and columns (x).

    Boxes are visited in ``order_key`` order; each joins the newest of the
    last 8 open bands whose mean ``position`` is within
    ``max(4.0, ratio * min(mean size, size))``, else opens a new band. Bands
    are emitted in opening order, members sorted by ``emit_key``.
    """
    # each band record bundles [boxes, Σposition, Σsize]: summing on append
    # adds terms in the same order as sum() over the list, so the means are
    # bit-identical to the recompute-per-probe form (pinned by the reference
    # fuzz tests and tests/test_kernel_digests.py) while each probe drops to O(1)
    bands: list[list] = []
    for box in sorted(boxes, key=order_key):
        pos = position(box)
        extent = size(box)
        for band in reversed(bands[-_GREEDY_WINDOW:]):  # newest open band first
            members, s_pos, s_size = band
            n = len(members)
            if abs(pos - s_pos / n) <= max(_MIN_TOLERANCE, min(s_size / n, extent) * ratio):
                members.append(box)
                band[1] = s_pos + pos
                band[2] = s_size + extent
                break
        else:
            bands.append([[box], pos, extent])
    return [sorted(members, key=emit_key) for members, _, _ in bands]


def group_into_lines(boxes: list[Box]) -> list[list[Box]]:
    """Greedy y-band clustering into horizontal lines.

    Boxes are pre-sorted by (center_y, x1, x2); tolerance ratio 0.6 of the
    heights. Lines are re-sorted left-to-right on emission.
    """
    return _greedy_bands(
        boxes, lambda b: (b.center_y, float(b.x1), float(b.x2)), attrgetter("center_y"),
        attrgetter("height"), _LINE_TOL_RATIO, lambda b: (float(b.x1), float(b.x2)),
    )


def group_into_vertical_columns(boxes: list[Box]) -> list[list[Box]]:
    """Greedy x-band clustering into vertical columns, right-to-left.

    Boxes are pre-sorted by (-center_x, y1, y2); tolerance ratio 0.9 of the
    widths. Columns are re-sorted top-to-bottom on emission.
    """
    return _greedy_bands(
        boxes, lambda b: (-b.center_x, float(b.y1), float(b.y2)), attrgetter("center_x"),
        attrgetter("width"), _COL_TOL_RATIO, lambda b: (float(b.y1), float(b.y2)),
    )


def is_vertical_layout(boxes: list[Box]) -> bool:
    """Orientation vote: needs ≥ 6 boxes; strong tall-ratio, or weak + col/line count."""
    if len(boxes) < 6:
        return False
    tall_ratio = sum(1 for b in boxes if b.height > b.width * 1.25) / max(1, len(boxes))
    if tall_ratio >= _TALL_RATIO_STRONG:
        return True
    if tall_ratio >= _TALL_RATIO_WEAK:
        h_lines = len(group_into_lines(boxes))
        v_cols = len(group_into_vertical_columns(boxes))
        if v_cols <= max(1, h_lines):
            return True
    return False


def join_line(boxes: list[Box]) -> str:
    """Reading-order join of one horizontal line with gap-aware spacing.

    A space is emitted between adjacent boxes iff the horizontal gap divided by
    the smaller box height crosses the 0.45 threshold (0.90 and ASCII-words-only
    on Japanese-bearing lines); the joined string is then line-polished.
    """
    return _line_text(boxes, [normalize_text(b.text) for b in boxes])


def _line_text(boxes: list[Box], texts: list[str]) -> str:
    """``join_line`` given each box's normalized text."""
    if not boxes:
        return ""
    pieces: list[str] = []
    prev: Box | None = None
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
                    and gap_ratio >= _GAP_RATIO_SPACE_JP_ASCII
                )
            else:
                need_space = gap_ratio >= _GAP_RATIO_SPACE
            if need_space:
                pieces.append(" ")
        pieces.append(cur)
        prev, prev_text = box, cur
    return polish_line("".join(pieces))


def _column_order(b: Box) -> tuple:
    return (b.center_y, -b.center_x, float(b.y1), float(b.x1))


def join_vertical_column(boxes: list[Box]) -> str:
    """Top-to-bottom join of one vertical column (no intra-column spacing)."""
    return polish_line("".join(normalize_text(b.text) for b in sorted(boxes, key=_column_order)))


def dedup_boxes(boxes: list[Box]) -> list[Box]:
    """Exact within-turn dedup of positioned boxes.

    Deterministic sort by (round(y1,1), round(x1,1), round(height,1), text),
    then first-wins on the key (normalized text, int-rounded bbox). Boxes whose
    text normalizes to empty are dropped. Surviving boxes carry normalized text.
    """
    deduped: list[Box] = []
    seen: set[tuple[str, int, int, int, int]] = set()
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


def dedup_blocks(blocks: list[str]) -> list[str]:
    """Order-preserving dedup of free text blocks on normalized text."""
    out: list[str] = []
    seen: set[str] = set()
    for block in blocks:
        cleaned = normalize_text(block)
        if not cleaned or cleaned in seen:
            continue
        seen.add(cleaned)
        out.append(cleaned)
    return out


def join_segments(segments: list[tuple[str, str]], sep: str = "\n") -> tuple[str, list[tuple[int, int, str]]]:
    """``(text, kind)`` segments → ``(sep-joined text, (start, end, kind) spans)``.

    Every segment gets a span, empty ones included.
    """
    spans: list[tuple[int, int, str]] = []
    pos = 0
    for text, kind in segments:
        spans.append((pos, pos + len(text), kind))
        pos += len(text) + len(sep)
    return sep.join(text for text, _ in segments), spans


def assemble_layout_text(boxes: list[Box], blocks: list[str]) -> tuple[str, list[tuple[int, int, str]]]:
    """Turn deduped boxes + text blocks into final extracted text with spans.

    The boxes carry normalized text, as ``dedup_boxes`` returns them.
    Orientation is voted per turn; lines (or vertical columns) become newline-
    joined segments, followed by any free text blocks. Returns
    ``(extracted_text, spans)`` where each span is a ``(start, end, kind)``
    character range into ``extracted_text`` and kind ∈ {"line", "column",
    "block"}.
    """
    segments: list[tuple[str, str]] = []
    if boxes:
        # box texts are normalized already (``dedup_boxes``): join them as is
        if is_vertical_layout(boxes):
            kind = "column"
            texts = [
                polish_line("".join(b.text for b in sorted(column, key=_column_order)))
                for column in group_into_vertical_columns(boxes)
            ]
        else:
            kind = "line"
            texts = [_line_text(line, [b.text for b in line]) for line in group_into_lines(boxes)]
        segments = [(text, kind) for text in texts if text]
    segments += [(block, "block") for block in blocks if block]
    return join_segments(segments)


def dedup_and_assemble(boxes: list[Box], blocks: list[str]) -> tuple[str, list[tuple[int, int, str]]]:
    """``assemble_layout_text`` over the deduped boxes and blocks of one turn."""
    return assemble_layout_text(dedup_boxes(boxes), dedup_blocks(blocks))
