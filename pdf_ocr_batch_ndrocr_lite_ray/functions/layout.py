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
  deterministic (round(y1,1), round(x1,1), round(y2 - y1,1), text) sort (app.py:1709-1725)

Lines and vertical columns are one greedy 1-D clusterer (``_greedy_bands``)
run over y-centers/heights or x-centers/widths. The greedy clustering is
order-dependent by design; the defining order is the pre-sort performed here,
including tie-breakers. ``join_segments`` is the engine's one
segments → (text, spans) joiner: layout lines, plain/HTML blocks and pdfish
pages all go through it. All functions are pure and run inside a single
``map_batches`` call per turn — layout analysis never shuffles.
"""

from __future__ import annotations

from operator import itemgetter

from .geometry import CENTER_X, CENTER_Y, FX1, FX2, FY1, FY2, HEIGHT, NEG_CENTER_X, WIDTH, Box
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

# sort keys over the floats each ``Box`` stores: lines visit by
# (center_y, x1, x2) and emit by (x1, x2); columns visit by
# (-center_x, y1, y2) and emit by (y1, y2)
_LINE_VISIT = itemgetter(CENTER_Y, FX1, FX2)
_LINE_EMIT = itemgetter(FX1, FX2)
_COLUMN_VISIT = itemgetter(NEG_CENTER_X, FY1, FY2)
_COLUMN_EMIT = itemgetter(FY1, FY2)
# (center_y, -center_x, y1, x1): reading order inside a vertical column
_COLUMN_READ = itemgetter(CENTER_Y, NEG_CENTER_X, FY1, FX1)


def _greedy_bands(boxes: list[Box], order_key, position: int, size: int, ratio: float, emit_key) -> list[list[Box]]:
    """Greedy 1-D band clustering, shared by lines (y) and columns (x).

    Boxes are visited in ``order_key`` order; each joins the newest of the
    last 8 open bands whose mean ``box[position]`` is within
    ``max(4.0, ratio * min(mean size, box[size]))``, else opens a new band.
    Bands are emitted in opening order, members sorted by ``emit_key``.
    """
    # each band record bundles [boxes, Σposition, Σsize, mean position, mean
    # size]: summing on append adds terms in the same order as sum() over the
    # list, so the means are bit-identical to the recompute-per-probe form
    # (pinned by the reference fuzz tests and tests/test_kernel_digests.py)
    # while each probe drops to O(1). ``min``/``max`` are spelled as
    # conditionals that pick the same operand, NaN included.
    bands: list[list] = []
    for box in sorted(boxes, key=order_key):
        pos = box[position]
        extent = box[size]
        for band in bands[: -_GREEDY_WINDOW - 1 : -1]:  # the last 8, newest first
            mean_size = band[4]
            tol = (extent if extent < mean_size else mean_size) * ratio
            if abs(pos - band[3]) <= (tol if tol > _MIN_TOLERANCE else _MIN_TOLERANCE):
                members = band[0]
                members.append(box)
                n = len(members)
                band[1] += pos
                band[2] += extent
                band[3] = band[1] / n
                band[4] = band[2] / n
                break
        else:
            bands.append([[box], pos, extent, pos, extent])
    return [sorted(band[0], key=emit_key) for band in bands]


def group_into_lines(boxes: list[Box]) -> list[list[Box]]:
    """Greedy y-band clustering into horizontal lines.

    Boxes are pre-sorted by (center_y, x1, x2); tolerance ratio 0.6 of the
    heights. Lines are re-sorted left-to-right on emission.
    """
    return _greedy_bands(boxes, _LINE_VISIT, CENTER_Y, HEIGHT, _LINE_TOL_RATIO, _LINE_EMIT)


def group_into_vertical_columns(boxes: list[Box]) -> list[list[Box]]:
    """Greedy x-band clustering into vertical columns, right-to-left.

    Boxes are pre-sorted by (-center_x, y1, y2); tolerance ratio 0.9 of the
    widths. Columns are re-sorted top-to-bottom on emission.
    """
    return _greedy_bands(boxes, _COLUMN_VISIT, CENTER_X, WIDTH, _COL_TOL_RATIO, _COLUMN_EMIT)


def _orientation(boxes: list[Box]) -> tuple[bool, list | None, list | None]:
    """The orientation vote, with the lines and columns it clustered (None
    when it did not need them): ``(vertical, lines, columns)``."""
    if len(boxes) < 6:
        return False, None, None
    tall_ratio = sum(1 for b in boxes if b[HEIGHT] > b[WIDTH] * 1.25) / len(boxes)
    if tall_ratio >= _TALL_RATIO_STRONG:
        return True, None, None
    if tall_ratio >= _TALL_RATIO_WEAK:
        lines = group_into_lines(boxes)
        columns = group_into_vertical_columns(boxes)
        return len(columns) <= max(1, len(lines)), lines, columns
    return False, None, None


def is_vertical_layout(boxes: list[Box]) -> bool:
    """Orientation vote: needs ≥ 6 boxes; strong tall-ratio, or weak + col/line count."""
    return _orientation(boxes)[0]


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
    # one probe over the joined texts: the class matches single characters
    line_has_japanese = contains_japanese("".join(texts))
    for box, cur in zip(boxes, texts):
        if not cur:
            continue
        if prev is not None:
            # ``max(0.0, gap) / max(1.0, min(h_prev, h_cur))`` as conditionals
            # (a NaN gap becomes 0.0; heights are at least 1.0 already)
            gap = box[FX1] - prev[FX2]
            h_prev, h_cur = prev[HEIGHT], box[HEIGHT]
            gap_ratio = (gap if gap > 0.0 else 0.0) / (h_cur if h_cur < h_prev else h_prev)
            if line_has_japanese:
                # the gap first: most gaps are narrow, and the word probes are pure
                need_space = (
                    gap_ratio >= _GAP_RATIO_SPACE_JP_ASCII
                    and is_ascii_word_like(prev_text)
                    and is_ascii_word_like(cur)
                )
            else:
                need_space = gap_ratio >= _GAP_RATIO_SPACE
            if need_space:
                pieces.append(" ")
        pieces.append(cur)
        prev, prev_text = box, cur
    return polish_line("".join(pieces))


def join_vertical_column(boxes: list[Box]) -> str:
    """Top-to-bottom join of one vertical column (no intra-column spacing)."""
    return polish_line("".join(normalize_text(b.text) for b in sorted(boxes, key=_COLUMN_READ)))


def dedup_boxes(boxes: list[Box]) -> list[Box]:
    """Exact within-turn dedup of positioned boxes.

    Deterministic sort by (round(y1,1), round(x1,1), round(y2 - y1,1), text)
    on the coordinates as given (``y2 - y1``, not the ``height`` clamped at
    1.0), then first-wins on the key (normalized text, int-rounded bbox).
    Boxes whose text normalizes to empty are dropped. Surviving boxes carry
    normalized text.
    """
    return _dedup_boxes(boxes, [normalize_text(b.text) for b in boxes])


def _dedup_boxes(boxes: list[Box], texts: list[str]) -> list[Box]:
    """``dedup_boxes`` given each box's normalized text."""
    fields = [b[:5] for b in boxes]  # (text, x1, y1, x2, y2) as given
    keys = [(round(y1, 1), round(x1, 1), round(y2 - y1, 1), text) for text, x1, y1, x2, y2 in fields]
    deduped: list[Box] = []
    seen: set[tuple[str, int, int, int, int]] = set()
    for i in sorted(range(len(boxes)), key=keys.__getitem__):
        text = texts[i]
        if not text:
            continue
        raw, x1, y1, x2, y2 = fields[i]
        key = (text, round(x1), round(y1), round(x2), round(y2))
        if key in seen:
            continue
        seen.add(key)
        deduped.append(boxes[i] if text == raw else Box(text, x1, y1, x2, y2))
    return deduped


def dedup_normalized_boxes(boxes: list[Box]) -> list[Box]:
    """``dedup_boxes`` over boxes that carry normalized text, as every
    producer (``walk_payload``, ``parse_xml_payload``, the paged parse)
    builds them: the dedup keys on each box's text as is."""
    return _dedup_boxes(boxes, [b.text for b in boxes])


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
        vertical, lines, columns = _orientation(boxes)
        if vertical:
            if columns is None:
                columns = group_into_vertical_columns(boxes)
            kind = "column"
            texts = [
                polish_line("".join(b.text for b in sorted(column, key=_COLUMN_READ)))
                for column in columns
            ]
        else:
            kind = "line"
            if lines is None:
                lines = group_into_lines(boxes)
            texts = [_line_text(line, [b.text for b in line]) for line in lines]
        segments = [(text, kind) for text in texts if text]
    segments += [(block, "block") for block in blocks if block]
    return join_segments(segments)


def dedup_and_assemble(boxes: list[Box], blocks: list[str]) -> tuple[str, list[tuple[int, int, str]]]:
    """``assemble_layout_text`` over the deduped boxes and blocks of one turn.

    The boxes carry normalized text (see ``dedup_normalized_boxes``).
    """
    return assemble_layout_text(dedup_normalized_boxes(boxes), dedup_blocks(blocks))
