"""The central per-turn extractor: route by content kind, extract, isolate errors.

This is the engine's analog of the reference's per-file pipeline
(``BatchProcessor.process_one`` → parse → postprocess, app.py:2790-2859 +
1651-1736), collapsed to a per-turn routine:

- routing mirrors the parse **priority order** (structured first, plain-text
  fallback last; "fill only empty pages", app.py:1663-1687) — here each turn
  has exactly one payload, so routing is by the sniffer's ``content_kind``;
- a pdfish turn is JSON-decoded once; the decoded object goes to the flat
  walk or the paged merge. pdfish and xml share ``layout.dedup_and_assemble``
  and every extractor builds text + spans with ``layout.join_segments``;
- every extracted string passes the normalization kernel exactly as the
  reference normalizes on insertion + postprocess (app.py:1709-1735);
- **per-item error isolation**: a failing turn becomes an
  ``action="error"`` row and never aborts the batch (app.py:2845-2854);
- **idempotent re-run skip**: a plain turn whose payload is already fully
  normalized is marked ``action="skipped_clean"`` — the transcript analog of
  the reference's skip-by-existing-text-layer rule (app.py:1155-1278,
  1306-1323).

``extract_turn`` is pure and shared verbatim by the single-process oracle;
``extract_batch`` is the ``map_batches`` task callable (regex tables and
parser state are built once per worker process at import — the
reference's load-once pattern, app.py:2054-2095).
"""

from __future__ import annotations

import functools
import re

import pyarrow as pa

from ..functions.layout import dedup_and_assemble, dedup_blocks, join_segments
from ..functions.textnorm import RowBudgetExceeded, set_row_deadline
from .domstrip import extract_html_main_content
from .paged import PAGE_SEP, page_count_of, page_texts, paged_document
from .payload import collect_payload, decode_payload
from .sniffer import (
    KIND_EMPTY,
    KIND_HTML,
    KIND_PDFISH,
    KIND_PLAIN,
    KIND_XML,
    classify_text_array,
)
from .xmltokens import parse_xml_payload

ACTION_EXTRACTED = "extracted"
ACTION_FALLBACK = "extracted_fallback"
ACTION_SKIPPED_CLEAN = "skipped_clean"
ACTION_EMPTY = "empty"
ACTION_ERROR = "error"

SPANS_TYPE = pa.list_(
    pa.struct([("start", pa.int64()), ("end", pa.int64()), ("kind", pa.string())])
)

_FORM_FEED_RE = re.compile(r"\f+")

Span = tuple[int, int, str]


def extract_plain(text: str) -> tuple[str, list[Span]]:
    """Plain path: CRLF-normalize, split on form feeds, normalize, dedup.

    Mirrors ``_merge_text_file`` segmenting (app.py:1798-1810) followed by the
    postprocess block dedup (app.py:1726-1735).
    """
    cleaned = (text or "").replace("\r\n", "\n").strip()
    if not cleaned:
        return "", []
    segments = [s.strip() for s in _FORM_FEED_RE.split(cleaned) if s.strip()]
    return join_segments([(s, "block") for s in dedup_blocks(segments)])


def extract_html(text: str) -> tuple[str, list[Span]]:
    """HTML path: DOM strip at one granularity, then order-preserving dedup."""
    paragraphs, used_fallback = extract_html_main_content(text)
    kind = "block" if used_fallback else "paragraph"
    return join_segments([(p, kind) for p in dedup_blocks(paragraphs)])


def extract_pdfish(text: str) -> tuple[str, list[Span]]:
    """PDF-ish path: decode once, parse positioned boxes, dedup, cluster, reading-order join.

    A PAGE-SHAPED payload (multi-page NDLOCR ``{"contents": [[...], ...]}``)
    routes through the full paged document model (``paged_document``) so the
    flagship applies M7/M11 semantics — per-page token assignment,
    fill-only-empty merge — instead of flattening pages together. Page
    boundaries surface as ``kind="page"`` spans over the form-feed-joined
    document (the same separator the plain path splits on).
    """
    data = decode_payload(text)
    if page_count_of(data) > 1:
        result, _hits = paged_document(data, text)
        doc, spans = join_segments([(page, "page") for page in page_texts(result)], PAGE_SEP)
        return (doc, spans) if doc.strip() else ("", [])
    return dedup_and_assemble(*collect_payload(data))


def extract_xml(text: str) -> tuple[str, list[Span]]:
    """XML path: NDLOCR/ALTO/PAGE-XML positioned tokens through the same
    dedup + layout kernel as the pdfish path (reference app.py:1911-2007)."""
    return dedup_and_assemble(*parse_xml_payload(text))


#: user-extension surface (reference U1/U3: injected pipeline callables,
#: app.py:1540-1565, 2640-2664): map a content kind to its extractor.
#: Register additions at MODULE IMPORT time (e.g. from a plugin module the
#: workers also import) — worker processes build their routing table from
#: this module, not from driver-side mutations made after tasks ship.
EXTRACTOR_REGISTRY: dict = {}


def register_extractor(kind: str, fn) -> None:
    """Register/override the extractor for a content kind.

    ``fn(raw_text) -> (extracted_text, spans)``.
    """
    EXTRACTOR_REGISTRY[kind] = fn


#: structured kinds whose payload falls back to the PLAIN interpretation
#: when structured parsing fails or yields nothing — the per-turn analog of
#: the reference's priority chain that parses structured formats first and
#: fills still-empty pages from lower-priority formats ("fill only empty
#: pages", app.py:1663-1687): in a transcript a turn's raw bytes ARE its
#: lowest-priority text representation.
FALLBACK_KINDS: set = {KIND_PDFISH, KIND_HTML, KIND_XML}

#: per-row straggler guards (SURVEY §4; the reference bounds per-item work
#: with a 3600 s subprocess timeout, app.py:88, 1601-1607). Two layers:
#: a DETERMINISTIC payload-size cap (same verdict on every machine), and a
#: wall-clock deadline armed around each row and checked once per
#: normalization-kernel call — generous enough that only adversarial rows
#: (quadratic regex bait, multi-GB strings) ever hit it; corpus rows run in
#: µs–ms.
MAX_TURN_CHARS = 16_000_000
TURN_BUDGET_SECONDS: float | None = 30.0

ERROR_BUDGET = "budget_exceeded"


def extract_turn(text: str | None, kind: str) -> tuple[str, list[Span], str, str]:
    """Extract one turn. Returns (extracted_text, spans, action, error).

    Never raises: failures become ``action="error"`` rows. A structured
    kind whose parse fails (truncated JSON, malformed XML) or produces no
    text re-routes through the plain extractor and is tagged
    ``action="extracted_fallback"`` — real payloads are messy, and the
    reference's robustness rule is "lower-priority formats fill what the
    structured parse left empty", not "give up".

    A row larger than ``MAX_TURN_CHARS`` or overrunning
    ``TURN_BUDGET_SECONDS`` becomes ``action="error",
    error="budget_exceeded"`` — one pathological row can never wedge a
    worker; the rest of the batch is unaffected.
    """
    try:
        if kind == KIND_EMPTY:
            return "", [], ACTION_EMPTY, ""
        raw = text or ""
        if len(raw) > MAX_TURN_CHARS:
            return "", [], ACTION_ERROR, (
                f"{ERROR_BUDGET}: payload {len(raw)} chars > {MAX_TURN_CHARS}"
            )
        set_row_deadline(TURN_BUDGET_SECONDS)
        extractor = EXTRACTOR_REGISTRY.get(kind)
        if extractor is None:
            return "", [], ACTION_ERROR, f"unknown content kind: {kind!r}"
        try:
            extracted, spans = extractor(raw)
        except RowBudgetExceeded:
            raise  # over-budget is terminal, never a fallback candidate
        except Exception:
            if kind not in FALLBACK_KINDS:
                raise
            extracted = ""  # a failed structured parse yields nothing
        if not extracted:
            if kind in FALLBACK_KINDS:
                extracted, spans = extract_plain(raw)
                if extracted:
                    return extracted, spans, ACTION_FALLBACK, ""
            return "", [], ACTION_EMPTY, ""
        if kind == KIND_PLAIN and extracted == raw:
            return extracted, spans, ACTION_SKIPPED_CLEAN, ""
        return extracted, spans, ACTION_EXTRACTED, ""
    except RowBudgetExceeded:
        return "", [], ACTION_ERROR, ERROR_BUDGET
    except Exception as exc:  # per-item isolation: row-scoped failure
        return "", [], ACTION_ERROR, f"{type(exc).__name__}: {exc}"
    finally:
        set_row_deadline(None)


register_extractor(KIND_PDFISH, extract_pdfish)
register_extractor(KIND_XML, extract_xml)
register_extractor(KIND_HTML, extract_html)
register_extractor(KIND_PLAIN, extract_plain)


@functools.cache
def _pin_arrow_to_one_cpu() -> None:
    """Once per worker process: one logical CPU per Ray task. Arrow kernels
    otherwise fan out on an internal pool sized to the machine, silently
    oversubscribing small clusters (and skewing per-CPU accounting)."""
    pa.set_cpu_count(1)


def extract_batch(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Sniff + route + extract one zero-copy Arrow batch, per-row isolated.

    Stateless from Ray's perspective, so it runs on the shared task worker
    pool (warm processes reused across datasets/stages — no per-dataset
    actor startup). The heavy state (compiled regex tables, parser
    machinery) is module-level, loaded once per worker process (reference
    pattern app.py:2054-2095). A batch that already carries
    ``content_kind`` keeps it; otherwise the sniffer classifies it here.
    """
    _pin_arrow_to_one_cpu()
    if "content_kind" in batch.column_names:
        kinds_arr = batch["content_kind"]
    else:
        kinds_arr = classify_text_array(batch[text_column])
        batch = batch.append_column("content_kind", kinds_arr)

    texts = batch[text_column].to_pylist()
    kinds = kinds_arr.to_pylist()

    extracted: list[str] = []
    spans_col: list[list[dict]] = []
    actions: list[str] = []
    errors: list[str] = []
    for text, kind in zip(texts, kinds):
        ext, spans, action, error = extract_turn(text, kind)
        extracted.append(ext)
        spans_col.append([{"start": s, "end": e, "kind": k} for s, e, k in spans])
        actions.append(action)
        errors.append(error)

    return (
        batch.append_column("extracted_text", pa.array(extracted, type=pa.string()))
        .append_column("spans", pa.array(spans_col, type=SPANS_TYPE))
        .append_column("action", pa.array(actions, type=pa.string()))
        .append_column("error", pa.array(errors, type=pa.string()))
    )
