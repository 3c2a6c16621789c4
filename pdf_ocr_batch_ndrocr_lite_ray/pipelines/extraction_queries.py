"""Extraction-family queries for the driver's correctness harness.

The FULL extraction pipeline is not SQL-expressible (greedy geometric
clustering, DOM stripping) — ``extract_flagship`` / ``extract_paged`` are
instead value-checked against a MATERIALIZED golden table computed by the
single-process ``oracle.py`` path (see the materialized-oracle section
below for what that does and does not pin). Large projections of the
pipeline additionally ARE exactly expressible and get direct value-level
DuckDB oracles:

- the content sniff (CASE over regex evidence) — over documents AND over
  the real transcript table;
- the ENTIRE plain-text path: CRLF-normalize → form-feed segmentation →
  whitespace normalization → order-preserving dedup → join. The Python
  rules use lookarounds and reach their fixpoint in one pass; RE2
  (DuckDB's engine) lacks lookarounds, so the oracle rewrites each rule
  with capture groups and unrolls the cascade ``_NORM_SQL_ITERS`` times. A
  capture-group pass deletes a subset of what a lookaround pass deletes
  (shared boundary chars are consumed), but both systems converge to the
  same fixpoint — 3 unrolled passes suffice on every segment in the sf0.1
  corpus (pinned by tests/test_extraction_oracle.py); 6 gives 2x margin.

Oracle SQL strings are static, so the transcript-table oracles embed the
deterministic sf0.01 cache path (the driver always compares at sf0.01;
``__ray_entry__.oracle_sql()`` materializes the file first).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..stages.sniffer import SNIFF_PREFIX_BYTES, classify_text_array
from .extraction import extract_transcripts
from .queryset import (
    MATERIALIZERS,
    SF_PATH_HELPERS,
    _SF_CONVS,
    _SYNTH_SEED,
    register,
    table_path,
    transcripts_for_sf,
    transcripts_path_for_sf,
)


def q_extract_flagship(sf_dir: str):
    """Full extraction over the synthesized transcript table, canonical order."""
    path = transcripts_for_sf(sf_dir)
    ds = extract_transcripts(path, order=True)
    return ds.drop_columns(["spans"])  # list<struct> hashes poorly across drivers


def _action_partial(batch: pa.Table) -> pa.Table:
    vc = pc.value_counts(batch["action"])
    return pa.table(
        {"action": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())}
    )


def q_extract_action_counts(sf_dir: str):
    """Per-action row counts of the flagship extraction (bounded enum →
    per-batch partial counts folded on the driver)."""
    from .exchange import enum_group_sum

    path = transcripts_for_sf(sf_dir)
    ds = extract_transcripts(path).map_batches(_action_partial, batch_format="pyarrow")
    return ray.data.from_pandas(enum_group_sum(ds, ["action"], ["n"]))


def q_docs_normalize_space(sf_dir: str):
    """Vectorized whitespace collapse (kernel F1) over documents — Arrow-native."""

    def norm_batch(batch: pa.Table) -> pa.Table:
        norm = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(batch["text"], pattern=r"\s+", replacement=" ")
        )
        return pa.table({"doc_id": batch["doc_id"], "norm_text": norm})

    return ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(norm_batch, batch_format="pyarrow")


def q_docs_sniff_kind(sf_dir: str):
    """Content-kind sniff over documents (vectorized dual-evidence classifier)."""

    def sniff(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["doc_id"], "content_kind": classify_text_array(batch["text"])}
        )

    return ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(sniff, batch_format="pyarrow")


#: Python's re.UNICODE ``\s`` (what textnorm compiles) matches far more than
#: RE2's ASCII ``\s`` — notably U+3000 (ideographic space) and NBSP. The SQL
#: rewrites use this explicit class wherever the Python side used ``\s`` on
#: RAW text; after the first collapse only ASCII spaces remain and plain
#: ``\s`` is safe again.
_UNICODE_WS = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
)
WS_CLASS_SQL = "[" + _UNICODE_WS + "]"

#: the sniff decision tree as a SQL CASE over a ``pre`` (bounded prefix)
#: column — the byte-for-byte analog of ``classify_text_array`` (whose
#: emptiness test is the unicode-aware ``utf8_trim_whitespace``)
SNIFF_CASE_SQL = f"""CASE
    WHEN regexp_matches(pre, '^{WS_CLASS_SQL}*$') OR pre IS NULL THEN 'empty'
    WHEN regexp_matches(pre, '^\\s*[\\[{{]') THEN 'pdfish'
    WHEN regexp_matches(pre, '^\\s*<\\?xml|<(PAGE|alto|PcGts)[\\s>]|<LINE\\s') THEN 'xml'
    WHEN len(regexp_extract_all(pre, '</?[A-Za-z][A-Za-z0-9]*(\\s[^>]*)?>')) >= 1
         AND (
           regexp_matches(pre, '(?i)<(p|div|html|body|head|br|span|a|li|ul|ol|h[1-6]|nav|footer|header|table|td|th|tr|article|section|main|aside|pre|blockquote|script|style|img|form|em|strong|b|i|code)\\b')
           OR len(regexp_extract_all(pre, '</?[A-Za-z][A-Za-z0-9]*(\\s[^>]*)?>')) >= 3
         ) THEN 'html'
    ELSE 'plain'
  END"""

_SNIFF_SQL = f"""
WITH p AS (
  SELECT doc_id, substr(text, 1, {SNIFF_PREFIX_BYTES}) AS pre FROM documents
)
SELECT doc_id, {SNIFF_CASE_SQL} AS content_kind
FROM p
"""


# --- plain-path value oracle over the real transcript table ----------------

#: capture-group rewrites of the rules in textnorm._NORMALIZE_RE. Python
#: needs one pass: its lookarounds only look at a space's neighbours.
#: RE2 has no lookarounds, so each capture group consumes the neighbour
#: it matched, and a space that shares it with the previous match waits
#: for the next pass — hence the iteration, in the reference's rule order.
_CJK_CLASS = "぀-ヿ㐀-䶿一-鿿！-｠　-〿"
_NORM_RULES_SQL: list[tuple[str, str]] = [
    (f"([{_CJK_CLASS}])\\s+([{_CJK_CLASS}])", "\\1\\2"),
    ("([A-Za-z])\\s+([0-9])", "\\1\\2"),
    ("([0-9])\\s+([A-Za-z])", "\\1\\2"),
    ("([¥￥])\\s+([0-9])", "\\1\\2"),
    ("([（(\\[【「『])\\s+", "\\1"),
    ("\\s+([）)\\]】」』、。，．,:;])", "\\1"),
    ("([●•])\\s+", "\\1"),
]
_NORM_SQL_ITERS = 6  # 2x the measured fixpoint depth on the sf0.1 corpus


def normalize_text_sql(col: str, iters: int = _NORM_SQL_ITERS) -> str:
    """SQL expression computing ``textnorm.normalize_text(col)`` in DuckDB.

    The first collapse runs on RAW text, so it must use the unicode
    whitespace class (Python ``\\s`` semantics); every later rule sees only
    ASCII spaces and keeps plain ``\\s``.
    """
    expr = f"trim(regexp_replace({col}, '{WS_CLASS_SQL}+', ' ', 'g'))"
    for _ in range(iters):
        for pat, rep in _NORM_RULES_SQL:
            expr = f"regexp_replace({expr}, '{pat}', '{rep}', 'g')"
    return f"trim({expr})"


def _plain_turns_cte(
    path: str,
    turn_filter: str | None = None,
    reader: str = "read_parquet",
    source_sql: str | None = None,
) -> str:
    """CTE chain computing the plain-path extraction over a transcript file.

    ``turn_filter`` selects which turns go through the plain pipeline
    (default: sniffed-plain turns); the fallback oracle reuses the same
    chain over undecodable pdfish turns — the M7 rule runs the identical
    plain extractor on them. ``reader`` swaps the DuckDB table function so
    the same chain also oracles the NDJSON source (``read_json_auto``).
    """
    turn_filter = turn_filter or f"{SNIFF_CASE_SQL} = 'plain'"
    source_sql = source_sql or f"{reader}('{path}')"
    return f"""
WITH t AS (SELECT conv_id, turn_idx, text FROM {source_sql}),
p AS (SELECT conv_id, turn_idx, text, substr(text, 1, {SNIFF_PREFIX_BYTES}) AS pre FROM t),
plain AS (SELECT conv_id, turn_idx, text FROM p WHERE {turn_filter}),
sl AS (SELECT conv_id, turn_idx, text,
              string_split_regex(replace(text, chr(13) || chr(10), chr(10)), '\\f+') AS segs
       FROM plain),
segs AS (
  SELECT conv_id, turn_idx, CAST(i AS INT) AS i,
         {normalize_text_sql('segs[CAST(i AS INT)]')} AS nseg
  FROM sl, LATERAL UNNEST(generate_series(1, len(segs))) u(i)
),
kept AS (
  SELECT conv_id, turn_idx, i, nseg,
         row_number() OVER (PARTITION BY conv_id, turn_idx, nseg ORDER BY i) AS rn
  FROM segs WHERE nseg <> ''
),
joined AS (
  SELECT conv_id, turn_idx, string_agg(nseg, chr(10) ORDER BY i) AS extracted_text
  FROM kept WHERE rn = 1 GROUP BY conv_id, turn_idx
),
plain_turns AS (
  SELECT p2.conv_id, p2.turn_idx,
         coalesce(j.extracted_text, '') AS extracted_text,
         CASE WHEN j.extracted_text IS NULL THEN 'empty'
              WHEN j.extracted_text = p2.text THEN 'skipped_clean'
              ELSE 'extracted' END AS action
  FROM plain p2 LEFT JOIN joined j USING (conv_id, turn_idx)
)"""


def _plain_filter(batch: pa.Table) -> pa.Table:
    batch = batch.filter(pc.equal(batch["content_kind"], "plain"))
    return batch.select(["conv_id", "turn_idx", "extracted_text", "action"])


def q_extract_plain_turns(sf_dir: str):
    """Plain-path extraction VALUES per turn: the flagship's plain family
    with a full DuckDB oracle (conv_id, turn_idx, extracted_text, action)."""
    path = transcripts_for_sf(sf_dir)
    ds = extract_transcripts(path)
    return ds.map_batches(_plain_filter, batch_format="pyarrow")


def q_extract_plain_action_counts(sf_dir: str):
    """Per-action counts of the plain path (skip/extract/empty rule check)."""
    from .exchange import enum_group_sum

    path = transcripts_for_sf(sf_dir)
    ds = (
        extract_transcripts(path)
        .map_batches(_plain_filter, batch_format="pyarrow")
        .map_batches(_action_partial, batch_format="pyarrow")
    )
    return ray.data.from_pandas(enum_group_sum(ds, ["action"], ["n"]))


def q_extract_plain_turns_jsonl(sf_dir: str):
    """Plain-path extraction over the NDJSON twin of the transcript table.

    Source-format interchangeability (reference S1 reads heterogeneous
    inputs, app.py:1144-1152): ``ray.data.read_json`` replaces
    ``read_parquet``, everything downstream — sniffer, kernels, output
    schema — is byte-identical to ``extract_plain_turns``. The oracle runs
    the same CTE chain over DuckDB's ``read_json_auto``.
    """
    from .extraction import build_extraction
    from .queryset import jsonl_transcripts_for_sf

    path = jsonl_transcripts_for_sf(sf_dir)

    def coerce(t: pa.Table) -> pa.Table:
        # JSON infers int64/utf8; the engine contract is int32 turn_idx
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int32()),
                "text": t["text"],
            }
        )

    ds = ray.data.read_json(path).map_batches(coerce, batch_format="pyarrow")
    return build_extraction(ds).map_batches(_plain_filter, batch_format="pyarrow")


def q_extract_kind_counts(sf_dir: str):
    """Sniffed content-kind counts over the transcript table (all kinds)."""
    path = transcripts_for_sf(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        kinds = classify_text_array(batch["text"])
        vc = pc.value_counts(kinds)
        return pa.table(
            {
                "content_kind": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    from .exchange import enum_group_sum

    ds = ray.data.read_parquet(path, columns=["text"]).map_batches(
        partial, batch_format="pyarrow"
    )
    return ray.data.from_pandas(enum_group_sum(ds, ["content_kind"], ["n"]))


# the driver compares at sf0.01; embed that deterministic cache path
_ORACLE_TRANSCRIPTS = transcripts_path_for_sf("/root/testdata/sf0.01")

EXTRACT_PLAIN_TURNS_SQL = (
    _plain_turns_cte(_ORACLE_TRANSCRIPTS)
    + "\nSELECT conv_id, turn_idx, extracted_text, action FROM plain_turns"
)

from .queryset import jsonl_transcripts_for_sf as _jsonl_for_sf
from .queryset import jsonl_transcripts_path_for_sf as _jsonl_path_for_sf

_ORACLE_TRANSCRIPTS_JSONL = _jsonl_path_for_sf("/root/testdata/sf0.01")

EXTRACT_PLAIN_TURNS_JSONL_SQL = (
    _plain_turns_cte(_ORACLE_TRANSCRIPTS_JSONL, reader="read_json_auto")
    + "\nSELECT conv_id, turn_idx, extracted_text, action FROM plain_turns"
)

def q_extract_plain_turns_csv(sf_dir: str):
    """Plain-path extraction over the CSV twin of the transcript table.

    The third source format (after parquet and NDJSON): ``ray.data.read_csv``
    with quoted-newline parsing replaces the parquet read; the sniffer,
    kernels, and output schema are byte-identical. The oracle runs the same
    CTE chain over DuckDB's ``read_csv`` with explicit column types and
    ``allow_quoted_nulls=false`` so quoted empty strings stay empty strings
    on both engines.
    """
    from pyarrow import csv as pacsv

    from .extraction import build_extraction
    from .queryset import csv_transcripts_for_sf

    path = csv_transcripts_for_sf(sf_dir)
    ds = ray.data.read_csv(
        path,
        parse_options=pacsv.ParseOptions(newlines_in_values=True),
        convert_options=pacsv.ConvertOptions(
            include_columns=["conv_id", "turn_idx", "text"],
            column_types={
                "conv_id": pa.string(),
                "turn_idx": pa.int32(),
                "text": pa.string(),
            },
        ),
    )
    return build_extraction(ds).map_batches(_plain_filter, batch_format="pyarrow")


def _csv_source_sql(path: str) -> str:
    cols = (
        "{'conv_id': 'VARCHAR', 'turn_idx': 'INTEGER', 'role': 'VARCHAR', "
        "'text': 'VARCHAR', 'tool': 'VARCHAR', 'ts': 'VARCHAR'}"
    )
    return (
        f"read_csv('{path}', header=true, allow_quoted_nulls=false, "
        f"columns={cols})"
    )


from .queryset import csv_transcripts_path_for_sf as _csv_path_for_sf

_ORACLE_TRANSCRIPTS_CSV = _csv_path_for_sf("/root/testdata/sf0.01")
EXTRACT_PLAIN_TURNS_CSV_SQL = (
    _plain_turns_cte("", source_sql=_csv_source_sql(_ORACLE_TRANSCRIPTS_CSV))
    + "\nSELECT conv_id, turn_idx, extracted_text, action FROM plain_turns"
)

EXTRACT_PLAIN_ACTION_COUNTS_SQL = (
    _plain_turns_cte(_ORACLE_TRANSCRIPTS)
    + "\nSELECT action, count(*) AS n FROM plain_turns GROUP BY action"
)

EXTRACT_KIND_COUNTS_SQL = f"""
WITH p AS (
  SELECT substr(text, 1, {SNIFF_PREFIX_BYTES}) AS pre
  FROM read_parquet('{_ORACLE_TRANSCRIPTS}')
)
SELECT {SNIFF_CASE_SQL} AS content_kind, count(*) AS n
FROM p GROUP BY 1
"""

def q_extract_paged(sf_dir: str):
    """Page-aware extraction of pdfish turns (reference M11/M12): per-turn
    multi-page JSON payloads parsed with page attribution, merged through
    the only-empty-pages rules, pages joined by form feed. Rows-only (the
    merge kernel is fuzz-pinned against the reference in tests)."""
    from ..stages.paged import extract_paged_turn

    path = transcripts_for_sf(sf_dir)

    def run(batch: pa.Table) -> pa.Table:
        kinds = classify_text_array(batch["text"])
        keep = pc.equal(kinds, "pdfish")
        batch = batch.filter(keep)
        texts_out, pages_out, hits_out = [], [], []
        for conv_id, text in zip(
            batch["conv_id"].to_pylist(), batch["text"].to_pylist()
        ):
            text_doc, n_pages, hits = extract_paged_turn(text, src_name=conv_id)
            texts_out.append(text_doc)
            pages_out.append(n_pages)
            hits_out.append(hits)
        return pa.table(
            {
                "conv_id": batch["conv_id"],
                "turn_idx": batch["turn_idx"],
                "extracted_text": pa.array(texts_out, type=pa.string()),
                "n_pages": pa.array(pages_out, type=pa.int64()),
                "merge_hits": pa.array(hits_out, type=pa.int64()),
            }
        )

    return ray.data.read_parquet(
        path, columns=["conv_id", "turn_idx", "text"]
    ).map_batches(run, batch_format="pyarrow")


def q_extract_fallback_turns(sf_dir: str):
    """Per-turn VALUES of the M7 fallback rule: pdfish turns whose JSON does
    not decode re-route through the plain extractor — (conv_id, turn_idx,
    extracted_text, action ∈ {extracted_fallback, empty}). The engine keeps
    the reference's ``json.loads`` accept set (app.py ``_parse_json_file``);
    DuckDB's ``json_valid`` (yyjson) is strictly laxer in general (accepts
    lowercase nan/inf and trailing commas; it DOES accept NaN/Infinity, same
    as Python — contra ADVICE r2). The two agree on every payload this corpus
    family produces — pinned row-for-row by
    ``tests/test_extraction_oracle.py::TestJsonAcceptParity``, which also
    documents the measured divergence frontier so a DuckDB upgrade that
    moves it fails loudly."""
    import json as _json

    path = transcripts_for_sf(sf_dir)
    ds = extract_transcripts(path)

    def pick(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["content_kind"], "pdfish"))
        invalid = []
        for t in batch["text"].to_pylist():
            try:
                _json.loads(t or "")
                invalid.append(False)
            except Exception:
                invalid.append(True)
        batch = batch.filter(pa.array(invalid))
        return batch.select(["conv_id", "turn_idx", "extracted_text", "action"])

    return ds.map_batches(pick, batch_format="pyarrow")


EXTRACT_FALLBACK_TURNS_SQL = (
    _plain_turns_cte(
        _ORACLE_TRANSCRIPTS,
        turn_filter=f"{SNIFF_CASE_SQL} = 'pdfish' AND NOT json_valid(text)",
    )
    + """
SELECT conv_id, turn_idx, extracted_text,
       CASE WHEN extracted_text = '' THEN 'empty' ELSE 'extracted_fallback' END AS action
FROM plain_turns
"""
)

# --- corpus-derived expected-action oracle ----------------------------------

#: bump when expected_action's labeling rules change (cache key component)
_EXPECTED_ACTIONS_VERSION = 1


def expected_action_counts_path(sf_dir: str) -> str:
    from .queryset import expected_table_path

    return expected_table_path("expected-actions", sf_dir, _EXPECTED_ACTIONS_VERSION)


def materialize_expected_action_counts(sf_dir: str) -> str:
    """Materialize the EXPECTED per-action counts for the synthesized corpus
    (a tiny parquet the ``extract_action_counts`` oracle reads).

    Expectations come from ``sources.transcripts.expected_action`` —
    construction-family knowledge, the sniffer (itself green-oracled), and
    the plain kernel (itself green-oracled) — never from running the
    html/xml/pdfish extractors whose parse decisions this oracle pins.
    """
    from .queryset import materialize_expected_table

    return materialize_expected_table(
        "expected-actions", sf_dir, _EXPECTED_ACTIONS_VERSION, _build_expected_action_counts
    )


def _build_expected_action_counts(sf_dir: str) -> pa.Table:
    from collections import Counter as _Counter
    from pathlib import Path as _P

    from ..sources.transcripts import expected_action, generate_rows

    name = _P(sf_dir).name or "sf0.001"
    n_convs = _SF_CONVS.get(name, 40)
    counts: _Counter = _Counter(
        expected_action(r["text"], r["family"])
        for r in generate_rows(n_convs=n_convs, seed=_SYNTH_SEED, with_family=True)
    )
    return pa.table(
        {
            "action": pa.array(sorted(counts), type=pa.string()),
            "n": pa.array([counts[a] for a in sorted(counts)], type=pa.int64()),
        }
    )


EXTRACT_ACTION_COUNTS_SQL = (
    "SELECT action, n FROM read_parquet("
    f"'{expected_action_counts_path('/root/testdata/sf0.01')}')"
)
MATERIALIZERS.append(materialize_expected_action_counts)
SF_PATH_HELPERS.append(expected_action_counts_path)


# --- materialized golden oracles: flagship + paged ---------------------------
#
# The full multi-format extraction is not SQL-expressible, but its golden
# table IS materializable: ``oracle.py`` runs the extraction serially in one
# process (no Ray, no batching, no shuffles) and the SQL oracle reads that
# parquet. Epistemically this pins DISTRIBUTION-preservation — batching,
# actor pools, salted repartition, order restoration — the kernels
# themselves are pinned separately against the imported reference by the
# hypothesis fuzz suites (test_fuzz_extract / test_paged / test_geometry
# _parity), and the action labels by the construction-family oracle above,
# which never runs the extractors it checks.

_EXPECTED_FLAGSHIP_VERSION = 1
_EXPECTED_PAGED_VERSION = 1


def _spans_str_from_lists(spans_lists) -> list[str]:
    """Serialize list<struct<start,end,kind>> rows to 'start:end:kind|...'
    strings — flat, hash-stable across drivers (the raw nested column is
    why the flagship dropped spans from its hashed output)."""
    return [
        "|".join(f"{d['start']}:{d['end']}:{d['kind']}" for d in (row or []))
        for row in spans_lists
    ]


def _build_expected_flagship(sf_dir: str) -> pa.Table:
    import pyarrow.parquet as _pq

    from ..oracle import oracle_extract_table

    src = _pq.read_table(transcripts_for_sf(sf_dir))
    golden = oracle_extract_table(src)
    src_sorted = src.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    spans_str = _spans_str_from_lists(golden["spans"].to_pylist())
    return pa.table(
        {
            "conv_id": src_sorted["conv_id"],
            "turn_idx": src_sorted["turn_idx"],
            "role": src_sorted["role"],
            "text": src_sorted["text"],
            "tool": src_sorted["tool"],
            "ts": src_sorted["ts"],
            "content_kind": golden["content_kind"],
            "extracted_text": golden["extracted_text"],
            "action": golden["action"],
            "error": golden["error"],
            "spans_str": pa.array(spans_str, type=pa.string()),
        }
    )


def expected_flagship_path(sf_dir: str) -> str:
    from .queryset import expected_table_path

    return expected_table_path("expected-flagship", sf_dir, _EXPECTED_FLAGSHIP_VERSION)


def materialize_expected_flagship(sf_dir: str) -> str:
    from .queryset import materialize_expected_table

    return materialize_expected_table(
        "expected-flagship", sf_dir, _EXPECTED_FLAGSHIP_VERSION, _build_expected_flagship
    )


def q_extract_flagship_spans(sf_dir: str):
    """(conv_id, turn_idx, spans_str): the flagship's span BOUNDARIES,
    serialized flat so they hash stably — the north-rule's 'text and span
    boundaries' checked at value level end-to-end (the flagship query
    itself hashes everything but spans)."""
    path = transcripts_for_sf(sf_dir)
    ds = extract_transcripts(path)

    def ser(batch: pa.Table) -> pa.Table:
        s = _spans_str_from_lists(batch["spans"].to_pylist())
        return pa.table(
            {
                "conv_id": batch["conv_id"],
                "turn_idx": batch["turn_idx"],
                "spans_str": pa.array(s, type=pa.string()),
            }
        )

    return ds.map_batches(ser, batch_format="pyarrow")


def _build_expected_paged(sf_dir: str) -> pa.Table:
    import pyarrow.parquet as _pq

    from ..stages.paged import extract_paged_turn

    src = _pq.read_table(
        transcripts_for_sf(sf_dir), columns=["conv_id", "turn_idx", "text"]
    )
    kinds = classify_text_array(src["text"])
    if isinstance(kinds, pa.ChunkedArray):
        kinds = kinds.combine_chunks()
    conv_out, turn_out, texts_out, pages_out, hits_out = [], [], [], [], []
    for conv_id, turn_idx, text, kind in zip(
        src["conv_id"].to_pylist(),
        src["turn_idx"].to_pylist(),
        src["text"].to_pylist(),
        kinds.to_pylist(),
    ):
        if kind != "pdfish":
            continue
        text_doc, n_pages, hits = extract_paged_turn(text, src_name=conv_id)
        conv_out.append(conv_id)
        turn_out.append(turn_idx)
        texts_out.append(text_doc)
        pages_out.append(n_pages)
        hits_out.append(hits)
    return pa.table(
        {
            "conv_id": pa.array(conv_out, type=pa.string()),
            "turn_idx": pa.array(turn_out, type=pa.int32()),
            "extracted_text": pa.array(texts_out, type=pa.string()),
            "n_pages": pa.array(pages_out, type=pa.int64()),
            "merge_hits": pa.array(hits_out, type=pa.int64()),
        }
    )


def expected_paged_path(sf_dir: str) -> str:
    from .queryset import expected_table_path

    return expected_table_path("expected-paged", sf_dir, _EXPECTED_PAGED_VERSION)


def materialize_expected_paged(sf_dir: str) -> str:
    from .queryset import materialize_expected_table

    return materialize_expected_table(
        "expected-paged", sf_dir, _EXPECTED_PAGED_VERSION, _build_expected_paged
    )


EXTRACT_FLAGSHIP_SQL = (
    "SELECT conv_id, turn_idx, role, text, tool, ts, content_kind,"
    " extracted_text, action, error FROM read_parquet("
    f"'{expected_flagship_path('/root/testdata/sf0.01')}')"
)
EXTRACT_FLAGSHIP_SPANS_SQL = (
    "SELECT conv_id, turn_idx, spans_str FROM read_parquet("
    f"'{expected_flagship_path('/root/testdata/sf0.01')}')"
)
EXTRACT_PAGED_SQL = (
    "SELECT conv_id, turn_idx, extracted_text, n_pages, merge_hits"
    f" FROM read_parquet('{expected_paged_path('/root/testdata/sf0.01')}')"
)
MATERIALIZERS.append(materialize_expected_flagship)
MATERIALIZERS.append(materialize_expected_paged)
SF_PATH_HELPERS.append(expected_flagship_path)
SF_PATH_HELPERS.append(expected_paged_path)

register("extract_flagship", q_extract_flagship, sql=EXTRACT_FLAGSHIP_SQL)
register("extract_flagship_spans", q_extract_flagship_spans, sql=EXTRACT_FLAGSHIP_SPANS_SQL)
register("extract_paged", q_extract_paged, sql=EXTRACT_PAGED_SQL)
register(
    "extract_fallback_turns", q_extract_fallback_turns, sql=EXTRACT_FALLBACK_TURNS_SQL
)
register(
    "extract_action_counts", q_extract_action_counts, sql=EXTRACT_ACTION_COUNTS_SQL
)
register("extract_plain_turns", q_extract_plain_turns, sql=EXTRACT_PLAIN_TURNS_SQL)
register(
    "extract_plain_turns_jsonl",
    q_extract_plain_turns_jsonl,
    sql=EXTRACT_PLAIN_TURNS_JSONL_SQL,
)
MATERIALIZERS.append(_jsonl_for_sf)
register(
    "extract_plain_turns_csv",
    q_extract_plain_turns_csv,
    sql=EXTRACT_PLAIN_TURNS_CSV_SQL,
)
from .queryset import csv_transcripts_for_sf as _csv_for_sf
MATERIALIZERS.append(_csv_for_sf)
register(
    "extract_plain_action_counts",
    q_extract_plain_action_counts,
    sql=EXTRACT_PLAIN_ACTION_COUNTS_SQL,
)
register("extract_kind_counts", q_extract_kind_counts, sql=EXTRACT_KIND_COUNTS_SQL)
register(
    "docs_normalize_space",
    q_docs_normalize_space,
    sql=r"SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS norm_text FROM documents",
)
register("docs_sniff_kind", q_docs_sniff_kind, sql=_SNIFF_SQL)
