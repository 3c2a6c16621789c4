"""End-to-end training-data prep: the engine's stages composed as ONE flow.

This is the pipeline a user of the engine actually runs over raw
transcripts — extraction → quality gate → conversation reassembly → exact
dedup → per-document stats → deterministic split — each stage being an
operator that is individually driver-verified elsewhere. Shapes:

- extraction and the quality gate are embarrassingly parallel maps;
- reassembly is the salted two-level exchange (skew-safe);
- dedup exchanges only (fingerprint, conv_id) — never the text twice;
- stats are vectorized pyarrow.compute on the assembled text;
- the split is hash-stable (identical rows at any parallelism / resume).
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.textstats import text_stats_columns
from .conversations import reassemble_conversations
from .exchange import hash_partitioned
from .extraction import extract_transcripts, package_remote_args
from .queryset import register, transcripts_for_sf

KEEP_ACTIONS = ("extracted", "skipped_clean", "extracted_fallback")
VAL_PCT = 10


def quality_gate(batch: pa.Table) -> pa.Table:
    keep = pc.and_(
        pc.is_in(batch["action"], value_set=pa.array(KEEP_ACTIONS)),
        pc.not_equal(batch["extracted_text"], ""),
    )
    return batch.filter(keep).select(["conv_id", "turn_idx", "extracted_text"])


def prep_corpus(sf_dir: str) -> "ray.data.Dataset":
    """(conv_id, n_turns, n_tokens, lang, split) for deduped conversations.

    Conversations whose assembled text is an exact duplicate keep only the
    lexicographically-first conv_id (the reference's first-wins rule at
    document scope).
    """
    ext = extract_transcripts(transcripts_for_sf(sf_dir))
    convs = reassemble_conversations(
        ext.map_batches(quality_gate, batch_format="pyarrow", **package_remote_args())
    )
    return dedup_stats_split(convs)


def prep_corpus_resumable(
    input_paths,
    ckpt_dir,
    *,
    batch_size: int | None = None,
    max_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Composed prep with a durable extraction checkpoint.

    Phase 1 runs (or resumes) the wave-committed extraction into
    ``ckpt_dir`` — a killed job re-skips every committed fragment on the
    next invocation. Phase 2 streams the committed output through
    gate → reassembly → dedup/stats/split. The checkpoint boundary sits
    just before the composition's first shuffle, the only place a resume
    is cheap: everything after it is one streaming job over durable input.
    ``batch_size`` is phase 1's read batch (``None``: whole row groups);
    ``max_partitions`` bounds phase-1 work (tests simulate a kill with it).
    """
    from ..state.checkpoint import read_extracted, run_resumable_extraction

    run_resumable_extraction(
        input_paths, ckpt_dir, batch_size=batch_size, max_partitions=max_partitions
    )
    ext = read_extracted(ckpt_dir)
    convs = reassemble_conversations(
        ext.map_batches(quality_gate, batch_format="pyarrow", **package_remote_args())
    )
    return dedup_stats_split(convs)


def dedup_stats_split(convs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Exact-dedup reassembled conversations, attach stats + split."""

    def fingerprint(batch: pa.Table) -> pa.Table:
        # md5 (not a faster hash) is the contract: the DuckDB oracle
        # recomputes these exact digests via md5(full_text) / md5(conv_id)
        fps = pa.array(
            [
                hashlib.md5((t or "").encode("utf-8")).hexdigest()
                for t in batch["full_text"].to_pylist()
            ]
        )
        return batch.append_column("fingerprint", fps)

    convs = convs.map_batches(
        fingerprint, batch_format="pyarrow", **package_remote_args()
    )

    def first_wins(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["fingerprint", "conv_id"], kind="stable")
        return df.drop_duplicates("fingerprint", keep="first").reset_index(drop=True)

    deduped = hash_partitioned(convs, "fingerprint", first_wins)

    def stats_and_split(batch: pa.Table) -> pa.Table:
        cols = text_stats_columns(batch["full_text"])
        split = pa.array(
            [
                "val"
                if int(hashlib.md5(str(c).encode()).hexdigest()[:8], 16) % 100 < VAL_PCT
                else "train"
                for c in batch["conv_id"].to_pylist()
            ]
        )
        return pa.table(
            {
                "conv_id": batch["conv_id"],
                "n_turns": batch["n_turns"],
                "n_tokens": cols["n_tokens_ws"],
                "lang": cols["lang"],
                "split": split,
            }
        )

    return deduped.map_batches(
        stats_and_split, batch_format="pyarrow", **package_remote_args()
    )


def prep_plain_corpus(sf_dir: str) -> "ray.data.Dataset":
    """The SAME composed prep flow restricted to plain-path turns — which
    makes EVERY stage SQL-expressible, so the end-to-end composition
    (extract → gate → reassemble → first-wins dedup → stats → split) gets
    a value-level oracle, not just its stages individually."""
    ext = extract_transcripts(transcripts_for_sf(sf_dir))

    def plain_gate(batch: pa.Table) -> pa.Table:
        # the SAME quality gate, restricted to plain-kind turns — one copy
        # of the keep-condition, so the oracled flow can't drift from prep
        return quality_gate(batch.filter(pc.equal(batch["content_kind"], "plain")))

    convs = reassemble_conversations(
        ext.map_batches(plain_gate, batch_format="pyarrow", **package_remote_args())
    )
    return dedup_stats_split(convs)


def _prep_plain_sql() -> str:
    from ..functions.textstats import sql_stats_select
    from .extraction_queries import _ORACLE_TRANSCRIPTS, _plain_turns_cte

    return (
        _plain_turns_cte(_ORACLE_TRANSCRIPTS)
        + f""",
kept_turns AS (
  SELECT conv_id, turn_idx, extracted_text FROM plain_turns
  WHERE action IN ({", ".join(repr(a) for a in KEEP_ACTIONS)})
    AND extracted_text <> ''
),
convs AS (
  SELECT conv_id,
         string_agg(extracted_text, chr(10) || chr(10) ORDER BY turn_idx) AS full_text,
         count(*) AS n_turns
  FROM kept_turns GROUP BY conv_id
),
deduped AS (
  SELECT conv_id, full_text, n_turns,
         row_number() OVER (PARTITION BY md5(full_text) ORDER BY conv_id) AS rn
  FROM convs
),
stats AS (
  SELECT conv_id, n_turns, {sql_stats_select('full_text')}
  FROM deduped WHERE rn = 1
)
SELECT conv_id, n_turns, n_tokens_ws AS n_tokens, lang,
       CASE WHEN ('0x' || substr(md5(conv_id), 1, 8))::BIGINT % 100 < {VAL_PCT}
            THEN 'val' ELSE 'train' END AS split
FROM stats
"""
    )


# Bump when the expected-prep computation (gate, dedup rule, stats, split)
# or any extraction kernel changes.
_EXPECTED_PREP_VERSION = 1


def expected_prep_corpus_path(sf_dir: str) -> str:
    from .queryset import expected_table_path

    return expected_table_path("expected-prep-corpus", sf_dir, _EXPECTED_PREP_VERSION)


def materialize_expected_prep_corpus(sf_dir: str) -> str:
    """Golden (conv_id, n_turns, n_tokens, lang, split) via the oracle.

    Single process, plain loops: gate the ``oracle.py`` per-turn golden table
    by the same keep rule, accumulate each conversation's kept turns in
    (conv_id, turn_idx) order, first-wins dedup on md5(full_text), then the
    shared (itself green-oracled via ``docs_textstats``) stats kernel and the
    hash split. No Ray and no exchange anywhere — so the materialized table
    pins the distributed composition: gate placement, the salted reassembly,
    the fingerprint exchange, and split stability under partitioning.
    """
    from .queryset import materialize_expected_table

    return materialize_expected_table(
        "expected-prep-corpus", sf_dir, _EXPECTED_PREP_VERSION, _build_expected_prep_corpus
    )


def _build_expected_prep_corpus(sf_dir: str) -> pa.Table:
    from ..oracle import oracle_extract_parquet
    from .conversations import TURN_SEP

    golden = oracle_extract_parquet(transcripts_for_sf(sf_dir))
    kept: dict[str, list[str]] = {}
    for conv_id, text, action in zip(
        golden["conv_id"].to_pylist(),
        golden["extracted_text"].to_pylist(),
        golden["action"].to_pylist(),
    ):
        if action in KEEP_ACTIONS and text:
            kept.setdefault(conv_id, []).append(text)

    first_for_fp: dict[str, tuple[str, str, int]] = {}
    for conv_id in sorted(kept):
        turns = kept[conv_id]
        full_text = TURN_SEP.join(turns)
        fp = hashlib.md5(full_text.encode("utf-8")).hexdigest()
        if fp not in first_for_fp:  # first-wins in conv_id order
            first_for_fp[fp] = (conv_id, full_text, len(turns))

    rows = sorted(first_for_fp.values())
    conv_ids = [r[0] for r in rows]
    stats = text_stats_columns(pa.array([r[1] for r in rows], type=pa.string()))
    split = [
        "val"
        if int(hashlib.md5(str(c).encode()).hexdigest()[:8], 16) % 100 < VAL_PCT
        else "train"
        for c in conv_ids
    ]

    return pa.table(
        {
            "conv_id": pa.array(conv_ids, type=pa.string()),
            "n_turns": pa.array([r[2] for r in rows], type=pa.int64()),
            "n_tokens": stats["n_tokens_ws"],
            "lang": stats["lang"],
            "split": pa.array(split, type=pa.string()),
        }
    )


PREP_CORPUS_SQL = (
    "SELECT conv_id, n_turns, n_tokens, lang, split FROM read_parquet("
    f"'{expected_prep_corpus_path('/root/testdata/sf0.01')}')"
)

from .queryset import MATERIALIZERS, SF_PATH_HELPERS  # noqa: E402

MATERIALIZERS.append(materialize_expected_prep_corpus)
SF_PATH_HELPERS.append(expected_prep_corpus_path)

register("prep_corpus", prep_corpus, sql=PREP_CORPUS_SQL)
register("prep_plain_corpus", prep_plain_corpus, sql=_prep_plain_sql())
