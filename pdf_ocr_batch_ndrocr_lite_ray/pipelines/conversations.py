"""Conversation-level operators: salted reassembly of per-turn extractions.

This is the operator that actually NEEDS key co-location (unlike per-turn
extraction): concatenating a conversation's extracted turns in turn order.
A hot conversation (the fixtures plant ~1-in-25 conversations at 50× the
median turn count; at 10^12-turn scale a single conversation can exceed a
worker's memory) would make a naive ``groupby(conv_id)`` straggle on one
reducer — so the exchange is **salted**:

1. level 1 groups by ``(conv_id, turn_idx // SALT_BLOCK)`` — a hot
   conversation splits across many salt segments, each assembled
   independently (sorted by ``turn_idx`` inside the segment);
2. level 2 merges each conversation's few segments in salt order — rows
   into this exchange are already reduced to one per segment, so the
   hottest conversation contributes ``ceil(n_turns / SALT_BLOCK)`` tiny
   rows instead of ``n_turns`` full ones.

The salted result is provably identical to the unsalted single-level
groupby (asserted in tests), which is the general recipe the reference's
ordering contract demands under skew (SURVEY.md §4 "Skew").
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .dedup import _hash_partitioned
from .extraction import extract_transcripts, package_remote_args
from .queryset import register, transcripts_for_sf

SALT_BLOCK = 64  # turns per salt segment
TURN_SEP = "\n\n"


def _add_salt_key(batch: pa.Table, salt_block: int) -> pa.Table:
    """Append (seg_key:int64, salt:int32). The partition key only needs to
    CO-LOCATE each (conv_id, salt) group — the assembly groups by the real
    columns — so it is a cheap int (shared ``crc32_codes`` over distinct
    conv_ids, mixed with the salt), not a padded string: building the old
    string key cost more than the whole per-partition assembly.
    """
    import numpy as np

    from .exchange import crc32_codes

    salt = pc.divide(batch["turn_idx"], salt_block)
    conv_hash = crc32_codes(batch["conv_id"])
    key = conv_hash * np.int64(1000003) + pc.cast(salt, pa.int64()).to_numpy(
        zero_copy_only=False
    )
    return batch.append_column("seg_key", pa.array(key, type=pa.int64())).append_column(
        "salt", pc.cast(salt, pa.int32())
    )


def _grouped_join(
    df: pd.DataFrame, keys: list[str], order: str, text_col: str
) -> tuple[pd.DataFrame, pd.Series, pd.Series]:
    """ONE stable sort + C-path groupby instead of a per-group Python loop
    with a per-group sort (measured 13 s → <1 s on 791k rows / 40k groups).
    Returns (sorted df, joined text per group, group sizes) indexed alike.
    """
    df = df.sort_values(keys + [order], kind="stable")
    g = df.groupby(keys, sort=True)
    nonempty = df[df[text_col].astype(bool)]
    texts = nonempty.groupby(keys, sort=True)[text_col].agg(TURN_SEP.join)
    sizes = g.size()
    # groups whose every turn is empty still exist (joined text = "")
    texts = texts.reindex(sizes.index, fill_value="")
    return df, texts, sizes


def _assemble_segment(df: pd.DataFrame) -> pd.DataFrame:
    if len(df) == 0:
        return pd.DataFrame(
            {
                "conv_id": pd.Series([], dtype="object"),
                "salt": pd.Series([], dtype="int32"),
                "seg_text": pd.Series([], dtype="object"),
                "n_turns": pd.Series([], dtype="int64"),
            }
        )
    _, texts, sizes = _grouped_join(df, ["conv_id", "salt"], "turn_idx", "extracted_text")
    idx = sizes.index.to_frame(index=False)
    return pd.DataFrame(
        {
            "conv_id": idx["conv_id"].astype("object"),
            "salt": idx["salt"].astype("int32"),
            "seg_text": texts.to_numpy(),
            "n_turns": sizes.astype("int64").to_numpy(),
        }
    )


def _merge_segments(df: pd.DataFrame) -> pd.DataFrame:
    if len(df) == 0:
        return pd.DataFrame(
            {
                "conv_id": pd.Series([], dtype="object"),
                "full_text": pd.Series([], dtype="object"),
                "n_turns": pd.Series([], dtype="int64"),
            }
        )
    df = df.sort_values(["conv_id", "salt"], kind="stable")
    nonempty = df[df["seg_text"].astype(bool)]
    texts = nonempty.groupby("conv_id", sort=True)["seg_text"].agg(TURN_SEP.join)
    sums = df.groupby("conv_id", sort=True)["n_turns"].sum()
    texts = texts.reindex(sums.index, fill_value="")
    return pd.DataFrame(
        {
            "conv_id": pd.Series(sums.index.to_numpy(), dtype="object"),
            "full_text": texts.to_numpy(),
            "n_turns": sums.astype("int64").to_numpy(),
        }
    )


def reassemble_conversations(
    extracted: "ray.data.Dataset", salt_block: int = SALT_BLOCK
) -> "ray.data.Dataset":
    """(conv_id, full_text, n_turns) from an extracted-turn Dataset."""
    remote_args = package_remote_args()
    ds = extracted.select_columns(
        ["conv_id", "turn_idx", "extracted_text"], **remote_args
    )
    ds = ds.map_batches(
        lambda b: _add_salt_key(b, salt_block), batch_format="pyarrow",
        **remote_args,
    )
    segments = _hash_partitioned(ds, "seg_key", _assemble_segment)
    return _hash_partitioned(segments, "conv_id", _merge_segments)


def reassemble_unsalted(extracted: "ray.data.Dataset") -> "ray.data.Dataset":
    """Single-level reference implementation (correct, but a hot conversation
    lands on one reducer) — used by tests to prove salted == unsalted."""
    ds = extracted.select_columns(["conv_id", "turn_idx", "extracted_text"])

    def assemble(df: pd.DataFrame) -> pd.DataFrame:
        conv_ids, texts, counts = [], [], []
        for conv_id, g in df.groupby("conv_id", sort=True):
            g = g.sort_values("turn_idx")
            conv_ids.append(conv_id)
            texts.append(TURN_SEP.join(t for t in g["extracted_text"].tolist() if t))
            counts.append(len(g))
        return pd.DataFrame(
            {
                "conv_id": pd.Series(conv_ids, dtype="object"),
                "full_text": pd.Series(texts, dtype="object"),
                "n_turns": pd.Series(counts, dtype="int64"),
            }
        )

    return _hash_partitioned(ds, "conv_id", assemble)


def q_conversation_texts(sf_dir: str) -> "ray.data.Dataset":
    path = transcripts_for_sf(sf_dir)
    return reassemble_conversations(extract_transcripts(path))


def q_conversation_plain_texts(sf_dir: str) -> "ray.data.Dataset":
    """Salted reassembly restricted to plain-path turns — the same two-level
    exchange as ``conversation_texts``, but over the turn family whose
    extracted text has a full DuckDB oracle, so the reassembly VALUES
    (order, separator, empty-turn skipping) get checked end-to-end."""
    path = transcripts_for_sf(sf_dir)
    ds = extract_transcripts(path)

    def plain_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["content_kind"], "plain"))

    return reassemble_conversations(ds.map_batches(plain_only, batch_format="pyarrow"))


def _conversation_plain_sql() -> str:
    from .extraction_queries import _ORACLE_TRANSCRIPTS, _plain_turns_cte

    # string_agg skips NULLs, so empty turns are dropped from the join but
    # still counted — exactly the Python assembly's `if t` filter + len(g)
    return _plain_turns_cte(_ORACLE_TRANSCRIPTS) + """
SELECT conv_id,
       coalesce(string_agg(CASE WHEN extracted_text <> '' THEN extracted_text END,
                           chr(10) || chr(10) ORDER BY turn_idx), '') AS full_text,
       count(*) AS n_turns
FROM plain_turns GROUP BY conv_id
"""


# Bump when the expected-reassembly computation (join rule, separator,
# empty-turn handling) or any extraction kernel changes — the cache file is
# content-addressed by (sf, n_convs, seed, synth version, this version).
_EXPECTED_CONV_VERSION = 1


def expected_conversation_texts_path(sf_dir: str) -> str:
    from .queryset import expected_table_path

    return expected_table_path("expected-conv-texts", sf_dir, _EXPECTED_CONV_VERSION)


def materialize_expected_conversation_texts(sf_dir: str) -> str:
    """Golden (conv_id, full_text, n_turns) via the single-process oracle.

    ``oracle.py`` runs the exact extraction semantics with a plain Python
    loop (no Ray, no exchange); the reassembly here is an equally-plain
    per-conversation accumulation over its already-(conv_id, turn_idx)-sorted
    output. What the materialized table therefore pins about the distributed
    query is precisely the distribution: the salted two-level exchange, batch
    boundaries, and ordering restoration — the parts that can silently break.
    """
    from .queryset import materialize_expected_table

    return materialize_expected_table(
        "expected-conv-texts", sf_dir, _EXPECTED_CONV_VERSION, _build_expected_conversation_texts
    )


def _build_expected_conversation_texts(sf_dir: str) -> pa.Table:
    from ..oracle import oracle_extract_parquet

    golden = oracle_extract_parquet(transcripts_for_sf(sf_dir))
    conv_ids, texts, counts = [], [], []
    cur_id, cur_parts, cur_n = None, [], 0
    for conv_id, text in zip(
        golden["conv_id"].to_pylist(), golden["extracted_text"].to_pylist()
    ):
        if conv_id != cur_id:
            if cur_id is not None:
                conv_ids.append(cur_id)
                texts.append(TURN_SEP.join(cur_parts))
                counts.append(cur_n)
            cur_id, cur_parts, cur_n = conv_id, [], 0
        cur_n += 1
        if text:
            cur_parts.append(text)
    if cur_id is not None:
        conv_ids.append(cur_id)
        texts.append(TURN_SEP.join(cur_parts))
        counts.append(cur_n)

    return pa.table(
        {
            "conv_id": pa.array(conv_ids, type=pa.string()),
            "full_text": pa.array(texts, type=pa.string()),
            "n_turns": pa.array(counts, type=pa.int64()),
        }
    )


CONVERSATION_TEXTS_SQL = (
    "SELECT conv_id, full_text, n_turns FROM read_parquet("
    f"'{expected_conversation_texts_path('/root/testdata/sf0.01')}')"
)

from .queryset import MATERIALIZERS, SF_PATH_HELPERS  # noqa: E402

MATERIALIZERS.append(materialize_expected_conversation_texts)
SF_PATH_HELPERS.append(expected_conversation_texts_path)

register("conversation_texts", q_conversation_texts, sql=CONVERSATION_TEXTS_SQL)
register(
    "conversation_plain_texts", q_conversation_plain_texts, sql=_conversation_plain_sql()
)


def conversation_dedup_exact(sf_dir: str) -> "ray.data.Dataset":
    """(fingerprint, keep_conv_id, n_dups): exact dedup at CONVERSATION
    granularity — fingerprint the reassembled plain-path text and keep the
    lexicographically-first conv_id per group. Transcript pipelines dedup
    at this granularity (a re-crawled conversation is a full-document
    duplicate), not per turn; the flow composes the salted reassembly with
    the dedup.py first-wins rule, and every stage is the same bounded
    exchange shape as its parent operator.
    """
    import hashlib

    convs = q_conversation_plain_texts(sf_dir)  # one copy of the plain flow

    def fp_rows(df: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame(
            {
                "fingerprint": [
                    hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["full_text"]
                ],
                "conv_id": df["conv_id"],
            }
        )

    def group_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        g = (
            df.groupby("fingerprint", sort=False)
            .agg(keep_conv_id=("conv_id", "min"), n_dups=("conv_id", "size"))
            .reset_index()
        )
        g["n_dups"] = g["n_dups"].astype("int64")
        return g

    fps = convs.map_batches(fp_rows, batch_format="pandas")
    return _hash_partitioned(fps, "fingerprint", group_partition)


def _conversation_dedup_sql() -> str:
    from .extraction_queries import _ORACLE_TRANSCRIPTS, _plain_turns_cte

    return _plain_turns_cte(_ORACLE_TRANSCRIPTS) + """
, conv AS (
  SELECT conv_id,
         coalesce(string_agg(CASE WHEN extracted_text <> '' THEN extracted_text END,
                             chr(10) || chr(10) ORDER BY turn_idx), '') AS full_text
  FROM plain_turns GROUP BY conv_id
)
SELECT md5(full_text) AS fingerprint,
       min(conv_id) AS keep_conv_id,
       count(*) AS n_dups
FROM conv GROUP BY 1
"""


register("conversation_dedup_exact", conversation_dedup_exact, sql=_conversation_dedup_sql())
