"""Overlapping context-window chunking of documents.

Training pipelines slice documents into model-context-sized windows with
an overlap stride (the Hugging Face ``return_overflowing_tokens`` shape)
so no token is seen only at a window edge. This is the row-expanding
cousin of :mod:`.packing` (which concatenates SHORT docs up to a budget;
this splits LONG docs down to one).

Chunk rule (mirrored exactly in SQL): tokens are the whitespace-collapse
split of :mod:`.spans`; window k covers tokens ``[k·stride, k·stride +
max_tokens)``; window 0 exists whenever the doc has tokens, and window
k ≥ 1 exists iff the previous window did not already reach the end
(``(k-1)·stride + max_tokens < n``) — so every chunk contributes at
least one new token and short docs yield exactly one chunk.

Distributed shape: pure ``flat_map``-style row expansion inside ONE
``map_batches`` pass — no exchange, no state; output rides the input
blocks. Each output row carries its (doc_id, chunk_idx) lineage so
downstream stages can regroup windows per document.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .queryset import register, table_path

CHUNK_TOKENS = 32  # window size, in tokens
CHUNK_STRIDE = 24  # window start step (overlap = CHUNK_TOKENS - CHUNK_STRIDE)


def _chunk_batch(batch: pa.Table, max_tokens: int, stride: int) -> pa.Table:
    text = pc.fill_null(batch["text"], "")
    collapsed = pc.replace_substring_regex(text, pattern=r"\s+", replacement=" ")
    trimmed = pc.utf8_trim(collapsed, " ")
    doc_ids = batch["doc_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    out_doc, out_idx, out_start, out_n, out_text = [], [], [], [], []
    for doc_id, t in zip(doc_ids, trimmed.to_pylist()):
        if not t:
            continue
        toks = t.split(" ")
        n = len(toks)
        k = 0
        while k == 0 or (k - 1) * stride + max_tokens < n:
            s = k * stride
            window = toks[s : s + max_tokens]
            out_doc.append(doc_id)
            out_idx.append(k)
            out_start.append(s)
            out_n.append(len(window))
            out_text.append(" ".join(window))
            k += 1
    return pa.table(
        {
            "doc_id": pa.array(out_doc, type=pa.int64()),
            "chunk_idx": pa.array(out_idx, type=pa.int64()),
            "start_tok": pa.array(out_start, type=pa.int64()),
            "n_tokens": pa.array(out_n, type=pa.int64()),
            "chunk_text": pa.array(out_text, type=pa.string()),
        }
    )


def docs_chunks(
    sf_dir: str, max_tokens: int = CHUNK_TOKENS, stride: int = CHUNK_STRIDE
) -> "ray.data.Dataset":
    """(doc_id, chunk_idx, start_tok, n_tokens, chunk_text) windows."""

    def f(batch: pa.Table) -> pa.Table:
        return _chunk_batch(batch, max_tokens, stride)

    return ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def _chunks_oracle_sql(
    max_tokens: int = CHUNK_TOKENS, stride: int = CHUNK_STRIDE
) -> str:
    return rf"""
WITH toks AS (
  SELECT doc_id,
         trim(regexp_replace(text, '\s+', ' ', 'g')) AS tr,
         string_split(trim(regexp_replace(text, '\s+', ' ', 'g')), ' ') AS tl
  FROM documents
),
ks AS (SELECT unnest(range(0, (SELECT coalesce(max(len(tl)), 1) FROM toks))) AS k)
SELECT doc_id, k AS chunk_idx, k * {stride} AS start_tok,
       len(tl[k * {stride} + 1 : k * {stride} + {max_tokens}]) AS n_tokens,
       array_to_string(tl[k * {stride} + 1 : k * {stride} + {max_tokens}], ' ')
         AS chunk_text
FROM toks JOIN ks
  ON tr <> ''
 AND (k = 0 OR (k - 1) * {stride} + {max_tokens} < len(tl))
"""


register("docs_chunks", docs_chunks, sql=_chunks_oracle_sql())
