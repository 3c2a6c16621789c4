"""Benchmark decontamination: flag training docs that overlap an eval set.

Before training, web corpora are scrubbed of documents that share long
n-grams with evaluation benchmarks (GPT-3 App. C used 13-gram overlap;
The Pile and PaLM used similar rules) — otherwise test questions leak
into the training set and benchmark numbers are meaningless. The shape
differs from in-corpus dedup (:mod:`.spans`): the reference side is a
FIXED, small eval set, so this is a broadcast semi-join, not a shuffle.

Distributed shape (zero exchanges on the corpus side):

1. the eval set here is the deterministic ``md5(doc_id)`` top bucket
   (≥ {BENCH_BUCKET_MIN} %, the same bucket rule as :mod:`.sampling`) —
   a stand-in for real benchmark files; its distinct word-8-gram hashes
   (the :mod:`.spans` 60-bit md5-prefix contract) are collected once and
   ``ray.put`` broadcast as ONE sorted int64 array. Real eval suites are
   a few MB of text, so the broadcast side is bounded by construction at
   any corpus scale — the CCNet-broadcast property;
2. one ``map_batches`` pass over the training docs builds each block's
   gram hashes vectorized (shared :func:`.spans._gram_rows` kernel) and
   probes the sorted array with ``np.searchsorted``; per-doc totals
   reduce inside the block (a doc never spans blocks), so the output
   rides the input blocks — no shuffle, no join.

Output: (doc_id, n_grams, n_hits, contaminated) for every TRAINING doc;
``contaminated`` = at least one 8-gram also occurs in the eval set. Docs
with fewer than 8 tokens have ``n_grams = 0`` and are clean by
definition. Real pipelines then filter ``NOT contaminated``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .queryset import register, table_path
from .sampling import _bucket_sql, _hash_bucket
from .spans import NGRAM_N, _gram_rows

BENCH_BUCKET_MIN = 95  # md5 buckets [95, 100) form the stand-in eval set


def _eval_gram_hashes(sf_dir: str) -> np.ndarray:
    """Sorted distinct 8-gram hashes of the eval-bucket docs (bounded by
    the fixed-size eval set, never the corpus)."""

    def pick(batch: pa.Table) -> pa.Table:
        keep = pa.array(_hash_bucket(batch["doc_id"]) >= BENCH_BUCKET_MIN)
        return batch.filter(keep)

    rows = (
        ray.data.read_parquet(table_path(sf_dir, "documents"), columns=["doc_id", "text"])
        .map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(_gram_rows, batch_format="pyarrow", zero_copy_batch=True)
        .select_columns(["h"])
    )
    parts = [
        b["h"].to_numpy(zero_copy_only=False)
        for b in rows.iter_batches(batch_format="pyarrow")
    ]
    if not parts:
        return np.array([], dtype=np.int64)
    return np.unique(np.concatenate(parts))


def docs_decontaminate(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_grams, n_hits, contaminated) over the training docs."""
    ref = ray.put(_eval_gram_hashes(sf_dir))

    def score(batch: pa.Table) -> pa.Table:
        keep = pa.array(_hash_bucket(batch["doc_id"]) < BENCH_BUCKET_MIN)
        batch = batch.filter(keep)
        doc_ids = batch["doc_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        n_docs = len(doc_ids)
        n_grams = np.zeros(n_docs, dtype=np.int64)
        n_hits = np.zeros(n_docs, dtype=np.int64)
        grams = _gram_rows(batch)
        if grams.num_rows:
            gram_doc = grams["doc_id"].to_numpy(zero_copy_only=False)
            hs = grams["h"].to_numpy(zero_copy_only=False)
            bench = ray.get(ref)
            if len(bench):
                pos = np.searchsorted(bench, hs)
                pos = np.minimum(pos, len(bench) - 1)
                hit = bench[pos] == hs
            else:
                hit = np.zeros(len(hs), dtype=bool)
            # per-doc reduce inside the block: map gram rows back to the
            # block-local doc index (doc_ids ascend within a parquet block,
            # but searchsorted needs no order on gram_doc itself)
            order = np.argsort(doc_ids, kind="stable")
            idx = order[np.searchsorted(doc_ids[order], gram_doc)]
            np.add.at(n_grams, idx, 1)
            np.add.at(n_hits, idx, hit.astype(np.int64))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "n_grams": pa.array(n_grams, type=pa.int64()),
                "n_hits": pa.array(n_hits, type=pa.int64()),
                "contaminated": pa.array(n_hits > 0),
            }
        )

    return ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def _decontam_oracle_sql() -> str:
    n = NGRAM_N
    return rf"""
WITH toks AS (
  SELECT doc_id,
         {_bucket_sql()} AS bucket,
         trim(regexp_replace(text, '\s+', ' ', 'g')) AS tr,
         string_split(trim(regexp_replace(text, '\s+', ' ', 'g')), ' ') AS tl
  FROM documents
),
series AS (SELECT unnest(range(1, (SELECT coalesce(max(len(tl)), 1) + 1 FROM toks))) AS i),
bench_grams AS (
  SELECT DISTINCT
    ('0x' || substr(md5(array_to_string(tl[i:i+{n - 1}], ' ')), 1, 15))::UBIGINT::BIGINT AS h
  FROM toks JOIN series ON tr <> '' AND i <= len(tl) - {n - 1}
  WHERE bucket >= {BENCH_BUCKET_MIN}
),
train_grams AS (
  SELECT doc_id,
    ('0x' || substr(md5(array_to_string(tl[i:i+{n - 1}], ' ')), 1, 15))::UBIGINT::BIGINT AS h
  FROM toks JOIN series ON tr <> '' AND i <= len(tl) - {n - 1}
  WHERE bucket < {BENCH_BUCKET_MIN}
),
hits AS (
  SELECT g.doc_id, count(*) AS n_grams,
         CAST(sum(CASE WHEN b.h IS NULL THEN 0 ELSE 1 END) AS BIGINT) AS n_hits
  FROM train_grams g LEFT JOIN bench_grams b USING (h)
  GROUP BY g.doc_id
)
SELECT t.doc_id,
       coalesce(h.n_grams, 0) AS n_grams,
       coalesce(h.n_hits, 0) AS n_hits,
       coalesce(h.n_hits, 0) > 0 AS contaminated
FROM toks t LEFT JOIN hits h USING (doc_id)
WHERE t.bucket < {BENCH_BUCKET_MIN}
"""


register("docs_decontaminate", docs_decontaminate, sql=_decontam_oracle_sql())
