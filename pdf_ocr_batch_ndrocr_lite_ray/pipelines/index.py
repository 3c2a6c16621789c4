"""Distributed inverted-index build: term → document frequency + postings.

The retrieval-side primitive of a training-data stack (BM25 lookup,
decontamination probes, keyword corpus slicing all start from postings
lists). Shape:

- per input block: EXPLODE text into DISTINCT (term, doc_id) pairs — each
  document lives in exactly one block, so per-block distinct is globally
  distinct and only (term, doc_id) rows ride the exchange, never text;
- ONE hash exchange co-locates each term's pairs; the partition emits
  ``df`` (exact document frequency) and the postings list CAPPED at the
  first ``POSTINGS_CAP`` doc_ids ascending — stop-word-grade terms would
  otherwise produce rows as wide as the corpus (the same bound rationale
  as the dedup df-cap; ``df`` stays exact, only the stored list is cut).

At 100 TB the term key is Zipfian: a stop-word's pair rows concentrate in
one partition, but the per-pair payload is 12 bytes and the cap keeps the
OUTPUT row bounded; the two-phase refinement (per-block partial top-cap
then merge, which composes because first-k-ascending is mergeable) is the
documented escalation if even the pair rows of one term outgrow a
partition.

Terms are the ``[a-z]+`` lowercase tokens shared with the tf-idf/PMI
family (`text_analysis.py`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from .exchange import hash_partitioned
from .queryset import register, table_path

#: postings stored per term (first N doc_ids ascending); df stays exact
POSTINGS_CAP = 32


def docs_inverted_index(sf_dir: str, cap: int = POSTINGS_CAP) -> "ray.data.Dataset":
    """(term, df, postings): exact df per term plus the first ``cap``
    doc_ids ascending, comma-joined."""
    ds = ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        terms = (
            df["text"]
            .fillna("")
            .str.lower()
            .str.findall(r"[a-z]+")
        )
        out = pd.DataFrame(
            {"doc_id": df["doc_id"].repeat(terms.str.len()), "term": terms.explode().dropna()}
        )
        return out.drop_duplicates(ignore_index=True)

    def build(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for term, g in part.groupby("term", sort=True):
            ids = np.sort(g["doc_id"].to_numpy())
            rows.append(
                (term, len(ids), ",".join(str(int(i)) for i in ids[:cap]))
            )
        return pd.DataFrame(rows, columns=["term", "df", "postings"]) if rows else pd.DataFrame(
            {
                "term": pd.Series(dtype="object"),
                "df": pd.Series(dtype="int64"),
                "postings": pd.Series(dtype="object"),
            }
        )

    return hash_partitioned(
        ds.map_batches(pairs, batch_format="pandas"), "term", build
    )


INVERTED_INDEX_SQL = f"""
WITH toks AS (
  SELECT DISTINCT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents
),
ranked AS (
  SELECT term, doc_id,
         row_number() OVER (PARTITION BY term ORDER BY doc_id) AS r
  FROM toks
)
SELECT term, count(*) AS df,
       string_agg(CASE WHEN r <= {POSTINGS_CAP} THEN CAST(doc_id AS VARCHAR) END,
                  ',' ORDER BY doc_id) AS postings
FROM ranked GROUP BY term
"""

register("docs_inverted_index", docs_inverted_index, sql=INVERTED_INDEX_SQL)
