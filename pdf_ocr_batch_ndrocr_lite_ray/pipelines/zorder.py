"""Z-order (Morton) layout keys for multi-dimensional read pruning.

Petabyte-scale tables prune reads by sorting the layout on a
space-filling curve over the columns queries filter on (the technique
behind Delta/Iceberg OPTIMIZE ZORDER; cf. the petabyte-repartition
literature): interleave the bits of the dimension keys so rows close in
EVERY dimension land in the same file/row-group, and min-max footer
stats prune both dimensions at once.

This operator computes the curve key — (doc_id, zkey) over the two
dimensions a documents-table query actually filters on, ``n_chars``
(range predicates) and ``source`` (equality) — as a pure embarrassingly-
parallel map, and ``write_zordered_layout`` delivers the capability the
key exists for: ``sort(zkey).write_parquet`` into bounded row groups, so
parquet footer min-max stats prune BOTH dimensions at once (a test
asserts the z-ordered layout matches strictly fewer row groups than the
same data laid out in insertion order under a 2-D predicate). The key,
being the part that must be EXACT and stable forever (rewriting history
breaks pruning), carries the SQL oracle.

Key construction (16 bits per dimension, so the key fits easily in
int64): ``x`` = n_chars clamped to [0, 65535]; ``y`` = the first 2 md5
hex digits of source × 256 (dictionary dimension spread across the
curve); zkey interleaves x into even bits, y into odd bits.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from .queryset import register, table_path

_BITS = 16


def _interleave(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Morton-interleave two uint16 vectors into int64 (x even, y odd)."""
    z = np.zeros(len(x), dtype=np.int64)
    for b in range(_BITS):
        z |= ((x >> b) & 1).astype(np.int64) << (2 * b)
        z |= ((y >> b) & 1).astype(np.int64) << (2 * b + 1)
    return z


def docs_zorder_key(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, zkey): the Morton layout key over (n_chars, source)."""
    ds = ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "source", "n_chars"]
    )

    return ds.map_batches(_key_columns, batch_format="pandas").map_batches(
        lambda t: t.select(["doc_id", "zkey"]), batch_format="pyarrow"
    )


def _key_columns(df: pd.DataFrame) -> pd.DataFrame:
    """Append the zkey column to a documents batch (all columns pass through)."""
    import hashlib

    x = np.clip(df["n_chars"].to_numpy(dtype=np.int64), 0, 65535).astype(np.int64)
    # first md5 byte of source, scaled to use the full 16-bit range; pairs
    # with SQL ('0x' || substr(md5(coalesce(source, 'None')), 1, 2))::INT
    # * 256 — the coalesce mirrors Python's str(None) == 'None' so a NULL
    # source gets the SAME bucket in both engines (md5(NULL) would be NULL)
    srcs = {s: int(hashlib.md5(str(s).encode()).hexdigest()[:2], 16) * 256
            for s in df["source"].unique()}
    y = df["source"].map(srcs).to_numpy(dtype=np.int64)
    # the map owns its pandas batch — assign in place rather than deep-copy
    # the full text payload just to append one int column
    df["zkey"] = _interleave(x, y)
    return df


def write_zordered_layout(
    sf_dir: str, out_dir: str, rows_per_group: int = 64
) -> str:
    """Write the documents table z-ordered on (n_chars, source).

    ``sort(zkey)`` is the one global all-to-all this module performs — by
    design: a layout rewrite IS a shuffle, run once so that every later read
    prunes. Bounded row groups (``rows_per_group``) give the parquet footer
    stats the granularity pruning needs; output is a partitioned directory
    of bounded files rather than one giant file. (A failed rewrite re-runs
    whole — resumable writes belong to the checkpointed extraction sink,
    ``state/checkpoint.py``; a layout rewrite is idempotent so re-running
    is safe, just not incremental.)
    """
    ds = ray.data.read_parquet(table_path(sf_dir, "documents"))
    (
        ds.map_batches(_key_columns, batch_format="pandas")
        .sort("zkey")
        .write_parquet(
            out_dir,
            min_rows_per_file=rows_per_group * 4,
            row_group_size=rows_per_group,
        )
    )
    return out_dir


def matching_row_groups(
    layout_dir: str, n_chars_range: tuple[int, int], source: str
) -> tuple[int, int]:
    """(matching, total) row groups whose footer min-max stats overlap the
    2-D predicate ``n_chars BETWEEN lo AND hi AND source = s`` — exactly the
    test a parquet reader's predicate pushdown performs, so "fewer matching
    row groups" is literally "fewer pages read"."""
    from pathlib import Path

    import pyarrow.parquet as pq

    lo, hi = n_chars_range
    matching = total = 0
    for f in sorted(Path(layout_dir).glob("*.parquet")):
        meta = pq.ParquetFile(f).metadata
        schema_names = [meta.schema.column(i).name for i in range(meta.num_columns)]
        i_n = schema_names.index("n_chars")
        i_s = schema_names.index("source")
        for g in range(meta.num_row_groups):
            total += 1
            st_n = meta.row_group(g).column(i_n).statistics
            st_s = meta.row_group(g).column(i_s).statistics
            # a stats object can exist with NO min/max (all-null group —
            # e.g. 64+ NULL sources z-cluster together); treat it like
            # missing stats, exactly as a parquet reader would
            n_overlaps = (
                st_n is None
                or not st_n.has_min_max
                or (st_n.min <= hi and st_n.max >= lo)
            )
            s_overlaps = (
                st_s is None
                or not st_s.has_min_max
                or (st_s.min <= source <= st_s.max)
            )
            if n_overlaps and s_overlaps:
                matching += 1
    return matching, total


def _zorder_sql() -> str:
    # unrolled bit interleave: SQL has no loops, but 16 bits × 2 dims is a
    # fixed 32-term sum of shifts — exactly reproducible. coalesce mirrors
    # the Python path's str(None) bucketing of NULL sources (ADVICE r3).
    terms = []
    for b in range(_BITS):
        terms.append(f"(((x >> {b}) & 1) << {2 * b})")
        terms.append(f"(((y >> {b}) & 1) << {2 * b + 1})")
    expr = " + ".join(terms)
    return f"""
WITH dims AS (
  SELECT doc_id,
         least(greatest(n_chars, 0), 65535)::BIGINT AS x,
         (('0x' || substr(md5(coalesce(source, 'None')), 1, 2))::INT * 256)::BIGINT AS y
  FROM documents
)
SELECT doc_id, CAST({expr} AS BIGINT) AS zkey FROM dims
"""


register("docs_zorder_key", docs_zorder_key, sql=_zorder_sql())
