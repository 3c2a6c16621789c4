"""Shared exchange helpers for grouped work over Ray Datasets."""

from __future__ import annotations

import pyarrow as pa

import ray.data

from .extraction import package_remote_args

_GROUP_PARTITIONS = 64


def rename(ds: "ray.data.Dataset", mapping: dict[str, str]) -> "ray.data.Dataset":
    """Rename via an Arrow projection; ``Dataset.rename_columns`` breaks on
    pandas-format blocks (map_groups output)."""

    def f(t: pa.Table) -> pa.Table:
        return t.rename_columns([mapping.get(c, c) for c in t.column_names])

    return ds.map_batches(f, batch_format="pyarrow")


def enum_group_sum(ds: "ray.data.Dataset", keys: list[str], sums: list[str]):
    """Final merge for BOUNDED-cardinality grouped sums → pandas DataFrame.

    ``ds`` holds per-batch partial rows (≤ #groups per input block). Ray's
    sort-based ``groupby().aggregate(Sum)`` pays seconds of fixed all-to-all
    task overhead to shuffle a few KB of enum-keyed partials (measured:
    2-6 s per query on counts over ≤ 25 groups). When the key cardinality
    is bounded (enums: action, content kind, split, lang, nation, funnel
    step), streaming the partials to the driver and folding them is both
    faster and scale-safe: the driver holds the running merged frame plus
    one batch — ≤ #groups × (64 + 1) rows at any moment, independent of
    corpus size. NOT for unbounded keys (use ``hash_partitioned``).
    """
    return enum_group_agg(ds, keys, {c: "sum" for c in sums})


#: distinct-group ceiling for the driver-side enum fold — far above any enum
#: (largest real user: 24 hourly buckets × types), far below anything that
#: could balloon driver memory. A high-cardinality caller fails loud with
#: the reroute named, instead of silently accumulating an unbounded merged
#: frame.
MAX_ENUM_GROUPS = 100_000


def enum_group_agg(
    ds: "ray.data.Dataset",
    keys: list[str],
    aggs: dict,
    max_groups: int = MAX_ENUM_GROUPS,
):
    """``enum_group_sum`` generalized to any fold-associative pandas agg
    per column (``{"n": "sum", "lo": "min", "hi": "max"}``)."""
    import pandas as pd

    def _guard(merged: "pd.DataFrame") -> "pd.DataFrame":
        if len(merged) > max_groups:
            raise ValueError(
                f"enum_group_agg: {len(merged):,} distinct groups exceeds the "
                f"driver-fold ceiling ({max_groups:,}) — the key "
                f"{keys} is not enum-bounded; use hash_partitioned (one "
                "exchange, grouped work in-partition) instead"
            )
        return merged

    cols = list(aggs)
    parts: list = []
    for b in ds.iter_batches(batch_size=65_536, batch_format="pandas"):
        parts.append(b.groupby(keys, sort=False)[cols].agg(aggs).reset_index())
        if len(parts) >= 64:  # re-fold so driver memory stays ~#groups rows
            parts = [
                _guard(
                    pd.concat(parts)
                    .groupby(keys, sort=False)[cols]
                    .agg(aggs)
                    .reset_index()
                )
            ]
    if not parts:
        return pd.DataFrame(columns=[*keys, *cols])
    return _guard(
        pd.concat(parts).groupby(keys, sort=True)[cols].agg(aggs).reset_index()
    )


def int64_array(col: "pa.Array | pa.ChunkedArray"):
    """Zero-copy-ish int64 numpy view of an Arrow integer column."""
    import numpy as np

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def list_matrix(col: "pa.Array | pa.ChunkedArray"):
    """2-D float64 matrix view of a list<float> column without Python boxing.

    Replaces the ``to_pylist()`` → ``np.asarray`` pattern (per-element boxing
    on the hottest columns). Zero rows → shape ``(0, 0)``; callers that index
    ``shape[1]`` should early-return on empty batches first.
    """
    import numpy as np

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.zeros((0, 0), dtype=np.float64)
    if pa.types.is_fixed_size_list(col.type):
        width = col.type.list_size
        flat = col.flatten().to_numpy(zero_copy_only=False)
        return flat.astype(np.float64, copy=False).reshape(len(col), width)
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    widths = np.diff(offsets)
    if widths.size and (widths != widths[0]).any():
        raise ValueError("ragged list column cannot form a matrix")
    width = int(widths[0]) if widths.size else 0
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return flat.astype(np.float64, copy=False).reshape(len(col), width)


def crc32_codes(col: "pa.Array | pa.ChunkedArray"):
    """int64 crc32 of each string value, vectorized over the DICTIONARY:
    the Python loop runs once per DISTINCT value, then a gather through the
    dictionary indices maps codes to rows. Null values take the code of
    dictionary slot 0 — callers that must segregate nulls mask them with
    ``pc.is_null`` afterwards (``add_pid`` does)."""
    import zlib

    import numpy as np
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    if len(enc.dictionary) == 0:
        return np.zeros(len(col), dtype=np.int64)
    uniq = np.fromiter(
        (zlib.crc32(str(k).encode()) for k in enc.dictionary.to_pylist()),
        dtype=np.int64,
        count=len(enc.dictionary),
    )
    idx = pc.fill_null(enc.indices, 0).to_numpy(zero_copy_only=False)
    return uniq[idx]


def hash_partitioned(
    ds: "ray.data.Dataset", key: str, per_partition,
    num_partitions: int = _GROUP_PARTITIONS, coalesce_rows: int | None = None,
) -> "ray.data.Dataset":
    """Apply ``per_partition(df)`` once per hash partition of ``key``.

    ``groupby(key).map_groups`` pays per-group task/DataFrame overhead —
    ruinous when groups are tiny and numerous (LSH buckets: ~16×n_docs
    groups, almost all singletons). Partitioning by ``hash(key)`` first
    gives every group to exactly one partition, and ``per_partition``
    iterates groups in-process with plain pandas. Same exchange volume,
    ~1000× fewer task invocations.
    """
    import numpy as np
    import pyarrow.compute as pc

    def add_pid(batch: pa.Table) -> pa.Table:
        col = batch[key]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # The code path is chosen from the SCHEMA TYPE only — never from the
        # batch's null count. If the path depended on per-batch nulls, the
        # same key value would hash differently in different batches (Knuth
        # vs crc32) and a group would silently split across partitions.
        if pa.types.is_integer(col.type):
            # vectorized Knuth multiplicative hash — the per-row Python
            # crc32 loop dominates at millions of pair rows. int64→uint64
            # reinterpretation keeps negative keys well-defined; null keys
            # all route to the fixed partition 0.
            vals = (
                pc.fill_null(col, 0)
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
                .astype(np.uint64)
            )
            pid_np = (
                (vals * np.uint64(2654435761)) >> np.uint64(16)
            ) % np.uint64(num_partitions)
            pid_np = pid_np.astype(np.int32)
            if col.null_count:
                pid_np[pc.is_null(col).to_numpy(zero_copy_only=False)] = 0
            pid = pa.array(pid_np, type=pa.int32())
        else:
            # string keys: crc32 over the DICTIONARY (unique values) via the
            # shared crc32_codes helper — the Python loop runs once per
            # distinct key in the batch, not once per row (measured ~6x on
            # the 791k-row conversation exchange). Nulls route to pid 0.
            pid_np = (crc32_codes(col) % num_partitions).astype(np.int32)
            if col.null_count:
                pid_np[pc.is_null(col).to_numpy(zero_copy_only=False)] = 0
            pid = pa.array(pid_np, type=pa.int32())
        return batch.append_column("_pid", pid)

    def run_partition(df):
        out = per_partition(df)
        # the partition id is internal plumbing: never let it leak into a
        # per_partition result that passes input columns through
        if "_pid" in out.columns:
            out = out.drop(columns=["_pid"])
        return out

    # ``coalesce_rows``: bundle tiny upstream blocks (one per read task
    # when the input is a partial-emitting map stage) into ~that many-row
    # batches before the sort — the shuffle pays per-(block × partition)
    # metadata overhead that dwarfs the data cost on hundreds of small
    # blocks.
    remote_args = package_remote_args()
    if coalesce_rows is not None:
        ds = ds.map_batches(
            lambda t: t, batch_format="pyarrow", batch_size=coalesce_rows,
            **remote_args,
        )
    return (
        ds.map_batches(add_pid, batch_format="pyarrow", **remote_args)
        .groupby("_pid")
        .map_groups(run_partition, batch_format="pandas", **remote_args)
    )


def driver_topk_fold(ds: "ray.data.Dataset", by: list, ascending: list, k: int):
    """Global top-k rows under a total sort key, WITHOUT a global sort:
    each block emits its local top-k (mergeable — the global top-k is a
    subset of the union of local top-ks), and the driver folds the ≤
    k × blocks candidate rows keeping only k. Returns a pandas DataFrame.
    Driver memory: ≤ k + one block's k at any moment."""
    import pandas as pd

    def local_top(df):
        return df.sort_values(by, ascending=ascending).head(k)

    best = None
    for b in ds.map_batches(local_top, batch_format="pandas").iter_batches(
        batch_size=65_536, batch_format="pandas"
    ):
        best = b if best is None else pd.concat([best, b])
        best = best.sort_values(by, ascending=ascending).head(k)
    return best


def half_up_int64(v):
    """Half-away-from-zero integer quantization of a pre-scaled float array
    (the cents/e6/e9 fixed-point contracts' final step — DuckDB
    ``CAST(round(x) AS BIGINT)`` parity; numpy's own round is half-even)."""
    import numpy as np

    return (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)


def int64_out(s):
    """Nullable int64 Arrow OUTPUT column from a pandas key/value series.

    The Arrow→pandas conversion of the result then matches DuckDB's
    ``.df()`` exactly (int64 when null-free, float64+NaN when not), so the
    value-hash contract holds at every scale and on NULL fixtures. A
    null-free integer column passes through exactly — keys above 2^53 stay
    intact; only a column that actually carries NULLs takes the float64
    path, where pandas has already widened upstream.
    """
    import numpy as np
    import pyarrow as pa

    if s.dtype.kind in "iu":
        return pa.array(s.to_numpy(dtype=np.int64, copy=False), type=pa.int64())
    na = s.isna().to_numpy()
    vals = np.nan_to_num(s.to_numpy(dtype=np.float64)).astype(np.int64)
    return pa.array(vals, mask=na, type=pa.int64())


def round6(v):
    """Half-away-from-zero rounding to 6 decimals — matches DuckDB
    ``round(x, 6)`` (numpy's own round is half-even). THE one copy of the
    output-quantization contract shared by every float-emitting operator."""
    import numpy as np

    return np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6


def footer_min_max(path: str, column: str):
    """Exact (min, max) of a parquet column from ROW-GROUP FOOTER stats —
    zero scan. Returns ``None`` when any row group lacks stats (caller
    falls back to a distributed Min/Max fold) or every group is all-NULL.
    NULL values never contribute (parquet stats exclude them), matching
    SQL ``min``/``max``."""
    import pyarrow.parquet as _pq

    md = _pq.ParquetFile(path).metadata
    if md.num_row_groups == 0:
        return None
    col_idx = next(
        (
            j
            for j in range(md.num_columns)
            if md.row_group(0).column(j).path_in_schema == column
        ),
        None,
    )
    if col_idx is None:
        return None
    mn = mx = None
    for i in range(md.num_row_groups):
        st = md.row_group(i).column(col_idx).statistics
        if st is None or not st.has_min_max:
            return None
        if st.num_values:
            mn = st.min if mn is None else min(mn, st.min)
            mx = st.max if mx is None else max(mx, st.max)
    if mn is None:
        return None
    return mn, mx
