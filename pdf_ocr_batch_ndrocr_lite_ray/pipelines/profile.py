"""Distributed table profiling: per-column nulls, distincts, min/max.

The data-validation primitive every 100 TB ingest runs before training
(the Deequ / TFDV "column statistics" pass, cf. Schelter et al., VLDB
2018): one streaming pass over the table producing, for every column,
the row count, null count, a deterministic KMV distinct-count sketch,
and typed min/max. No reference analog (the reference profiles nothing);
this is a §2.11 extension operator.

Shape: per-block partials → bounded driver fold. Each block emits ONE
row per column carrying (counts, k-min hash sketch, typed min/max) — all
mergeable — so the exchange volume is #columns × (k + constants) per
block and the driver holds #columns × k values, independent of table
size. No shuffle at all.

Numeric contract: the KMV sketch hashes the STRINGIFIED value with md5
(→ first 8 bytes as uint64), exactly reproducible in DuckDB as
``('0x' || substr(md5(CAST(v AS VARCHAR)), 1, 16))::UBIGINT``; min/max
merge on TYPED values (numeric for int columns, lexicographic for
strings — identical to SQL ``min``/``max`` because memcmp over UTF-8
preserves code-point order) and stringify only in the final row.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .queryset import register, table_path
from .sketches import KMV_K, _kmv_hash, kmv_estimate, kmv_estimate_sql, kmv_merge

#: documents-table columns profiled, with their merge type
PROFILE_COLUMNS: dict[str, str] = {
    "doc_id": "int",
    "text": "str",
    "lang": "str",
    "source": "str",
    "n_chars": "int",
}


def _empty_profile(columns: dict[str, str]) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "col": pd.Series(list(columns), dtype="object"),
            "n_rows": pd.Series([0] * len(columns), dtype="int64"),
            "n_nulls": pd.Series([0] * len(columns), dtype="int64"),
            "n_distinct_kmv": pd.Series([0] * len(columns), dtype="int64"),
            "min_val": pd.Series([None] * len(columns), dtype="object"),
            "max_val": pd.Series([None] * len(columns), dtype="object"),
        }
    )


def _block_profile(t: pa.Table, columns: dict[str, str]) -> pa.Table:
    cols, n_rows, n_nulls, sketches, min_i, max_i, min_s, max_s = (
        [], [], [], [], [], [], [], [],
    )
    for col, kind in columns.items():
        c = t[col]
        vals = [v for v in c.to_pylist() if v is not None]
        if kind == "float_e6":
            # 1e-6 fixed point, round half AWAY from zero — the exact op
            # chain DuckDB's round(CAST(x AS DOUBLE) * 1000000) performs, so
            # the quantized ints (and everything derived: distincts, min/max)
            # are engine-identical. numpy's own round is half-even; don't.
            a = np.asarray(vals, dtype=np.float64) * 1e6
            # a validator must FAIL on the anomalies it exists to surface,
            # not coerce them: NaN/inf/overflow would silently become
            # INT64_MIN here while the SQL oracle raises a conversion error
            if len(a) and (~np.isfinite(a) | (np.abs(a) >= 2.0**63)).any():
                raise ValueError(
                    f"column {col!r} has NaN/inf or |v| >= 2^63/1e6 — "
                    "outside the float_e6 quantization contract"
                )
            vals = (np.sign(a) * np.floor(np.abs(a) + 0.5)).astype(np.int64).tolist()
        distinct = sorted({str(v) for v in vals})
        smallest = np.unique(_kmv_hash(distinct))[:KMV_K]
        cols.append(col)
        n_rows.append(len(c))
        n_nulls.append(len(c) - len(vals))
        sketches.append(smallest.tolist())
        if kind in ("int", "float_e6"):
            min_i.append(min(vals) if vals else None)
            max_i.append(max(vals) if vals else None)
            min_s.append(None)
            max_s.append(None)
        else:
            min_i.append(None)
            max_i.append(None)
            min_s.append(min(vals) if vals else None)
            max_s.append(max(vals) if vals else None)
    return pa.table(
        {
            "col": pa.array(cols, type=pa.string()),
            "n_rows": pa.array(n_rows, type=pa.int64()),
            "n_nulls": pa.array(n_nulls, type=pa.int64()),
            "min_hashes": pa.array(sketches, type=pa.list_(pa.uint64())),
            "min_int": pa.array(min_i, type=pa.int64()),
            "max_int": pa.array(max_i, type=pa.int64()),
            "min_str": pa.array(min_s, type=pa.string()),
            "max_str": pa.array(max_s, type=pa.string()),
        }
    )


def profile_table(sf_dir: str, table: str, columns: dict[str, str]) -> pd.DataFrame:
    """(col, n_rows, n_nulls, n_distinct_kmv, min_val, max_val) per column.

    ``columns`` maps column name → merge kind: ``"int"`` (numeric min/max),
    ``"str"`` (lexicographic), or ``"float_e6"`` (profiled at 1e-6
    fixed-point resolution — raw float/timestamp stringification differs
    between Python and DuckDB, so floats join the value-oracle surface
    through the quantization contract and timestamps stay rejected until
    they have one).
    """
    bad = {c: k for c, k in columns.items() if k not in ("int", "str", "float_e6")}
    if bad:
        raise ValueError(f"unsupported profile column kinds: {bad}")
    ds = ray.data.read_parquet(table_path(sf_dir, table)).map_batches(
        lambda t: _block_profile(t, columns),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # bounded driver fold: one running partial per column (#cols × k state)
    acc: dict[str, dict] = {}
    for b in ds.iter_batches(batch_size=4096, batch_format="pyarrow"):
        for i in range(b.num_rows):
            col = b["col"][i].as_py()
            a = acc.setdefault(
                col,
                {
                    "n_rows": 0,
                    "n_nulls": 0,
                    "hashes": np.empty(0, dtype=np.uint64),
                    "min": None,
                    "max": None,
                },
            )
            a["n_rows"] += b["n_rows"][i].as_py()
            a["n_nulls"] += b["n_nulls"][i].as_py()
            h = np.asarray(b["min_hashes"][i].as_py(), dtype=np.uint64)
            a["hashes"] = kmv_merge(a["hashes"], h)
            numeric = columns[col] in ("int", "float_e6")
            lo = (b["min_int"] if numeric else b["min_str"])[i].as_py()
            hi = (b["max_int"] if numeric else b["max_str"])[i].as_py()
            if lo is not None:
                a["min"] = lo if a["min"] is None else min(a["min"], lo)
            if hi is not None:
                a["max"] = hi if a["max"] is None else max(a["max"], hi)
    if not acc:
        return _empty_profile(columns)
    out = _empty_profile(columns)
    for j, col in enumerate(columns):
        a = acc[col]
        est = kmv_estimate(a["hashes"])
        out.loc[j, "n_rows"] = a["n_rows"]
        out.loc[j, "n_nulls"] = a["n_nulls"]
        out.loc[j, "n_distinct_kmv"] = int(np.floor(est + 0.5))
        out.loc[j, "min_val"] = None if a["min"] is None else str(a["min"])
        out.loc[j, "max_val"] = None if a["max"] is None else str(a["max"])
    return out


def docs_profile(sf_dir: str) -> pd.DataFrame:
    """The registered documents-table profile (driver-oracled instance of
    the generic ``profile_table``)."""
    return profile_table(sf_dir, "documents", PROFILE_COLUMNS)


#: events-table profile: value joins via the float_e6 quantization contract;
#: ts (timestamp) stays out until a stringification contract exists
EVENTS_PROFILE_COLUMNS: dict[str, str] = {
    "event_id": "int",
    "user_id": "int",
    "event_type": "str",
    "value": "float_e6",
}


def events_profile(sf_dir: str) -> pd.DataFrame:
    return profile_table(sf_dir, "events", EVENTS_PROFILE_COLUMNS)


def _profile_sql(table: str, columns: dict[str, str]) -> str:
    # one UNION ALL branch per column; the KMV replay is the same
    # md5-substring trick the oracled sketches already use. float_e6
    # columns profile the quantized BIGINT (round() on DOUBLE is half-away
    # in DuckDB — the engine mirrors it with sign*floor(abs+0.5)).
    parts = []
    for col, kind in columns.items():
        # CAST to DOUBLE FIRST: a REAL/FLOAT column would otherwise multiply
        # at float32 precision in DuckDB while the engine widens to float64
        # (the repo-wide float-parity rule; measured: 18,702/20,000 random
        # float32 values quantize differently without the cast)
        expr = (
            f"CAST(round(CAST({col} AS DOUBLE) * 1000000) AS BIGINT)"
            if kind == "float_e6"
            else col
        )
        # `qv` below already holds the (possibly quantized) distinct value —
        # hash its stringification, never re-apply expr to the alias
        hv = "md5(CAST(qv AS VARCHAR))" if kind in ("int", "float_e6") else "md5(qv)"
        parts.append(f"""
SELECT '{col}' AS col,
       (SELECT count(*) FROM {table}) AS n_rows,
       (SELECT count(*) - count({col}) FROM {table}) AS n_nulls,
       (SELECT {kmv_estimate_sql()}
        FROM (SELECT count(*) AS n, max(hv) AS kth
              FROM (SELECT ('0x' || substr({hv}, 1, 16))::UBIGINT AS hv
                    FROM (SELECT DISTINCT {expr} AS qv FROM {table} WHERE {col} IS NOT NULL)
                    ORDER BY hv LIMIT {KMV_K}))) AS n_distinct_kmv,
       (SELECT CAST(min({expr}) AS VARCHAR) FROM {table}) AS min_val,
       (SELECT CAST(max({expr}) AS VARCHAR) FROM {table}) AS max_val
""")
    return " UNION ALL ".join(parts)


register("docs_profile", docs_profile, sql=_profile_sql("documents", PROFILE_COLUMNS))
register(
    "events_profile", events_profile, sql=_profile_sql("events", EVENTS_PROFILE_COLUMNS)
)


#: equal-width bins for the source-drift KS statistic
KS_BINS = 1024


def source_drift_ks(sf_dir: str) -> "pd.DataFrame":
    """(source_a, source_b, ks_e6): two-sample Kolmogorov–Smirnov distance
    between every source pair's document-length distribution — the
    distribution-drift monitor a mixture curator alarms on.

    Exact for the BINNED distributions: lengths map to equal-width integer
    bins (pure int arithmetic, identical in numpy and DuckDB for
    non-negative values); per-block (source, bin) count partials fold over
    the bounded #sources × KS_BINS enum, and every pairwise
    D = max |CDF_a − CDF_b| is driver arithmetic on exact integer counts
    through one shared IEEE chain (cum/total per bin, difference, max) —
    bit-equal to the SQL twin. One column-pruned scan plus a min/max
    pre-pass; nothing shuffles. Contract: rows with NULL source or NULL
    n_chars are excluded on both sides; the max over the full bin grid
    equals the max over occupied bins because a step CDF only changes at
    occupied bins.
    """
    import pyarrow.compute as pc

    from .exchange import enum_group_sum

    source = ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["source", "n_chars"]
    )

    # min/max pre-pass under the SAME contract filter as the bin pass —
    # a global extreme on an excluded (NULL-source) row would shift the
    # bin domain away from the oracle's
    def mm_partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch["source"]), pc.is_valid(batch["n_chars"])
        )
        n = batch.filter(keep)["n_chars"]
        mn, mx = pc.min(n).as_py(), pc.max(n).as_py()
        if mn is None:
            return pa.table({"lo": pa.array([], type=pa.int64()),
                             "hi": pa.array([], type=pa.int64())})
        return pa.table({"lo": pa.array([mn], type=pa.int64()),
                         "hi": pa.array([mx], type=pa.int64())})

    lo_hi = [
        (int(v_lo), int(v_hi))
        for b in source.map_batches(
            mm_partial, batch_format="pyarrow", zero_copy_batch=True
        ).iter_batches(batch_format="pandas")
        for v_lo, v_hi in zip(b["lo"], b["hi"])
    ]
    lo = min((p[0] for p in lo_hi), default=None)
    hi = max((p[1] for p in lo_hi), default=None)
    empty = pd.DataFrame(
        {
            "source_a": pd.Series([], dtype="object"),
            "source_b": pd.Series([], dtype="object"),
            "ks_e6": pd.Series([], dtype="int64"),
        }
    )
    if lo is None or hi is None:
        return empty
    lo, hi = int(lo), int(hi)
    width = hi - lo + 1

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch["source"]), pc.is_valid(batch["n_chars"])
        )
        batch = batch.filter(keep)
        n = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        bins = (n - lo) * KS_BINS // width
        t = pa.table(
            {
                "source": batch["source"],
                "bin": pa.array(bins, type=pa.int64()),
                "n": pa.array(np.ones(len(bins), dtype=np.int64)),
            }
        )
        g = t.group_by(["source", "bin"]).aggregate([("n", "sum")])
        return g.rename_columns(["source", "bin", "n"])

    counts = enum_group_sum(
        source.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["source", "bin"],
        ["n"],
    )
    if len(counts) == 0:
        return empty
    cdfs: dict[str, np.ndarray] = {}
    for src, g in counts.groupby("source", sort=True):
        hist = np.zeros(KS_BINS, dtype=np.int64)
        hist[g["bin"].to_numpy()] = g["n"].to_numpy()
        cum = np.cumsum(hist)
        cdfs[src] = cum.astype(np.float64) / np.float64(cum[-1])

    rows_a, rows_b, rows_ks = [], [], []
    srcs = sorted(cdfs)
    for i, sa in enumerate(srcs):
        for sb in srcs[i + 1 :]:
            d = float(np.max(np.abs(cdfs[sa] - cdfs[sb])))
            rows_a.append(sa)
            rows_b.append(sb)
            rows_ks.append(int(np.floor(d * 1e6 + 0.5)))
    return pd.DataFrame(
        {
            "source_a": pd.Series(rows_a, dtype="object"),
            "source_b": pd.Series(rows_b, dtype="object"),
            "ks_e6": pd.Series(rows_ks, dtype="int64"),
        }
    )


SOURCE_DRIFT_KS_SQL = f"""
WITH m AS (
  SELECT min(n_chars) AS lo, max(n_chars) AS hi FROM documents
  WHERE source IS NOT NULL AND n_chars IS NOT NULL
),
b AS (
  SELECT source, (n_chars - lo) * {KS_BINS} // (hi - lo + 1) AS bin
  FROM documents, m WHERE source IS NOT NULL AND n_chars IS NOT NULL
),
c AS (SELECT source, bin, count(*) AS n FROM b GROUP BY 1, 2),
t AS (SELECT source, sum(n) AS tot FROM c GROUP BY 1),
grid AS (
  SELECT s.source, g.bin
  FROM (SELECT DISTINCT source FROM c) s, (SELECT DISTINCT bin FROM c) g
),
f AS (
  SELECT grid.source, grid.bin, coalesce(c.n, 0) AS n
  FROM grid LEFT JOIN c ON grid.source = c.source AND grid.bin = c.bin
),
cdf AS (
  SELECT f.source, f.bin,
         CAST(sum(f.n) OVER (PARTITION BY f.source ORDER BY f.bin) AS DOUBLE)
         / CAST(t.tot AS DOUBLE) AS p
  FROM f JOIN t ON f.source = t.source
)
SELECT a.source AS source_a, b.source AS source_b,
       CAST(floor(max(abs(a.p - b.p)) * 1e6 + 0.5) AS BIGINT) AS ks_e6
FROM cdf a JOIN cdf b ON a.bin = b.bin AND a.source < b.source
GROUP BY 1, 2
"""

register("source_drift_ks", source_drift_ks, sql=SOURCE_DRIFT_KS_SQL)


# --- chi-square independence: event_type × hour-of-day ----------------------

#: fixed-point scale for the chi-square statistic's per-cell terms
CHI2_SCALE = 1_000_000


def events_type_hour_chi2(sf_dir: str) -> "pa.Table":
    """One-row (chi2_e6, dof, n_obs): Pearson chi-square independence
    statistic of event_type × hour-of-day — the seasonality/skew monitor a
    mixture curator alarms on (X103, companion to the KS drift X100).

    Exact under the fixed-point contract: observed counts fold over the
    bounded #types × 24 enum (one column-pruned scan, no shuffle); each
    cell's term ((obs − e)² / e, e = row·col/N in float64) is quantized to
    1e-6 BEFORE the sum, so the total is an ORDER-FREE integer sum —
    bit-equal to the SQL twin, which quantizes per cell through the same
    IEEE chain. The grid is observed-marginals × observed-marginals
    (every present type × every present hour, zero cells included); rows
    with NULL ts or NULL event_type are excluded on both sides.
    """
    import pyarrow.compute as pc

    from .exchange import enum_group_sum

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["ts", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["event_type"]))
        batch = batch.filter(keep)
        t = pa.table(
            {
                "t": batch["event_type"],
                "h": pc.hour(batch["ts"]).cast(pa.int64()),
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        g = t.group_by(["t", "h"]).aggregate([("n", "sum")])
        return g.rename_columns(["t", "h", "n"])

    counts = enum_group_sum(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["t", "h"],
        ["n"],
    )
    schema = pa.schema(
        [("chi2_e6", pa.int64()), ("dof", pa.int64()), ("n_obs", pa.int64())]
    )
    if len(counts) == 0:
        # mirror the SQL twin's empty-input row exactly: aggregates over an
        # empty cell set are NULL, (count(*)-1)² over empty marginals is 1
        return pa.table(
            {
                "chi2_e6": pa.array([None], type=pa.int64()),
                "dof": pa.array([1], type=pa.int64()),
                "n_obs": pa.array([None], type=pa.int64()),
            },
            schema=schema,
        )
    obs = (
        counts.pivot_table(index="t", columns="h", values="n", fill_value=0)
        .to_numpy()
        .astype(np.float64)
    )
    rn = obs.sum(axis=1)  # exact: integer-valued float64 sums
    cn = obs.sum(axis=0)
    n = np.float64(obs.sum())
    # per-cell chain shared with the SQL twin: e = (r*c)/n, term =
    # ((obs-e)*(obs-e)/e)*1e6, half-up floor — all elementwise float64
    e = (rn[:, None] * cn[None, :]) / n
    term = ((obs - e) * (obs - e) / e) * np.float64(CHI2_SCALE)
    q = np.floor(term + 0.5).astype(np.int64)
    dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    return pa.table(
        {
            "chi2_e6": pa.array([int(q.sum())], type=pa.int64()),
            "dof": pa.array([int(dof)], type=pa.int64()),
            "n_obs": pa.array([int(n)], type=pa.int64()),
        },
        schema=schema,
    )


EVENTS_TYPE_HOUR_CHI2_SQL = f"""
WITH f AS (
  SELECT event_type AS t, hour(ts) AS h FROM events
  WHERE ts IS NOT NULL AND event_type IS NOT NULL
),
c AS (SELECT t, h, count(*) AS n FROM f GROUP BY 1, 2),
rt AS (SELECT t, sum(n) AS rn FROM c GROUP BY 1),
ct AS (SELECT h, sum(n) AS cn FROM c GROUP BY 1),
tot AS (SELECT CAST(sum(n) AS DOUBLE) AS n FROM c),
cells AS (
  SELECT coalesce(c.n, 0) AS obs,
         (CAST(rt.rn AS DOUBLE) * CAST(ct.cn AS DOUBLE)) / (SELECT n FROM tot) AS e
  FROM rt CROSS JOIN ct
  LEFT JOIN c ON rt.t = c.t AND ct.h = c.h
)
SELECT
  CAST(sum(CAST(floor(
    ((CAST(obs AS DOUBLE) - e) * (CAST(obs AS DOUBLE) - e) / e) * {CHI2_SCALE} + 0.5
  ) AS BIGINT)) AS BIGINT) AS chi2_e6,
  (SELECT (count(*) - 1) FROM rt) * (SELECT (count(*) - 1) FROM ct) AS dof,
  (SELECT CAST(n AS BIGINT) FROM tot) AS n_obs
FROM cells
"""

register("events_type_hour_chi2", events_type_hour_chi2, sql=EVENTS_TYPE_HOUR_CHI2_SQL)


# --- per-source Gini concentration index (X106) ------------------------------

#: int64 headroom bound for the rank-weighted sum: per source,
#: S1 = Σ i·x_i ≤ n²·max_x must stay below 2^62 — checked per group, raise
#: (never silently wrap), mirroring the X98 moment-fold discipline.
_GINI_S1_BOUND = 1 << 62


def docs_gini_by_source(sf_dir: str) -> "ray.data.Dataset":
    """(source, gini_e6, n, total_chars): exact Gini coefficient of the
    document-length distribution per source — the inequality /
    concentration monitor (is one crawl dominated by a few huge pages?).

    Exact integer order statistics: one hash exchange on ``source``
    co-locates each source's lengths; the partition sorts ascending and
    folds the two integer moments S0 = Σx and S1 = Σ i·x_i (rank-weighted,
    invariant to tie order because tied values are equal). Gini =
    2·S1/(n·S0) − (n+1)/n is then a THREE-step float64 chain shared with
    the SQL twin and quantized e6 — bit-equal. Rows with NULL source or
    NULL n_chars are excluded on both sides. Per-group sort is the same
    per-key order-stat discipline as the window family; nothing reaches
    the driver.
    """
    from .exchange import hash_partitioned as _hash_partitioned

    def gini_partition(df: "pd.DataFrame") -> pa.Table:
        schema = pa.schema(
            [
                ("source", pa.string()),
                ("gini_e6", pa.int64()),
                ("n", pa.int64()),
                ("total_chars", pa.int64()),
            ]
        )
        df = df.dropna(subset=["source", "n_chars"])
        if len(df) == 0:
            return schema.empty_table()
        out_src, out_g, out_n, out_s0 = [], [], [], []
        for src, g in df.groupby("source", sort=True):
            x = np.sort(g["n_chars"].to_numpy(dtype=np.int64))
            n = x.size
            if n * n * int(x[-1] if n else 0) >= _GINI_S1_BOUND:
                raise OverflowError(
                    f"docs_gini_by_source: rank-weighted sum for source "
                    f"{src!r} (n={n}, max={int(x[-1])}) exceeds int64 headroom"
                )
            s0 = int(x.sum())
            s1 = int((np.arange(1, n + 1, dtype=np.int64) * x).sum())
            out_src.append(src)
            if s0 == 0:
                # all-zero lengths: 0/0 — the SQL twin's NaN chain casts to
                # a NULL gini; emit NULL, never crash on a NaN→int cast
                out_g.append(None)
            else:
                # shared IEEE chain with the SQL twin: t1 = (2*S1)/(n*S0),
                # t2 = (n+1)/n, g = t1 - t2, half-up e6
                t1 = (2.0 * np.float64(s1)) / (np.float64(n) * np.float64(s0))
                t2 = (np.float64(n) + 1.0) / np.float64(n)
                out_g.append(int(np.floor((t1 - t2) * 1e6 + 0.5)))
            out_n.append(n)
            out_s0.append(s0)
        return pa.table(
            {
                "source": pa.array(out_src, type=pa.string()),
                "gini_e6": pa.array(out_g, type=pa.int64()),
                "n": pa.array(out_n, type=pa.int64()),
                "total_chars": pa.array(out_s0, type=pa.int64()),
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["source", "n_chars"]
    )
    return _hash_partitioned(ds, "source", gini_partition)


DOCS_GINI_BY_SOURCE_SQL = """
WITH r AS (
  SELECT source, n_chars,
         row_number() OVER (PARTITION BY source ORDER BY n_chars) AS i
  FROM documents WHERE source IS NOT NULL AND n_chars IS NOT NULL
),
a AS (
  SELECT source, count(*) AS n, sum(n_chars) AS s0, sum(i * n_chars) AS s1
  FROM r GROUP BY 1
)
SELECT source,
  CAST(floor((
    (2.0 * CAST(s1 AS DOUBLE)) / (CAST(n AS DOUBLE) * CAST(s0 AS DOUBLE))
    - (CAST(n AS DOUBLE) + 1.0) / CAST(n AS DOUBLE)
  ) * 1e6 + 0.5) AS BIGINT) AS gini_e6,
  n, CAST(s0 AS BIGINT) AS total_chars
FROM a
"""

register("docs_gini_by_source", docs_gini_by_source, sql=DOCS_GINI_BY_SOURCE_SQL)


# --- per-user event-type entropy (X108) ---------------------------------------

#: fixed-point scale for per-term entropy quantization (nats × 1e9); terms
#: quantize BEFORE the per-user sum so the total is an order-free integer
#: sum — same discipline as the chi-square's per-cell e6 contract.
ENTROPY_SCALE = 1_000_000_000


def _mode_count_partial(batch: pa.Table) -> pa.Table:
    """Per-block (user_id, event_type, n) counts: duplicates collapse
    before the shuffle, so the exchange carries distinct pairs, not rows."""
    g = (
        batch.select(["user_id", "event_type"])
        .group_by(["user_id", "event_type"])
        .aggregate([([], "count_all")])
    )
    return g.rename_columns(["user_id", "event_type", "n"])


def user_type_entropy(sf_dir: str) -> "ray.data.Dataset":
    """(user_id, entropy_e9, n_events): Shannon entropy (nats, e9 fixed
    point) of each user's event-type distribution — the behavioral
    diversity signal (0 for single-type bots, high for organic mixes),
    the grouped companion of ``docs_char_entropy``.

    Per-block (user, type) count partials collapse duplicates before the
    shuffle (``_mode_count_partial``); one hash exchange on the key makes
    in-partition sums exact global counts; each term −p·ln(p) is computed
    through the shared libm/IEEE chain and quantized e9 BEFORE the
    per-user sum, so engine and SQL totals are bit-equal integers. NULL
    event_type is a category (SQL GROUP BY keeps it); NULL users form one
    group via the window-partition twin.
    """
    from .exchange import hash_partitioned as _hash_partitioned
    from .exchange import int64_out as _int64_key_array

    def entropy_partition(df: "pd.DataFrame") -> pa.Table:
        schema = pa.schema(
            [
                ("user_id", pa.int64()),
                ("entropy_e9", pa.int64()),
                ("n_events", pa.int64()),
            ]
        )
        if len(df) == 0:
            return schema.empty_table()
        g = (
            df.groupby(["user_id", "event_type"], sort=False, dropna=False)["n"]
            .sum()
            .reset_index()
        )
        tot = g.groupby("user_id", sort=False, dropna=False)["n"].transform("sum")
        p = g["n"].to_numpy(dtype=np.float64) / tot.to_numpy(dtype=np.float64)
        # shared chain with the SQL twin: ((-p) * ln(p)) * 1e9, half-up floor
        term = np.floor(((-p) * np.log(p)) * np.float64(ENTROPY_SCALE) + 0.5).astype(
            np.int64
        )
        out = (
            g.assign(_term=term, _tot=tot)
            .groupby("user_id", sort=False, dropna=False)
            .agg(entropy_e9=("_term", "sum"), n_events=("_tot", "max"))
            .reset_index()
        )
        return pa.table(
            {
                "user_id": _int64_key_array(out["user_id"]),
                "entropy_e9": pa.array(
                    out["entropy_e9"].to_numpy(dtype=np.int64), type=pa.int64()
                ),
                "n_events": pa.array(
                    out["n_events"].to_numpy(dtype=np.int64), type=pa.int64()
                ),
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "event_type"]
    )
    partials = ds.map_batches(
        _mode_count_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return _hash_partitioned(partials, "user_id", entropy_partition)


USER_TYPE_ENTROPY_SQL = f"""
WITH c AS (
  SELECT user_id, event_type, count(*) AS c FROM events GROUP BY 1, 2
),
w AS (
  SELECT user_id, c, sum(c) OVER (PARTITION BY user_id) AS n FROM c
)
SELECT user_id,
  CAST(sum(CAST(floor(
    ((-(CAST(c AS DOUBLE) / CAST(n AS DOUBLE)))
     * ln(CAST(c AS DOUBLE) / CAST(n AS DOUBLE))) * {ENTROPY_SCALE} + 0.5
  ) AS BIGINT)) AS BIGINT) AS entropy_e9,
  CAST(max(n) AS BIGINT) AS n_events
FROM w GROUP BY user_id
"""

register("user_type_entropy", user_type_entropy, sql=USER_TYPE_ENTROPY_SQL)


# --- daily-series autocorrelation (X131) -------------------------------------

#: autocorrelation lags reported (days)
ACF_MAX_LAG = 7


def orders_daily_autocorrelation(sf_dir: str) -> "pd.DataFrame":
    """(lag, r_e6): lag-1..7 autocorrelation of the DAILY order-count
    series — the weekly-seasonality / burstiness probe over the order
    stream (a strong lag-7 spike means day-of-week cycling; near-zero
    everywhere means a memoryless arrival process).

    Exactness contract: the day series is the DENSE integer-day grid
    [min_day, max_day] with missing days = 0 (both engines build the same
    grid). With S = Σx and N = grid length, the centered series
    c_t = N·x_t − S is integer; r_k = Σ c_t·c_{t+k} / Σ c_t² is a ratio
    of EXACT integers (Python ints on the driver, HUGEINT sums in the
    SQL twin), pushed through one shared IEEE division and the e6
    floor(x·1e6 + 0.5) quantization — bit-equal by construction.

    Scale shape: per-block (day, n) count partials fold through the
    bounded enum exchange (days are time-range-bounded regardless of
    corpus size); the driver's exact integer pass runs over that ≤ #days
    frame, never over order rows.
    """
    import pyarrow.compute as pc

    from .exchange import enum_group_sum

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch["o_orderdate"]))
        days = pc.divide(pc.cast(t["o_orderdate"], pa.int64()), DAY_US)
        g = pa.table({"day": days}).group_by(["day"]).aggregate([("day", "count")])
        return g.rename_columns(["day", "n"])

    ds = ray.data.read_parquet(
        table_path(sf_dir, "orders"), columns=["o_orderdate"]
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    folded = enum_group_sum(ds, ["day"], ["n"])
    empty = pd.DataFrame(
        {"lag": pd.Series([], dtype="int64"), "r_e6": pd.Series([], dtype="int64")}
    )
    if len(folded) == 0:
        return empty
    days = folded["day"].to_numpy(dtype=np.int64)
    counts = folded["n"].to_numpy(dtype=np.int64)
    mn, mx = int(days.min()), int(days.max())
    dense = np.zeros(mx - mn + 1, dtype=np.int64)
    dense[days - mn] = counts
    n_days = dense.size
    # exact integer arithmetic via Python ints (c_t can exceed int64 at
    # corpus scale: N·x_t with x_t ~ rows/day)
    xs = [int(v) for v in dense]
    s = sum(xs)
    c = [n_days * v - s for v in xs]
    den = sum(v * v for v in c)
    rows = []
    for k in range(1, ACF_MAX_LAG + 1):
        if den == 0 or k >= n_days:
            continue  # constant series or lag beyond range: SQL emits no row
        num = sum(c[t] * c[t + k] for t in range(n_days - k))
        r = float(num) / float(den)
        rows.append((k, int(np.floor(r * 1e6 + 0.5))))
    if not rows:
        return empty
    out = pd.DataFrame(rows, columns=["lag", "r_e6"])
    return out.astype({"lag": "int64", "r_e6": "int64"})


ORDERS_DAILY_AUTOCORRELATION_SQL = f"""
WITH d AS (
  SELECT CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT) AS day,
         CAST(count(*) AS BIGINT) AS n
  FROM orders WHERE o_orderdate IS NOT NULL GROUP BY 1
),
b AS (SELECT min(day) AS mn, max(day) AS mx FROM d),
g AS (SELECT unnest(generate_series(mn, mx)) AS day FROM b),
x AS (
  SELECT g.day, coalesce(d.n, 0) AS n FROM g LEFT JOIN d USING (day)
),
s AS (SELECT CAST(count(*) AS BIGINT) AS nn, CAST(sum(n) AS BIGINT) AS sm FROM x),
c AS (
  SELECT x.day, CAST(s.nn * x.n - s.sm AS HUGEINT) AS ct FROM x, s
),
den AS (SELECT sum(ct * ct) AS dd FROM c),
lags AS (SELECT unnest(generate_series(1, {ACF_MAX_LAG})) AS lag),
num AS (
  SELECT l.lag, sum(a.ct * b2.ct) AS nu
  FROM lags l
  JOIN c a ON TRUE
  JOIN c b2 ON b2.day = a.day + l.lag
  GROUP BY l.lag
)
SELECT CAST(num.lag AS BIGINT) AS lag,
       CAST(floor(CAST(num.nu AS DOUBLE) / CAST(den.dd AS DOUBLE) * 1e6 + 0.5)
            AS BIGINT) AS r_e6
FROM num, den
WHERE den.dd <> 0
"""

register(
    "orders_daily_autocorrelation",
    orders_daily_autocorrelation,
    sql=ORDERS_DAILY_AUTOCORRELATION_SQL,
)


def lineitem_benford_digits(sf_dir: str) -> "pd.DataFrame":
    """(digit, n, freq_e6, benford_e6): leading-digit profile of
    ``l_extendedprice`` against Benford's law — the fraud/synthetic-data
    smell test a 100 TB ingest runs on any money-like column (naturally
    grown multiplicative quantities follow log10(1+1/d); fabricated or
    truncated feeds don't).

    Exactness contract: prices quantize to integer cents by the shared
    ``floor(v*100 + 0.5)`` rule (identical IEEE multiply/floor in both
    engines); the leading digit of a POSITIVE int is exact in numpy via an
    int64 power-of-ten table (no float log in the hot path) and exact in
    SQL via ``substr(CAST(x AS VARCHAR), 1, 1)``. ``freq_e6`` divides two
    exact integers through one shared IEEE division; ``benford_e6`` is
    ``log10(1 + 1/d)`` evaluated by libm on both sides (math.log10 here,
    DuckDB std::log10 there) on bit-identical arguments.

    Scale shape: per-block 9-bin bincount partials → bounded enum fold
    (≤ 9 rows ever cross); zero shuffle, driver holds 9 rows.
    """
    import math

    import pyarrow.compute as pc

    from .exchange import enum_group_sum

    # 10^1 .. 10^18: digitize(x, pows) = #digits(x) - 1 for int64 x >= 1
    pows = 10 ** np.arange(1, 19, dtype=np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        col = batch["l_extendedprice"]
        v = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        x = v.to_numpy(zero_copy_only=False)
        x = x[~np.isnan(x)]
        cents = np.floor(x * 100.0 + 0.5)
        cents = cents[cents > 0].astype(np.int64)
        if cents.size == 0:
            return pa.table(
                {"digit": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        # digitize(x, pows) = #digits(x) - 1 for 1 <= x < 10^18; 10^18
        # still fits int64 so the power table never overflows.
        lead = cents // 10 ** np.digitize(cents, pows).astype(np.int64)
        counts = np.bincount(lead, minlength=10)[1:10]
        digits = np.arange(1, 10, dtype=np.int64)
        keep = counts > 0
        return pa.table(
            {
                "digit": pa.array(digits[keep], pa.int64()),
                "n": pa.array(counts[keep].astype(np.int64), pa.int64()),
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "lineitem"), columns=["l_extendedprice"]
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    folded = enum_group_sum(ds, ["digit"], ["n"])
    empty = pd.DataFrame(
        {
            "digit": pd.Series(dtype="int64"),
            "n": pd.Series(dtype="int64"),
            "freq_e6": pd.Series(dtype="int64"),
            "benford_e6": pd.Series(dtype="int64"),
        }
    )
    if len(folded) == 0:
        return empty
    folded = folded.sort_values("digit").reset_index(drop=True)
    tot = int(folded["n"].sum())
    freq = [
        int(math.floor(float(int(n)) / float(tot) * 1e6 + 0.5))
        for n in folded["n"]
    ]
    benford = [
        int(math.floor(math.log10(1.0 + 1.0 / float(int(d))) * 1e6 + 0.5))
        for d in folded["digit"]
    ]
    out = folded.assign(freq_e6=freq, benford_e6=benford)
    return out.astype(
        {"digit": "int64", "n": "int64", "freq_e6": "int64", "benford_e6": "int64"}
    )


LINEITEM_BENFORD_SQL = """
WITH c AS (
  SELECT CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS cents
  FROM lineitem
  WHERE l_extendedprice IS NOT NULL
    AND floor(l_extendedprice * 100 + 0.5) > 0
),
d AS (SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit FROM c),
g AS (SELECT digit, CAST(count(*) AS BIGINT) AS n FROM d GROUP BY digit),
t AS (SELECT CAST(sum(n) AS BIGINT) AS tot FROM g)
SELECT g.digit, g.n,
       CAST(floor(CAST(g.n AS DOUBLE) / CAST(t.tot AS DOUBLE) * 1e6 + 0.5)
            AS BIGINT) AS freq_e6,
       CAST(floor(log10(1.0 + 1.0 / CAST(g.digit AS DOUBLE)) * 1e6 + 0.5)
            AS BIGINT) AS benford_e6
FROM g, t
"""

register("lineitem_benford_digits", lineitem_benford_digits, sql=LINEITEM_BENFORD_SQL)


US_PER_DAY = 86_400_000_000  # microseconds per day (epoch-us -> day index)

SHIP_DELAY_QS = (0.5, 0.9, 0.99)


def orders_ship_delay_profile(sf_dir: str) -> "pd.DataFrame":
    """(o_orderpriority, n, neg_n, min_delay, p50, p90, p99, max_delay,
    mean_e6): the fulfillment-SLA / data-integrity profile of ship-date
    minus order-date per priority class — exact counting quantiles plus
    the impossible-row counter (``neg_n`` = lines shipped BEFORE their
    order date, the classic broken-feed smell).

    Exactness contract: the day delta is pure int64 arithmetic
    (``epoch_us // us_per_day`` each side, identical to DuckDB
    ``datediff('day', ...)`` on post-1970 timestamps); quantiles are the
    smallest delay whose cumulative count reaches ``q * n`` (one shared
    IEEE multiply per (priority, q)); ``mean_e6`` divides two exact
    integers through one shared IEEE division, ``floor(x*1e6+0.5)``.

    Scale shape: both fact tables pre-reduce per block — lineitem to
    (orderkey, ship_day, n) collapsed pairs, orders to stub rows — and
    are unioned into ONE ``hash_partitioned`` exchange on orderkey, so an
    order and all of its lines land in the same partition (the
    ``is_order`` flag tells the two sides apart); each partition joins
    locally and emits bounded (priority, delay) partials, so the second
    hop is an enum fold whose
    cardinality is priorities x distinct day deltas (guarded by
    MAX_ENUM_GROUPS). The driver holds that bounded table only.
    """
    import pyarrow.compute as pc

    from .exchange import enum_group_sum, hash_partitioned

    def line_side(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"key": batch["l_orderkey"], "sday": batch["l_shipdate"]}
        ).filter(pc.is_valid(batch["l_shipdate"]))
        sday = pc.cast(
            pc.floor(pc.divide(pc.cast(t["sday"], pa.int64()), US_PER_DAY)),
            pa.int64(),
        )
        g = (
            pa.table({"key": t["key"], "sday": sday, "n": pa.array(np.ones(t.num_rows, dtype=np.int64))})
            .group_by(["key", "sday"])
            .aggregate([("n", "sum")])
        )
        m = g.num_rows
        return pa.table(
            {
                "key": g["key"],
                "day": g["sday"],
                "n": g["n_sum"],
                "prio": pa.array([None] * m, type=pa.string()),
                "is_order": pa.array([False] * m, type=pa.bool_()),
            }
        )

    def order_side(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch["o_orderdate"]), pc.is_valid(batch["o_orderpriority"])
        )
        t = batch.filter(keep)
        oday = pc.cast(
            pc.floor(pc.divide(pc.cast(t["o_orderdate"], pa.int64()), US_PER_DAY)),
            pa.int64(),
        )
        m = t.num_rows
        return pa.table(
            {
                "key": t["o_orderkey"],
                "day": oday,
                "n": pa.array(np.zeros(m, dtype=np.int64)),
                "prio": t["o_orderpriority"],
                "is_order": pa.array([True] * m, type=pa.bool_()),
            }
        )

    lines = ray.data.read_parquet(
        table_path(sf_dir, "lineitem"), columns=["l_orderkey", "l_shipdate"]
    ).map_batches(line_side, batch_format="pyarrow", zero_copy_batch=True)
    orders = ray.data.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(order_side, batch_format="pyarrow", zero_copy_batch=True)

    def local_delays(df: "pd.DataFrame") -> "pd.DataFrame":
        ords = df[df["is_order"]]
        lns = df[~df["is_order"]]
        if len(ords) == 0 or len(lns) == 0:
            return pd.DataFrame(
                {
                    "prio": pd.Series(dtype="object"),
                    "delay": pd.Series(dtype="int64"),
                    "n": pd.Series(dtype="int64"),
                }
            )
        oday = dict(zip(ords["key"], ords["day"]))
        oprio = dict(zip(ords["key"], ords["prio"]))
        hit = lns[lns["key"].isin(oday)].copy()
        if len(hit) == 0:
            return pd.DataFrame(
                {
                    "prio": pd.Series(dtype="object"),
                    "delay": pd.Series(dtype="int64"),
                    "n": pd.Series(dtype="int64"),
                }
            )
        hit["delay"] = hit["day"].astype("int64") - hit["key"].map(oday).astype("int64")
        hit["prio"] = hit["key"].map(oprio)
        out = (
            hit.groupby(["prio", "delay"], sort=False)["n"].sum().reset_index()
        )
        return out.astype({"delay": "int64", "n": "int64"})

    folded = enum_group_sum(
        hash_partitioned(lines.union(orders), "key", local_delays,
                         coalesce_rows=1 << 20),
        ["prio", "delay"],
        ["n"],
    )
    cols = {
        "o_orderpriority": "object", "n": "int64", "neg_n": "int64",
        "min_delay": "int64", "p50": "int64", "p90": "int64",
        "p99": "int64", "max_delay": "int64", "mean_e6": "int64",
    }
    if len(folded) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    rows = []
    for prio, g in folded.groupby("prio", sort=True):
        g = g.sort_values("delay").reset_index(drop=True)
        cnt = g["n"].to_numpy(dtype=np.int64)
        dly = g["delay"].to_numpy(dtype=np.int64)
        n = int(cnt.sum())
        cum = np.cumsum(cnt)
        qv = [int(dly[np.searchsorted(cum, q * n)]) for q in SHIP_DELAY_QS]
        s = sum(int(d) * int(c) for d, c in zip(dly, cnt))  # exact Python int
        rows.append(
            {
                "o_orderpriority": prio,
                "n": n,
                "neg_n": int(cnt[dly < 0].sum()),
                "min_delay": int(dly[0]),
                "p50": qv[0],
                "p90": qv[1],
                "p99": qv[2],
                "max_delay": int(dly[-1]),
                "mean_e6": int(np.floor(float(s) / float(n) * 1e6 + 0.5)),
            }
        )
    return pd.DataFrame(rows).astype(cols)


ORDERS_SHIP_DELAY_SQL = """
WITH j AS (
  SELECT o_orderpriority AS prio,
         datediff('day', o_orderdate, l_shipdate) AS delay
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  WHERE l_shipdate IS NOT NULL AND o_orderdate IS NOT NULL
    AND o_orderpriority IS NOT NULL
),
g AS (SELECT prio, delay, CAST(count(*) AS BIGINT) AS c FROM j GROUP BY prio, delay),
t AS (
  SELECT prio, CAST(sum(c) AS BIGINT) AS n,
         sum(CAST(delay AS HUGEINT) * c) AS s,
         CAST(min(delay) AS BIGINT) AS min_delay,
         CAST(max(delay) AS BIGINT) AS max_delay,
         CAST(coalesce(sum(c) FILTER (WHERE delay < 0), 0) AS BIGINT) AS neg_n
  FROM g GROUP BY prio
),
cum AS (
  SELECT prio, delay, sum(c) OVER (PARTITION BY prio ORDER BY delay) AS cum
  FROM g
),
q AS (
  SELECT cum.prio,
         CAST(min(delay) FILTER (WHERE cum >= 0.5 * t.n) AS BIGINT) AS p50,
         CAST(min(delay) FILTER (WHERE cum >= 0.9 * t.n) AS BIGINT) AS p90,
         CAST(min(delay) FILTER (WHERE cum >= 0.99 * t.n) AS BIGINT) AS p99
  FROM cum JOIN t ON cum.prio = t.prio GROUP BY cum.prio
)
SELECT t.prio AS o_orderpriority, t.n, t.neg_n, t.min_delay,
       q.p50, q.p90, q.p99, t.max_delay,
       CAST(floor(CAST(t.s AS DOUBLE) / CAST(t.n AS DOUBLE) * 1e6 + 0.5)
            AS BIGINT) AS mean_e6
FROM t JOIN q ON t.prio = q.prio
"""

register(
    "orders_ship_delay_profile", orders_ship_delay_profile,
    sql=ORDERS_SHIP_DELAY_SQL,
)


#: 1e-9 fixed point for per-cell information terms (nats): MI cell terms are
#: O(p · ln ratio) ≤ ~ln N, so e9 keeps 9 significant decimals and the
#: integer sum stays far under 2^63 for any realistic cell count
MI_SCALE = 1_000_000_000


def events_type_hour_mi(sf_dir: str) -> "pa.Table":
    """One-row (mi_e9, ht_e9, hh_e9, n_obs, n_types, n_hours): mutual
    information (nats) between event_type and hour-of-day plus both
    marginal entropies — the dependence-strength companion to the chi2
    independence TEST above (chi2 says "is there dependence", MI says
    "how many bits does the hour tell you about the type"; their ratio
    to the marginal entropies is the normalized-MI a feature selector
    thresholds).

    Exact under the same per-cell fixed-point contract as
    ``events_type_hour_chi2``: observed (type, hour, n) counts fold over
    the bounded enum with zero shuffle; each NONZERO cell's term
    ``(obs/n) * ln(obs*n / (rn*cn))`` and each marginal's ``-p*ln(p)``
    is quantized to 1e-9 BEFORE summing (zero cells contribute exactly
    zero to MI by the 0*ln(0) = 0 convention, so only observed cells are
    evaluated on both engines), making every sum an order-free integer
    sum; ln is the shared libm on bit-identical float64 arguments.
    """
    import pyarrow.compute as pc

    from .exchange import enum_group_sum

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["ts", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["event_type"]))
        batch = batch.filter(keep)
        t = pa.table(
            {
                "t": batch["event_type"],
                "h": pc.hour(batch["ts"]).cast(pa.int64()),
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        g = t.group_by(["t", "h"]).aggregate([("n", "sum")])
        return g.rename_columns(["t", "h", "n"])

    counts = enum_group_sum(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["t", "h"],
        ["n"],
    )
    schema = pa.schema(
        [
            ("mi_e9", pa.int64()),
            ("ht_e9", pa.int64()),
            ("hh_e9", pa.int64()),
            ("n_obs", pa.int64()),
            ("n_types", pa.int64()),
            ("n_hours", pa.int64()),
        ]
    )
    if len(counts) == 0:
        return pa.table(
            {
                "mi_e9": pa.array([None], type=pa.int64()),
                "ht_e9": pa.array([None], type=pa.int64()),
                "hh_e9": pa.array([None], type=pa.int64()),
                "n_obs": pa.array([None], type=pa.int64()),
                "n_types": pa.array([0], type=pa.int64()),
                "n_hours": pa.array([0], type=pa.int64()),
            },
            schema=schema,
        )
    obs = counts["n"].to_numpy(dtype=np.float64)
    rn = counts.groupby("t")["n"].transform("sum").to_numpy(dtype=np.float64)
    cn = counts.groupby("h")["n"].transform("sum").to_numpy(dtype=np.float64)
    n = np.float64(counts["n"].sum())
    term = (obs / n) * np.log((obs * n) / (rn * cn)) * np.float64(MI_SCALE)
    mi = int(np.floor(term + 0.5).astype(np.int64).sum())

    def marg_entropy(col: str) -> int:
        m = counts.groupby(col)["n"].sum().to_numpy(dtype=np.float64)
        p = m / n
        t = -p * np.log(p) * np.float64(MI_SCALE)
        return int(np.floor(t + 0.5).astype(np.int64).sum())

    return pa.table(
        {
            "mi_e9": pa.array([mi], type=pa.int64()),
            "ht_e9": pa.array([marg_entropy("t")], type=pa.int64()),
            "hh_e9": pa.array([marg_entropy("h")], type=pa.int64()),
            "n_obs": pa.array([int(n)], type=pa.int64()),
            "n_types": pa.array([counts["t"].nunique()], type=pa.int64()),
            "n_hours": pa.array([counts["h"].nunique()], type=pa.int64()),
        },
        schema=schema,
    )


EVENTS_TYPE_HOUR_MI_SQL = f"""
WITH f AS (
  SELECT event_type AS t, hour(ts) AS h FROM events
  WHERE ts IS NOT NULL AND event_type IS NOT NULL
),
c AS (SELECT t, h, count(*) AS n FROM f GROUP BY 1, 2),
rt AS (SELECT t, sum(n) AS rn FROM c GROUP BY 1),
ct AS (SELECT h, sum(n) AS cn FROM c GROUP BY 1),
tot AS (SELECT CAST(sum(n) AS DOUBLE) AS n FROM c),
mi AS (
  SELECT sum(CAST(floor(
    (CAST(c.n AS DOUBLE) / tot.n)
    * ln((CAST(c.n AS DOUBLE) * tot.n)
         / (CAST(rt.rn AS DOUBLE) * CAST(ct.cn AS DOUBLE)))
    * {MI_SCALE} + 0.5) AS BIGINT)) AS v
  FROM c JOIN rt ON c.t = rt.t JOIN ct ON c.h = ct.h CROSS JOIN tot
),
ht AS (
  SELECT sum(CAST(floor(
    -(CAST(rn AS DOUBLE) / tot.n) * ln(CAST(rn AS DOUBLE) / tot.n)
    * {MI_SCALE} + 0.5) AS BIGINT)) AS v
  FROM rt CROSS JOIN tot
),
hh AS (
  SELECT sum(CAST(floor(
    -(CAST(cn AS DOUBLE) / tot.n) * ln(CAST(cn AS DOUBLE) / tot.n)
    * {MI_SCALE} + 0.5) AS BIGINT)) AS v
  FROM ct CROSS JOIN tot
)
SELECT CAST((SELECT v FROM mi) AS BIGINT) AS mi_e9,
       CAST((SELECT v FROM ht) AS BIGINT) AS ht_e9,
       CAST((SELECT v FROM hh) AS BIGINT) AS hh_e9,
       (SELECT CAST(n AS BIGINT) FROM tot) AS n_obs,
       (SELECT CAST(count(*) AS BIGINT) FROM rt) AS n_types,
       (SELECT CAST(count(*) AS BIGINT) FROM ct) AS n_hours
"""

register("events_type_hour_mi", events_type_hour_mi, sql=EVENTS_TYPE_HOUR_MI_SQL)


def orders_theil_by_priority(sf_dir: str) -> "pd.DataFrame":
    """(o_orderpriority, n, mean_e2, theil_e9): the Theil-T inequality
    index of order value per priority class — the log-based companion to
    the sort-based Gini (``docs_gini_by_source``): T = (1/n)·Σ (x/μ)·
    ln(x/μ). Unlike Gini it needs NO order statistics, so it costs two
    zero-shuffle scans at any scale, and it decomposes additively across
    sub-populations (why inequality monitors prefer it at 100 TB).

    Exactness contract: pass 1 folds exact integer (n, Σcents) per
    priority; pass 2 evaluates each row's term through the shared IEEE
    chain ``r = (double(cents) * double(n)) / double(S)`` then
    ``r * ln(r)`` (libm), quantized to 1e-9 BEFORE the order-free
    integer sum; ``theil_e9 = floor(sum/n + 0.5)`` and ``mean_e2`` are
    one shared division each. Zero-value rows contribute exactly zero
    (the 0·ln 0 convention, spelled CASE WHEN on both engines); negative
    values are excluded rows (Theil is defined on non-negative support);
    a priority whose total is zero is excluded (μ = 0 undefined).
    """
    import pyarrow.compute as pc

    import ray as ray_core

    from .exchange import enum_group_sum

    path = table_path(sf_dir, "orders")

    def cents_of(t: pa.Table) -> pa.Array:
        return pc.cast(
            pc.round(
                pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                ndigits=0,
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.is_valid(batch["o_orderpriority"]),
            pc.is_valid(batch["o_totalprice"]),
        )
        t = batch.filter(m)
        c = cents_of(t)
        return t.filter(pc.greater_equal(c, 0))

    def partial1(batch: pa.Table) -> pa.Table:
        t = keep(batch)
        g = (
            pa.table(
                {
                    "prio": t["o_orderpriority"],
                    "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                    "s": cents_of(t),
                }
            )
            .group_by(["prio"])
            .aggregate([("n", "sum"), ("s", "sum")])
        )
        return g.rename_columns(["prio", "n", "s"])

    base = enum_group_sum(
        ray.data.read_parquet(
            path, columns=["o_orderpriority", "o_totalprice"]
        ).map_batches(partial1, batch_format="pyarrow", zero_copy_batch=True),
        ["prio"],
        ["n", "s"],
    )
    cols = {
        "o_orderpriority": "object",
        "n": "int64",
        "mean_e2": "int64",
        "theil_e9": "int64",
    }
    base = base[base["s"] > 0].reset_index(drop=True)
    if len(base) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    stat = {
        str(p): (int(n), int(s))
        for p, n, s in zip(base["prio"], base["n"], base["s"])
    }
    ref = ray_core.put(stat)

    def partial2(batch: pa.Table) -> pa.Table:
        st = ray_core.get(ref)
        t = keep(batch)
        prio = t["o_orderpriority"].to_pandas().astype(str)
        x = cents_of(t).to_numpy(zero_copy_only=False).astype(np.float64)
        nv = prio.map(lambda p: st.get(p, (0, 0))[0]).to_numpy(dtype=np.float64)
        sv = prio.map(lambda p: st.get(p, (0, 1))[1]).to_numpy(dtype=np.float64)
        ok = sv > 0
        r = np.zeros_like(x)
        r[ok] = (x[ok] * nv[ok]) / sv[ok]
        term = np.zeros_like(r)
        pos = ok & (r > 0)
        term[pos] = r[pos] * np.log(r[pos]) * 1e9
        q = np.floor(term + 0.5).astype(np.int64)
        g = (
            pd.DataFrame({"prio": prio.to_numpy(), "t9": q})
            .groupby("prio", sort=False)["t9"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "prio": pa.array(g["prio"], pa.string()),
                "t9": pa.array(g["t9"].to_numpy(dtype=np.int64)),
            }
        )

    folded = enum_group_sum(
        ray.data.read_parquet(
            path, columns=["o_orderpriority", "o_totalprice"]
        ).map_batches(partial2, batch_format="pyarrow", zero_copy_batch=True),
        ["prio"],
        ["t9"],
    )
    tmap = dict(zip(folded["prio"].astype(str), folded["t9"]))
    rows = []
    for p in sorted(stat):
        n, s = stat[p]
        rows.append(
            {
                "o_orderpriority": p,
                "n": n,
                "mean_e2": int(np.floor(float(s) / float(n) + 0.5)),
                "theil_e9": int(
                    np.floor(float(int(tmap.get(p, 0))) / float(n) + 0.5)
                ),
            }
        )
    return pd.DataFrame(rows).astype(cols)


ORDERS_THEIL_SQL = """
WITH f AS (
  SELECT o_orderpriority AS prio,
         CAST(round(o_totalprice * 100, 0) AS BIGINT) AS cents
  FROM orders
  WHERE o_orderpriority IS NOT NULL AND o_totalprice IS NOT NULL
    AND round(o_totalprice * 100, 0) >= 0
),
b AS (
  SELECT prio, CAST(count(*) AS BIGINT) AS n, CAST(sum(cents) AS BIGINT) AS s
  FROM f GROUP BY prio HAVING sum(cents) > 0
),
t AS (
  SELECT f.prio,
         sum(CAST(floor(
           CASE WHEN f.cents = 0 THEN 0.0
                ELSE (CAST(f.cents AS DOUBLE) * CAST(b.n AS DOUBLE))
                     / CAST(b.s AS DOUBLE)
                     * ln((CAST(f.cents AS DOUBLE) * CAST(b.n AS DOUBLE))
                          / CAST(b.s AS DOUBLE))
           END * 1e9 + 0.5) AS BIGINT)) AS t9
  FROM f JOIN b ON f.prio = b.prio GROUP BY f.prio
)
SELECT b.prio AS o_orderpriority, b.n,
       CAST(floor(CAST(b.s AS DOUBLE) / CAST(b.n AS DOUBLE) + 0.5) AS BIGINT)
         AS mean_e2,
       CAST(floor(CAST(t.t9 AS DOUBLE) / CAST(b.n AS DOUBLE) + 0.5) AS BIGINT)
         AS theil_e9
FROM b JOIN t ON b.prio = t.prio
"""

register("orders_theil_by_priority", orders_theil_by_priority, sql=ORDERS_THEIL_SQL)


def orders_anomaly_window(sf_dir: str) -> "pd.DataFrame":
    """One-row (start_day, end_day, window_days, window_orders, excess_xd,
    lift_e6): the contiguous day window with MAXIMUM excess order volume
    over the corpus' mean daily rate — exact max-subarray (Kadane via
    prefix-min) on the centered daily series, the single-change CUSUM
    detector a feed monitor runs to localize "when did volume surge".

    Exactness contract: the dense zero-filled day grid of the ACF op
    (X131); with D days and T total orders the centered prefix
    P_t = D·R_t − t·T is an exact integer (Python ints / HUGEINT), the
    best window maximizes P_j − min(P_i, i<j) with DETERMINISTIC
    tie-breaks (smallest end index, then smallest start index — P_0 = 0
    included as the empty prefix), and ``lift_e6`` (window rate over
    corpus rate) is one shared IEEE chain over two exact integers.

    Scale shape: identical to X131 — bounded (day, n) enum fold, driver
    pass over the ≤ #days frame; zero shuffle.
    """
    import pyarrow.compute as pc

    from .exchange import enum_group_sum

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch["o_orderdate"]))
        days = pc.divide(pc.cast(t["o_orderdate"], pa.int64()), DAY_US)
        g = pa.table({"day": days}).group_by(["day"]).aggregate([("day", "count")])
        return g.rename_columns(["day", "n"])

    folded = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "orders"), columns=["o_orderdate"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["day"],
        ["n"],
    )
    cols = {
        "start_day": "int64", "end_day": "int64", "window_days": "int64",
        "window_orders": "int64", "excess_xd": "int64", "lift_e6": "int64",
    }
    if len(folded) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    days = folded["day"].to_numpy(dtype=np.int64)
    counts = folded["n"].to_numpy(dtype=np.int64)
    mn, mx = int(days.min()), int(days.max())
    dense = np.zeros(mx - mn + 1, dtype=np.int64)
    dense[days - mn] = counts
    D = dense.size
    T = int(dense.sum())
    # exact integer prefix pass (Python ints: D·R_t overflows int64 at scale)
    best = (-1, 0, 0)  # (excess, j, i)
    r = 0
    p = 0
    m = 0          # min prefix so far (P_0 = 0)
    m_idx = 0      # smallest index attaining m
    rs = [0]
    for j in range(1, D + 1):
        r += int(dense[j - 1])
        rs.append(r)
        p = D * r - j * T
        excess = p - m
        if excess > best[0]:  # strict: ties keep the SMALLEST j
            best = (excess, j, m_idx)
        if p < m:  # strict: ties keep the SMALLEST attaining index
            m = p
            m_idx = j
    excess, j, i = best
    W = j - i
    C = rs[j] - rs[i]
    lift = float(C * D) / float(W * T) * 1e6 if T else 0.0
    return pd.DataFrame(
        [
            {
                "start_day": mn + i,
                "end_day": mn + j - 1,
                "window_days": W,
                "window_orders": C,
                "excess_xd": excess,
                "lift_e6": int(np.floor(lift + 0.5)),
            }
        ]
    ).astype(cols)


ORDERS_ANOMALY_WINDOW_SQL = """
WITH f AS (
  SELECT epoch_us(o_orderdate) // 86400000000 AS day FROM orders
  WHERE o_orderdate IS NOT NULL
),
g AS (SELECT day, count(*) AS n FROM f GROUP BY day),
b AS (
  SELECT min(day) AS mn, CAST(sum(n) AS HUGEINT) AS t,
         CAST(max(day) - min(day) + 1 AS HUGEINT) AS d
  FROM g
),
grid AS (
  SELECT b.mn + u.i AS day, u.i + 1 AS idx
  FROM b, UNNEST(generate_series(0, CAST(b.d - 1 AS BIGINT))) u(i)
),
dense AS (
  SELECT grid.idx, CAST(coalesce(g.n, 0) AS HUGEINT) AS x
  FROM grid LEFT JOIN g USING (day)
),
p AS (
  SELECT idx,
         sum(x) OVER (ORDER BY idx ROWS UNBOUNDED PRECEDING) AS r,
         b.d * sum(x) OVER (ORDER BY idx ROWS UNBOUNDED PRECEDING)
           - idx * b.t AS pp
  FROM dense, b
),
q AS (
  SELECT idx, r, pp,
         least(0, coalesce(min(pp) OVER (ORDER BY idx
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)) AS m
  FROM p
),
best AS (
  SELECT idx AS j, r AS rj, pp, m, pp - m AS excess
  FROM q ORDER BY excess DESC, idx ASC LIMIT 1
),
istar AS (
  SELECT CASE WHEN max(best.m) = 0 THEN 0
              ELSE min(q.idx) FILTER (WHERE q.pp = best.m AND q.idx < best.j)
         END AS i
  FROM q CROSS JOIN best
),
ri AS (
  SELECT CASE WHEN max(istar.i) = 0 THEN CAST(0 AS HUGEINT)
              ELSE max(q.r) FILTER (WHERE q.idx = istar.i) END AS r0
  FROM q CROSS JOIN istar
)
SELECT CAST(b.mn + istar.i AS BIGINT) AS start_day,
       CAST(b.mn + best.j - 1 AS BIGINT) AS end_day,
       CAST(best.j - istar.i AS BIGINT) AS window_days,
       CAST(best.rj - ri.r0 AS BIGINT) AS window_orders,
       CAST(best.excess AS BIGINT) AS excess_xd,
       CAST(floor(
         CAST((best.rj - ri.r0) * b.d AS DOUBLE)
         / CAST((best.j - istar.i) * b.t AS DOUBLE) * 1e6 + 0.5) AS BIGINT)
         AS lift_e6
FROM best, istar, ri, b
"""

register("orders_anomaly_window", orders_anomaly_window, sql=ORDERS_ANOMALY_WINDOW_SQL)


def orders_priority_mix_drift(sf_dir: str) -> "pd.DataFrame":
    """(month_a, month_b, n_a, n_b, tvd_e6): total-variation distance
    between CONSECUTIVE months' order-priority mixes — the categorical
    drift twin of the numeric W1 drift (X145): did the COMPOSITION of
    the feed change, independent of its volume?

    Exactness: months are truncating ``epoch_us // month_us`` (30-day
    buckets, the X142 rule); TVD over the shared priority enum is the
    exact rational Σ_i |n_a(i)·T_b − n_b(i)·T_a| / (2·T_a·T_b) — integer
    numerator on both engines (HUGEINT / Python ints), one shared IEEE
    division, e6 floor. A priority absent from one month contributes its
    full share (the dense union of priorities, mirrored in SQL via the
    month × priority grid). Months missing entirely break the pair chain.

    Scale shape: one bounded (month, priority, n) enum fold — months ×
    priorities, time-span bounded — zero shuffle, driver pass over that
    frame only.
    """
    import pyarrow.compute as pc

    from .exchange import enum_group_sum

    MONTH_US = 30 * 86400 * 1_000_000

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch["o_orderdate"]), pc.is_valid(batch["o_orderpriority"])
        )
        t = batch.filter(keep)
        mo = pc.divide(pc.cast(t["o_orderdate"], pa.int64()), MONTH_US)
        g = (
            pa.table({"mo": mo, "prio": t["o_orderpriority"]})
            .group_by(["mo", "prio"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["mo", "prio", "n"])

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "orders"), columns=["o_orderdate", "o_orderpriority"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["mo", "prio"],
        ["n"],
    )
    cols = {
        "month_a": "int64", "month_b": "int64",
        "n_a": "int64", "n_b": "int64", "tvd_e6": "int64",
    }
    if len(fold) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    months = sorted(int(m) for m in fold["mo"].unique())
    by_month: dict[int, dict[str, int]] = {}
    for mo, g in fold.groupby("mo", sort=True):
        by_month[int(mo)] = dict(zip(g["prio"].astype(str), (int(v) for v in g["n"])))
    rows = []
    for a, b in zip(months, months[1:]):
        if b != a + 1:
            continue
        ca, cb = by_month[a], by_month[b]
        ta, tb = sum(ca.values()), sum(cb.values())
        num = sum(
            abs(ca.get(p, 0) * tb - cb.get(p, 0) * ta)
            for p in sorted(set(ca) | set(cb))
        )
        tvd = float(num) / float(2 * ta * tb) * 1e6
        rows.append(
            {
                "month_a": a, "month_b": b, "n_a": ta, "n_b": tb,
                "tvd_e6": int(np.floor(tvd + 0.5)),
            }
        )
    if not rows:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    return pd.DataFrame(rows).astype(cols)


ORDERS_PRIORITY_MIX_DRIFT_SQL = """
WITH f AS (
  SELECT epoch_us(o_orderdate) // 2592000000000 AS mo, o_orderpriority AS prio
  FROM orders
  WHERE o_orderdate IS NOT NULL AND o_orderpriority IS NOT NULL
),
g AS (SELECT mo, prio, CAST(count(*) AS HUGEINT) AS n FROM f GROUP BY 1, 2),
months AS (SELECT mo, CAST(sum(n) AS HUGEINT) AS t FROM g GROUP BY mo),
prios AS (SELECT DISTINCT prio FROM g),
grid AS (
  SELECT m.mo, m.t, p.prio, coalesce(g.n, CAST(0 AS HUGEINT)) AS n
  FROM months m CROSS JOIN prios p
  LEFT JOIN g ON g.mo = m.mo AND g.prio = p.prio
),
pairs AS (
  SELECT a.mo AS month_a, b.mo AS month_b, a.t AS ta, b.t AS tb,
         sum(abs(a.n * b.t - b.n * a.t)) AS num
  FROM grid a JOIN grid b ON b.mo = a.mo + 1 AND a.prio = b.prio
  GROUP BY 1, 2, 3, 4
)
SELECT CAST(month_a AS BIGINT) AS month_a, CAST(month_b AS BIGINT) AS month_b,
       CAST(ta AS BIGINT) AS n_a, CAST(tb AS BIGINT) AS n_b,
       CAST(floor(CAST(num AS DOUBLE) / CAST(2 * ta * tb AS DOUBLE) * 1e6
                  + 0.5) AS BIGINT) AS tvd_e6
FROM pairs
"""

register(
    "orders_priority_mix_drift", orders_priority_mix_drift,
    sql=ORDERS_PRIORITY_MIX_DRIFT_SQL,
)


AUDIT_TABLES = (
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
)


def parquet_layout_audit(sf_dir: str) -> "pd.DataFrame":
    """(table_name, n_row_groups, n_rows, min_rg_rows, max_rg_rows,
    compressed_bytes, uncompressed_bytes, ratio_e6): the storage-health
    profile of every input table read from parquet FOOTERS only — zero
    data scan. The lake-ops tool that catches the two classic 100 TB
    layout diseases before they tax every downstream job: tiny row
    groups (per-task overhead explodes) and incompressible columns
    (ratio ≈ 1e6 = bytes already random or double-compressed).

    Scale shape: one footer read per FILE, distributed as a Ray map over
    the file list (ten tables here; a real lake's hundred-thousand
    shards fan the same map out across the cluster) — the driver folds
    #tables summary rows. Exact integer byte/row sums; ``ratio_e6`` is
    one shared IEEE division. The SQL twin reads DuckDB's
    ``parquet_metadata()`` off the identical footers.
    """
    import pyarrow.parquet as _pq

    def footer_stats(batch: pa.Table) -> pa.Table:
        rows = []
        for name in batch["table_name"].to_pylist():
            md = _pq.ParquetFile(table_path(sf_dir, name)).metadata
            rg_rows = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
            comp = 0
            uncomp = 0
            for i in range(md.num_row_groups):
                rg = md.row_group(i)
                for j in range(rg.num_columns):
                    c = rg.column(j)
                    comp += int(c.total_compressed_size)
                    uncomp += int(c.total_uncompressed_size)
            rows.append(
                {
                    "table_name": name,
                    "n_row_groups": md.num_row_groups,
                    "n_rows": int(sum(rg_rows)),
                    "min_rg_rows": int(min(rg_rows)) if rg_rows else 0,
                    "max_rg_rows": int(max(rg_rows)) if rg_rows else 0,
                    "compressed_bytes": comp,
                    "uncompressed_bytes": uncomp,
                }
            )
        out = pd.DataFrame(rows)
        return pa.Table.from_pandas(out, preserve_index=False)

    ds = ray.data.from_items(
        [{"table_name": t} for t in AUDIT_TABLES]
    ).map_batches(footer_stats, batch_format="pyarrow")
    out = ds.to_pandas().sort_values("table_name").reset_index(drop=True)
    ratio = np.floor(
        out["compressed_bytes"].to_numpy(dtype=np.float64)
        / out["uncompressed_bytes"].to_numpy(dtype=np.float64)
        * 1e6
        + 0.5
    ).astype(np.int64)
    out["ratio_e6"] = ratio
    return out.astype(
        {
            "table_name": "object", "n_row_groups": "int64", "n_rows": "int64",
            "min_rg_rows": "int64", "max_rg_rows": "int64",
            "compressed_bytes": "int64", "uncompressed_bytes": "int64",
            "ratio_e6": "int64",
        }
    )


def _layout_audit_sql() -> str:
    parts = []
    for t in AUDIT_TABLES:
        p = table_path("/root/testdata/sf0.01", t)
        parts.append(f"""
SELECT '{t}' AS table_name,
  (SELECT CAST(count(DISTINCT row_group_id) AS BIGINT)
   FROM parquet_metadata('{p}')) AS n_row_groups,
  (SELECT CAST(sum(rn) AS BIGINT) FROM (
     SELECT any_value(row_group_num_rows) AS rn
     FROM parquet_metadata('{p}') GROUP BY row_group_id)) AS n_rows,
  (SELECT CAST(min(rn) AS BIGINT) FROM (
     SELECT any_value(row_group_num_rows) AS rn
     FROM parquet_metadata('{p}') GROUP BY row_group_id)) AS min_rg_rows,
  (SELECT CAST(max(rn) AS BIGINT) FROM (
     SELECT any_value(row_group_num_rows) AS rn
     FROM parquet_metadata('{p}') GROUP BY row_group_id)) AS max_rg_rows,
  (SELECT CAST(sum(total_compressed_size) AS BIGINT)
   FROM parquet_metadata('{p}')) AS compressed_bytes,
  (SELECT CAST(sum(total_uncompressed_size) AS BIGINT)
   FROM parquet_metadata('{p}')) AS uncompressed_bytes,
  (SELECT CAST(floor(
     CAST(sum(total_compressed_size) AS DOUBLE)
     / CAST(sum(total_uncompressed_size) AS DOUBLE) * 1e6 + 0.5) AS BIGINT)
   FROM parquet_metadata('{p}')) AS ratio_e6""")
    return "\nUNION ALL\n".join(parts)


def _sf_dir_path(sf_dir: str) -> str:
    """SF_PATH_HELPERS entry: the sf dir itself, so raw table-path
    literals in oracle SQL re-target across scales."""
    return sf_dir


register("parquet_layout_audit", parquet_layout_audit, sql=_layout_audit_sql())

from .queryset import SF_PATH_HELPERS  # noqa: E402

SF_PATH_HELPERS.append(_sf_dir_path)


XCORR_MAX_LAG = 3


def events_type_cross_correlation(sf_dir: str) -> "pd.DataFrame":
    """(type_a, type_b, lag, r_e6): lagged cross-correlation between the
    DAILY count series of every ordered event-type pair (lag 0..3 —
    does type_b's volume follow type_a's k days later?) — the
    lead-follow detector behind incident forensics ("errors spike two
    days after signups do"), generalizing the self-ACF (X131) to pairs.

    Exactness contract: the shared dense zero-filled day grid (both
    engines build it identically); with N days, S_x = Σx and centered
    c_x(t) = N·x_t − S_x integer, r_xy(k) = Σ c_x(t)·c_y(t+k) /
    sqrt(Σc_x² · Σc_y²) is a ratio of exact integers (Python ints /
    HUGEINT) through ONE shared IEEE sqrt/divide chain, e6-floored.
    Zero-variance series are excluded pairwise on both engines; lag 0
    of (a, a) is omitted (it is identically 1 — the ACF op owns the
    self series).

    Scale shape: one bounded (type, day, n) enum fold — types × the
    corpus day span — then a driver pass over that frame; zero shuffle.
    """
    import math

    import pyarrow.compute as pc

    from .exchange import enum_group_sum

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["event_type"]))
        t = batch.filter(keep)
        days = pc.divide(pc.cast(t["ts"], pa.int64()), DAY_US)
        g = (
            pa.table({"t": t["event_type"], "day": days})
            .group_by(["t", "day"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["t", "day", "n"])

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "events"), columns=["ts", "event_type"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["t", "day"],
        ["n"],
    )
    cols = {
        "type_a": "object", "type_b": "object",
        "lag": "int64", "r_e6": "int64",
    }
    if len(fold) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    mn = int(fold["day"].min())
    mx = int(fold["day"].max())
    N = mx - mn + 1
    series: dict[str, list[int]] = {}
    for ty, g in fold.groupby("t", sort=True):
        dense = np.zeros(N, dtype=np.int64)
        dense[g["day"].to_numpy(dtype=np.int64) - mn] = g["n"].to_numpy(
            dtype=np.int64
        )
        series[str(ty)] = [int(v) for v in dense]
    cent: dict[str, list[int]] = {}
    den: dict[str, int] = {}
    for ty, xs in series.items():
        s = sum(xs)
        c = [N * v - s for v in xs]
        cent[ty] = c
        den[ty] = sum(v * v for v in c)
    rows = []
    types = sorted(series)
    for a in types:
        for b in types:
            if den[a] == 0 or den[b] == 0:
                continue
            ca, cb = cent[a], cent[b]
            for k in range(0, XCORR_MAX_LAG + 1):
                if a == b and k == 0:
                    continue  # identically 1; the ACF op owns the self series
                if k >= N:
                    continue
                num = sum(ca[t] * cb[t + k] for t in range(N - k))
                r = float(num) / math.sqrt(float(den[a]) * float(den[b]))
                rows.append(
                    {
                        "type_a": a,
                        "type_b": b,
                        "lag": k,
                        "r_e6": int(math.floor(r * 1e6 + 0.5)),
                    }
                )
    if not rows:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    return pd.DataFrame(rows).astype(cols)


EVENTS_XCORR_SQL = f"""
WITH f AS (
  SELECT event_type AS t, epoch_us(ts) // 86400000000 AS day FROM events
  WHERE ts IS NOT NULL AND event_type IS NOT NULL
),
g AS (SELECT t, day, count(*) AS n FROM f GROUP BY 1, 2),
b AS (SELECT min(day) AS mn, max(day) - min(day) + 1 AS nn FROM g),
types AS (SELECT DISTINCT t FROM g),
grid AS (
  SELECT ty.t, b.mn + u.i AS day, u.i AS idx
  FROM types ty, b, UNNEST(generate_series(0, CAST(b.nn - 1 AS BIGINT))) u(i)
),
dense AS (
  SELECT grid.t, grid.idx,
         CAST(coalesce(g.n, 0) AS HUGEINT) AS x
  FROM grid LEFT JOIN g ON g.t = grid.t AND g.day = grid.day
),
st AS (SELECT t, sum(x) AS s FROM dense GROUP BY t),
c AS (
  SELECT d.t, d.idx, b.nn * d.x - st.s AS cv
  FROM dense d JOIN st ON d.t = st.t CROSS JOIN b
),
den AS (SELECT t, sum(cv * cv) AS dd FROM c GROUP BY t),
lags(k) AS (VALUES {", ".join(f"({k})" for k in range(0, XCORR_MAX_LAG + 1))}),
num AS (
  SELECT a.t AS type_a, bb.t AS type_b, lags.k AS lag,
         sum(a.cv * bb.cv) AS num
  FROM lags, c a, c bb
  WHERE bb.idx = a.idx + lags.k
  GROUP BY 1, 2, 3
)
SELECT n.type_a, n.type_b, CAST(n.lag AS BIGINT) AS lag,
       CAST(floor(CAST(n.num AS DOUBLE)
            / sqrt(CAST(da.dd AS DOUBLE) * CAST(db.dd AS DOUBLE))
            * 1e6 + 0.5) AS BIGINT) AS r_e6
FROM num n
JOIN den da ON da.t = n.type_a
JOIN den db ON db.t = n.type_b
WHERE da.dd > 0 AND db.dd > 0
  AND NOT (n.type_a = n.type_b AND n.lag = 0)
  AND n.lag < (SELECT nn FROM b)
"""

register(
    "events_type_cross_correlation", events_type_cross_correlation,
    sql=EVENTS_XCORR_SQL,
)
