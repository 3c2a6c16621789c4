"""Session-final diagnostics family: change-point localization, data
skew audits, and concentration statistics over the standard tables.

Every operator here follows the repo's exactness discipline: integer
(or fixed-point-integer) folds end-to-end, with at most ONE shared
IEEE double divide/sqrt chain before an e6/e9 floor — so the DuckDB
oracle reproduces each output bit-for-bit. Scale shapes are stated per
operator; the common pattern is a bounded enum fold (type × day,
count-of-counts, digit buckets) after an in-block Arrow partial, with
``hash_partitioned`` reserved for genuinely unbounded keys.

No reference analog (the reference extracts text; it audits nothing) —
these are §2.11 extension operators in the X134+ data-forensics line.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .exchange import _GROUP_PARTITIONS, enum_group_sum
from .queryset import register, table_path

DAY_US = 86_400_000_000


def _floor_div(ts, unit_us: int) -> pa.Array:
    """Timestamps as int64 µs, floor-divided into ``unit_us`` buckets: a
    pre-1970 instant lands in the bucket that starts before it, not in the
    one nearer zero (``pc.divide`` truncates)."""
    us = pc.cast(ts, pa.int64())
    if isinstance(us, pa.ChunkedArray):
        us = us.combine_chunks()
    return pa.array(us.to_numpy(zero_copy_only=False) // unit_us, type=pa.int64())


def _floor_div_sql(expr: str, unit: int) -> str:
    """DuckDB twin of ``_floor_div``: DuckDB's ``//`` truncates toward
    zero, so a negative remainder takes one off the quotient."""
    return f"(({expr}) // {unit} - CAST(({expr}) % {unit} < 0 AS BIGINT))"


def _mod_sql(expr: str, m: int) -> str:
    """Non-negative ``expr`` mod ``m``, as numpy's ``%`` computes it
    (DuckDB's ``%`` takes the sign of the dividend)."""
    return f"((({expr}) % {m} + {m}) % {m})"


def _empty(cols: dict[str, str]) -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})


def _events_daily_counts(sf_dir: str) -> pd.DataFrame:
    """Bounded (t, day, n) fold of per-type daily event counts — the
    shared front end of the daily-series diagnostics (same shape as the
    ACF/cross-correlation fold: types × corpus day span, zero shuffle)."""

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["event_type"]))
        t = batch.filter(keep)
        days = _floor_div(t["ts"], DAY_US)
        g = (
            pa.table({"t": t["event_type"], "day": days})
            .group_by(["t", "day"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["t", "day", "n"])

    return enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "events"), columns=["ts", "event_type"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["t", "day"],
        ["n"],
    )


def events_changepoint_cusum(sf_dir: str) -> pd.DataFrame:
    """(event_type, cp_day, n_days, cusum_abs, mean_before_e6,
    mean_after_e6): the CUSUM change-point of every event type's DAILY
    count series on the shared zero-filled day grid — "which day did
    this type's volume level shift, and from what mean to what mean?"
    — the launch/regression localizer complementing the max-excess
    window (X146) and the MAD outlier flags.

    Exactness contract: with N grid days, total S and prefix sums
    pre_k, the centered cumulative deviation P_k = N·pre_k − (k+1)·S is
    an exact integer (Python int / HUGEINT); the change point is the
    FIRST k in 0..N−2 maximizing |P_k| (both sides of the split stay
    non-empty), and the two segment means go through one shared IEEE
    divide each before the e6 floor. Constant (including all-zero)
    series yield P≡0 → cp at the first grid day with equal means —
    reported, not excluded (the honest "no shift" row).

    Scale shape: the bounded (type, day, n) enum fold, then a driver
    pass over types × days; zero shuffle. |P_k| ≤ N·S fits int64 up to
    ~10 years × 10^12 daily events.
    """
    cols = {
        "event_type": "object", "cp_day": "int64", "n_days": "int64",
        "cusum_abs": "int64", "mean_before_e6": "int64", "mean_after_e6": "int64",
    }
    fold = _events_daily_counts(sf_dir)
    if len(fold) == 0:
        return _empty(cols)
    mn = int(fold["day"].min())
    mx = int(fold["day"].max())
    n_days = mx - mn + 1
    if n_days < 2:
        return _empty(cols)
    rows = []
    for ty, g in fold.groupby("t", sort=True):
        dense = np.zeros(n_days, dtype=np.int64)
        dense[g["day"].to_numpy(dtype=np.int64) - mn] = g["n"].to_numpy(
            dtype=np.int64
        )
        xs = [int(v) for v in dense]
        s = sum(xs)
        best_k = 0
        best_dev = -1
        pre = 0
        pre_at_best = 0
        for k in range(n_days - 1):
            pre += xs[k]
            dev = abs(n_days * pre - (k + 1) * s)
            if dev > best_dev:
                best_dev = dev
                best_k = k
                pre_at_best = pre
        before = float(pre_at_best) / float(best_k + 1)
        after = float(s - pre_at_best) / float(n_days - 1 - best_k)
        rows.append(
            {
                "event_type": str(ty),
                "cp_day": mn + best_k,
                "n_days": n_days,
                "cusum_abs": best_dev,
                "mean_before_e6": int(math.floor(before * 1e6 + 0.5)),
                "mean_after_e6": int(math.floor(after * 1e6 + 0.5)),
            }
        )
    return pd.DataFrame(rows).astype(cols)


EVENTS_CUSUM_SQL = f"""
WITH f AS (
  SELECT event_type AS t, {_floor_div_sql("epoch_us(ts)", DAY_US)} AS day FROM events
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
  SELECT grid.t, grid.idx, CAST(coalesce(g.n, 0) AS HUGEINT) AS x
  FROM grid LEFT JOIN g ON g.t = grid.t AND g.day = grid.day
),
p AS (
  SELECT t, idx,
         sum(x) OVER (PARTITION BY t ORDER BY idx
                      ROWS UNBOUNDED PRECEDING) AS pre
  FROM dense
),
st AS (SELECT t, sum(x) AS s FROM dense GROUP BY t),
dev AS (
  SELECT p.t, p.idx, p.pre, st.s,
         abs(CAST(b.nn AS HUGEINT) * p.pre - (p.idx + 1) * st.s) AS dv
  FROM p JOIN st ON st.t = p.t CROSS JOIN b
  WHERE p.idx < b.nn - 1
),
cp AS (
  SELECT t, idx, pre, s, dv,
         row_number() OVER (PARTITION BY t ORDER BY dv DESC, idx ASC) AS rn
  FROM dev
)
SELECT cp.t AS event_type,
       CAST(b.mn + cp.idx AS BIGINT) AS cp_day,
       CAST(b.nn AS BIGINT) AS n_days,
       CAST(cp.dv AS BIGINT) AS cusum_abs,
       CAST(floor(CAST(cp.pre AS DOUBLE) / CAST(cp.idx + 1 AS DOUBLE)
            * 1e6 + 0.5) AS BIGINT) AS mean_before_e6,
       CAST(floor(CAST(cp.s - cp.pre AS DOUBLE)
            / CAST(b.nn - 1 - cp.idx AS DOUBLE) * 1e6 + 0.5) AS BIGINT)
         AS mean_after_e6
FROM cp CROSS JOIN b
WHERE cp.rn = 1 AND b.nn >= 2
"""

register("events_changepoint_cusum", events_changepoint_cusum, sql=EVENTS_CUSUM_SQL)


#: (table, key column) pairs every standard pipeline joins or partitions on
SKEW_AUDIT_KEYS: list[tuple[str, str]] = [
    ("lineitem", "l_orderkey"),
    ("lineitem", "l_partkey"),
    ("lineitem", "l_suppkey"),
    ("orders", "o_custkey"),
    ("events", "user_id"),
]


def join_skew_audit(sf_dir: str) -> pd.DataFrame:
    """(table_name, key_col, n_rows, n_keys, top_key, top_n, top_share_e6,
    p50_mult, p99_mult): the exact key-multiplicity profile of every
    declared join/partition key — the shuffle-planning readout behind
    the engine's explicit skew handling (which keys need salting, how
    hot is the hottest key, how heavy is the multiplicity tail).

    Exactness contract: multiplicities are exact integer counts; the
    top key is (multiplicity DESC, key ASC); quantiles use the inverse
    CDF over the count-of-counts fold — p_q = min{m : #keys with
    multiplicity ≤ m reaches ceil(q·n_keys)} with integer thresholds
    (n_keys+1)//2 and (99·n_keys+99)//100; top_share_e6 is one IEEE
    divide then the e6 floor.

    Scale shape: per key column, one hash co-partition exchange of
    in-block (key, n) pre-aggregates → exact per-key counts stay
    distributed; the driver folds only (a) one scalar agg row, (b) the
    global top-1 via per-block top-k candidates, (c) the bounded
    count-of-counts frame (≤ #distinct multiplicities rows — the same
    bound as the token frequency spectrum). No global sort.
    """
    from ray.data.aggregate import Count, Max, Sum

    from .exchange import driver_topk_fold, hash_partitioned

    cols = {
        "table_name": "object", "key_col": "object", "n_rows": "int64",
        "n_keys": "int64", "top_key": "int64", "top_n": "int64",
        "top_share_e6": "int64", "p50_mult": "int64", "p99_mult": "int64",
    }
    rows = []
    for table, key in SKEW_AUDIT_KEYS:

        def partial(batch: pa.Table, key=key) -> pa.Table:
            col = batch[key]
            t = pa.table({"k": col}).filter(pc.is_valid(col))
            g = t.group_by(["k"]).aggregate([([], "count_all")])
            return g.rename_columns(["k", "n"])

        def fold(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:
                return pd.DataFrame(
                    {"k": pd.Series(dtype="int64"), "n": pd.Series(dtype="int64")}
                )
            return (
                df.groupby("k", sort=False)["n"].sum().reset_index().astype("int64")
            )

        per_key = hash_partitioned(
            ray.data.read_parquet(
                table_path(sf_dir, table), columns=[key]
            ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "k",
            fold,
        ).materialize()  # one exact (key, n) row per distinct key, distributed

        agg = per_key.aggregate(Count(), Sum("n"), Max("n"))
        if agg is None or not agg.get("count()"):
            continue
        n_keys = int(agg["count()"])
        n_rows = int(agg["sum(n)"])
        top = driver_topk_fold(per_key, by=["n", "k"], ascending=[False, True], k=1)
        top_key = int(top["k"].iloc[0])
        top_n = int(top["n"].iloc[0])

        def cc_partial(batch: pa.Table) -> pa.Table:
            g = (
                pa.table({"m": batch["n"]})
                .group_by(["m"])
                .aggregate([([], "count_all")])
            )
            return g.rename_columns(["m", "c"])

        cc = enum_group_sum(
            per_key.map_batches(cc_partial, batch_format="pyarrow"),
            ["m"],
            ["c"],
        ).sort_values("m")
        cum = cc["c"].cumsum().to_numpy()
        ms = cc["m"].to_numpy(dtype=np.int64)
        t50 = (n_keys + 1) // 2
        t99 = (99 * n_keys + 99) // 100
        p50 = int(ms[np.searchsorted(cum, t50)])
        p99 = int(ms[np.searchsorted(cum, t99)])
        rows.append(
            {
                "table_name": table, "key_col": key, "n_rows": n_rows,
                "n_keys": n_keys, "top_key": top_key, "top_n": top_n,
                "top_share_e6": int(
                    math.floor(float(top_n) / float(n_rows) * 1e6 + 0.5)
                ),
                "p50_mult": p50, "p99_mult": p99,
            }
        )
    if not rows:
        return _empty(cols)
    return pd.DataFrame(rows).astype(cols)


def _skew_audit_sql() -> str:
    parts = []
    for table, key in SKEW_AUDIT_KEYS:
        parts.append(f"""
SELECT '{table}' AS table_name, '{key}' AS key_col, * FROM (
  WITH cnt AS (
    SELECT {key} AS k, count(*) AS m FROM {table}
    WHERE {key} IS NOT NULL GROUP BY 1
  ),
  tot AS (SELECT count(*) AS kk, sum(m) AS nr FROM cnt),
  cc AS (SELECT m, count(*) AS c FROM cnt GROUP BY m),
  cum AS (SELECT m, sum(c) OVER (ORDER BY m) AS cm FROM cc),
  top AS (SELECT k, m FROM cnt ORDER BY m DESC, k ASC LIMIT 1)
  SELECT CAST(tot.nr AS BIGINT) AS n_rows,
         CAST(tot.kk AS BIGINT) AS n_keys,
         CAST(top.k AS BIGINT) AS top_key,
         CAST(top.m AS BIGINT) AS top_n,
         CAST(floor(CAST(top.m AS DOUBLE) / CAST(tot.nr AS DOUBLE)
              * 1e6 + 0.5) AS BIGINT) AS top_share_e6,
         (SELECT CAST(min(m) AS BIGINT) FROM cum, tot
          WHERE cm >= (tot.kk + 1) // 2) AS p50_mult,
         (SELECT CAST(min(m) AS BIGINT) FROM cum, tot
          WHERE cm >= (99 * tot.kk + 99) // 100) AS p99_mult
  FROM tot, top
  WHERE tot.kk > 0
)""")
    return "\nUNION ALL\n".join(parts)


register("join_skew_audit", join_skew_audit, sql=_skew_audit_sql())


def lineitem_quantity_kruskal(sf_dir: str) -> pd.DataFrame:
    """(l_returnflag, n, rank_sum_x2, h_contrib_e6): Kruskal–Wallis
    rank test of l_quantity across return-flag groups with EXACT tie
    handling and no global sort — the k-group generalization of the
    Mann–Whitney drift test (X144): did the quantity distribution shift
    between returned / accepted / open lines?

    Exactness contract: quantities fold to an enum-bounded (flag,
    cent-value) count table; doubled midranks R2_v = 2·C_{<v} + c_v + 1
    and per-group doubled rank sums are exact integers (Python int /
    HUGEINT). Using the tie-robust form H = (N−1)·SSB/SST on midranks,
    each group's contribution (N−1)·D_g²/(n_g·SST4) — D_g = R2S_g −
    n_g(N+1), SST4 = Σ c_v(R2_v−(N+1))² — goes through ONE fixed
    left-to-right IEEE chain (dd·dd / n_g · (N−1) / SST4 · 1e6, floor),
    so H itself is Σ h_contrib_e6 / 1e6 up to the per-row floors.
    Degenerate inputs (all values tied → SST = 0) return empty on both
    engines.

    Scale shape: ONE bounded enum fold (≤ flags × distinct quantity
    cents, MAX_ENUM_GROUPS-guarded); everything after is driver math on
    that fold. Zero shuffle.
    """
    cols = {
        "l_returnflag": "object", "n": "int64",
        "rank_sum_x2": "int64", "h_contrib_e6": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch["l_returnflag"]), pc.is_valid(batch["l_quantity"])
        )
        t = batch.filter(keep)
        v = pc.cast(
            pc.round(
                pc.multiply(t["l_quantity"], pa.scalar(100.0)),
                ndigits=0,
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        g = (
            pa.table({"g": t["l_returnflag"], "v": v})
            .group_by(["g", "v"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["g", "v", "c"])

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "lineitem"), columns=["l_returnflag", "l_quantity"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["g", "v"],
        ["c"],
    )
    if len(fold) == 0:
        return _empty(cols)
    # global value counts -> doubled midranks (exact Python ints)
    gv = fold.groupby("v", sort=True)["c"].sum()
    N = int(gv.sum())
    r2 = {}
    cum = 0
    for v, cv in gv.items():
        r2[int(v)] = 2 * cum + int(cv) + 1
        cum += int(cv)
    sst4 = sum(
        int(cv) * (r2[int(v)] - (N + 1)) ** 2 for v, cv in gv.items()
    )
    if sst4 == 0:
        return _empty(cols)
    rows = []
    for g, sub in fold.groupby("g", sort=True):
        ng = int(sub["c"].sum())
        r2s = sum(int(c) * r2[int(v)] for v, c in zip(sub["v"], sub["c"]))
        d = r2s - ng * (N + 1)
        dd = float(d)
        contrib = dd * dd / float(ng) * float(N - 1) / float(sst4) * 1e6
        rows.append(
            {
                "l_returnflag": str(g),
                "n": ng,
                "rank_sum_x2": r2s,
                "h_contrib_e6": int(math.floor(contrib + 0.5)),
            }
        )
    return pd.DataFrame(rows).astype(cols)


LINEITEM_KRUSKAL_SQL = """
WITH f AS (
  SELECT l_returnflag AS g,
         CAST(round(l_quantity * 100.0, 0) AS BIGINT) AS v
  FROM lineitem
  WHERE l_returnflag IS NOT NULL AND l_quantity IS NOT NULL
),
vc AS (SELECT g, v, count(*) AS c FROM f GROUP BY 1, 2),
gv AS (SELECT v, sum(c) AS cv FROM vc GROUP BY v),
rk AS (
  SELECT v, cv,
         2 * (sum(cv) OVER (ORDER BY v) - cv) + cv + 1 AS r2
  FROM gv
),
nn AS (SELECT sum(cv) AS n FROM gv),
sst AS (
  SELECT sum(CAST(rk.cv AS HUGEINT)
             * (rk.r2 - (nn.n + 1)) * (rk.r2 - (nn.n + 1))) AS s4
  FROM rk CROSS JOIN nn
),
grp AS (
  SELECT vc.g, sum(vc.c) AS ng,
         sum(CAST(vc.c AS HUGEINT) * rk.r2) AS r2s
  FROM vc JOIN rk ON rk.v = vc.v
  GROUP BY vc.g
)
SELECT g AS l_returnflag,
       CAST(ng AS BIGINT) AS n,
       CAST(r2s AS BIGINT) AS rank_sum_x2,
       CAST(floor(
         CAST(r2s - ng * (nn.n + 1) AS DOUBLE)
         * CAST(r2s - ng * (nn.n + 1) AS DOUBLE)
         / CAST(ng AS DOUBLE)
         * CAST(nn.n - 1 AS DOUBLE)
         / CAST(sst.s4 AS DOUBLE)
         * 1e6 + 0.5) AS BIGINT) AS h_contrib_e6
FROM grp CROSS JOIN nn CROSS JOIN sst
WHERE sst.s4 > 0
"""

register(
    "lineitem_quantity_kruskal", lineitem_quantity_kruskal,
    sql=LINEITEM_KRUSKAL_SQL,
)


def discount_quantity_simpson(sf_dir: str) -> pd.DataFrame:
    """(scope, n, slope_e9, reversed): Simpson's-paradox audit of the
    discount→quantity relationship — the exact OLS slope pooled over
    all lineitem rows vs within each return-flag group, flagging groups
    whose association sign REVERSES the pooled sign (the classic
    aggregation trap a causal read of grouped dashboards falls into).

    Exactness contract: x = discount in integer percent-points
    (round(l_discount·100)), y = quantity cents; per-block int64
    partial moments (n, Σx, Σy, Σxy, Σx²) fold on the driver in Python
    ints, so num = n·Σxy − Σx·Σy and den = n·Σx² − (Σx)² are exact at
    any size (HUGEINT in the twin); slope_e9 is one IEEE divide + e9
    floor; ``reversed`` compares the exact integer SIGNS of the group
    and pooled numerators (never the floored floats, and never a
    num·num product that could overflow int128). Zero-variance scopes
    (den = 0) are excluded on both engines; the pooled row is scope
    '(pooled)' with reversed = 0.

    Scale shape: one column-pruned pass emitting ≤ (#flags + 1) moment
    rows per block into the bounded enum fold; zero shuffle.
    """
    cols = {
        "scope": "object", "n": "int64", "slope_e9": "int64", "reversed": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.is_valid(batch["l_returnflag"]), pc.is_valid(batch["l_discount"])
            ),
            pc.is_valid(batch["l_quantity"]),
        )
        t = batch.filter(keep)
        x = pc.cast(
            pc.round(
                pc.multiply(t["l_discount"], pa.scalar(100.0)),
                ndigits=0, round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        y = pc.cast(
            pc.round(
                pc.multiply(t["l_quantity"], pa.scalar(100.0)),
                ndigits=0, round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        g = t["l_returnflag"].to_pandas().to_numpy()
        df = pd.DataFrame(
            {"g": g, "n": 1, "sx": x, "sy": y, "sxy": x * y, "sxx": x * x}
        )
        agg = df.groupby("g", sort=False).sum().reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False)

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "lineitem"),
            columns=["l_returnflag", "l_discount", "l_quantity"],
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["g"],
        ["n", "sx", "sy", "sxy", "sxx"],
    )
    if len(fold) == 0:
        return _empty(cols)

    def moments(sub) -> tuple[int, int, int]:
        n = int(sub["n"].sum())
        sx = int(sub["sx"].sum())
        sy = int(sub["sy"].sum())
        sxy = int(sub["sxy"].sum())
        sxx = int(sub["sxx"].sum())
        num = n * sxy - sx * sy  # exact Python ints — no int64 cliff
        den = n * sxx - sx * sx
        return n, num, den

    n_p, num_p, den_p = moments(fold)
    rows = []
    if den_p > 0:
        rows.append(
            {
                "scope": "(pooled)", "n": n_p,
                "slope_e9": int(
                    math.floor(float(num_p) / float(den_p) * 1e9 + 0.5)
                ),
                "reversed": 0,
            }
        )
    for g, sub in fold.groupby("g", sort=True):
        n_g, num_g, den_g = moments(sub)
        if den_g <= 0:
            continue
        rev = int(
            den_p > 0 and ((num_g > 0 and num_p < 0) or (num_g < 0 and num_p > 0))
        )
        rows.append(
            {
                "scope": str(g), "n": n_g,
                "slope_e9": int(
                    math.floor(float(num_g) / float(den_g) * 1e9 + 0.5)
                ),
                "reversed": rev,
            }
        )
    if not rows:
        return _empty(cols)
    return pd.DataFrame(rows).astype(cols)


SIMPSON_SQL = """
WITH f AS (
  SELECT l_returnflag AS g,
         CAST(round(l_discount * 100.0, 0) AS BIGINT) AS x,
         CAST(round(l_quantity * 100.0, 0) AS BIGINT) AS y
  FROM lineitem
  WHERE l_returnflag IS NOT NULL AND l_discount IS NOT NULL
    AND l_quantity IS NOT NULL
),
m AS (
  SELECT g, count(*) AS n,
         sum(CAST(x AS HUGEINT)) AS sx, sum(CAST(y AS HUGEINT)) AS sy,
         sum(CAST(x AS HUGEINT) * y) AS sxy,
         sum(CAST(x AS HUGEINT) * x) AS sxx
  FROM f GROUP BY g
),
p AS (
  SELECT sum(n) AS n, sum(sx) AS sx, sum(sy) AS sy,
         sum(sxy) AS sxy, sum(sxx) AS sxx
  FROM m
),
pm AS (
  SELECT n, n * sxy - sx * sy AS num, n * sxx - sx * sx AS den FROM p
),
gm AS (
  SELECT g, n, n * sxy - sx * sy AS num, n * sxx - sx * sx AS den FROM m
)
SELECT '(pooled)' AS scope, CAST(n AS BIGINT) AS n,
       CAST(floor(CAST(num AS DOUBLE) / CAST(den AS DOUBLE) * 1e9 + 0.5)
            AS BIGINT) AS slope_e9,
       CAST(0 AS BIGINT) AS reversed
FROM pm WHERE den > 0
UNION ALL
SELECT gm.g AS scope, CAST(gm.n AS BIGINT) AS n,
       CAST(floor(CAST(gm.num AS DOUBLE) / CAST(gm.den AS DOUBLE) * 1e9 + 0.5)
            AS BIGINT) AS slope_e9,
       CAST(CASE WHEN pm.den > 0
                  AND ((gm.num > 0 AND pm.num < 0)
                       OR (gm.num < 0 AND pm.num > 0))
                 THEN 1 ELSE 0 END AS BIGINT) AS reversed
FROM gm CROSS JOIN pm WHERE gm.den > 0
"""

register("discount_quantity_simpson", discount_quantity_simpson, sql=SIMPSON_SQL)


def extract_span_audit(sf_dir: str) -> pd.DataFrame:
    """(content_kind, n_turns, n_turns_with_spans, n_spans, n_oob,
    covered_chars, ext_chars, coverage_e6): structural validation of
    the flagship's span boundaries per content kind — every span must
    lie inside its turn's extracted text (0 ≤ start ≤ end ≤ len), and
    the covered-character share tells how much of the output the span
    lineage accounts for (plain/html blocks tile the text minus the
    1-char joiners; paged documents tile page-wise). The extraction
    engine auditing its own north-rule artifact, in the
    minhash_calibration / ann_recall_audit self-audit line.

    Exactness contract: pure integer counts and sums; ``coverage_e6``
    is one IEEE divide + e6 floor (0 when a kind has no extracted
    chars). The audit runs over the LIVE flagship Dataset; the SQL twin
    reads the materialized golden flagship table (value-matched to the
    live output by `extract_flagship`/`_spans`), parsing the same
    serialized 'start:end:kind|…' span strings.

    Scale shape: per-batch per-kind partials (≤ #kinds rows per block)
    into the bounded enum fold; zero shuffle on top of the flagship's
    own shuffle-free plan.
    """
    from .extraction import extract_transcripts
    from .queryset import transcripts_for_sf

    cols = {
        "content_kind": "object", "n_turns": "int64",
        "n_turns_with_spans": "int64", "n_spans": "int64", "n_oob": "int64",
        "covered_chars": "int64", "ext_chars": "int64", "coverage_e6": "int64",
    }
    ds = extract_transcripts(transcripts_for_sf(sf_dir))

    def partial(batch: pa.Table) -> pa.Table:
        kinds = batch["content_kind"].to_pylist()
        texts = batch["extracted_text"].to_pylist()
        spans = batch["spans"].to_pylist()
        acc: dict[str, list[int]] = {}
        for kind, text, sp in zip(kinds, texts, spans):
            text = text or ""
            a = acc.setdefault(kind, [0, 0, 0, 0, 0, 0])
            a[0] += 1
            ln = len(text)
            a[5] += ln
            if sp:
                a[1] += 1
                for d in sp:
                    st, en = int(d["start"]), int(d["end"])
                    a[2] += 1
                    if st < 0 or en < st or en > ln:
                        a[3] += 1
                    a[4] += en - st
        ks = sorted(acc)
        return pa.table(
            {
                "k": pa.array(ks, pa.string()),
                "n_turns": pa.array([acc[k][0] for k in ks], pa.int64()),
                "n_with": pa.array([acc[k][1] for k in ks], pa.int64()),
                "n_spans": pa.array([acc[k][2] for k in ks], pa.int64()),
                "n_oob": pa.array([acc[k][3] for k in ks], pa.int64()),
                "covered": pa.array([acc[k][4] for k in ks], pa.int64()),
                "chars": pa.array([acc[k][5] for k in ks], pa.int64()),
            }
        )

    fold = enum_group_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["k"],
        ["n_turns", "n_with", "n_spans", "n_oob", "covered", "chars"],
    )
    if len(fold) == 0:
        return _empty(cols)
    rows = []
    for _, r in fold.sort_values("k").iterrows():
        chars = int(r["chars"])
        cov = (
            int(math.floor(float(int(r["covered"])) / float(chars) * 1e6 + 0.5))
            if chars > 0
            else 0
        )
        rows.append(
            {
                "content_kind": str(r["k"]),
                "n_turns": int(r["n_turns"]),
                "n_turns_with_spans": int(r["n_with"]),
                "n_spans": int(r["n_spans"]),
                "n_oob": int(r["n_oob"]),
                "covered_chars": int(r["covered"]),
                "ext_chars": chars,
                "coverage_e6": cov,
            }
        )
    return pd.DataFrame(rows).astype(cols)


def _span_audit_sql() -> str:
    from .extraction_queries import expected_flagship_path

    path = expected_flagship_path("/root/testdata/sf0.01")
    return f"""
WITH base AS (
  SELECT content_kind, coalesce(extracted_text, '') AS ext, spans_str
  FROM read_parquet('{path}')
),
per_span AS (
  SELECT content_kind, length(ext) AS l,
         CAST(string_split(u.s, ':')[1] AS BIGINT) AS st,
         CAST(string_split(u.s, ':')[2] AS BIGINT) AS en
  FROM base, UNNEST(string_split(spans_str, '|')) AS u(s)
  WHERE spans_str != ''
),
turns AS (
  SELECT content_kind, count(*) AS n_turns,
         sum(CASE WHEN spans_str != '' THEN 1 ELSE 0 END) AS n_with,
         sum(length(ext)) AS chars
  FROM base GROUP BY 1
),
sp AS (
  SELECT content_kind, count(*) AS n_spans,
         sum(CASE WHEN st < 0 OR en < st OR en > l THEN 1 ELSE 0 END) AS n_oob,
         sum(en - st) AS covered
  FROM per_span GROUP BY 1
)
SELECT t.content_kind,
       CAST(t.n_turns AS BIGINT) AS n_turns,
       CAST(t.n_with AS BIGINT) AS n_turns_with_spans,
       CAST(coalesce(sp.n_spans, 0) AS BIGINT) AS n_spans,
       CAST(coalesce(sp.n_oob, 0) AS BIGINT) AS n_oob,
       CAST(coalesce(sp.covered, 0) AS BIGINT) AS covered_chars,
       CAST(t.chars AS BIGINT) AS ext_chars,
       CAST(CASE WHEN t.chars > 0 THEN floor(
         CAST(coalesce(sp.covered, 0) AS DOUBLE) / CAST(t.chars AS DOUBLE)
         * 1e6 + 0.5) ELSE 0 END AS BIGINT) AS coverage_e6
FROM turns t LEFT JOIN sp ON sp.content_kind = t.content_kind
"""


register("extract_span_audit", extract_span_audit, sql=_span_audit_sql())


READ_WORD_RE = r"[A-Za-z0-9]+"
READ_SENT_RE = r"[.!?]+"
READ_VOWEL_RE = r"[aeiouAEIOU]+"


def docs_readability(sf_dir: str) -> pd.DataFrame:
    """(source, n_docs, n_words, n_sentences, n_vowel_groups,
    words_per_sentence_e3, syllables_per_word_e3, flesch_e3): a
    Flesch-reading-ease-style readability profile per document source —
    the corpus-quality signal filtering pipelines threshold on (OCR
    noise reads as few sentence marks and vowel-free "words"; boiler-
    plate reads as short choppy sentences).

    Exactness contract: all three counters are non-overlapping RE2
    match counts (words ``[A-Za-z0-9]+``, sentence marks ``[.!?]+``,
    vowel groups as the classic syllable proxy) — pyarrow's
    ``count_substring_regex`` and DuckDB's ``len(regexp_extract_all)``
    are both RE2, so the integer sums agree exactly. Docs with zero
    words are excluded everywhere (no word → no readability). The three
    readouts share one fixed left-to-right IEEE chain each
    (``206.835 − 1.015·W/S' − 84.6·V/W`` with S' = max(S, 1), e3
    floors).

    Scale shape: one column-pruned vectorized pass emitting ≤ #sources
    partial rows per block into the bounded enum fold; zero shuffle.
    """
    cols = {
        "source": "object", "n_docs": "int64", "n_words": "int64",
        "n_sentences": "int64", "n_vowel_groups": "int64",
        "words_per_sentence_e3": "int64", "syllables_per_word_e3": "int64",
        "flesch_e3": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["source"]), pc.is_valid(batch["text"]))
        t = batch.filter(keep)
        words = pc.cast(pc.count_substring_regex(t["text"], READ_WORD_RE), pa.int64())
        has = pc.greater(words, 0)
        t = t.filter(has)
        words = words.filter(has) if isinstance(words, pa.ChunkedArray) else pc.filter(words, has)
        sents = pc.cast(pc.count_substring_regex(t["text"], READ_SENT_RE), pa.int64())
        vows = pc.cast(pc.count_substring_regex(t["text"], READ_VOWEL_RE), pa.int64())
        g = (
            pa.table({"source": t["source"], "w": words, "s": sents, "v": vows})
            .group_by(["source"])
            .aggregate([([], "count_all"), ("w", "sum"), ("s", "sum"), ("v", "sum")])
        )
        return g.rename_columns(["source", "n", "w", "s", "v"])

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "documents"), columns=["source", "text"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["source"],
        ["n", "w", "s", "v"],
    )
    if len(fold) == 0:
        return _empty(cols)
    rows = []
    for _, r in fold.sort_values("source").iterrows():
        w = int(r["w"])
        s = max(int(r["s"]), 1)
        v = int(r["v"])
        wps = float(w) / float(s)
        spw = float(v) / float(w)
        flesch = 206.835 - 1.015 * wps - 84.6 * spw
        rows.append(
            {
                "source": str(r["source"]), "n_docs": int(r["n"]),
                "n_words": w, "n_sentences": int(r["s"]), "n_vowel_groups": v,
                "words_per_sentence_e3": int(math.floor(wps * 1e3 + 0.5)),
                "syllables_per_word_e3": int(math.floor(spw * 1e3 + 0.5)),
                "flesch_e3": int(math.floor(flesch * 1e3 + 0.5)),
            }
        )
    return pd.DataFrame(rows).astype(cols)


DOCS_READABILITY_SQL = f"""
WITH f AS (
  SELECT source,
         len(regexp_extract_all(text, '{READ_WORD_RE.replace("'", "''")}')) AS w,
         len(regexp_extract_all(text, '[.!?]+')) AS s,
         len(regexp_extract_all(text, '{READ_VOWEL_RE}')) AS v
  FROM documents
  WHERE source IS NOT NULL AND text IS NOT NULL
),
g AS (
  SELECT source, count(*) AS n, sum(w) AS w, sum(s) AS s, sum(v) AS v
  FROM f WHERE w > 0 GROUP BY source
)
SELECT source,
       CAST(n AS BIGINT) AS n_docs,
       CAST(w AS BIGINT) AS n_words,
       CAST(s AS BIGINT) AS n_sentences,
       CAST(v AS BIGINT) AS n_vowel_groups,
       CAST(floor(CAST(w AS DOUBLE) / CAST(greatest(s, 1) AS DOUBLE)
            * 1e3 + 0.5) AS BIGINT) AS words_per_sentence_e3,
       CAST(floor(CAST(v AS DOUBLE) / CAST(w AS DOUBLE)
            * 1e3 + 0.5) AS BIGINT) AS syllables_per_word_e3,
       CAST(floor((206.835
            - 1.015 * (CAST(w AS DOUBLE) / CAST(greatest(s, 1) AS DOUBLE))
            - 84.6 * (CAST(v AS DOUBLE) / CAST(w AS DOUBLE)))
            * 1e3 + 0.5) AS BIGINT) AS flesch_e3
FROM g
"""

register("docs_readability", docs_readability, sql=DOCS_READABILITY_SQL)


def conversation_role_balance(sf_dir: str) -> pd.DataFrame:
    """(bucket, n_convs, share_e6): the corpus histogram of each
    conversation's ASSISTANT share of extracted characters, in ten
    exact integer deciles — the one-sidedness gate a dialogue-training
    pipeline thresholds on (all-assistant monologues and assistant-
    silent logs both make poor chat training data).

    Exactness contract: per conversation, a = assistant extracted
    chars, t = total extracted chars (both exact integer sums over the
    LIVE flagship output); bucket = min(10·a // t, 9) in pure integer
    arithmetic (no float boundary); conversations with t = 0 are
    excluded on both engines. Per-bucket ``share_e6`` =
    floor(Σa/Σt · 1e6 + 0.5) is the one IEEE divide. The SQL twin reads
    the value-matched golden flagship table.

    Scale shape: per-block (conv, a, t) pre-aggregates → ONE conv-keyed
    hash co-partition (metadata only — text never shuffles) → ten-row
    enum fold. The same exchange key every conversation-level stage
    uses.
    """
    from .exchange import hash_partitioned
    from .extraction import extract_transcripts
    from .queryset import transcripts_for_sf

    cols = {"bucket": "int64", "n_convs": "int64", "share_e6": "int64"}
    ds = extract_transcripts(transcripts_for_sf(sf_dir))

    def partial(batch: pa.Table) -> pa.Table:
        ln = pc.cast(
            pc.utf8_length(pc.fill_null(batch["extracted_text"], "")), pa.int64()
        )
        is_a = pc.equal(pc.fill_null(batch["role"], ""), "assistant")
        a = pc.if_else(is_a, ln, pa.scalar(0, pa.int64()))
        g = (
            pa.table({"conv": batch["conv_id"], "a": a, "t": ln})
            .group_by(["conv"])
            .aggregate([("a", "sum"), ("t", "sum")])
        )
        return g.rename_columns(["conv", "a", "t"])

    def per_conv(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("conv", sort=False)[["a", "t"]].sum().reset_index()
        g = g[g["t"] > 0]
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "bucket": pd.Series(dtype="int64"),
                    "n": pd.Series(dtype="int64"),
                    "a": pd.Series(dtype="int64"),
                    "t": pd.Series(dtype="int64"),
                }
            )
        a = g["a"].to_numpy(dtype=np.int64)
        t = g["t"].to_numpy(dtype=np.int64)
        bucket = np.minimum(10 * a // t, 9)
        out = pd.DataFrame({"bucket": bucket, "n": 1, "a": a, "t": t})
        return (
            out.groupby("bucket", sort=False)
            .sum()
            .reset_index()
            .astype("int64")
        )

    fold = enum_group_sum(
        hash_partitioned(
            ds.map_batches(partial, batch_format="pyarrow"),
            "conv",
            per_conv,
        ),
        ["bucket"],
        ["n", "a", "t"],
    )
    if len(fold) == 0:
        return _empty(cols)
    rows = []
    for _, r in fold.sort_values("bucket").iterrows():
        rows.append(
            {
                "bucket": int(r["bucket"]),
                "n_convs": int(r["n"]),
                "share_e6": int(
                    math.floor(float(int(r["a"])) / float(int(r["t"])) * 1e6 + 0.5)
                ),
            }
        )
    return pd.DataFrame(rows).astype(cols)


def _role_balance_sql() -> str:
    from .extraction_queries import expected_flagship_path

    path = expected_flagship_path("/root/testdata/sf0.01")
    return f"""
WITH per_conv AS (
  SELECT conv_id,
         sum(CASE WHEN role = 'assistant'
                  THEN length(coalesce(extracted_text, '')) ELSE 0 END) AS a,
         sum(length(coalesce(extracted_text, ''))) AS t
  FROM read_parquet('{path}')
  GROUP BY conv_id
),
b AS (
  SELECT least(10 * a // t, 9) AS bucket, a, t
  FROM per_conv WHERE t > 0
)
SELECT CAST(bucket AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_convs,
       CAST(floor(CAST(sum(a) AS DOUBLE) / CAST(sum(t) AS DOUBLE)
            * 1e6 + 0.5) AS BIGINT) AS share_e6
FROM b GROUP BY bucket
"""


register("conversation_role_balance", conversation_role_balance, sql=_role_balance_sql())


def quantile_sketch_audit(sf_dir: str) -> pd.DataFrame:
    """(event_type, q, estimate, exact_value, err_e6, bound_e6): the
    quantile twin of the distinct-count sketch dashboard (X164) — for
    every (type, q) both pipelines share, the histogram-sketch estimate
    (``events_quantiles_by_type``, error ≤ one bin) against the exact
    order statistic (``events_value_quantiles_exact``), with the error
    normalized by the type's value domain and the sketch's guaranteed
    bound alongside. The engine grading its own approximation.

    Exactness contract: both inputs are value-matched queries (their
    doubles are bit-identical on both engines); err_e6 =
    floor(|est − exact| / (hi − lo) · 1e6 + 0.5) is one IEEE chain per
    row, 0 for degenerate (constant-value) types; bound_e6 is the bin
    width share floor(1e6/QUANT_BINS + 0.5). NULL types/values excluded
    as in the exact path.

    Scale shape: two bounded sketch/order-stat pipelines (each already
    scale-audited) plus one (type, lo, hi) enum fold; the join happens
    on the driver over ≤ types × quantiles rows.
    """
    from .exchange import enum_group_agg
    from .sketches import (
        QUANT_BINS,
        events_quantiles_by_type,
        events_value_quantiles_exact,
    )

    cols = {
        "event_type": "object", "q": "float64", "estimate": "float64",
        "exact_value": "float64", "err_e6": "int64", "bound_e6": "int64",
    }
    sk = events_quantiles_by_type(sf_dir).to_pandas()
    ex = events_value_quantiles_exact(sf_dir)
    if len(sk) == 0 or len(ex) == 0:
        return _empty(cols)

    def mm_partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch["event_type"]), pc.is_valid(batch["value"])
        )
        t = batch.filter(keep)
        g = (
            pa.table({"t": t["event_type"], "lo": t["value"], "hi": t["value"]})
            .group_by(["t"])
            .aggregate([("lo", "min"), ("hi", "max")])
        )
        return g.rename_columns(["t", "lo", "hi"])

    mm = enum_group_agg(
        ray.data.read_parquet(
            table_path(sf_dir, "events"), columns=["event_type", "value"]
        ).map_batches(mm_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["t"],
        {"lo": "min", "hi": "max"},
    ).set_index("t")
    bound = int(math.floor(1e6 / QUANT_BINS + 0.5))
    m = sk.merge(
        ex.rename(columns={"value": "exact_value"}),
        on=["event_type", "q"],
        how="inner",
    )
    rows = []
    for _, r in m.sort_values(["event_type", "q"]).iterrows():
        lo = float(mm.loc[r["event_type"], "lo"])
        hi = float(mm.loc[r["event_type"], "hi"])
        if hi > lo:
            err = int(
                math.floor(
                    abs(float(r["value_estimate"]) - float(r["exact_value"]))
                    / (hi - lo) * 1e6 + 0.5
                )
            )
        else:
            err = 0
        rows.append(
            {
                "event_type": str(r["event_type"]), "q": float(r["q"]),
                "estimate": float(r["value_estimate"]),
                "exact_value": float(r["exact_value"]),
                "err_e6": err, "bound_e6": bound,
            }
        )
    if not rows:
        return _empty(cols)
    return pd.DataFrame(rows).astype(cols)


def _quantile_sketch_audit_sql() -> str:
    from .sketches import (
        EVENTS_EXACT_QUANTILES_SQL,
        EVENTS_QUANTILES_BY_TYPE_SQL,
        QUANT_BINS,
    )

    bound = int(math.floor(1e6 / QUANT_BINS + 0.5))
    return f"""
WITH sk AS (SELECT * FROM ({EVENTS_QUANTILES_BY_TYPE_SQL})),
ex AS (SELECT * FROM ({EVENTS_EXACT_QUANTILES_SQL})),
mm AS (
  SELECT event_type AS t, min(value) AS lo, max(value) AS hi FROM events
  WHERE event_type IS NOT NULL AND value IS NOT NULL GROUP BY 1
)
SELECT sk.event_type, sk.q,
       sk.value_estimate AS estimate,
       ex.value AS exact_value,
       CASE WHEN mm.hi > mm.lo THEN
         CAST(floor(abs(sk.value_estimate - ex.value) / (mm.hi - mm.lo)
              * 1e6 + 0.5) AS BIGINT)
       ELSE 0 END AS err_e6,
       CAST({bound} AS BIGINT) AS bound_e6
FROM sk
JOIN ex ON ex.event_type = sk.event_type AND ex.q = sk.q
JOIN mm ON mm.t = sk.event_type
"""


register("quantile_sketch_audit", quantile_sketch_audit, sql=_quantile_sketch_audit_sql())


def extract_error_profile(sf_dir: str) -> pd.DataFrame:
    """(tool, content_kind, action, n_turns, n_errors): the extraction
    ops dashboard — which tool's payloads route to which extractor,
    what action each took, and how many errored — the first table an
    operator reads when a 10^12-turn run's error counters tick up
    (reference analog: the per-run CSV summary, app.py's outcome
    report, pivoted by payload origin).

    Exactness contract: pure integer counts over the LIVE flagship
    output; a turn errors iff its ``error`` column is non-empty. NULL
    tools group under '(none)' on both engines.

    Scale shape: per-block ≤ (tools × kinds × actions) partial rows
    into the bounded enum fold; zero shuffle on the flagship's
    shuffle-free plan.
    """
    from .extraction import extract_transcripts
    from .queryset import transcripts_for_sf

    cols = {
        "tool": "object", "content_kind": "object", "action": "object",
        "n_turns": "int64", "n_errors": "int64",
    }
    ds = extract_transcripts(transcripts_for_sf(sf_dir))

    def partial(batch: pa.Table) -> pa.Table:
        tool = pc.fill_null(batch["tool"], "(none)")
        err = pc.cast(
            pc.not_equal(pc.fill_null(batch["error"], ""), ""), pa.int64()
        )
        g = (
            pa.table(
                {
                    "tool": tool,
                    "content_kind": batch["content_kind"],
                    "action": batch["action"],
                    "e": err,
                }
            )
            .group_by(["tool", "content_kind", "action"])
            .aggregate([([], "count_all"), ("e", "sum")])
        )
        return g.rename_columns(["tool", "content_kind", "action", "n", "e"])

    fold = enum_group_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["tool", "content_kind", "action"],
        ["n", "e"],
    )
    if len(fold) == 0:
        return _empty(cols)
    fold = fold.sort_values(["tool", "content_kind", "action"])
    return pd.DataFrame(
        {
            "tool": fold["tool"].astype(str),
            "content_kind": fold["content_kind"].astype(str),
            "action": fold["action"].astype(str),
            "n_turns": fold["n"].astype("int64"),
            "n_errors": fold["e"].astype("int64"),
        }
    ).reset_index(drop=True)


def _error_profile_sql() -> str:
    from .extraction_queries import expected_flagship_path

    path = expected_flagship_path("/root/testdata/sf0.01")
    return f"""
SELECT coalesce(tool, '(none)') AS tool, content_kind, action,
       CAST(count(*) AS BIGINT) AS n_turns,
       CAST(sum(CASE WHEN coalesce(error, '') != '' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_errors
FROM read_parquet('{path}')
GROUP BY 1, 2, 3
"""


register("extract_error_profile", extract_error_profile, sql=_error_profile_sql())


def events_dow_seasonality(sf_dir: str) -> pd.DataFrame:
    """(event_type, dow, n, share_e6, uniform_tvd_e6): the day-of-week
    load profile per event type plus its total-variation distance from
    the uniform week — the weekly-seasonality strength gate (capacity
    planning reads the profile; near-zero TVD says "don't bother with
    weekday-aware sampling"). Complements the hour-of-day family
    (type×hour chi²/MI) on the week axis.

    Exactness contract: dow = (epoch_day + 3) mod 7 computed from the
    floored integer epoch day with a non-negative modulo on BOTH engines
    (0 = Monday, pre-1970 days included; no timezone or locale
    dependence); counts are exact; share_e6 is one IEEE divide;
    TVD = ½ Σ_d |7·n_d − N| / (7N) folds the exact integer numerator
    first and divides once (same row value repeated across the type's
    7 rows).

    Scale shape: one bounded (type, dow) enum fold; zero shuffle.
    """
    cols = {
        "event_type": "object", "dow": "int64", "n": "int64",
        "share_e6": "int64", "uniform_tvd_e6": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["event_type"]))
        t = batch.filter(keep)
        days = _floor_div(t["ts"], DAY_US)
        dow = pa.array((days.to_numpy() + 3) % 7, type=pa.int64())
        g = (
            pa.table({"t": t["event_type"], "dow": dow})
            .group_by(["t", "dow"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["t", "dow", "n"])

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "events"), columns=["ts", "event_type"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["t", "dow"],
        ["n"],
    )
    if len(fold) == 0:
        return _empty(cols)
    rows = []
    for ty, g in fold.groupby("t", sort=True):
        counts = {int(d): int(n) for d, n in zip(g["dow"], g["n"])}
        total = sum(counts.values())
        tvd_num = sum(abs(7 * counts.get(d, 0) - total) for d in range(7))
        tvd = int(math.floor(float(tvd_num) / float(14 * total) * 1e6 + 0.5))
        for d in range(7):
            n = counts.get(d, 0)
            rows.append(
                {
                    "event_type": str(ty), "dow": d, "n": n,
                    "share_e6": int(
                        math.floor(float(n) / float(total) * 1e6 + 0.5)
                    ),
                    "uniform_tvd_e6": tvd,
                }
            )
    return pd.DataFrame(rows).astype(cols)


def _events_dow_sql() -> str:
    # window-over-aggregate mixing is awkward inline; spell the TVD fold
    # as a second pass over the dense grid
    day = _floor_div_sql("epoch_us(ts)", DAY_US)
    return f"""
WITH f AS (
  SELECT event_type AS t,
         {_mod_sql(day + " + 3", 7)} AS dow
  FROM events WHERE ts IS NOT NULL AND event_type IS NOT NULL
),
grid AS (
  SELECT ty.t, u.i AS dow
  FROM (SELECT DISTINCT t FROM f) ty,
       UNNEST(generate_series(0, 6)) u(i)
),
g AS (SELECT t, dow, count(*) AS n FROM f GROUP BY 1, 2),
dense AS (
  SELECT grid.t, grid.dow, coalesce(g.n, 0) AS n
  FROM grid LEFT JOIN g ON g.t = grid.t AND g.dow = grid.dow
),
tot AS (SELECT t, sum(n) AS total FROM dense GROUP BY t),
tvd AS (
  SELECT d.t, sum(abs(7 * d.n - tot.total)) AS num
  FROM dense d JOIN tot ON tot.t = d.t
  GROUP BY d.t
)
SELECT d.t AS event_type,
       CAST(d.dow AS BIGINT) AS dow,
       CAST(d.n AS BIGINT) AS n,
       CAST(floor(CAST(d.n AS DOUBLE) / CAST(tot.total AS DOUBLE)
            * 1e6 + 0.5) AS BIGINT) AS share_e6,
       CAST(floor(CAST(tvd.num AS DOUBLE) / CAST(14 * tot.total AS DOUBLE)
            * 1e6 + 0.5) AS BIGINT) AS uniform_tvd_e6
FROM dense d
JOIN tot ON tot.t = d.t
JOIN tvd ON tvd.t = d.t
WHERE tot.total > 0
"""


register("events_dow_seasonality", events_dow_seasonality, sql=_events_dow_sql())


def revenue_trend_by_flag(sf_dir: str) -> pd.DataFrame:
    """(l_returnflag, n_months, total_rev_cents, slope_cents_per_month,
    r2_e6): the least-squares monthly revenue trend per return flag on
    the DENSE calendar-month grid (months with no shipments count as
    zero — a dying flag trends down instead of vanishing) — the
    forecasting primitive behind "is returned-goods revenue growing?".

    Exactness contract: month = year·12 + month from the shared
    proleptic-Gregorian calendar; revenue folds to integer cents; with
    x the 0-based month index, num = nΣxy − ΣxΣy and den = nΣxx − (Σx)²
    and syy = nΣyy − (Σy)² are exact integers (Python int / HUGEINT);
    slope = floor(num/den + 0.5) and r² = floor(num²/(den·syy)·1e6+0.5)
    each go through one IEEE chain with num² formed in DOUBLE on both
    engines (num² would overflow int128 at 10^12-row scale; den·syy
    stays integer). Flags with < 2 grid months or zero revenue variance
    are excluded on both engines.

    Scale shape: one bounded (flag, month) enum fold of in-block cent
    partials; driver math over flags × months. Zero shuffle.
    """
    cols = {
        "l_returnflag": "object", "n_months": "int64",
        "total_rev_cents": "int64", "slope_cents_per_month": "int64",
        "r2_e6": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.is_valid(batch["l_returnflag"]), pc.is_valid(batch["l_shipdate"])
            ),
            pc.is_valid(batch["l_extendedprice"]),
        )
        t = batch.filter(keep)
        cents = pc.cast(
            pc.round(
                pc.multiply(t["l_extendedprice"], pa.scalar(100.0)),
                ndigits=0, round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        y = pc.year(t["l_shipdate"])
        mo = pc.month(t["l_shipdate"])
        m = pc.add(pc.multiply(pc.cast(y, pa.int64()), 12), pc.cast(mo, pa.int64()))
        g = (
            pa.table({"g": t["l_returnflag"], "m": m, "rev": cents})
            .group_by(["g", "m"])
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["g", "m", "rev"])

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "lineitem"),
            columns=["l_returnflag", "l_shipdate", "l_extendedprice"],
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["g", "m"],
        ["rev"],
    )
    if len(fold) == 0:
        return _empty(cols)
    mn = int(fold["m"].min())
    mx = int(fold["m"].max())
    n = mx - mn + 1
    if n < 2:
        return _empty(cols)
    sx = n * (n - 1) // 2
    sxx = (n - 1) * n * (2 * n - 1) // 6
    den = n * sxx - sx * sx
    rows = []
    for g, sub in fold.groupby("g", sort=True):
        ys = {int(m) - mn: int(r) for m, r in zip(sub["m"], sub["rev"])}
        sy = sum(ys.values())
        sxy = sum(x * y for x, y in ys.items())
        syy_raw = sum(y * y for y in ys.values())
        syy = n * syy_raw - sy * sy
        if syy == 0:
            continue
        num = n * sxy - sx * sy
        slope = int(math.floor(float(num) / float(den) + 0.5))
        r2 = int(
            math.floor(
                float(num) * float(num) / (float(den) * float(syy)) * 1e6 + 0.5
            )
        )
        rows.append(
            {
                "l_returnflag": str(g), "n_months": n,
                "total_rev_cents": sy, "slope_cents_per_month": slope,
                "r2_e6": r2,
            }
        )
    if not rows:
        return _empty(cols)
    return pd.DataFrame(rows).astype(cols)


REVENUE_TREND_SQL = """
WITH f AS (
  SELECT l_returnflag AS g,
         date_part('year', l_shipdate) * 12 + date_part('month', l_shipdate)
           AS m,
         CAST(round(l_extendedprice * 100.0, 0) AS BIGINT) AS rev
  FROM lineitem
  WHERE l_returnflag IS NOT NULL AND l_shipdate IS NOT NULL
    AND l_extendedprice IS NOT NULL
),
gm AS (SELECT g, m, sum(CAST(rev AS HUGEINT)) AS rev FROM f GROUP BY 1, 2),
b AS (SELECT min(m) AS mn, max(m) - min(m) + 1 AS n FROM gm),
grid AS (
  SELECT fg.g, u.i AS x
  FROM (SELECT DISTINCT g FROM gm) fg, b,
       UNNEST(generate_series(0, CAST(b.n - 1 AS BIGINT))) u(i)
),
dense AS (
  SELECT grid.g, grid.x, coalesce(gm.rev, 0) AS y
  FROM grid CROSS JOIN b
  LEFT JOIN gm ON gm.g = grid.g AND gm.m = b.mn + grid.x
),
mom AS (
  SELECT g, sum(x) AS sx, sum(x * x) AS sxx, sum(y) AS sy,
         sum(x * y) AS sxy, sum(y * y) AS syy_raw, count(*) AS n
  FROM dense GROUP BY g
),
st AS (
  SELECT g, n, sy,
         n * sxy - sx * sy AS num,
         n * sxx - sx * sx AS den,
         n * syy_raw - sy * sy AS syy
  FROM mom
)
SELECT g AS l_returnflag,
       CAST(n AS BIGINT) AS n_months,
       CAST(sy AS BIGINT) AS total_rev_cents,
       CAST(floor(CAST(num AS DOUBLE) / CAST(den AS DOUBLE) + 0.5) AS BIGINT)
         AS slope_cents_per_month,
       CAST(floor(CAST(num AS DOUBLE) * CAST(num AS DOUBLE)
            / (CAST(den AS DOUBLE) * CAST(syy AS DOUBLE)) * 1e6 + 0.5)
            AS BIGINT) AS r2_e6
FROM st
WHERE n >= 2 AND syy != 0 AND den != 0
"""

register("revenue_trend_by_flag", revenue_trend_by_flag, sql=REVENUE_TREND_SQL)


def user_activity_gini(sf_dir: str) -> pd.DataFrame:
    """(event_type, n_users, n_events, gini_e6): the Gini coefficient
    of per-user event counts for every event type — the single-number
    audience-concentration readout beside the join-skew audit's
    multiplicity quantiles (X171): gini ≈ 0 says engagement is broad,
    ≈ 1 says a handful of power users generate the type.

    Exactness contract: per-user counts are exact integers; the Gini
    uses the grouped formula over the (multiplicity m, #users c)
    count-of-counts sorted by m — Σ ranks of a block of c equal values
    is m·(c·F + c(c+1)/2) with F the users before the block — so
    G = (2·Σranks − (n+1)·Σx) / (n·Σx) is a ratio of exact integers
    (Python int / HUGEINT) through one IEEE divide + e6 floor. Single-
    user types read exactly 0.

    Scale shape: in-block (type, user) pre-aggregates → ONE user-keyed
    hash co-partition for exact per-user counts (metadata only) → the
    bounded per-type count-of-counts enum fold → driver math. No
    global sort.
    """
    from .exchange import hash_partitioned

    cols = {
        "event_type": "object", "n_users": "int64",
        "n_events": "int64", "gini_e6": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch["event_type"]), pc.is_valid(batch["user_id"])
        )
        t = batch.filter(keep)
        g = (
            pa.table({"t": t["event_type"], "u": t["user_id"]})
            .group_by(["t", "u"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["t", "u", "m"])

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "t": pd.Series(dtype="object"),
                    "m": pd.Series(dtype="int64"),
                    "c": pd.Series(dtype="int64"),
                }
            )
        cnt = (
            df.groupby(["t", "u"], sort=False)["m"].sum().reset_index()
        )
        cc = (
            cnt.groupby(["t", "m"], sort=False)
            .size()
            .reset_index(name="c")
        )
        cc["m"] = cc["m"].astype("int64")
        cc["c"] = cc["c"].astype("int64")
        return cc[["t", "m", "c"]]

    cc = enum_group_sum(
        hash_partitioned(
            ray.data.read_parquet(
                table_path(sf_dir, "events"), columns=["event_type", "user_id"]
            ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "u",
            per_user,
        ),
        ["t", "m"],
        ["c"],
    )
    if len(cc) == 0:
        return _empty(cols)
    rows = []
    for ty, g in cc.groupby("t", sort=True):
        g = g.sort_values("m")
        n = int(g["c"].sum())
        f = 0
        sx = 0
        sr = 0
        for m, c in zip(g["m"], g["c"]):
            m, c = int(m), int(c)
            sx += m * c
            sr += m * (c * f + c * (c + 1) // 2)
            f += c
        if n == 0 or sx == 0:
            continue
        gini = (2 * sr - (n + 1) * sx)
        rows.append(
            {
                "event_type": str(ty), "n_users": n, "n_events": sx,
                "gini_e6": int(
                    math.floor(float(gini) / float(n * sx) * 1e6 + 0.5)
                ),
            }
        )
    if not rows:
        return _empty(cols)
    return pd.DataFrame(rows).astype(cols)


USER_GINI_SQL = """
WITH cnt AS (
  SELECT event_type AS t, user_id AS u, count(*) AS m
  FROM events WHERE event_type IS NOT NULL AND user_id IS NOT NULL
  GROUP BY 1, 2
),
cc AS (SELECT t, m, count(*) AS c FROM cnt GROUP BY 1, 2),
w AS (
  SELECT t, m, c,
         coalesce(sum(c) OVER (PARTITION BY t ORDER BY m
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS f
  FROM cc
),
agg AS (
  SELECT t, sum(c) AS n,
         sum(CAST(m AS HUGEINT) * c) AS sx,
         sum(CAST(m AS HUGEINT) * (c * f + c * (c + 1) // 2)) AS sr
  FROM w GROUP BY t
)
SELECT t AS event_type,
       CAST(n AS BIGINT) AS n_users,
       CAST(sx AS BIGINT) AS n_events,
       CAST(floor(CAST(2 * sr - (n + 1) * sx AS DOUBLE)
            / CAST(n * sx AS DOUBLE) * 1e6 + 0.5) AS BIGINT) AS gini_e6
FROM agg WHERE n > 0 AND sx > 0
"""

register("user_activity_gini", user_activity_gini, sql=USER_GINI_SQL)


_EXCHANGE_PARTS = _GROUP_PARTITIONS  # the fan-out hash_partitioned uses


def exchange_balance_audit(sf_dir: str) -> pd.DataFrame:
    """(table_name, key_col, n_rows, n_partitions, max_rows, min_rows,
    empty_partitions, balance_e6): how evenly the engine's OWN
    partition hash — the Knuth multiplicative hash inside
    ``exchange.hash_partitioned`` (keys × 2654435761 mod 2^64, >> 16,
    mod 64; nulls to partition 0) — spreads every declared join key.
    The direct evidence behind the north rule's "partitioning/skew
    handled explicitly": balance_e6 = max/mean in e6 (1e6 = perfectly
    even; the number a scheduler reads before trusting the exchange).

    Exactness contract: the partition id is computed with the SAME
    wrap-around arithmetic on both engines (numpy uint64 overflow ≡
    int128 mod 2^64 in the twin, negative keys reinterpreted as
    uint64); counts are exact; balance_e6 = floor(max·P/n·1e6 + 0.5) is
    one IEEE chain.

    Scale shape: per key, one vectorized pass emitting ≤ 64 partial
    rows per block into the bounded enum fold; zero shuffle (the audit
    of the shuffle costs no shuffle).
    """
    cols = {
        "table_name": "object", "key_col": "object", "n_rows": "int64",
        "n_partitions": "int64", "max_rows": "int64", "min_rows": "int64",
        "empty_partitions": "int64", "balance_e6": "int64",
    }
    P = _EXCHANGE_PARTS
    rows = []
    for table, key in SKEW_AUDIT_KEYS:

        def partial(batch: pa.Table, key=key) -> pa.Table:
            col = batch[key]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            vals = (
                pc.fill_null(col, 0)
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
                .astype(np.uint64)
            )
            pid = (
                (vals * np.uint64(2654435761)) >> np.uint64(16)
            ) % np.uint64(P)
            pid = pid.astype(np.int64)
            if col.null_count:
                pid[pc.is_null(col).to_numpy(zero_copy_only=False)] = 0
            cnt = np.bincount(pid, minlength=P).astype(np.int64)
            nz = np.flatnonzero(cnt)
            return pa.table(
                {
                    "pid": pa.array(nz.astype(np.int64)),
                    "n": pa.array(cnt[nz]),
                }
            )

        fold = enum_group_sum(
            ray.data.read_parquet(
                table_path(sf_dir, table), columns=[key]
            ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            ["pid"],
            ["n"],
        )
        if len(fold) == 0:
            continue
        counts = np.zeros(P, dtype=np.int64)
        counts[fold["pid"].to_numpy(dtype=np.int64)] = fold["n"].to_numpy(
            dtype=np.int64
        )
        n = int(counts.sum())
        mx = int(counts.max())
        rows.append(
            {
                "table_name": table, "key_col": key, "n_rows": n,
                "n_partitions": P, "max_rows": mx,
                "min_rows": int(counts.min()),
                "empty_partitions": int((counts == 0).sum()),
                "balance_e6": int(
                    math.floor(float(mx * P) / float(n) * 1e6 + 0.5)
                ),
            }
        )
    if not rows:
        return _empty(cols)
    return pd.DataFrame(rows).astype(cols)


def _exchange_balance_sql() -> str:
    P = _EXCHANGE_PARTS
    parts = []
    for table, key in SKEW_AUDIT_KEYS:
        parts.append(f"""
SELECT '{table}' AS table_name, '{key}' AS key_col, * FROM (
  WITH pidmap AS (
    SELECT (((CASE WHEN {key} IS NULL THEN CAST(0 AS HUGEINT)
                   WHEN {key} < 0
                     THEN CAST({key} AS HUGEINT) + 18446744073709551616
                   ELSE CAST({key} AS HUGEINT) END * 2654435761)
             % 18446744073709551616) // 65536) % {P} AS pid_raw,
           {key} AS k
    FROM {table}
  ),
  pids AS (
    SELECT CASE WHEN k IS NULL THEN 0 ELSE CAST(pid_raw AS BIGINT) END AS pid
    FROM pidmap
  ),
  grid AS (SELECT u.i AS pid FROM UNNEST(generate_series(0, {P - 1})) u(i)),
  cnt AS (
    SELECT grid.pid, count(pids.pid) AS n
    FROM grid LEFT JOIN pids ON pids.pid = grid.pid
    GROUP BY grid.pid
  ),
  agg AS (
    SELECT sum(n) AS nr, max(n) AS mx, min(n) AS mn,
           sum(CASE WHEN n = 0 THEN 1 ELSE 0 END) AS emp
    FROM cnt
  )
  SELECT CAST(nr AS BIGINT) AS n_rows,
         CAST({P} AS BIGINT) AS n_partitions,
         CAST(mx AS BIGINT) AS max_rows,
         CAST(mn AS BIGINT) AS min_rows,
         CAST(emp AS BIGINT) AS empty_partitions,
         CAST(floor(CAST(mx * {P} AS DOUBLE) / CAST(nr AS DOUBLE)
              * 1e6 + 0.5) AS BIGINT) AS balance_e6
  FROM agg WHERE nr > 0
)""")
    return "\nUNION ALL\n".join(parts)


register("exchange_balance_audit", exchange_balance_audit, sql=_exchange_balance_sql())


#: RE2 classes shared verbatim by pyarrow and DuckDB (both RE2)
UNI_CONTROL_RE = r"[\x00-\x08\x0B\x0C\x0E-\x1F\x7F]"
UNI_ZW_RE = r"[\x{200B}\x{200C}\x{200D}\x{FEFF}]"
_UNI_PLANT_MOD = 7  # every 7th doc gets one planted anomaly of each class


def docs_unicode_anomalies(sf_dir: str) -> pd.DataFrame:
    """(source, n_docs, n_dirty_docs, n_control, n_replacement,
    n_zero_width, chars, anomalies_per_mchar): the ingest-noise census
    every OCR/web corpus runs before training — C0 control characters
    (minus tab/newline/CR), U+FFFD replacement characters (the smoking
    gun of a mis-decoded byte stream), and zero-width characters (the
    classic copy-paste/watermark artifact), per source.

    The synthesized corpus is clean, so the pipeline PLANTS one
    anomaly of each class on every ``doc_id % 7 == 0`` document (the
    same deterministic in-pipeline planting the PII scrub uses,
    mirrored verbatim in the SQL twin) — giving the oracle non-zero
    counts and tests a known target.

    Exactness contract: counts are non-overlapping RE2 class matches
    (single-char classes ⇒ per-character counts), identical in pyarrow
    and DuckDB; ``anomalies_per_mchar`` = floor(total·1e6/chars + 0.5)
    is one IEEE chain (0 when a source has no chars).

    Scale shape: one vectorized pass, ≤ #sources partial rows per
    block, bounded enum fold; zero shuffle.
    """
    from .dedup import _mod_mask

    cols = {
        "source": "object", "n_docs": "int64", "n_dirty_docs": "int64",
        "n_control": "int64", "n_replacement": "int64",
        "n_zero_width": "int64", "chars": "int64",
        "anomalies_per_mchar": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["source"]), pc.is_valid(batch["text"]))
        t = batch.filter(keep)
        planted = _mod_mask(t["doc_id"], _UNI_PLANT_MOD)
        text = pc.if_else(
            planted,
            pc.binary_join_element_wise(
                t["text"], pa.array(["\x07�​"] * t.num_rows), ""
            ),
            t["text"],
        )
        ctrl = pc.cast(pc.count_substring_regex(text, UNI_CONTROL_RE), pa.int64())
        repl = pc.cast(pc.count_substring(text, "�"), pa.int64())
        zw = pc.cast(pc.count_substring_regex(text, UNI_ZW_RE), pa.int64())
        chars = pc.cast(pc.utf8_length(text), pa.int64())
        dirty = pc.cast(
            pc.greater(pc.add(pc.add(ctrl, repl), zw), 0), pa.int64()
        )
        g = (
            pa.table(
                {
                    "source": t["source"], "c": ctrl, "r": repl,
                    "z": zw, "ch": chars, "d": dirty,
                }
            )
            .group_by(["source"])
            .aggregate(
                [([], "count_all"), ("c", "sum"), ("r", "sum"),
                 ("z", "sum"), ("ch", "sum"), ("d", "sum")]
            )
        )
        return g.rename_columns(["source", "n", "c", "r", "z", "ch", "d"])

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "documents"), columns=["doc_id", "source", "text"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["source"],
        ["n", "c", "r", "z", "ch", "d"],
    )
    if len(fold) == 0:
        return _empty(cols)
    rows = []
    for _, r in fold.sort_values("source").iterrows():
        total = int(r["c"]) + int(r["r"]) + int(r["z"])
        chars = int(r["ch"])
        rows.append(
            {
                "source": str(r["source"]), "n_docs": int(r["n"]),
                "n_dirty_docs": int(r["d"]), "n_control": int(r["c"]),
                "n_replacement": int(r["r"]), "n_zero_width": int(r["z"]),
                "chars": chars,
                "anomalies_per_mchar": (
                    int(math.floor(float(total) * 1e6 / float(chars) + 0.5))
                    if chars > 0 else 0
                ),
            }
        )
    return pd.DataFrame(rows).astype(cols)


DOCS_UNICODE_SQL = f"""
WITH f AS (
  SELECT source,
         CASE WHEN doc_id % {_UNI_PLANT_MOD} = 0
              THEN text || chr(7) || chr(65533) || chr(8203)
              ELSE text END AS t
  FROM documents WHERE source IS NOT NULL AND text IS NOT NULL
),
m AS (
  SELECT source,
         len(regexp_extract_all(t, '{UNI_CONTROL_RE}')) AS c,
         len(regexp_extract_all(t, chr(65533))) AS r,
         len(regexp_extract_all(t, '{UNI_ZW_RE}')) AS z,
         length(t) AS ch
  FROM f
),
g AS (
  SELECT source, count(*) AS n, sum(c) AS c, sum(r) AS r, sum(z) AS z,
         sum(ch) AS ch,
         sum(CASE WHEN c + r + z > 0 THEN 1 ELSE 0 END) AS d
  FROM m GROUP BY source
)
SELECT source,
       CAST(n AS BIGINT) AS n_docs,
       CAST(d AS BIGINT) AS n_dirty_docs,
       CAST(c AS BIGINT) AS n_control,
       CAST(r AS BIGINT) AS n_replacement,
       CAST(z AS BIGINT) AS n_zero_width,
       CAST(ch AS BIGINT) AS chars,
       CAST(CASE WHEN ch > 0 THEN floor(
         CAST(c + r + z AS DOUBLE) * 1e6 / CAST(ch AS DOUBLE) + 0.5)
       ELSE 0 END AS BIGINT) AS anomalies_per_mchar
FROM g
"""

register("docs_unicode_anomalies", docs_unicode_anomalies, sql=DOCS_UNICODE_SQL)


def conversation_salt_plan(sf_dir: str) -> pd.DataFrame:
    """(n_convs, n_salted, salted_share_e6, max_turns, max_segments,
    total_segments): the planning readout for the salted conversation
    exchange — with SALT_BLOCK = 64 turns per segment, how many
    conversations split (n_segments = ⌈n_turns/64⌉ > 1), how hot the
    hottest one is, and how many level-1 segments the reassembly will
    materialize. The number an operator reads before a 10^12-turn run
    to predict the exchange's fan-out (hot conversations are WHY the
    reassembly salts; the stress fixture's 200k-turn conversation would
    read max_segments = 3125 here).

    Exactness contract: pure integer counts; ⌈n/64⌉ = (n+63)//64 in
    integer arithmetic on both engines; salted_share_e6 is one IEEE
    divide.

    Scale shape: in-block conv counts → one conv-keyed metadata
    exchange (the same key the reassembly itself uses) → one summary
    row per partition → driver fold of ≤ #partitions rows.
    """
    from .conversations import SALT_BLOCK
    from .exchange import hash_partitioned
    from .queryset import transcripts_for_sf

    cols = {
        "n_convs": "int64", "n_salted": "int64", "salted_share_e6": "int64",
        "max_turns": "int64", "max_segments": "int64",
        "total_segments": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            pa.table({"conv": batch["conv_id"]})
            .group_by(["conv"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["conv", "n"])

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        out_cols = {
            "n_convs": pd.Series(dtype="int64"),
            "n_salted": pd.Series(dtype="int64"),
            "max_turns": pd.Series(dtype="int64"),
            "max_segments": pd.Series(dtype="int64"),
            "total_segments": pd.Series(dtype="int64"),
        }
        if len(df) == 0:
            return pd.DataFrame(out_cols)
        n = df.groupby("conv", sort=False)["n"].sum()
        segs = (n + SALT_BLOCK - 1) // SALT_BLOCK
        return pd.DataFrame(
            {
                "n_convs": [len(n)],
                "n_salted": [int((segs > 1).sum())],
                "max_turns": [int(n.max())],
                "max_segments": [int(segs.max())],
                "total_segments": [int(segs.sum())],
            }
        ).astype("int64")

    parts = hash_partitioned(
        ray.data.read_parquet(
            transcripts_for_sf(sf_dir), columns=["conv_id"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "conv",
        per_partition,
    ).to_pandas()  # ≤ one summary row per partition
    if len(parts) == 0 or int(parts["n_convs"].sum()) == 0:
        return _empty(cols)
    n_convs = int(parts["n_convs"].sum())
    n_salted = int(parts["n_salted"].sum())
    return pd.DataFrame(
        [
            {
                "n_convs": n_convs,
                "n_salted": n_salted,
                "salted_share_e6": int(
                    math.floor(float(n_salted) / float(n_convs) * 1e6 + 0.5)
                ),
                "max_turns": int(parts["max_turns"].max()),
                "max_segments": int(parts["max_segments"].max()),
                "total_segments": int(parts["total_segments"].sum()),
            }
        ]
    ).astype(cols)


def _salt_plan_sql() -> str:
    from .conversations import SALT_BLOCK
    from .queryset import transcripts_path_for_sf

    path = transcripts_path_for_sf("/root/testdata/sf0.01")
    return f"""
WITH per_conv AS (
  SELECT conv_id, count(*) AS n,
         (count(*) + {SALT_BLOCK - 1}) // {SALT_BLOCK} AS segs
  FROM read_parquet('{path}')
  GROUP BY conv_id
)
SELECT CAST(count(*) AS BIGINT) AS n_convs,
       CAST(sum(CASE WHEN segs > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_salted,
       CAST(floor(CAST(sum(CASE WHEN segs > 1 THEN 1 ELSE 0 END) AS DOUBLE)
            / CAST(count(*) AS DOUBLE) * 1e6 + 0.5) AS BIGINT)
         AS salted_share_e6,
       CAST(max(n) AS BIGINT) AS max_turns,
       CAST(max(segs) AS BIGINT) AS max_segments,
       CAST(sum(segs) AS BIGINT) AS total_segments
FROM per_conv
"""


register("conversation_salt_plan", conversation_salt_plan, sql=_salt_plan_sql())


_AFFINITY_MAX_TYPES = 16  # mask histogram is 2^T rows — fail loud past this


def user_type_affinity(sf_dir: str) -> pd.DataFrame:
    """(type_a, type_b, n_both, n_either, jaccard_e6): exact LIFETIME
    co-engagement between event types — of the users who ever did a or
    b, how many did both? The user-level complement of the session-
    scoped lift (X162): lift asks "within one session", this asks
    "within one user, ever" — the audience-overlap matrix a growth team
    reads before bundling features.

    Exactness contract: per-user type SETS are exact (distinct pairs);
    every user collapses to one type-bitmask, and the corpus folds to
    the ≤ 2^T-row (mask, n_users) histogram (T = #types, loud guard at
    {guard}); n_both / n_either are integer sums over that histogram
    (inclusion-exclusion in the twin), jaccard_e6 one IEEE divide.
    Zero-overlap pairs are reported with jaccard 0, not dropped.

    Scale shape: in-block distinct (user, type) pairs → ONE user-keyed
    metadata exchange → per-partition masks → bounded mask-histogram
    enum fold → driver pair math over ≤ 2^T rows. No joins.
    """
    from .exchange import hash_partitioned

    cols = {
        "type_a": "object", "type_b": "object", "n_both": "int64",
        "n_either": "int64", "jaccard_e6": "int64",
    }

    def type_partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch["event_type"]), pc.is_valid(batch["user_id"])
        )
        t = batch.filter(keep)
        g = (
            pa.table({"t": t["event_type"]})
            .group_by(["t"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["t", "n"])

    types = sorted(
        enum_group_sum(
            ray.data.read_parquet(
                table_path(sf_dir, "events"), columns=["event_type", "user_id"]
            ).map_batches(type_partial, batch_format="pyarrow", zero_copy_batch=True),
            ["t"],
            ["n"],
        )["t"].astype(str)
    )
    if not types:
        return _empty(cols)
    if len(types) > _AFFINITY_MAX_TYPES:
        raise ValueError(
            f"user_type_affinity: {len(types)} event types exceed the "
            f"2^T mask-histogram guard ({_AFFINITY_MAX_TYPES}); switch to "
            "pairwise distinct-count folds per type pair"
        )
    tidx = {t: i for i, t in enumerate(types)}

    def pair_partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch["event_type"]), pc.is_valid(batch["user_id"])
        )
        t = batch.filter(keep)
        g = (
            pa.table({"u": t["user_id"], "t": t["event_type"]})
            .group_by(["u", "t"])
            .aggregate([])
        )
        return g.rename_columns(["u", "t"])

    def per_user_masks(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"mask": pd.Series(dtype="int64"), "n": pd.Series(dtype="int64")}
            )
        bits = df["t"].map(tidx).to_numpy(dtype=np.int64)
        masks = pd.Series(
            np.int64(1) << bits, index=df["u"]
        ).groupby(level=0).agg(lambda s: np.bitwise_or.reduce(s.to_numpy()))
        hist = masks.value_counts()
        return pd.DataFrame(
            {"mask": hist.index.astype("int64"), "n": hist.to_numpy()}
        ).astype("int64")

    fold = enum_group_sum(
        hash_partitioned(
            ray.data.read_parquet(
                table_path(sf_dir, "events"), columns=["event_type", "user_id"]
            ).map_batches(pair_partial, batch_format="pyarrow", zero_copy_batch=True),
            "u",
            per_user_masks,
        ),
        ["mask"],
        ["n"],
    )
    if len(fold) == 0:
        return _empty(cols)
    masks = fold["mask"].to_numpy(dtype=np.int64)
    ns = fold["n"].to_numpy(dtype=np.int64)
    rows = []
    for i, ta in enumerate(types):
        for j in range(i + 1, len(types)):
            tb = types[j]
            bit_a = np.int64(1) << np.int64(i)
            bit_b = np.int64(1) << np.int64(j)
            has_a = (masks & bit_a) != 0
            has_b = (masks & bit_b) != 0
            n_both = int(ns[has_a & has_b].sum())
            n_either = int(ns[has_a | has_b].sum())
            rows.append(
                {
                    "type_a": ta, "type_b": tb, "n_both": n_both,
                    "n_either": n_either,
                    "jaccard_e6": (
                        int(
                            math.floor(
                                float(n_both) / float(n_either) * 1e6 + 0.5
                            )
                        )
                        if n_either > 0 else 0
                    ),
                }
            )
    if not rows:
        return _empty(cols)
    return pd.DataFrame(rows).astype(cols)


user_type_affinity.__doc__ = user_type_affinity.__doc__.format(
    guard=_AFFINITY_MAX_TYPES
)

USER_TYPE_AFFINITY_SQL = """
WITH ut AS (
  SELECT DISTINCT user_id AS u, event_type AS t FROM events
  WHERE user_id IS NOT NULL AND event_type IS NOT NULL
),
cnt AS (SELECT t, count(*) AS c FROM ut GROUP BY t),
pairs AS (
  SELECT a.t AS ta, b.t AS tb FROM cnt a JOIN cnt b ON a.t < b.t
),
nb AS (
  SELECT a.t AS ta, b.t AS tb, count(*) AS n_both
  FROM ut a JOIN ut b ON a.u = b.u AND a.t < b.t
  GROUP BY 1, 2
)
SELECT p.ta AS type_a, p.tb AS type_b,
       CAST(coalesce(nb.n_both, 0) AS BIGINT) AS n_both,
       CAST(ca.c + cb.c - coalesce(nb.n_both, 0) AS BIGINT) AS n_either,
       CAST(CASE WHEN ca.c + cb.c - coalesce(nb.n_both, 0) > 0 THEN
         floor(CAST(coalesce(nb.n_both, 0) AS DOUBLE)
               / CAST(ca.c + cb.c - coalesce(nb.n_both, 0) AS DOUBLE)
               * 1e6 + 0.5)
       ELSE 0 END AS BIGINT) AS jaccard_e6
FROM pairs p
JOIN cnt ca ON ca.t = p.ta
JOIN cnt cb ON cb.t = p.tb
LEFT JOIN nb ON nb.ta = p.ta AND nb.tb = p.tb
"""

register("user_type_affinity", user_type_affinity, sql=USER_TYPE_AFFINITY_SQL)


SCRIPT_LATIN_RE = r"[A-Za-z]"
SCRIPT_CJK_RE = r"[\p{Han}\p{Hiragana}\p{Katakana}]"
SCRIPT_DIGIT_RE = r"[0-9]"


def docs_script_mix(sf_dir: str) -> pd.DataFrame:
    """(source, n_docs, chars, n_latin, n_cjk, n_digit, cjk_share_e6,
    latin_share_e6): the script-composition census per source — the raw
    signal under the engine's CJK-aware normalization path (F3's JP
    detection) and the language-ID heuristic: a 'en' source running 30%
    Han chars is a mislabeled ingest, caught here before training.

    Exactness contract: single-char RE2 Unicode classes (``\\p{Han}``,
    Hiragana, Katakana) counted identically by pyarrow and DuckDB —
    both RE2; shares are per-source integer ratios through one IEEE
    divide each (0 when a source has no chars).

    Scale shape: one vectorized pass, ≤ #sources partial rows per
    block, bounded enum fold; zero shuffle.
    """
    cols = {
        "source": "object", "n_docs": "int64", "chars": "int64",
        "n_latin": "int64", "n_cjk": "int64", "n_digit": "int64",
        "cjk_share_e6": "int64", "latin_share_e6": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["source"]), pc.is_valid(batch["text"]))
        t = batch.filter(keep)
        lat = pc.cast(pc.count_substring_regex(t["text"], SCRIPT_LATIN_RE), pa.int64())
        cjk = pc.cast(pc.count_substring_regex(t["text"], SCRIPT_CJK_RE), pa.int64())
        dig = pc.cast(pc.count_substring_regex(t["text"], SCRIPT_DIGIT_RE), pa.int64())
        ch = pc.cast(pc.utf8_length(t["text"]), pa.int64())
        g = (
            pa.table(
                {"source": t["source"], "l": lat, "c": cjk, "d": dig, "ch": ch}
            )
            .group_by(["source"])
            .aggregate(
                [([], "count_all"), ("l", "sum"), ("c", "sum"),
                 ("d", "sum"), ("ch", "sum")]
            )
        )
        return g.rename_columns(["source", "n", "l", "c", "d", "ch"])

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "documents"), columns=["source", "text"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["source"],
        ["n", "l", "c", "d", "ch"],
    )
    if len(fold) == 0:
        return _empty(cols)
    rows = []
    for _, r in fold.sort_values("source").iterrows():
        ch = int(r["ch"])

        def share(x: int) -> int:
            return (
                int(math.floor(float(x) / float(ch) * 1e6 + 0.5)) if ch > 0 else 0
            )

        rows.append(
            {
                "source": str(r["source"]), "n_docs": int(r["n"]),
                "chars": ch, "n_latin": int(r["l"]), "n_cjk": int(r["c"]),
                "n_digit": int(r["d"]),
                "cjk_share_e6": share(int(r["c"])),
                "latin_share_e6": share(int(r["l"])),
            }
        )
    return pd.DataFrame(rows).astype(cols)


DOCS_SCRIPT_MIX_SQL = r"""
WITH m AS (
  SELECT source,
         len(regexp_extract_all(text, '[A-Za-z]')) AS l,
         len(regexp_extract_all(text,
             '[\p{Han}\p{Hiragana}\p{Katakana}]')) AS c,
         len(regexp_extract_all(text, '[0-9]')) AS d,
         length(text) AS ch
  FROM documents WHERE source IS NOT NULL AND text IS NOT NULL
),
g AS (
  SELECT source, count(*) AS n, sum(l) AS l, sum(c) AS c, sum(d) AS d,
         sum(ch) AS ch
  FROM m GROUP BY source
)
SELECT source,
       CAST(n AS BIGINT) AS n_docs,
       CAST(ch AS BIGINT) AS chars,
       CAST(l AS BIGINT) AS n_latin,
       CAST(c AS BIGINT) AS n_cjk,
       CAST(d AS BIGINT) AS n_digit,
       CAST(CASE WHEN ch > 0 THEN floor(
         CAST(c AS DOUBLE) / CAST(ch AS DOUBLE) * 1e6 + 0.5)
       ELSE 0 END AS BIGINT) AS cjk_share_e6,
       CAST(CASE WHEN ch > 0 THEN floor(
         CAST(l AS DOUBLE) / CAST(ch AS DOUBLE) * 1e6 + 0.5)
       ELSE 0 END AS BIGINT) AS latin_share_e6
FROM g
"""

register("docs_script_mix", docs_script_mix, sql=DOCS_SCRIPT_MIX_SQL)


def shipment_completeness(sf_dir: str) -> pd.DataFrame:
    """(yyyymm, days_in_month, days_with_data, n_shipments,
    coverage_e6): the data-delivery calendar audit — for every calendar
    month in the shipment span (DENSE: silent months show up as zero
    rows, the exact failure an ingest monitor must see), how many of
    the month's days actually shipped data. The freshness/completeness
    check every scheduled feed runs.

    Exactness contract: days and months come from integer epoch-day
    arithmetic on the shared proleptic-Gregorian calendar (Python
    ``date.fromordinal`` ≡ DuckDB date math — no timezone);
    days_in_month is calendar truth (leap-aware on both engines);
    counts exact; coverage_e6 one IEEE divide.

    Scale shape: one bounded (day, n) enum fold (the corpus's day
    span); driver calendar math over those rows. Zero shuffle.
    """
    import datetime as _dt

    cols = {
        "yyyymm": "int64", "days_in_month": "int64",
        "days_with_data": "int64", "n_shipments": "int64",
        "coverage_e6": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.is_valid(batch["l_shipdate"])
        t = batch.filter(keep)
        days = _floor_div(t["l_shipdate"], DAY_US)
        g = (
            pa.table({"day": days})
            .group_by(["day"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["day", "n"])

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "lineitem"), columns=["l_shipdate"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["day"],
        ["n"],
    )
    if len(fold) == 0:
        return _empty(cols)
    epoch = _dt.date(1970, 1, 1).toordinal()
    per_month: dict[int, list[int]] = {}
    for day, n in zip(fold["day"], fold["n"]):
        d = _dt.date.fromordinal(epoch + int(day))
        key = d.year * 100 + d.month
        a = per_month.setdefault(key, [0, 0])
        a[0] += 1
        a[1] += int(n)
    # dense month grid between the first and last month with data
    first = min(per_month)
    last = max(per_month)
    import calendar as _cal

    rows = []
    y, m = divmod(first, 100)
    while y * 100 + m <= last:
        key = y * 100 + m
        dim = _cal.monthrange(y, m)[1]
        dwd, n = per_month.get(key, [0, 0])
        rows.append(
            {
                "yyyymm": key, "days_in_month": dim,
                "days_with_data": dwd, "n_shipments": n,
                "coverage_e6": int(
                    math.floor(float(dwd) / float(dim) * 1e6 + 0.5)
                ),
            }
        )
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return pd.DataFrame(rows).astype(cols)


SHIPMENT_COMPLETENESS_SQL = """
WITH d AS (
  SELECT CAST(l_shipdate AS DATE) AS day, count(*) AS n
  FROM lineitem WHERE l_shipdate IS NOT NULL GROUP BY 1
),
b AS (
  SELECT date_trunc('month', min(day)) AS mn,
         date_trunc('month', max(day)) AS mx
  FROM d
),
months AS (
  SELECT CAST(u.m AS DATE) AS m0
  FROM b, UNNEST(generate_series(b.mn, b.mx, INTERVAL 1 MONTH)) u(m)
),
per AS (
  SELECT date_trunc('month', day) AS m0, count(*) AS dwd, sum(n) AS n
  FROM d GROUP BY 1
)
SELECT CAST(date_part('year', months.m0) * 100
            + date_part('month', months.m0) AS BIGINT) AS yyyymm,
       CAST(date_part('day', last_day(months.m0)) AS BIGINT)
         AS days_in_month,
       CAST(coalesce(per.dwd, 0) AS BIGINT) AS days_with_data,
       CAST(coalesce(per.n, 0) AS BIGINT) AS n_shipments,
       CAST(floor(CAST(coalesce(per.dwd, 0) AS DOUBLE)
            / CAST(date_part('day', last_day(months.m0)) AS DOUBLE)
            * 1e6 + 0.5) AS BIGINT) AS coverage_e6
FROM months LEFT JOIN per ON per.m0 = months.m0
"""

register("shipment_completeness", shipment_completeness, sql=SHIPMENT_COMPLETENESS_SQL)


BOT_MIN_EVENTS = 5  # users below this have too few gaps to judge


def bot_regularity_audit(sf_dir: str) -> pd.DataFrame:
    """(bucket, n_users, n_perfectly_regular): the bot/automation
    heuristic every event corpus screens — humans are irregular, cron
    jobs are not. For every user with ≥ {m} events, the share of that
    user's inter-arrival gaps taken by the single most common gap
    (top_share = max gap multiplicity / (n−1)), bucketed into exact
    integer deciles; ``n_perfectly_regular`` counts users whose gaps
    are ALL identical (top_share = 1 — the metronome signature).

    Exactness contract: gaps are exact integer µs deltas over the
    user's ts-sorted events (equal timestamps give deterministic zero
    gaps whatever the tie order); bucket = min(10·maxc // (n−1), 9) in
    integer arithmetic; pure counts, no float anywhere.

    Scale shape: in-block (user, ts) rows → ONE user-keyed exchange
    (each user's timeline lands whole) → vectorized per-partition gap
    histogram → ten-row enum fold.
    """
    from .exchange import hash_partitioned

    cols = {
        "bucket": "int64", "n_users": "int64", "n_perfectly_regular": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["user_id"]), pc.is_valid(batch["ts"]))
        t = batch.filter(keep)
        return pa.table(
            {"u": t["user_id"], "ts": pc.cast(t["ts"], pa.int64())}
        )

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        out_cols = {
            "bucket": pd.Series(dtype="int64"),
            "n": pd.Series(dtype="int64"),
            "p": pd.Series(dtype="int64"),
        }
        if len(df) == 0:
            return pd.DataFrame(out_cols)
        df = df.sort_values(["u", "ts"], kind="mergesort")
        sizes = df.groupby("u", sort=False)["ts"].transform("size")
        df = df[sizes >= BOT_MIN_EVENTS]
        if len(df) == 0:
            return pd.DataFrame(out_cols)
        gap = df.groupby("u", sort=False)["ts"].diff()
        g = df.assign(gap=gap).dropna(subset=["gap"])
        g["gap"] = g["gap"].astype("int64")
        per = (
            g.groupby(["u", "gap"], sort=False)
            .size()
            .groupby(level=0)
            .agg(maxc="max", total="sum")
        )
        maxc = per["maxc"].to_numpy(dtype=np.int64)
        total = per["total"].to_numpy(dtype=np.int64)
        bucket = np.minimum(10 * maxc // total, 9)
        out = pd.DataFrame(
            {"bucket": bucket, "n": 1, "p": (maxc == total).astype(np.int64)}
        )
        return (
            out.groupby("bucket", sort=False).sum().reset_index().astype("int64")
        )

    fold = enum_group_sum(
        hash_partitioned(
            ray.data.read_parquet(
                table_path(sf_dir, "events"), columns=["user_id", "ts"]
            ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "u",
            per_user,
        ),
        ["bucket"],
        ["n", "p"],
    )
    if len(fold) == 0:
        return _empty(cols)
    fold = fold.sort_values("bucket")
    return pd.DataFrame(
        {
            "bucket": fold["bucket"].astype("int64"),
            "n_users": fold["n"].astype("int64"),
            "n_perfectly_regular": fold["p"].astype("int64"),
        }
    ).reset_index(drop=True)


bot_regularity_audit.__doc__ = bot_regularity_audit.__doc__.format(
    m=BOT_MIN_EVENTS
)

BOT_REGULARITY_SQL = f"""
WITH f AS (
  SELECT user_id AS u, epoch_us(ts) AS ts FROM events
  WHERE user_id IS NOT NULL AND ts IS NOT NULL
),
sized AS (
  SELECT u, ts, count(*) OVER (PARTITION BY u) AS n FROM f
),
gaps AS (
  SELECT u, ts - lag(ts) OVER (PARTITION BY u ORDER BY ts) AS gap
  FROM sized WHERE n >= {BOT_MIN_EVENTS}
),
gc AS (
  SELECT u, gap, count(*) AS c FROM gaps WHERE gap IS NOT NULL
  GROUP BY 1, 2
),
per AS (SELECT u, max(c) AS maxc, sum(c) AS total FROM gc GROUP BY u),
b AS (
  SELECT least(10 * maxc // total, 9) AS bucket,
         CASE WHEN maxc = total THEN 1 ELSE 0 END AS p
  FROM per
)
SELECT CAST(bucket AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_users,
       CAST(sum(p) AS BIGINT) AS n_perfectly_regular
FROM b GROUP BY bucket
"""

register("bot_regularity_audit", bot_regularity_audit, sql=BOT_REGULARITY_SQL)


BOILERPLATE_LINE_MIN_DOCS = 3  # a line in >= this many distinct docs is boilerplate
_BP_PLANT_MOD = 4
_BP_PLANT_LINE = "-- corpus footer v1 --"
#: edge characters trimmed from every line — the same explicit set on both
#: engines (str.strip() with no argument also strips other Unicode
#: whitespace, while DuckDB's trim() with no argument strips spaces only)
_BP_TRIM_CHARS = " \t\r\u00a0"
_BP_TRIM_SQL = " || ".join(f"chr({ord(c)})" for c in _BP_TRIM_CHARS)


def docs_boilerplate_lines(sf_dir: str) -> pd.DataFrame:
    """(line_md5, n_docs, example_line): cross-document LINE-level
    boilerplate — the classic C4/CCNet scrub target (navigation bars,
    cookie banners, footers recur verbatim as lines across unrelated
    pages). A non-empty trimmed line appearing in ≥ {k} distinct
    documents is flagged, with the lexicographically smallest raw form
    as the example. The docs twin of ``turns_boilerplate`` (which works
    at whole-turn granularity over conversations).

    The synthesized corpus has no organic cross-doc lines, so the
    pipeline PLANTS the footer line ``-- corpus footer v1 --`` on every
    ``doc_id % 4 == 0`` document (the PII/unicode planting precedent,
    mirrored verbatim in the SQL twin) — giving the oracle a non-empty
    flagged set.

    Exactness contract: lines are newline splits, trimmed of
    ``_BP_TRIM_CHARS`` (space, tab, CR, NBSP) at both edges;
    the key is md5 of the trimmed line (DuckDB-reproducible); counts
    are DISTINCT docs (a line repeated inside one doc counts once);
    ``example_line`` = min() of the trimmed text — deterministic on
    both engines.

    Scale shape: in-block (line_md5, doc_id) DISTINCT pairs (a hot line
    contributes one row per (block, doc), not one per occurrence) →
    ONE line-keyed hash exchange → per-partition distinct-doc counts →
    rows ≥ {k} survive. Raw text ships only as the per-block min
    example, capped at 200 chars. Output is corpus-boilerplate-sized
    (the turns_boilerplate precedent).
    """
    import hashlib as _hashlib

    from .exchange import hash_partitioned

    cols = {"line_md5": "object", "n_docs": "int64", "example_line": "object"}

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["doc_id"]), pc.is_valid(batch["text"]))
        t = batch.filter(keep)
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        seen: dict[tuple[str, int], str] = {}
        for doc, text in zip(ids, texts):
            if int(doc) % _BP_PLANT_MOD == 0:
                text = text + "\n" + _BP_PLANT_LINE
            for line in text.split("\n"):
                line = line.strip(_BP_TRIM_CHARS)
                if not line:
                    continue
                h = _hashlib.md5(line.encode("utf-8")).hexdigest()
                key = (h, int(doc))
                ex = line[:200]
                if key not in seen or ex < seen[key]:
                    seen[key] = ex
        if not seen:
            return pa.table(
                {
                    "h": pa.array([], pa.string()),
                    "doc": pa.array([], pa.int64()),
                    "ex": pa.array([], pa.string()),
                }
            )
        ks = sorted(seen)
        return pa.table(
            {
                "h": pa.array([k[0] for k in ks], pa.string()),
                "doc": pa.array([k[1] for k in ks], pa.int64()),
                "ex": pa.array([seen[k] for k in ks], pa.string()),
            }
        )

    def per_line(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "line_md5": pd.Series(dtype="object"),
                    "n_docs": pd.Series(dtype="int64"),
                    "example_line": pd.Series(dtype="object"),
                }
            )
        g = df.groupby("h", sort=False).agg(
            n_docs=("doc", "nunique"), example_line=("ex", "min")
        )
        g = g[g["n_docs"] >= BOILERPLATE_LINE_MIN_DOCS].reset_index()
        g = g.rename(columns={"h": "line_md5"})
        g["n_docs"] = g["n_docs"].astype("int64")
        return g[["line_md5", "n_docs", "example_line"]]

    out = hash_partitioned(
        ray.data.read_parquet(
            table_path(sf_dir, "documents"), columns=["doc_id", "text"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "h",
        per_line,
    ).to_pandas()
    if len(out) == 0:
        return _empty(cols)
    return (
        out.sort_values(["n_docs", "line_md5"], ascending=[False, True])
        .reset_index(drop=True)
        .astype(cols)
    )


docs_boilerplate_lines.__doc__ = docs_boilerplate_lines.__doc__.format(
    k=BOILERPLATE_LINE_MIN_DOCS
)

DOCS_BOILERPLATE_LINES_SQL = f"""
WITH planted AS (
  SELECT doc_id,
         CASE WHEN doc_id % {_BP_PLANT_MOD} = 0
              THEN text || chr(10) || '{_BP_PLANT_LINE}'
              ELSE text END AS text
  FROM documents WHERE doc_id IS NOT NULL AND text IS NOT NULL
),
lines AS (
  SELECT doc_id, trim(u.l, {_BP_TRIM_SQL}) AS line
  FROM planted, UNNEST(string_split(text, chr(10))) AS u(l)
  WHERE trim(u.l, {_BP_TRIM_SQL}) != ''
),
pairs AS (
  SELECT DISTINCT md5(line) AS line_md5, doc_id,
         min(substr(line, 1, 200)) OVER (PARTITION BY md5(line), doc_id)
           AS ex
  FROM lines
),
g AS (
  SELECT line_md5, count(DISTINCT doc_id) AS n_docs, min(ex) AS example_line
  FROM pairs GROUP BY line_md5
)
SELECT line_md5, CAST(n_docs AS BIGINT) AS n_docs, example_line
FROM g WHERE n_docs >= {BOILERPLATE_LINE_MIN_DOCS}
"""

register("docs_boilerplate_lines", docs_boilerplate_lines, sql=DOCS_BOILERPLATE_LINES_SQL)


def tool_transition_counts(sf_dir: str) -> pd.DataFrame:
    """(tool_from, tool_to, n): ordered tool-call bigrams within each
    conversation — among the turns that invoke a tool (in turn_idx
    order, non-tool turns skipped), which tool follows which? The
    sequence view the unordered co-occurrence matrix (tool_cooccurrence)
    can't give: search→browse→edit chains read directly off this
    table, the agent-behavior fingerprint of a transcript corpus.

    Exactness contract: pure integer counts; the tool subsequence is
    defined by ``tool IS NOT NULL AND tool != ''`` filtered BEFORE the
    lag, identically on both engines; turn order is the unique
    (conv_id, turn_idx) key, so ties cannot exist.

    Scale shape: in-block (conv, turn_idx, tool) rows for tool turns
    only (metadata, no text) → ONE conv-keyed exchange → vectorized
    per-partition shift → bounded (tools²) enum fold.
    """
    from .exchange import hash_partitioned
    from .queryset import transcripts_for_sf

    cols = {"tool_from": "object", "tool_to": "object", "n": "int64"}

    def partial(batch: pa.Table) -> pa.Table:
        tool = pc.fill_null(batch["tool"], "")
        keep = pc.not_equal(tool, "")
        t = batch.filter(keep)
        return pa.table(
            {
                "conv": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "tool": t["tool"],
            }
        )

    def per_conv(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "tool_from": pd.Series(dtype="object"),
                    "tool_to": pd.Series(dtype="object"),
                    "n": pd.Series(dtype="int64"),
                }
            )
        df = df.sort_values(["conv", "turn_idx"], kind="mergesort")
        prev = df.groupby("conv", sort=False)["tool"].shift()
        pairs = pd.DataFrame(
            {"tool_from": prev, "tool_to": df["tool"]}
        ).dropna(subset=["tool_from"])
        if len(pairs) == 0:
            return pd.DataFrame(
                {
                    "tool_from": pd.Series(dtype="object"),
                    "tool_to": pd.Series(dtype="object"),
                    "n": pd.Series(dtype="int64"),
                }
            )
        g = (
            pairs.groupby(["tool_from", "tool_to"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype("int64")
        return g

    fold = enum_group_sum(
        hash_partitioned(
            ray.data.read_parquet(
                transcripts_for_sf(sf_dir),
                columns=["conv_id", "turn_idx", "tool"],
            ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "conv",
            per_conv,
        ),
        ["tool_from", "tool_to"],
        ["n"],
    )
    if len(fold) == 0:
        return _empty(cols)
    return (
        fold.sort_values(["tool_from", "tool_to"])
        .reset_index(drop=True)
        .astype(cols)
    )


def _tool_transitions_sql() -> str:
    from .queryset import transcripts_path_for_sf

    path = transcripts_path_for_sf("/root/testdata/sf0.01")
    return f"""
WITH t AS (
  SELECT conv_id, turn_idx, tool FROM read_parquet('{path}')
  WHERE tool IS NOT NULL AND tool != ''
),
lagged AS (
  SELECT conv_id,
         lag(tool) OVER (PARTITION BY conv_id ORDER BY turn_idx)
           AS tool_from,
         tool AS tool_to
  FROM t
)
SELECT tool_from, tool_to, CAST(count(*) AS BIGINT) AS n
FROM lagged WHERE tool_from IS NOT NULL
GROUP BY 1, 2
"""


register("tool_transition_counts", tool_transition_counts, sql=_tool_transitions_sql())


BURST_WINDOW_MIN = 60  # sliding-window width in minute buckets
MINUTE_US = 60_000_000


def _events_minute_counts(sf_dir: str) -> pd.DataFrame:
    """Bounded (t, m, n) fold of per-type per-minute event counts — the
    shared front end of the burst localizer and the dispersion index
    (same shape as the daily fold, minute granularity)."""

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["event_type"]))
        t = batch.filter(keep)
        mins = _floor_div(t["ts"], MINUTE_US)
        g = (
            pa.table({"t": t["event_type"], "m": mins})
            .group_by(["t", "m"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["t", "m", "n"])

    return enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "events"), columns=["ts", "event_type"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["t", "m"],
        ["n"],
    )


def events_burst_windows(sf_dir: str) -> pd.DataFrame:
    """(event_type, peak_start_minute, peak_count, n_minutes): the
    busiest minute-aligned 60-minute window per event type — the burst
    localizer behind rate-limit and capacity forensics ("the error
    spike started 03:41"). Window semantics are EXACT over minute
    buckets: among all windows of 60 consecutive minute buckets on the
    type's dense span, the max total count, FIRST window on ties
    (bucket-aligned by design — the bounded-fold contract; a raw-point
    sliding window would need the type's full timeline in one place,
    which is exactly the skew this engine refuses).

    Exactness contract: per-minute counts are exact integers; the
    sliding sum and argmax are integer arithmetic; ``peak_start_minute``
    is the epoch-minute of the window's first bucket. Types whose span
    is shorter than the window report their whole span's total.

    Scale shape: one bounded (type, minute) enum fold (types × span
    minutes); driver sliding-sum over that fold. Zero shuffle.
    """
    cols = {
        "event_type": "object", "peak_start_minute": "int64",
        "peak_count": "int64", "n_minutes": "int64",
    }

    fold = _events_minute_counts(sf_dir)
    if len(fold) == 0:
        return _empty(cols)
    rows = []
    for ty, g in fold.groupby("t", sort=True):
        mn = int(g["m"].min())
        mx = int(g["m"].max())
        span = mx - mn + 1
        dense = np.zeros(span, dtype=np.int64)
        dense[g["m"].to_numpy(dtype=np.int64) - mn] = g["n"].to_numpy(
            dtype=np.int64
        )
        w = min(BURST_WINDOW_MIN, span)
        csum = np.concatenate(([0], np.cumsum(dense)))
        sums = csum[w:] - csum[:-w]  # window starting at each offset
        k = int(np.argmax(sums))  # numpy argmax: first max on ties
        rows.append(
            {
                "event_type": str(ty),
                "peak_start_minute": mn + k,
                "peak_count": int(sums[k]),
                "n_minutes": span,
            }
        )
    return pd.DataFrame(rows).astype(cols)


EVENTS_BURST_SQL = f"""
WITH f AS (
  SELECT event_type AS t, {_floor_div_sql("epoch_us(ts)", MINUTE_US)} AS m FROM events
  WHERE ts IS NOT NULL AND event_type IS NOT NULL
),
g AS (SELECT t, m, count(*) AS n FROM f GROUP BY 1, 2),
b AS (SELECT t, min(m) AS mn, max(m) - min(m) + 1 AS span FROM g GROUP BY t),
grid AS (
  SELECT b.t, b.mn + u.i AS m, u.i AS idx, b.span,
         least({BURST_WINDOW_MIN}, b.span) AS w
  FROM b, UNNEST(generate_series(0, CAST(b.span - 1 AS BIGINT))) u(i)
),
dense AS (
  SELECT grid.t, grid.idx, grid.span, grid.w, coalesce(g.n, 0) AS n
  FROM grid LEFT JOIN g ON g.t = grid.t AND g.m = grid.m
),
win AS (
  SELECT t, idx, span, w,
         sum(n) OVER (PARTITION BY t ORDER BY idx
                      ROWS BETWEEN CURRENT ROW AND {BURST_WINDOW_MIN - 1}
                      FOLLOWING) AS s
  FROM dense
),
pick AS (
  SELECT t, idx, span, s,
         row_number() OVER (PARTITION BY t ORDER BY s DESC, idx ASC) AS rn
  FROM win WHERE idx <= span - w
)
SELECT p.t AS event_type,
       CAST(b.mn + p.idx AS BIGINT) AS peak_start_minute,
       CAST(p.s AS BIGINT) AS peak_count,
       CAST(p.span AS BIGINT) AS n_minutes
FROM pick p JOIN b ON b.t = p.t
WHERE p.rn = 1
"""

register("events_burst_windows", events_burst_windows, sql=EVENTS_BURST_SQL)


def first_touch_attribution(sf_dir: str) -> pd.DataFrame:
    """(first_type, n_users, n_converted, cvr_e6): first-touch
    attribution — for every user, the type of their FIRST event
    ((ts, event_id) order, so timestamp ties break deterministically),
    and how often users acquired through each first touch ever reach a
    'purchase' event. The acquisition-channel table growth teams read;
    complements the view→click as-of lag (which measures time, not
    channel).

    Exactness contract: the first event is the exact argmin under
    (ts, event_id); counts integer; cvr_e6 one IEEE divide.

    Scale shape: in-block per-user candidate argmins + purchase flags
    (each block emits ≤ users-in-block rows) → ONE user-keyed metadata
    exchange folding candidates to the true argmin → bounded
    (first_type) enum fold.
    """
    from .exchange import hash_partitioned

    cols = {
        "first_type": "object", "n_users": "int64",
        "n_converted": "int64", "cvr_e6": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.is_valid(batch["user_id"]), pc.is_valid(batch["ts"])),
            pc.is_valid(batch["event_type"]),
        )
        t = batch.filter(keep)
        df = pd.DataFrame(
            {
                "u": t["user_id"].to_numpy(zero_copy_only=False),
                "ts": pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False),
                "eid": t["event_id"].to_numpy(zero_copy_only=False),
                "ty": t["event_type"].to_pandas().to_numpy(),
            }
        )
        df = df.sort_values(["u", "ts", "eid"], kind="mergesort")
        first = df.groupby("u", sort=False).first().reset_index()
        first["bought"] = (
            df.assign(p=(df["ty"] == "purchase").astype("int64"))
            .groupby("u", sort=False)["p"]
            .max()
            .to_numpy()
        )
        return pa.Table.from_pandas(
            first[["u", "ts", "eid", "ty", "bought"]], preserve_index=False
        )

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "ty": pd.Series(dtype="object"),
                    "n": pd.Series(dtype="int64"),
                    "c": pd.Series(dtype="int64"),
                }
            )
        df = df.sort_values(["u", "ts", "eid"], kind="mergesort")
        g = df.groupby("u", sort=False)
        first = g[["ty"]].first()
        first["bought"] = g["bought"].max()
        out = (
            first.groupby("ty", sort=False)
            .agg(n=("ty", "size"), c=("bought", "sum"))
            .reset_index()
        )
        out["n"] = out["n"].astype("int64")
        out["c"] = out["c"].astype("int64")
        return out

    fold = enum_group_sum(
        hash_partitioned(
            ray.data.read_parquet(
                table_path(sf_dir, "events"),
                columns=["user_id", "ts", "event_id", "event_type"],
            ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "u",
            per_user,
        ),
        ["ty"],
        ["n", "c"],
    )
    if len(fold) == 0:
        return _empty(cols)
    rows = []
    for _, r in fold.sort_values("ty").iterrows():
        n, c = int(r["n"]), int(r["c"])
        rows.append(
            {
                "first_type": str(r["ty"]), "n_users": n, "n_converted": c,
                "cvr_e6": int(math.floor(float(c) / float(n) * 1e6 + 0.5)),
            }
        )
    return pd.DataFrame(rows).astype(cols)


FIRST_TOUCH_SQL = """
WITH f AS (
  SELECT user_id AS u, epoch_us(ts) AS ts, event_id AS eid,
         event_type AS ty
  FROM events
  WHERE user_id IS NOT NULL AND ts IS NOT NULL AND event_type IS NOT NULL
),
ranked AS (
  SELECT u, ty,
         row_number() OVER (PARTITION BY u ORDER BY ts, eid) AS rn
  FROM f
),
first AS (SELECT u, ty AS first_type FROM ranked WHERE rn = 1),
conv AS (
  SELECT u, max(CASE WHEN ty = 'purchase' THEN 1 ELSE 0 END) AS bought
  FROM f GROUP BY u
)
SELECT first.first_type,
       CAST(count(*) AS BIGINT) AS n_users,
       CAST(sum(conv.bought) AS BIGINT) AS n_converted,
       CAST(floor(CAST(sum(conv.bought) AS DOUBLE)
            / CAST(count(*) AS DOUBLE) * 1e6 + 0.5) AS BIGINT) AS cvr_e6
FROM first JOIN conv ON conv.u = first.u
GROUP BY first.first_type
"""

register("first_touch_attribution", first_touch_attribution, sql=FIRST_TOUCH_SQL)


def events_dispersion_index(sf_dir: str) -> pd.DataFrame:
    """(event_type, n_minutes, n_events, dispersion_e6): the Fano
    factor (variance-to-mean ratio) of per-minute event counts on each
    type's dense minute grid — the Poisson test behind arrival-process
    modeling: ≈ 1e6 says memoryless arrivals, ≫ 1e6 says bursty (the
    X192 localizer tells WHERE; this one number says HOW bursty
    overall), ≪ 1e6 says metronome (the X189 per-user signal at type
    granularity).

    Exactness contract: with n grid minutes and integer counts x,
    population variance/mean = (n·Σx² − (Σx)²) / (n·Σx) is a ratio of
    exact integers (Python int / HUGEINT) through one IEEE divide + e6
    floor. Types with zero events in span can't occur (the grid is
    per-type min..max); single-minute spans read dispersion 0.

    Scale shape: the bounded (type, minute) enum fold; driver integer
    math. Zero shuffle.
    """
    cols = {
        "event_type": "object", "n_minutes": "int64",
        "n_events": "int64", "dispersion_e6": "int64",
    }

    fold = _events_minute_counts(sf_dir)
    if len(fold) == 0:
        return _empty(cols)
    rows = []
    for ty, g in fold.groupby("t", sort=True):
        mn = int(g["m"].min())
        mx = int(g["m"].max())
        n = mx - mn + 1
        sx = int(g["n"].sum())
        sxx = sum(int(v) * int(v) for v in g["n"])  # zero minutes add 0
        num = n * sxx - sx * sx
        rows.append(
            {
                "event_type": str(ty), "n_minutes": n, "n_events": sx,
                "dispersion_e6": int(
                    math.floor(float(num) / float(n * sx) * 1e6 + 0.5)
                ),
            }
        )
    return pd.DataFrame(rows).astype(cols)


EVENTS_DISPERSION_SQL = f"""
WITH f AS (
  SELECT event_type AS t, {_floor_div_sql("epoch_us(ts)", MINUTE_US)} AS m FROM events
  WHERE ts IS NOT NULL AND event_type IS NOT NULL
),
g AS (SELECT t, m, count(*) AS n FROM f GROUP BY 1, 2),
agg AS (
  SELECT t,
         max(m) - min(m) + 1 AS nn,
         sum(CAST(n AS HUGEINT)) AS sx,
         sum(CAST(n AS HUGEINT) * n) AS sxx
  FROM g GROUP BY t
)
SELECT t AS event_type,
       CAST(nn AS BIGINT) AS n_minutes,
       CAST(sx AS BIGINT) AS n_events,
       CAST(floor(CAST(nn * sxx - sx * sx AS DOUBLE)
            / CAST(nn * sx AS DOUBLE) * 1e6 + 0.5) AS BIGINT)
         AS dispersion_e6
FROM agg
"""

register("events_dispersion_index", events_dispersion_index, sql=EVENTS_DISPERSION_SQL)


def extract_shrinkage_profile(sf_dir: str) -> pd.DataFrame:
    """(content_kind, n_turns, raw_chars, ext_chars, keep_e6): how much
    of each payload kind's raw text survives extraction — the
    boilerplate-strip effectiveness readout at the heart of the north
    rule (html should shrink hard: nav/script/footer dropped; plain
    should keep most; pdfish sits between, layout joins re-spacing the
    kept text). A kind whose keep ratio drifts across corpus versions
    is the first sign an extractor regressed.

    Exactness contract: integer char sums over the LIVE flagship
    output (raw ``text`` vs ``extracted_text``); ``keep_e6`` =
    floor(ext/raw·1e6 + 0.5), one IEEE divide, 0 when a kind has no
    raw chars.

    Scale shape: ≤ #kinds partial rows per block into the bounded enum
    fold, zero shuffle on the flagship's shuffle-free plan.
    """
    from .extraction import extract_transcripts
    from .queryset import transcripts_for_sf

    cols = {
        "content_kind": "object", "n_turns": "int64", "raw_chars": "int64",
        "ext_chars": "int64", "keep_e6": "int64",
    }
    ds = extract_transcripts(transcripts_for_sf(sf_dir))

    def partial(batch: pa.Table) -> pa.Table:
        raw = pc.cast(pc.utf8_length(pc.fill_null(batch["text"], "")), pa.int64())
        ext = pc.cast(
            pc.utf8_length(pc.fill_null(batch["extracted_text"], "")), pa.int64()
        )
        g = (
            pa.table({"k": batch["content_kind"], "raw": raw, "ext": ext})
            .group_by(["k"])
            .aggregate([([], "count_all"), ("raw", "sum"), ("ext", "sum")])
        )
        return g.rename_columns(["k", "n", "raw", "ext"])

    fold = enum_group_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["k"],
        ["n", "raw", "ext"],
    )
    if len(fold) == 0:
        return _empty(cols)
    rows = []
    for _, r in fold.sort_values("k").iterrows():
        raw = int(r["raw"])
        ext = int(r["ext"])
        rows.append(
            {
                "content_kind": str(r["k"]), "n_turns": int(r["n"]),
                "raw_chars": raw, "ext_chars": ext,
                "keep_e6": (
                    int(math.floor(float(ext) / float(raw) * 1e6 + 0.5))
                    if raw > 0 else 0
                ),
            }
        )
    return pd.DataFrame(rows).astype(cols)


def _shrinkage_sql() -> str:
    from .extraction_queries import expected_flagship_path

    path = expected_flagship_path("/root/testdata/sf0.01")
    return f"""
WITH g AS (
  SELECT content_kind,
         count(*) AS n,
         sum(length(coalesce(text, ''))) AS raw,
         sum(length(coalesce(extracted_text, ''))) AS ext
  FROM read_parquet('{path}')
  GROUP BY content_kind
)
SELECT content_kind,
       CAST(n AS BIGINT) AS n_turns,
       CAST(raw AS BIGINT) AS raw_chars,
       CAST(ext AS BIGINT) AS ext_chars,
       CAST(CASE WHEN raw > 0 THEN floor(
         CAST(ext AS DOUBLE) / CAST(raw AS DOUBLE) * 1e6 + 0.5)
       ELSE 0 END AS BIGINT) AS keep_e6
FROM g
"""


register("extract_shrinkage_profile", extract_shrinkage_profile, sql=_shrinkage_sql())


HOUR_US = 3_600_000_000


def user_stickiness(sf_dir: str) -> pd.DataFrame:
    """(day, dau, hau_sum, stickiness_e6): per calendar day, the exact
    distinct-active-user count, the sum of hourly distinct-active
    counts, and stickiness = Σ_h HAU_h / (24·DAU) — the engagement-
    intensity ratio (the DAU/MAU analog at this corpus's 2-day grain):
    1e6/24 ≈ 41,667 means each user shows up in exactly one hour,
    1e6 means every active user is active EVERY hour.

    Exactness contract: distinct (user, hour) and (user, day) pairs
    are exact — each user's rows co-locate in ONE partition of the
    user-keyed exchange, so per-partition nunique IS the global
    distinct; day/hour from integer epoch arithmetic; one IEEE divide.

    Scale shape: in-block distinct (user, hour) pairs → one user-keyed
    metadata exchange → bounded (day, dau, hau) enum fold.
    """
    from .exchange import hash_partitioned

    cols = {
        "day": "int64", "dau": "int64", "hau_sum": "int64",
        "stickiness_e6": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["user_id"]), pc.is_valid(batch["ts"]))
        t = batch.filter(keep)
        hours = _floor_div(t["ts"], HOUR_US)
        g = (
            pa.table({"u": t["user_id"], "h": hours})
            .group_by(["u", "h"])
            .aggregate([])
        )
        return g.rename_columns(["u", "h"])

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        out_cols = {
            "day": pd.Series(dtype="int64"),
            "dau": pd.Series(dtype="int64"),
            "hau": pd.Series(dtype="int64"),
        }
        if len(df) == 0:
            return pd.DataFrame(out_cols)
        pairs = df.drop_duplicates(["u", "h"]).copy()
        pairs["day"] = pairs["h"] // 24
        hau = pairs.groupby("day", sort=False).size()
        dau = pairs.drop_duplicates(["u", "day"]).groupby(
            "day", sort=False
        ).size()
        out = pd.DataFrame({"hau": hau, "dau": dau}).reset_index()
        return out[["day", "dau", "hau"]].astype("int64")

    fold = enum_group_sum(
        hash_partitioned(
            ray.data.read_parquet(
                table_path(sf_dir, "events"), columns=["user_id", "ts"]
            ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "u",
            per_user,
        ),
        ["day"],
        ["dau", "hau"],
    )
    if len(fold) == 0:
        return _empty(cols)
    rows = []
    for _, r in fold.sort_values("day").iterrows():
        dau = int(r["dau"])
        hau = int(r["hau"])
        rows.append(
            {
                "day": int(r["day"]), "dau": dau, "hau_sum": hau,
                "stickiness_e6": int(
                    math.floor(float(hau) / float(24 * dau) * 1e6 + 0.5)
                ),
            }
        )
    return pd.DataFrame(rows).astype(cols)


USER_STICKINESS_SQL = f"""
WITH f AS (
  SELECT user_id AS u, {_floor_div_sql("epoch_us(ts)", HOUR_US)} AS h,
         {_floor_div_sql("epoch_us(ts)", DAY_US)} AS day
  FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL
),
hau AS (
  SELECT day, count(*) AS hau FROM (SELECT DISTINCT u, h, day FROM f)
  GROUP BY day
),
dau AS (
  SELECT day, count(DISTINCT u) AS dau FROM f GROUP BY day
)
SELECT CAST(dau.day AS BIGINT) AS day,
       CAST(dau.dau AS BIGINT) AS dau,
       CAST(hau.hau AS BIGINT) AS hau_sum,
       CAST(floor(CAST(hau.hau AS DOUBLE)
            / CAST(24 * dau.dau AS DOUBLE) * 1e6 + 0.5) AS BIGINT)
         AS stickiness_e6
FROM dau JOIN hau ON hau.day = dau.day
"""

register("user_stickiness", user_stickiness, sql=USER_STICKINESS_SQL)


def type_hour_profile_similarity(sf_dir: str) -> pd.DataFrame:
    """(type_a, type_b, cosine_e6): cosine similarity between event
    types' 24-hour load profiles — the shape-similarity complement to
    the type×hour chi²/MI (which test dependence, not likeness): two
    types with cosine ≈ 1e6 ride the same daily rhythm and can share a
    capacity plan; a low-cosine pair needs separate provisioning.

    Exactness contract: the profile is the exact integer 24-vector of
    hour-of-day counts (hour = floored epoch_hour mod 24, non-negative
    before 1970 too, timezone-free);
    cosine = Σab / sqrt(Σa²·Σb²) is computed from exact integer sums
    through ONE shared IEEE sqrt/divide chain per pair, e6-floored.
    Zero-vector types cannot occur (a type present has ≥ 1 count);
    pairs are emitted once (type_a < type_b).

    Scale shape: one bounded (type, hour-of-day) enum fold (≤ 24·types
    rows); driver pair math. Zero shuffle.
    """
    cols = {"type_a": "object", "type_b": "object", "cosine_e6": "int64"}

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["event_type"]))
        t = batch.filter(keep)
        hours = _floor_div(t["ts"], HOUR_US)
        hod = pa.array(hours.to_numpy() % 24, type=pa.int64())
        g = (
            pa.table({"t": t["event_type"], "h": hod})
            .group_by(["t", "h"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["t", "h", "n"])

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "events"), columns=["ts", "event_type"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["t", "h"],
        ["n"],
    )
    if len(fold) == 0:
        return _empty(cols)
    profiles: dict[str, list[int]] = {}
    for ty, g in fold.groupby("t", sort=True):
        v = [0] * 24
        for h, n in zip(g["h"], g["n"]):
            v[int(h)] = int(n)
        profiles[str(ty)] = v
    types = sorted(profiles)
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            a, b = profiles[ta], profiles[tb]
            num = sum(x * y for x, y in zip(a, b))
            da = sum(x * x for x in a)
            db = sum(y * y for y in b)
            cos = float(num) / math.sqrt(float(da) * float(db))
            rows.append(
                {
                    "type_a": ta, "type_b": tb,
                    "cosine_e6": int(math.floor(cos * 1e6 + 0.5)),
                }
            )
    if not rows:
        return _empty(cols)
    return pd.DataFrame(rows).astype(cols)


TYPE_HOUR_COSINE_SQL = f"""
WITH f AS (
  SELECT event_type AS t,
         {_mod_sql(_floor_div_sql("epoch_us(ts)", HOUR_US), 24)} AS h
  FROM events WHERE ts IS NOT NULL AND event_type IS NOT NULL
),
g AS (SELECT t, h, CAST(count(*) AS HUGEINT) AS n FROM f GROUP BY 1, 2),
num AS (
  SELECT a.t AS ta, b.t AS tb, sum(a.n * b.n) AS num
  FROM g a JOIN g b ON a.h = b.h AND a.t < b.t
  GROUP BY 1, 2
),
den AS (SELECT t, sum(n * n) AS d FROM g GROUP BY t),
pairs AS (
  SELECT a.t AS ta, b.t AS tb FROM den a JOIN den b ON a.t < b.t
)
SELECT p.ta AS type_a, p.tb AS type_b,
       CAST(floor(CAST(coalesce(n.num, 0) AS DOUBLE)
            / sqrt(CAST(da.d AS DOUBLE) * CAST(db.d AS DOUBLE))
            * 1e6 + 0.5) AS BIGINT) AS cosine_e6
FROM pairs p
JOIN den da ON da.t = p.ta
JOIN den db ON db.t = p.tb
LEFT JOIN num n ON n.ta = p.ta AND n.tb = p.tb
"""

register(
    "type_hour_profile_similarity", type_hour_profile_similarity,
    sql=TYPE_HOUR_COSINE_SQL,
)


SPANS_BUCKET_CAP = 10


def extract_spans_per_turn(sf_dir: str) -> pd.DataFrame:
    """(content_kind, spans_bucket, n_turns): the distribution of span
    counts per turn by content kind (bucket = min(n_spans, 10)) — the
    granularity fingerprint of each extractor: plain text segments into
    few blocks, multi-page pdfish into page spans, empty turns into
    zero. Completes the span-audit family (X175 checks bounds and
    coverage; this one shows the shape).

    Exactness contract: pure integer counts; the bucket cap is integer
    min on both engines; zero-span turns (empty ``spans_str`` in the
    twin) land in bucket 0.

    Scale shape: ≤ kinds × 11 partial rows per block into the bounded
    enum fold; zero shuffle.
    """
    from .extraction import extract_transcripts
    from .queryset import transcripts_for_sf

    cols = {
        "content_kind": "object", "spans_bucket": "int64", "n_turns": "int64",
    }
    ds = extract_transcripts(transcripts_for_sf(sf_dir))

    def partial(batch: pa.Table) -> pa.Table:
        n_spans = pc.cast(pc.list_value_length(batch["spans"]), pa.int64())
        n_spans = pc.fill_null(n_spans, 0)
        bucket = pc.min_element_wise(
            n_spans, pa.scalar(SPANS_BUCKET_CAP, pa.int64())
        )
        g = (
            pa.table({"k": batch["content_kind"], "b": bucket})
            .group_by(["k", "b"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["k", "b", "n"])

    fold = enum_group_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["k", "b"],
        ["n"],
    )
    if len(fold) == 0:
        return _empty(cols)
    fold = fold.sort_values(["k", "b"])
    return pd.DataFrame(
        {
            "content_kind": fold["k"].astype(str),
            "spans_bucket": fold["b"].astype("int64"),
            "n_turns": fold["n"].astype("int64"),
        }
    ).reset_index(drop=True)


def _spans_per_turn_sql() -> str:
    from .extraction_queries import expected_flagship_path

    path = expected_flagship_path("/root/testdata/sf0.01")
    return f"""
WITH g AS (
  SELECT content_kind,
         least(CASE WHEN spans_str = '' THEN 0
                    ELSE len(string_split(spans_str, '|')) END,
               {SPANS_BUCKET_CAP}) AS b
  FROM read_parquet('{path}')
)
SELECT content_kind,
       CAST(b AS BIGINT) AS spans_bucket,
       CAST(count(*) AS BIGINT) AS n_turns
FROM g GROUP BY 1, 2
"""


register("extract_spans_per_turn", extract_spans_per_turn, sql=_spans_per_turn_sql())


def tax_rate_periods(sf_dir: str) -> pd.DataFrame:
    """(tax_e2, n_lines, first_day, last_day, span_days): every
    distinct tax rate with the epoch-day range it was observed
    shipping — the policy-change detector ("when did the 8% rate
    appear, and is the old 5% still in use?"). The audit a reconciler
    runs when a rate table changes upstream.

    Exactness contract: rates fold to integer percent-cents
    (round(l_tax·100)); first/last are exact integer epoch-day min/max;
    pure integers throughout — no float at all.

    Scale shape: one bounded (tax, min, max, n) enum-agg fold (distinct
    rates are policy-bounded); zero shuffle.
    """
    from .exchange import enum_group_agg

    cols = {
        "tax_e2": "int64", "n_lines": "int64", "first_day": "int64",
        "last_day": "int64", "span_days": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["l_tax"]), pc.is_valid(batch["l_shipdate"]))
        t = batch.filter(keep)
        tax = pc.cast(
            pc.round(
                pc.multiply(t["l_tax"], pa.scalar(100.0)),
                ndigits=0, round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        days = _floor_div(t["l_shipdate"], DAY_US)
        g = (
            pa.table({"tax": tax, "lo": days, "hi": days, "n": days})
            .group_by(["tax"])
            .aggregate([("lo", "min"), ("hi", "max"), ("n", "count")])
        )
        return g.rename_columns(["tax", "lo", "hi", "n"])

    fold = enum_group_agg(
        ray.data.read_parquet(
            table_path(sf_dir, "lineitem"), columns=["l_tax", "l_shipdate"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["tax"],
        {"lo": "min", "hi": "max", "n": "sum"},
    )
    if len(fold) == 0:
        return _empty(cols)
    fold = fold.sort_values("tax")
    return pd.DataFrame(
        {
            "tax_e2": fold["tax"].astype("int64"),
            "n_lines": fold["n"].astype("int64"),
            "first_day": fold["lo"].astype("int64"),
            "last_day": fold["hi"].astype("int64"),
            "span_days": (fold["hi"] - fold["lo"]).astype("int64"),
        }
    ).reset_index(drop=True)


_SHIP_DAY_SQL = _floor_div_sql("epoch_us(l_shipdate)", DAY_US)

TAX_RATE_PERIODS_SQL = f"""
SELECT CAST(round(l_tax * 100.0, 0) AS BIGINT) AS tax_e2,
       CAST(count(*) AS BIGINT) AS n_lines,
       CAST(min({_SHIP_DAY_SQL}) AS BIGINT) AS first_day,
       CAST(max({_SHIP_DAY_SQL}) AS BIGINT) AS last_day,
       CAST(max({_SHIP_DAY_SQL}) - min({_SHIP_DAY_SQL}) AS BIGINT)
         AS span_days
FROM lineitem
WHERE l_tax IS NOT NULL AND l_shipdate IS NOT NULL
GROUP BY 1
"""

register("tax_rate_periods", tax_rate_periods, sql=TAX_RATE_PERIODS_SQL)


def conversation_structure_audit(sf_dir: str) -> pd.DataFrame:
    """(first_role, last_role, n_convs, share_e6): the dialogue-shape
    census for training-data QA — every conversation classified by who
    spoke first and who spoke last. Chat-format training data usually
    requires system/user openings and assistant closings; everything
    off-diagonal here is a candidate for dropping or re-truncation
    before packing.

    Exactness contract: first/last are the exact argmin/argmax of
    turn_idx per conversation (unique within a conversation, no tie
    rule needed); counts integer; share_e6 one IEEE divide.

    Scale shape: in-block per-conversation candidate (min, max) rows →
    ONE conv-keyed metadata exchange resolving the true endpoints →
    bounded (roles²) enum fold.
    """
    from .exchange import hash_partitioned
    from .queryset import transcripts_for_sf

    cols = {
        "first_role": "object", "last_role": "object",
        "n_convs": "int64", "share_e6": "int64",
    }

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "conv": batch["conv_id"].to_pandas().to_numpy(),
                "idx": pc.cast(batch["turn_idx"], pa.int64()).to_numpy(
                    zero_copy_only=False
                ),
                "role": batch["role"].to_pandas().to_numpy(),
            }
        )
        df = df.sort_values(["conv", "idx"], kind="mergesort")
        g = df.groupby("conv", sort=False)
        out = pd.DataFrame(
            {
                "first_idx": g["idx"].first(),
                "first_role": g["role"].first(),
                "last_idx": g["idx"].last(),
                "last_role": g["role"].last(),
            }
        ).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    def per_conv(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "first_role": pd.Series(dtype="object"),
                    "last_role": pd.Series(dtype="object"),
                    "n": pd.Series(dtype="int64"),
                }
            )
        g = df.groupby("conv", sort=False)
        fi = df.loc[g["first_idx"].idxmin(), ["conv", "first_role"]].set_index(
            "conv"
        )["first_role"]
        la = df.loc[g["last_idx"].idxmax(), ["conv", "last_role"]].set_index(
            "conv"
        )["last_role"]
        pairs = pd.DataFrame({"first_role": fi, "last_role": la})
        out = (
            pairs.groupby(["first_role", "last_role"], sort=False)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype("int64")
        return out

    fold = enum_group_sum(
        hash_partitioned(
            ray.data.read_parquet(
                transcripts_for_sf(sf_dir),
                columns=["conv_id", "turn_idx", "role"],
            ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "conv",
            per_conv,
        ),
        ["first_role", "last_role"],
        ["n"],
    )
    if len(fold) == 0:
        return _empty(cols)
    total = int(fold["n"].sum())
    fold = fold.sort_values(["first_role", "last_role"])
    return pd.DataFrame(
        {
            "first_role": fold["first_role"].astype(str),
            "last_role": fold["last_role"].astype(str),
            "n_convs": fold["n"].astype("int64"),
            "share_e6": [
                int(math.floor(float(int(n)) / float(total) * 1e6 + 0.5))
                for n in fold["n"]
            ],
        }
    ).reset_index(drop=True)


def _structure_audit_sql() -> str:
    from .queryset import transcripts_path_for_sf

    path = transcripts_path_for_sf("/root/testdata/sf0.01")
    return f"""
WITH r AS (
  SELECT conv_id,
         first(role ORDER BY turn_idx) AS first_role,
         last(role ORDER BY turn_idx) AS last_role
  FROM read_parquet('{path}')
  GROUP BY conv_id
),
g AS (
  SELECT first_role, last_role, count(*) AS n FROM r GROUP BY 1, 2
),
tot AS (SELECT sum(n) AS t FROM g)
SELECT first_role, last_role,
       CAST(n AS BIGINT) AS n_convs,
       CAST(floor(CAST(n AS DOUBLE) / CAST(tot.t AS DOUBLE) * 1e6 + 0.5)
            AS BIGINT) AS share_e6
FROM g CROSS JOIN tot
"""


register(
    "conversation_structure_audit", conversation_structure_audit,
    sql=_structure_audit_sql(),
)


def customer_segment_nation_chi2(sf_dir: str) -> pd.DataFrame:
    """(n_obs, dof, chi2_e6, cramers_v_e6): Pearson independence test of
    customer market segment × nation with Cramér's V effect size — the
    demographic-balance audit (is the corpus's segment mix uniform
    across geographies, or does training data over-represent one
    market's behavior?). The customer-dimension sibling of the
    type×hour chi² (X103), with the same fixed-point contract.

    Exactness contract: observed counts fold over the bounded
    #segments × #nations enum; each cell term (obs − e)²/e (e =
    row·col/N in float64) is quantized to 1e-6 BEFORE the sum, so the
    total is an order-free integer sum, bit-equal to the twin;
    Cramér's V = sqrt(chi2/(N·min(r−1, c−1))) is one IEEE sqrt chain
    from the already-quantized chi2. Zero cells on the observed-
    marginals grid included; NULL segment/nation rows excluded;
    degenerate grids (r < 2 or c < 2) return empty.

    Scale shape: one column-pruned scan with the nation-name broadcast
    (dimension-sized), bounded enum fold, driver cell math. No shuffle.
    """
    import pyarrow.parquet as _pq

    cols = {
        "n_obs": "int64", "dof": "int64",
        "chi2_e6": "int64", "cramers_v_e6": "int64",
    }
    nation = _pq.read_table(
        table_path(sf_dir, "nation"), columns=["n_nationkey", "n_name"]
    )
    nmap = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch["c_mktsegment"]), pc.is_valid(batch["c_nationkey"])
        )
        t = batch.filter(keep)
        g = (
            pa.table(
                {
                    "s": t["c_mktsegment"],
                    "nk": pc.cast(t["c_nationkey"], pa.int64()),
                }
            )
            .group_by(["s", "nk"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["s", "nk", "n"])

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "customer"),
            columns=["c_mktsegment", "c_nationkey"],
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["s", "nk"],
        ["n"],
    )
    if len(fold) == 0:
        return _empty(cols)
    # unknown nation keys keep their own column under a sentinel name
    fold = fold.assign(
        nation=[nmap.get(int(k), "(unmatched)") for k in fold["nk"]]
    )
    obs = fold.groupby(["s", "nation"])["n"].sum()
    segs = sorted({s for s, _ in obs.index})
    nats = sorted({n for _, n in obs.index})
    if len(segs) < 2 or len(nats) < 2:
        return _empty(cols)
    row_tot = {s: 0 for s in segs}
    col_tot = {n: 0 for n in nats}
    for (s, n), v in obs.items():
        row_tot[s] += int(v)
        col_tot[n] += int(v)
    N = sum(row_tot.values())
    chi2_e6 = 0
    for s in segs:
        for n in nats:
            o = int(obs.get((s, n), 0))
            e = float(row_tot[s]) * float(col_tot[n]) / float(N)
            term = (float(o) - e) * (float(o) - e) / e
            chi2_e6 += int(math.floor(term * 1e6 + 0.5))
    dof = (len(segs) - 1) * (len(nats) - 1)
    m = min(len(segs) - 1, len(nats) - 1)
    v = math.sqrt((chi2_e6 / 1e6) / (float(N) * float(m)))
    return pd.DataFrame(
        [
            {
                "n_obs": N, "dof": dof, "chi2_e6": chi2_e6,
                "cramers_v_e6": int(math.floor(v * 1e6 + 0.5)),
            }
        ]
    ).astype(cols)


CUSTOMER_CHI2_SQL = """
WITH f AS (
  SELECT c.c_mktsegment AS s, coalesce(n.n_name, '(unmatched)') AS nation
  FROM customer c LEFT JOIN nation n ON n.n_nationkey = c.c_nationkey
  WHERE c.c_mktsegment IS NOT NULL AND c.c_nationkey IS NOT NULL
),
o AS (SELECT s, nation, count(*) AS n FROM f GROUP BY 1, 2),
grid AS (
  SELECT a.s, b.nation FROM (SELECT DISTINCT s FROM o) a,
       (SELECT DISTINCT nation FROM o) b
),
cells AS (
  SELECT grid.s, grid.nation, coalesce(o.n, 0) AS n
  FROM grid LEFT JOIN o ON o.s = grid.s AND o.nation = grid.nation
),
rt AS (SELECT s, sum(n) AS r FROM cells GROUP BY s),
ct AS (SELECT nation, sum(n) AS c FROM cells GROUP BY nation),
tot AS (SELECT sum(n) AS nn, count(DISTINCT s) AS nr,
               count(DISTINCT nation) AS nc FROM cells),
terms AS (
  SELECT CAST(floor(
           (CAST(cells.n AS DOUBLE)
            - CAST(rt.r AS DOUBLE) * CAST(ct.c AS DOUBLE)
              / CAST(tot.nn AS DOUBLE))
           * (CAST(cells.n AS DOUBLE)
              - CAST(rt.r AS DOUBLE) * CAST(ct.c AS DOUBLE)
                / CAST(tot.nn AS DOUBLE))
           / (CAST(rt.r AS DOUBLE) * CAST(ct.c AS DOUBLE)
              / CAST(tot.nn AS DOUBLE))
           * 1e6 + 0.5) AS BIGINT) AS t_e6
  FROM cells
  JOIN rt ON rt.s = cells.s
  JOIN ct ON ct.nation = cells.nation
  CROSS JOIN tot
)
SELECT CAST(tot.nn AS BIGINT) AS n_obs,
       CAST((tot.nr - 1) * (tot.nc - 1) AS BIGINT) AS dof,
       CAST((SELECT sum(t_e6) FROM terms) AS BIGINT) AS chi2_e6,
       CAST(floor(sqrt((CAST((SELECT sum(t_e6) FROM terms) AS DOUBLE) / 1e6)
            / (CAST(tot.nn AS DOUBLE)
               * CAST(least(tot.nr - 1, tot.nc - 1) AS DOUBLE)))
            * 1e6 + 0.5) AS BIGINT) AS cramers_v_e6
FROM tot WHERE tot.nr >= 2 AND tot.nc >= 2
"""

register(
    "customer_segment_nation_chi2", customer_segment_nation_chi2,
    sql=CUSTOMER_CHI2_SQL,
)
