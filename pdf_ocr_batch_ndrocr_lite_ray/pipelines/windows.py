"""Windowed / sessionized aggregates over the ``events`` stream table.

The reference is a finite batch with no windowing (SURVEY.md §2.9); these
are the streaming-shaped operators a transcript/event pipeline needs,
expressed Ray-Data-first:

- **tumbling window**: the window key is a pure row function (truncate the
  timestamp), so windowing is just partial aggregation on a derived key —
  no ordering assumption, no watermark needed for a complete batch.
- **sessionization**: the classic "order within key, split on gaps" —
  per-user event streams are hash-partitioned (only (user_id, ts) columns
  move), each partition sorts its own users' events in-process, and gap >
  ``SESSION_GAP_SEC`` starts a new session. At 10^12 events the shape is
  identical; a user's history must just fit one partition's memory (salt
  by time range if a single user exceeds it).

Both have exact DuckDB oracles (date_trunc / lag-sum windows).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Sum

from .dedup import _hash_partitioned, _rename
from .queryset import register, table_path

SESSION_GAP_SEC = 1800  # 30-minute inactivity ends a session


def events_hourly(sf_dir: str) -> "ray.data.Dataset":
    """Tumbling 1-hour window: (window_start, event_type, n_events).

    Window assignment happens inside ``map_batches`` (vectorized timestamp
    truncate) and the per-block partial counts make the exchange carry
    #windows × #types rows per block.
    """

    def partial(batch: pa.Table) -> pa.Table:
        hours = pc.floor_temporal(batch["ts"], unit="hour")
        t = pa.table(
            {
                "window_start": hours,
                "event_type": batch["event_type"],
                "event_id": batch["event_id"],
            }
        )
        g = t.group_by(["window_start", "event_type"]).aggregate([("event_id", "count")])
        return g.rename_columns(["window_start", "event_type", "n_events"])

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "ts", "event_type"]
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    # (#hours × #types) partials — time-range-bounded, fold on the driver
    # (a multi-key Ray aggregate here is pure sort-shuffle overhead)
    from .exchange import enum_group_sum

    return ray.data.from_pandas(
        enum_group_sum(ds, ["window_start", "event_type"], ["n_events"])
    )


EVENTS_HOURLY_SQL = """
SELECT date_trunc('hour', ts) AS window_start, event_type,
       count(event_id) AS n_events
FROM events GROUP BY 1, 2
"""


def _sessionize_partition(df: pd.DataFrame) -> pd.DataFrame:
    out_user, out_sessions, out_events, out_longest = [], [], [], []
    for user_id, g in df.groupby("user_id", sort=True):
        ts = np.sort(g["ts"].values.astype("datetime64[us]").astype(np.int64))
        gaps = np.diff(ts) > SESSION_GAP_SEC * 1_000_000
        n_sessions = 1 + int(gaps.sum())
        # longest session by event count
        boundaries = np.flatnonzero(gaps)
        sizes = np.diff(np.concatenate([[0], boundaries + 1, [len(ts)]]))
        out_user.append(int(user_id))
        out_sessions.append(n_sessions)
        out_events.append(len(ts))
        out_longest.append(int(sizes.max()))
    return pd.DataFrame(
        {
            "user_id": pd.Series(out_user, dtype="int64"),
            "n_sessions": pd.Series(out_sessions, dtype="int64"),
            "n_events": pd.Series(out_events, dtype="int64"),
            "longest_session_events": pd.Series(out_longest, dtype="int64"),
        }
    )


def user_sessions(sf_dir: str) -> "ray.data.Dataset":
    """Per-user sessionization: (user_id, n_sessions, n_events,
    longest_session_events) with a 30-min gap rule."""
    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "ts"]
    )
    return _hash_partitioned(ds, "user_id", _sessionize_partition)


USER_SESSIONS_SQL = f"""
WITH ordered AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL {SESSION_GAP_SEC} SECOND
              OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events
),
tagged AS (
  SELECT user_id, ts,
         sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                ROWS UNBOUNDED PRECEDING) AS session_id
  FROM ordered
),
per_session AS (
  SELECT user_id, session_id, count(*) AS n FROM tagged GROUP BY 1, 2
)
SELECT user_id, count(*) AS n_sessions, CAST(sum(n) AS BIGINT) AS n_events,
       CAST(max(n) AS BIGINT) AS longest_session_events
FROM per_session GROUP BY user_id
"""


SLIDE_LEN_SEC = 3600  # sliding window length
SLIDE_STEP_SEC = 900  # slide step → each event lands in LEN/STEP windows


def events_sliding(sf_dir: str) -> "ray.data.Dataset":
    """Sliding 1h/15min window counts: (window_start, event_type, n_events).

    An event at epoch ``e`` belongs to the ``LEN/STEP`` windows starting at
    ``floor(e/STEP)*STEP - j*STEP`` — assignment is a vectorized shift per
    replica ``j`` inside ``map_batches`` (the standard streaming window
    replication), and per-block partial counts keep the exchange at
    #windows × #types rows per block, never #events × replicas.
    ``window_start`` is emitted as epoch SECONDS (int64) on both engines —
    integer-exact, no timezone semantics to match.
    """
    n_rep = SLIDE_LEN_SEC // SLIDE_STEP_SEC

    def partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64())  # timestamp[us] → microseconds
        base = pc.multiply(
            pc.divide(us, SLIDE_STEP_SEC * 1_000_000), SLIDE_STEP_SEC
        )
        reps = []
        for j in range(n_rep):
            reps.append(
                pa.table(
                    {
                        "window_start": pc.subtract(base, j * SLIDE_STEP_SEC),
                        "event_type": batch["event_type"],
                    }
                )
            )
        t = pa.concat_tables(reps)
        g = t.group_by(["window_start", "event_type"]).aggregate([([], "count_all")])
        return g.rename_columns(["window_start", "event_type", "n_events"])

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["ts", "event_type"]
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    # windows × types is time-range-bounded → driver fold, same as hourly
    from .exchange import enum_group_sum

    return ray.data.from_pandas(
        enum_group_sum(ds, ["window_start", "event_type"], ["n_events"])
    )


EVENTS_SLIDING_SQL = f"""
SELECT (epoch_us(ts) // {SLIDE_STEP_SEC * 1_000_000}) * {SLIDE_STEP_SEC}
         - {SLIDE_STEP_SEC} * CAST(j AS BIGINT) AS window_start,
       event_type, count(*) AS n_events
FROM events, LATERAL UNNEST(generate_series(0, {SLIDE_LEN_SEC // SLIDE_STEP_SEC - 1})) u(j)
GROUP BY 1, 2
"""


# --- exact per-group median (order statistic without a global sort) ---------

def events_median_value_by_type(sf_dir: str) -> "ray.data.Dataset":
    """(event_type, median_value): EXACT median per group.

    Order statistics can't pre-aggregate, but they don't need a global
    sort either: hash-partition by the group key (each partition holds
    complete groups), sort only within the partition's own groups. The
    exchange carries (event_type, value) — 2 columns.
    """

    def median_partition(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", sort=True)["value"].median().reset_index()
        # half-away-from-zero to match DuckDB round(): an even-count median
        # is a two-value average and lands on exact .5e-6 boundaries easily
        v = g["value"].to_numpy() * 1e6
        g["median_value"] = np.sign(v) * np.floor(np.abs(v) + 0.5) / 1e6
        return g[["event_type", "median_value"]]

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["event_type", "value"]
    )
    return _hash_partitioned(ds, "event_type", median_partition)


EVENTS_MEDIAN_SQL = """
SELECT event_type, round(median(value), 6) AS median_value
FROM events GROUP BY event_type
"""


# --- ordered window function: per-user running total ------------------------

RUNNING_TOPN = 5  # emit each user's first N events (bounded output)


def user_running_value(sf_dir: str) -> "ray.data.Dataset":
    """(user_id, event_id, running_value_e4) for each user's first N
    events: the cumulative-sum window function, hash-partitioned per user
    and computed with one stable in-partition sort — no global ordering
    needed because the frame is per-key. The frame order is
    ``(ts, event_id)`` — a TOTAL order, so duplicate timestamps cannot
    make the running totals engine-dependent — and values are summed as
    integer 1e-4 units so the total is independent of float summation
    order.
    """

    def running_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        v = df["value"].to_numpy() * 10000.0
        # half-away-from-zero, matching DuckDB round() (numpy rounds half-even)
        scaled = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        df = df.assign(
            running_value_e4=pd.Series(scaled, index=df.index)
            .groupby(df["user_id"])
            .cumsum()
        )
        out = df.groupby("user_id", sort=True).head(RUNNING_TOPN)
        return out[["user_id", "event_id", "running_value_e4"]].reset_index(drop=True)

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "event_id", "ts", "value"]
    )
    return _hash_partitioned(ds, "user_id", running_partition)


USER_RUNNING_SQL = f"""
WITH r AS (
  SELECT user_id, event_id,
         sum(CAST(round(value * 10000, 0) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING
         ) AS running_value_e4,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
)
SELECT user_id, event_id, CAST(running_value_e4 AS BIGINT) AS running_value_e4
FROM r WHERE rn <= {RUNNING_TOPN}
"""


# --- interval join: purchases inside each session window --------------------

SESSION_TARGET_TYPE = "purchase"


def session_purchase_counts(sf_dir: str) -> "ray.data.Dataset":
    """(user_id, session_start_us, n_purchases): an INTERVAL JOIN — each
    user's sessions become [start, end] windows and that user's purchase
    events are counted into the window containing them.

    The join key is the user, so ONE hash partition co-locates both sides
    (sessions are derived in-partition, purchases binary-search into the
    interval list via ``np.searchsorted``); no per-interval fan-out, no
    cross product. Session starts are epoch microseconds (int64) so both
    engines compare integers, not timestamps.
    """

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        out_user, out_start, out_n = [], [], []
        for user_id, g in df.groupby("user_id", sort=True):
            ts = np.sort(g["ts"].values.astype("datetime64[us]").astype(np.int64))
            gaps = np.diff(ts) > SESSION_GAP_SEC * 1_000_000
            starts = ts[np.concatenate([[True], gaps])]
            p = g[g["event_type"] == SESSION_TARGET_TYPE]
            pts = p["ts"].values.astype("datetime64[us]").astype(np.int64)
            # session index of each purchase: rightmost start <= ts
            idx = np.searchsorted(starts, pts, side="right") - 1
            counts = np.bincount(idx, minlength=len(starts))
            out_user.extend([int(user_id)] * len(starts))
            out_start.extend(int(s) for s in starts)
            out_n.extend(int(c) for c in counts)
        return pd.DataFrame(
            {
                "user_id": pd.Series(out_user, dtype="int64"),
                "session_start_us": pd.Series(out_start, dtype="int64"),
                "n_purchases": pd.Series(out_n, dtype="int64"),
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
    )
    return _hash_partitioned(ds, "user_id", per_user)


SESSION_PURCHASE_SQL = f"""
WITH ordered AS (
  SELECT user_id, ts, event_type,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL {SESSION_GAP_SEC} SECOND
              OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events
),
tagged AS (
  SELECT user_id, ts, event_type,
         sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                ROWS UNBOUNDED PRECEDING) AS session_id
  FROM ordered
)
SELECT user_id, epoch_us(min(ts)) AS session_start_us,
       CAST(count(*) FILTER (event_type = '{SESSION_TARGET_TYPE}') AS BIGINT) AS n_purchases
FROM tagged GROUP BY user_id, session_id
"""


register("events_hourly", events_hourly, sql=EVENTS_HOURLY_SQL)
register("events_sliding", events_sliding, sql=EVENTS_SLIDING_SQL)
register("user_sessions", user_sessions, sql=USER_SESSIONS_SQL)
register(
    "events_median_value_by_type", events_median_value_by_type, sql=EVENTS_MEDIAN_SQL
)
register("user_running_value", user_running_value, sql=USER_RUNNING_SQL)
register("session_purchase_counts", session_purchase_counts, sql=SESSION_PURCHASE_SQL)


# --- ordered funnel: view → click → purchase within step windows ------------

FUNNEL_STEP_SEC = 24 * 3600  # each next step must follow within 24h
FUNNEL_STEPS = ("view", "click", "purchase")


def user_funnel_counts(sf_dir: str) -> "ray.data.Dataset":
    """(step, n_users): the ordered event funnel. A user advances a step
    when the step's event type occurs STRICTLY AFTER the previous step's
    time and within ``FUNNEL_STEP_SEC`` of it (first qualifying event
    wins). Per-user sequence logic runs inside one hash partition
    (vectorized min-over-mask per step); the exchange then carries only
    per-block step counts.
    """

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        counts = np.zeros(len(FUNNEL_STEPS), dtype=np.int64)
        for _, g in df.groupby("user_id", sort=False):
            ts = g["ts"].values.astype("datetime64[us]").astype(np.int64)
            et = g["event_type"].to_numpy()
            prev_t = -1
            for depth, step in enumerate(FUNNEL_STEPS):
                if depth == 0:
                    mask = et == step
                else:
                    mask = (
                        (et == step)
                        & (ts > prev_t)
                        & (ts <= prev_t + FUNNEL_STEP_SEC * 1_000_000)
                    )
                if not mask.any():
                    break
                prev_t = int(ts[mask].min())
                counts[depth] += 1
        labels = [">".join(FUNNEL_STEPS[: i + 1]) for i in range(len(FUNNEL_STEPS))]
        return pd.DataFrame(
            {
                "step": pd.Series(labels, dtype="object"),
                "n_users": pd.Series(counts, dtype="int64"),
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
    )
    partials = _hash_partitioned(ds, "user_id", per_user)
    # funnel steps are a bounded enum → fold partials on the driver
    from .exchange import enum_group_sum

    return ray.data.from_pandas(enum_group_sum(partials, ["step"], ["n_users"]))


USER_FUNNEL_SQL = f"""
WITH s1 AS (
  SELECT user_id, min(ts) AS t1 FROM events
  WHERE event_type = '{FUNNEL_STEPS[0]}' GROUP BY 1
),
s2 AS (
  SELECT e.user_id, min(e.ts) AS t2
  FROM events e JOIN s1 ON e.user_id = s1.user_id
  WHERE e.event_type = '{FUNNEL_STEPS[1]}' AND e.ts > s1.t1
    AND e.ts <= s1.t1 + INTERVAL {FUNNEL_STEP_SEC} SECOND GROUP BY 1
),
s3 AS (
  SELECT e.user_id, min(e.ts) AS t3
  FROM events e JOIN s2 ON e.user_id = s2.user_id
  WHERE e.event_type = '{FUNNEL_STEPS[2]}' AND e.ts > s2.t2
    AND e.ts <= s2.t2 + INTERVAL {FUNNEL_STEP_SEC} SECOND GROUP BY 1
)
SELECT '{FUNNEL_STEPS[0]}' AS step, (SELECT count(*) FROM s1) AS n_users
UNION ALL SELECT '{">".join(FUNNEL_STEPS[:2])}', (SELECT count(*) FROM s2)
UNION ALL SELECT '{">".join(FUNNEL_STEPS)}', (SELECT count(*) FROM s3)
"""

register("user_funnel_counts", user_funnel_counts, sql=USER_FUNNEL_SQL)


# --- per-group winsorization (quantile clipping) ----------------------------

WINSOR_LO = 0.05
WINSOR_HI = 0.95


def events_winsorized(sf_dir: str) -> "ray.data.Dataset":
    """(event_id, event_type, value_w): values clipped to the per-type
    [p05, p95] band — the outlier-clipping normalizer a metrics/quality
    pipeline applies before averaging heavy-tailed signals.

    Two stages, no all-to-all of the fact rows: the per-type quantile pair
    comes from the same complete-group hash partition as the grouped
    median (exchange carries (event_type, value) only), broadcasts via
    ``ray.put`` (#types-bounded), and the clip pass is embarrassingly
    parallel.

    Float parity contract: the quantile is computed EXPLICITLY with
    DuckDB's own interpolation shape ``v[FRN]·(CRN−RN) + v[CRN]·(RN−FRN)``
    (RN = (n−1)·q; exact element when RN is integral) — NOT the
    algebraically-equal ``a + (b−a)·f``, which rounds differently in the
    last ulp and flips the 6th decimal on ~0.4% of random inputs (found
    by the interpolation fuzz in tests) — then rounded to 6 decimals
    half-away-from-zero on both sides, as is the clipped output value.
    """
    import ray as _ray

    from .exchange import quantile_cont_duckdb as _qcont
    from .exchange import round6 as _round6

    def quantile_partition(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=True):
            v = np.sort(g["value"].to_numpy(dtype=np.float64))
            rows.append((et, _qcont(v, WINSOR_LO), _qcont(v, WINSOR_HI)))
        out = pd.DataFrame(rows, columns=["event_type", "lo", "hi"])
        out["lo"] = _round6(out["lo"].to_numpy())
        out["hi"] = _round6(out["hi"].to_numpy())
        return out

    ds_kv = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["event_type", "value"]
    )
    bounds = _hash_partitioned(ds_kv, "event_type", quantile_partition).to_pandas()
    ref = _ray.put(
        {r.event_type: (r.lo, r.hi) for r in bounds.itertuples(index=False)}
    )

    def clip(df: pd.DataFrame) -> pd.DataFrame:
        b = _ray.get(ref)
        lo = df["event_type"].map(lambda t: b[t][0]).to_numpy(dtype=np.float64)
        hi = df["event_type"].map(lambda t: b[t][1]).to_numpy(dtype=np.float64)
        v = np.minimum(np.maximum(df["value"].to_numpy(dtype=np.float64), lo), hi)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "event_type": df["event_type"].to_numpy(),
                "value_w": _round6(v),
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    )
    return ds.map_batches(clip, batch_format="pandas")


EVENTS_WINSORIZED_SQL = f"""
WITH q AS (
  SELECT event_type,
         round(quantile_cont(value, {WINSOR_LO}), 6) AS lo,
         round(quantile_cont(value, {WINSOR_HI}), 6) AS hi
  FROM events GROUP BY event_type
)
SELECT e.event_id, e.event_type,
       round(least(greatest(e.value, q.lo), q.hi), 6) AS value_w
FROM events e JOIN q USING (event_type)
"""

register("events_winsorized", events_winsorized, sql=EVENTS_WINSORIZED_SQL)


# --- ordered window function: lag / time-since-previous ----------------------


def events_time_delta(sf_dir: str) -> "ray.data.Dataset":
    """(user_id, event_id, delta_us): microseconds since the user's
    previous event — the ``lag()`` window function, the building block of
    dwell-time / inter-arrival features.

    Same shape as ``user_running_value``: hash-partition by ``user_id``
    (each partition holds complete users), ONE stable in-partition sort
    over the total order ``(ts, event_id)``, then a vectorized diff per
    user. No global sort; the exchange carries 3 columns. A user's first
    event has no predecessor — emitted as ``delta_us = -1`` (not NULL) so
    both engines hash an integer, mirroring the zorder NULL-sentinel rule.
    """

    def lag_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        ts_us = df["ts"].values.astype("datetime64[us]").astype(np.int64)
        prev = np.empty(len(df), dtype=np.int64)
        prev[1:] = ts_us[:-1]
        prev[0] = -1
        delta = ts_us - prev
        # first row of each user: no predecessor within the frame
        first = np.concatenate(
            [[True], df["user_id"].to_numpy()[1:] != df["user_id"].to_numpy()[:-1]]
        )
        delta[first] = -1
        return pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy(),
                "event_id": df["event_id"].to_numpy(),
                "delta_us": delta,
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "event_id", "ts"]
    )
    return _hash_partitioned(ds, "user_id", lag_partition)


EVENTS_TIME_DELTA_SQL = """
SELECT user_id, event_id,
       coalesce(
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ),
         -1
       ) AS delta_us
FROM events
"""

register("events_time_delta", events_time_delta, sql=EVENTS_TIME_DELTA_SQL)


# --- per-group robust scaling (median / IQR standardization) -----------------

ROBUST_Q_LO = 0.25
ROBUST_Q_HI = 0.75


def events_robust_scaled(sf_dir: str) -> "ray.data.Dataset":
    """(event_id, event_type, value_r): per-type robust standardization
    ``(value - median) / IQR`` — the outlier-insensitive feature scaler
    (scikit-learn's RobustScaler) a heavy-tailed metrics pipeline applies
    instead of z-scoring, which would need order-dependent float moment
    sums.

    Same two-stage shape as ``events_winsorized``: exact per-type order
    statistics from a complete-group hash partition (exchange carries
    (event_type, value) only), a #types-bounded ``ray.put`` broadcast,
    then an embarrassingly-parallel scale pass. Median/IQR use DuckDB's
    own ``quantile_cont`` interpolation shape (see winsorize docstring),
    both rounded to 6 decimals before the scale so each engine divides
    identical doubles; a degenerate IQR of 0 (constant group) emits 0.
    """
    import ray as _ray

    from .exchange import quantile_cont_duckdb as _qcont
    from .exchange import round6 as _round6

    def stats_partition(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=True):
            v = np.sort(g["value"].to_numpy(dtype=np.float64))
            med = _qcont(v, 0.5)
            iqr = _qcont(v, ROBUST_Q_HI) - _qcont(v, ROBUST_Q_LO)
            rows.append((et, med, iqr))
        out = pd.DataFrame(rows, columns=["event_type", "med", "iqr"])
        out["med"] = _round6(out["med"].to_numpy())
        out["iqr"] = _round6(out["iqr"].to_numpy())
        return out

    ds_kv = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["event_type", "value"]
    )
    stats = _hash_partitioned(ds_kv, "event_type", stats_partition).to_pandas()
    ref = _ray.put(
        {r.event_type: (r.med, r.iqr) for r in stats.itertuples(index=False)}
    )

    def scale(df: pd.DataFrame) -> pd.DataFrame:
        b = _ray.get(ref)
        med = df["event_type"].map(lambda t: b[t][0]).to_numpy(dtype=np.float64)
        iqr = df["event_type"].map(lambda t: b[t][1]).to_numpy(dtype=np.float64)
        v = df["value"].to_numpy(dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(iqr == 0.0, 0.0, (v - med) / iqr)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "event_type": df["event_type"].to_numpy(),
                "value_r": _round6(z),
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    )
    return ds.map_batches(scale, batch_format="pandas")


EVENTS_ROBUST_SCALED_SQL = f"""
WITH q AS (
  SELECT event_type,
         round(quantile_cont(value, 0.5), 6) AS med,
         round(quantile_cont(value, {ROBUST_Q_HI})
               - quantile_cont(value, {ROBUST_Q_LO}), 6) AS iqr
  FROM events GROUP BY event_type
)
SELECT e.event_id, e.event_type,
       CASE WHEN q.iqr = 0 THEN 0.0
            ELSE round((e.value - q.med) / q.iqr, 6) END AS value_r
FROM events e JOIN q USING (event_type)
"""

register("events_robust_scaled", events_robust_scaled, sql=EVENTS_ROBUST_SCALED_SQL)


# --- cohort retention: signup week x activity-week offset --------------------

WEEK_US = 7 * 86400 * 1_000_000


def user_retention_cohorts(sf_dir: str) -> "ray.data.Dataset":
    """(cohort_week, week_offset, n_users): the retention triangle — users
    grouped by first-activity week, counted once per later week they came
    back. The product-analytics staple over an event log.

    One hash partition by ``user_id`` (complete users per partition): the
    cohort week is an in-partition min, the distinct (cohort, offset,
    user) triples collapse in-partition, and only bounded (cohort,
    offset, count) partials — #weeks² rows, independent of user count —
    reach the driver fold. Weeks are integer ``epoch_us // WEEK_US`` so
    both engines bucket with exact integer division.
    """
    from .exchange import enum_group_sum

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].values.astype("datetime64[us]").astype(np.int64)
        # DuckDB // truncates toward zero; numpy // floors — they differ on
        # pre-epoch timestamps, so truncate explicitly
        wk = us // WEEK_US
        wk += ((us < 0) & (us - wk * WEEK_US != 0)).astype(np.int64)
        d = pd.DataFrame({"user_id": df["user_id"].to_numpy(), "wk": wk})
        cohort = d.groupby("user_id")["wk"].transform("min")
        d["cohort_week"] = cohort
        d["week_offset"] = d["wk"] - cohort
        u = d.drop_duplicates(["user_id", "cohort_week", "week_offset"])
        g = (
            u.groupby(["cohort_week", "week_offset"], sort=False)
            .size()
            .reset_index(name="n_users")
        )
        g["n_users"] = g["n_users"].astype("int64")
        return g

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "ts"]
    )
    partials = _hash_partitioned(ds, "user_id", per_user)
    return ray.data.from_pandas(
        enum_group_sum(partials, ["cohort_week", "week_offset"], ["n_users"])
    )


USER_RETENTION_SQL = f"""
WITH f AS (
  SELECT user_id, epoch_us(ts) // {WEEK_US} AS wk FROM events
),
c AS (SELECT user_id, min(wk) AS cohort_week FROM f GROUP BY user_id),
d AS (
  SELECT DISTINCT f.user_id, c.cohort_week, f.wk - c.cohort_week AS week_offset
  FROM f JOIN c USING (user_id)
)
SELECT cohort_week, week_offset, CAST(count(*) AS BIGINT) AS n_users
FROM d GROUP BY cohort_week, week_offset
"""

register("user_retention_cohorts", user_retention_cohorts, sql=USER_RETENTION_SQL)


# --- rank window function: per-group percent_rank ----------------------------


def events_percent_rank(sf_dir: str) -> "ray.data.Dataset":
    """(event_id, event_type, pr): ``percent_rank()`` over value within
    each event type — the rank-family window function (ntile/percentile
    features for model inputs). Ties take the minimum rank, exactly like
    SQL's RANK; pr = (rank-1)/(n-1), a single exact-integer division both
    engines round identically (single-row groups emit 0, the SQL
    convention).

    Same partition shape as the grouped median: ONE hash exchange on the
    type key, complete groups per partition, vectorized pandas rank
    in-process. Output rounded to 6 decimals on both sides.
    """

    def rank_partition(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for et, g in df.groupby("event_type", sort=True):
            n = len(g)
            rank = g["value"].rank(method="min").to_numpy(dtype=np.float64)
            from .exchange import round6 as _round6

            pr = np.zeros(n, dtype=np.float64) if n == 1 else (rank - 1.0) / float(n - 1)
            pr6 = _round6(pr)
            out.append(
                pd.DataFrame(
                    {
                        "event_id": g["event_id"].to_numpy(),
                        "event_type": et,
                        "pr": pr6,
                    }
                )
            )
        return pd.concat(out) if out else pd.DataFrame(
            {
                "event_id": pd.Series(dtype="int64"),
                "event_type": pd.Series(dtype="object"),
                "pr": pd.Series(dtype="float64"),
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    )
    return _hash_partitioned(ds, "event_type", rank_partition)


EVENTS_PERCENT_RANK_SQL = """
SELECT event_id, event_type,
       round(percent_rank() OVER (PARTITION BY event_type ORDER BY value), 6) AS pr
FROM events
"""

register("events_percent_rank", events_percent_rank, sql=EVENTS_PERCENT_RANK_SQL)


# --- gap-filled resample: dense hourly grid with zero fill -------------------


def events_hourly_dense(sf_dir: str) -> "ray.data.Dataset":
    """(hour_s, event_type, n_events): the tumbling hourly counts
    RESAMPLED onto the dense [min, max] hour grid per type, zero-filled —
    the gap-filling step every time-series feature pipeline needs before
    windowed models (missing hours must be explicit zeros, not absent
    rows).

    The counts come from the same bounded partial fold as
    ``events_hourly``; the grid bounds are one cheap min/max aggregate;
    the reindex happens on the driver over the #hours × #types frame
    (time-range-bounded, independent of event count). Hours are integer
    epoch seconds on both engines.
    """
    from ray.data.aggregate import Max, Min

    from .exchange import enum_group_sum

    def partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64())
        hour_s = pc.multiply(pc.divide(us, 3600 * 1_000_000), 3600)
        t = pa.table({"hour_s": hour_s, "event_type": batch["event_type"]})
        g = t.group_by(["hour_s", "event_type"]).aggregate([([], "count_all")])
        return g.rename_columns(["hour_s", "event_type", "n_events"])

    source = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["ts", "event_type"]
    )
    counts = enum_group_sum(
        source.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["hour_s", "event_type"],
        ["n_events"],
    )
    if counts.empty:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "hour_s": pd.Series(dtype="int64"),
                    "event_type": pd.Series(dtype="object"),
                    "n_events": pd.Series(dtype="int64"),
                }
            )
        )
    lo, hi = int(counts["hour_s"].min()), int(counts["hour_s"].max())
    grid = pd.MultiIndex.from_product(
        [np.arange(lo, hi + 1, 3600), sorted(counts["event_type"].unique())],
        names=["hour_s", "event_type"],
    )
    dense = (
        counts.set_index(["hour_s", "event_type"])["n_events"]
        .reindex(grid, fill_value=0)
        .reset_index()
    )
    dense["n_events"] = dense["n_events"].astype("int64")
    return ray.data.from_pandas(dense)


EVENTS_HOURLY_DENSE_SQL = """
WITH c AS (
  SELECT (epoch_us(ts) // 3600000000) * 3600 AS hour_s, event_type,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
grid AS (
  SELECT unnest(generate_series((SELECT min(hour_s) FROM c),
                                (SELECT max(hour_s) FROM c), 3600)) AS hour_s
),
types AS (SELECT DISTINCT event_type FROM events)
SELECT g.hour_s, t.event_type, CAST(coalesce(c.n, 0) AS BIGINT) AS n_events
FROM grid g CROSS JOIN types t
LEFT JOIN c ON c.hour_s = g.hour_s AND c.event_type = t.event_type
"""

register("events_hourly_dense", events_hourly_dense, sql=EVENTS_HOURLY_DENSE_SQL)


# --- MAD-based anomaly flags (robust outlier detection) -----------------------

MAD_SIGMAS = 3.0


def events_anomaly_mad(sf_dir: str) -> "ray.data.Dataset":
    """(event_id, event_type, is_outlier): robust per-type outlier flags —
    a value is anomalous when its absolute deviation from the group
    median exceeds ``MAD_SIGMAS`` × the median absolute deviation. The
    quality-gate cousin of winsorization: instead of clipping the tails
    it LABELS them, which is what an ingestion monitor alerts on.

    Both order statistics come from ONE complete-group hash partition
    (median, then the deviation median in-process — no second exchange);
    the (median, MAD) pairs broadcast via ``ray.put`` and the flag pass
    streams. Float contract: med and MAD are round6-pinned, the
    deviation is the identical one-op ``abs(v - med)`` chain in both
    engines, and the verdict compares ``dev > 3·mad`` on identical
    doubles.
    """
    import ray as _ray

    from .exchange import quantile_cont_duckdb as _qcont
    from .exchange import round6 as _round6

    def stats_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df["event_type"].isna().any():
            raise ValueError(
                "events_anomaly_mad requires non-null event_type "
                "(NULL groups diverge between pandas and SQL)"
            )
        rows = []
        for et, g in df.groupby("event_type", sort=True):
            v = g["value"].to_numpy(dtype=np.float64)
            med = float(_round6(np.array([_qcont(np.sort(v), 0.5)]))[0])
            dev = np.abs(v - med)
            mad = float(_round6(np.array([_qcont(np.sort(dev), 0.5)]))[0])
            rows.append((et, med, mad))
        return pd.DataFrame(rows, columns=["event_type", "med", "mad"])

    ds_kv = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["event_type", "value"]
    )
    stats = _hash_partitioned(ds_kv, "event_type", stats_partition).to_pandas()
    ref = _ray.put(
        {r.event_type: (r.med, r.mad) for r in stats.itertuples(index=False)}
    )

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        b = _ray.get(ref)
        med = df["event_type"].map(lambda t: b[t][0]).to_numpy(dtype=np.float64)
        mad = df["event_type"].map(lambda t: b[t][1]).to_numpy(dtype=np.float64)
        dev = np.abs(df["value"].to_numpy(dtype=np.float64) - med)
        out = (dev > MAD_SIGMAS * mad).astype(np.int64)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "event_type": df["event_type"].to_numpy(),
                "is_outlier": out,
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    )
    return ds.map_batches(flag, batch_format="pandas")


EVENTS_ANOMALY_MAD_SQL = f"""
WITH m AS (
  SELECT event_type, round(quantile_cont(value, 0.5), 6) AS med
  FROM events GROUP BY event_type
),
d AS (
  SELECT e.event_id, e.event_type, abs(e.value - m.med) AS dev
  FROM events e JOIN m USING (event_type)
),
md AS (
  SELECT event_type, round(quantile_cont(dev, 0.5), 6) AS mad
  FROM d GROUP BY event_type
)
SELECT d.event_id, d.event_type,
       CAST(CASE WHEN d.dev > {MAD_SIGMAS} * md.mad THEN 1 ELSE 0 END AS BIGINT)
         AS is_outlier
FROM d JOIN md USING (event_type)
"""

register("events_anomaly_mad", events_anomaly_mad, sql=EVENTS_ANOMALY_MAD_SQL)


# --- ntile bucketing + moving average (window-frame family) -------------------

NTILE_K = 10
MOVAVG_FRAME = 5  # current row + 4 preceding


def events_value_ntile(sf_dir: str) -> "ray.data.Dataset":
    """(event_id, event_type, tile): equi-depth ``ntile(k)`` buckets of
    value within each type — the decile-feature assigner. SQL's ntile
    gives the first ``n mod k`` buckets one extra row in rank order; the
    engine reproduces that remainder rule exactly over the total order
    ``(value, event_id)`` (a value-only ORDER BY would leave tied rows'
    buckets engine-defined).
    """

    def ntile_partition(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for et, g in df.groupby("event_type", sort=True):
            g = g.sort_values(["value", "event_id"], kind="stable")
            n = len(g)
            size, rem = divmod(n, NTILE_K)
            ranks = np.arange(n)
            big = rem * (size + 1)
            tile = np.where(
                ranks < big,
                ranks // (size + 1) if size + 1 > 0 else 0,
                rem + (np.maximum(ranks - big, 0) // size if size else 0),
            ).astype(np.int64) + 1
            out.append(
                pd.DataFrame(
                    {
                        "event_id": g["event_id"].to_numpy(),
                        "event_type": et,
                        "tile": tile,
                    }
                )
            )
        return pd.concat(out) if out else pd.DataFrame(
            {
                "event_id": pd.Series(dtype="int64"),
                "event_type": pd.Series(dtype="object"),
                "tile": pd.Series(dtype="int64"),
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    )
    return _hash_partitioned(ds, "event_type", ntile_partition)


EVENTS_NTILE_SQL = f"""
SELECT event_id, event_type,
       CAST(ntile({NTILE_K}) OVER (
         PARTITION BY event_type ORDER BY value, event_id
       ) AS BIGINT) AS tile
FROM events
"""

register("events_value_ntile", events_value_ntile, sql=EVENTS_NTILE_SQL)


def events_moving_avg(sf_dir: str) -> "ray.data.Dataset":
    """(user_id, event_id, mavg_e6): per-user moving average of value over
    the current + 4 preceding events (frame order ``(ts, event_id)``) —
    the sliding-frame window aggregate, computed exactly: values quantize
    to 1e-6 integers per row, the frame sum is an integer cumsum
    difference, and the average is ONE exact-integer division both
    engines round identically, emitted in 1e-6 units.

    Precondition: non-null ``user_id`` (pandas NaN != NaN would split
    every null row into its own frame while SQL pools NULLs into one
    partition); checked loudly below.
    """
    from .exchange import round6

    def mavg_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        v = df["value"].to_numpy(dtype=np.float64) * 1e6
        scaled = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        if df["user_id"].isna().any():
            raise ValueError(
                "events_moving_avg requires non-null user_id "
                "(NULL frames diverge between pandas and SQL)"
            )
        users = df["user_id"].to_numpy()
        # per-user rolling sum over ≤ FRAME rows via cumsum differences;
        # segment boundaries found in ONE vectorized pass (a per-row
        # Python comparison loop here would dominate the kernel)
        out = np.empty(len(df), dtype=np.float64)
        bounds = np.flatnonzero(np.r_[True, users[1:] != users[:-1], True])
        for start, end in zip(bounds[:-1], bounds[1:]):
            seg = scaled[start:end]
            cs = np.concatenate([[0], np.cumsum(seg)])
            idx = np.arange(len(seg))
            lo = np.maximum(idx - (MOVAVG_FRAME - 1), 0)
            sums = cs[idx + 1] - cs[lo]
            counts = idx + 1 - lo
            out[start:end] = sums / counts / 1e6
        return pd.DataFrame(
            {
                "user_id": users,
                "event_id": df["event_id"].to_numpy(),
                "mavg_e6": round6(out),
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "event_id", "ts", "value"]
    )
    return _hash_partitioned(ds, "user_id", mavg_partition)


EVENTS_MOVING_AVG_SQL = f"""
SELECT user_id, event_id,
       round(
         CAST(sum(CAST(round(value * 1e6, 0) AS BIGINT)) OVER w AS DOUBLE)
         / CAST(count(*) OVER w AS DOUBLE) / 1e6,
         6
       ) AS mavg_e6
FROM events
WINDOW w AS (
  PARTITION BY user_id ORDER BY ts, event_id
  ROWS BETWEEN {MOVAVG_FRAME - 1} PRECEDING AND CURRENT ROW
)
"""

register("events_moving_avg", events_moving_avg, sql=EVENTS_MOVING_AVG_SQL)


def events_daily_distinct_exact(sf_dir: str) -> "ray.data.Dataset":
    """EXACT distinct users per (day, event_type) tumbling window —
    the precise twin of the HLL estimate (``events_distinct_users_hll_by_type``).

    Scale shape: one hash exchange on ``user_id`` co-locates every row of a
    user, so an in-partition ``drop_duplicates`` over (day, type, user) IS
    the global dedup — no second exchange; each partition then emits ≤
    #days × #types partial counts and the bounded enum fold sums them.
    Exchange volume is three narrow columns, never the full row.
    """
    import pandas as pd

    from .exchange import enum_group_sum

    def distinct_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "day": pd.Series([], dtype="datetime64[us]"),
                    "event_type": pd.Series([], dtype="object"),
                    "n_users": pd.Series([], dtype="int64"),
                }
            )
        # Timestamped-event contract (mirrored in the SQL WHERE): a tumbling
        # window needs a ts, distinct-user counting needs a user, and NULL
        # event_type follows the typed-event contract — rows missing any of
        # the three are excluded on BOTH sides, so no group can consist
        # solely of NULL members (pandas would drop it, SQL would keep it
        # with n_users = 0 / a NULL day key).
        df = df.dropna(subset=["ts", "user_id", "event_type"])
        df = df.assign(day=df["ts"].dt.floor("D"))
        triples = df.drop_duplicates(["day", "event_type", "user_id"])
        out = (
            triples.groupby(["day", "event_type"], sort=False)
            .size()
            .rename("n_users")
            .reset_index()
        )
        out["n_users"] = out["n_users"].astype("int64")
        return out

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["ts", "event_type", "user_id"]
    )
    partials = _hash_partitioned(ds, "user_id", distinct_partition)
    return ray.data.from_pandas(
        enum_group_sum(partials, ["day", "event_type"], ["n_users"])
    )


EVENTS_DAILY_DISTINCT_EXACT_SQL = """
SELECT date_trunc('day', ts) AS day, event_type,
       count(DISTINCT user_id) AS n_users
FROM events
WHERE event_type IS NOT NULL AND ts IS NOT NULL AND user_id IS NOT NULL
GROUP BY 1, 2
"""

register(
    "events_daily_distinct_exact",
    events_daily_distinct_exact,
    sql=EVENTS_DAILY_DISTINCT_EXACT_SQL,
)


DECAY_LAMBDA = 0.1  # per-day exponential decay rate


def events_decayed_counts(sf_dir: str) -> "ray.data.Dataset":
    """(event_type, decayed_e6): freshness-weighted event counts —
    ``sum(exp(-λ · age_days))`` per type, the recency signal a data-mixture
    curator weights sources by.

    Exact under parallelism: each row's decay weight is one fixed IEEE op
    chain (int64 age → divide → scale → exp, bit-identical in numpy and
    DuckDB) quantized to e6 fixed point BEFORE the sum, so the total is an
    order-free integer — no float-summation drift at any block layout.
    Two passes: an int max-fold pins the reference time, then per-block
    partial sums fold over the bounded type enum.
    """
    import math

    def max_partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].combine_chunks().cast(pa.timestamp("us"))
        m = pc.max(ts)
        if m.value is None:  # all-NULL or empty block: contribute nothing
            return pa.table({"mx": pa.array([], type=pa.int64())})
        return pa.table({"mx": pa.array([m.value], type=pa.int64())})

    maxes = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["ts"]
    ).map_batches(max_partial, batch_format="pyarrow", zero_copy_batch=True)
    t_ref = max(
        (int(v) for b in maxes.iter_batches(batch_format="pandas") for v in b["mx"]),
        default=0,
    )

    def decay_partial(batch: pa.Table) -> pa.Table:
        # Timestamped-event contract (mirrored in the SQL WHERE): a decay
        # weight needs a ts, NULL event_type follows the typed-event
        # contract — rows missing either are excluded on BOTH sides, so a
        # type whose every ts is NULL yields no row anywhere (without the
        # WHERE, SQL would keep a (type, NULL) group the engine drops).
        valid = pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["event_type"]))
        batch = batch.filter(valid)
        ts = (
            batch["ts"]
            .combine_chunks()
            .cast(pa.timestamp("us"))
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        age = (t_ref - ts).astype(np.float64)
        # libm exp (math.exp), not np.exp: numpy's SIMD exp is not
        # guaranteed bit-equal to the libm call DuckDB makes; a 1-ulp
        # difference at an x.5e-6 boundary would flip the e6 quantization.
        # Scalar libm is ~100 ns/row — fine for a per-row transcendental
        # whose PARITY is the contract. (Built per-batch: a module-level
        # frompyfunc doesn't pickle into Ray tasks.)
        z = -DECAY_LAMBDA * (age / 86400000000.0)
        w = np.fromiter((math.exp(v) for v in z), dtype=np.float64, count=len(z))
        q = np.floor(w * 1e6 + 0.5).astype(np.int64)
        t = pa.table(
            {"event_type": batch["event_type"], "q": pa.array(q, type=pa.int64())}
        )
        g = t.group_by(["event_type"]).aggregate([("q", "sum")])
        return g.rename_columns(["event_type", "decayed_e6"])

    from .exchange import enum_group_sum

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["ts", "event_type"]
    ).map_batches(decay_partial, batch_format="pyarrow", zero_copy_batch=True)
    return ray.data.from_pandas(enum_group_sum(ds, ["event_type"], ["decayed_e6"]))


EVENTS_DECAYED_COUNTS_SQL = f"""
WITH t AS (SELECT max(ts) AS mx FROM events)
SELECT event_type,
       CAST(sum(
         CAST(floor(exp(-{DECAY_LAMBDA} *
           (CAST(epoch_us(t.mx) - epoch_us(ts) AS DOUBLE) / 86400000000.0))
           * 1e6 + 0.5) AS BIGINT)
       ) AS BIGINT) AS decayed_e6
FROM events, t WHERE event_type IS NOT NULL AND ts IS NOT NULL GROUP BY 1
"""

register("events_decayed_counts", events_decayed_counts, sql=EVENTS_DECAYED_COUNTS_SQL)


# --- weighted median per group (X110) ----------------------------------------


#: bin count for the weighted-median counting passes (integer bin math —
#: the KS-statistic binning rule)
_WMEDIAN_BINS = 4096


def lineitem_weighted_median(sf_dir: str) -> "pd.DataFrame":
    """(l_returnflag, wmedian_price_e2, total_qty_e2): quantity-WEIGHTED
    median of extended price per return flag — the order statistic where
    each row counts with its weight (the lower weighted median: smallest
    price p with cumulative weight >= half the total).

    COUNTING, not sorting (the X27/X34 idiom: exact order statistics
    without a skewed exchange — a flag-keyed shuffle would route a third
    of the fact table to one partition). Three column-pruned scans, each
    a bounded fold: (1) global price min/max; (2) a (flag, bin) integer
    weight histogram (<= #flags x 4096 rows) locating each flag's median
    bin and the cumulative weight below it; (3) exact (flag, price)
    weight partials for rows INSIDE each flag's median bin only (~1/4096
    of the distinct prices), sorted on the driver to pick the exact
    price. All arithmetic is e2-quantized int64. NULL price/quantity rows
    are excluded on both sides; a NULL flag forms its own group.
    """
    import pyarrow.compute as pc

    from .exchange import enum_group_agg as _enum_group_agg
    from .exchange import enum_group_sum as _enum_group_sum
    from .exchange import half_up_int64 as _half_up

    cols = ["l_returnflag", "l_extendedprice", "l_quantity"]

    def quantize(batch: pa.Table):
        keep = pc.and_(
            pc.is_valid(batch["l_extendedprice"]), pc.is_valid(batch["l_quantity"])
        )
        batch = batch.filter(keep)
        price = _half_up(batch["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0)
        qw = _half_up(batch["l_quantity"].to_numpy(zero_copy_only=False) * 100.0)
        return batch["l_returnflag"], price, qw

    empty = pd.DataFrame(
        {
            "l_returnflag": pd.Series([], dtype="object"),
            "wmedian_price_e2": pd.Series([], dtype="int64"),
            "total_qty_e2": pd.Series([], dtype="int64"),
        }
    )

    def read():
        return ray.data.read_parquet(table_path(sf_dir, "lineitem"), columns=cols)

    # pass 1: global price_e2 domain under the same null contract
    def mm_partial(batch: pa.Table) -> pa.Table:
        _, price, _ = quantize(batch)
        if price.size == 0:
            return pa.table({"one": pa.array([], type=pa.int64()),
                             "lo": pa.array([], type=pa.int64()),
                             "hi": pa.array([], type=pa.int64())})
        return pa.table({"one": pa.array([1], type=pa.int64()),
                         "lo": pa.array([int(price.min())], type=pa.int64()),
                         "hi": pa.array([int(price.max())], type=pa.int64())})

    mm = _enum_group_agg(
        read().map_batches(mm_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["one"],
        {"lo": "min", "hi": "max"},
    )
    if len(mm) == 0:
        return empty
    lo, hi = int(mm["lo"].iloc[0]), int(mm["hi"].iloc[0])
    width = hi - lo + 1

    # pass 2: (flag, bin) weight histogram — bounded #flags x bins fold
    def hist_partial(batch: pa.Table) -> pa.Table:
        flags, price, qw = quantize(batch)
        bins = (price - lo) * _WMEDIAN_BINS // width
        t = pa.table({"flag": flags, "bin": pa.array(bins, type=pa.int64()),
                      "w": pa.array(qw, type=pa.int64())})
        g = t.group_by(["flag", "bin"]).aggregate([("w", "sum")])
        return g.rename_columns(["flag", "bin", "w"])

    hist = _enum_group_sum(
        read().map_batches(hist_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["flag", "bin"],
        ["w"],
    )
    if len(hist) == 0:
        return empty
    target: dict = {}  # flag -> (median_bin, weight_below_bin, total)
    for flag, g in hist.groupby("flag", sort=True, dropna=False):
        g = g.sort_values("bin")
        w = g["w"].to_numpy(dtype=np.int64)
        cw = np.cumsum(w)
        tot = int(cw[-1])
        i = int(np.searchsorted(2 * cw, tot, side="left"))
        key = None if pd.isna(flag) else flag
        target[key] = (int(g["bin"].to_numpy()[i]), int(cw[i - 1]) if i else 0, tot)

    # pass 3: exact (flag, price) weights inside each flag's median bin only
    def inbin_partial(batch: pa.Table) -> pa.Table:
        flags, price, qw = quantize(batch)
        bins = (price - lo) * _WMEDIAN_BINS // width
        fl = flags.to_pylist()
        keep = np.fromiter(
            (f in target and target[f][0] == b for f, b in zip(fl, bins)),
            dtype=bool, count=len(fl),
        )
        t = pa.table(
            {
                "flag": pa.array([f for f, k in zip(fl, keep) if k], type=pa.string()),
                "price_e2": pa.array(price[keep], type=pa.int64()),
                "w": pa.array(qw[keep], type=pa.int64()),
            }
        )
        g = t.group_by(["flag", "price_e2"]).aggregate([("w", "sum")])
        return g.rename_columns(["flag", "price_e2", "w"])

    inbin = _enum_group_sum(
        read().map_batches(inbin_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["flag", "price_e2"],
        ["w"],
    )
    out_f, out_m, out_t = [], [], []
    for flag, (b, below, tot) in sorted(
        target.items(), key=lambda kv: (kv[0] is None, kv[0] or "")
    ):
        g = inbin[inbin["flag"].isna()] if flag is None else inbin[inbin["flag"] == flag]
        g = g.sort_values("price_e2")
        cw = below + np.cumsum(g["w"].to_numpy(dtype=np.int64))
        i = int(np.searchsorted(2 * cw, tot, side="left"))
        out_f.append(flag)
        out_m.append(int(g["price_e2"].to_numpy()[i]))
        out_t.append(tot)
    return pd.DataFrame(
        {
            "l_returnflag": pd.Series(out_f, dtype="object"),
            "wmedian_price_e2": pd.Series(out_m, dtype="int64"),
            "total_qty_e2": pd.Series(out_t, dtype="int64"),
        }
    )


LINEITEM_WEIGHTED_MEDIAN_SQL = """
WITH w AS (
  SELECT l_returnflag AS flag,
         CAST(round(l_extendedprice * 100, 0) AS BIGINT) AS price_e2,
         CAST(round(l_quantity * 100, 0) AS BIGINT) AS q_e2
  FROM lineitem
  WHERE l_extendedprice IS NOT NULL AND l_quantity IS NOT NULL
),
g AS (SELECT flag, price_e2, sum(q_e2) AS qw FROM w GROUP BY 1, 2),
o AS (
  SELECT flag, price_e2,
         sum(qw) OVER (PARTITION BY flag ORDER BY price_e2
                       ROWS UNBOUNDED PRECEDING) AS cw,
         sum(qw) OVER (PARTITION BY flag) AS tot
  FROM g
)
SELECT flag AS l_returnflag,
       CAST(min(CASE WHEN 2 * cw >= tot THEN price_e2 END) AS BIGINT)
         AS wmedian_price_e2,
       CAST(max(tot) AS BIGINT) AS total_qty_e2
FROM o GROUP BY 1
"""

register(
    "lineitem_weighted_median",
    lineitem_weighted_median,
    sql=LINEITEM_WEIGHTED_MEDIAN_SQL,
)


# --- late-event (watermark) accounting (X127) --------------------------------


def events_late_arrivals(sf_dir: str) -> "pd.DataFrame":
    """(event_type, n_events, n_late, max_lateness_us): out-of-order
    arrival accounting — an event is LATE when its timestamp is behind
    the high-water mark of the same user's earlier-ingested events
    (ingestion order = event_id). This is the calibration every
    streaming watermark needs: how often does time run backwards, and by
    how much. ONE user-key exchange; in-partition the high-water mark is
    a grouped cummax/shift (vectorized C paths), and each partition
    emits a bounded per-type partial — the driver folds ≤ types ×
    partitions rows. NULL user/ts/event_id/type rows are excluded on
    both sides; all lateness arithmetic is integer microseconds."""
    import pyarrow.compute as pc

    from .exchange import enum_group_sum, hash_partitioned

    def stub(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(pc.is_valid(batch["user_id"]), pc.is_valid(batch["ts"])),
            pc.and_(pc.is_valid(batch["event_id"]), pc.is_valid(batch["event_type"])),
        )
        t = batch.filter(m)
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "ts_us": pc.cast(t["ts"], pa.int64()),
                "event_type": t["event_type"],
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"),
        columns=["user_id", "event_id", "ts", "event_type"],
    ).map_batches(stub, batch_format="pyarrow", zero_copy_batch=True)

    def account(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        hwm = (
            df.groupby("user_id", sort=False)["ts_us"]
            .cummax()
            .groupby(df["user_id"], sort=False)
            .shift(1)
        )
        ts = df["ts_us"].to_numpy(dtype=np.int64)
        have = hwm.notna().to_numpy()
        hv = hwm.fillna(np.iinfo(np.int64).min).to_numpy(dtype=np.int64)
        late = have & (ts < hv)
        lateness = np.where(late, hv - ts, 0)
        out = pd.DataFrame(
            {
                "event_type": df["event_type"].to_numpy(),
                "n_events": np.ones(len(df), dtype=np.int64),
                "n_late": late.astype(np.int64),
                "max_lateness_us": lateness.astype(np.int64),
            }
        )
        g = out.groupby("event_type", sort=False).agg(
            n_events=("n_events", "sum"),
            n_late=("n_late", "sum"),
            max_lateness_us=("max_lateness_us", "max"),
        )
        return g.reset_index().astype(
            {"n_events": "int64", "n_late": "int64", "max_lateness_us": "int64"}
        )

    parts = hash_partitioned(ds, "user_id", account)
    folded = enum_group_sum(parts, ["event_type"], ["n_events", "n_late"])
    # max is folded separately (enum_group_sum only sums); both folds read
    # the SAME bounded partial frame, so the extra pass is driver-local
    maxes: dict[str, int] = {}
    for b in parts.iter_batches(batch_size=65_536, batch_format="pandas"):
        for row in b.itertuples(index=False):
            k = row.event_type
            maxes[k] = max(maxes.get(k, 0), int(row.max_lateness_us))
    folded["max_lateness_us"] = folded["event_type"].map(maxes).astype("int64")
    return (
        folded[["event_type", "n_events", "n_late", "max_lateness_us"]]
        .sort_values("event_type")
        .reset_index(drop=True)
    )


EVENTS_LATE_ARRIVALS_SQL = """
WITH w AS (
  SELECT event_type, ts,
         max(ts) OVER (PARTITION BY user_id ORDER BY event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS hwm
  FROM events
  WHERE user_id IS NOT NULL AND ts IS NOT NULL
    AND event_id IS NOT NULL AND event_type IS NOT NULL
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
       CAST(count(*) FILTER (WHERE ts < hwm) AS BIGINT) AS n_late,
       CAST(COALESCE(max(epoch_us(hwm) - epoch_us(ts))
                     FILTER (WHERE ts < hwm), 0) AS BIGINT)
         AS max_lateness_us
FROM w GROUP BY event_type
"""

register("events_late_arrivals", events_late_arrivals, sql=EVENTS_LATE_ARRIVALS_SQL)


# --- user growth accounting (X128) -------------------------------------------


def user_growth_accounting(sf_dir: str) -> "pd.DataFrame":
    """(hour, new_users, cumulative_users): each hour's first-ever-seen
    user count and the running total — the growth curve every activation
    dashboard opens with (hourly grain: this corpus activates its whole
    user base within ~2 days, so daily buckets would collapse to one
    row). Per-block (user, min_ts) partials pre-aggregate inside the
    scan, ONE user-key exchange finishes the true first-seen per user
    and emits bounded per-HOUR counts (hours are time-range-bounded),
    and the driver folds + cumsums that tiny enum frame. Hours are
    integer epoch_us // 3600e6 — no timezone, bit-equal to the SQL twin.
    NULL user/ts rows are excluded."""
    import pyarrow.compute as pc

    from .exchange import enum_group_sum, hash_partitioned

    HOUR_US = 3_600_000_000

    def partial(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(batch["user_id"]), pc.is_valid(batch["ts"]))
        t = batch.filter(m)
        g = (
            pa.table(
                {"user_id": t["user_id"], "ts_us": pc.cast(t["ts"], pa.int64())}
            )
            .group_by(["user_id"])
            .aggregate([("ts_us", "min")])
        )
        return g.rename_columns(["user_id", "first_us"])

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "ts"]
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def per_day_new(df: "pd.DataFrame") -> "pd.DataFrame":
        first = df.groupby("user_id", sort=False)["first_us"].min()
        hour = (first.to_numpy(dtype=np.int64) // HOUR_US).astype(np.int64)
        import pandas as pd

        cnt = pd.Series(hour).value_counts()
        return pd.DataFrame(
            {
                "hour": cnt.index.astype("int64"),
                "new_users": cnt.values.astype("int64"),
            }
        )

    parts = hash_partitioned(ds, "user_id", per_day_new, coalesce_rows=1 << 20)
    folded = enum_group_sum(parts, ["hour"], ["new_users"])
    out = folded.sort_values("hour").reset_index(drop=True)
    out["cumulative_users"] = out["new_users"].cumsum().astype("int64")
    out["hour"] = out["hour"].astype("int64")
    out["new_users"] = out["new_users"].astype("int64")
    return out[["hour", "new_users", "cumulative_users"]]


USER_GROWTH_SQL = """
WITH f AS (
  SELECT user_id, min(ts) AS first_ts
  FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL
  GROUP BY user_id
),
d AS (
  SELECT CAST(epoch_us(first_ts) // 3600000000 AS BIGINT) AS hour,
         CAST(count(*) AS BIGINT) AS new_users
  FROM f GROUP BY 1
)
SELECT hour, new_users,
       CAST(sum(new_users) OVER (ORDER BY hour
            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cumulative_users
FROM d
"""

register("user_growth_accounting", user_growth_accounting, sql=USER_GROWTH_SQL)


# --- global ntile without a global sort (X132) --------------------------------

#: quintiles for the global price rank
GLOBAL_NTILE_K = 5

#: equal-width pre-bins for the counting pass — the rank resolution knob.
#: More bins = flatter per-bin row counts in the assignment exchange; the
#: fold stays a bounded enum either way.
GLOBAL_NTILE_BINS = 4096


def orders_price_quintile(sf_dir: str) -> "ray.data.Dataset":
    """(o_orderkey, tile): the GLOBAL ``ntile(5)`` of every order by
    ``(o_totalprice, o_orderkey)`` — exact SQL remainder-rule semantics
    WITHOUT a global sort.

    Two passes replace the all-to-all range sort:
    1. equal-width value bins over the footer min/max (any deterministic
       MONOTONE bucketing works — ranks come from in-bin sorting, bins
       only need to preserve order BETWEEN bins) → bounded (bin, count)
       enum fold → the driver cumsums bin start-ranks (≤ 4096 rows).
    2. ONE bin-keyed exchange co-locates each bin's rows; each partition
       sorts its bins' rows by (price, key), adds the bin's start rank,
       and applies SQL's remainder rule (first ``n mod k`` tiles get one
       extra row) as a pure function of global rank.

    Scale: the exchange carries (key, price) once; skew follows the value
    distribution (a massively-tied value concentrates its bin — the same
    hotspot ANY rank operator has under ties). NULL prices are excluded
    on both engines.
    """
    from .exchange import enum_group_sum, footer_min_max, hash_partitioned

    path = table_path(sf_dir, "orders")
    bounds = footer_min_max(path, "o_totalprice")
    if bounds is None:
        from ray.data.aggregate import Max, Min

        agg = ray.data.read_parquet(path, columns=["o_totalprice"]).aggregate(
            Min("o_totalprice"), Max("o_totalprice")
        )
        if agg is None or agg.get("min(o_totalprice)") is None:
            return ray.data.from_pandas(
                pd.DataFrame(
                    {
                        "o_orderkey": pd.Series([], dtype="int64"),
                        "tile": pd.Series([], dtype="int64"),
                    }
                )
            )
        bounds = (agg["min(o_totalprice)"], agg["max(o_totalprice)"])
    mn, mx = float(bounds[0]), float(bounds[1])
    span = mx - mn

    def to_bin(vals: np.ndarray) -> np.ndarray:
        if span <= 0.0:  # single distinct value: one bin
            return np.zeros(vals.size, dtype=np.int64)
        b = np.floor((vals - mn) * GLOBAL_NTILE_BINS / span).astype(np.int64)
        return np.clip(b, 0, GLOBAL_NTILE_BINS - 1)

    def bin_counts(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch["o_totalprice"]))
        v = t["o_totalprice"].to_numpy(zero_copy_only=False)
        if v.size == 0:
            return pa.table(
                {
                    "bin": pa.array([], type=pa.int64()),
                    "n": pa.array([], type=pa.int64()),
                }
            )
        cnt = np.bincount(to_bin(v), minlength=GLOBAL_NTILE_BINS)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "bin": pa.array(nz, type=pa.int64()),
                "n": pa.array(cnt[nz], type=pa.int64()),
            }
        )

    counts = ray.data.read_parquet(
        path, columns=["o_totalprice"]
    ).map_batches(bin_counts, batch_format="pyarrow", zero_copy_batch=True)
    folded = enum_group_sum(counts, ["bin"], ["n"])
    if len(folded) == 0:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "o_orderkey": pd.Series([], dtype="int64"),
                    "tile": pd.Series([], dtype="int64"),
                }
            )
        )
    folded = folded.sort_values("bin")
    total = int(folded["n"].sum())
    starts = np.zeros(GLOBAL_NTILE_BINS, dtype=np.int64)
    starts[folded["bin"].to_numpy(dtype=np.int64)] = (
        folded["n"].cumsum().to_numpy(dtype=np.int64)
        - folded["n"].to_numpy(dtype=np.int64)
    )
    size, rem = divmod(total, GLOBAL_NTILE_K)
    big = rem * (size + 1)

    def tile_of(rank: np.ndarray) -> np.ndarray:
        # SQL remainder rule over global rank (0-based): the first
        # ``rem`` tiles hold size+1 rows each
        return np.where(
            rank < big,
            rank // (size + 1) if size + 1 > 0 else 0,
            rem + (np.maximum(rank - big, 0) // size if size else 0),
        ).astype(np.int64) + 1

    def add_bin(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch["o_totalprice"]))
        v = t["o_totalprice"].to_numpy(zero_copy_only=False)
        return t.append_column("bin", pa.array(to_bin(v), type=pa.int64()))

    def assign_partition(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "o_orderkey": pd.Series([], dtype="int64"),
                    "tile": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(
            ["bin", "o_totalprice", "o_orderkey"], kind="mergesort"
        )
        bins = df["bin"].to_numpy(dtype=np.int64)
        # local index within each bin run (bins are sorted)
        run_start = np.flatnonzero(np.r_[True, bins[1:] != bins[:-1]])
        run_len = np.diff(np.r_[run_start, bins.size])
        local = np.arange(bins.size) - np.repeat(run_start, run_len)
        rank = starts[bins] + local
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].to_numpy(dtype=np.int64),
                "tile": tile_of(rank),
            }
        )

    ds = ray.data.read_parquet(
        path, columns=["o_orderkey", "o_totalprice"]
    ).map_batches(add_bin, batch_format="pyarrow", zero_copy_batch=True)
    return hash_partitioned(ds, "bin", assign_partition)


ORDERS_PRICE_QUINTILE_SQL = f"""
SELECT o_orderkey,
       CAST(ntile({GLOBAL_NTILE_K}) OVER (
         ORDER BY o_totalprice, o_orderkey
       ) AS BIGINT) AS tile
FROM orders WHERE o_totalprice IS NOT NULL
"""

register("orders_price_quintile", orders_price_quintile, sql=ORDERS_PRICE_QUINTILE_SQL)


# --- RFM customer segmentation (X133) -----------------------------------------

#: equal-width bins for the monetary rank fold (recency/frequency bins are
#: their own values — day and count cardinalities are naturally bounded)
_RFM_MONEY_BINS = 4096

#: offset keeping combined (metric, bin) keys non-negative for negative
#: epoch days
_RFM_BIN_OFF = 1 << 31


def customer_rfm_segments(sf_dir: str) -> "ray.data.Dataset":
    """(o_custkey, r_tile, f_tile, m_tile, rfm): classic RFM scoring —
    every customer's recency (last order day), frequency (order count)
    and monetary (cents sum) quintiles under exact global
    ``ntile(5) OVER (ORDER BY metric, custkey)`` semantics, plus the
    concatenated 3-digit segment code marketing tooling keys on.

    Composition of the X132 counting-rank primitive, three ranks for the
    price of one fold + one exchange:
    1. ONE custkey exchange folds per-customer metrics; the result is
       ``materialize()``d — bounded by #customers (orders-of-magnitude
       smaller than the fact table) and re-read by the rank passes below,
       which would otherwise re-execute the fact exchange each.
    2. ONE stacked bounded fold counts all three metrics at once: recency
       days and frequency counts bin AS THEMSELVES (time-range- and
       basket-size-bounded enums), monetary through 4096 equal-width bins
       over its Min/Max — ≤ days + counts + 4096 rows total; the driver
       cumsums per-metric start ranks.
    3. ONE stacked (metric, bin)-keyed exchange sorts in-bin by
       (value, custkey), adds start ranks, applies the SQL remainder rule
       (same N for all metrics — every customer carries all three rows).
    4. ONE custkey exchange pivots the three tile rows back into columns.

    NULL custkey / orderdate / totalprice orders are excluded on both
    engines (the WHERE in the SQL twin).
    """
    from ray.data.aggregate import Max, Min

    from .exchange import (
        enum_group_sum,
        half_up_int64,
        hash_partitioned,
        int64_array,
    )

    DAY_US = 86_400_000_000

    def metrics_partition(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "o_custkey": pd.Series([], dtype="int64"),
                    "recency_day": pd.Series([], dtype="int64"),
                    "frequency": pd.Series([], dtype="int64"),
                    "monetary_c": pd.Series([], dtype="int64"),
                }
            )
        cents = half_up_int64(df["o_totalprice"].to_numpy(dtype=np.float64) * 100.0)
        day = (
            df["o_orderdate"].to_numpy(dtype="datetime64[us]").astype(np.int64)
            // DAY_US
        )
        g = (
            pd.DataFrame(
                {
                    "o_custkey": df["o_custkey"].to_numpy(dtype=np.int64),
                    "day": day,
                    "c": cents,
                }
            )
            .groupby("o_custkey", sort=False)
            .agg(
                recency_day=("day", "max"),
                frequency=("day", "size"),
                monetary_c=("c", "sum"),
            )
            .reset_index()
        )
        return g.astype(
            {
                "recency_day": "int64",
                "frequency": "int64",
                "monetary_c": "int64",
            }
        )

    def drop_nulls(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(
                pc.is_valid(batch["o_custkey"]), pc.is_valid(batch["o_orderdate"])
            ),
            pc.is_valid(batch["o_totalprice"]),
        )
        return batch.filter(m)

    orders = ray.data.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    ).map_batches(drop_nulls, batch_format="pyarrow", zero_copy_batch=True)
    metrics = hash_partitioned(
        orders, "o_custkey", metrics_partition, coalesce_rows=1 << 20
    ).materialize()

    empty = pd.DataFrame(
        {
            "o_custkey": pd.Series([], dtype="int64"),
            "r_tile": pd.Series([], dtype="int64"),
            "f_tile": pd.Series([], dtype="int64"),
            "m_tile": pd.Series([], dtype="int64"),
            "rfm": pd.Series([], dtype="object"),
        }
    )
    if metrics.count() == 0:
        return ray.data.from_pandas(empty)
    mm = metrics.aggregate(Min("monetary_c"), Max("monetary_c"))
    m_mn = int(mm["min(monetary_c)"])
    m_mx = int(mm["max(monetary_c)"])
    m_span = m_mx - m_mn

    def money_bin(c: np.ndarray) -> np.ndarray:
        if m_span <= 0:
            return np.zeros(c.size, dtype=np.int64)
        b = (c - m_mn) * _RFM_MONEY_BINS // (m_span + 1)
        return b.astype(np.int64)

    def mkeys_of(df_like) -> dict:
        r = int64_array(df_like["recency_day"])
        f = int64_array(df_like["frequency"])
        c = int64_array(df_like["monetary_c"])
        return {
            1: r + _RFM_BIN_OFF,
            2: f + _RFM_BIN_OFF,
            3: money_bin(c) + _RFM_BIN_OFF,
        }

    def stacked_counts(batch: pa.Table) -> pa.Table:
        bins = mkeys_of(batch)
        ks, ns = [], []
        for metric, b in bins.items():
            uniq, cnt = np.unique(b, return_counts=True)
            ks.append((np.int64(metric) << 33) + uniq)
            ns.append(cnt)
        return pa.table(
            {
                "mkey": pa.array(np.concatenate(ks), type=pa.int64()),
                "n": pa.array(
                    np.concatenate(ns).astype(np.int64), type=pa.int64()
                ),
            }
        )

    fold = enum_group_sum(
        metrics.map_batches(
            stacked_counts, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["mkey"],
        ["n"],
    ).sort_values("mkey")
    sorted_mkeys = fold["mkey"].to_numpy(dtype=np.int64)
    ns = fold["n"].to_numpy(dtype=np.int64)
    starts = np.zeros_like(ns)
    for metric in (1, 2, 3):
        sel = (sorted_mkeys >> 33) == metric
        csum = np.cumsum(ns[sel])
        starts[sel] = csum - ns[sel]
    total = int(ns[(sorted_mkeys >> 33) == 1].sum())
    size, rem = divmod(total, GLOBAL_NTILE_K)
    big = rem * (size + 1)

    def tile_of(rank: np.ndarray) -> np.ndarray:
        return np.where(
            rank < big,
            rank // (size + 1) if size + 1 > 0 else 0,
            rem + (np.maximum(rank - big, 0) // size if size else 0),
        ).astype(np.int64) + 1

    def stack_rows(batch: pa.Table) -> pa.Table:
        bins = mkeys_of(batch)
        cust = int64_array(batch["o_custkey"])
        vals = {
            1: int64_array(batch["recency_day"]),
            2: int64_array(batch["frequency"]),
            3: int64_array(batch["monetary_c"]),
        }
        return pa.table(
            {
                "o_custkey": pa.array(np.tile(cust, 3), type=pa.int64()),
                "mkey": pa.array(
                    np.concatenate(
                        [(np.int64(m) << 33) + bins[m] for m in (1, 2, 3)]
                    ),
                    type=pa.int64(),
                ),
                "value": pa.array(
                    np.concatenate([vals[m] for m in (1, 2, 3)]),
                    type=pa.int64(),
                ),
            }
        )

    def assign_partition(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "o_custkey": pd.Series([], dtype="int64"),
                    "metric": pd.Series([], dtype="int64"),
                    "tile": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["mkey", "value", "o_custkey"], kind="mergesort")
        mk = df["mkey"].to_numpy(dtype=np.int64)
        run_start = np.flatnonzero(np.r_[True, mk[1:] != mk[:-1]])
        run_len = np.diff(np.r_[run_start, mk.size])
        local = np.arange(mk.size) - np.repeat(run_start, run_len)
        pos = np.searchsorted(sorted_mkeys, mk)
        rank = starts[pos] + local
        return pd.DataFrame(
            {
                "o_custkey": df["o_custkey"].to_numpy(dtype=np.int64),
                "metric": mk >> 33,
                "tile": tile_of(rank),
            }
        )

    tiles = hash_partitioned(
        metrics.map_batches(
            stack_rows, batch_format="pyarrow", zero_copy_batch=True
        ),
        "mkey",
        assign_partition,
        coalesce_rows=1 << 20,
    )

    def pivot_partition(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return empty.copy()
        w = df.pivot_table(
            index="o_custkey", columns="metric", values="tile", aggfunc="first"
        ).reset_index()
        w.columns = ["o_custkey", "r_tile", "f_tile", "m_tile"]
        w = w.astype(
            {"r_tile": "int64", "f_tile": "int64", "m_tile": "int64"}
        )
        w["rfm"] = (
            w["r_tile"].astype(str)
            + w["f_tile"].astype(str)
            + w["m_tile"].astype(str)
        )
        return w

    return hash_partitioned(
        tiles, "o_custkey", pivot_partition, coalesce_rows=1 << 20
    )


CUSTOMER_RFM_SQL = f"""
WITH o AS (
  SELECT o_custkey, o_orderdate, o_totalprice FROM orders
  WHERE o_custkey IS NOT NULL AND o_orderdate IS NOT NULL
    AND o_totalprice IS NOT NULL
),
m AS (
  SELECT o_custkey,
         CAST(max(epoch_us(o_orderdate) // 86400000000) AS BIGINT) AS recency_day,
         CAST(count(*) AS BIGINT) AS frequency,
         CAST(sum(CAST(round(o_totalprice * 100, 0) AS BIGINT)) AS BIGINT)
           AS monetary_c
  FROM o GROUP BY 1
),
t AS (
  SELECT o_custkey,
         CAST(ntile({GLOBAL_NTILE_K}) OVER (ORDER BY recency_day, o_custkey) AS BIGINT) AS r_tile,
         CAST(ntile({GLOBAL_NTILE_K}) OVER (ORDER BY frequency, o_custkey) AS BIGINT) AS f_tile,
         CAST(ntile({GLOBAL_NTILE_K}) OVER (ORDER BY monetary_c, o_custkey) AS BIGINT) AS m_tile
  FROM m
)
SELECT o_custkey, r_tile, f_tile, m_tile,
       CAST(r_tile AS VARCHAR) || CAST(f_tile AS VARCHAR)
         || CAST(m_tile AS VARCHAR) AS rfm
FROM t
"""

register("customer_rfm_segments", customer_rfm_segments, sql=CUSTOMER_RFM_SQL)


# --- sessionized time-weighted average value per user (X139) ------------------

#: int64 headroom for the TWAP moment: per-row product |v_e6| * dur_us is
#: bounded by this before any sum — raise (never wrap), X98 discipline
_TWAP_P_BOUND = 1 << 62


def user_twap(sf_dir: str) -> "ray.data.Dataset":
    """(user_id, n_intervals, total_dur_us, twap_e6): TIME-weighted average
    event value per user — each value weighted by how long it was the
    user's latest observation, intervals longer than the 30-minute
    session gap excluded (the value wasn't "held" across an absence).
    The plain mean over-weights burst activity; TWAP is what a
    state-over-time monitor (price, queue depth, battery level) needs.

    Exactness contract: values quantize to e6 integers per row (shared
    half-away rule), durations are exact microsecond deltas under a
    deterministic total order (ts, event_id), and the per-user moment
    Σ v_e6·dur is an exact int64 sum under an explicit per-partition
    product bound (raise past it — never wrap); ``twap_e6`` divides two
    exact integers through one shared IEEE division, floor(x+0.5).
    Zero-length intervals carry zero weight on both engines; users whose
    in-session time sums to zero are excluded (undefined).

    Scale shape: ONE user-key exchange carrying (user, ts, v_e6) rows;
    each partition sorts its users' rows once and finishes every user it
    owns — per-user state never crosses partitions, nothing reaches the
    driver.
    """
    gap_us = SESSION_GAP_SEC * 1_000_000

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["value"])),
            pc.is_valid(batch["user_id"]),
        )
        t = batch.filter(keep)
        v6 = pc.cast(
            pc.round(
                pc.multiply(t["value"], pa.scalar(1e6)),
                ndigits=0,
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "tus": pc.cast(t["ts"], pa.int64()),
                "v6": v6,
            }
        )

    def per_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        empty = pd.DataFrame(
            {
                "user_id": pd.Series(dtype="int64"),
                "n_intervals": pd.Series(dtype="int64"),
                "total_dur_us": pd.Series(dtype="int64"),
                "twap_e6": pd.Series(dtype="int64"),
            }
        )
        if len(df) == 0:
            return empty
        df = df.sort_values(
            ["user_id", "tus", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        u = df["user_id"].to_numpy(dtype=np.int64)
        t = df["tus"].to_numpy(dtype=np.int64)
        v = df["v6"].to_numpy(dtype=np.int64)
        same = u[1:] == u[:-1]
        dur = np.where(same, t[1:] - t[:-1], -1)
        ok = same & (dur >= 0) & (dur <= gap_us)
        if ok.any() and int(np.abs(v[:-1][ok]).max()) * gap_us >= _TWAP_P_BOUND:
            raise ValueError(
                "user_twap: |v_e6| * session gap exceeds the int64 moment "
                "bound — lower the value scale or emit split-word partials"
            )
        uu = u[:-1][ok]
        dd = dur[ok]
        pp = v[:-1][ok] * dd  # bounded above; ≤ n_partition terms per user
        out = (
            pd.DataFrame({"user_id": uu, "n_intervals": 1, "dur": dd, "svd": pp})
            .groupby("user_id", sort=False)
            .agg(
                n_intervals=("n_intervals", "sum"),
                total_dur_us=("dur", "sum"),
                svd=("svd", "sum"),
            )
            .reset_index()
        )
        out = out[out["total_dur_us"] > 0]
        if len(out) == 0:
            return empty
        twap = np.floor(
            out["svd"].to_numpy(dtype=np.float64)
            / out["total_dur_us"].to_numpy(dtype=np.float64)
            + 0.5
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "user_id": out["user_id"].to_numpy(dtype=np.int64),
                "n_intervals": out["n_intervals"].to_numpy(dtype=np.int64),
                "total_dur_us": out["total_dur_us"].to_numpy(dtype=np.int64),
                "twap_e6": twap,
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"),
        columns=["event_id", "ts", "user_id", "value"],
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return _hash_partitioned(ds, "user_id", per_partition)


USER_TWAP_SQL = f"""
WITH f AS (
  SELECT user_id, ts, event_id,
         CAST(round(value * 1e6, 0) AS BIGINT) AS v6
  FROM events
  WHERE ts IS NOT NULL AND value IS NOT NULL AND user_id IS NOT NULL
),
l AS (
  SELECT user_id, v6,
         epoch_us(lead(ts) OVER w) - epoch_us(ts) AS dur
  FROM f WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n_intervals,
         CAST(sum(dur) AS BIGINT) AS total_dur_us,
         sum(CAST(v6 AS HUGEINT) * dur) AS svd
  FROM l
  WHERE dur IS NOT NULL AND dur <= {SESSION_GAP_SEC} * 1000000
  GROUP BY user_id
)
SELECT user_id, n_intervals, total_dur_us,
       CAST(floor(CAST(svd AS DOUBLE) / CAST(total_dur_us AS DOUBLE) + 0.5)
            AS BIGINT) AS twap_e6
FROM s WHERE total_dur_us > 0
"""

register("user_twap", user_twap, sql=USER_TWAP_SQL)


# --- event-type run-length (burstiness) profile (X140) ------------------------


def event_run_lengths(sf_dir: str) -> "pd.DataFrame":
    """(event_type, n_runs, n_events, max_run, mean_run_e6): the
    gaps-and-islands run-length profile of each user's event stream —
    how long the SAME event type repeats consecutively. A max_run far
    above mean_run is the bot / stuck-client / replayed-feed signature a
    100 TB ingest flags before the rows poison engagement features.

    Exactness: runs are defined under the deterministic (ts, event_id)
    total order per user; NULL type/ts/user rows are excluded BEFORE run
    detection on both engines (so a NULL mid-stream does NOT split a
    run); counts are exact integers, ``mean_run_e6`` one shared IEEE
    division. The SQL twin is the classic two-row_number islands form.

    Scale shape: ONE user-key exchange (runs never span users); each
    partition sorts its users' rows once, reduces every run to its
    (type, length) via vectorized boundary diffs, and emits bounded
    (type, n_runs, n_events, max_run) partials — an enum fold away from
    the answer. Nothing row-shaped reaches the driver.
    """
    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["event_type"])),
            pc.is_valid(batch["user_id"]),
        )
        t = batch.filter(keep)
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "tus": pc.cast(t["ts"], pa.int64()),
                "event_type": t["event_type"],
            }
        )

    def per_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        empty = pd.DataFrame(
            {
                "event_type": pd.Series(dtype="object"),
                "n_runs": pd.Series(dtype="int64"),
                "n_events": pd.Series(dtype="int64"),
                "max_run": pd.Series(dtype="int64"),
            }
        )
        if len(df) == 0:
            return empty
        df = df.sort_values(
            ["user_id", "tus", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        u = df["user_id"].to_numpy(dtype=np.int64)
        ty = df["event_type"].to_numpy()
        new_run = np.r_[True, (u[1:] != u[:-1]) | (ty[1:] != ty[:-1])]
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.r_[starts, len(df)])
        runs = pd.DataFrame({"event_type": ty[starts], "len": lens})
        g = runs.groupby("event_type", sort=False)["len"].agg(
            n_runs="count", n_events="sum", max_run="max"
        )
        return g.reset_index().astype(
            {"n_runs": "int64", "n_events": "int64", "max_run": "int64"}
        )

    from .exchange import enum_group_agg

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"),
        columns=["event_id", "ts", "user_id", "event_type"],
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    parts = _hash_partitioned(ds, "user_id", per_partition)
    out = enum_group_agg(
        parts,
        ["event_type"],
        {"n_runs": "sum", "n_events": "sum", "max_run": "max"},
    )
    if len(out) == 0:
        return pd.DataFrame(
            {
                "event_type": pd.Series(dtype="object"),
                "n_runs": pd.Series(dtype="int64"),
                "n_events": pd.Series(dtype="int64"),
                "max_run": pd.Series(dtype="int64"),
                "mean_run_e6": pd.Series(dtype="int64"),
            }
        )
    out = out.sort_values("event_type").reset_index(drop=True)
    mean = np.floor(
        out["n_events"].to_numpy(dtype=np.float64)
        / out["n_runs"].to_numpy(dtype=np.float64)
        * 1e6
        + 0.5
    ).astype(np.int64)
    out["mean_run_e6"] = mean
    return out.astype(
        {
            "n_runs": "int64",
            "n_events": "int64",
            "max_run": "int64",
            "mean_run_e6": "int64",
        }
    )


EVENT_RUN_LENGTHS_SQL = """
WITH f AS (
  SELECT user_id, event_type, ts, event_id FROM events
  WHERE event_type IS NOT NULL AND ts IS NOT NULL AND user_id IS NOT NULL
),
r AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id)
       - row_number() OVER (PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS grp
  FROM f
),
runs AS (
  SELECT user_id, event_type, grp, count(*) AS len
  FROM r GROUP BY 1, 2, 3
),
g AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS n_runs,
         CAST(sum(len) AS BIGINT) AS n_events,
         CAST(max(len) AS BIGINT) AS max_run
  FROM runs GROUP BY 1
)
SELECT event_type, n_runs, n_events, max_run,
       CAST(floor(CAST(n_events AS DOUBLE) / CAST(n_runs AS DOUBLE) * 1e6
                  + 0.5) AS BIGINT) AS mean_run_e6
FROM g
"""

register("event_run_lengths", event_run_lengths, sql=EVENT_RUN_LENGTHS_SQL)


# --- customer lifetime-value curve (X142) --------------------------------------

MONTH30_US = 30 * 86400 * 1_000_000  # 30-day tenure buckets, exact int division


def customer_ltv_curve(sf_dir: str) -> "pd.DataFrame":
    """(tenure_month, n_customers, n_orders, revenue_e2, cum_revenue_e2):
    how much revenue customers produce in their Nth 30-day tenure bucket
    (bucket 0 = the bucket of their first order) plus the cumulative LTV
    curve — the cohort-economics readout that retention triangles
    (``user_retention_cohorts``) don't price.

    Exactness: tenure is exact integer arithmetic (truncating
    ``epoch_us // month_us`` matching DuckDB ``//``, then a bucket
    difference); revenue sums integer cents under the shared half-away
    rule; the cumulative column is a driver cumsum of exact integers.

    Scale shape: ONE custkey co-partition exchange (a customer's orders
    land together); first-order buckets are in-partition transform-mins;
    each partition emits bounded (tenure, n_customers, n_orders,
    revenue) partials — tenure cardinality is the corpus time span in
    months — and the driver folds + cumsums that enum frame.
    """
    from .exchange import enum_group_sum

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.is_valid(batch["o_orderdate"]),
                pc.is_valid(batch["o_custkey"]),
            ),
            pc.is_valid(batch["o_totalprice"]),
        )
        t = batch.filter(keep)
        cents = pc.cast(
            pc.round(
                pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                ndigits=0,
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "tus": pc.cast(t["o_orderdate"], pa.int64()),
                "cents": cents,
            }
        )

    def per_customer(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "tenure_month": pd.Series(dtype="int64"),
                    "n_customers": pd.Series(dtype="int64"),
                    "n_orders": pd.Series(dtype="int64"),
                    "revenue_e2": pd.Series(dtype="int64"),
                }
            )
        us = df["tus"].to_numpy(dtype=np.int64)
        mo = us // MONTH30_US
        mo += ((us < 0) & (us - mo * MONTH30_US != 0)).astype(np.int64)
        d = pd.DataFrame(
            {
                "cust": df["o_custkey"].to_numpy(dtype=np.int64),
                "mo": mo,
                "cents": df["cents"].to_numpy(dtype=np.int64),
            }
        )
        d["tenure_month"] = d["mo"] - d.groupby("cust")["mo"].transform("min")
        g = d.groupby("tenure_month", sort=False).agg(
            n_customers=("cust", "nunique"),
            n_orders=("cents", "size"),
            revenue_e2=("cents", "sum"),
        )
        return g.reset_index().astype("int64")

    ds = ray.data.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    out = enum_group_sum(
        _hash_partitioned(ds, "o_custkey", per_customer),
        ["tenure_month"],
        ["n_customers", "n_orders", "revenue_e2"],
    )
    if len(out) == 0:
        return pd.DataFrame(
            {
                "tenure_month": pd.Series(dtype="int64"),
                "n_customers": pd.Series(dtype="int64"),
                "n_orders": pd.Series(dtype="int64"),
                "revenue_e2": pd.Series(dtype="int64"),
                "cum_revenue_e2": pd.Series(dtype="int64"),
            }
        )
    out = out.sort_values("tenure_month").reset_index(drop=True)
    out["cum_revenue_e2"] = out["revenue_e2"].cumsum()
    return out.astype("int64")


CUSTOMER_LTV_SQL = f"""
WITH f AS (
  SELECT o_custkey AS cust,
         epoch_us(o_orderdate) // {MONTH30_US} AS mo,
         CAST(round(o_totalprice * 100, 0) AS BIGINT) AS cents
  FROM orders
  WHERE o_orderdate IS NOT NULL AND o_custkey IS NOT NULL
    AND o_totalprice IS NOT NULL
),
t AS (
  SELECT cust, cents, mo - min(mo) OVER (PARTITION BY cust) AS tenure_month
  FROM f
),
g AS (
  SELECT tenure_month,
         CAST(count(DISTINCT cust) AS BIGINT) AS n_customers,
         CAST(count(*) AS BIGINT) AS n_orders,
         CAST(sum(cents) AS BIGINT) AS revenue_e2
  FROM t GROUP BY tenure_month
)
SELECT tenure_month, n_customers, n_orders, revenue_e2,
       CAST(sum(revenue_e2) OVER (ORDER BY tenure_month
            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_revenue_e2
FROM g
"""

register("customer_ltv_curve", customer_ltv_curve, sql=CUSTOMER_LTV_SQL)


# --- peak concurrent sessions (X147) -------------------------------------------

MINUTE_US = 60 * 1_000_000


def peak_concurrent_sessions(sf_dir: str) -> "pd.DataFrame":
    """One-row (peak_minute, peak_sessions, n_sessions): the maximum
    number of SIMULTANEOUSLY open sessions (30-min gap rule) and the
    earliest minute it occurs — the capacity-planning number (peak
    load) that per-user session stats can't answer because it needs a
    GLOBAL sweep across users.

    Contract: a session spans [first event, last event] minutes
    inclusive (minute = truncating ``epoch_us // 60e6``); concurrency
    at minute m counts sessions whose span covers m. The sweep is the
    classic +1/−1 boundary-delta cumsum — exact integers end to end —
    with the earliest-minute tie-break. Rows with NULL ts or user are
    excluded on both engines.

    Scale shape: ONE user-key exchange sessionizes in-partition (the
    ``user_sessions`` machinery); each partition emits bounded
    (minute, delta, starts) partials — cardinality is the corpus time
    span in minutes, MAX_ENUM_GROUPS-guarded — and the driver cumsums
    that enum frame. Session rows never cross partitions.
    """
    from .exchange import enum_group_sum

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["user_id"]))
        t = batch.filter(keep)
        return pa.table(
            {
                "user_id": t["user_id"],
                "tus": pc.cast(t["ts"], pa.int64()),
            }
        )

    def per_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        empty = pd.DataFrame(
            {
                "minute": pd.Series(dtype="int64"),
                "d": pd.Series(dtype="int64"),
                "starts": pd.Series(dtype="int64"),
            }
        )
        if len(df) == 0:
            return empty
        df = df.sort_values(["user_id", "tus"], kind="mergesort")
        u = df["user_id"].to_numpy(dtype=np.int64)
        t = df["tus"].to_numpy(dtype=np.int64)
        new = np.r_[True, (u[1:] != u[:-1]) | (t[1:] - t[:-1] > SESSION_GAP_SEC * 1_000_000)]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:] - 1, len(t) - 1]
        m_lo = t[starts] // MINUTE_US
        m_hi = t[ends] // MINUTE_US
        deltas = pd.DataFrame(
            {
                "minute": np.r_[m_lo, m_hi + 1],
                "d": np.r_[
                    np.ones(len(m_lo), dtype=np.int64),
                    -np.ones(len(m_hi), dtype=np.int64),
                ],
                "starts": np.r_[
                    np.ones(len(m_lo), dtype=np.int64),
                    np.zeros(len(m_hi), dtype=np.int64),
                ],
            }
        )
        return (
            deltas.groupby("minute", sort=False)[["d", "starts"]]
            .sum()
            .reset_index()
            .astype("int64")
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "ts"]
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    fold = enum_group_sum(
        _hash_partitioned(ds, "user_id", per_partition),
        ["minute"],
        ["d", "starts"],
    )
    cols = {"peak_minute": "int64", "peak_sessions": "int64", "n_sessions": "int64"}
    if len(fold) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    fold = fold.sort_values("minute").reset_index(drop=True)
    cum = fold["d"].cumsum().to_numpy(dtype=np.int64)
    best = int(np.argmax(cum))  # first maximum = earliest minute
    return pd.DataFrame(
        [
            {
                "peak_minute": int(fold["minute"].iloc[best]),
                "peak_sessions": int(cum[best]),
                "n_sessions": int(fold["starts"].sum()),
            }
        ]
    ).astype(cols)


PEAK_CONCURRENT_SQL = f"""
WITH f AS (
  SELECT user_id, ts FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL
),
ordered AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL {SESSION_GAP_SEC} SECOND
              OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM f
),
tagged AS (
  SELECT user_id, ts,
         sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                ROWS UNBOUNDED PRECEDING) AS session_id
  FROM ordered
),
sess AS (
  SELECT epoch_us(min(ts)) // {MINUTE_US} AS m_lo,
         epoch_us(max(ts)) // {MINUTE_US} AS m_hi
  FROM tagged GROUP BY user_id, session_id
),
deltas AS (
  SELECT m_lo AS minute, 1 AS d FROM sess
  UNION ALL
  SELECT m_hi + 1 AS minute, -1 AS d FROM sess
),
cum AS (
  SELECT minute, sum(sum(d)) OVER (ORDER BY minute
           ROWS UNBOUNDED PRECEDING) AS conc
  FROM deltas GROUP BY minute
)
SELECT CAST(minute AS BIGINT) AS peak_minute,
       CAST(conc AS BIGINT) AS peak_sessions,
       (SELECT CAST(count(*) AS BIGINT) FROM sess) AS n_sessions
FROM cum ORDER BY conc DESC, minute ASC LIMIT 1
"""

register("peak_concurrent_sessions", peak_concurrent_sessions, sql=PEAK_CONCURRENT_SQL)


# --- inter-order gap moments / burstiness (X153) --------------------------------

#: int64 headroom for the squared-gap partial: rows * max_gap_s^2 checked
#: per partition, raise (never wrap) — X98 discipline
_GAP_SQ_BOUND = 1 << 62


def customer_order_gap_moments(sf_dir: str) -> "pd.DataFrame":
    """One-row (n_customers, n_gaps, mean_gap_s_e6, cv2_e6): the moments
    of the inter-order waiting time across all customers, and the
    squared coefficient of variation — the Poisson-ness test of the
    order arrival process (CV² ≈ 1 memoryless, < 1 scheduled/regular,
    > 1 bursty; the single number a demand-forecast sanity check reads
    first).

    Exactness: gaps are whole seconds by truncating integer division of
    epoch-µs deltas under the (date, orderkey) total order per customer;
    Σg and Σg² are exact integer sums (int64 partials under an explicit
    per-partition bound, Python-int driver fold); mean and
    CV² = (n·Σg² − (Σg)²) / (Σg)² are one shared IEEE chain each.
    Customers with fewer than two dated orders contribute no gaps; a
    zero Σg (all orders simultaneous) is excluded (CV² undefined).

    Scale shape: ONE custkey co-partition exchange; per-partition
    vectorized diffs emit a single (customers, gaps, sum, sumsq) partial
    row; the driver folds partials. Zero driver row-data.
    """
    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch["o_orderdate"]), pc.is_valid(batch["o_custkey"])
        )
        t = batch.filter(keep)
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "key2": t["o_orderkey"],
                "tus": pc.cast(t["o_orderdate"], pa.int64()),
            }
        )

    def per_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        empty = pd.DataFrame(
            {
                "n_customers": pd.Series(dtype="int64"),
                "n_gaps": pd.Series(dtype="int64"),
                "s_str": pd.Series(dtype="object"),
                "ss_str": pd.Series(dtype="object"),
            }
        )
        if len(df) == 0:
            return empty
        df = df.sort_values(["o_custkey", "tus", "key2"], kind="mergesort")
        u = df["o_custkey"].to_numpy(dtype=np.int64)
        t = df["tus"].to_numpy(dtype=np.int64)
        same = u[1:] == u[:-1]
        g = (t[1:] - t[:-1]) // 1_000_000  # whole seconds, trunc (non-neg)
        g = g[same]
        n_cust = int(pd.unique(u).size)
        # multi-decade gaps square past int64 when SUMMED, so partials are
        # chunked int64 sums folded into a Python int and shipped as a
        # decimal STRING (exact at any magnitude); the per-ELEMENT square
        # still needs gaps under ~95 years, checked loud
        if g.size and int(g.max()) ** 2 >= _GAP_SQ_BOUND:
            raise ValueError(
                "customer_order_gap_moments: a single gap squares past int64 "
                "— quantize gaps to minutes"
            )
        g2 = g * g
        max_g2 = int(g2.max()) if g2.size else 0
        chunk = max(1, (1 << 62) // max(max_g2, 1))
        ss = sum(int(g2[i : i + chunk].sum()) for i in range(0, g2.size, chunk))
        max_g = int(g.max()) if g.size else 0
        chunk_s = max(1, (1 << 62) // max(max_g, 1))
        s = sum(int(g[i : i + chunk_s].sum()) for i in range(0, g.size, chunk_s))
        return pd.DataFrame(
            [
                {
                    "n_customers": n_cust,
                    "n_gaps": int(g.size),
                    "s_str": str(s),
                    "ss_str": str(ss),
                }
            ]
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_custkey", "o_orderkey", "o_orderdate"],
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    parts = _hash_partitioned(ds, "o_custkey", per_partition)
    n_cust = 0
    n = 0
    s = 0
    ss = 0
    for b in parts.iter_batches(batch_size=4096, batch_format="pandas"):
        for row in b.itertuples(index=False):  # one row per partition
            n_cust += int(row.n_customers)
            n += int(row.n_gaps)
            s += int(row.s_str)
            ss += int(row.ss_str)
    cols = {
        "n_customers": "int64", "n_gaps": "int64",
        "mean_gap_s_e6": "int64", "cv2_e6": "int64",
    }
    if n == 0 or s == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    mean = float(s) / float(n) * 1e6
    cv2 = float(n * ss - s * s) / float(s * s) * 1e6
    return pd.DataFrame(
        [
            {
                "n_customers": n_cust,
                "n_gaps": n,
                "mean_gap_s_e6": int(np.floor(mean + 0.5)),
                "cv2_e6": int(np.floor(cv2 + 0.5)),
            }
        ]
    ).astype(cols)


CUSTOMER_ORDER_GAP_SQL = """
WITH f AS (
  SELECT o_custkey, o_orderkey, o_orderdate FROM orders
  WHERE o_orderdate IS NOT NULL AND o_custkey IS NOT NULL
),
l AS (
  SELECT o_custkey,
         (epoch_us(lead(o_orderdate) OVER w) - epoch_us(o_orderdate))
           // 1000000 AS g
  FROM f WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
),
s AS (
  SELECT CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(g) AS HUGEINT) AS s,
         sum(CAST(g AS HUGEINT) * g) AS ss
  FROM l WHERE g IS NOT NULL
),
c AS (SELECT CAST(count(DISTINCT o_custkey) AS BIGINT) AS n_cust FROM f)
SELECT c.n_cust AS n_customers,
       CAST(s.n AS BIGINT) AS n_gaps,
       CAST(floor(CAST(s.s AS DOUBLE) / CAST(s.n AS DOUBLE) * 1e6 + 0.5)
            AS BIGINT) AS mean_gap_s_e6,
       CAST(floor(CAST(s.n * s.ss - s.s * s.s AS DOUBLE)
            / CAST(s.s * s.s AS DOUBLE) * 1e6 + 0.5) AS BIGINT) AS cv2_e6
FROM s, c WHERE s.n > 0 AND s.s > 0
"""

register(
    "customer_order_gap_moments", customer_order_gap_moments,
    sql=CUSTOMER_ORDER_GAP_SQL,
)


# --- daily new-vs-returning revenue split (X154) --------------------------------


def daily_new_vs_returning(sf_dir: str) -> "pd.DataFrame":
    """(day, new_orders, new_revenue_e2, ret_orders, ret_revenue_e2):
    each day's order volume split by whether the customer was NEW that
    day (every order on a customer's first-order day counts as new —
    the tie rule both engines spell) — the growth-accounting readout
    (is revenue acquisition or retention?).

    Exactness: days are truncating ``epoch_us // day_us``; first-order
    day is an in-partition transform-min under ONE custkey co-partition
    exchange; revenue sums integer cents (shared half-away rule); the
    (day, is_new) fold is enum-bounded by the corpus time span.
    """
    from .exchange import enum_group_sum

    DAY_US = 86_400_000_000

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.is_valid(batch["o_orderdate"]), pc.is_valid(batch["o_custkey"])
            ),
            pc.is_valid(batch["o_totalprice"]),
        )
        t = batch.filter(keep)
        cents = pc.cast(
            pc.round(
                pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                ndigits=0,
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "day": pc.divide(pc.cast(t["o_orderdate"], pa.int64()), DAY_US),
                "cents": cents,
            }
        )

    def per_customer(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "day": pd.Series(dtype="int64"),
                    "is_new": pd.Series(dtype="int64"),
                    "n": pd.Series(dtype="int64"),
                    "rev": pd.Series(dtype="int64"),
                }
            )
        first = df.groupby("o_custkey")["day"].transform("min")
        df = df.assign(is_new=(df["day"] == first).astype("int64"), n=1)
        g = df.groupby(["day", "is_new"], sort=False).agg(
            n=("n", "sum"), rev=("cents", "sum")
        )
        return g.reset_index().astype("int64")

    ds = ray.data.read_parquet(
        table_path(sf_dir, "orders"),
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    fold = enum_group_sum(
        _hash_partitioned(ds, "o_custkey", per_customer),
        ["day", "is_new"],
        ["n", "rev"],
    )
    cols = {
        "day": "int64", "new_orders": "int64", "new_revenue_e2": "int64",
        "ret_orders": "int64", "ret_revenue_e2": "int64",
    }
    if len(fold) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    wide = fold.pivot_table(
        index="day", columns="is_new", values=["n", "rev"],
        aggfunc="sum", fill_value=0,
    )
    out = pd.DataFrame(
        {
            "day": wide.index.to_numpy(dtype=np.int64),
            "new_orders": wide.get(("n", 1), pd.Series(0, index=wide.index)).to_numpy(dtype=np.int64),
            "new_revenue_e2": wide.get(("rev", 1), pd.Series(0, index=wide.index)).to_numpy(dtype=np.int64),
            "ret_orders": wide.get(("n", 0), pd.Series(0, index=wide.index)).to_numpy(dtype=np.int64),
            "ret_revenue_e2": wide.get(("rev", 0), pd.Series(0, index=wide.index)).to_numpy(dtype=np.int64),
        }
    ).sort_values("day").reset_index(drop=True)
    return out.astype(cols)


DAILY_NEW_VS_RETURNING_SQL = """
WITH f AS (
  SELECT o_custkey AS cust,
         epoch_us(o_orderdate) // 86400000000 AS day,
         CAST(round(o_totalprice * 100, 0) AS BIGINT) AS cents
  FROM orders
  WHERE o_orderdate IS NOT NULL AND o_custkey IS NOT NULL
    AND o_totalprice IS NOT NULL
),
t AS (
  SELECT day, cents,
         CASE WHEN day = min(day) OVER (PARTITION BY cust) THEN 1 ELSE 0 END
           AS is_new
  FROM f
)
SELECT day,
       CAST(coalesce(count(*) FILTER (WHERE is_new = 1), 0) AS BIGINT)
         AS new_orders,
       CAST(coalesce(sum(cents) FILTER (WHERE is_new = 1), 0) AS BIGINT)
         AS new_revenue_e2,
       CAST(coalesce(count(*) FILTER (WHERE is_new = 0), 0) AS BIGINT)
         AS ret_orders,
       CAST(coalesce(sum(cents) FILTER (WHERE is_new = 0), 0) AS BIGINT)
         AS ret_revenue_e2
FROM t GROUP BY day
"""

register("daily_new_vs_returning", daily_new_vs_returning, sql=DAILY_NEW_VS_RETURNING_SQL)


# --- user lifetime-span histogram (X158) -----------------------------------------


def user_lifetime_histogram(sf_dir: str) -> "pd.DataFrame":
    """(span_days, n_users): how many users have exactly k days between
    their first and last event — the engagement-shape readout behind
    every retention model (a mass at 0 = drive-by users; a long tail =
    a durable cohort). One custkey-style exchange, bounded fold.

    Exactness: days are truncating ``epoch_us // day_us``; the span is
    an in-partition (max − min) per user under ONE user-key exchange;
    the (span, n) fold is enum-bounded by the corpus time range. NULL
    ts/user rows are excluded on both engines.
    """
    from .exchange import enum_group_sum

    DAY_US = 86_400_000_000

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["user_id"]))
        t = batch.filter(keep)
        return pa.table(
            {
                "user_id": t["user_id"],
                "day": pc.divide(pc.cast(t["ts"], pa.int64()), DAY_US),
            }
        )

    def per_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) == 0:
            return pd.DataFrame(
                {"span_days": pd.Series(dtype="int64"), "n": pd.Series(dtype="int64")}
            )
        g = df.groupby("user_id")["day"].agg(["min", "max"])
        span = (g["max"] - g["min"]).astype("int64")
        vc = span.value_counts()
        return pd.DataFrame(
            {
                "span_days": vc.index.to_numpy(dtype=np.int64),
                "n": vc.to_numpy(dtype=np.int64),
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "ts"]
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    fold = enum_group_sum(
        _hash_partitioned(ds, "user_id", per_partition),
        ["span_days"],
        ["n"],
    )
    if len(fold) == 0:
        return pd.DataFrame(
            {
                "span_days": pd.Series(dtype="int64"),
                "n_users": pd.Series(dtype="int64"),
            }
        )
    fold = fold.sort_values("span_days").reset_index(drop=True)
    return pd.DataFrame(
        {
            "span_days": fold["span_days"].astype("int64"),
            "n_users": fold["n"].astype("int64"),
        }
    )


USER_LIFETIME_SQL = """
WITH f AS (
  SELECT user_id, epoch_us(ts) // 86400000000 AS day FROM events
  WHERE ts IS NOT NULL AND user_id IS NOT NULL
),
s AS (SELECT user_id, max(day) - min(day) AS span_days FROM f GROUP BY user_id)
SELECT CAST(span_days AS BIGINT) AS span_days,
       CAST(count(*) AS BIGINT) AS n_users
FROM s GROUP BY span_days
"""

register("user_lifetime_histogram", user_lifetime_histogram, sql=USER_LIFETIME_SQL)


# --- within-session event-type co-occurrence lift (X162) --------------------------


def session_type_lift(sf_dir: str) -> "pd.DataFrame":
    """(type_a, type_b, n_a, n_b, n_both, lift_e6): for every unordered
    event-type pair, how much more often they share a SESSION than
    independence predicts — lift = (n_both·S) / (n_a·n_b) over S
    sessions — the market-basket view of behavior ("do errors co-occur
    with purchases?") that a transition matrix can't see because
    co-occurrence is order-free.

    Exactness: sessionization is the 30-min gap rule in-partition under
    ONE user-key exchange; each session reduces to its distinct type
    set, pair counts fold over the bounded type-pair enum, and lift is
    one shared IEEE chain over exact integers. Pairs that never co-occur
    still appear (lift 0) via the dense pair grid of observed types.

    Scale: exchange volume is the event rows once; per-partition work is
    vectorized; everything after is ≤ #types² rows.
    """
    from .exchange import enum_group_sum

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.is_valid(batch["ts"]), pc.is_valid(batch["user_id"])),
            pc.is_valid(batch["event_type"]),
        )
        t = batch.filter(keep)
        return pa.table(
            {
                "user_id": t["user_id"],
                "tus": pc.cast(t["ts"], pa.int64()),
                "event_type": t["event_type"],
            }
        )

    def per_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        empty = pd.DataFrame(
            {
                "a": pd.Series(dtype="object"),
                "b": pd.Series(dtype="object"),
                "n": pd.Series(dtype="int64"),
            }
        )
        if len(df) == 0:
            return empty
        df = df.sort_values(["user_id", "tus"], kind="mergesort")
        u = df["user_id"].to_numpy(dtype=np.int64)
        t = df["tus"].to_numpy(dtype=np.int64)
        new = np.r_[
            True, (u[1:] != u[:-1]) | (t[1:] - t[:-1] > SESSION_GAP_SEC * 1_000_000)
        ]
        sid = np.cumsum(new)
        d = pd.DataFrame({"sid": sid, "ty": df["event_type"].to_numpy()})
        d = d.drop_duplicates(["sid", "ty"])
        rows = []
        # sessions row-count: one row per session marker
        rows.append({"a": "\x00S", "b": "\x00S", "n": int(new.sum())})
        # per-type session counts + unordered pair counts (types bounded)
        for ty, g in d.groupby("ty", sort=False):
            rows.append({"a": str(ty), "b": str(ty), "n": int(len(g))})
        m = d.merge(d, on="sid")
        m = m[m["ty_x"] < m["ty_y"]]
        if len(m):
            pc_ = m.groupby(["ty_x", "ty_y"], sort=False).size().reset_index(name="n")
            for r in pc_.itertuples(index=False):
                rows.append({"a": str(r.ty_x), "b": str(r.ty_y), "n": int(r.n)})
        return pd.DataFrame(rows)

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    fold = enum_group_sum(
        _hash_partitioned(ds, "user_id", per_partition), ["a", "b"], ["n"]
    )
    cols = {
        "type_a": "object", "type_b": "object", "n_a": "int64",
        "n_b": "int64", "n_both": "int64", "lift_e6": "int64",
    }
    if len(fold) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    cnt = {(r.a, r.b): int(r.n) for r in fold.itertuples(index=False)}
    S = cnt.pop(("\x00S", "\x00S"), 0)
    types = sorted({a for a, b in cnt if a == b})
    rows = []
    for i, a in enumerate(types):
        for b in types[i + 1 :]:
            na, nb = cnt[(a, a)], cnt[(b, b)]
            both = cnt.get((a, b), 0)
            lift = float(both * S) / float(na * nb) * 1e6
            rows.append(
                {
                    "type_a": a, "type_b": b, "n_a": na, "n_b": nb,
                    "n_both": both, "lift_e6": int(np.floor(lift + 0.5)),
                }
            )
    if not rows:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    return pd.DataFrame(rows).astype(cols)


SESSION_TYPE_LIFT_SQL = f"""
WITH f AS (
  SELECT user_id, ts, event_type FROM events
  WHERE ts IS NOT NULL AND user_id IS NOT NULL AND event_type IS NOT NULL
),
ordered AS (
  SELECT user_id, ts, event_type,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL {SESSION_GAP_SEC} SECOND
              OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM f
),
tagged AS (
  SELECT user_id, event_type,
         sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                ROWS UNBOUNDED PRECEDING) AS sid
  FROM ordered
),
st AS (SELECT DISTINCT user_id, sid, event_type FROM tagged),
tot AS (SELECT CAST(count(DISTINCT (user_id, sid)) AS HUGEINT) AS s FROM st),
per AS (SELECT event_type, CAST(count(*) AS HUGEINT) AS n FROM st GROUP BY 1),
pairs AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
         CAST(count(*) AS HUGEINT) AS n_both
  FROM st a JOIN st b
    ON a.user_id = b.user_id AND a.sid = b.sid
   AND a.event_type < b.event_type
  GROUP BY 1, 2
),
grid AS (
  SELECT x.event_type AS type_a, y.event_type AS type_b,
         x.n AS n_a, y.n AS n_b
  FROM per x JOIN per y ON x.event_type < y.event_type
)
SELECT g.type_a, g.type_b,
       CAST(g.n_a AS BIGINT) AS n_a, CAST(g.n_b AS BIGINT) AS n_b,
       CAST(coalesce(p.n_both, 0) AS BIGINT) AS n_both,
       CAST(floor(
         CAST(coalesce(p.n_both, 0) * tot.s AS DOUBLE)
         / CAST(g.n_a * g.n_b AS DOUBLE) * 1e6 + 0.5) AS BIGINT) AS lift_e6
FROM grid g
LEFT JOIN pairs p ON p.type_a = g.type_a AND p.type_b = g.type_b
CROSS JOIN tot
"""

register("session_type_lift", session_type_lift, sql=SESSION_TYPE_LIFT_SQL)
