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
- **winsorization**: per-group quantile clipping, the quantile pair from a
  complete-group hash partition and the clip an embarrassingly parallel
  map.

All three have exact DuckDB oracles (date_trunc / lag-sum windows /
quantile_cont).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .dedup import _hash_partitioned
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


register("events_hourly", events_hourly, sql=EVENTS_HOURLY_SQL)
register("user_sessions", user_sessions, sql=USER_SESSIONS_SQL)


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
