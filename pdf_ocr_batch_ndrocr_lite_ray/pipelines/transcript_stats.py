"""Transcript-native corpus operators: cross-conversation boilerplate-turn
detection and per-conversation metadata stats.

Agent/conversation corpora repeat themselves in a way documents don't:
system prompts, tool-call headers, and canned assistant prefaces recur
verbatim across thousands of conversations. Detecting those (to strip or
down-weight before training) is a turn-level groupby over the SAME
fingerprint normalization the dedup family uses — and per-conversation
metadata (turn counts, role mix, wall-clock span) is the partitioning/
skew-planning input for every conversation-level stage.

Scale shapes: both ops exchange METADATA columns only (fingerprints, 8-byte
ids, timestamps) — raw turn text never shuffles. Boilerplate counting
collapses (fingerprint, conv_id) duplicates per batch before the exchange,
so a hot boilerplate string contributes one row per (batch, conv), not one
per turn.
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .exchange import hash_partitioned as _hash_partitioned
from .queryset import register, transcripts_for_sf, transcripts_path_for_sf

#: a turn payload seen in at least this many distinct conversations is
#: boilerplate (tune per corpus; 3 keeps the gate conservative)
BOILERPLATE_MIN_CONVS = 3


def _norm_fingerprint(text_col: pa.ChunkedArray | pa.Array) -> pa.Array:
    # same whitespace-normalized md5 as the document dedup family — md5
    # because the DuckDB oracle must reproduce the value
    norm = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(text_col, pattern=r"\s+", replacement=" ")
    )
    return pa.array(
        [
            hashlib.md5(s.encode("utf-8")).hexdigest() if s else None
            for s in norm.to_pylist()
        ],
        type=pa.string(),
    )


def turns_boilerplate(
    sf_dir: str, min_convs: int = BOILERPLATE_MIN_CONVS
) -> "ray.data.Dataset":
    """Turn payloads recurring across conversations:
    (fingerprint, n_convs, n_turns) for ≥ ``min_convs`` distinct convs."""
    path = transcripts_for_sf(sf_dir)
    ds = ray.data.read_parquet(path, columns=["conv_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        fp = _norm_fingerprint(batch["text"])
        t = pa.table({"fingerprint": fp, "conv_id": batch["conv_id"]})
        t = t.filter(pc.is_valid(t["fingerprint"]))  # empty-normalized turns out
        g = t.group_by(["fingerprint", "conv_id"]).aggregate([([], "count_all")])
        return g.rename_columns(["fingerprint", "conv_id", "n"])

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("fingerprint", sort=False)
            .agg(n_convs=("conv_id", "nunique"), n_turns=("n", "sum"))
            .reset_index()
        )
        g = g[g["n_convs"] >= min_convs]
        g["n_turns"] = g["n_turns"].astype("int64")
        g["n_convs"] = g["n_convs"].astype("int64")
        return g[["fingerprint", "n_convs", "n_turns"]]

    return _hash_partitioned(
        ds.map_batches(partial, batch_format="pyarrow"),
        "fingerprint",
        per_partition,
    )


def _boilerplate_sql(path: str, min_convs: int = BOILERPLATE_MIN_CONVS) -> str:
    return f"""
WITH fp AS (
  SELECT conv_id,
         md5(trim(regexp_replace(text, '\\s+', ' ', 'g'))) AS fingerprint
  FROM read_parquet('{path}')
  WHERE trim(regexp_replace(text, '\\s+', ' ', 'g')) <> ''
)
SELECT fingerprint,
       count(DISTINCT conv_id) AS n_convs,
       count(*) AS n_turns
FROM fp GROUP BY fingerprint HAVING count(DISTINCT conv_id) >= {min_convs}
"""


def conversation_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-conversation metadata: (conv_id, n_turns, n_roles, n_tool_turns,
    duration_s). The planning table for conversation-level partitioning —
    turn-count skew (hot conversations) reads directly off ``n_turns``."""
    path = transcripts_for_sf(sf_dir)
    ds = ray.data.read_parquet(path, columns=["conv_id", "role", "ts"])

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(is_tool=(df["role"] == "tool").astype("int64"))
        g = (
            df.groupby("conv_id", sort=False)
            .agg(
                n_turns=("role", "size"),
                n_roles=("role", "nunique"),
                n_tool_turns=("is_tool", "sum"),
                ts_min=("ts", "min"),
                ts_max=("ts", "max"),
            )
            .reset_index()
        )
        g["duration_s"] = (
            (g["ts_max"] - g["ts_min"]).dt.total_seconds().astype("int64")
        )
        for c in ("n_turns", "n_roles", "n_tool_turns"):
            g[c] = g[c].astype("int64")
        return g[["conv_id", "n_turns", "n_roles", "n_tool_turns", "duration_s"]]

    return _hash_partitioned(ds, "conv_id", per_partition)


def _conversation_stats_sql(path: str) -> str:
    return f"""
SELECT conv_id,
       count(*) AS n_turns,
       count(DISTINCT role) AS n_roles,
       count(*) FILTER (WHERE role = 'tool') AS n_tool_turns,
       CAST(date_diff('second', min(ts), max(ts)) AS BIGINT) AS duration_s
FROM read_parquet('{path}')
GROUP BY conv_id
"""


def transcript_tool_stats(sf_dir: str) -> "ray.data.Dataset":
    """(tool, n_turns, n_convs): tool-call usage across the corpus — how
    often each tool fires and how widely (distinct conversations). The
    agent-trace analog of source mixture: the planning input for
    tool-balance resampling before training on agent transcripts.

    Shape: the tool vocabulary is a bounded enum but conv_id is not, so
    the distinct-conversation count exchanges (tool, conv_id) PAIRS —
    deduplicated per block first (a chatty tool contributes one row per
    (block, conv), never one per turn) — hash-partitioned by conv_id so
    each pair lands exactly once, counted in-partition, then summed in a
    bounded per-tool fold. Raw text never ships."""
    from .exchange import enum_group_sum

    path = transcripts_for_sf(sf_dir)
    ds = ray.data.read_parquet(path, columns=["conv_id", "tool"])

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.and_(pc.is_valid(batch["tool"]), pc.not_equal(batch["tool"], ""))
        )
        g = t.group_by(["tool", "conv_id"]).aggregate([([], "count_all")])
        return g.rename_columns(["tool", "conv_id", "n"])

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("tool", sort=False)
            .agg(n_turns=("n", "sum"), n_convs=("conv_id", "nunique"))
            .reset_index()
        )
        g["n_turns"] = g["n_turns"].astype("int64")
        g["n_convs"] = g["n_convs"].astype("int64")
        return g[["tool", "n_turns", "n_convs"]]

    pairs = ds.map_batches(partial, batch_format="pyarrow")
    partials = _hash_partitioned(pairs, "conv_id", per_partition)
    return ray.data.from_pandas(
        enum_group_sum(partials, ["tool"], ["n_turns", "n_convs"])
    )


def _tool_stats_sql(path: str) -> str:
    return f"""
SELECT tool,
       count(*) AS n_turns,
       count(DISTINCT conv_id) AS n_convs
FROM read_parquet('{path}')
WHERE tool IS NOT NULL AND tool <> ''
GROUP BY tool
"""


_ORACLE_PATH = transcripts_path_for_sf("/root/testdata/sf0.01")

register("turns_boilerplate", turns_boilerplate, sql=_boilerplate_sql(_ORACLE_PATH))
register(
    "conversation_stats", conversation_stats, sql=_conversation_stats_sql(_ORACLE_PATH)
)
register("transcript_tool_stats", transcript_tool_stats, sql=_tool_stats_sql(_ORACLE_PATH))


def conversation_role_transitions(sf_dir: str) -> "ray.data.Dataset":
    """(prev_role, next_role, n): role-sequence edges over each
    conversation's turn_idx order — the transcript-side Markov shape. One
    conv_id exchange of three narrow columns; the fold frame is ≤ #roles²
    rows."""
    from .exchange import enum_group_sum

    path = transcripts_for_sf(sf_dir)
    ds = ray.data.read_parquet(path, columns=["conv_id", "turn_idx", "role"])

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "prev_role": pd.Series([], dtype="object"),
                    "next_role": pd.Series([], dtype="object"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        same = (df["conv_id"].shift(-1) == df["conv_id"]).to_numpy(dtype=bool)
        pairs = pd.DataFrame(
            {"prev_role": df["role"], "next_role": df["role"].shift(-1)}
        )[same]
        out = pairs.groupby(["prev_role", "next_role"], sort=False).size().rename("n")
        out = out.reset_index()
        out["n"] = out["n"].astype("int64")
        return out

    partials = _hash_partitioned(ds, "conv_id", per_partition)
    return ray.data.from_pandas(
        enum_group_sum(partials, ["prev_role", "next_role"], ["n"])
    )


def _role_transitions_sql(path: str) -> str:
    return f"""
WITH s AS (
  SELECT role,
         lead(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS next_role
  FROM read_parquet('{path}')
)
SELECT role AS prev_role, next_role, count(*) AS n
FROM s WHERE next_role IS NOT NULL GROUP BY 1, 2
"""


register(
    "conversation_role_transitions",
    conversation_role_transitions,
    sql=_role_transitions_sql(_ORACLE_PATH),
)


def tool_cooccurrence(sf_dir: str) -> "ray.data.Dataset":
    """(tool_a, tool_b, n_convs): conversations where BOTH tools fire —
    the pair-mixture planning input for agent-trace resampling.

    Shape: (conv_id, tool) pairs dedup per block, ONE conv_id exchange
    co-locates each conversation's tool set, per-conversation sorted
    pairs expand in-partition (#tools per conversation is enum-bounded,
    so the pair fan-out is bounded-quadratic per conv, not corpus-scale),
    and the ≤ #tools² fold sums partials."""
    from .exchange import enum_group_sum

    path = transcripts_for_sf(sf_dir)
    ds = ray.data.read_parquet(path, columns=["conv_id", "tool"])

    def pair_partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.and_(pc.is_valid(batch["tool"]), pc.not_equal(batch["tool"], ""))
        )
        g = t.group_by(["conv_id", "tool"]).aggregate([])
        return g

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        rows_a: list[str] = []
        rows_b: list[str] = []
        for _, g in df.groupby("conv_id", sort=False):
            tools = sorted(set(g["tool"]))
            for i in range(len(tools) - 1):
                for j in range(i + 1, len(tools)):
                    rows_a.append(tools[i])
                    rows_b.append(tools[j])
        out = (
            pd.DataFrame({"tool_a": rows_a, "tool_b": rows_b})
            .groupby(["tool_a", "tool_b"], sort=False)
            .size()
            .rename("n_convs")
            .reset_index()
        )
        out["n_convs"] = out["n_convs"].astype("int64")
        return out

    pairs = ds.map_batches(pair_partial, batch_format="pyarrow")
    partials = _hash_partitioned(pairs, "conv_id", per_partition)
    return ray.data.from_pandas(
        enum_group_sum(partials, ["tool_a", "tool_b"], ["n_convs"])
    )


def _tool_cooccurrence_sql(path: str) -> str:
    return f"""
WITH ct AS (
  SELECT DISTINCT conv_id, tool FROM read_parquet('{path}')
  WHERE tool IS NOT NULL AND tool <> ''
)
SELECT a.tool AS tool_a, b.tool AS tool_b, count(*) AS n_convs
FROM ct a JOIN ct b ON a.conv_id = b.conv_id AND a.tool < b.tool
GROUP BY 1, 2
"""


register("tool_cooccurrence", tool_cooccurrence, sql=_tool_cooccurrence_sql(_ORACLE_PATH))


N_CHECKSUM_BUCKETS = 64


def transcript_partition_checksums(sf_dir: str) -> "ray.data.Dataset":
    """(bucket, n_rows, xor_hash): order-free content checksums per key
    bucket — the anti-entropy primitive for replica diff and resumable
    verification. Two table copies are byte-identical iff all 64 rows of
    this table match; a mismatch localizes to a bucket (re-verify only
    that key range), which is how a 100 TB re-crawl is compared without
    moving either copy.

    Shape: shuffle-FREE — each block folds (bucket, count, xor-of-row-
    hashes) partials (xor is commutative+associative, so block layout
    can't change a digit) and the driver merges a 64-row frame. The row
    hash is the first 8 md5 bytes of the canonical ``conv_id|turn_idx|text``
    serialization — reproduced bit-for-bit by the SQL oracle, false
    collisions ~2^-64.
    """
    import numpy as np

    def _md5_buckets(col: "pa.Array") -> np.ndarray:
        """Bucket id per row: first 8 md5 bytes of conv_id % buckets —
        md5 (not crc32) so the SQL oracle reproduces the assignment.
        Hashed once per DISTINCT conv in the block via dictionary codes.
        NULL conv_id coalesces to '' (both sides), so the dictionary
        indices are never null."""
        enc = pc.fill_null(col, "").dictionary_encode()
        uniq = np.fromiter(
            (
                int.from_bytes(hashlib.md5(str(v).encode()).digest()[:8], "big")
                % N_CHECKSUM_BUCKETS
                for v in enc.dictionary.to_pylist()
            ),
            dtype=np.int64,
            count=len(enc.dictionary),
        )
        idx = enc.indices.to_numpy(zero_copy_only=False)
        return uniq[idx]

    def partial(batch: pa.Table) -> pa.Table:
        conv = batch["conv_id"].to_pylist()
        tix = batch["turn_idx"].to_pylist()
        txt = batch["text"].to_pylist()
        # NULL key parts coalesce to '' — the same rule as the oracle's
        # coalesce(), so a NULL never silently drops a row from the xor
        h = np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5(
                        "|".join(
                            (
                                c if c is not None else "",
                                str(t) if t is not None else "",
                                x if x is not None else "",
                            )
                        ).encode("utf-8")
                    ).digest()[:8],
                    "big",
                )
                for c, t, x in zip(conv, tix, txt)
            ),
            dtype=np.uint64,
            count=len(conv),
        )
        col = batch["conv_id"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        buckets = _md5_buckets(col)
        xors = np.zeros(N_CHECKSUM_BUCKETS, dtype=np.uint64)
        np.bitwise_xor.at(xors, buckets, h)
        counts = np.bincount(buckets, minlength=N_CHECKSUM_BUCKETS).astype(np.int64)
        nz = counts > 0
        return pa.table(
            {
                "bucket": pa.array(np.arange(N_CHECKSUM_BUCKETS)[nz], type=pa.int64()),
                "n_rows": pa.array(counts[nz], type=pa.int64()),
                "xor_hash": pa.array(xors[nz], type=pa.uint64()),
            }
        )

    from .exchange import enum_group_agg

    path = transcripts_for_sf(sf_dir)
    ds = ray.data.read_parquet(
        path, columns=["conv_id", "turn_idx", "text"]
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    out = enum_group_agg(
        ds,
        ["bucket"],
        {"n_rows": "sum", "xor_hash": lambda c: np.bitwise_xor.reduce(c.to_numpy())},
    )
    out["xor_hash"] = out["xor_hash"].astype("uint64")
    return ray.data.from_pandas(out)


def _partition_checksums_sql(path: str) -> str:
    return f"""
WITH h AS (
  SELECT CAST(('0x' || substr(md5(coalesce(conv_id, '')), 1, 16))::UBIGINT
              % {N_CHECKSUM_BUCKETS} AS BIGINT) AS bucket,
         ('0x' || substr(md5(coalesce(conv_id, '') || '|'
                              || coalesce(CAST(turn_idx AS VARCHAR), '') || '|'
                              || coalesce(text, '')), 1, 16))::UBIGINT AS rh
  FROM read_parquet('{path}')
)
SELECT bucket, count(*) AS n_rows, bit_xor(rh) AS xor_hash
FROM h GROUP BY 1
"""


register(
    "transcript_partition_checksums",
    transcript_partition_checksums,
    sql=_partition_checksums_sql(_ORACLE_PATH),
)


# --- turn-latency profile per role transition (X155) -----------------------------


def turn_latency_profile(sf_dir: str) -> "pd.DataFrame":
    """(pair, n, p50_s, p90_s, max_s, mean_s_e6): the response-latency
    profile of each role transition (``user>assistant`` = model answer
    latency, ``assistant>user`` = human think time, tool round-trips) —
    the conversational-SLA readout over the transcript corpus.

    Contract: adjacency is the FULL (conv_id, turn_idx) order; a pair is
    dropped only if either member lacks role or ts; latency is whole
    seconds by truncating integer division (both engines); quantiles are
    the smallest latency with cumulative count ≥ q·n; mean is one shared
    IEEE division of exact integers. Negative latencies (out-of-order
    timestamps) count in n/mean and the quantile grid — they're real
    integrity signal, not noise.

    Scale shape: ONE conv_id co-partition exchange (a conversation's
    turns land together); per-partition vectorized diffs emit bounded
    (pair, delta_s, n) partials — distinct transition pairs × distinct
    second-deltas, MAX_ENUM_GROUPS-guarded (bucket deltas past it).
    """
    import numpy as np

    from .exchange import enum_group_sum

    path = transcripts_for_sf(sf_dir)

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": batch["conv_id"],
                "turn_idx": pc.cast(batch["turn_idx"], pa.int64()),
                "role": batch["role"],
                "tus": pc.cast(batch["ts"], pa.int64()),
            }
        )

    def per_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        empty = pd.DataFrame(
            {
                "pair": pd.Series(dtype="object"),
                "delta_s": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
            }
        )
        if len(df) == 0:
            return empty
        df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = df["conv_id"].to_numpy()
        role = df["role"].to_numpy()
        tn = df["tus"].isna().to_numpy()
        same = conv[1:] == conv[:-1]
        ok = (
            same
            & ~tn[1:]
            & ~tn[:-1]
            & (role[1:] != None)  # noqa: E711  (numpy elementwise)
            & (role[:-1] != None)  # noqa: E711
        )
        if not ok.any():
            return empty
        a = np.flatnonzero(ok)
        delta = (
            df["tus"].to_numpy()[a + 1].astype(np.int64)
            - df["tus"].to_numpy()[a].astype(np.int64)
        ) // 1_000_000
        pair = np.char.add(
            np.char.add(role[a].astype(str), ">"), role[a + 1].astype(str)
        )
        g = (
            pd.DataFrame({"pair": pair, "delta_s": delta, "n": 1})
            .groupby(["pair", "delta_s"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        return g.astype({"delta_s": "int64", "n": "int64"})

    ds = ray.data.read_parquet(
        path, columns=["conv_id", "turn_idx", "role", "ts"]
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    fold = enum_group_sum(
        _hash_partitioned(ds, "conv_id", per_partition),
        ["pair", "delta_s"],
        ["n"],
    )
    cols = {
        "pair": "object", "n": "int64", "p50_s": "int64",
        "p90_s": "int64", "max_s": "int64", "mean_s_e6": "int64",
    }
    if len(fold) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    rows = []
    for pair, g in fold.groupby("pair", sort=True):
        g = g.sort_values("delta_s").reset_index(drop=True)
        cnt = g["n"].to_numpy(dtype=np.int64)
        dlt = g["delta_s"].to_numpy(dtype=np.int64)
        n = int(cnt.sum())
        cum = np.cumsum(cnt)
        s = sum(int(d) * int(c) for d, c in zip(dlt, cnt))
        rows.append(
            {
                "pair": pair,
                "n": n,
                "p50_s": int(dlt[np.searchsorted(cum, 0.5 * n)]),
                "p90_s": int(dlt[np.searchsorted(cum, 0.9 * n)]),
                "max_s": int(dlt[-1]),
                "mean_s_e6": int(np.floor(float(s) / float(n) * 1e6 + 0.5)),
            }
        )
    return pd.DataFrame(rows).astype(cols)


def _turn_latency_sql() -> str:
    from .queryset import transcripts_path_for_sf

    p = transcripts_path_for_sf("/root/testdata/sf0.01")
    return f"""
WITH f AS (
  SELECT conv_id, turn_idx, role, ts
  FROM read_parquet('{p}')
),
l AS (
  SELECT role || '>' || lead(role) OVER w AS pair,
         (epoch_us(lead(ts) OVER w) - epoch_us(ts)) // 1000000 AS delta_s
  FROM f WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
),
g AS (
  SELECT pair, delta_s, CAST(count(*) AS BIGINT) AS c FROM l
  WHERE pair IS NOT NULL AND delta_s IS NOT NULL GROUP BY 1, 2
),
t AS (
  SELECT pair, CAST(sum(c) AS BIGINT) AS n,
         sum(CAST(delta_s AS HUGEINT) * c) AS s,
         CAST(max(delta_s) AS BIGINT) AS max_s
  FROM g GROUP BY pair
),
cum AS (
  SELECT pair, delta_s,
         sum(c) OVER (PARTITION BY pair ORDER BY delta_s) AS cum
  FROM g
),
q AS (
  SELECT cum.pair,
         CAST(min(delta_s) FILTER (WHERE cum >= 0.5 * t.n) AS BIGINT) AS p50_s,
         CAST(min(delta_s) FILTER (WHERE cum >= 0.9 * t.n) AS BIGINT) AS p90_s
  FROM cum JOIN t ON cum.pair = t.pair GROUP BY cum.pair
)
SELECT t.pair, t.n, q.p50_s, q.p90_s, t.max_s,
       CAST(floor(CAST(t.s AS DOUBLE) / CAST(t.n AS DOUBLE) * 1e6 + 0.5)
            AS BIGINT) AS mean_s_e6
FROM t JOIN q ON t.pair = q.pair
"""


register("turn_latency_profile", turn_latency_profile, sql=_turn_latency_sql())
