"""Iterative PageRank over the near-duplicate similarity graph.

The engine's iterative-algorithm shape: power iteration where the edge
set stays DISTRIBUTED (one streaming pass per iteration) and the rank
vector is the broadcast state — the bulk-synchronous pattern every
iterative graph/ML algorithm on Ray Data reduces to. The graph is the
symmetrized exact-Jaccard near-dup graph (`dedup_ngram_jaccard` ≥ 0.5),
i.e. "how central is this document in its duplicate neighborhood" — the
signal used to pick canonical representatives inside big dup families.

Numeric contract — the whole iteration runs in int64 1e-9 fixed point so
a SQL oracle can replay it EXACTLY with unrolled CTEs (one per
iteration; iteration count is a constant):

    r0        = floor(1e9 / N + 0.5)
    contrib(u)= floor((r_k[u] * 0.85) / deg[u] + 0.5)     # one fp op chain
    r_{k+1}[v]= base + Σ_{u→v} contrib(u)                 # exact int sum
    base      = floor(0.15 * 1e9 / N + 0.5)

The damping multiply is float64 in BOTH engines (the SQL casts the
constant to DOUBLE) so the op chains are identical, not merely close.

Scale shape — two paths, same numbers (a test pins them equal):

- **broadcast** (node count ≤ ``max_broadcast_nodes``): the rank/degree
  vectors live on the driver as dense numpy arrays aligned to a sorted
  node-id array; each iteration is one streaming pass over the
  distributed edges (vectorized ``searchsorted`` gather + per-block
  partial dst-sums) folded into the dense vector with ``np.add.at``.
  Edges never leave the cluster; driver state is node-bounded.
- **partitioned** (past the cap): nothing node-sized on the driver —
  the rank vector is itself a Dataset, and each iteration is two
  ``hash_partitioned`` exchanges (rank⋈edges by src → contrib partials;
  partials⋈state by dst → new ranks): two tables co-partitioned on one
  key and joined inside each partition. The degree fold that would have
  materialized the node set is abandoned the moment the cap is crossed.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .dedup import DEDUP_NGRAM_JACCARD_SQL, dedup_ngram_jaccard
from .exchange import hash_partitioned, int64_array
from .queryset import register

PAGERANK_ITERS = 5
PAGERANK_DAMPING = 0.85

#: broadcast-state guard: beyond this many graph nodes the rank vector no
#: longer belongs on the driver — auto-switch to the partition-aligned join
_MAX_BROADCAST_NODES = 5_000_000

#: block-count cap for the partitioned path's per-iteration state/partials
_STATE_BLOCKS = 16


def _symmetrized_edges(sf_dir: str) -> "ray.data.Dataset":
    pairs = dedup_ngram_jaccard(sf_dir).select_columns(["doc_a", "doc_b"])

    def symmetrize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pa.concat_arrays(
                    [t["doc_a"].combine_chunks(), t["doc_b"].combine_chunks()]
                ),
                "dst": pa.concat_arrays(
                    [t["doc_b"].combine_chunks(), t["doc_a"].combine_chunks()]
                ),
            }
        )

    # materialize ONCE: the edge list is the small derived output of the
    # jaccard pipeline (pairs only, never text); leaving it lazy would
    # re-execute both jaccard exchanges on every one of the iters+1
    # passes below
    return pairs.map_batches(symmetrize, batch_format="pyarrow").materialize()


def _contrib_e9(rank: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """floor((r * 0.85) / deg + 0.5) — int64 in, one float64 op chain,
    int64 out. Shared by both paths so they cannot drift."""
    return np.floor(rank * PAGERANK_DAMPING / deg + 0.5).astype(np.int64)


def _empty_ranks() -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([], type=pa.int64()),
            "rank_e9": pa.array([], type=pa.int64()),
        }
    )


def docs_pagerank(
    sf_dir: str,
    iters: int = PAGERANK_ITERS,
    max_broadcast_nodes: int = _MAX_BROADCAST_NODES,
) -> "pa.Table | ray.data.Dataset":
    """(doc_id, rank_e9): fixed-point PageRank after ``iters`` power
    iterations over the symmetrized near-dup graph. Deterministic and
    SQL-replayable; isolated docs (no near-dup edge) are not nodes."""
    return pagerank_over_edges(
        _symmetrized_edges(sf_dir), iters, max_broadcast_nodes
    )


def pagerank_over_edges(
    edges: "ray.data.Dataset",
    iters: int = PAGERANK_ITERS,
    max_broadcast_nodes: int = _MAX_BROADCAST_NODES,
) -> "pa.Table | ray.data.Dataset":
    """PageRank over an already-symmetrized (src, dst) edge Dataset —
    broadcast power iteration under the cap, partition-aligned join past it
    (tests pin the two paths byte-equal on the same edges)."""
    # degree fold: per-block (node, count) partials → dense driver vector.
    # Vectorized (np.unique + add-fold), node-bounded, and CAPPED: the
    # moment the running distinct-node estimate crosses the cap, abandon
    # the fold and reroute to the partitioned shape — never an unbounded
    # driver materialization.
    u_parts: list[np.ndarray] = []
    c_parts: list[np.ndarray] = []

    def _refold() -> None:
        nodes_, inv = np.unique(np.concatenate(u_parts), return_inverse=True)
        deg_ = np.zeros(len(nodes_), dtype=np.int64)
        np.add.at(deg_, inv, np.concatenate(c_parts))
        u_parts[:] = [nodes_]
        c_parts[:] = [deg_]

    def degree_partials(t: pa.Table) -> pa.Table:
        # uniques computed CLUSTER-SIDE so only (node, count) partials reach
        # the driver — never the raw O(|E|) edge rows
        u, c = np.unique(int64_array(t["src"]), return_counts=True)
        return pa.table(
            {
                "u": pa.array(u, type=pa.int64()),
                "c": pa.array(c.astype(np.int64), type=pa.int64()),
            }
        )

    for b in edges.map_batches(degree_partials, batch_format="pyarrow").iter_batches(
        batch_size=65_536, batch_format="pyarrow"
    ):
        if b.num_rows == 0:
            continue
        u_parts.append(int64_array(b["u"]))
        c_parts.append(int64_array(b["c"]))
        if len(u_parts) >= 64:
            _refold()
        if len(u_parts[0]) > max_broadcast_nodes:
            return _pagerank_partitioned(edges, iters)
    if not u_parts:
        return _empty_ranks()
    _refold()
    nodes, deg = u_parts[0], c_parts[0]
    n = len(nodes)
    if n > max_broadcast_nodes:
        return _pagerank_partitioned(edges, iters)

    base = int(np.floor(0.15 * 1e9 / n + 0.5))
    ranks = np.full(n, int(np.floor(1e9 / n + 0.5)), dtype=np.int64)

    for _ in range(iters):
        state = ray.put((nodes, ranks, deg))

        def partial_sums(t: pa.Table) -> pa.Table:
            nodes_, r, d = ray.get(state)
            idx = np.searchsorted(nodes_, int64_array(t["src"]))
            contrib = _contrib_e9(r[idx], d[idx])
            dst_u, inv = np.unique(int64_array(t["dst"]), return_inverse=True)
            c = np.zeros(len(dst_u), dtype=np.int64)
            np.add.at(c, inv, contrib)
            return pa.table(
                {
                    "dst": pa.array(dst_u, type=pa.int64()),
                    "c": pa.array(c, type=pa.int64()),
                }
            )

        sums = np.zeros(n, dtype=np.int64)
        for b in edges.map_batches(partial_sums, batch_format="pyarrow").iter_batches(
            batch_size=65_536, batch_format="pyarrow"
        ):
            if b.num_rows == 0:
                continue
            dst = int64_array(b["dst"])
            idx = np.searchsorted(nodes, dst)
            # guard the probe: symmetrized input means every dst is a src;
            # a miss here means the caller passed a directed edge list, and
            # silently attributing the contribution to a neighboring node
            # would be far worse than failing
            hit = (idx < n) & (nodes[np.minimum(idx, n - 1)] == dst)
            if not hit.all():
                raise ValueError(
                    "edge dst not in the source-node set — pagerank_over_edges "
                    "requires a symmetrized edge list (every dst also a src)"
                )
            np.add.at(sums, idx, int64_array(b["c"]))
        ranks = base + sums

    return pa.table(
        {
            "doc_id": pa.array(nodes, type=pa.int64()),
            "rank_e9": pa.array(ranks, type=pa.int64()),
        }
    )


def _pagerank_partitioned(edges: "ray.data.Dataset", iters: int) -> "ray.data.Dataset":
    """Past-the-cap path: the rank vector is a Dataset, never driver state.

    Per iteration, two key-aligned exchanges over a unified
    (key, dst, r, deg, c, is_state) schema:

    1. partition by ``src``: state rows carry (r, deg); edge rows gather
       their source's rank/degree via a sorted-array probe and emit
       per-partition (dst, contrib-sum) partials;
    2. partition by node: state rows + contrib partials co-locate and
       each node's new rank = base + Σ partials.

    Only scalars (N, base) touch the driver.
    """
    def degrees(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("src", sort=False).size()
        return pd.DataFrame(
            {
                "key": g.index.to_numpy(np.int64),
                "dst": np.int64(-1),
                "r": np.int64(0),  # placeholder — r0 patched in below once N is known
                "deg": g.to_numpy(np.int64),
                "c": np.int64(0),
                "is_state": True,
            }
        )

    # ONE edge exchange builds the state; the node count (one state row per
    # node) comes from counting it — not from a second full exchange of the
    # edge set just to count distinct sources
    state = hash_partitioned(edges, "src", degrees).materialize()
    n = state.count()
    if n == 0:
        return ray.data.from_arrow(_empty_ranks())
    base = int(np.floor(0.15 * 1e9 / n + 0.5))
    r0 = int(np.floor(1e9 / n + 0.5))

    def seed_rank(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("r"),
            "r",
            pa.array(np.full(t.num_rows, r0, dtype=np.int64)),
        )

    state = state.map_batches(seed_rank, batch_format="pyarrow").materialize()

    def edge_rows(t: pa.Table) -> pa.Table:
        m = t.num_rows
        return pa.table(
            {
                "key": t["src"].cast(pa.int64()),
                "dst": t["dst"].cast(pa.int64()),
                "r": pa.array(np.zeros(m, dtype=np.int64)),
                "deg": pa.array(np.zeros(m, dtype=np.int64)),
                "c": pa.array(np.zeros(m, dtype=np.int64)),
                "is_state": pa.array(np.zeros(m, dtype=bool)),
            }
        )

    tagged_edges = edges.map_batches(edge_rows, batch_format="pyarrow").materialize()

    for _ in range(iters):
        def contrib_partials(df: pd.DataFrame) -> pd.DataFrame:
            st = df[df["is_state"]]
            ed = df[~df["is_state"]]
            if len(ed) == 0 or len(st) == 0:
                return pd.DataFrame(
                    {
                        "key": pd.Series([], dtype="int64"),
                        "r": pd.Series([], dtype="int64"),
                        "deg": pd.Series([], dtype="int64"),
                        "c": pd.Series([], dtype="int64"),
                    }
                )
            skeys = st["key"].to_numpy(np.int64)
            order = np.argsort(skeys)
            skeys = skeys[order]
            r = st["r"].to_numpy(np.int64)[order]
            d = st["deg"].to_numpy(np.int64)[order]
            ekeys = ed["key"].to_numpy(np.int64)
            idx = np.searchsorted(skeys, ekeys)
            hit = (idx < len(skeys)) & (skeys[np.minimum(idx, len(skeys) - 1)] == ekeys)
            if not hit.all():  # src without a state row: impossible for
                # symmetrized input (state is built from the same srcs)
                raise ValueError(
                    "edge src missing its state row — co-partitioning broke "
                    "or the edge list changed between iterations"
                )
            contrib = _contrib_e9(r[idx], d[idx])
            g = pd.DataFrame(
                {"key": ed["dst"].to_numpy(np.int64), "c": contrib}
            ).groupby("key", sort=False)["c"].sum()
            return pd.DataFrame(
                {
                    "key": g.index.to_numpy(np.int64),
                    "r": np.int64(0),
                    "deg": np.int64(0),
                    "c": g.to_numpy(np.int64),
                }
            )

        # Two load-bearing shapes here, both measured at sf0.001:
        # - materialize each iteration's output (leaving it lazy inside the
        #   next union makes the planner re-execute the upstream chain);
        # - cap block counts with a repartition: map_groups preserves input
        #   block count and union sums them, so without the cap blocks
        #   double per iteration (16 → 1008 by iter 5) and exchange cost
        #   grows geometrically (250 s total vs ~20 s capped).
        partials = (
            hash_partitioned(state.union(tagged_edges), "key", contrib_partials)
            .repartition(_STATE_BLOCKS)
            .materialize()
        )

        def apply_rank(df: pd.DataFrame) -> pd.DataFrame:
            st = df[df["deg"] > 0]
            sums = df.groupby("key", sort=False)["c"].sum()
            keys = st["key"].to_numpy(np.int64)
            # a contrib keyed to a node with no state row would silently
            # vanish in the reindex below — only possible for a directed
            # (non-symmetrized) edge list; fail instead of dropping mass
            orphans = ~np.isin(sums.index.to_numpy(np.int64), keys)
            if orphans.any():
                raise ValueError(
                    "contribution for a dst with no state row — "
                    "pagerank requires a symmetrized edge list"
                )
            new_r = base + sums.reindex(keys, fill_value=0).to_numpy(np.int64)
            return pd.DataFrame(
                {
                    "key": keys,
                    "dst": np.int64(-1),
                    "r": new_r,
                    "deg": st["deg"].to_numpy(np.int64),
                    "c": np.int64(0),
                    "is_state": True,
                }
            )

        # project state down to the partials' (key, r, deg, c) schema —
        # a map, not an exchange
        proj = state.map_batches(
            lambda t: t.select(["key", "r", "deg", "c"]), batch_format="pyarrow"
        )
        state = (
            hash_partitioned(proj.union(partials), "key", apply_rank)
            .repartition(_STATE_BLOCKS)
            .materialize()
        )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["key"].cast(pa.int64()),
                "rank_e9": t["r"].cast(pa.int64()),
            }
        )

    return state.map_batches(finish, batch_format="pyarrow").sort("doc_id")


def _pagerank_oracle_sql(iters: int = PAGERANK_ITERS) -> str:
    # reuse the jaccard oracle verbatim as the edge source, then unroll
    # the fixed-point power iteration one CTE per round. The damping
    # constant is CAST to DOUBLE so DuckDB executes the identical float64
    # op chain as the engine (a bare literal would be DECIMAL — exact
    # arithmetic that only matches by margin, not by construction).
    body = DEDUP_NGRAM_JACCARD_SQL.strip().rstrip(";")
    it = f"""
edges AS (
  SELECT doc_a AS src, doc_b AS dst FROM pairs
  UNION ALL
  SELECT doc_b AS src, doc_a AS dst FROM pairs
),
deg AS (SELECT src AS u, count(*) AS deg FROM edges GROUP BY src),
nn AS (SELECT count(*) AS n FROM deg),
r0 AS (SELECT u, CAST(floor(1e9 / n + 0.5) AS BIGINT) AS r FROM deg, nn)
"""
    for k in range(iters):
        it += f""",
r{k + 1} AS (
  SELECT d.u,
         CAST(floor(0.15 * 1e9 / nn.n + 0.5) AS BIGINT)
           + coalesce(s.c, 0) AS r
  FROM deg d CROSS JOIN nn
  LEFT JOIN (
    SELECT e.dst AS u,
           CAST(sum(CAST(floor((r{k}.r * CAST({PAGERANK_DAMPING} AS DOUBLE))
                               / deg.deg + 0.5)
                         AS BIGINT)) AS BIGINT) AS c
    FROM edges e
    JOIN r{k} ON r{k}.u = e.src
    JOIN deg ON deg.u = e.src
    GROUP BY e.dst
  ) s ON s.u = d.u
)
"""
    return (
        f"WITH pairs AS ({body}),\n{it}\n"
        f"SELECT u AS doc_id, r AS rank_e9 FROM r{iters}"
    )


register("docs_pagerank", docs_pagerank, sql=_pagerank_oracle_sql())
