"""Duplicate-cluster connected components and canonical-document selection.

The pair generators in :mod:`.dedup` (MinHash/SimHash/embedding-LSH) emit
near-duplicate PAIRS; a real training-data prep flow needs one more step —
group the pairs into duplicate CLUSTERS and keep one canonical document per
cluster. That grouping is connected components over the pair graph.

Distributed shape (hash-min label propagation, the MapReduce-CC classic):

- nodes = doc_ids appearing in >=1 pair; initial label(v) = min(v, its
  direct neighbors) — the groupby that derives the node set gives the
  first hop for free.
- each round co-partitions the static directed-edge set with the current
  labels on the node id (one exchange), propagates each node's label to
  its neighbors in-partition, and min-reduces per node (second exchange).
  Labels only ever DECREASE, and a round that changes nothing is the
  fixpoint, so the loop runs O(graph diameter) rounds — near-dup clusters
  are shallow (a handful of hops), far below the safety cap.
- per-round state is (node, label) int64 rows for pair-participating docs
  only — a small derived set, safe to ``materialize()`` between rounds
  (the corpus itself never materializes). The edge set is materialized
  ONCE so iterations never re-execute the MinHash generator.
- convergence is detected exactly, without comparing datasets: each
  node's previous label rides the propagation rows (``old``, sentinel -1
  on emitted copies, so ``max(old)`` per node recovers it) and a round
  with ``min(label) < old`` for zero nodes is the fixpoint. No label-sum
  overflow risk at any id range.

Canonical selection then left-merges the labels onto the corpus id set by
the same hash co-partition (no driver-side collect, no broadcast of a set
whose size scales with the dup rate): ``cluster_id = label`` when the doc
is in the pair graph else ``doc_id``; ``keep = (cluster_id == doc_id)`` —
exactly one kept doc per cluster (the min id) plus every singleton.

Oracle: connected components is SQL-expressible with a recursive CTE —
``reach(node, lab)`` saturates reachable-label facts (UNION dedup bounds it)
and ``min(lab)`` per node is the component representative; the pair set is
the full MinHash oracle embedded as a subquery, so the ENTIRE
generate->cluster->select flow is value-checked end-to-end.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Min

from .dedup import (
    CORPUS_SQL,
    EXACT_DUP_OFFSET,
    NEAR_DUP_OFFSET,
    _minhash_oracle_sql,
    minhash_duplicate_pairs,
)
from .exchange import hash_partitioned as _hash_partitioned
from .exchange import int64_array as _int64_array
from .exchange import rename as _rename
from .queryset import register, table_path

#: hard cap on propagation rounds. Hash-min needs O(diameter) rounds and a
#: duplicate cluster's diameter is tiny (docs chained through shared
#: near-dup partners); hitting the cap means the graph is pathological, and
#: returning partially-merged clusters would silently under-dedup — raise.
_MAX_CC_ROUNDS = 50

_NO_LABEL = -1  # sentinel: doc ids are non-negative by construction


def _directed_edges(pairs: "ray.data.Dataset") -> "ray.data.Dataset":
    """(node, nbr) in both directions from undirected (doc_a, doc_b) pairs."""

    def both(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].combine_chunks() if isinstance(batch["doc_a"], pa.ChunkedArray) else batch["doc_a"]
        b = batch["doc_b"].combine_chunks() if isinstance(batch["doc_b"], pa.ChunkedArray) else batch["doc_b"]
        return pa.table(
            {
                "node": pa.concat_arrays([a.cast(pa.int64()), b.cast(pa.int64())]),
                "nbr": pa.concat_arrays([b.cast(pa.int64()), a.cast(pa.int64())]),
            }
        )

    return pairs.select_columns(["doc_a", "doc_b"]).map_batches(
        both, batch_format="pyarrow"
    )


def _propagate(df: pd.DataFrame) -> pd.DataFrame:
    """One in-partition hop: every edge row learns its source node's label
    (all rows for a node land in one partition) and forwards it to the
    neighbor; label rows pass through carrying their previous label."""
    is_label = df["lbl"] >= 0
    labels = df.loc[is_label, ["node", "lbl"]]
    edges = df.loc[~is_label, ["node", "nbr"]]
    fwd = edges.merge(labels, on="node", how="left")
    out_node = np.concatenate([fwd["nbr"].to_numpy(), labels["node"].to_numpy()])
    out_label = np.concatenate([fwd["lbl"].to_numpy(), labels["lbl"].to_numpy()])
    # previous label rides only on the node's OWN row; emitted copies carry
    # the sentinel so max(old) per node recovers it after the shuffle
    out_old = np.concatenate(
        [np.full(len(fwd), _NO_LABEL, dtype=np.int64), labels["lbl"].to_numpy()]
    )
    return pd.DataFrame(
        {
            "node": out_node.astype(np.int64),
            "label": out_label.astype(np.int64),
            "old": out_old,
        }
    )


#: edge-count ceiling for the driver union-find fast path. The pair graph
#: is a DERIVED set (near-dup pairs, not the corpus); below this it fits
#: the driver trivially and label propagation would pay ~2.5 s/round of
#: fixed exchange overhead to shuffle a few MB (measured: 13 s of CC for a
#: 3.6k-pair graph). Above it, the O(diameter)-round distributed loop runs.
_DRIVER_CC_MAX_EDGES = 2_000_000


def _driver_union_find(edges_df: pd.DataFrame) -> pd.DataFrame:
    """Path-compressing union-find over (node, nbr) rows → (node, label)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != r:  # path compression
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(
        edges_df["node"].to_numpy(), edges_df["nbr"].to_numpy()
    ):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            # union by MIN id: the component label contract (min doc_id)
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    nodes = np.unique(
        np.concatenate([edges_df["node"].to_numpy(), edges_df["nbr"].to_numpy()])
    ).astype(np.int64)
    labels = np.fromiter((find(int(n)) for n in nodes), dtype=np.int64, count=len(nodes))
    return pd.DataFrame({"node": nodes, "label": labels})


def connected_components(
    pairs: "ray.data.Dataset", *, force_distributed: bool = False
) -> "ray.data.Dataset":
    """(node, label) with label = min doc_id in the node's component.

    ``pairs`` must have int64-castable ``doc_a``/``doc_b`` columns; any of
    the dedup pair generators qualifies. Graphs under
    ``_DRIVER_CC_MAX_EDGES`` directed edges resolve with a driver
    union-find (the graph is derived and tiny relative to the corpus);
    larger graphs run the distributed hash-min loop
    (``force_distributed=True`` pins that path for tests).
    """
    edges = _directed_edges(pairs).materialize()  # small derived set; reused every round
    if not force_distributed and edges.count() <= _DRIVER_CC_MAX_EDGES:
        df = edges.to_pandas()
        if df.empty:
            return ray.data.from_pandas(
                pd.DataFrame({"node": pd.Series(dtype="int64"), "label": pd.Series(dtype="int64")})
            )
        return ray.data.from_pandas(_driver_union_find(df))

    # initial labels: label0(v) = min(v, direct neighbors) — one hop free
    labels = (
        edges.groupby("node")
        .aggregate(Min("nbr"))
        .map_batches(
            lambda t: pa.table(
                {
                    "node": t["node"],
                    "label": pc.min_element_wise(
                        t["node"].combine_chunks().cast(pa.int64()),
                        t["min(nbr)"].combine_chunks().cast(pa.int64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def tag_edges(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t["node"],
                "nbr": t["nbr"],
                "lbl": pa.array([_NO_LABEL] * t.num_rows, type=pa.int64()),
            }
        )

    def tag_labels(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t["node"],
                "nbr": pa.array([_NO_LABEL] * t.num_rows, type=pa.int64()),
                "lbl": t["label"].combine_chunks().cast(pa.int64()),
            }
        )

    # Partition count scales with the edge volume: every round pays
    # 2 exchanges × parts tasks of FIXED (~10 ms) overhead, so a small
    # pair graph at 64 partitions is pure task-launch latency (measured
    # 17 s at sf0.001 vs 14 s at sf0.01 — inverted!). ~50k edge rows per
    # partition keeps the in-partition pandas work comfortably in-memory
    # at any scale while the cap restores full width for big graphs.
    parts = min(64, max(4, -(-edges.count() // 50_000)))

    def reduce_part(df: pd.DataFrame) -> pd.DataFrame:
        # min-reduce in-partition (all rows for a node are co-located) —
        # replaces a second sort-based Ray groupby().aggregate() exchange
        g = (
            df.groupby("node", sort=False)
            .agg(label=("label", "min"), old=("old", "max"))
            .reset_index()
        )
        g["changed"] = (g["label"] < g["old"]).astype(np.int64)
        return g

    for _ in range(_MAX_CC_ROUNDS):
        combined = edges.map_batches(tag_edges, batch_format="pyarrow").union(
            labels.map_batches(tag_labels, batch_format="pyarrow")
        )
        state = _hash_partitioned(
            _hash_partitioned(combined, "node", _propagate, num_partitions=parts),
            "node",
            reduce_part,
            num_partitions=parts,
        ).materialize()
        labels = state.select_columns(["node", "label"])
        # Dataset.sum returns None on an empty dataset (no pairs at all)
        if not state.sum("changed"):
            return labels
    raise RuntimeError(
        f"connected_components did not converge in {_MAX_CC_ROUNDS} rounds; "
        "the pair graph's diameter is pathological for a dedup workload"
    )


def _corpus_ids(sf_dir: str) -> "ray.data.Dataset":
    """doc_id set of the planted near-duplicate corpus, WITHOUT reading the
    text column — the id arithmetic mirrors ``dedup._corpus_batch``."""

    def ids(batch: pa.Table) -> pa.Table:
        base = _int64_array(batch["doc_id"])
        near = base[base % 5 == 0] + NEAR_DUP_OFFSET
        exact = base[base % 7 == 0] + EXACT_DUP_OFFSET
        return pa.table(
            {"doc_id": pa.array(np.concatenate([base, near, exact]), type=pa.int64())}
        )

    return ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id"]
    ).map_batches(ids, batch_format="pyarrow", zero_copy_batch=True)


def dedup_minhash_clusters(sf_dir: str) -> "ray.data.Dataset":
    """Near-duplicate clusters over the planted corpus: (doc_id, cluster_id)
    for every doc in the MinHash pair graph, cluster_id = min member id."""
    labels = connected_components(minhash_duplicate_pairs(sf_dir))
    return _rename(labels, {"node": "doc_id", "label": "cluster_id"})


def dedup_canonical_docs(sf_dir: str) -> "ray.data.Dataset":
    """Canonical-doc selection over the FULL corpus: (doc_id, cluster_id,
    keep) — keep the min id of each duplicate cluster plus all singletons."""
    labels = dedup_minhash_clusters(sf_dir)

    def tag_corpus(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t["doc_id"],
                "lbl": pa.array([_NO_LABEL] * t.num_rows, type=pa.int64()),
            }
        )

    def tag_labels(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t["doc_id"],
                "lbl": t["cluster_id"].combine_chunks().cast(pa.int64()),
            }
        )

    combined = _corpus_ids(sf_dir).map_batches(tag_corpus, batch_format="pyarrow").union(
        labels.map_batches(tag_labels, batch_format="pyarrow")
    )

    def select(df: pd.DataFrame) -> pd.DataFrame:
        # per node: one corpus row (lbl=-1) and at most one label row, so
        # max(lbl) is the label when present else the sentinel — a single
        # C-path groupby, no per-group Python
        lbl = df.groupby("node")["lbl"].max()
        node = lbl.index.to_numpy(dtype=np.int64)
        lab = lbl.to_numpy(dtype=np.int64)
        cluster = np.where(lab >= 0, lab, node)
        return pd.DataFrame(
            {
                "doc_id": node,
                "cluster_id": cluster,
                "keep": cluster == node,
            }
        )

    return _hash_partitioned(combined, "node", select)


# --- oracles ---------------------------------------------------------------

def _cc_reach_sql() -> str:
    """Recursive-CTE connected components over the MinHash oracle's pairs."""
    return f"""
pairs AS ({_minhash_oracle_sql()}),
edges AS (
  SELECT doc_a AS a, doc_b AS b FROM pairs
  UNION
  SELECT doc_b AS a, doc_a AS b FROM pairs
),
reach(node, lab) AS (
  SELECT a, a FROM edges
  UNION
  SELECT e.a, r.lab FROM edges e JOIN reach r ON r.node = e.b
),
cc AS (SELECT node, min(lab) AS cluster_id FROM reach GROUP BY node)
"""


def _clusters_oracle_sql() -> str:
    return (
        "WITH RECURSIVE "
        + _cc_reach_sql()
        + "\nSELECT node AS doc_id, cluster_id FROM cc"
    )


def _canonical_oracle_sql() -> str:
    return (
        "WITH RECURSIVE "
        + _cc_reach_sql()
        + f""",
{CORPUS_SQL.strip().lstrip()}
SELECT c.doc_id,
       coalesce(cc.cluster_id, c.doc_id) AS cluster_id,
       coalesce(cc.cluster_id, c.doc_id) = c.doc_id AS keep
FROM corpus c LEFT JOIN cc ON cc.node = c.doc_id
"""
    )


register("dedup_minhash_clusters", dedup_minhash_clusters, sql=_clusters_oracle_sql())
register("dedup_canonical_docs", dedup_canonical_docs, sql=_canonical_oracle_sql())


def dedup_cluster_sizes(sf_dir: str) -> "ray.data.Dataset":
    """(cluster_size, n_clusters): the dedup AUDIT histogram over the full
    corpus (singletons included) — the one-line answer to "how much of the
    corpus is duplicated, and in how big a blob?" that a 100 TB dedup run
    reports before anyone trusts its `keep` column.

    Shape: cluster_id is an UNBOUNDED key, so per-cluster sizes are counted
    in-partition after one hash exchange on cluster_id (never a driver
    fold); the (size → count) reduction that follows IS bounded (sizes are
    ≤ the largest dup blob, and the histogram is what the driver holds), so
    it finishes as per-block partials + enum fold."""
    from .exchange import enum_group_sum
    from .exchange import hash_partitioned as _hp

    labels = dedup_canonical_docs(sf_dir)

    def sizes(df: pd.DataFrame) -> pd.DataFrame:
        per_cluster = df.groupby("cluster_id").size()
        hist = per_cluster.groupby(per_cluster).size()
        return pd.DataFrame(
            {
                "cluster_size": hist.index.to_numpy(dtype=np.int64),
                "n_clusters": hist.to_numpy(dtype=np.int64),
            }
        )

    partials = _hp(labels, "cluster_id", sizes)
    return ray.data.from_pandas(
        enum_group_sum(partials, ["cluster_size"], ["n_clusters"])
    )


def _cluster_sizes_oracle_sql() -> str:
    return (
        "WITH RECURSIVE "
        + _cc_reach_sql()
        + f""",
{CORPUS_SQL.strip().lstrip()},
labeled AS (
  SELECT c.doc_id, coalesce(cc.cluster_id, c.doc_id) AS cluster_id
  FROM corpus c LEFT JOIN cc ON cc.node = c.doc_id
),
per_cluster AS (
  SELECT cluster_id, count(*) AS cluster_size FROM labeled GROUP BY cluster_id
)
SELECT cluster_size, count(*) AS n_clusters FROM per_cluster GROUP BY cluster_size
"""
    )


register("dedup_cluster_sizes", dedup_cluster_sizes, sql=_cluster_sizes_oracle_sql())


# --- duplicate-graph degree distribution (X149) ---------------------------------


def dedup_degree_distribution(sf_dir: str) -> "pd.DataFrame":
    """(degree, n_docs): the degree distribution of the MinHash
    near-duplicate graph — how many documents have exactly k near-dup
    partners. A heavy tail (one hub touching thousands) is the
    template-spam / boilerplate signature that cluster SIZES alone hide
    (one giant cluster of chained pairs and one hub-and-spokes cluster
    have the same size but opposite degree shapes).

    Scale shape: the pair stream (already bucket-capped by the LSH
    pipeline) fans out to its two endpoints in-block, ONE doc-key
    exchange counts each document's degree in-partition, and a bounded
    (degree, n) enum fold reaches the driver — degree cardinality is
    capped by the LSH bucket cap, never corpus-sized. Docs with no
    near-dup pair (degree 0) are absent on both engines.

    Exactness: pure integer counts over the value-oracled pair set
    (the X3 MinHash contract); the SQL twin nests the full MinHash
    oracle as a subquery, so any drift in the pair set itself is caught
    here too.
    """
    pairs = minhash_duplicate_pairs(sf_dir)

    def endpoints(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc": pa.concat_arrays(
                    [
                        batch["doc_a"].combine_chunks().cast(pa.int64())
                        if isinstance(batch["doc_a"], pa.ChunkedArray)
                        else batch["doc_a"].cast(pa.int64()),
                        batch["doc_b"].combine_chunks().cast(pa.int64())
                        if isinstance(batch["doc_b"], pa.ChunkedArray)
                        else batch["doc_b"].cast(pa.int64()),
                    ]
                )
            }
        )

    def degree_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) == 0:
            return pd.DataFrame(
                {"degree": pd.Series(dtype="int64"), "n": pd.Series(dtype="int64")}
            )
        deg = df.groupby("doc", sort=False).size()
        vc = deg.value_counts()
        return pd.DataFrame(
            {
                "degree": vc.index.to_numpy(dtype=np.int64),
                "n": vc.to_numpy(dtype=np.int64),
            }
        )

    from .exchange import enum_group_sum

    fold = enum_group_sum(
        _hash_partitioned(
            pairs.map_batches(endpoints, batch_format="pyarrow"),
            "doc",
            degree_partition,
        ),
        ["degree"],
        ["n"],
    )
    if len(fold) == 0:
        return pd.DataFrame(
            {"degree": pd.Series(dtype="int64"), "n_docs": pd.Series(dtype="int64")}
        )
    fold = fold.sort_values("degree").reset_index(drop=True)
    return pd.DataFrame(
        {
            "degree": fold["degree"].astype("int64"),
            "n_docs": fold["n"].astype("int64"),
        }
    )


def _degree_distribution_oracle_sql() -> str:
    return f"""
WITH pairs AS ({_minhash_oracle_sql()}),
ends AS (
  SELECT doc_a AS doc FROM pairs UNION ALL SELECT doc_b AS doc FROM pairs
),
deg AS (SELECT doc, CAST(count(*) AS BIGINT) AS degree FROM ends GROUP BY doc)
SELECT degree, CAST(count(*) AS BIGINT) AS n_docs FROM deg GROUP BY degree
"""


register(
    "dedup_degree_distribution",
    dedup_degree_distribution,
    sql=_degree_distribution_oracle_sql(),
)


# --- distributed connected components: hash-to-min (X159) ------------------------

#: iteration ceiling = the max graph diameter the loop will chase; real
#: near-dup clusters are dense (diameter a handful), so hitting this means
#: something pathological — raise, never silently return partial labels
_CC_MAX_ITERS = 64


def connected_components_distributed(
    pairs: "ray.data.Dataset", max_iters: int = _CC_MAX_ITERS
) -> "ray.data.Dataset":
    """(node, label) connected components via distributed HASH-TO-MIN —
    the past-the-driver-cap path for ``connected_components`` (whose
    union-find holds the whole pair graph on the driver, documented as
    bounded by the LSH bucket caps). Here NOTHING is driver-sized: per
    iteration, labels co-partition with the bidirectional edge list
    (exchange 1), each partition emits (neighbor, my_label) messages,
    and a node-keyed min-fold (exchange 2) absorbs them; iteration stops
    when a distributed changed-counter reads zero. Converges in
    diameter-many iterations to the min member id per component — the
    same labels the union-find path produces (pinned equal by test).
    """

    def both_dirs(t: pa.Table) -> pa.Table:
        a = t["doc_a"].combine_chunks().cast(pa.int64())
        b = t["doc_b"].combine_chunks().cast(pa.int64())
        return pa.table(
            {
                "key": pa.concat_arrays([a, b]),
                "dst": pa.concat_arrays([b, a]),
                "lbl": pa.array(np.full(2 * t.num_rows, -1, dtype=np.int64)),
                "is_lab": pa.array([False] * (2 * t.num_rows), pa.bool_()),
            }
        )

    edges = pairs.map_batches(both_dirs, batch_format="pyarrow").materialize()

    def init_labels(df: pd.DataFrame) -> pd.DataFrame:
        nodes = pd.unique(df["key"])
        return pd.DataFrame(
            {"node": nodes.astype("int64"), "label": nodes.astype("int64")}
        )

    labels = _hash_partitioned(edges, "key", init_labels).materialize()

    for _ in range(max_iters):
        def lab_rows(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table(
                {
                    "key": t["node"].combine_chunks().cast(pa.int64()),
                    "dst": pa.array(np.zeros(n, dtype=np.int64)),
                    "lbl": t["label"].combine_chunks().cast(pa.int64()),
                    "is_lab": pa.array([True] * n, pa.bool_()),
                }
            )

        def send_messages(df: pd.DataFrame) -> pd.DataFrame:
            lab = df[df["is_lab"]]
            edg = df[~df["is_lab"]]
            if len(lab) == 0 or len(edg) == 0:
                return pd.DataFrame(
                    {
                        "node": pd.Series(dtype="int64"),
                        "lbl": pd.Series(dtype="int64"),
                        "is_old": pd.Series(dtype="bool"),
                    }
                )
            lmap = dict(zip(lab["key"], lab["lbl"]))
            out = pd.DataFrame(
                {
                    "node": edg["dst"].to_numpy(dtype=np.int64),
                    "lbl": edg["key"].map(lmap).to_numpy(dtype=np.int64),
                    "is_old": False,
                }
            )
            # collapse duplicate messages per (node) to their min in-block
            out = out.groupby("node", sort=False)["lbl"].min().reset_index()
            out["is_old"] = False
            return out

        msgs = _hash_partitioned(
            edges.union(labels.map_batches(lab_rows, batch_format="pyarrow")),
            "key",
            send_messages,
        )

        def old_rows(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": t["node"].combine_chunks().cast(pa.int64()),
                    "lbl": t["label"].combine_chunks().cast(pa.int64()),
                    "is_old": pa.array([True] * t.num_rows, pa.bool_()),
                }
            )

        def absorb(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:
                return pd.DataFrame(
                    {
                        "node": pd.Series(dtype="int64"),
                        "label": pd.Series(dtype="int64"),
                        "changed": pd.Series(dtype="int64"),
                    }
                )
            g = df.groupby("node", sort=False)
            new = g["lbl"].min()
            old = df[df["is_old"]].set_index("node")["lbl"]
            out = pd.DataFrame(
                {
                    "node": new.index.to_numpy(dtype=np.int64),
                    "label": new.to_numpy(dtype=np.int64),
                }
            )
            out["changed"] = (
                out["label"].to_numpy()
                < old.reindex(out["node"]).to_numpy(dtype=np.int64)
            ).astype("int64")
            return out

        labels = _hash_partitioned(
            msgs.union(labels.map_batches(old_rows, batch_format="pyarrow")),
            "node",
            absorb,
        ).materialize()
        changed = labels.sum("changed")
        labels = labels.drop_columns(["changed"]).materialize()
        if not changed:
            return labels
    raise RuntimeError(
        f"connected_components_distributed: no convergence in {max_iters} "
        "iterations — graph diameter exceeds the ceiling"
    )


def dedup_clusters_distributed(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, cluster_id): the X6 near-dup clusters computed by the
    DISTRIBUTED hash-to-min path — value-identical to
    ``dedup_minhash_clusters`` (same recursive-CTE oracle), with no
    driver-sized state anywhere."""
    labels = connected_components_distributed(minhash_duplicate_pairs(sf_dir))
    return _rename(labels, {"node": "doc_id", "label": "cluster_id"})


register(
    "dedup_clusters_distributed",
    dedup_clusters_distributed,
    sql=_clusters_oracle_sql(),
)


# --- LSH calibration audit: estimate vs exact (X163) ------------------------------


def minhash_calibration(sf_dir: str) -> "pd.DataFrame":
    """(bucket, n, mean_est_e6, mean_exact_e6, mean_err_e6): the
    self-audit of the approximate pipeline — on pairs BOTH the MinHash
    path and the exact n-gram-Jaccard path report, how biased is the
    64-permutation estimate per estimate decile? The calibration curve
    that tells a curator whether an LSH threshold of 0.8 really means
    0.8 (a mean_err far from 0 in a bucket = re-tune the band scheme).

    Exactness: both inputs are value-oracled pair tables; per pair the
    e6-quantized estimate and exact value subtract as ints, so bucket
    sums are order-free; means are one shared IEEE division each. The
    join is ONE doc_a co-partition exchange (pairs with equal doc_a
    co-locate; the (a, b) match finishes in-partition); everything
    after is ≤ 10 bucket rows. The SQL twin joins the two nested
    oracles with the identical chain.
    """
    from .dedup import dedup_ngram_jaccard

    est = minhash_duplicate_pairs(sf_dir)
    exact = dedup_ngram_jaccard(sf_dir)

    def est_rows(t: pa.Table) -> pa.Table:
        v = t["est_jaccard"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_a": t["doc_a"].combine_chunks().cast(pa.int64()),
                "doc_b": t["doc_b"].combine_chunks().cast(pa.int64()),
                "v_e6": pa.array(np.floor(v * 1e6 + 0.5).astype(np.int64)),
                "is_est": pa.array([True] * t.num_rows, pa.bool_()),
            }
        )

    def exact_rows(t: pa.Table) -> pa.Table:
        v = t["jaccard"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_a": t["doc_a"].combine_chunks().cast(pa.int64()),
                "doc_b": t["doc_b"].combine_chunks().cast(pa.int64()),
                "v_e6": pa.array(np.floor(v * 1e6 + 0.5).astype(np.int64)),
                "is_est": pa.array([False] * t.num_rows, pa.bool_()),
            }
        )

    both = est.map_batches(est_rows, batch_format="pyarrow").union(
        exact.map_batches(exact_rows, batch_format="pyarrow")
    )

    def join_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        empty = pd.DataFrame(
            {
                "bucket": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "s_est": pd.Series(dtype="int64"),
                "s_exact": pd.Series(dtype="int64"),
            }
        )
        e = df[df["is_est"]]
        x = df[~df["is_est"]]
        if len(e) == 0 or len(x) == 0:
            return empty
        m = e.merge(x, on=["doc_a", "doc_b"], suffixes=("_e", "_x"))
        if len(m) == 0:
            return empty
        est6 = m["v_e6_e"].to_numpy(dtype=np.int64)
        ex6 = m["v_e6_x"].to_numpy(dtype=np.int64)
        bucket = np.clip(est6 // 100_000, 0, 9)
        g = (
            pd.DataFrame({"bucket": bucket, "n": 1, "s_est": est6, "s_exact": ex6})
            .groupby("bucket", sort=False)
            .sum()
            .reset_index()
        )
        return g.astype("int64")

    from .exchange import enum_group_sum

    fold = enum_group_sum(
        _hash_partitioned(both, "doc_a", join_partition),
        ["bucket"],
        ["n", "s_est", "s_exact"],
    )
    cols = {
        "bucket": "int64", "n": "int64", "mean_est_e6": "int64",
        "mean_exact_e6": "int64", "mean_err_e6": "int64",
    }
    if len(fold) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    fold = fold.sort_values("bucket").reset_index(drop=True)
    n = fold["n"].to_numpy(dtype=np.float64)
    me = np.floor(fold["s_est"].to_numpy(dtype=np.float64) / n + 0.5).astype(np.int64)
    mx = np.floor(fold["s_exact"].to_numpy(dtype=np.float64) / n + 0.5).astype(np.int64)
    merr = np.floor(
        (fold["s_est"] - fold["s_exact"]).to_numpy(dtype=np.float64) / n + 0.5
    ).astype(np.int64)
    return pd.DataFrame(
        {
            "bucket": fold["bucket"].astype("int64"),
            "n": fold["n"].astype("int64"),
            "mean_est_e6": me,
            "mean_exact_e6": mx,
            "mean_err_e6": merr,
        }
    )


def _calibration_oracle_sql() -> str:
    from .dedup import DEDUP_NGRAM_JACCARD_SQL

    return f"""
WITH est AS ({_minhash_oracle_sql()}),
ex AS ({DEDUP_NGRAM_JACCARD_SQL}),
j AS (
  SELECT CAST(floor(e.est_jaccard * 1e6 + 0.5) AS BIGINT) AS est6,
         CAST(floor(x.jaccard * 1e6 + 0.5) AS BIGINT) AS ex6
  FROM est e JOIN ex x ON e.doc_a = x.doc_a AND e.doc_b = x.doc_b
),
g AS (
  SELECT least(greatest(est6 // 100000, 0), 9) AS bucket,
         CAST(count(*) AS BIGINT) AS n,
         CAST(sum(est6) AS HUGEINT) AS s_est,
         CAST(sum(ex6) AS HUGEINT) AS s_exact
  FROM j GROUP BY 1
)
SELECT bucket, n,
       CAST(floor(CAST(s_est AS DOUBLE) / CAST(n AS DOUBLE) + 0.5) AS BIGINT)
         AS mean_est_e6,
       CAST(floor(CAST(s_exact AS DOUBLE) / CAST(n AS DOUBLE) + 0.5) AS BIGINT)
         AS mean_exact_e6,
       CAST(floor(CAST(s_est - s_exact AS DOUBLE) / CAST(n AS DOUBLE) + 0.5)
            AS BIGINT) AS mean_err_e6
FROM g
"""


register("minhash_calibration", minhash_calibration, sql=_calibration_oracle_sql())
