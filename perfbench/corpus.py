"""Seeded benchmark corpora built from the package's transcript generator.

Rows come from ``sources.transcripts.generate_rows(..., with_family=True)``.
A corpus is drawn from that seeded pool with a fixed quota per stratum,
where a stratum is (construction family, sniffed content kind). The seed
changes every payload; the mix, and therefore the number of turns that take
the plain fallback, stays fixed. That keeps figures from different seeds
comparable.

Shards follow ``write_transcript_shards``: shard i holds a contiguous,
increasing ``conv_id`` range and its rows are shuffled. The files are
written here, in the benchmark process and before ``ray.init``, so no Ray
task needs to import the package to produce them.
"""

from __future__ import annotations

import random
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import generate_rows, rows_to_table
from pdf_ocr_batch_ndrocr_lite_ray.stages.sniffer import classify_text_array

# Share of each (family, sniffed kind) stratum in the generator's default
# mix: 48/28/16/6/2 % plain/html/pdfish/xml/garbage. About 2 % of plain
# payloads open with "[" and sniff as pdfish. Of the nine garbage literals,
# two sniff empty, four pdfish, two plain and one xml.
MIXED_STRATA = {
    ("plain", "plain"): 0.470,
    ("plain", "pdfish"): 0.010,
    ("html", "html"): 0.280,
    ("pdfish", "pdfish"): 0.160,
    ("xml", "xml"): 0.060,
    ("garbage", "empty"): 0.0045,
    ("garbage", "pdfish"): 0.0089,
    ("garbage", "plain"): 0.0044,
    ("garbage", "xml"): 0.0022,
}

# plain-family turns only
PLAIN_STRATA = {
    ("plain", "plain"): 0.979,
    ("plain", "pdfish"): 0.021,
}

_POOL_CONVS = 200  # conversations per generator call while filling quotas
_MAX_POOL_CALLS = 200


def quotas(strata: dict, n_turns: int) -> dict:
    """Whole-row quota per stratum, summing to ``n_turns``."""
    q = {k: int(round(share * n_turns)) for k, share in strata.items()}
    largest = max(strata, key=strata.get)
    q[largest] += n_turns - sum(q.values())
    return q


def build_rows(strata: dict, n_turns: int, seed: int) -> list[dict]:
    """Draw ``n_turns`` generated rows meeting the stratum quotas.

    The pool grows one seeded ``generate_rows`` call at a time; each call
    covers fresh conversation ids, so keys never collide. Rows keep the
    generator's order, which it has already shuffled, so the first rows of
    a stratum are a random draw from it.
    """
    need = quotas(strata, n_turns)
    taken: list[dict] = []
    for call in range(_MAX_POOL_CALLS):
        if not any(need.values()):
            break
        rows = generate_rows(
            _POOL_CONVS,
            seed=seed * 1_000_003 + call,
            first_conv=call * _POOL_CONVS,
            with_family=True,
        )
        kinds = classify_text_array(pa.array([r["text"] for r in rows], pa.string()))
        for row, kind in zip(rows, kinds.to_pylist()):
            key = (row.pop("family"), kind)
            if need.get(key, 0) > 0:
                need[key] -= 1
                taken.append(row)
    else:
        raise RuntimeError(f"generator pool never filled the quotas: {need}")
    return taken


def write_shards(rows: list[dict], out_dir: Path, n_shards: int, seed: int) -> list[str]:
    """Write rows as ``n_shards`` parquet files of disjoint, increasing
    ``conv_id`` ranges, each shuffled with a seeded RNG."""
    out_dir.mkdir(parents=True, exist_ok=True)
    convs = sorted({r["conv_id"] for r in rows})
    per_shard = -(-len(convs) // n_shards)
    shard_of = {c: i // per_shard for i, c in enumerate(convs)}
    shards: list[list[dict]] = [[] for _ in range(n_shards)]
    for row in sorted(rows, key=lambda r: (r["conv_id"], r["turn_idx"])):
        shards[shard_of[row["conv_id"]]].append(row)
    rng = random.Random(seed)
    paths = []
    for i, shard in enumerate(shards):
        if not shard:
            continue
        rng.shuffle(shard)
        path = out_dir / f"shard-{i:05d}.parquet"
        pq.write_table(rows_to_table(shard), path, row_group_size=2048)
        paths.append(str(path))
    return paths
