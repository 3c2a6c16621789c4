"""Correctness gate: compare an engine output with the single-process oracle.

Both sides are sorted by ``(conv_id, turn_idx)`` and compared on the golden
columns, so the check does not depend on the output's row order. When they
differ, a digest per row counts the missing, duplicated and wrong rows. The
oracle is computed once per corpus, outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from pdf_ocr_batch_ndrocr_lite_ray.oracle import GOLDEN_COLUMNS
from pdf_ocr_batch_ndrocr_lite_ray.state.checkpoint import completed_partitions

#: actions that mean the turn was not extracted as its sniffed kind
DEGRADED_ACTIONS = ("error", "extracted_fallback")
SORT_KEYS = [("conv_id", "ascending"), ("turn_idx", "ascending")]


def row_digests(table: pa.Table) -> list[tuple[tuple[str, int], bytes]]:
    """``((conv_id, turn_idx), digest of the golden columns)`` per row."""
    cols = [table[c].to_pylist() for c in GOLDEN_COLUMNS]
    out = []
    for values in zip(*cols):
        blob = json.dumps(values, ensure_ascii=False, sort_keys=True).encode("utf-8")
        out.append(((values[0], values[1]), hashlib.blake2b(blob, digest_size=16).digest()))
    return out


@dataclass
class Expected:
    """What the oracle says a correct run must produce."""

    table: pa.Table  # golden columns, sorted by (conv_id, turn_idx)

    @classmethod
    def from_oracle(cls, oracle: pa.Table) -> "Expected":
        return cls(oracle.select(GOLDEN_COLUMNS).sort_by(SORT_KEYS).combine_chunks())

    @property
    def turns(self) -> int:
        return self.table.num_rows

    @cached_property
    def actions(self) -> Counter:
        return Counter(self.table["action"].to_pylist())

    @cached_property
    def digests(self) -> dict:
        return dict(row_digests(self.table))


@dataclass
class Verdict:
    missing: int
    duplicated: int
    mismatched: int
    errors: int
    degraded: int
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def failed_turns(self) -> int:
        """Turns that errored, or are missing, duplicated or wrong."""
        return self.errors + self.missing + self.duplicated + self.mismatched

    @property
    def degraded_turns(self) -> int:
        """``failed_turns`` plus rows that fell back to plain extraction."""
        return self.degraded + self.missing + self.duplicated + self.mismatched


def _same_rows(expected: Expected, table: pa.Table) -> bool:
    if table.num_rows != expected.turns:
        return False
    try:
        table = table.sort_by(SORT_KEYS).cast(expected.table.schema)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        return False
    return table.equals(expected.table)


def check_table(expected: Expected, table: pa.Table) -> Verdict:
    """Compare an output with the oracle, whatever its row order.

    Equal sorted tables pass at once; otherwise every row's digest is
    compared by key to count missing, duplicated and wrong rows.
    """
    table = table.select(GOLDEN_COLUMNS)
    missing = duplicated = mismatched = 0
    if not _same_rows(expected, table):
        rows = row_digests(table)
        seen = Counter(key for key, _ in rows)
        duplicated = sum(n - 1 for n in seen.values())
        missing = sum(1 for key in expected.digests if key not in seen)
        mismatched = sum(1 for key, d in rows if expected.digests.get(key) != d)
    actions = Counter(table["action"].to_pylist())
    v = Verdict(
        missing=missing,
        duplicated=duplicated,
        mismatched=mismatched,
        errors=actions["error"],
        degraded=sum(actions[a] for a in DEGRADED_ACTIONS),
    )
    if table.num_rows != expected.turns:
        v.problems.append(f"{table.num_rows} rows, input has {expected.turns}")
    for name in ("missing", "duplicated", "mismatched"):
        if getattr(v, name):
            v.problems.append(f"{getattr(v, name)} {name} rows")
    return v


def parquet_files(out_dir: Path) -> list[Path]:
    return sorted(p for p in Path(out_dir).rglob("*.parquet") if p.is_file())


def read_output(out_dir: Path) -> pa.Table:
    """Every parquet file under ``out_dir``, concatenated in file-name order."""
    tables = [pq.read_table(p, columns=GOLDEN_COLUMNS) for p in parquet_files(out_dir)]
    if not tables:
        return pa.table({c: pa.array([], pa.string()) for c in GOLDEN_COLUMNS})
    return pa.concat_tables(tables)


def check_sorted(table: pa.Table, verdict: Verdict) -> None:
    """Rows read back in file-name order must be sorted by (conv_id, turn_idx)."""
    keys = list(zip(table["conv_id"].to_pylist(), table["turn_idx"].to_pylist()))
    if any(a > b for a, b in zip(keys, keys[1:])):
        verdict.problems.append("output not in (conv_id, turn_idx) order")


def check_manifests(out_dir: Path, expected: Expected, verdict: Verdict) -> None:
    """The committed manifests' ``output_rows`` sum to the input rows."""
    committed = sum(m.get("output_rows", 0) for m in completed_partitions(out_dir).values())
    if committed != expected.turns:
        verdict.problems.append(f"manifests commit {committed} rows, input has {expected.turns}")
