"""Resumable extraction runs: per-partition lineage manifests.

The reference's resume story is *name-based skipping*: a re-run skips inputs
whose output already exists by the ``_ocr`` naming rule and inputs that
already carry a text layer (app.py:86-87, 1306-1323, 2519-2529). The
Ray-native analog here:

- **partition unit = input fragment (one parquet file)**; its id is a pure
  function of the input path (``md5(path)[:12]``), NOT of worker count or
  scheduling — so the partition layout is identical at any parallelism,
  which is what makes the N vs 4N scaling runs byte-comparable and resume
  deterministic.
- each wave runs one task per fragment (``from_items → map_batches``). The
  task reads its fragment a row group (or ``batch_size`` rows) at a time,
  extracts, writes one fixed-name file ``part_id=<hex>/part-0.parquet``
  and counts the ``action`` column of what that dir holds — counters come
  from the written output, never from driver-side accumulation. A retried
  or resumed task recomputes the same rows from the same lineage and
  overwrites its own file, so it leaves no orphan beside it.
- fragments are processed in bounded WAVES (``wave_size`` fragments per
  Ray Data job); once every task of a wave has finished, a manifest
  ``_ckpt/<part_id>.json`` is committed per fragment recording lineage
  (input path, row count), output row count, and per-action counters —
  the manifest is the commit marker, written strictly AFTER the data,
  and only when the output row count equals the input row count
  (extraction is 1:1); a partition that fails the check is torn down and
  the run raises.
  Wave-granular commit means a job killed after k waves resumes at wave
  k+1 instead of reprocessing the whole run; the wave size trades resume
  granularity against per-job pipeline startup cost.
- **resume**: fragments with a manifest are filtered out of the plan (the
  skip happens at the *file list*, so completed partitions cost zero I/O);
  partition dirs without a manifest are torn down and rewritten
  (idempotent overwrite-by-name, the reference's conflict=overwrite mode).
"""

from __future__ import annotations

import hashlib
import json
import time
import shutil
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence, Union

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray
import ray.data

from ..pipelines.extraction import package_remote_args
from ..stages.extract import extract_batch
from .output_paths import ON_CONFLICT_FAIL, ON_CONFLICT_OVERWRITE

DATA_SUBDIR = "data"
CKPT_SUBDIR = "_ckpt"
PART_FILE = "part-0.parquet"


def part_id_for_path(path: Union[str, Path]) -> str:
    """Deterministic partition id: pure function of the input path."""
    return hashlib.md5(str(path).encode("utf-8")).hexdigest()[:12]


def _manifest_path(out_dir: Path, part_id: str) -> Path:
    return out_dir / CKPT_SUBDIR / f"{part_id}.json"


def _partition_dir(out_dir: Path, part_id: str) -> Path:
    return out_dir / DATA_SUBDIR / f"part_id={part_id}"


def completed_partitions(out_dir: Union[str, Path]) -> dict[str, dict]:
    """part_id → manifest for every committed partition."""
    ckpt_dir = Path(out_dir) / CKPT_SUBDIR
    if not ckpt_dir.is_dir():
        return {}
    out = {}
    for mf in sorted(ckpt_dir.glob("*.json")):
        # partition manifests are 12-hex stems; skip the job-level manifest
        if len(mf.stem) != 12 or any(c not in "0123456789abcdef" for c in mf.stem):
            continue
        try:
            out[mf.stem] = json.loads(mf.read_text())
        except (OSError, json.JSONDecodeError):
            continue  # unreadable manifest = not committed
    return out


def committed_totals(out_dir: Union[str, Path]) -> dict:
    """Committed partitions, their output rows and summed per-action counts."""
    done = completed_partitions(out_dir)
    actions: Counter = Counter()
    for manifest in done.values():
        actions.update(manifest.get("actions", {}))
    return {
        "partitions_committed": len(done),
        "rows": sum(m.get("output_rows", 0) for m in done.values()),
        "actions": dict(actions),
    }


def _default_wave_size() -> int:
    """Fragments per streaming job — the durability-granularity knob.

    A wave boundary costs one Ray Data job start plus a drain barrier and
    the manifest commits. On the 64-shard bench corpus (sf0.01, 24,695
    turns, 2 Ray CPUs on a 4-vCPU VM) wave=16 / 32 / 64 ran in 5.4 / 5.5 /
    5.3 s, so a boundary costs well under a second. 4× the CPU count keeps
    every wave wide enough to saturate the machine, while a kill still
    loses at most one wave. Callers needing finer recovery granularity
    pass ``wave_size`` explicitly."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return max(8, 4 * cpus)


def run_resumable_extraction(
    input_paths: Sequence[Union[str, Path]],
    out_dir: Union[str, Path],
    *,
    batch_size: int | None = None,
    max_partitions: Optional[int] = None,
    on_conflict: str = "overwrite",
    wave_size: Optional[int] = None,
) -> dict:
    """Run (or resume) a checkpointed extraction job.

    ``max_partitions`` bounds how many incomplete fragments to process this
    call — used by tests to simulate a kill after k partitions.

    ``on_conflict`` is the writer policy (reference U4, app.py:2519-2529):
    ``"overwrite"`` tears down uncommitted partition dirs and rewrites them
    (idempotent resume); ``"fail"`` raises if any uncommitted partition dir
    already exists (the reference's conflict=abort mode). Any other value
    raises ``ValueError`` before anything is created or torn down.

    ``wave_size`` fragments are processed per streaming job and their
    manifests committed before the next wave starts — a mid-run kill
    recovers every completed wave, not nothing.

    Returns a job report: counters summed over ALL committed partitions
    (previous runs included), plus how many were skipped as already done.
    """
    if on_conflict not in (ON_CONFLICT_OVERWRITE, ON_CONFLICT_FAIL):
        raise ValueError(f"unknown on_conflict policy: {on_conflict!r}")
    out_dir = Path(out_dir)
    (out_dir / CKPT_SUBDIR).mkdir(parents=True, exist_ok=True)
    (out_dir / DATA_SUBDIR).mkdir(parents=True, exist_ok=True)

    # distinct inputs: a path listed twice would be two writers of one file
    inputs = sorted({str(p) for p in input_paths})
    done = completed_partitions(out_dir)
    plan = [(part_id_for_path(p), p) for p in inputs]
    remaining = [(pid, p) for pid, p in plan if pid not in done]
    skipped = len(plan) - len(remaining)
    if max_partitions is not None:
        remaining = remaining[:max_partitions]

    # tear down data dirs from a previous attempt that never committed
    for pid, path in remaining:
        pdir = _partition_dir(out_dir, pid)
        if pdir.exists():
            if on_conflict == ON_CONFLICT_FAIL:
                raise FileExistsError(
                    f"uncommitted partition exists: {pdir} (from input {path}); "
                    "rerun with on_conflict='overwrite' to rewrite it"
                )
            shutil.rmtree(pdir)

    if remaining:
        wave = wave_size or _default_wave_size()
        run_started = time.monotonic()
        run_rows = 0
        for start in range(0, len(remaining), wave):
            batch_frags = remaining[start : start + wave]
            # one task per fragment: read, extract, write and count it; the
            # package's location ships only when the workers cannot import
            # it (a driver outside the repo root), so they otherwise reuse
            # the workers Ray prestarts
            ds = ray.data.from_items(
                [{"part_id": pid, "path": path} for pid, path in batch_frags],
                override_num_blocks=len(batch_frags),
            ).map_batches(
                _extract_partitions,
                batch_format="pyarrow",
                batch_size=None,
                fn_kwargs={"out_dir": str(out_dir), "batch_size": batch_size},
                **package_remote_args(),
            )
            results = {r["part_id"]: r for r in ds.take_all()}

            # commit: manifests written only after every task of this wave
            # finished, BEFORE the next wave starts — the streaming
            # checkpoint. Extraction is 1:1: a partition holding more or
            # fewer rows than its input (e.g. an orphan file left by an
            # earlier writer) is torn down, never committed
            uneven = []
            for pid, path in batch_frags:
                input_rows = results[pid]["input_rows"]
                actions = json.loads(results[pid]["actions"])
                output_rows = sum(actions.values())
                if output_rows != input_rows:
                    uneven.append(f"{path}: {output_rows} rows out, {input_rows} in")
                    shutil.rmtree(_partition_dir(out_dir, pid), ignore_errors=True)
                    continue
                run_rows += output_rows
                manifest = {
                    "part_id": pid,
                    "input_path": path,
                    "input_rows": input_rows,
                    "output_rows": output_rows,
                    "actions": actions,
                }
                tmp = _manifest_path(out_dir, pid).with_suffix(".tmp")
                tmp.write_text(json.dumps(manifest, sort_keys=True))
                tmp.replace(_manifest_path(out_dir, pid))
            if uneven:
                raise RuntimeError(
                    "partitions torn down, output rows != input rows: "
                    + "; ".join(uneven)
                )
        run_seconds = time.monotonic() - run_started
    else:
        run_seconds, run_rows = 0.0, 0

    report = {
        "partitions_total": len(plan),
        **committed_totals(out_dir),
        "partitions_skipped_resume": skipped,
        "this_run": {
            "partitions": len(remaining),
            "rows": run_rows,
            "seconds": round(run_seconds, 3),
            "rows_per_sec": round(run_rows / run_seconds, 1) if run_seconds > 0 else 0.0,
        },
    }
    # job-level manifest (reference's CSV summary header, app.py:1115-1142):
    # throughput metrics ride with the checkpoint so `report` works offline
    tmp = (out_dir / CKPT_SUBDIR / "job.json").with_suffix(".tmp")
    tmp.write_text(json.dumps(report, sort_keys=True))
    tmp.replace(out_dir / CKPT_SUBDIR / "job.json")
    return report


def _extract_partitions(
    frags: pa.Table, out_dir: str, batch_size: Optional[int]
) -> pa.Table:
    """Extract each ``(part_id, path)`` fragment into its partition dir.

    The fragment is read one row group at a time, or ``batch_size`` rows at
    a time when given, so memory stays bounded by one batch. All batches go
    through one writer to the fixed ``PART_FILE``. Returns per fragment the
    input row count (from the footer) and, as JSON, the action counts of
    what the partition dir holds afterwards.
    """
    out = []
    for frag in frags.to_pylist():
        pdir = _partition_dir(Path(out_dir), frag["part_id"])
        with pq.ParquetFile(frag["path"]) as f:
            if batch_size:
                chunks = (pa.Table.from_batches([b]) for b in f.iter_batches(batch_size))
            else:
                chunks = (f.read_row_group(i) for i in range(f.num_row_groups))
            tables = (extract_batch(c) for c in chunks if c.num_rows)
            first = next(tables, None)
            if first is not None:  # an empty fragment writes no file
                pdir.mkdir(parents=True, exist_ok=True)
                with pq.ParquetWriter(pdir / PART_FILE, first.schema) as writer:
                    writer.write_table(first)
                    for table in tables:
                        writer.write_table(table)
            input_rows = f.metadata.num_rows
        actions = json.dumps(dict(_count_actions(pdir)))
        out.append({**frag, "input_rows": input_rows, "actions": actions})
    return pa.Table.from_pylist(out)


def _count_actions(partition_dir: Path) -> Counter:
    return count_values(partition_dir, "action") if partition_dir.exists() else Counter()


def count_values(path: Union[str, Path], column: str) -> Counter:
    """Rows per value of one column over the parquet files under ``path``."""
    counts: Counter = Counter()
    for batch in pads.dataset(str(path), format="parquet").to_batches(columns=[column]):
        vc = pc.value_counts(batch.column(0))
        for value, n in zip(vc.field("values"), vc.field("counts")):
            counts[value.as_py()] += n.as_py()
    return counts


def read_extracted(out_dir: Union[str, Path]) -> "ray.data.Dataset":
    """Read a completed run's output as a Dataset (unordered; sort to canon)."""
    return ray.data.read_parquet(
        str(Path(out_dir) / DATA_SUBDIR), ray_remote_args=package_remote_args()
    )
