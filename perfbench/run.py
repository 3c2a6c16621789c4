"""Benchmark of the Ray Data transcript extraction engine.

    python3 perfbench/run.py --workload resume_checkpoint --seed 1 --seconds 26 --trace 0

Run it from the root of a checkout; it imports the package from there and
keeps its scratch files in ``.perfbench_work/`` and Ray's in ``.pbray/``,
and removes both on exit.

Each workload builds a seeded corpus of 16 parquet shards (``corpus.py``),
computes the single-process oracle over it, then runs the engine as a
closed loop: one job at a time from this process, on a local Ray instance
with two CPUs (``RAY_CPUS``), fixed so that figures do not depend on how many
cores a shared host exposes. Ray keeps its idle workers alive for the whole
run (``IDLE_WORKER_KEEP_MS``), so jobs do not pay for worker restarts at
random. Ray is set up three times, each time with a warm-up job over two
shards. The last instance runs one untimed job over the whole corpus, then
timed jobs for ``--seconds`` (at least three). Every timed job's output is
checked against the oracle (``gate.py``).

Workloads:

    plain_ordered      plain-family turns only, extract_transcripts(order=True)
                       then write_parquet
    resume_checkpoint  the default payload mix through run_resumable_extraction:
                       a run cut after 6 of 16 partitions, a resume, and a
                       resume with nothing left to do

``--trace 0`` prints the end-to-end metrics:

    turns_per_cpu_s    turns committed / CPU seconds that this process and
                       every Ray process below it spent on the job, from
                       building the pipeline to durable output (mean of the
                       middle half of jobs). CPU time, unlike wall time,
                       does not grow when other tenants of a shared host
                       take the cores; the wall-clock rate is on the host
                       line and, traced, in trace.pipeline_turns_per_s
    setup_s            ray.init plus the warm-up job (median of three)
    peak_rss_mb        summed VmHWM of this process and its live Ray workers,
                       read after each job (median over jobs)
    failed_turns_frac  turns that errored or fell back to plain extraction,
                       plus missing, duplicated and wrong rows, / input turns

``--trace 1`` prints the per-layer metrics instead (``layers.py``): an
in-process replay through each layer's public functions, Ray Data's own
operator totals, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the host: CPUs, versions, load average, and the oracle's
single-thread cost per turn, which scales every other figure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# Ray puts unix sockets under its temp dir, and their paths must stay under
# 108 bytes; Ray appends up to 64 to the dir, so the name is kept short.
RAY_TEMP = ROOT / ".pbray"
MAX_RAY_TEMP_LEN = 43
sys.path.insert(0, str(ROOT))
os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")

import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402
import ray  # noqa: E402

import corpus  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
from pdf_ocr_batch_ndrocr_lite_ray.functions.textnorm import _normalize_text_cached  # noqa: E402
from pdf_ocr_batch_ndrocr_lite_ray.oracle import oracle_extract_table  # noqa: E402
from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import extract_transcripts  # noqa: E402
from pdf_ocr_batch_ndrocr_lite_ray.state.checkpoint import (  # noqa: E402
    _default_wave_size,
    completed_partitions,
    run_resumable_extraction,
)

RAY_CPUS = 2
N_SHARDS = 16
KILL_AFTER_PARTITIONS = 6
SETUP_REPEATS = 3
WARMUP_SHARDS = 2
MIN_JOBS = 3
OBJECT_STORE_BYTES = 512 * 1024 * 1024
IDLE_WORKER_KEEP_MS = 600_000


@dataclass(frozen=True)
class Workload:
    strata: dict  # corpus mix, see corpus.py
    turns: int
    order: bool = False
    resume: bool = False


WORKLOADS = {
    "plain_ordered": Workload(corpus.PLAIN_STRATA, 16_000, order=True),
    "resume_checkpoint": Workload(corpus.MIXED_STRATA, 8_000, resume=True),
}

now = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Ray session
# ---------------------------------------------------------------------------


def ray_init() -> None:
    kwargs = dict(
        address="local",
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _system_config={"idle_worker_killing_time_threshold_ms": IDLE_WORKER_KEEP_MS},
    )
    if len(str(RAY_TEMP)) <= MAX_RAY_TEMP_LEN:
        kwargs["_temp_dir"] = str(RAY_TEMP)
    else:
        print(f"perfbench: {RAY_TEMP} is too long for Ray's sockets; Ray uses its default temp dir", file=sys.stderr)
    ray.init(**kwargs)
    ray.data.DataContext.get_current().enable_progress_bars = False


def _running(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def _wait_gone(pids: list[int], seconds: float) -> list[int]:
    deadline = now() + seconds
    while True:
        pids = [p for p in pids if _running(p)]
        if not pids or now() > deadline:
            return pids
        time.sleep(0.05)


def ray_shutdown() -> None:
    """Stop the Ray instance and wait until every process it started ended.

    A process that outlives ``ray.shutdown`` is sent SIGTERM, then SIGKILL.
    """
    procs = layers.descendants(os.getpid())
    ray.shutdown()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        procs = _wait_gone(procs, 5.0)
        for pid in procs:
            print(f"perfbench: sending {sig.name} to leftover process {pid}", file=sys.stderr)
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
    if _wait_gone(procs, 5.0):
        raise RuntimeError(f"processes survived SIGKILL: {procs}")


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    seconds: float
    cpu_seconds: float = 0.0
    dataset: object = None
    reports: tuple = ()
    call_seconds: tuple = ()


def run_job(w: Workload, paths: list[str], out_dir: Path) -> Job:
    shutil.rmtree(out_dir, ignore_errors=True)
    cpu0 = layers.cpu_ticks()
    if w.resume:
        reports, calls = [], []
        for limit in (KILL_AFTER_PARTITIONS, None, None):
            t0 = now()
            reports.append(run_resumable_extraction(paths, out_dir, max_partitions=limit))
            calls.append(now() - t0)
        job = Job(sum(calls), reports=tuple(reports), call_seconds=tuple(calls))
    else:
        t0 = now()
        ds = extract_transcripts(paths, order=w.order)
        ds.write_parquet(str(out_dir))
        job = Job(now() - t0, dataset=ds)
    job.cpu_seconds = layers.cpu_seconds_since(cpu0)
    return job


def check_job(w: Workload, expected, out_dir: Path):
    data_dir = out_dir / "data" if w.resume else out_dir
    table = gate.read_output(data_dir)
    verdict = gate.check_table(expected, table)
    if w.order:
        gate.check_sorted(table, verdict)
    if w.resume:
        gate.check_manifests(out_dir, expected, verdict)
    return verdict


# ---------------------------------------------------------------------------
# per-layer figures that need the Ray run
# ---------------------------------------------------------------------------


def checkpoint_metrics(job: Job, out_dir: Path) -> dict:
    wave = _default_wave_size()
    runs = [r["this_run"] for r in job.reports]
    waves = sum(math.ceil(r["partitions"] / wave) for r in runs)
    return {
        "checkpoint.waves": waves,
        "checkpoint.wave_s": sum(r["seconds"] for r in runs) / waves if waves else 0.0,
        "checkpoint.manifests": len(completed_partitions(out_dir)),
        "checkpoint.partitions_skipped": sum(
            r["partitions_skipped_resume"] for r in job.reports
        ),
        "checkpoint.resume_scan_ms": job.call_seconds[-1] * 1e3,
    }


def write_metrics(out_dir: Path) -> dict:
    files = gate.parquet_files(out_dir)
    return {"write.files": len(files), "write.bytes": sum(f.stat().st_size for f in files)}


def layer_metrics(replayed: dict, expected, cache_delta, tps: float, job: Job, out_dir: Path, w):
    m = dict(replayed)
    for action in ("extracted", "extracted_fallback", "skipped_clean", "empty", "error"):
        m[f"extract.actions.{action}"] = expected.actions[action]
    kinds = expected.table["content_kind"].to_pylist()
    structured = sum(1 for k in kinds if k in ("html", "pdfish", "xml"))
    m["extract.fallback_ratio"] = (
        expected.actions["extracted_fallback"] / structured if structured else 0.0
    )
    hits, misses = cache_delta
    m["textnorm.calls"] = hits + misses
    m["textnorm.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["trace.pipeline_turns_per_s"] = tps
    m["kernel_ceiling_frac"] = tps / (RAY_CPUS * 1e6 / m["extract.kernel_us_mean"])

    ops = layers.ray_operator_totals(job.dataset.stats()) if job.dataset is not None else {}
    for cat in ("read", "extract", "sort", "write"):
        m[f"ray.{cat}_s"] = ops.get(f"ray.{cat}_s", 0.0)
        m[f"ray.{cat}_tasks"] = ops.get(f"ray.{cat}_tasks", 0)
    m["ray.overhead_frac"] = 1.0 - ops["ray.remote_s"] / job.seconds if ops else 0.0

    m.update(write_metrics(out_dir / "data" if w.resume else out_dir))
    if w.resume:
        m.update(checkpoint_metrics(job, out_dir))
    else:
        m.update(
            {
                "checkpoint.waves": 0,
                "checkpoint.wave_s": 0.0,
                "checkpoint.manifests": 0,
                "checkpoint.partitions_skipped": 0,
                "checkpoint.resume_scan_ms": 0.0,
            }
        )
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    load_before = os.getloadavg()[0]
    paths = corpus.write_shards(
        corpus.build_rows(w.strata, w.turns, args.seed), WORK / "input", N_SHARDS, args.seed
    )

    # the oracle: once per corpus, outside every timed region
    table = pa.concat_tables([pq.read_table(p) for p in paths])
    c0 = _normalize_text_cached.cache_info()
    t0 = now()
    oracle = oracle_extract_table(table)
    oracle_s = now() - t0
    c1 = _normalize_text_cached.cache_info()
    expected = gate.Expected.from_oracle(oracle)
    del table

    replayed = layers.replay(paths) if args.trace else None

    out_dir = WORK / "output"
    setups, jobs, verdicts, rss = [], [], [], []
    try:
        # Set up Ray several times and keep the last instance for the jobs.
        for i in range(1 if args.trace else SETUP_REPEATS):
            if i:
                ray_shutdown()
            t0 = now()
            ray_init()
            run_job(w, paths[:WARMUP_SHARDS], WORK / "warmup")
            setups.append(now() - t0)

        # One untimed job over the whole corpus starts every worker the timed
        # jobs use and fills their caches, so all timed jobs run warm.
        run_job(w, paths, out_dir)
        started = now()
        while len(jobs) < MIN_JOBS or now() - started < args.seconds:
            jobs.append(run_job(w, paths, out_dir))
            rss.append(layers.peak_rss_mb())
            verdicts.append(check_job(w, expected, out_dir))
            print(
                f"perfbench: job {len(jobs)}: {jobs[-1].seconds:.3f} s, "
                f"{jobs[-1].cpu_seconds:.3f} cpu s, {rss[-1]:.0f} MB",
                file=sys.stderr,
            )
        committed = [expected.turns - v.missing for v in verdicts]
        tps = statistics.median(n / j.seconds for n, j in zip(committed, jobs))
        # CPU time comes in clock ticks, so the mean of the middle half,
        # rather than one median job, keeps the figure off the tick grid.
        tps_cpu = mid_mean([n / j.cpu_seconds for n, j in zip(committed, jobs)])
        if args.trace:
            cache_delta = (c1.hits - c0.hits, c1.misses - c0.misses)
            metrics = layer_metrics(replayed, expected, cache_delta, tps, jobs[-1], out_dir, w)
    finally:
        ray_shutdown()

    if not args.trace:
        metrics = {
            "turns_per_cpu_s": tps_cpu,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "failed_turns_frac": statistics.median(
                v.degraded_turns / expected.turns for v in verdicts
            ),
        }

    for v in verdicts:
        for problem in v.problems:
            print(f"perfbench: gate: {problem}", file=sys.stderr)
    host = {
        "ray_cpus": RAY_CPUS,
        "host_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pa.__version__,
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "oracle_us_per_turn": oracle_s * 1e6 / expected.turns,
        "workload": args.workload,
        "seed": args.seed,
        "turns": expected.turns,
        "shards": len(paths),
        "jobs": len(jobs),
        "wall_turns_per_s": tps,
    }
    print("perfbench host " + json.dumps(host, sort_keys=True))
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {
        "correct": all(v.ok for v in verdicts),
        "attempted": expected.turns * len(jobs),
        "failed": sum(v.failed_turns for v in verdicts),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def mid_mean(values: list) -> float:
    """Mean of the middle half of ``values``: as robust as the median to a
    few outliers, but it averages over more of them."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut : len(values) - cut])


def declared_units(section: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    args = parse_args(argv)
    for d in (WORK, RAY_TEMP):
        shutil.rmtree(d, ignore_errors=True)
    WORK.mkdir()
    try:
        result = run(args)
    finally:
        for d in (WORK, RAY_TEMP):
            shutil.rmtree(d, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
