"""The flagship extraction pipeline: read → sniff → extract → order → write.

Ray-Data-first shape (SURVEY.md §7):

    ray.data.read_parquet(paths, columns=[...])      # prune at the read
      .map_batches(extract_batch, batch_format="pyarrow",  # task pool:
                   zero_copy_batch=True)              # sniff + extract
      .sort(["conv_id", "turn_idx"])                  # order restoration
      .write_parquet(out)                             # streaming sink

Without the sort, Ray Data fuses read, extract and write into one operator
(``ReadParquet->MapBatches(extract_batch)->Write``): each block goes from
the file to the sink inside one task, with no object-store hop. Ray fuses
adjacent operators only when their remote args are equal, so no operator
carries a runtime env when the workers can already import this package
(its parent is the driver's cwd at ``ray.init`` or its script dir, or the
package is installed). Otherwise every operator the library owns carries
the same env (:func:`package_remote_args`); an operator the caller adds,
such as its own ``write_parquet``, then runs as a separate one.

Order restoration (``order=True``) runs the global sort only when the
Parquet footers cannot prove that the input is already range-partitioned.
The footers' ``conv_id`` min/max statistics split the input into sort
units, runs of one file's row groups. When the units' ranges are disjoint,
there are at least as many units as cluster CPUs, and each unit's footer
size fits one block, the pipeline reads the units in range order instead,
one task per CPU, and sorts each unit whole inside its read task before
extraction; read, extract and write fuse into one operator,
``MapBatches(_read_sorted)->MapBatches(extract_batch)->Write``. Blocks are
emitted in order (``preserve_order`` on the dataset's own context).
Extraction is 1:1 and keeps row order, so the output equals the globally
sorted output without an all-to-all exchange: the *Hyper Dimension
Shuffle* rule, never repartition data that is already partitioned
correctly.

Scale notes (100 TB design):

- per-turn extraction is embarrassingly parallel: NO shuffle is needed until
  order restoration. The only all-to-all exchange in the whole pipeline is
  that global sort, and it runs only when the footers cannot prove order;
  equality under the conformance contract is defined *after* canonical
  ordering — consumers that don't need physical order skip it
  (``order=False``).
- batches stay zero-copy Arrow end to end; the extractor materializes only
  the ``text`` column of its own batch.
- hot conversations need no salting for extraction itself (rows are
  independent).
- wide rows: ``batch_size`` bounds rows per batch; Ray's dynamic block
  splitting bounds block bytes via ``DataContext.target_max_block_size``.
"""

from __future__ import annotations

import os
import sysconfig
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..stages.extract import extract_batch

INPUT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
ORDER_KEYS = ["conv_id", "turn_idx"]
_PACKAGE_PARENT = str(Path(__file__).resolve().parents[2])


def package_runtime_env() -> dict:
    """Runtime env that puts this package's parent dir on ``PYTHONPATH``.

    Ray workers get the driver's cwd at ``ray.init`` and its script dir on
    their ``sys.path``, but NOT the rest of the driver's ``sys.path``; a
    driver that imported this package from elsewhere (e.g. via
    ``sys.path.insert`` with a cwd outside the repo) would otherwise fail
    every task with ``ModuleNotFoundError``. Call sites take it through
    :func:`package_remote_args`, which ships it only in that case.
    """
    existing = os.environ.get("PYTHONPATH", "")
    pythonpath = _PACKAGE_PARENT if not existing else f"{_PACKAGE_PARENT}{os.pathsep}{existing}"
    return {"env_vars": {"PYTHONPATH": pythonpath}}


def _workers_import_package() -> bool:
    """True when Ray's workers can import this package without an env: it
    is installed (its parent is a site-packages dir), or its parent is on
    the code paths Ray gave the job's workers (the driver's cwd at
    ``ray.init`` and its script dir). Any doubt answers False."""
    installed = {sysconfig.get_path("purelib"), sysconfig.get_path("platlib")}
    if _PACKAGE_PARENT in {os.path.realpath(p) for p in installed}:
        return True
    try:
        job = ray._private.worker.global_worker.core_worker.get_job_config()
        code_paths = {os.path.realpath(p) for p in job.py_driver_sys_path}
    except Exception:
        return False
    return _PACKAGE_PARENT in code_paths


def package_remote_args() -> dict:
    """Ray remote args for every task this package runs: ``{}`` when the
    workers can already import it, else ``{"runtime_env": ...}``.

    Splat it (``**package_remote_args()``) so the keyword is absent, not
    empty: Ray Data fuses adjacent operators only when their remote args
    are equal, tasks with a runtime env cannot reuse the workers Ray
    prestarts at ``ray.init``, and ``runtime_env={}`` is not an absent key.
    When the env ships, every operator the library owns carries the same
    one, so the plan fuses either way.
    """
    if _workers_import_package():
        return {}
    return {"runtime_env": package_runtime_env()}


def build_extraction(
    ds: "ray.data.Dataset",
    *,
    batch_size: Union[int, None] = None,
    order: bool = False,
) -> "ray.data.Dataset":
    """Attach the sniff + extract stage (and optional order restore) to ``ds``.

    The stage is a **task pool** over whole blocks: extraction state is
    module-level (compiled once per worker process) and task workers are
    reused across datasets, so there is no per-pipeline spin-up and the
    stage scales to every free CPU.
    """
    out = ds.map_batches(
        extract_batch,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
        **package_remote_args(),
    )
    if order:
        out = out.sort(ORDER_KEYS)
    return out


def _sort_units(
    paths: Sequence[str], columns: Sequence[str], block_bytes: Optional[int]
) -> Optional[list[tuple[str, list[int]]]]:
    """``(path, row groups)`` sort units in ``conv_id`` order, or ``None``
    unless the Parquet footers prove the input is range-partitioned.

    A sort unit is a run of one file's row groups whose ``conv_id`` ranges
    overlap or touch, so no conversation spans two units. The proof needs
    min/max statistics with zero nulls for both order keys on every row
    group, one Arrow schema for ``columns`` across files, and unit ranges
    that increase strictly: two files that share a boundary id fall back.

    A task holds a whole unit to sort it, so a unit whose footer size of
    ``columns`` exceeds ``block_bytes`` falls back too. Dictionary pages can
    make the decoded unit larger than its footer size; that costs memory,
    never order, because the sort runs before Ray splits the output.
    """
    if not paths or not block_bytes or not all(os.path.isfile(p) for p in paths):
        return None
    try:
        metas = [pq.read_metadata(p) for p in paths]
    except (OSError, pa.ArrowException):
        return None
    schema = None
    groups = []  # (min conv_id, max conv_id, file, row group, bytes)
    for f, meta in enumerate(metas):
        names = [meta.schema.column(j).path for j in range(meta.num_columns)]
        if meta.num_rows == 0 or not set(ORDER_KEYS) <= set(names):
            return None
        arrow = meta.schema.to_arrow_schema()
        fields = [arrow.field(c) for c in columns if c in arrow.names]
        if schema is None:
            schema = fields
        elif fields != schema:
            return None
        for i in range(meta.num_row_groups):
            group = meta.row_group(i)
            size = 0
            for j, name in enumerate(names):
                chunk = group.column(j)
                if name in columns:
                    size += chunk.total_uncompressed_size
                if name not in ORDER_KEYS:
                    continue
                stats = chunk.statistics
                if (
                    stats is None
                    or not stats.has_min_max
                    or not stats.has_null_count
                    or stats.null_count != 0
                ):
                    return None
                if name == "conv_id":
                    lo, hi = stats.min, stats.max
            groups.append((lo, hi, f, i, size))
    groups.sort(key=lambda g: g[0])
    units = []  # [max conv_id, file, row groups, bytes]
    for lo, hi, f, i, size in groups:
        if units and lo <= units[-1][0]:
            if units[-1][1] != f:
                return None
            units[-1][0] = max(units[-1][0], hi)
            units[-1][2].append(i)
            units[-1][3] += size
        else:
            units.append([hi, f, [i], size])
    if any(size > block_bytes for _, _, _, size in units):
        return None
    return [(paths[f], sorted(rows)) for _, f, rows, _ in units]


def _cluster_cpus() -> int:
    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    return os.cpu_count() or 1


def _read_sorted(units: pa.Table, columns: list[str]) -> Iterator[pa.Table]:
    """Read each sort unit whole and yield it sorted by the order keys.

    Each unit is sorted before Ray sees it, so Ray may split the output
    into blocks of any size without breaking the order.
    """
    for unit in units.to_pylist():
        with pq.ParquetFile(unit["path"]) as f:
            table = f.read_row_groups(unit["row_groups"], columns=columns)
        yield table.sort_by([(k, "ascending") for k in ORDER_KEYS])


def extract_transcripts(
    paths: Union[str, Sequence[str]],
    *,
    columns: Optional[Sequence[str]] = None,
    batch_size: Union[int, None] = None,
    order: bool = False,
    override_num_blocks: Optional[int] = None,
) -> "ray.data.Dataset":
    """Read transcript parquet and run the extraction pipeline (lazy).

    Column projection tolerates schema drift: optional columns missing from
    the input (``role``/``tool``/``ts``) are simply not projected; only
    ``conv_id``, ``turn_idx`` and ``text`` are required.
    """
    # normalize to plain strings: ray.data.read_parquet rejects PathLike
    if isinstance(paths, (str, os.PathLike)):
        paths = str(paths)
    else:
        paths = [str(p) for p in paths]
    if columns:
        wanted = list(columns)
    else:
        probe = [paths] if isinstance(paths, str) else list(paths)[:8]
        try:
            # intersect schemas across a bounded probe of files: projecting
            # a column absent from ANY file fails the whole read
            available: set | None = None
            for f in probe:
                names = set(pq.read_schema(f).names)
                available = names if available is None else (available & names)
            wanted = [c for c in INPUT_COLUMNS if c in (available or set())]
        except Exception:
            wanted = list(INPUT_COLUMNS)
        missing = {"conv_id", "turn_idx", "text"} - set(wanted)
        if missing:
            raise ValueError(f"input lacks required columns: {sorted(missing)}")
    if order:
        units = _sort_units(
            [paths] if isinstance(paths, str) else paths,
            wanted,
            ray.data.DataContext.get_current().target_max_block_size,
        )
        # one task per CPU: the fused read + sort + extract task is the
        # stage's whole parallelism, so fewer units than CPUs would idle
        # CPUs that the global sort's split reads keep busy
        cpus = _cluster_cpus()
        tasks = override_num_blocks or cpus
        if units and max(cpus, tasks) <= len(units):
            ds = ray.data.from_items(
                [{"path": path, "row_groups": rows} for path, rows in units],
                override_num_blocks=tasks,
            ).map_batches(
                _read_sorted,
                batch_format="pyarrow",
                batch_size=None,
                fn_kwargs={"columns": wanted},
                **package_remote_args(),
            )
            out = build_extraction(ds, batch_size=batch_size)
            out.context.execution_options.preserve_order = True
            return out
    ds = ray.data.read_parquet(
        paths,
        columns=wanted,
        override_num_blocks=override_num_blocks,
        ray_remote_args=package_remote_args(),
    )
    return build_extraction(ds, batch_size=batch_size, order=order)
