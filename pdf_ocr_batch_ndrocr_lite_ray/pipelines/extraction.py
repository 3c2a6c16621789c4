"""The flagship extraction pipeline: read → sniff → extract → order → write.

Ray-Data-first shape (SURVEY.md §7):

    ray.data.read_parquet(paths, columns=[...])      # prune at the read
      .map_batches(extract_batch, batch_format="pyarrow",  # task pool:
                   zero_copy_batch=True)              # sniff + extract
      .sort(["conv_id", "turn_idx"])                  # order restoration
      .write_parquet(out)                             # streaming sink

Scale notes (100 TB design):

- per-turn extraction is embarrassingly parallel: NO shuffle is needed until
  order restoration. The only all-to-all exchange in the whole pipeline is
  the optional final sort, and equality under the conformance contract is
  defined *after* canonical ordering — consumers that don't need physical
  order skip it (``order=False``) and pay zero shuffles.
- batches stay zero-copy Arrow end to end; the extractor materializes only
  the ``text`` column of its own batch.
- hot conversations need no salting for extraction itself (rows are
  independent).
- wide rows: ``batch_size`` bounds rows per batch; Ray's dynamic block
  splitting bounds block bytes via ``DataContext.target_max_block_size``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Sequence, Union

import ray.data

from ..stages.extract import extract_batch

INPUT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def package_runtime_env() -> dict:
    """Runtime env ensuring workers can import this package.

    Ray workers inherit the driver's cwd but NOT its ``sys.path``; a driver
    that imported this package from a non-cwd location (e.g. via
    ``sys.path.insert``, or a cwd outside the repo) would otherwise fail
    every task with ``ModuleNotFoundError``. Shipping the package parent dir on
    ``PYTHONPATH`` makes pipelines location-independent.
    """
    pkg_parent = str(Path(__file__).resolve().parents[2])
    existing = os.environ.get("PYTHONPATH", "")
    pythonpath = pkg_parent if not existing else f"{pkg_parent}{os.pathsep}{existing}"
    return {"env_vars": {"PYTHONPATH": pythonpath}}


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
        runtime_env=package_runtime_env(),
    )
    if order:
        out = out.sort(["conv_id", "turn_idx"])
    return out


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
        import pyarrow.parquet as _pq

        probe = [paths] if isinstance(paths, str) else list(paths)[:8]
        try:
            # intersect schemas across a bounded probe of files: projecting
            # a column absent from ANY file fails the whole read
            available: set | None = None
            for f in probe:
                names = set(_pq.read_schema(f).names)
                available = names if available is None else (available & names)
            wanted = [c for c in INPUT_COLUMNS if c in (available or set())]
        except Exception:
            wanted = list(INPUT_COLUMNS)
        missing = {"conv_id", "turn_idx", "text"} - set(wanted)
        if missing:
            raise ValueError(f"input lacks required columns: {sorted(missing)}")
    ds = ray.data.read_parquet(
        paths,
        columns=wanted,
        override_num_blocks=override_num_blocks,
    )
    return build_extraction(ds, batch_size=batch_size, order=order)
