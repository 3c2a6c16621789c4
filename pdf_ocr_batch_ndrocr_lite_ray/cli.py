"""Command-line entry point: ``python -m pdf_ocr_batch_ndrocr_lite_ray.cli``.

Subcommands:

- ``extract``   one-shot extraction: transcript parquet in → parquet out
- ``resume``    checkpointed (resumable) extraction over many input files
- ``prep``      composed prep: extract → reassemble → dedup → stats → split
- ``report``    print the committed-partition report of a checkpointed run

Config precedence mirrors the reference's ``SettingPrecedencePolicy``
(manual > saved > default — app.py:347-377): CLI flags beat the optional
JSON config file (``--config``), which beats built-in defaults.

This module OWNS the Ray session (``ray.init`` / ``ray.shutdown``) — library
code never initializes Ray (driver contract).
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from pathlib import Path

DEFAULTS = {
    "num_cpus": None,  # None → let Ray size to the machine
    "batch_size": None,  # None → whole-block batches
    "order": False,
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    return json.loads(Path(path).read_text())


def _resolve(args: argparse.Namespace, config: dict, key: str):
    """flag > config file > default (reference precedence, app.py:347-377)."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return DEFAULTS.get(key)


def _init_ray(num_cpus):
    import os

    import ray

    if not ray.is_initialized():
        # honor $RAY_ADDRESS so `ray job submit` attaches to the job's
        # cluster (the job runtime exports it); unset OR EMPTY falls back
        # to a local session — num_cpus only applies to a local session
        kwargs = {"include_dashboard": False}
        addr = os.environ.get("RAY_ADDRESS") or "local"
        kwargs["address"] = addr
        if num_cpus and addr == "local":
            kwargs["num_cpus"] = int(num_cpus)
        elif num_cpus:
            import sys

            print(
                f"warning: --num-cpus ignored when attaching to an existing "
                f"cluster (RAY_ADDRESS={addr})",
                file=sys.stderr,
            )
        ray.init(**kwargs)


_DIR_GLOBS = {"parquet": ("*.parquet",), "jsonl": ("*.jsonl", "*.json")}


def _expand_inputs(patterns: list[str], input_format: str = "parquet") -> list[str]:
    paths: list[str] = []
    for p in patterns:
        if any(ch in p for ch in "*?["):
            paths.extend(sorted(glob.glob(p)))
        elif Path(p).is_dir():
            # only pick up files of the declared input format — a mixed
            # directory (e.g. holding a previous jsonl export) would feed
            # wrong-format files to the reader
            found = sorted(
                str(x)
                for pat in _DIR_GLOBS.get(input_format, ("*.parquet",))
                for x in Path(p).glob(pat)
            )
            paths.extend(found)
        else:
            paths.append(p)
    # reference input collection: sorted, deduped (app.py:1151-1152)
    return sorted(set(paths), key=str.lower)


def _prepare_output_dir(args: argparse.Namespace) -> Path | None:
    """Resolve the writer conflict policy and return a CLEAN output dir
    (reference S6/U4, app.py:2519-2529): fail (default) refuses a non-empty
    dir, overwrite clears it, rename picks a fresh `_001.._9999` sibling.
    Returns None (after printing the error) when the policy refuses.
    """
    from .state.output_paths import make_output_dir

    conflict = "overwrite" if getattr(args, "overwrite", False) else args.on_conflict
    try:
        out = make_output_dir(Path(args.output), conflict)
    except FileExistsError as exc:
        # non-empty dir under fail, or a FILE at the target under any policy
        print(
            f"{exc}; use --on-conflict overwrite|rename (or --overwrite) "
            "against a directory target",
            file=sys.stderr,
        )
        return None
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_extract(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    _init_ray(_resolve(args, config, "num_cpus"))
    from .pipelines.extraction import (
        INPUT_COLUMNS,
        build_extraction,
        extract_transcripts,
        package_remote_args,
    )

    inputs = _expand_inputs(args.input, args.input_format)
    if not inputs:
        print("no input files found", file=sys.stderr)
        return 2
    if args.input_format == "jsonl":
        import ray.data

        ds = ray.data.read_json(inputs, ray_remote_args=package_remote_args())
        keep = [c for c in INPUT_COLUMNS if c in ds.schema().names]
        missing = {"conv_id", "turn_idx", "text"} - set(keep)
        if missing:
            print(f"input lacks required columns: {sorted(missing)}", file=sys.stderr)
            return 2
        ds = build_extraction(
            ds.select_columns(keep, **package_remote_args()),
            batch_size=_resolve(args, config, "batch_size"),
            order=bool(_resolve(args, config, "order")),
        )
    else:
        ds = extract_transcripts(
            inputs,
            batch_size=_resolve(args, config, "batch_size"),
            order=bool(_resolve(args, config, "order")),
        )
    # Ray writes fresh unique filenames, so re-running into a dirty
    # directory would MIX stale files from the previous run into the output
    # and double-count them in the report.
    out = _prepare_output_dir(args)
    if out is None:
        return 2
    # the same remote args as the library's operators, so the write fuses
    if args.output_format == "jsonl":
        # always there; schema() would run the pipeline
        ds = ds.drop_columns(["spans"], **package_remote_args())
        ds.write_json(str(out), ray_remote_args=package_remote_args())
    else:
        ds.write_parquet(str(out), ray_remote_args=package_remote_args())
    if args.stats:
        print(ds.stats(), file=sys.stderr)
    # job report from the written output (A1/A4 counter analog)
    from collections import Counter

    counts: Counter = Counter()
    if args.output_format == "jsonl":
        for f in sorted(out.glob("*.json")):
            for line in f.read_text().splitlines():
                if line.strip():
                    counts[json.loads(line).get("action", "?")] += 1
    else:
        from .state.checkpoint import count_values

        counts = count_values(out, "action")
    report = {"rows": sum(counts.values()), "actions": dict(counts), "output": str(out)}
    print(json.dumps(report))
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    _init_ray(_resolve(args, config, "num_cpus"))
    from .state.checkpoint import run_resumable_extraction

    inputs = _expand_inputs(args.input, "parquet")
    if not inputs:
        print("no input files found", file=sys.stderr)
        return 2
    report = run_resumable_extraction(
        inputs,
        args.output,
        batch_size=_resolve(args, config, "batch_size"),
        max_partitions=args.max_partitions,
        on_conflict=args.on_conflict,
        wave_size=args.wave_size,
    )
    print(json.dumps(report))
    return 0


def cmd_prep(args: argparse.Namespace) -> int:
    """Composed training-data prep: extract → quality gate → conversation
    reassembly → exact dedup → stats → hash-stable split → parquet."""
    config = _load_config(args.config)
    _init_ray(_resolve(args, config, "num_cpus"))
    from .pipelines.conversations import reassemble_conversations
    from .pipelines.extraction import extract_transcripts, package_remote_args
    from .pipelines.prep import dedup_stats_split, quality_gate

    inputs = _expand_inputs(args.input, "parquet")
    if not inputs:
        print("no input files found", file=sys.stderr)
        return 2
    out = _prepare_output_dir(args)
    if out is None:
        return 2

    if getattr(args, "checkpoint_dir", None):
        # durable extraction checkpoint: a killed prep rerun skips every
        # committed fragment instead of re-extracting from scratch
        from .pipelines.prep import prep_corpus_resumable

        result = prep_corpus_resumable(inputs, args.checkpoint_dir)
    else:
        ext = extract_transcripts(
            inputs, batch_size=_resolve(args, config, "batch_size")
        )
        convs = reassemble_conversations(
            ext.map_batches(
                quality_gate, batch_format="pyarrow", **package_remote_args()
            )
        )
        result = dedup_stats_split(convs)
    result.write_parquet(str(out), ray_remote_args=package_remote_args())

    from .state.checkpoint import count_values

    splits = count_values(out, "split")
    print(json.dumps({"conversations": sum(splits.values()), "splits": dict(splits), "output": str(out)}))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .state.checkpoint import committed_totals

    print(json.dumps(committed_totals(args.output)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pdf_ocr_batch_ndrocr_lite_ray")
    ap.add_argument("--config", help="JSON config file (flags override it)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="one-shot extraction to parquet")
    p.add_argument("--input", nargs="+", required=True, help="parquet files/dirs/globs")
    p.add_argument("--output", required=True)
    p.add_argument("--num-cpus", dest="num_cpus", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--order", action="store_const", const=True, default=None,
                   help="restore (conv_id, turn_idx) order before writing")
    p.add_argument("--input-format", choices=["parquet", "jsonl"], default="parquet")
    p.add_argument("--output-format", choices=["parquet", "jsonl"], default="parquet")
    p.add_argument("--stats", action="store_true",
                   help="print Ray Data operator stats to stderr after the run")
    p.add_argument("--overwrite", action="store_true",
                   help="shorthand for --on-conflict overwrite")
    p.add_argument("--on-conflict", choices=["fail", "overwrite", "rename"],
                   default="fail",
                   help="policy for a non-empty output dir: fail (default), "
                        "overwrite (clear it), rename (_001.._9999 sibling)")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("resume", help="checkpointed extraction (resumable)")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--num-cpus", dest="num_cpus", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-partitions", type=int, default=None)
    p.add_argument("--wave-size", type=int, default=None,
                   help="fragments per streaming job (manifests commit per wave)")
    p.add_argument("--on-conflict", choices=["overwrite", "fail"], default="overwrite",
                   help="policy for uncommitted partition dirs from a prior attempt")
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser(
        "prep", help="composed prep: extract+reassemble+dedup+stats+split"
    )
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--num-cpus", dest="num_cpus", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--overwrite", action="store_true")
    p.add_argument("--on-conflict", choices=["fail", "overwrite", "rename"],
                   default="fail")
    p.add_argument("--checkpoint-dir", dest="checkpoint_dir", default=None,
                   help="durable extraction checkpoint: rerunning a killed "
                        "prep skips committed fragments")
    p.set_defaults(fn=cmd_prep)

    p = sub.add_parser("report", help="report of a checkpointed run")
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
