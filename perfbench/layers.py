"""Per-layer measurements, taken from outside the program.

``replay`` runs a corpus through the public functions of each layer in this
process, timing each call so that each figure is the layer's self time:

    read      pyarrow.parquet.read_table, one shard at a time
    sniffer   stages.sniffer.classify_text_array
    extract   Arrow -> Python (to_pylist), extract_turn per turn grouped
              by sniffed kind, and the Arrow rebuild of the four columns
    kernels   stages.domstrip / payload / paged / xmltokens, then
              functions.layout dedup_boxes and assemble_layout_text,
              composed as stages.extract composes them

``ray_operator_totals`` reads Ray Data's own ``Dataset.stats()`` text, and
``peak_rss_mb`` reads ``VmHWM`` of the benchmark and its Ray workers from
/proc.
"""

from __future__ import annotations

import os
import re
import time
from collections import Counter, defaultdict
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from pdf_ocr_batch_ndrocr_lite_ray.functions.layout import (
    assemble_layout_text,
    dedup_blocks,
    dedup_boxes,
)
from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import INPUT_COLUMNS
from pdf_ocr_batch_ndrocr_lite_ray.stages.domstrip import extract_html_main_content
from pdf_ocr_batch_ndrocr_lite_ray.stages.extract import SPANS_TYPE, extract_turn
from pdf_ocr_batch_ndrocr_lite_ray.stages.paged import extract_paged_turn, infer_page_count
from pdf_ocr_batch_ndrocr_lite_ray.stages.payload import parse_pdfish_payload
from pdf_ocr_batch_ndrocr_lite_ray.stages.sniffer import classify_text_array
from pdf_ocr_batch_ndrocr_lite_ray.stages.xmltokens import parse_xml_payload

KINDS = ("plain", "html", "pdfish", "xml", "empty")

_now = time.perf_counter


class _Timer:
    """Summed seconds and call counts per name."""

    def __init__(self) -> None:
        self.seconds: dict = defaultdict(float)
        self.calls: Counter = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] += _now() - t0
            self.calls[name] += 1

    def us_per_call(self, name: str) -> float:
        return self.seconds[name] * 1e6 / self.calls[name] if self.calls[name] else 0.0


def _rebuild(batch: pa.Table, results: list) -> pa.Table:
    """The four columns the extractor appends, built as it builds them."""
    extracted, spans_col, actions, errors = [], [], [], []
    for ext, spans, action, error in results:
        extracted.append(ext)
        spans_col.append([{"start": s, "end": e, "kind": k} for s, e, k in spans])
        actions.append(action)
        errors.append(error)
    return (
        batch.append_column("extracted_text", pa.array(extracted, type=pa.string()))
        .append_column("spans", pa.array(spans_col, type=SPANS_TYPE))
        .append_column("action", pa.array(actions, type=pa.string()))
        .append_column("error", pa.array(errors, type=pa.string()))
    )


def _layout(timer: _Timer, boxes: list, blocks: list, box_counts: list) -> None:
    box_counts.append(len(boxes))
    boxes = timer.call("layout.dedup_boxes", dedup_boxes, boxes)
    timer.call("layout.assemble", assemble_layout_text, boxes, dedup_blocks(blocks))


def _sub_kernels(timer: _Timer, text: str, kind: str, box_counts: list) -> None:
    """One turn through the sub-kernels its extractor composes."""
    try:
        if kind == "html":
            timer.call("domstrip", extract_html_main_content, text)
        elif kind == "pdfish":
            if infer_page_count(text) > 1:
                timer.call("paged", extract_paged_turn, text)
            else:
                boxes, blocks = timer.call("payload", parse_pdfish_payload, text)
                _layout(timer, boxes, blocks, box_counts)
        elif kind == "xml":
            boxes, blocks = timer.call("xmltokens", parse_xml_payload, text)
            _layout(timer, boxes, blocks, box_counts)
    except Exception:  # a payload the parser rejects; extract_turn falls back
        pass


def replay(paths: list[str]) -> dict:
    """Per-layer self times of one in-process pass over the corpus."""
    timer = _Timer()
    turns = 0
    kind_s: dict = defaultdict(float)
    kind_n: Counter = Counter()
    untraced_s = traced_s = 0.0
    box_counts: list = []
    for path in paths:
        batch = timer.call("read", pq.read_table, path, columns=INPUT_COLUMNS)
        kinds_arr = timer.call("sniffer", classify_text_array, batch["text"])
        t0 = _now()
        texts = batch["text"].to_pylist()
        kinds = kinds_arr.to_pylist()
        timer.seconds["to_pylist"] += _now() - t0
        turns += len(texts)

        t0 = _now()
        for text, kind in zip(texts, kinds):
            extract_turn(text, kind)
        untraced_s += _now() - t0

        results = []
        t0 = _now()
        for text, kind in zip(texts, kinds):
            t1 = _now()
            results.append(extract_turn(text, kind))
            kind_s[kind] += _now() - t1
            kind_n[kind] += 1
        traced_s += _now() - t0

        timer.call("rebuild", _rebuild, batch.append_column("content_kind", kinds_arr), results)
        for text, kind in zip(texts, kinds):
            _sub_kernels(timer, text, kind, box_counts)

    def per_turn(name: str) -> float:
        return timer.seconds[name] * 1e6 / turns

    m = {
        "read.us_per_turn": per_turn("read"),
        "sniffer.us_per_turn": per_turn("sniffer"),
        "extract.to_pylist_us_per_turn": per_turn("to_pylist"),
        "extract.rebuild_us_per_turn": per_turn("rebuild"),
        "extract.kernel_us_mean": sum(kind_s.values()) * 1e6 / turns,
        "domstrip.us_per_call": timer.us_per_call("domstrip"),
        "payload.us_per_call": timer.us_per_call("payload"),
        "paged.calls": timer.calls["paged"],
        "paged.us_per_call": timer.us_per_call("paged"),
        "xmltokens.us_per_call": timer.us_per_call("xmltokens"),
        "layout.dedup_boxes_us_per_call": timer.us_per_call("layout.dedup_boxes"),
        "layout.assemble_us_per_call": timer.us_per_call("layout.assemble"),
        "layout.boxes_per_call": sum(box_counts) / len(box_counts) if box_counts else 0.0,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for kind in KINDS:
        m[f"extract.kernel_us.{kind}"] = kind_s[kind] * 1e6 / kind_n[kind] if kind_n[kind] else 0.0
    return m


_OP_RE = re.compile(r"^\s*(Operator|Suboperator) \d+ (.+?):")
_TASKS_RE = re.compile(r"(\d+) tasks executed")
_WALL_RE = re.compile(r"Remote wall time: .*?([\d.]+)(us|ms|s) total")
_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _category(op_name: str) -> str:
    for needle, cat in (("Sort", "sort"), ("Write", "write"), ("extract_batch", "extract"), ("Read", "read")):
        if needle in op_name:
            return cat
    return "other"


def ray_operator_totals(stats: str) -> dict:
    """Remote wall seconds and task counts per pipeline step from
    ``Dataset.stats()``; suboperators count toward their operator."""
    wall: dict = defaultdict(float)
    tasks: Counter = Counter()
    cat = "other"
    for line in stats.splitlines():
        op = _OP_RE.match(line)
        if op:
            if op.group(1) == "Operator":
                cat = _category(op.group(2))
            n = _TASKS_RE.search(line)
            if n:
                tasks[cat] += int(n.group(1))
            continue
        w = _WALL_RE.search(line)
        if w:
            wall[cat] += float(w.group(1)) * _UNIT_S[w.group(2)]
    out = {}
    for cat in ("read", "extract", "sort", "write"):
        out[f"ray.{cat}_s"] = wall[cat]
        out[f"ray.{cat}_tasks"] = tasks[cat]
    out["ray.remote_s"] = sum(wall.values())
    return out


def _status(pid: int) -> dict:
    fields = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    return fields


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` in the process tree."""
    children = defaultdict(list)
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children[ppid].append(int(entry.name))
    out, stack = [], [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            out.append(child)
            stack.append(child)
    return out


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def cpu_ticks() -> dict:
    """pid -> user plus system clock ticks, for this process and every
    live process below it (the Ray daemons and workers)."""
    me = os.getpid()
    out = {}
    for pid in [me] + descendants(me):
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we looked
        out[pid] = int(fields[11]) + int(fields[12])  # utime, stime
    return out


def cpu_seconds_since(before: dict) -> float:
    """CPU seconds the process tree spent since ``before = cpu_ticks()``.

    A process that ends in between takes its last ticks with it; the
    benchmark keeps Ray's idle workers alive, so that does not happen
    during a job.
    """
    after = cpu_ticks()
    return sum(t - before.get(pid, 0) for pid, t in after.items()) * _TICK_S


def peak_rss_mb() -> float:
    """Summed ``VmHWM`` of this process and the Ray worker processes below it.

    Ray names its worker processes ``ray::<task or actor>``; the raylet,
    GCS and agent daemons are left out.
    """
    total_kb = 0
    me = os.getpid()
    for pid in [me] + descendants(me):
        try:
            if pid != me:
                cmd = Path(f"/proc/{pid}/cmdline").read_bytes()
                if not cmd.startswith(b"ray::"):
                    continue
            total_kb += int(_status(pid).get("VmHWM", "0 kB").split()[0])
        except (OSError, ValueError):
            continue  # the process ended while we looked
    return total_kb / 1024.0
