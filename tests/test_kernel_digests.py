"""Kernel guard: md5 digests of the extraction kernels over seeded inputs.

The reference-parity tests need the reference implementation and skip
without it, and the oracle shares ``extract_turn`` with the pipeline, so
neither pins the kernel bytes. These digests do: each group hashes the
``repr`` of one layer's outputs over a fixed seeded input set, so a
refactor that drifts by one character, one span or one float bit fails
the group of the layer that drifted.

To re-derive the digests after an INTENDED output change, run
``python tests/test_kernel_digests.py`` from the repo root and paste the
printed table.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from pdf_ocr_batch_ndrocr_lite_ray.functions import layout as lay  # noqa: E402
from pdf_ocr_batch_ndrocr_lite_ray.functions.geometry import Box  # noqa: E402
from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import generate_rows  # noqa: E402
from pdf_ocr_batch_ndrocr_lite_ray.stages.extract import extract_turn  # noqa: E402
from pdf_ocr_batch_ndrocr_lite_ray.stages.paged import (  # noqa: E402
    PageOcr,
    extract_paged_turn,
    infer_page_count,
    merge_assignments,
    parse_pdfish_pages,
)
from pdf_ocr_batch_ndrocr_lite_ray.stages.payload import parse_pdfish_payload  # noqa: E402
from pdf_ocr_batch_ndrocr_lite_ray.stages.sniffer import classify_text_array  # noqa: E402

EXPECTED = {
    "extract_turn.plain": "9fed640a07961167c74215a15a23b017",
    "extract_turn.html": "af76ea89cb4b55ba83958eb6077dd6b8",
    "extract_turn.pdfish": "231bda1c1da3ed0468e0540d04377f83",
    "extract_turn.xml": "101361abaeb73a83f294ce5c3f89c7b9",
    "extract_turn.empty": "42b334941504e4f48eb808297e6101d2",
    "extract_turn.pdfish_structured": "ddbf4a2ea1b17f2afced43e26f5a8d3a",
    "extract_paged_turn": "ccdb3eddc5f39902d1ed3b7c27071e23",
    "infer_page_count": "b7efa1b065d83ed9a991da7cf327fa20",
    "parse_pdfish_payload": "cb125d8f40800ac933c87ada9908ac12",
    "parse_pdfish_pages": "05a750e54001ee9f87b11f526b424219",
    "merge_assignments": "99dc923bc913d522ab20b8d24b506a33",
    "group_into_lines": "621e990b111e720ee32e69ac99103b77",
    "group_into_vertical_columns": "d150c729527bad277485cd968d9c562e",
    "is_vertical_layout": "5d3294787fa8e0a3e4ee79a003635f25",
    "assemble_layout_text": "ea101ea7f31bdc6b2e6009b19dd5e7c6",
}

_WORDS = ["hello", "world", "図", "表 1", "line", "  ", "", "価格 100 円", "(a)", "x", "42"]
_TEXT_KEYS = ["text", "content", "label", "TEXT"]
_PAGE_KEYS = ["page", "page_no", "pageIndex"]


def _digest(values) -> str:
    h = hashlib.md5()
    for value in values:
        h.update(repr(value).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _guarded(fn, *args, **kwargs):
    """The call's result, or its exception type (message text is not pinned)."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return ("raised", type(exc).__name__)


def _bbox(rng: random.Random) -> dict:
    x, y = rng.uniform(0, 400), rng.uniform(0, 400)
    w, h = rng.uniform(1, 60), rng.uniform(1, 30)
    r = rng.random()
    if r < 0.4:
        return {"bbox": [x, y, x + w, y + h]}
    if r < 0.7:
        return {"boundingBox": [int(x), int(y), int(x + w), int(y + h)]}
    return {"x": x, "y": y, "w": w, "h": h}


def _entry(rng: random.Random, depth: int = 0):
    r = rng.random()
    if r < 0.35:
        return {rng.choice(_TEXT_KEYS): rng.choice(_WORDS), **_bbox(rng)}
    if r < 0.5:  # free text leaf
        return {rng.choice(_TEXT_KEYS): rng.choice(_WORDS), "conf": rng.random()}
    if r < 0.65:  # page-hinted mapping
        return {
            rng.choice(_PAGE_KEYS): rng.randint(-1, 5),
            "items": [_entry(rng, depth + 1) for _ in range(rng.randint(0, 3))],
        }
    if r < 0.8 and depth < 4:
        return {"meta": _entry(rng, depth + 1), "n": rng.randint(0, 9)}
    if r < 0.9 and depth < 4:
        return [_entry(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return rng.choice([None, 3, "loose", 1.5, True, {}])


def _nested(depth: int, leaf) -> object:
    node = leaf
    for i in range(depth):
        node = {"k": node} if i % 2 else [node]
    return node


def _structured_payloads(seed: int = 29, n: int = 500) -> list[str]:
    """Multi-page, imginfo-attributed, page-hinted, text-leaf, deep and
    truncated payloads (the shapes the pdfish kernels branch on)."""
    rng = random.Random(seed)
    out: list[str] = []
    for i in range(n):
        shape = i % 8
        if shape == 0:  # multi-page NDLOCR contents
            doc = {"contents": [[_entry(rng) for _ in range(rng.randint(0, 4))]
                                for _ in range(rng.randint(1, 4))]}
        elif shape == 1:  # single page attributed by imginfo
            doc = {
                "contents": [[_entry(rng) for _ in range(rng.randint(1, 4))]],
                "imginfo": {"img_name": f"scan/p{rng.randint(1, 4):04d}.png"},
            }
        elif shape == 2:  # page-hinted generic structure
            doc = {"pages": [{"page": rng.randint(0, 4),
                              "lines": [_entry(rng) for _ in range(rng.randint(1, 4))]}
                             for _ in range(rng.randint(1, 3))]}
        elif shape == 3:  # free text leaves only
            doc = [{"text": rng.choice(_WORDS), "lang": "en"} for _ in range(rng.randint(1, 4))]
        elif shape == 4:  # deeper than the 64-level cap, and just under it
            depth = rng.choice([60, 63, 64, 66, 80])
            doc = _nested(depth, {"text": "deep", "bbox": [0, 0, 5, 5]})
        elif shape == 5:  # truncated JSON
            text = json.dumps([_entry(rng) for _ in range(3)], ensure_ascii=False)
            out.append(text[: rng.randint(1, max(1, len(text) - 1))])
            continue
        else:
            doc = _entry(rng)
        out.append(json.dumps(doc, ensure_ascii=False))
    out += ["[" * 5000, "null", "[]", "{}", '{"contents": []}', "", "42"]
    return out


def _box_sets(seed: int = 31, n: int = 300) -> list[tuple[list[Box], list[str]]]:
    rng = random.Random(seed)
    sets = []
    for i in range(n):
        boxes = []
        tall = i % 3 == 0
        for _ in range(rng.randint(0, 20) if i % 10 else rng.randint(40, 120)):
            x, y = rng.uniform(0, 300), rng.uniform(0, 300)
            if tall:
                w, h = rng.uniform(5, 15), rng.uniform(20, 80)
            else:
                w, h = rng.uniform(5, 60), rng.uniform(5, 20)
            boxes.append(Box(text=rng.choice(_WORDS), x1=x, y1=y, x2=x + w, y2=y + h))
        if i % 10 == 5:  # a tall band, k thin bands, then a box only the tall band can take
            k = rng.randint(5, 10)
            boxes = [Box(text="tall", x1=0, y1=0, x2=9, y2=100)]
            boxes += [Box(text=f"t{j}", x1=0, y1=58 + 5 * j, x2=30, y2=63 + 5 * j) for j in range(k)]
            boxes.append(Box(text="probe", x1=40, y1=15 + 5 * k, x2=49, y2=115 + 5 * k))
            if rng.random() < 0.5:  # the same shape on the x axis
                boxes = [Box(text=b.text, x1=-b.y2, y1=b.x1, x2=-b.y1, y2=b.x2) for b in boxes]
        blocks = [rng.choice(_WORDS) for _ in range(rng.randint(0, 2))]
        sets.append((boxes, blocks))
    return sets


def _merges(seed: int = 37, n: int = 400) -> list:
    """Merge states, page assignments with ``-1`` buckets and source names
    through both ``only_empty_pages`` gates; (hits, resulting pages) each."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        n_pages = rng.randint(1, 4)
        names = [f"p{i + 1:04d}" for i in range(n_pages)]
        box = Box(text=rng.choice(_WORDS), x1=0, y1=0, x2=5, y2=5)
        result = {
            i: PageOcr(tokens=[box] * rng.randint(0, 1),
                       text_blocks=[rng.choice(_WORDS) for _ in range(rng.randint(0, 2))])
            for i in range(n_pages)
        }
        pages = [-1] + list(range(n_pages + 1))
        tokens = {p: [box] * rng.randint(0, 2) for p in rng.sample(pages, rng.randint(0, 3))}
        texts = {p: [rng.choice(_WORDS)] for p in rng.sample(pages, rng.randint(0, 3))}
        src = rng.choice(["", "doc.json", "doc_p0002.json", "page3.json", "x_0001.json"])
        hits = _guarded(merge_assignments, result, tokens, texts, src, names, only_empty_pages=rng.random() < 0.5)
        out.append((hits, sorted(result.items())))
    return out


def _extract_turn_groups() -> dict[str, str]:
    texts = [r["text"] for r in generate_rows(n_convs=200, seed=13)]
    import pyarrow as pa

    kinds = classify_text_array(pa.array(texts, type=pa.string())).to_pylist()
    by_kind: dict[str, list] = {}
    for text, kind in zip(texts, kinds):
        by_kind.setdefault(kind, []).append(extract_turn(text, kind))
    return {f"extract_turn.{k}": _digest(v) for k, v in sorted(by_kind.items())}


def compute_digests() -> dict[str, str]:
    out = _extract_turn_groups()
    payloads = _structured_payloads()
    names = [f"p{i + 1:04d}" for i in range(4)]
    out["extract_turn.pdfish_structured"] = _digest(
        extract_turn(p, "pdfish") for p in payloads
    )
    out["extract_paged_turn"] = _digest(
        _guarded(extract_paged_turn, p, src) for p in payloads for src in ("", "doc_p0002.json")
    )
    out["infer_page_count"] = _digest(infer_page_count(p) for p in payloads)
    out["parse_pdfish_payload"] = _digest(_guarded(parse_pdfish_payload, p) for p in payloads)
    out["parse_pdfish_pages"] = _digest(
        _guarded(parse_pdfish_pages, p, n, names[:n]) for p in payloads for n in (1, 3, 4)
    )
    out["merge_assignments"] = _digest(_merges())
    sets = _box_sets()
    out["group_into_lines"] = _digest(lay.group_into_lines(b) for b, _ in sets)
    out["group_into_vertical_columns"] = _digest(
        lay.group_into_vertical_columns(b) for b, _ in sets
    )
    out["is_vertical_layout"] = _digest(lay.is_vertical_layout(b) for b, _ in sets)
    out["assemble_layout_text"] = _digest(
        lay.assemble_layout_text(lay.dedup_boxes(b), lay.dedup_blocks(bl)) for b, bl in sets
    )
    return out


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return compute_digests()


@pytest.mark.parametrize("group", sorted(EXPECTED))
def test_kernel_digest(digests, group):
    assert digests.get(group) == EXPECTED[group], f"{group} output drifted"


if __name__ == "__main__":
    for name, value in sorted(compute_digests().items()):
        print(f'    "{name}": "{value}",')
