"""Deterministic synthetic transcript tables (FIXTURES.md).

Schema (exactly the ``input_hint`` shape):

    conv_id: string, turn_idx: int32, role: string, text: string,
    tool: string, ts: timestamp[us]

Payload mix per turn ≈ 48% plain / 28% html / 16% pdfish / 6% xml /
2% empty-garbage,
covering every normalization rule, clustering tolerance boundary, bbox/text
key spelling, and error-isolation case. Hot conversations (~1 in 25, with
50× the median turn count) exercise skew handling. Rows are written in
shuffled order so pipelines must restore (conv_id, turn_idx) order.

Everything is seeded (``random.Random``); timestamps derive from a fixed
epoch — no wall-clock, no external data. The same (seed, n_convs) always
produces byte-identical tables.
"""

from __future__ import annotations

import datetime as dt
import json
import random
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

_BASE_TS = dt.datetime(2025, 1, 1, 0, 0, 0)

_ROLES = ("user", "assistant", "tool", "system")
_TOOLS = ("search", "calculator", "browser", "executor")

_ASCII_WORDS = (
    "the quick brown fox jumps over lazy dog alpha beta gamma delta "
    "invoice total amount report section figure table chapter appendix "
    "model data pipeline shuffle batch actor arrow block stream"
).split()
_CJK_WORDS = (
    "これはテストです 日本語の文章 漢字とカタカナ 東京都千代田区 合計金額 "
    "請求書番号 第一章 概要説明 図表一覧 注意事項 令和七年 株式会社"
).split()
_BRACKET_PAIRS = [("（", "）"), ("(", ")"), ("[", "]"), ("【", "】"), ("「", "」"), ("『", "』")]
_BULLETS = ["●", "•"]

_HOT_EVERY = 25
_HOT_MULTIPLIER = 50
_MEDIAN_TURNS = 8


# ---------------------------------------------------------------------------
# plain payloads — every normalization rule family gets airtime
# ---------------------------------------------------------------------------

def _plain_payload(rng: random.Random) -> str:
    parts: list[str] = []
    for _ in range(rng.randrange(1, 6)):
        kind = rng.randrange(8)
        if kind == 0:  # CJK with stray inner spaces
            w = rng.choice(_CJK_WORDS)
            cut = rng.randrange(1, max(2, len(w)))
            parts.append(w[:cut] + " " * rng.randrange(1, 3) + w[cut:])
        elif kind == 1:  # letter/digit boundary
            parts.append(f"{rng.choice(_ASCII_WORDS)} {rng.randrange(1000)}")
        elif kind == 2:  # currency
            parts.append(f"{rng.choice(['¥', '￥'])} {rng.randrange(100000)}")
        elif kind == 3:  # brackets with inner spaces
            a, b = rng.choice(_BRACKET_PAIRS)
            parts.append(f"{a} {rng.choice(_ASCII_WORDS + _CJK_WORDS)} {b}")
        elif kind == 4:  # bullets
            parts.append(f"{rng.choice(_BULLETS)} {rng.choice(_ASCII_WORDS)}")
        elif kind == 5:  # plain ascii sentence
            parts.append(" ".join(rng.choice(_ASCII_WORDS) for _ in range(rng.randrange(3, 9))))
        elif kind == 6:  # punctuation spacing
            parts.append(f"{rng.choice(_ASCII_WORDS)} , {rng.choice(_ASCII_WORDS)} 。")
        else:  # mixed JP + ascii line
            parts.append(f"{rng.choice(_CJK_WORDS)} {rng.choice(_ASCII_WORDS)} {rng.choice(_CJK_WORDS)}")
    sep = rng.choice(["  ", " ", "\t", "\r\n", "\n", "\f"])
    text = sep.join(parts)
    if rng.random() < 0.1:  # idempotence probe: pre-normalized text
        from ..functions.textnorm import normalize_text

        text = normalize_text(text)
    return text


# ---------------------------------------------------------------------------
# html payloads — main content + boilerplate + nesting traps
# ---------------------------------------------------------------------------

def _sentence(rng: random.Random) -> str:
    return " ".join(rng.choice(_ASCII_WORDS) for _ in range(rng.randrange(4, 10)))


def _html_payload(rng: random.Random) -> str:
    paras = [f"<p>{_sentence(rng)}</p>" for _ in range(rng.randrange(1, 5))]
    nav = "<nav><a href='/a'>home</a> <a href='/b'>about</a> <a href='/c'>contact</a></nav>"
    footer = f"<footer>© 2025 {rng.choice(_ASCII_WORDS)} inc</footer>"
    script = "<script>var x = 42; track();</script>"
    linkfarm = (
        "<div>"
        + " ".join(f"<a href='/l{i}'>{rng.choice(_ASCII_WORDS)}</a>" for i in range(8))
        + "</div>"
    )
    pieces = [nav, script] + paras + [linkfarm, footer]
    if rng.random() < 0.3:  # nested region trap: parent div wrapping the paras
        body = "".join(paras)
        pieces = [nav, f"<div class='main'><div>{body}</div></div>", script, linkfarm, footer]
    if rng.random() < 0.2:  # attribute-carried text
        pieces.insert(rng.randrange(len(pieces)), f"<p content='{_sentence(rng)}'></p>")
    rng.shuffle(pieces)
    if rng.random() < 0.5:
        return f"<html><body>{''.join(pieces)}</body></html>"
    return "".join(pieces)


# ---------------------------------------------------------------------------
# pdfish payloads — positioned boxes across spellings / orientations / dups
# ---------------------------------------------------------------------------

def _bbox_spelling(rng: random.Random, x1: float, y1: float, x2: float, y2: float) -> dict:
    style = rng.randrange(6)
    if style == 0:
        return {"bbox": [x1, y1, x2, y2]}
    if style == 1:
        return {"x": x1, "y": y1, "w": x2 - x1, "h": y2 - y1}
    if style == 2:
        return {"left": x1, "top": y1, "width": x2 - x1, "height": y2 - y1}
    if style == 3:
        return {"xmin": x1, "ymin": y1, "xmax": x2, "ymax": y2}
    if style == 4:
        return {"x1": x1, "y1": y1, "x2": x2, "y2": y2}
    return {"boundingBox": [[x1, y1], [x2, y1], [x2, y2], [x1, y2]]}


_TEXT_SPELLINGS = ("text", "content", "string", "STRING", "ocr_text", "transcription")


def _pdfish_payload(rng: random.Random) -> str:
    vertical = rng.random() < 0.15
    entries: list[dict] = []
    if vertical:
        # tall boxes in 2-3 right-to-left columns
        for col in range(rng.randrange(2, 4)):
            x = 400 - col * 40
            y = 20.0
            for _ in range(rng.randrange(4, 9)):
                word = rng.choice(_CJK_WORDS)[: rng.randrange(1, 4)]
                h = rng.uniform(28, 60)
                entry = {rng.choice(_TEXT_SPELLINGS): word}
                entry.update(_bbox_spelling(rng, x, y, x + rng.uniform(8, 14), y + h))
                entries.append(entry)
                y += h + rng.uniform(0, 6)
    else:
        y = 20.0
        for _ in range(rng.randrange(2, 7)):
            x = 20.0
            h = rng.uniform(9, 14)
            for _ in range(rng.randrange(2, 8)):
                word = rng.choice(_ASCII_WORDS if rng.random() < 0.6 else _CJK_WORDS)
                w = max(6.0, len(word) * rng.uniform(5, 9))
                entry = {rng.choice(_TEXT_SPELLINGS): word}
                entry.update(_bbox_spelling(rng, x, y, x + w, y + h))
                entries.append(entry)
                # gaps straddling the 0.45 / 0.90 spacing thresholds
                x += w + h * rng.choice([0.1, 0.3, 0.44, 0.46, 0.6, 0.89, 0.91, 1.5])
            y += h + rng.uniform(2, 8)
    if entries and rng.random() < 0.3:  # duplicate token with jittered bbox
        src = dict(rng.choice(entries))
        entries.append(src)
    if rng.random() < 0.15:  # free text leaf, no bbox
        entries.append({"text": _sentence(rng), "id": rng.randrange(100)})
    if rng.random() < 0.2:  # nested container shape
        return json.dumps({"contents": [entries], "imginfo": {"img_name": "frag_p001.png"}})
    return json.dumps(entries)


# ---------------------------------------------------------------------------
# xml payloads — NDLOCR PAGE/LINE, ALTO String, PAGE-XML Coords variants
# ---------------------------------------------------------------------------

def _xml_payload(rng: random.Random) -> str:
    style = rng.randrange(3)
    words = [rng.choice(_ASCII_WORDS + _CJK_WORDS) for _ in range(rng.randrange(2, 7))]
    if style == 0:
        # NDLOCR-lite: <PAGE><LINE X= Y= WIDTH= HEIGHT= STRING=/></PAGE>
        y = 30
        lines = []
        for w in words:
            lines.append(
                f'<LINE X="{20 + rng.randrange(5)}" Y="{y}" WIDTH="{8 * len(w)}" '
                f'HEIGHT="12" STRING="{w}"/>'
            )
            y += 16
        prolog = '<?xml version="1.0" encoding="utf-8"?>' if rng.random() < 0.7 else ""
        img = f' IMAGENAME="frag_p{rng.randrange(1, 20):03d}.png"' if rng.random() < 0.5 else ""
        return f"{prolog}<OCRDATASET><PAGE{img}>{''.join(lines)}</PAGE></OCRDATASET>"
    if style == 1:
        # ALTO: String CONTENT, sometimes with a bbox spelling, sometimes
        # HPOS/VPOS only (unknown spelling -> free-text path)
        strings = []
        y = 40
        for w in words:
            if rng.random() < 0.6:
                strings.append(
                    f'<String CONTENT="{w}" xmin="{20}" ymin="{y}" '
                    f'xmax="{20 + 8 * len(w)}" ymax="{y + 12}"/>'
                )
            else:
                strings.append(f'<String CONTENT="{w}" HPOS="20" VPOS="{y}"/>')
            y += 16
        ns = ' xmlns="http://www.loc.gov/standards/alto/ns-v3#"' if rng.random() < 0.5 else ""
        return f'<alto{ns}><Layout><TextLine>{"".join(strings)}</TextLine></Layout></alto>'
    # PAGE-XML: TextLine with <Coords points=> and nested <Unicode> text
    y = 50
    tls = []
    for w in words:
        x2 = 30 + 8 * len(w)
        tls.append(
            f'<TextLine><Coords points="30,{y} {x2},{y} {x2},{y + 14} 30,{y + 14}"/>'
            f"<TextEquiv><Unicode>{w}</Unicode></TextEquiv></TextLine>"
        )
        y += 18
    ns = ' xmlns="http://schema.primaresearch.org/PAGE/gts/pagecontent/2019-07-15"'
    return f"<PcGts{ns}><Page>{''.join(tls)}</Page></PcGts>"


def _garbage_payload(rng: random.Random) -> str:
    return rng.choice(
        [
            "",
            "   \t  \n ",
            '{"text": "truncated',
            "[{'bad': json}",
            "<<<>>",
            "\x00\x01\x02binary-ish\x03",
            "{}",
            "[]",
            '<?xml version="1.0"?><PAGE><LINE X="1" STRING="cut',
        ]
    )


# ---------------------------------------------------------------------------
# table assembly
# ---------------------------------------------------------------------------

def _payload_with_family(rng: random.Random) -> tuple[str, str]:
    """(payload, construction family) — the family is GENERATION knowledge
    (which branch built the text), consumed by ``expected_action`` to derive
    an engine-independent expected outcome per turn."""
    r = rng.random()
    if r < 0.48:
        return _plain_payload(rng), "plain"
    if r < 0.76:
        return _html_payload(rng), "html"
    if r < 0.92:
        return _pdfish_payload(rng), "pdfish"
    if r < 0.98:
        return _xml_payload(rng), "xml"
    return _garbage_payload(rng), "garbage"


def expected_action(text: str, family: str) -> str:
    """Expected extraction action for a generated turn, derived from
    construction knowledge — NOT from running the structured extractors.

    Trust decomposition (what makes this an oracle rather than a tautology):

    - the sniff decision reuses ``classify_one``, which carries its own
      green value-level SQL oracle (``docs_sniff_kind`` / kind counts);
    - turns sniffed PLAIN run exactly ``extract_plain`` in the engine, and
      the plain path carries its own green SQL oracle — so reusing it here
      adds no unverified trust;
    - the NEW fact this pins: a turn sniffed as the structured kind its
      family CONSTRUCTED must parse and yield text (action="extracted"),
      and a turn sniffed structured that was NOT built as that structure
      must fail the parse and take the M7 plain fallback. Those parse
      decisions are exactly what no live SQL can express.
    """
    from ..stages.extract import extract_plain
    from ..stages.sniffer import classify_one

    kind = classify_one(text or "")
    if kind == "empty":
        return "empty"
    if kind == "plain":
        extracted, _ = extract_plain(text)
        if not extracted:
            return "empty"
        return "skipped_clean" if extracted == text else "extracted"
    if family == kind:
        # constructed as this structure: every generator branch plants ≥1
        # non-empty token/paragraph, so the parse must succeed with text
        return "extracted"
    # sniffed structured, built as something else (a plain part starting
    # with "[", a garbage literal): the parse must fail or yield nothing →
    # M7 fallback through the plain extractor
    extracted, _ = extract_plain(text)
    return "extracted_fallback" if extracted else "empty"


def generate_rows(
    n_convs: int, seed: int, first_conv: int = 0, with_family: bool = False
) -> list[dict]:
    """Generate transcript rows for ``n_convs`` conversations, shuffled.

    ``first_conv`` offsets conversation ids so multiple shards can be
    generated independently (and in parallel) without key collisions.
    ``with_family`` adds the construction-family label to each row (same
    rng stream — the payload bytes are identical either way).
    """
    rng = random.Random(seed)
    rows: list[dict] = []
    for c in range(first_conv, first_conv + n_convs):
        conv_id = f"conv-{c:08d}"
        hot = (c % _HOT_EVERY) == 0
        n_turns = _MEDIAN_TURNS * _HOT_MULTIPLIER if hot else rng.randrange(2, 2 * _MEDIAN_TURNS)
        for t in range(n_turns):
            role = _ROLES[t % len(_ROLES)]
            text, family = _payload_with_family(rng)
            row = {
                "conv_id": conv_id,
                "turn_idx": t,
                "role": role,
                "text": text,
                "tool": rng.choice(_TOOLS) if role == "tool" else "",
                "ts": _BASE_TS + dt.timedelta(seconds=t),
            }
            if with_family:
                row["family"] = family
            rows.append(row)
    rng.shuffle(rows)
    return rows


def rows_to_table(rows: list[dict]) -> pa.Table:
    return pa.Table.from_pylist(rows, schema=TRANSCRIPT_SCHEMA)


def write_transcript_jsonl(
    path: str | Path,
    n_convs: int,
    seed: int,
    first_conv: int = 0,
) -> int:
    """Write the same deterministic rows as NDJSON (one object per line).

    Byte-for-byte the same payloads as the parquet writer — only the
    container differs (``ts`` serialized as ISO-8601). Exists to prove
    source-format interchangeability: ``ray.data.read_json`` over this file
    must extract identically to ``read_parquet`` over the parquet twin.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = generate_rows(n_convs, seed, first_conv)
    with open(path, "w", encoding="utf-8") as f:
        for r in rows:
            rec = dict(r)
            rec["ts"] = rec["ts"].isoformat()
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")
    return len(rows)


def write_transcript_csv(
    path: str | Path,
    n_convs: int,
    seed: int,
    first_conv: int = 0,
) -> int:
    """Write the same deterministic rows as CSV (QUOTE_ALL, header row).

    Byte-for-byte the same payloads as the parquet writer — only the
    container differs (``ts`` ISO-8601, every field quoted so empty strings
    survive both parsers as empty strings, payload newlines/commas ride
    inside quotes). Proves the third source format: ``ray.data.read_csv``
    over this file must extract identically to the parquet and NDJSON
    twins.
    """
    import csv

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = generate_rows(n_convs, seed, first_conv)
    fields = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields, quoting=csv.QUOTE_ALL)
        w.writeheader()
        for r in rows:
            rec = dict(r)
            rec["ts"] = rec["ts"].isoformat()
            w.writerow(rec)
    return len(rows)


def write_transcripts(
    path: str | Path,
    n_convs: int,
    seed: int,
    first_conv: int = 0,
    row_group_size: int = 2048,
) -> int:
    """Write one deterministic transcript parquet shard; returns row count.

    Small row groups (default 4096 rows) let Ray Data split a single file
    into multiple read blocks — a one-row-group file serializes the read.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    table = rows_to_table(generate_rows(n_convs, seed, first_conv))
    pq.write_table(table, path, row_group_size=row_group_size)
    return table.num_rows


def write_transcript_shards(
    dir_path: str | Path,
    *,
    n_convs: int,
    seed: int,
    n_shards: int,
) -> list[str]:
    """Write ``n_shards`` deterministic transcript shards under ``dir_path``.

    Shard i covers conversations ``[i*convs_per_shard, ...)`` with seed
    ``seed + i`` — the content depends only on (seed, n_convs, n_shards),
    never on parallelism. Generation fans out as Ray tasks when a Ray
    session exists (the driver-side loop would otherwise dominate bench
    setup); falls back to a sequential loop otherwise.
    """
    import ray

    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    per_shard = (n_convs + n_shards - 1) // n_shards
    jobs = []
    for i in range(n_shards):
        first = i * per_shard
        count = min(per_shard, n_convs - first)
        if count <= 0:
            break
        jobs.append((i, first, count))
    paths = [str(dir_path / f"shard-{i:05d}.parquet") for i, _, _ in jobs]

    def _one(i: int, first: int, count: int) -> None:
        tmp = dir_path / f".shard-{i:05d}.tmp.parquet"
        write_transcripts(tmp, n_convs=count, seed=seed + i, first_conv=first)
        tmp.replace(dir_path / f"shard-{i:05d}.parquet")

    if ray.is_initialized():
        task = ray.remote(num_cpus=1)(_one)
        ray.get([task.remote(i, first, count) for i, first, count in jobs])
    else:
        for i, first, count in jobs:
            _one(i, first, count)
    return paths
