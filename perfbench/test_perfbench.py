"""Self-tests of the benchmark's generator and correctness gate.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import gate  # noqa: E402
from pdf_ocr_batch_ndrocr_lite_ray.oracle import oracle_extract_table  # noqa: E402
from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import rows_to_table  # noqa: E402
from pdf_ocr_batch_ndrocr_lite_ray.stages.sniffer import classify_text_array  # noqa: E402

N_TURNS = 400


def _shard_bytes(tmp_path: Path, name: str, seed: int) -> list[bytes]:
    rows = corpus.build_rows(corpus.MIXED_STRATA, N_TURNS, seed)
    paths = corpus.write_shards(rows, tmp_path / name, 4, seed)
    return [Path(p).read_bytes() for p in paths]


def test_generator_is_byte_identical_for_one_seed(tmp_path):
    assert _shard_bytes(tmp_path, "a", 7) == _shard_bytes(tmp_path, "b", 7)


def test_generator_differs_between_seeds(tmp_path):
    assert _shard_bytes(tmp_path, "a", 7) != _shard_bytes(tmp_path, "b", 8)


def test_generator_meets_the_stratum_quotas():
    rows = corpus.build_rows(corpus.MIXED_STRATA, N_TURNS, 3)
    assert len({(r["conv_id"], r["turn_idx"]) for r in rows}) == N_TURNS
    want: Counter = Counter()
    for (_family, kind), n in corpus.quotas(corpus.MIXED_STRATA, N_TURNS).items():
        want[kind] += n
    kinds = classify_text_array(pa.array([r["text"] for r in rows], pa.string()))
    assert Counter(kinds.to_pylist()) == want


@pytest.fixture(scope="module")
def oracle() -> pa.Table:
    return oracle_extract_table(rows_to_table(corpus.build_rows(corpus.MIXED_STRATA, N_TURNS, 5)))


def test_gate_accepts_the_oracle_in_any_order(oracle):
    expected = gate.Expected.from_oracle(oracle)
    verdict = gate.check_table(expected, oracle.take(pa.array(range(N_TURNS - 1, -1, -1))))
    assert verdict.ok, verdict.problems
    assert verdict.degraded_turns == expected.actions["extracted_fallback"] > 0


def test_gate_rejects_a_dropped_row(oracle):
    verdict = gate.check_table(gate.Expected.from_oracle(oracle), oracle.slice(1))
    assert not verdict.ok
    assert verdict.missing == 1


def test_gate_rejects_a_duplicated_row(oracle):
    doubled = pa.concat_tables([oracle, oracle.slice(0, 1)])
    verdict = gate.check_table(gate.Expected.from_oracle(oracle), doubled)
    assert not verdict.ok
    assert verdict.duplicated == 1


def test_gate_rejects_one_altered_text(oracle):
    texts = oracle["extracted_text"].to_pylist()
    texts[N_TURNS // 2] += "!"
    altered = oracle.set_column(
        oracle.schema.get_field_index("extracted_text"),
        "extracted_text",
        pa.array(texts, pa.string()),
    )
    verdict = gate.check_table(gate.Expected.from_oracle(oracle), altered)
    assert not verdict.ok
    assert verdict.mismatched == 1


def test_gate_rejects_rows_out_of_order(oracle):
    verdict = gate.check_table(gate.Expected.from_oracle(oracle), oracle)
    gate.check_sorted(oracle, verdict)
    assert verdict.ok
    shuffled = oracle.take(pc.sort_indices(oracle["extracted_text"]))
    gate.check_sorted(shuffled, verdict)
    assert not verdict.ok
