"""Fault and memory robustness: task retries and tiny-block backpressure.

The reference isolates per-item errors but has no retry story (SURVEY.md
§4); Ray supplies task-level retries. These tests pin that the engine's
stages actually survive them: a transform that crashes the first time each
worker process sees it must still yield a complete, correct result, and a
run under a tiny ``target_max_block_size`` must split blocks rather than
die.
"""

from __future__ import annotations

import os
import tempfile

import pyarrow as pa
import pytest


def _flaky_once(marker_dir: str):
    """Batch fn that raises exactly once per worker process, then works."""

    def fn(batch: pa.Table) -> pa.Table:
        marker = os.path.join(marker_dir, f"pid-{os.getpid()}")
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("crashed")
            raise RuntimeError("injected transient failure")
        return batch

    return fn


class TestFaultTolerance:
    def test_transient_task_failure_retries_to_completion(self, ray_session, tmp_path):
        import ray
        import ray.data

        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import build_extraction
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import write_transcripts

        src = tmp_path / "in.parquet"
        write_transcripts(src, n_convs=8, seed=11)
        marker_dir = tempfile.mkdtemp(dir=str(tmp_path))

        ds = ray.data.read_parquet(str(src))
        # injected flaky stage BEFORE extraction; Ray retries the failed
        # task on the same (now-marked) or another worker
        ds = ds.map_batches(
            _flaky_once(marker_dir),
            batch_format="pyarrow",
            # application exceptions are only retried when opted in;
            # system failures (worker death) retry by default
            max_retries=4,
            retry_exceptions=True,
        )
        ds = build_extraction(ds)
        out = ds.to_pandas()

        import pyarrow.parquet as pq

        expected_rows = pq.read_metadata(str(src)).num_rows
        assert len(out) == expected_rows
        assert set(out.action.unique()) <= {
            "extracted", "extracted_fallback", "skipped_clean", "empty", "error",
        }
        # the failure actually fired at least once
        assert len(os.listdir(marker_dir)) >= 1

    def test_tiny_block_size_still_completes(self, ray_session, tmp_path):
        import ray.data
        from ray.data.context import DataContext

        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import (
            extract_transcripts,
        )
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import write_transcripts

        src = tmp_path / "in.parquet"
        write_transcripts(src, n_convs=12, seed=13)

        ctx = DataContext.get_current()
        prev = ctx.target_max_block_size
        try:
            ctx.target_max_block_size = 64 * 1024  # 64 KiB: force splitting
            out = extract_transcripts(str(src), order=True).to_pandas()
        finally:
            ctx.target_max_block_size = prev

        import pyarrow.parquet as pq

        assert len(out) == pq.read_metadata(str(src)).num_rows
        # canonical order held through the many tiny blocks
        assert out.groupby("conv_id").turn_idx.apply(
            lambda s: (s.values == sorted(s.values)).all()
        ).all()


class TestRowBudgetGuard:
    """SURVEY §4 straggler guard: one pathological row cannot wedge a worker
    — it becomes an action="error" budget row; its batchmates extract fine."""

    def test_oversized_payload_is_flagged_not_processed(self):
        from pdf_ocr_batch_ndrocr_lite_ray.stages import extract as ex

        big = "x" * (ex.MAX_TURN_CHARS + 1)
        text, spans, action, err = ex.extract_turn(big, "plain")
        assert action == ex.ACTION_ERROR
        assert err.startswith(ex.ERROR_BUDGET)
        assert text == "" and spans == []

    def test_multi_mb_adversarial_payload_completes_within_budget(self):
        """A multi-MB payload of spaces between CJK chars finishes quickly:
        the rules delete every such space in one scan and the batch keeps
        going."""
        import time

        from pdf_ocr_batch_ndrocr_lite_ray.stages import extract as ex

        nasty = ("あ " * 1_500_000) + "。"  # ~3M chars of CJK-space bait
        rows = ["clean text one", nasty, "clean text two"]
        start = time.monotonic()
        out = [ex.extract_turn(t, "plain") for t in rows]
        elapsed = time.monotonic() - start
        assert elapsed < ex.TURN_BUDGET_SECONDS + 10
        # batchmates unaffected
        assert out[0][2] == ex.ACTION_SKIPPED_CLEAN and out[0][0] == "clean text one"
        assert out[2][2] == ex.ACTION_SKIPPED_CLEAN
        # the nasty row either completed (one scan keeps it cheap) or was
        # flagged over-budget — never raised, never hung
        assert out[1][2] in (
            ex.ACTION_EXTRACTED,
            ex.ACTION_SKIPPED_CLEAN,
            ex.ACTION_ERROR,
        )

    def test_budget_exceeded_action_on_slow_row(self):
        """With a microscopic budget an adversarial row is flagged
        budget_exceeded while the next (fast) row extracts normally —
        the deadline is re-armed per row."""
        from pdf_ocr_batch_ndrocr_lite_ray.stages import extract as ex

        old = ex.TURN_BUDGET_SECONDS
        ex.TURN_BUDGET_SECONDS = 1e-9
        try:
            nasty = ("あ " * 200_000) + "。"
            _, _, action, err = ex.extract_turn(nasty, "plain")
            assert (action, err) == (ex.ACTION_ERROR, ex.ERROR_BUDGET)
        finally:
            ex.TURN_BUDGET_SECONDS = old
        # deadline disarmed: subsequent rows are unaffected
        text, _, action, _ = ex.extract_turn("hello world", "plain")
        assert action == ex.ACTION_SKIPPED_CLEAN and text == "hello world"

    def test_bait_reaches_fixpoint_in_one_call(self):
        """A long string of CJK-space pairs comes out of one call as a true
        fixpoint: a second call changes nothing."""
        from pdf_ocr_batch_ndrocr_lite_ray.functions import textnorm

        bait = ("あ " * 500) + "!"
        for f in (textnorm.normalize_text, textnorm.collapse_spaces_japanese):
            out = f(bait)
            assert f(out) == out
