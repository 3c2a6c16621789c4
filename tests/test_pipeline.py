"""End-to-end golden tests: Ray pipeline output ≡ single-process oracle,
plus checkpoint/resume equivalence and parallelism-invariance of results."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_ocr_batch_ndrocr_lite_ray.oracle import GOLDEN_COLUMNS, oracle_extract_parquet


def _canon(table: pa.Table) -> pa.Table:
    cols = [c for c in GOLDEN_COLUMNS if c in table.column_names]
    return (
        table.select(cols)
        .sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
        .combine_chunks()
    )


def _assert_tables_equal(ours: pa.Table, golden: pa.Table):
    ours, golden = _canon(ours), _canon(golden)
    assert ours.num_rows == golden.num_rows
    assert ours.column_names == golden.column_names
    for name in ours.column_names:
        a, b = ours[name].to_pylist(), golden[name].to_pylist()
        if a != b:
            for i, (x, y) in enumerate(zip(a, b)):
                assert x == y, f"column {name} row {i}: {x!r} != {y!r}"
    assert ours.equals(golden) or ours.to_pylist() == golden.to_pylist()


class TestGoldenPipeline:
    def test_pipeline_matches_oracle(self, ray_session, tiny_transcripts):
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import extract_transcripts

        golden = oracle_extract_parquet(tiny_transcripts)
        ours = extract_transcripts(
            str(tiny_transcripts), batch_size=32, order=True
        ).to_arrow_refs()
        import ray

        ours = pa.concat_tables([ray.get(r) for r in ours])
        _assert_tables_equal(ours, golden)

    def test_pipeline_matches_oracle_second_seed(self, ray_session, tmp_path):
        """Full-output golden parity on a second corpus seed (VERDICT r3 #6):
        the flagship query is rows-only forever by oracle floor, so this is
        its end-to-end drift net — a different seed and corpus size than both
        the registry corpus (seed 42) and the tiny fixture (seed 7), catching
        kernel drift the per-family oracles can't see composed."""
        import ray

        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import (
            extract_transcripts,
        )
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import (
            write_transcripts,
        )

        path = tmp_path / "seed1234.parquet"
        write_transcripts(path, n_convs=60, seed=1234)
        golden = oracle_extract_parquet(path)
        refs = extract_transcripts(str(path), order=True).to_arrow_refs()
        ours = pa.concat_tables([ray.get(r) for r in refs])
        _assert_tables_equal(ours, golden)

    def test_all_actions_present(self, tiny_transcripts):
        golden = oracle_extract_parquet(tiny_transcripts)
        actions = set(golden["action"].to_pylist())
        # the fixture mix must exercise every reachable action family
        # (action="error" needs an unknown kind or a non-fallback extractor
        # failure — pinned by unit tests; garbage payloads now FALL BACK)
        assert {"extracted", "empty", "extracted_fallback", "skipped_clean"} <= actions
        kinds = set(golden["content_kind"].to_pylist())
        assert {"plain", "html", "pdfish", "xml", "empty"} <= kinds

    def test_parallelism_invariance(self, ray_session, tiny_transcripts):
        """Result is a function of the input, not of block count — the
        property that makes the N vs 4N cluster runs byte-comparable."""
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import (
            extract_transcripts,
        )

        lo = extract_transcripts(
            tiny_transcripts, override_num_blocks=2, order=True
        ).to_arrow_refs()
        import ray as _ray
        import pyarrow as _pa

        lo_tbl = _pa.concat_tables(_ray.get(lo))
        hi = extract_transcripts(
            tiny_transcripts, override_num_blocks=16, order=True
        ).to_arrow_refs()
        hi_tbl = _pa.concat_tables(_ray.get(hi))
        assert _canon(lo_tbl).to_pylist() == _canon(hi_tbl).to_pylist()

    def test_batch_size_invariance(self, ray_session, tiny_transcripts):
        """Results must not depend on batching (block boundaries)."""
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import extract_transcripts

        a = extract_transcripts(str(tiny_transcripts), batch_size=7).take_all()
        b = extract_transcripts(str(tiny_transcripts), batch_size=512).take_all()
        key = lambda r: (r["conv_id"], r["turn_idx"])
        a, b = sorted(a, key=key), sorted(b, key=key)
        assert [r["extracted_text"] for r in a] == [r["extracted_text"] for r in b]
        assert [r["spans"] for r in a] == [r["spans"] for r in b]


class TestOrderRestore:
    """``order=True`` skips the global sort only when the Parquet footers
    prove disjoint ``conv_id`` ranges; either way the rows come back in
    physical ``(conv_id, turn_idx)`` order."""

    @staticmethod
    def _write(path, rows, row_group_size=64, **kwargs):
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import rows_to_table

        pq.write_table(rows_to_table(rows), path, row_group_size=row_group_size, **kwargs)
        return str(path)

    @staticmethod
    def _rows_as_returned(ds) -> pa.Table:
        import ray

        return pa.concat_tables([ray.get(r) for r in ds.to_arrow_refs()])

    @staticmethod
    def _assert_physically_sorted(table: pa.Table):
        keys = list(zip(table["conv_id"].to_pylist(), table["turn_idx"].to_pylist()))
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_overlapping_shards_take_global_sort(self, ray_session, tmp_path):
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import (
            INPUT_COLUMNS,
            _sort_units,
            extract_transcripts,
        )
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import generate_rows

        rows = generate_rows(12, seed=5)
        # even / odd conversations: both shards span conv 0..11
        overlapping = [
            self._write(tmp_path / f"over-{k}.parquet",
                        [r for r in rows if int(r["conv_id"][5:]) % 2 == k])
            for k in (0, 1)
        ]
        # two conversations per shard: one sort unit per CPU or more
        disjoint = [
            self._write(tmp_path / f"disj-{k}.parquet",
                        [r for r in rows if int(r["conv_id"][5:]) // 2 == k])
            for k in range(6)
        ]
        assert _sort_units(overlapping, INPUT_COLUMNS, 1 << 27) is None
        assert len(_sort_units(disjoint, INPUT_COLUMNS, 1 << 27)) == 6
        slow_ds = extract_transcripts(overlapping, order=True)
        fast_ds = extract_transcripts(disjoint, order=True)
        assert "Sort" in repr(slow_ds)
        assert "Sort" not in repr(fast_ds)
        slow = self._rows_as_returned(slow_ds)
        fast = self._rows_as_returned(fast_ds)
        self._assert_physically_sorted(slow)
        assert slow.num_rows == len(rows)
        assert slow.combine_chunks().equals(fast.combine_chunks())

    def test_split_fragments_keep_physical_order(self, ray_session, tmp_path, tiny_transcripts):
        import ray.data

        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import extract_transcripts
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import write_transcripts

        # one file read as 16 blocks: Ray splits the fragment's read output
        one_file = self._rows_as_returned(
            extract_transcripts(tiny_transcripts, order=True, override_num_blocks=16)
        )
        self._assert_physically_sorted(one_file)
        assert one_file.num_rows == oracle_extract_parquet(tiny_transcripts).num_rows

        # disjoint shards, each larger than the blocks the context allows
        paths = []
        for i in range(3):
            p = tmp_path / f"shard-{i}.parquet"
            write_transcripts(p, n_convs=5, seed=40 + i, first_conv=5 * i)
            paths.append(str(p))
        ctx = ray.data.DataContext.get_current()
        saved = ctx.target_max_block_size
        ctx.target_max_block_size = 4096
        try:
            ds = extract_transcripts(paths, order=True)
            assert ds.context.target_max_block_size == 4096
            tiny_blocks = self._rows_as_returned(ds)
        finally:
            ctx.target_max_block_size = saved
        self._assert_physically_sorted(tiny_blocks)
        assert tiny_blocks.num_rows == sum(pq.read_metadata(p).num_rows for p in paths)

    def test_dictionary_units_split_after_sort(self, ray_session, tmp_path):
        """A dictionary-encoded unit decodes far larger than its footer size:
        Ray splits the read output into many blocks, and the rows still come
        back sorted because each unit is sorted before the split."""
        import ray.data

        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import (
            INPUT_COLUMNS,
            _sort_units,
            extract_transcripts,
        )
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import generate_rows

        prompts = [f"system prompt {k}: " + "be brief and exact. " * 100 for k in range(5)]
        paths = []
        for i in range(4):
            rows = generate_rows(6, seed=60 + i, first_conv=6 * i)
            for j, row in enumerate(rows):
                row["text"] = prompts[j % len(prompts)]
            paths.append(self._write(
                tmp_path / f"dict-{i}.parquet", rows, row_group_size=4096, use_dictionary=True
            ))
        block = 64 * 1024
        units = _sort_units(paths, INPUT_COLUMNS, block)
        assert units is not None and len(units) == 4
        decoded = sum(pq.read_table(p).nbytes for p in paths)
        assert decoded > 4 * 2 * block
        ctx = ray.data.DataContext.get_current()
        saved = ctx.target_max_block_size
        ctx.target_max_block_size = block
        try:
            ds = extract_transcripts(paths, order=True)
            assert "Sort" not in repr(ds)
            refs = ds.to_arrow_refs()
        finally:
            ctx.target_max_block_size = saved
        assert len(refs) > len(units)
        got = pa.concat_tables([ray.get(r) for r in refs])
        self._assert_physically_sorted(got)
        golden = pa.concat_tables([oracle_extract_parquet(p) for p in paths])
        _assert_tables_equal(got, golden)

    def test_fewer_units_than_cpus_take_global_sort(self, ray_session, tmp_path):
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import (
            INPUT_COLUMNS,
            _sort_units,
            extract_transcripts,
        )
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import (
            write_transcript_shards,
        )

        # four CPUs in the session: two disjoint shards would run as two tasks
        paths = write_transcript_shards(tmp_path / "in", n_convs=20, seed=4, n_shards=2)
        assert len(_sort_units(paths, INPUT_COLUMNS, 1 << 27)) == 2
        ds = extract_transcripts(paths, order=True)
        assert "Sort" in repr(ds)
        got = self._rows_as_returned(ds)
        self._assert_physically_sorted(got)
        golden = pa.concat_tables([oracle_extract_parquet(p) for p in paths])
        _assert_tables_equal(got, golden)

    def test_disjoint_shards_write_in_file_name_order(self, ray_session, tmp_path):
        import ray.data

        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import (
            INPUT_COLUMNS,
            _sort_units,
            extract_transcripts,
        )
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import (
            write_transcript_shards,
        )

        paths = write_transcript_shards(tmp_path / "in", n_convs=40, seed=3, n_shards=6)
        assert _sort_units(paths, INPUT_COLUMNS, 1 << 27) is not None
        out = tmp_path / "out"
        ds = extract_transcripts(list(reversed(paths)), order=True)
        assert "Sort" not in repr(ds)
        ds.write_parquet(str(out))
        assert not ray.data.DataContext.get_current().execution_options.preserve_order
        files = sorted(out.glob("*.parquet"))
        assert len(files) > 1
        written = pa.concat_tables([pq.read_table(f) for f in files])
        self._assert_physically_sorted(written)
        golden = pa.concat_tables([oracle_extract_parquet(p) for p in paths])
        _assert_tables_equal(written, golden)


class TestRemoteArgs:
    """Workers that can import the package get no runtime env, so the
    flagship runs as one fused Ray Data operator; the env ships only when
    they cannot."""

    def test_flagship_is_one_fused_operator(self, ray_session, tmp_path):
        """Run from the repo root: Ray puts the driver's cwd on every
        worker's path, so no operator carries an env and read (or the
        ordered fast path's ``_read_sorted``), extract and write fuse."""
        from pathlib import Path

        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import (
            INPUT_COLUMNS,
            _cluster_cpus,
            _sort_units,
            extract_transcripts,
            package_remote_args,
        )
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import (
            write_transcript_shards,
        )

        if Path.cwd() != Path(__file__).resolve().parents[1]:
            pytest.skip("the plan fuses without an env only from the repo root")
        assert package_remote_args() == {}
        n_shards = max(6, _cluster_cpus())
        paths = write_transcript_shards(tmp_path / "in", n_convs=40, seed=3, n_shards=n_shards)
        assert len(_sort_units(paths, INPUT_COLUMNS, 1 << 27)) >= _cluster_cpus()
        plans = {
            False: "MapBatches(extract_batch)->Write",
            True: "MapBatches(_read_sorted)->MapBatches(extract_batch)->Write",
        }
        golden = pa.concat_tables([oracle_extract_parquet(p) for p in paths])
        for order, plan in plans.items():
            out = tmp_path / f"out-{order}"
            ds = extract_transcripts(paths, order=order)
            ds.write_parquet(str(out))
            operators = [
                line for line in ds.stats().splitlines() if line.startswith("Operator ")
            ]
            maps = [line for line in operators if "MapBatches" in line]
            assert len(maps) == 1 and plan in maps[0], "\n".join(operators)
            _assert_tables_equal(pq.read_table(out), golden)

    @staticmethod
    def _fake_worker(monkeypatch, get_job_config):
        import types

        import ray._private.worker

        core_worker = types.SimpleNamespace(get_job_config=get_job_config)
        monkeypatch.setattr(
            ray._private.worker,
            "global_worker",
            types.SimpleNamespace(core_worker=core_worker),
        )

    def test_no_env_when_package_parent_is_a_code_path(self, monkeypatch):
        import types
        from pathlib import Path

        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import package_remote_args

        parent = str(Path(__file__).resolve().parents[1])
        job = types.SimpleNamespace(py_driver_sys_path=["/elsewhere", parent])
        self._fake_worker(monkeypatch, lambda: job)
        assert "runtime_env" not in package_remote_args()

    def test_env_when_package_parent_is_not_a_code_path(self, monkeypatch):
        import os
        import types
        from pathlib import Path

        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import package_remote_args

        parent = str(Path(__file__).resolve().parents[1])
        job = types.SimpleNamespace(py_driver_sys_path=["/elsewhere"])
        self._fake_worker(monkeypatch, lambda: job)
        env = package_remote_args()["runtime_env"]
        assert parent in env["env_vars"]["PYTHONPATH"].split(os.pathsep)

    def test_env_when_job_config_is_unreadable(self, monkeypatch):
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import package_remote_args

        def boom():
            raise RuntimeError("no job config")

        self._fake_worker(monkeypatch, boom)
        assert "runtime_env" in package_remote_args()


class TestResume:
    def _write_shards(self, tmp_path, n_shards=4, convs_per_shard=6, seed=11):
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import write_transcripts

        paths = []
        for i in range(n_shards):
            p = tmp_path / f"shard-{i:03d}.parquet"
            write_transcripts(p, n_convs=convs_per_shard, seed=seed + i, first_conv=i * convs_per_shard)
            paths.append(str(p))
        return paths

    def test_prep_resumable_kill_equals_direct(self, ray_session, tmp_path):
        """The composed prep flow through the extraction checkpoint —
        killed after 2 fragments and resumed — equals the direct
        (non-checkpointed) composition on the same shards."""
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.conversations import (
            reassemble_conversations,
        )
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import (
            extract_transcripts,
        )
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.prep import (
            dedup_stats_split,
            prep_corpus_resumable,
            quality_gate,
        )

        paths = self._write_shards(tmp_path)
        ckpt = tmp_path / "prep_ckpt"

        # phase 1 "killed" after 2 fragments (result reflects partial input)
        partial = prep_corpus_resumable(paths, ckpt, max_partitions=2).to_pandas()
        # resumed: remaining fragments extract, composition sees everything
        resumed = (
            prep_corpus_resumable(paths, ckpt)
            .to_pandas()
            .sort_values("conv_id")
            .reset_index(drop=True)
        )
        assert len(resumed) > len(partial)

        ext = extract_transcripts(paths)
        direct = (
            dedup_stats_split(
                reassemble_conversations(
                    ext.map_batches(quality_gate, batch_format="pyarrow")
                )
            )
            .to_pandas()
            .sort_values("conv_id")
            .reset_index(drop=True)
        )
        assert resumed[direct.columns.tolist()].astype(str).equals(direct.astype(str))

    def test_kill_and_resume_equals_uninterrupted(self, ray_session, tmp_path):
        import ray
        from pdf_ocr_batch_ndrocr_lite_ray.state.checkpoint import (
            read_extracted,
            run_resumable_extraction,
        )

        paths = self._write_shards(tmp_path)

        # uninterrupted run
        full_dir = tmp_path / "full"
        report_full = run_resumable_extraction(paths, full_dir)
        assert report_full["partitions_committed"] == 4

        # killed after 2 partitions, then resumed
        resume_dir = tmp_path / "resumed"
        report_k = run_resumable_extraction(paths, resume_dir, max_partitions=2)
        assert report_k["partitions_committed"] == 2
        report_r = run_resumable_extraction(paths, resume_dir)
        assert report_r["partitions_committed"] == 4
        assert report_r["partitions_skipped_resume"] == 2

        full = pa.concat_tables(
            [ray.get(r) for r in read_extracted(full_dir).to_arrow_refs()]
        )
        resumed = pa.concat_tables(
            [ray.get(r) for r in read_extracted(resume_dir).to_arrow_refs()]
        )
        _assert_tables_equal(full, resumed)
        assert report_full["rows"] == report_r["rows"]
        assert report_full["actions"] == report_r["actions"]

        # manifests byte-identical between the two runs, and identical to a
        # local recount of the durable output — the counts the per-fragment
        # tasks return must equal a driver-side scan
        from pathlib import Path

        from pdf_ocr_batch_ndrocr_lite_ray.state.checkpoint import (
            _count_actions,
            completed_partitions,
        )

        full_m = completed_partitions(full_dir)
        res_m = completed_partitions(resume_dir)
        assert full_m.keys() == res_m.keys()
        for pid in full_m:
            f, r = dict(full_m[pid]), dict(res_m[pid])
            assert f == r  # same inputs → byte-identical manifests
            local = dict(_count_actions(Path(full_dir) / "data" / f"part_id={pid}"))
            assert f["actions"] == local

    def test_uneven_partition_is_torn_down_not_committed(
        self, ray_session, tmp_path, monkeypatch
    ):
        """A partition holding more rows than its input (here an orphan
        extracted file that a writer of an earlier attempt put back after
        the teardown) is torn down and the run raises; a resume then
        rewrites it."""
        import shutil
        from pathlib import Path

        import ray
        from pdf_ocr_batch_ndrocr_lite_ray.state import checkpoint
        from pdf_ocr_batch_ndrocr_lite_ray.state.checkpoint import (
            completed_partitions,
            part_id_for_path,
            read_extracted,
            run_resumable_extraction,
        )

        paths = self._write_shards(tmp_path, n_shards=2)
        run_resumable_extraction(paths[:1], tmp_path / "earlier")
        orphan = sorted((tmp_path / "earlier" / "data").rglob("*.parquet"))[0]
        out = tmp_path / "out"
        stale = out / "data" / f"part_id={part_id_for_path(paths[0])}"
        stale.mkdir(parents=True)
        rmtree = shutil.rmtree
        torn_down = []

        def rmtree_then_orphan(path, *args, **kwargs):
            rmtree(path, *args, **kwargs)
            if Path(path) == stale and not torn_down:
                torn_down.append(path)
                stale.mkdir()
                shutil.copy(orphan, stale / "orphan.parquet")

        monkeypatch.setattr(checkpoint.shutil, "rmtree", rmtree_then_orphan)
        with pytest.raises(RuntimeError, match="output rows != input rows"):
            run_resumable_extraction(paths, out)
        monkeypatch.undo()
        assert len(completed_partitions(out)) == 1
        assert len(list((out / "data").glob("part_id=*"))) == 1

        report = run_resumable_extraction(paths, out)
        assert report["partitions_committed"] == 2
        assert report["partitions_skipped_resume"] == 1
        golden = pa.concat_tables([oracle_extract_parquet(p) for p in paths])
        ours = pa.concat_tables(
            [ray.get(r) for r in read_extracted(out).to_arrow_refs()]
        )
        _assert_tables_equal(ours, golden)

    def test_rerun_is_noop(self, ray_session, tmp_path):
        from pdf_ocr_batch_ndrocr_lite_ray.state.checkpoint import run_resumable_extraction

        paths = self._write_shards(tmp_path, n_shards=2)
        out = tmp_path / "out"
        run_resumable_extraction(paths, out)
        report = run_resumable_extraction(paths, out)
        assert report["partitions_skipped_resume"] == 2
        assert report["partitions_committed"] == 2

    def test_resumed_output_matches_oracle(self, ray_session, tmp_path):
        import ray
        from pdf_ocr_batch_ndrocr_lite_ray.state.checkpoint import (
            read_extracted,
            run_resumable_extraction,
        )

        paths = self._write_shards(tmp_path, n_shards=3)
        out = tmp_path / "out"
        run_resumable_extraction(paths, out, max_partitions=1)
        run_resumable_extraction(paths, out)

        golden = pa.concat_tables([oracle_extract_parquet(p) for p in paths])
        ours = pa.concat_tables(
            [ray.get(r) for r in read_extracted(out).to_arrow_refs()]
        )
        _assert_tables_equal(ours, golden)

    def test_input_listed_twice_commits_once(self, ray_session, tmp_path):
        """A path given twice is one partition, extracted once."""
        import ray
        from pdf_ocr_batch_ndrocr_lite_ray.state.checkpoint import (
            read_extracted,
            run_resumable_extraction,
        )

        paths = self._write_shards(tmp_path, n_shards=2)
        out = tmp_path / "out"
        report = run_resumable_extraction(paths + paths[:1], out)
        assert report["partitions_total"] == 2
        assert report["partitions_committed"] == 2

        golden = pa.concat_tables([oracle_extract_parquet(p) for p in paths])
        ours = pa.concat_tables(
            [ray.get(r) for r in read_extracted(out).to_arrow_refs()]
        )
        _assert_tables_equal(ours, golden)
        assert report["rows"] == golden.num_rows

    def test_resume_from_outside_repo_root(self, tmp_path):
        """A driver script run from outside the repo, importing the package
        through its own ``sys.path``, must still checkpoint and resume:
        Ray workers get the driver's cwd and script dir, not its
        ``sys.path``, so the per-fragment tasks of every wave (read,
        extract, write and count) need the package runtime env."""
        import json
        import os
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        paths = self._write_shards(tmp_path, n_shards=2, convs_per_shard=3)
        script = textwrap.dedent(
            f"""
            import json, sys
            sys.path.insert(0, {str(repo)!r})
            import ray
            from pdf_ocr_batch_ndrocr_lite_ray.state.checkpoint import (
                run_resumable_extraction,
            )
            ray.init(address="local", num_cpus=1, include_dashboard=False)
            try:
                run_resumable_extraction({paths!r}, "out", max_partitions=1)
                print(json.dumps(run_resumable_extraction({paths!r}, "out")))
            finally:
                ray.shutdown()
            """
        )
        env = {
            k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RAY_ADDRESS")
        }
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["partitions_committed"] == 2
        assert report["partitions_skipped_resume"] == 1
        golden_rows = sum(oracle_extract_parquet(p).num_rows for p in paths)
        assert report["rows"] == golden_rows

    def test_prep_resumable_from_outside_repo_root(self, ray_session, tmp_path):
        """The composed prep flow through the checkpoint, from a driver
        outside the repo that imports the package through its own
        ``sys.path``: phase 2 (read the checkpoint, gate, reassemble,
        dedup, stats, split) must ship the package runtime env like
        phase 1, and give the rows of the same flow run in-repo."""
        import os
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.prep import prep_corpus_resumable

        repo = Path(__file__).resolve().parents[1]
        paths = self._write_shards(tmp_path, n_shards=2, convs_per_shard=3)
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {str(repo)!r})
            import ray
            from pdf_ocr_batch_ndrocr_lite_ray.pipelines.prep import (
                prep_corpus_resumable,
            )
            ray.init(address="local", num_cpus=1, include_dashboard=False)
            try:
                prep_corpus_resumable({paths!r}, "ckpt", max_partitions=1)
                prep_corpus_resumable({paths!r}, "ckpt").write_parquet("out")
            finally:
                ray.shutdown()
            """
        )
        env = {
            k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RAY_ADDRESS")
        }
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        outside = pq.read_table(tmp_path / "out").to_pandas()
        inside = prep_corpus_resumable(paths, tmp_path / "ckpt-in").to_pandas()
        assert len(inside) > 0

        def canon(df):
            return df.sort_values("conv_id").reset_index(drop=True).astype(str)

        assert canon(outside).equals(canon(inside))

    def test_extract_from_outside_repo_root(self, tmp_path):
        """The flagship, unordered and on the ordered fast path, from a
        driver outside the repo that imports the package through its own
        ``sys.path``: the workers cannot import the package by themselves,
        so the run must ship the package runtime env and still write the
        oracle's rows."""
        import json
        import os
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        paths = self._write_shards(tmp_path, n_shards=2, convs_per_shard=3)
        script = textwrap.dedent(
            f"""
            import json, sys
            sys.path.insert(0, {str(repo)!r})
            import ray
            from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import (
                extract_transcripts,
                package_remote_args,
            )
            ray.init(address="local", num_cpus=1, include_dashboard=False)
            try:
                shipped = "runtime_env" in package_remote_args()
                sorts = []
                for order in (False, True):
                    ds = extract_transcripts({paths!r}, order=order)
                    sorts.append("Sort" in repr(ds))
                    ds.write_parquet(f"out-{{order}}")
                print(json.dumps({{"shipped": shipped, "sorts": sorts}}))
            finally:
                ray.shutdown()
            """
        )
        env = {
            k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RAY_ADDRESS")
        }
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report == {"shipped": True, "sorts": [False, False]}
        golden = pa.concat_tables([oracle_extract_parquet(p) for p in paths])
        for order in (False, True):
            _assert_tables_equal(pq.read_table(tmp_path / f"out-{order}"), golden)

    def test_cli_reports_count_like_the_oracle(self, tmp_path):
        """The JSON reports of ``extract``, ``resume``, ``report`` and
        ``prep`` count what was written: action counts equal the oracle's,
        split counts equal the written ``split`` column. Each command runs
        in its own process (``cli.main`` shuts Ray down)."""
        import json
        import os
        import subprocess
        import sys
        from collections import Counter
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        paths = self._write_shards(tmp_path, n_shards=2, convs_per_shard=3)
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RAY_ADDRESS")}

        def cli(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "pdf_ocr_batch_ndrocr_lite_ray.cli", *args],
                cwd=repo, env=env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr[-3000:]
            return json.loads(proc.stdout.strip().splitlines()[-1])

        golden = Counter()
        for p in paths:
            golden.update(oracle_extract_parquet(p)["action"].to_pylist())
        golden = dict(golden)

        extracted = cli("extract", "--num-cpus", "2", "--input", *paths,
                        "--output", str(tmp_path / "ext"))
        assert extracted["actions"] == golden
        assert extracted["rows"] == sum(golden.values())

        ckpt = str(tmp_path / "ckpt")
        cli("resume", "--num-cpus", "2", "--input", *paths, "--output", ckpt,
            "--max-partitions", "1")
        resumed = cli("resume", "--num-cpus", "2", "--input", *paths, "--output", ckpt)
        assert resumed["partitions_skipped_resume"] == 1
        reported = cli("report", "--output", ckpt)
        for report in (resumed, reported):
            assert report["actions"] == golden
            assert report["rows"] == sum(golden.values())
            assert report["partitions_committed"] == 2

        prep_out = tmp_path / "prep"
        prepped = cli("prep", "--num-cpus", "2", "--input", *paths, "--output", str(prep_out))
        written = Counter(pq.read_table(prep_out, columns=["split"])["split"].to_pylist())
        assert prepped["splits"] == dict(written)
        assert prepped["conversations"] == sum(written.values()) > 0

    def test_cli_jsonl_export_runs_the_pipeline_once(self, tmp_path):
        """``extract --output-format jsonl`` must not ask the lazy dataset
        for its schema: that executes the whole pipeline (and, with
        ``--order``, the sort) once before the write runs it again. The
        CLI runs in its own process with ``Dataset.schema`` made to raise
        there."""
        import json
        import os
        import subprocess
        import sys
        from collections import Counter
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        paths = self._write_shards(tmp_path, n_shards=2, convs_per_shard=3)
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RAY_ADDRESS")}
        script = (
            "import sys\n"
            "import ray.data\n"
            "def _schema(self, *args, **kwargs):\n"
            "    raise AssertionError('Dataset.schema() executes the pipeline')\n"
            "ray.data.Dataset.schema = _schema\n"
            "from pdf_ocr_batch_ndrocr_lite_ray import cli\n"
            "raise SystemExit(cli.main(sys.argv[1:]))\n"
        )
        out = tmp_path / "ext"
        proc = subprocess.run(
            [sys.executable, "-c", script, "extract", "--num-cpus", "2", "--order",
             "--input", *paths, "--output", str(out), "--output-format", "jsonl"],
            cwd=repo, env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        golden = Counter()
        for p in paths:
            golden.update(oracle_extract_parquet(p)["action"].to_pylist())
        assert report["actions"] == dict(golden)
        rows = [json.loads(line) for f in sorted(out.glob("*.json"))
                for line in f.read_text().splitlines() if line.strip()]
        assert len(rows) == sum(golden.values())
        assert all("spans" not in r for r in rows)


class TestWaveCommit:
    """Per-wave manifest commit: a job that dies mid-run recovers every
    COMPLETED wave instead of nothing (streaming checkpoint granularity)."""

    def _write_shards(self, tmp_path, n_shards=4, convs_per_shard=3, seed=11):
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import write_transcripts

        paths = []
        for i in range(n_shards):
            p = tmp_path / f"shard-{i}.parquet"
            write_transcripts(p, n_convs=convs_per_shard, seed=seed + i, first_conv=i * convs_per_shard)
            paths.append(str(p))
        return paths

    def test_crash_mid_run_keeps_completed_waves(self, ray_session, tmp_path):
        from pdf_ocr_batch_ndrocr_lite_ray.state.checkpoint import (
            completed_partitions,
            run_resumable_extraction,
        )

        paths = self._write_shards(tmp_path)
        # corrupt the shard that lands in wave 2 (inputs are processed in
        # sorted order; waves of 2 → shard-2 starts wave 2)
        bad = tmp_path / "shard-2.parquet"
        bad.write_bytes(b"not a parquet file")

        out = tmp_path / "out"
        with pytest.raises(Exception):
            run_resumable_extraction(paths, out, wave_size=2)

        # wave 1 (shards 0+1) committed before the crash
        done = completed_partitions(out)
        assert len(done) == 2
        committed_inputs = sorted(m["input_path"] for m in done.values())
        assert committed_inputs == [str(tmp_path / "shard-0.parquet"),
                                    str(tmp_path / "shard-1.parquet")]

        # repair the shard; the resume skips wave 1 entirely
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import write_transcripts

        write_transcripts(bad, n_convs=3, seed=13, first_conv=6)
        report = run_resumable_extraction(paths, out, wave_size=2)
        assert report["partitions_skipped_resume"] == 2
        assert report["partitions_committed"] == 4

    def test_crash_between_data_and_manifest(self, ray_session, tmp_path, monkeypatch):
        """A crash after a wave's data is written but during its manifest
        commits resumes to exactly the uninterrupted run: same manifests,
        same rows, and one file per partition (no orphan beside a rewrite)."""
        import pathlib

        import ray
        from pdf_ocr_batch_ndrocr_lite_ray.state.checkpoint import (
            completed_partitions,
            read_extracted,
            run_resumable_extraction,
        )

        paths = self._write_shards(tmp_path)
        full, out = tmp_path / "full", tmp_path / "out"
        run_resumable_extraction(paths, full, wave_size=4)

        replace = pathlib.Path.replace
        commits = []

        def crash_on_second_commit(self, target):
            target = pathlib.Path(target)
            if target.parent.name == "_ckpt" and target.name != "job.json":
                commits.append(target)
                if len(commits) == 2:
                    raise OSError("crash before the manifest commit")
            return replace(self, target)

        monkeypatch.setattr(pathlib.Path, "replace", crash_on_second_commit)
        with pytest.raises(OSError, match="crash before the manifest commit"):
            run_resumable_extraction(paths, out, wave_size=4)
        monkeypatch.undo()
        assert len(completed_partitions(out)) == 1

        run_resumable_extraction(paths, out, wave_size=4)
        assert completed_partitions(out) == completed_partitions(full)
        a = pa.concat_tables([ray.get(r) for r in read_extracted(full).to_arrow_refs()])
        b = pa.concat_tables([ray.get(r) for r in read_extracted(out).to_arrow_refs()])
        _assert_tables_equal(b, a)
        part_dirs = sorted((out / "data").glob("part_id=*"))
        assert len(part_dirs) == 4
        for part_dir in part_dirs:
            assert len(list(part_dir.glob("*.parquet"))) == 1, part_dir

    def test_wave_size_invariance(self, ray_session, tmp_path):
        import ray
        from pdf_ocr_batch_ndrocr_lite_ray.state.checkpoint import (
            read_extracted,
            run_resumable_extraction,
        )

        paths = self._write_shards(tmp_path, n_shards=3)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_resumable_extraction(paths, a_dir, wave_size=1)
        run_resumable_extraction(paths, b_dir, wave_size=8)
        a = pa.concat_tables([ray.get(r) for r in read_extracted(a_dir).to_arrow_refs()])
        b = pa.concat_tables([ray.get(r) for r in read_extracted(b_dir).to_arrow_refs()])
        _assert_tables_equal(a, b)


class TestOutputPaths:
    """Conflict policy: fail / overwrite / rename sequence (S6/U4)."""

    def test_rename_sequence(self, tmp_path):
        from pdf_ocr_batch_ndrocr_lite_ray.state.output_paths import make_output_dir

        base = tmp_path / "out"
        assert make_output_dir(base, "rename") == base  # clear → base itself
        base.mkdir()
        (base / "f").touch()
        assert make_output_dir(base, "rename") == tmp_path / "out_001"
        (tmp_path / "out_001").mkdir()
        (tmp_path / "out_001" / "f").touch()
        assert make_output_dir(base, "rename") == tmp_path / "out_002"
        # empty existing dir is reusable, not a conflict
        (tmp_path / "out_002").mkdir()
        assert make_output_dir(base, "rename") == tmp_path / "out_002"

    def test_rename_exhaustion(self, tmp_path, monkeypatch):
        import pdf_ocr_batch_ndrocr_lite_ray.state.output_paths as op

        base = tmp_path / "out"
        base.mkdir()
        (base / "f").touch()
        monkeypatch.setattr(op, "_RENAME_LIMIT", 3)
        for i in range(1, 4):
            d = tmp_path / f"out_{i:03d}"
            d.mkdir()
            (d / "f").touch()
        with pytest.raises(RuntimeError):
            op.make_output_dir(base, "rename")

    def test_fail_and_overwrite(self, tmp_path):
        from pdf_ocr_batch_ndrocr_lite_ray.state.output_paths import make_output_dir

        base = tmp_path / "out"
        base.mkdir()
        (base / "f").touch()
        with pytest.raises(FileExistsError):
            make_output_dir(base, "fail")
        # overwrite CLEARS the stale contents (ADVICE r2: the clear must live
        # in the library, not the CLI wrapper, so no caller double-counts
        # stale parquet)
        assert make_output_dir(base, "overwrite") == base
        assert not base.exists()
        with pytest.raises(ValueError):
            make_output_dir(base, "bogus")

    def test_file_target(self, tmp_path):
        from pdf_ocr_batch_ndrocr_lite_ray.state.output_paths import make_output_dir

        f = tmp_path / "out"
        f.touch()
        # a plain FILE at the target is a clean policy error, never rmtree'd
        with pytest.raises(FileExistsError, match="not a directory"):
            make_output_dir(f, "overwrite")
        with pytest.raises(FileExistsError, match="not a directory"):
            make_output_dir(f, "fail")
        assert f.exists()
        # rename treats the file as taken and probes onward
        assert make_output_dir(f, "rename") == tmp_path / "out_001"
