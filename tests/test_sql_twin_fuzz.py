"""Randomized parity pins for the SQL-twin hash/bit contracts.

Each engine-side helper added in round 4 has a DuckDB expression twin
embedded in an oracle string. These fuzzes evaluate BOTH sides over
hundreds of random inputs at the FUNCTION level (no Ray, no corpus), so a
DuckDB upgrade or a helper edit that moves any contract fails loudly and
points at the exact expression — the same role the quantile-interpolation
fuzz plays for the float contracts. Where the contract lives inside an
operator's per-row loop (line trimming), the fuzz runs the operator on a
small adversarial table instead.
"""

from __future__ import annotations

import hashlib

import duckdb
import numpy as np
import pytest


@pytest.fixture(scope="module")
def con():
    return duckdb.connect()


class TestHllRhoTwin:
    def test_rho_matches_bin_ltrim_expression(self, con):
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.sketches import (
            HLL_RHO_BITS,
            hll_rho,
        )

        rng = np.random.default_rng(7)
        vals = [0, 1, 2**HLL_RHO_BITS - 1, 2 ** (HLL_RHO_BITS - 1)] + [
            int(x) for x in rng.integers(0, 2**HLL_RHO_BITS, size=400)
        ]
        rows = con.execute(
            f"SELECT v, {HLL_RHO_BITS + 1} - length(ltrim(bin(v), '0')) FROM "
            "(SELECT unnest(?::BIGINT[]) AS v)",
            [vals],
        ).fetchall()
        for v, sql_rho in rows:
            assert hll_rho(int(v)) == sql_rho, v

    def test_bucket_and_rho_slices_match_md5(self, con):
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.sketches import hll_rho

        rng = np.random.default_rng(11)
        users = [str(int(u)) for u in rng.integers(0, 10**9, size=200)]
        rows = con.execute(
            "SELECT u, ('0x' || substr(md5(u), 1, 2))::INT,"
            " ('0x' || substr(md5(u), 3, 12))::BIGINT"
            " FROM (SELECT unnest(?::VARCHAR[]) AS u)",
            [users],
        ).fetchall()
        for u, sql_bucket, sql_slice in rows:
            hx = hashlib.md5(u.encode()).hexdigest()
            assert int(hx[0:2], 16) == sql_bucket
            assert int(hx[2:14], 16) == sql_slice
            assert 1 <= hll_rho(int(hx[2:14], 16)) <= 49


class TestBloomPositionTwin:
    def test_positions_match_sql_slices(self, con):
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.delta import (
            BLOOM_K,
            BLOOM_POS_HEX,
            _bloom_positions,
        )

        rng = np.random.default_rng(13)
        fps = [
            hashlib.md5(bytes(rng.integers(0, 256, size=24, dtype=np.uint8))).hexdigest()
            for _ in range(200)
        ]
        exprs = ", ".join(
            f"('0x' || substr(fp, {1 + j * BLOOM_POS_HEX}, {BLOOM_POS_HEX}))::BIGINT"
            for j in range(BLOOM_K)
        )
        rows = con.execute(
            f"SELECT fp, {exprs} FROM (SELECT unnest(?::VARCHAR[]) AS fp)", [fps]
        ).fetchall()
        for row in rows:
            assert _bloom_positions(row[0]) == list(row[1:])


class TestCountMinBucketTwin:
    def test_buckets_match_sql_mod(self, con):
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines.sketches import CM_D, CM_W

        rng = np.random.default_rng(17)
        toks = [f"tok{int(x)}" for x in rng.integers(0, 10**7, size=300)]
        exprs = ", ".join(
            f"('0x' || substr(md5(t), {1 + 5 * j}, 5))::BIGINT % {CM_W}"
            for j in range(CM_D)
        )
        rows = con.execute(
            f"SELECT t, {exprs} FROM (SELECT unnest(?::VARCHAR[]) AS t)", [toks]
        ).fetchall()
        for row in rows:
            h = hashlib.md5(row[0].encode()).hexdigest()
            for j in range(CM_D):
                assert int(h[j * 5 : j * 5 + 5], 16) % CM_W == row[1 + j]


class TestPrioritySamplingChainTwin:
    def test_float_chain_is_bit_identical(self, con):
        """w·2^48/(h+1): every step is one correctly-rounded IEEE op on
        exact inputs — numpy and DuckDB must agree to the LAST BIT (the
        ordering of the weighted sample rides on unrounded values)."""
        rng = np.random.default_rng(19)
        ws = rng.integers(1, 100_000, size=300)
        hs = rng.integers(0, 2**48, size=300)
        rows = con.execute(
            f"SELECT w, h, (w * {float(1 << 48)!r}) / CAST(h + 1 AS DOUBLE)"
            " FROM (SELECT unnest(?::BIGINT[]) AS w, unnest(?::BIGINT[]) AS h)",
            [[int(w) for w in ws], [int(h) for h in hs]],
        ).fetchall()
        for w, h, sql_q in rows:
            np_q = np.float64(w) * float(1 << 48) / np.float64(h + 1)
            assert np_q == sql_q, (w, h)


class TestBoilerplateTrimTwin:
    def test_crlf_tab_nbsp_lines_match_duckdb(self, ray_session, tmp_path, con):
        """docs_boilerplate_lines vs its DuckDB twin on lines whose edges
        carry CR (CRLF endings), tabs and NBSP: both engines must trim the
        same character set, or one line hashes to two keys."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_ocr_batch_ndrocr_lite_ray.pipelines import diagnostics

        rng = np.random.default_rng(29)
        edges = ["", " ", "\t", "\r", "\u00a0", " \t", "\u00a0\r"]
        lines = ["nav home about", "cookie banner ok", "footer (c) 2024"]
        texts = []
        for i in range(40):
            body = []
            for line in lines:
                if rng.random() < 0.7:
                    left, right = rng.choice(edges, size=2)
                    body.append(f"{left}{line}{right}")
            body.append(f"unique body text {i}")
            texts.append("\r\n".join(body) if i % 2 else "\n".join(body))
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(1, len(texts) + 1), type=pa.int64()),
                    "text": pa.array(texts),
                }
            ),
            tmp_path / "documents.parquet",
        )
        con.execute(
            "CREATE OR REPLACE VIEW documents AS SELECT * FROM "
            f"read_parquet('{tmp_path}/documents.parquet')"
        )
        ours = diagnostics.docs_boilerplate_lines(str(tmp_path))
        gold = con.execute(diagnostics.DOCS_BOILERPLATE_LINES_SQL).df()
        key = ["line_md5"]
        ours = ours.sort_values(key).reset_index(drop=True)
        gold = gold.sort_values(key).reset_index(drop=True)
        assert len(ours) == len(gold) >= len(lines)
        assert ours["line_md5"].tolist() == gold["line_md5"].tolist()
        assert ours["n_docs"].tolist() == gold["n_docs"].astype("int64").tolist()
        assert ours["example_line"].tolist() == gold["example_line"].tolist()


class TestPreEpochBucketTwin:
    """Day/hour/minute folds on timestamps before 1970: both engines must
    floor the epoch microseconds (DuckDB's ``//`` and arrow's divide
    truncate toward zero) and take weekday / hour-of-day with a
    non-negative modulo (DuckDB's ``%`` keeps the dividend's sign)."""

    @pytest.fixture(scope="class")
    def pre_epoch_dir(self, tmp_path_factory):
        import datetime as dt

        import pyarrow as pa
        import pyarrow.parquet as pq

        rng = np.random.default_rng(31)
        base = dt.datetime(1969, 12, 20)
        n = 400
        # ten days either side of the epoch, at odd seconds so most
        # instants sit inside (not on) a minute/hour/day boundary
        offsets = rng.integers(0, 20 * 86400, size=n)
        ts = [base + dt.timedelta(seconds=int(s), microseconds=7) for s in offsets]
        d = tmp_path_factory.mktemp("pre_epoch")
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array(range(n), type=pa.int64()),
                    "ts": pa.array(ts, type=pa.timestamp("us")),
                    "user_id": pa.array(rng.integers(1, 9, size=n), type=pa.int64()),
                    "event_type": pa.array(
                        rng.choice(["view", "click", "buy"], size=n).tolist()
                    ),
                    "value": pa.array(rng.random(n)),
                    "props": pa.array([""] * n),
                }
            ),
            d / "events.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "l_tax": pa.array(rng.choice([0.0, 0.04, 0.08], size=n)),
                    "l_shipdate": pa.array(ts, type=pa.timestamp("us")),
                }
            ),
            d / "lineitem.parquet",
        )
        return d

    @pytest.mark.parametrize(
        "name",
        [
            "events_changepoint_cusum",
            "events_dow_seasonality",
            "events_burst_windows",
            "events_dispersion_index",
            "user_stickiness",
            "type_hour_profile_similarity",
            "shipment_completeness",
            "tax_rate_periods",
        ],
    )
    def test_matches_duckdb_before_1970(self, ray_session, pre_epoch_dir, con, name):
        import pdf_ocr_batch_ndrocr_lite_ray.pipelines.diagnostics  # noqa: F401
        from pdf_ocr_batch_ndrocr_lite_ray.pipelines import queryset

        for table in ("events", "lineitem"):
            con.execute(
                f"CREATE OR REPLACE VIEW {table} AS SELECT * FROM "
                f"read_parquet('{pre_epoch_dir}/{table}.parquet')"
            )
        ours = queryset.QUERIES[name](str(pre_epoch_dir))
        gold = con.execute(queryset.ORACLE_SQL[name]).df()
        cols = sorted(gold.columns)
        assert sorted(ours.columns) == cols
        assert len(ours) == len(gold) > 0

        def rows(df):
            return sorted(map(tuple, df[cols].astype(str).values.tolist()))

        assert rows(ours) == rows(gold)
