"""Multimodal pipeline queries: decode + feature-extract over binary columns.

The media table is synthesized deterministically per scale factor (cached
under /tmp). The list-typed features (byte histogram, frame samples) and the
payload checksum are pinned by unit tests, but the header-parse semantics
ARE SQL-expressible — DuckDB reads the container header out of
``hex(payload)``, so ``media_meta`` (per-row decode metadata) and
``media_kind_counts`` (the decode health report) get full value-level
oracles; the payload-carrying feature queries stay rows-only.
"""

from __future__ import annotations

from pathlib import Path

import ray.data

from ..stages.multimodal import MediaFeatureExtractor
from .queryset import _CACHE_DIR, MATERIALIZERS, SF_PATH_HELPERS, register

_SF_MEDIA_ROWS = {"sf0.001": 120, "sf0.01": 600, "sf0.1": 3000}
_MEDIA_SEED = 42


def media_path_for_sf(sf_dir: str) -> str:
    """Deterministic media cache path (pure path math, no file write)."""
    name = Path(sf_dir).name or "sf0.001"
    n = _SF_MEDIA_ROWS.get(name, 120)
    return str(_CACHE_DIR / f"media-{name}-r{n}-s{_MEDIA_SEED}.parquet")


def media_table_for_sf(sf_dir: str) -> str:
    from ..sources.media import write_media_table

    name = Path(sf_dir).name or "sf0.001"
    n = _SF_MEDIA_ROWS.get(name, 120)
    path = Path(media_path_for_sf(sf_dir))
    if not path.exists():
        _CACHE_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp.parquet")
        write_media_table(tmp, n_rows=n, seed=_MEDIA_SEED)
        tmp.replace(path)
    return str(path)


def media_features(sf_dir: str) -> "ray.data.Dataset":
    """Header parse + byte features via the actor-pool decode stage."""
    ds = ray.data.read_parquet(
        media_table_for_sf(sf_dir), columns=["media_id", "payload"]
    )
    return ds.map_batches(
        MediaFeatureExtractor,
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 4),
    )


def media_kind_counts(sf_dir: str) -> "ray.data.Dataset":
    """Rows per decoded kind/action — the decode health report. Both keys
    are bounded enums → per-batch partial counts folded on the driver."""
    from .exchange import enum_group_sum

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["kind", "action"])
        g = t.group_by(["kind", "action"]).aggregate([([], "count_all")])
        return g.rename_columns(["kind", "action", "n"])

    ds = media_features(sf_dir).map_batches(partial, batch_format="pyarrow")
    return ray.data.from_pandas(enum_group_sum(ds, ["kind", "action"], ["n"]))


def media_resized_features(sf_dir: str) -> "ray.data.Dataset":
    """Resize stage chained into feature extraction: decode health after a
    payload-rewriting stage (images resized to 16x16, rest pass).

    The resizer holds no per-worker state, so it runs as tasks: a second
    actor pool (each pool keeps at least one actor) would hold every CPU of
    a 2-CPU cluster and starve the read tasks.
    """
    from ..stages.multimodal import MediaFeatureExtractor, MediaResizer

    ds = ray.data.read_parquet(
        media_table_for_sf(sf_dir), columns=["media_id", "payload"]
    )
    ds = ds.map_batches(
        MediaResizer(target_w=16, target_h=16),
        batch_format="pyarrow",
        batch_size=64,
    )
    ds = ds.drop_columns(["action", "error"])
    return ds.map_batches(
        MediaFeatureExtractor, batch_format="pyarrow", batch_size=64, concurrency=(1, 4)
    )


def media_meta(sf_dir: str) -> "ray.data.Dataset":
    """Per-row decode metadata projection of the feature stage — the
    SQL-oracled slice (header fields + integrity checksum; the list-typed
    features are pinned by unit tests instead)."""
    return media_features(sf_dir).select_columns(
        ["media_id", "kind", "payload_bytes", "body_bytes", "checksum", "action"]
    )


# the driver compares at sf0.01; embed that deterministic cache path. The
# header contract (sources/media.py HEADER_FMT "<4sBHHBIH"): 16 bytes, magic
# "FMED" (hex 464D4544), kind code byte at offset 4 (hex chars 9-10);
# parse_header fails on short payloads / bad magic / unknown kind → the
# extractor emits kind='' action='error' for that row.
_ORACLE_MEDIA = media_path_for_sf("/root/testdata/sf0.01")

_MEDIA_META_CTE = f"""
WITH h AS (
  SELECT media_id, octet_length(payload) AS pb, hex(payload) AS hx
  FROM read_parquet('{_ORACLE_MEDIA}')
),
f AS (
  SELECT media_id, pb, hx,
         (pb >= 16 AND substr(hx, 1, 8) = '464D4544'
                  AND substr(hx, 9, 2) IN ('01', '02', '03')) AS ok,
         substr(hx, 9, 2) AS kc
  FROM h
),
meta AS (
  SELECT media_id,
         CASE WHEN ok THEN
           CASE kc WHEN '01' THEN 'image' WHEN '02' THEN 'audio' ELSE 'video' END
         ELSE '' END AS kind,
         pb AS payload_bytes,
         CASE WHEN ok THEN pb - 16 ELSE 0 END AS body_bytes,
         CASE WHEN ok THEN md5(hx) ELSE '' END AS checksum,
         CASE WHEN ok THEN 'decoded' ELSE 'error' END AS action
  FROM f
)"""

MEDIA_META_SQL = (
    _MEDIA_META_CTE
    + "\nSELECT media_id, kind, payload_bytes, body_bytes, checksum, action FROM meta"
)

MEDIA_KIND_COUNTS_SQL = (
    _MEDIA_META_CTE + "\nSELECT kind, action, count(*) AS n FROM meta GROUP BY 1, 2"
)

def media_frame_offsets(sf_dir: str) -> "ray.data.Dataset":
    """(media_id, frame_idx) exploded from the frame-sampling stage — the
    deterministic every-stride-th sampling as ROWS, which (unlike the
    list column) the driver can value-hash against SQL."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def explode(batch: "pa.Table") -> "pa.Table":
        frames = batch["sampled_frames"]
        if isinstance(frames, pa.ChunkedArray):
            frames = frames.combine_chunks()
        flat = pc.list_flatten(frames)
        lens = (
            pc.fill_null(pc.list_value_length(frames), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        ids = np.repeat(batch["media_id"].to_numpy(zero_copy_only=False), lens)
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "frame_idx": pc.cast(flat, pa.int64()),
            }
        )

    return media_features(sf_dir).map_batches(explode, batch_format="pyarrow")


# header contract: n_frames is the little-endian uint16 at byte offset 14
# (hex chars 29-32); sampling takes every 2nd frame index starting at 0
MEDIA_FRAME_OFFSETS_SQL = (
    _MEDIA_META_CTE
    + """,
vid AS (
  SELECT f.media_id,
         ('0x' || substr(f.hx, 31, 2) || substr(f.hx, 29, 2))::INT AS n_frames
  FROM f WHERE f.ok
)
SELECT media_id, CAST(i AS BIGINT) AS frame_idx
FROM vid, LATERAL UNNEST(generate_series(0, n_frames - 1, 2)) u(i)
WHERE n_frames > 0
"""
)

def media_byte_histogram(sf_dir: str) -> "ray.data.Dataset":
    """(media_id, bin, n) exploded from the 16-bin body-byte histogram of
    each decoded payload (zero bins omitted) — the byte-level feature
    computation as value-hashable rows. The oracle recomputes it from the
    FIRST hex digit of every body byte pair (bin = byte >> 4)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.multimodal import FEATURE_BINS

    def explode(batch: "pa.Table") -> "pa.Table":
        b = batch.filter(pc.equal(batch["action"], "decoded"))
        hists = b["byte_histogram"]
        if isinstance(hists, pa.ChunkedArray):
            hists = hists.combine_chunks()
        flat = pc.list_flatten(hists).to_numpy(zero_copy_only=False)
        ids = np.repeat(b["media_id"].to_numpy(zero_copy_only=False), FEATURE_BINS)
        bins = np.tile(np.arange(FEATURE_BINS), len(b))
        t = pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "bin": pa.array(bins, type=pa.int64()),
                "n": pa.array(flat.astype(np.int64)),
            }
        )
        return t.filter(pc.greater(t["n"], 0))

    return media_features(sf_dir).map_batches(explode, batch_format="pyarrow")


MEDIA_BYTE_HISTOGRAM_SQL = f"""
WITH h AS (
  SELECT media_id, octet_length(payload) AS pb, hex(payload) AS hx
  FROM read_parquet('{_ORACLE_MEDIA}')
),
ok AS (
  SELECT media_id, pb, hx FROM h
  WHERE pb >= 16 AND substr(hx, 1, 8) = '464D4544'
    AND substr(hx, 9, 2) IN ('01', '02', '03')
),
bytes AS (
  SELECT media_id,
         ('0x' || substr(hx, 33 + (CAST(i AS INT) - 1) * 2, 1))::INT AS bin
  FROM ok, LATERAL UNNEST(generate_series(1, pb - 16)) u(i)
)
SELECT media_id, CAST(bin AS BIGINT) AS bin, count(*) AS n
FROM bytes GROUP BY 1, 2
"""

# --- materialized golden oracles: the full feature tables --------------------
#
# The list-typed feature columns stringify identically through DuckDB's
# read_parquet → .df() and Ray's to_pandas (both numpy arrays), so the FULL
# feature schema is value-hashable against a golden parquet. The golden is
# built SERIALLY in one process (plain loops, stdlib byte counting — no Ray,
# no batching, no numpy histogram), so the oracle pins
# DISTRIBUTION-preservation of the actor-pool stages; the header/resize
# kernels it shares (parse_header, resize_fake_image) are pinned separately
# by unit tests (tests/test_extensions.py multimodal classes).

_EXPECTED_MEDIA_FEATURES_VERSION = 1
_EXPECTED_MEDIA_RESIZED_VERSION = 1


def _serial_feature_row(media_id: int, payload: bytes) -> dict:
    """Plain-Python serial twin of one MediaFeatureExtractor row."""
    import hashlib as _hashlib

    from ..sources.media import HEADER_LEN, parse_header

    payload = payload or b""
    row = {"media_id": media_id, "payload_bytes": len(payload)}
    try:
        meta = parse_header(payload)
        hist = [0] * 16
        for byte in payload[HEADER_LEN:]:
            hist[byte >> 4] += 1
        row.update(
            kind=meta["kind"],
            body_bytes=len(payload) - HEADER_LEN,
            checksum=_hashlib.md5(payload.hex().upper().encode()).hexdigest(),
            byte_histogram=hist,
            sampled_frames=list(range(0, meta["n_frames"], 2)),
            action="decoded",
            error="",
        )
    except Exception as exc:
        row.update(
            kind="",
            body_bytes=0,
            checksum="",
            byte_histogram=[0] * 16,
            sampled_frames=[],
            action="error",
            error=f"{type(exc).__name__}: {exc}",
        )
    return row


def _rows_to_features_table(rows: list[dict]) -> "pa.Table":
    import pyarrow as pa

    from ..stages.multimodal import FEATURES_SCHEMA

    return pa.Table.from_pydict(
        {name: [r[name] for r in rows] for name in FEATURES_SCHEMA.names},
        schema=FEATURES_SCHEMA,
    )


def _build_expected_media_features(sf_dir: str) -> "pa.Table":
    import pyarrow.parquet as _pq

    src = _pq.read_table(media_table_for_sf(sf_dir))
    rows = [
        _serial_feature_row(i, p)
        for i, p in zip(src["media_id"].to_pylist(), src["payload"].to_pylist())
    ]
    return _rows_to_features_table(rows)


def _build_expected_media_resized(sf_dir: str) -> "pa.Table":
    import pyarrow.parquet as _pq

    from ..sources.media import parse_header
    from ..stages.multimodal import resize_fake_image

    src = _pq.read_table(media_table_for_sf(sf_dir))
    rows = []
    for i, p in zip(src["media_id"].to_pylist(), src["payload"].to_pylist()):
        payload = p or b""
        try:  # serial twin of one MediaResizer row (16×16 target)
            if parse_header(payload)["kind"] == "image":
                payload = resize_fake_image(payload, 16, 16)
        except Exception:
            payload = b""
        rows.append(_serial_feature_row(i, payload))
    return _rows_to_features_table(rows)


def expected_media_features_path(sf_dir: str) -> str:
    from .queryset import expected_table_path

    return expected_table_path(
        "expected-media-features", sf_dir, _EXPECTED_MEDIA_FEATURES_VERSION
    )


def expected_media_resized_path(sf_dir: str) -> str:
    from .queryset import expected_table_path

    return expected_table_path(
        "expected-media-resized", sf_dir, _EXPECTED_MEDIA_RESIZED_VERSION
    )


def materialize_expected_media_features(sf_dir: str) -> str:
    from .queryset import materialize_expected_table

    return materialize_expected_table(
        "expected-media-features",
        sf_dir,
        _EXPECTED_MEDIA_FEATURES_VERSION,
        _build_expected_media_features,
    )


def materialize_expected_media_resized(sf_dir: str) -> str:
    from .queryset import materialize_expected_table

    return materialize_expected_table(
        "expected-media-resized",
        sf_dir,
        _EXPECTED_MEDIA_RESIZED_VERSION,
        _build_expected_media_resized,
    )


_FEATURE_COLS = (
    "media_id, kind, payload_bytes, body_bytes, checksum,"
    " byte_histogram, sampled_frames, action, error"
)
MEDIA_FEATURES_SQL = (
    f"SELECT {_FEATURE_COLS} FROM read_parquet("
    f"'{expected_media_features_path('/root/testdata/sf0.01')}')"
)
MEDIA_RESIZED_FEATURES_SQL = (
    f"SELECT {_FEATURE_COLS} FROM read_parquet("
    f"'{expected_media_resized_path('/root/testdata/sf0.01')}')"
)

MATERIALIZERS.append(media_table_for_sf)
MATERIALIZERS.append(materialize_expected_media_features)
MATERIALIZERS.append(materialize_expected_media_resized)
SF_PATH_HELPERS.append(media_path_for_sf)
SF_PATH_HELPERS.append(expected_media_features_path)
SF_PATH_HELPERS.append(expected_media_resized_path)

register("media_features", media_features, sql=MEDIA_FEATURES_SQL)
register(
    "media_resized_features", media_resized_features, sql=MEDIA_RESIZED_FEATURES_SQL
)
register("media_meta", media_meta, sql=MEDIA_META_SQL)
register("media_kind_counts", media_kind_counts, sql=MEDIA_KIND_COUNTS_SQL)
register("media_frame_offsets", media_frame_offsets, sql=MEDIA_FRAME_OFFSETS_SQL)
register("media_byte_histogram", media_byte_histogram, sql=MEDIA_BYTE_HISTOGRAM_SQL)
