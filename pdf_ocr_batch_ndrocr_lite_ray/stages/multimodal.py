"""Multimodal stages: decode / feature-extract / frame-sample over binary columns.

The Ray-side plumbing is real and tested — actor-pool ``map_batches`` over
an opaque ``payload: binary`` column, small batches (binary rows are wide),
per-row error isolation, typed Arrow outputs. The pixel/sample codecs are
STUBS: this container ships no image/audio libraries, so
``decode_image_pixels`` raises ``NotImplementedError`` (swap in
PIL/pypdfium/ffmpeg in a real deployment) and the feature path uses the
deterministic fake container from ``sources/media.py``.

Batch-size guidance: payloads here are KBs, but real media is MBs — size
``batch_size`` so ``batch_bytes × concurrency`` fits the worker heap
(e.g. 8-16 rows for 10 MB images), and let the object store spill.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..sources.media import HEADER_LEN, parse_header

FEATURE_BINS = 16

FEATURES_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),
        ("payload_bytes", pa.int64()),
        ("body_bytes", pa.int64()),
        ("checksum", pa.string()),
        ("byte_histogram", pa.list_(pa.int64(), FEATURE_BINS)),
        ("sampled_frames", pa.list_(pa.int32())),
        ("action", pa.string()),
        ("error", pa.string()),
    ]
)


def decode_image_pixels(payload: bytes) -> "np.ndarray":
    """Real pixel decode when an image codec is importable; explicit stub
    otherwise (this container ships none — reference app.py:1414-1423 uses
    pypdfium2/Pillow). Everything around it (batching, actor pool, schema,
    error isolation) is the real engine either way.
    """
    try:
        import io

        from PIL import Image  # type: ignore[import-not-found]
    except ImportError:
        raise NotImplementedError(
            "pixel decode requires an image codec (e.g. Pillow) — not "
            "available in this environment; use the fake-container feature "
            "path instead"
        ) from None
    with Image.open(io.BytesIO(payload)) as img:
        return np.asarray(img.convert("RGB"))


def sample_frame_offsets(n_frames: int, stride: int) -> list[int]:
    """Deterministic frame sampling: every ``stride``-th frame index."""
    if n_frames <= 0:
        return []
    return list(range(0, n_frames, max(1, stride)))


class MediaFeatureExtractor:
    """Actor-pool ``map_batches`` stage: parse header + byte-level features.

    Use as::

        ds.map_batches(MediaFeatureExtractor, batch_format="pyarrow",
                       batch_size=64, concurrency=(2, 8))

    ``__init__`` is the once-per-actor setup point (a real deployment loads
    its codec/model here — the reference's load-once pattern,
    app.py:2054-2095); ``__call__`` handles one Arrow batch, isolating
    per-row failures as ``action="error"`` rows (app.py:2845-2854).
    """

    def __init__(self, frame_stride: int = 2) -> None:
        self.frame_stride = frame_stride
        self._bin_edges = np.linspace(0, 256, FEATURE_BINS + 1)

    def _features(self, payload: bytes) -> tuple[dict, list[int], list[int]]:
        meta = parse_header(payload)
        body = np.frombuffer(payload, dtype=np.uint8, offset=HEADER_LEN)
        hist, _ = np.histogram(body, bins=self._bin_edges)
        frames = sample_frame_offsets(meta["n_frames"], self.frame_stride)
        return meta, [int(x) for x in hist], frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {name: [] for name in FEATURES_SCHEMA.names}
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        for media_id, payload in zip(ids, payloads):
            payload = payload or b""
            out["media_id"].append(media_id)
            out["payload_bytes"].append(len(payload))
            try:
                meta, hist, frames = self._features(payload)
                out["kind"].append(meta["kind"])
                out["body_bytes"].append(len(payload) - HEADER_LEN)
                # md5 over the UPPERCASE hex encoding, not the raw bytes:
                # equally sound as an integrity fingerprint, and DuckDB (whose
                # md5 takes VARCHAR, not BLOB) can reproduce it from
                # md5(hex(payload)) — which makes the checksum oracle-able
                out["checksum"].append(
                    hashlib.md5(payload.hex().upper().encode()).hexdigest()
                )
                out["byte_histogram"].append(hist)
                out["sampled_frames"].append(frames)
                out["action"].append("decoded")
                out["error"].append("")
            except Exception as exc:  # per-row isolation
                out["kind"].append("")
                out["body_bytes"].append(0)
                out["checksum"].append("")
                out["byte_histogram"].append([0] * FEATURE_BINS)
                out["sampled_frames"].append([])
                out["action"].append("error")
                out["error"].append(f"{type(exc).__name__}: {exc}")
        return pa.Table.from_pydict(out, schema=FEATURES_SCHEMA)


def resize_fake_image(payload: bytes, target_w: int, target_h: int) -> bytes:
    """Nearest-neighbor resize of a fake-container image payload.

    Real byte-level work over the deterministic container (header rewrite +
    per-pixel gather); a real deployment swaps the body math for
    ``PIL.Image.resize`` via ``decode_image_pixels``. Raises ValueError on
    non-image payloads — per-row isolation upstream turns that into an
    ``action="error"`` row.
    """
    from ..sources.media import pack_header

    meta = parse_header(payload)
    if meta["kind"] != "image":
        raise ValueError(f"resize expects an image payload, got {meta['kind']!r}")
    w, h, c = meta["width"], meta["height"], meta["channels"]
    body = np.frombuffer(payload, dtype=np.uint8, offset=HEADER_LEN)
    if len(body) < w * h * c:
        raise ValueError("image body truncated")
    pixels = body[: w * h * c].reshape(h, w, c)
    ys = np.clip((np.arange(target_h) * h) // max(target_h, 1), 0, h - 1)
    xs = np.clip((np.arange(target_w) * w) // max(target_w, 1), 0, w - 1)
    resized = pixels[ys][:, xs]
    header = pack_header("image", target_w, target_h, c, 0, 1)
    return header + resized.tobytes()


class MediaResizer:
    """Resize stage: image payloads → fixed target dimensions.

    Non-image rows pass through untouched (``action="passthrough"``);
    failures isolate per row. Small ``batch_size`` guidance from the module
    docstring applies doubly here — the stage holds input + output payloads.
    """

    def __init__(self, target_w: int = 32, target_h: int = 32) -> None:
        self.target_w = target_w
        self.target_h = target_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        out_payload, out_action, out_error = [], [], []
        for payload in payloads:
            payload = payload or b""
            try:
                meta = parse_header(payload)
                if meta["kind"] != "image":
                    out_payload.append(payload)
                    out_action.append("passthrough")
                    out_error.append("")
                else:
                    out_payload.append(
                        resize_fake_image(payload, self.target_w, self.target_h)
                    )
                    out_action.append("resized")
                    out_error.append("")
            except Exception as exc:
                out_payload.append(b"")
                out_action.append("error")
                out_error.append(f"{type(exc).__name__}: {exc}")
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "payload": pa.array(out_payload, type=pa.binary()),
                "action": pa.array(out_action, type=pa.string()),
                "error": pa.array(out_error, type=pa.string()),
            }
        )
