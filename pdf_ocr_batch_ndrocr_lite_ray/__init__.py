"""pdf_ocr_batch_ndrocr_lite_ray — a Ray-Data-native main-content extraction engine.

A from-scratch re-expression of the capabilities of the reference batch-OCR tool
(`miya-bee/pdf-ocr-batch-ndrocr-lite`, a sequential Tkinter/subprocess pipeline) as a
streaming Ray Data engine over Parquet tables of multi-turn transcripts with schema
``(conv_id: string, turn_idx: int32, role: string, text: string, tool: string,
ts: timestamp[us])``.

Layout:

- ``functions/`` — pure, process-local kernels (text normalization, geometry
  coercion, layout clustering, text statistics). These are the conformance
  kernels: the single-process oracle and the distributed pipeline share them.
- ``stages/``    — Ray Data batch transforms (content sniffer, turn extractor,
  multimodal plumbing). Each is a callable suited to
  ``Dataset.map_batches`` with ``batch_format="pyarrow"``.
- ``sources/``   — readers and the deterministic transcript synthesizer.
- ``pipelines/`` — end-to-end plan builders (extraction flagship and the
  transcript/document data-prep operators that consume it).
- ``state/``     — per-partition checkpoint manifests and resume logic.

Nothing in this package calls ``ray.init()`` / ``ray.shutdown()``; sessions are
owned by entry points (bench.py, CLI, test fixtures, the evaluation driver).
"""

__version__ = "0.1.0"
