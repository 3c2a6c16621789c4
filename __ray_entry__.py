"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline; ``queries()`` exposes every
implemented operator/pipeline keyed by name; ``oracle_sql()`` gives DuckDB
equivalents where the semantics are SQL-expressible (same column names as the
Ray result). Ray is initialised by the driver before this module is imported —
nothing here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# Feature modules self-register into the queryset registry at import time.
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import queryset as _queryset
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import extraction_queries as _eq  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import text_analysis as _ta  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import dedup as _dd  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import similarity as _sim  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import multimodal_queries as _mm  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import conversations as _conv  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import sampling as _samp  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import sketches as _sk  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import prep as _prep  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import clusters as _cl  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import quality as _q  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import spans as _sp  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import kmeans as _km  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import semdedup as _sd  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import lm_score as _lm  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import decontam as _dc  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import mixture as _mx  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import chunking as _ch  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import redact as _rd  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import packing as _pk  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import delta as _dl  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import selection as _sel  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import transcript_stats as _ts  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import heavy as _hh  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import index as _idx  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import dsir as _dsir  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import bm25 as _bm25  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import novelty as _nov  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import pca as _pca  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import graphrank as _gr  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import zorder as _zo  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import profile as _prof  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import editpairs as _ep  # noqa: F401
from pdf_ocr_batch_ndrocr_lite_ray.pipelines import diagnostics as _dg  # noqa: F401

_SMOKE_SF_DIR = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline at the smoke scale; returns the extracted Dataset."""
    from pdf_ocr_batch_ndrocr_lite_ray.pipelines.extraction import extract_transcripts
    from pdf_ocr_batch_ndrocr_lite_ray.pipelines.queryset import transcripts_for_sf

    path = transcripts_for_sf(_SMOKE_SF_DIR)
    return extract_transcripts(path, order=True)


# The driver's CORRECTNESS run checks exactly the first 50 entries of
# ``queries()``. The window holds the flagship anchor, then transcript,
# extraction and document queries that no driver run has checked. A slot
# whose query a driver run has since checked, or whose query is OLAP-only,
# is the next to rotate when an unchecked query needs one.
_DRIVER_WINDOW: list[str] = [
    "extract_flagship",
    "events_type_hour_chi2",
    "dedup_clusters_distributed",
    "docs_gini_by_source",
    "user_type_entropy",
    "extract_plain_turns_csv",
    "source_lexical_diversity",
    "extract_flagship_spans",
    "join_skew_audit",
    "exchange_balance_audit",
    "extract_span_audit",
    "extract_error_profile",
    "conversation_role_balance",
    "conversation_salt_plan",
    "dedup_source_flow",
    "orders_join_size_kmv",
    "conversation_dedup_exact",
    "emb_label_centroids",
    "transcript_partition_checksums",
    "emb_pca_project",
    "events_value_quantiles",
    "transcript_edit1_pairs",
    "extract_shrinkage_profile",
    "extract_spans_per_turn",
    "conversation_structure_audit",
    "conversation_role_transitions",
    "transcript_tool_stats",
    "tool_cooccurrence",
    "tool_transition_counts",
    "turn_latency_profile",
    "docs_boilerplate_lines",
    "docs_unicode_anomalies",
    "token_frequency_spectrum",
    "vocabulary_growth",
    "source_vocab_overlap",
    "docs_compression_profile",
    "lang_id_confusion",
    "split_balance_audit",
    "dedup_cluster_sizes",
    "minhash_calibration",
    "docs_quality_report",
    "docs_pack_efficiency",
    "docs_readability",
    "docs_script_mix",
    "emb_dimension_stats",
    "dedup_degree_distribution",
    "docs_heavy_hitters_by_source",
    "source_similarity_kmv",
    "source_length_mwu",
    "source_drift_ks",
]


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline (SURVEY.md §2 + extensions).

    Ordered so the driver's 50-entry CORRECTNESS window (the dict's first 50
    keys) covers the queries most in need of an external verdict this round;
    the rest follow in registration order.
    """
    all_queries = dict(_queryset.QUERIES)
    missing = [name for name in _DRIVER_WINDOW if name not in all_queries]
    if missing:  # a rename would silently shrink the window — fail loud
        raise KeyError(f"_DRIVER_WINDOW names not registered: {missing}")
    ordered = {name: all_queries[name] for name in _DRIVER_WINDOW}
    ordered.update(
        (name, fn) for name, fn in all_queries.items() if name not in ordered
    )
    return ordered


def oracle_sql() -> dict[str, str]:
    """DuckDB oracle SQL for every SQL-expressible query (same column names).

    The extraction oracles read synthesized cache tables directly
    (``read_parquet('<cache path>')``) — ``oracle_sql_for`` materializes them
    at the driver's evaluation scale so the SQL is runnable regardless of
    whether the matching query ran first. The repo's own gates compare at
    other scales via ``queryset.oracle_sql_for(sf_dir)``, which re-targets
    those paths.
    """
    return _queryset.oracle_sql_for(_queryset.DRIVER_SF_DIR)
