"""Text-analysis pipelines over the ``documents`` table.

Language-ID, quality scoring, token counting and fingerprinting as one
vectorized ``map_batches`` pass (zero-copy Arrow in, Arrow out — no Python
row loop except the md5 fingerprint), plus a language-distribution aggregate
demonstrating the partial-then-global pattern.

Every query here has a full DuckDB oracle: the kernels and their SQL live
side by side in ``functions/textstats.py`` so they cannot drift silently.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.textstats import sql_stats_select, text_stats_columns
from .queryset import register, table_path


def _stats_batch(batch: pa.Table) -> pa.Table:
    cols = text_stats_columns(batch["text"])
    out = pa.table({"doc_id": batch["doc_id"], **cols})
    return out


def doc_text_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-document stats: one embarrassingly-parallel pass, no shuffle."""
    return ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(_stats_batch, batch_format="pyarrow", zero_copy_batch=True)


def doc_lang_counts(sf_dir: str) -> "ray.data.Dataset":
    """Documents per detected language.

    The groupby here shuffles only the tiny per-batch stats rows, not the
    text; at 100 TB the right shape is partial counts inside ``map_batches``
    then a groupby over ≤ #langs × #blocks rows — which is exactly what this
    compiles to, since ``lang`` is computed before the exchange and only
    (doc_id, lang) columns flow into it.
    """
    from .exchange import enum_group_sum

    def partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch["lang"])
        return pa.table(
            {"lang": vc.field("values"), "n_docs": pc.cast(vc.field("counts"), pa.int64())}
        )

    ds = doc_text_stats(sf_dir).map_batches(partial, batch_format="pyarrow")
    return ray.data.from_pandas(enum_group_sum(ds, ["lang"], ["n_docs"]))


register(
    "docs_textstats",
    lambda sf_dir: doc_text_stats(sf_dir),
    sql=f"SELECT doc_id, {sql_stats_select('text')} FROM documents",
)
def doc_winnow_fingerprints(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_fingerprints, fp_min): winnowing rolling-hash fingerprints.

    Fully SQL-oracled: the Rabin-Karp hash of each k-gram is plain modular
    arithmetic (``ascii`` codepoints × powers of 257 mod 2^61-1 — no
    rolling recurrence needed when each gram is hashed independently), and
    the winnow windows are a ``min() OVER (... 3 FOLLOWING)`` truncated at
    the partition end — which makes the ``n_hashes <= w`` single-window
    case fall out of the same expression at i=1.
    """
    from ..functions.textstats import winnow_fingerprints

    def fp_batch(batch: pa.Table) -> pa.Table:
        n_fp, fp_min = [], []
        for text in batch["text"].to_pylist():
            fps = winnow_fingerprints(text or "")
            n_fp.append(len(fps))
            fp_min.append(min(fps) if fps else 0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_fingerprints": pa.array(n_fp, type=pa.int64()),
                "fp_min": pa.array(fp_min, type=pa.uint64()),
            }
        )

    return ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(fp_batch, batch_format="pyarrow", zero_copy_batch=True)


# Rabin-Karp gram hash in SQL: h = sum(codepoint_j * 257^(k-1-j)) mod 2^61-1.
# Max per-position sum ≈ 0x10FFFF * 257^4 * 5 < 2^56, so BIGINT never
# overflows before the mod; ascii() == Python ord() for any codepoint and
# substr()/len() are character-based, matching the Python string indexing.
DOCS_WINNOW_SQL = """
WITH t AS (SELECT doc_id, coalesce(text, '') AS tx, len(coalesce(text, '')) AS n FROM documents),
hashes AS (
  -- every power literal is cast to BIGINT: ascii() is INT32 and
  -- 127 * 16974593 already sits one bit under INT32_MAX — any non-ASCII
  -- codepoint overflows the INT32 product (caught by the
  -- adversarial-corpus parity test)
  SELECT doc_id, CAST(i AS INT) AS i, n - 4 AS n_hashes,
    (ascii(substr(tx, CAST(i AS INT), 1)) * 4362470401::BIGINT
     + ascii(substr(tx, CAST(i AS INT)+1, 1)) * 16974593::BIGINT
     + ascii(substr(tx, CAST(i AS INT)+2, 1)) * 66049::BIGINT
     + ascii(substr(tx, CAST(i AS INT)+3, 1)) * 257::BIGINT
     + ascii(substr(tx, CAST(i AS INT)+4, 1))) % 2305843009213693951 AS h
  FROM t, LATERAL UNNEST(generate_series(1, n - 4)) u(i)
  WHERE n >= 5
),
wm AS (
  SELECT doc_id, i, n_hashes,
         min(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wmin
  FROM hashes
),
fp AS (
  SELECT doc_id, count(DISTINCT wmin) AS n_fingerprints, min(wmin) AS fp_min
  FROM wm WHERE i <= greatest(n_hashes - 3, 1) GROUP BY doc_id
)
SELECT t.doc_id,
       coalesce(fp.n_fingerprints, 0) AS n_fingerprints,
       coalesce(fp.fp_min, 0) AS fp_min
FROM t LEFT JOIN fp USING (doc_id)
"""

register("docs_winnow_fingerprints", doc_winnow_fingerprints, sql=DOCS_WINNOW_SQL)


# --- tf-idf top terms (broadcast-small-side pattern) ------------------------

TFIDF_TOPK = 5


def _term_count_rows(batch: pa.Table) -> pa.Table:
    """(doc_id, term, tf) rows: lowercase → strip non-alpha → split. The
    flatten uses the list offsets, so no Python loop over tokens."""
    toks = pc.utf8_split_whitespace(
        pc.replace_substring_regex(
            pc.utf8_lower(batch["text"]), pattern="[^a-z]+", replacement=" "
        )
    )
    flat = pc.list_flatten(toks)  # skips null rows
    lens = (
        pc.fill_null(pc.list_value_length(toks), 0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    parents = np.repeat(batch["doc_id"].to_numpy(zero_copy_only=False), lens)
    keep = pc.not_equal(flat, "")  # split artifacts at string edges
    t = pa.table({"doc_id": pa.array(parents, type=pa.int64()), "term": flat}).filter(
        keep
    )
    g = t.group_by(["doc_id", "term"]).aggregate([([], "count_all")])
    return g.rename_columns(["doc_id", "term", "tf"])


def docs_tfidf_top_terms(sf_dir: str, k: int = TFIDF_TOPK) -> "ray.data.Dataset":
    """Top-k tf-idf terms per document: (doc_id, term, tf, score).

    The canonical broadcast-join shape: per-doc term counts stream in
    blocks; document frequencies are a VOCAB-sized aggregate (bounded by
    distinct [a-z]+ words, not corpus size) collected once and ``ray.put``
    broadcast to every scoring task — no shuffle join of the big side. The
    only exchange of doc-sized data is the hash partition for per-doc
    top-k selection.
    """
    import ray as _ray

    from .dedup import _hash_partitioned

    n_docs = ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id"]
    ).count()

    tf = ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(_term_count_rows, batch_format="pyarrow", zero_copy_batch=True)
    tf = tf.materialize()  # used twice: df aggregate + scoring

    # document frequencies fold on the driver (the map was ALREADY pulled
    # driver-side for the broadcast — the prior Ray groupby only added a
    # sort shuffle before the same collect); vocab-bounded like the map
    from .exchange import enum_group_sum

    def df_partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch["term"])
        return pa.table(
            {"term": vc.field("values"), "df": pc.cast(vc.field("counts"), pa.int64())}
        )

    df_frame = enum_group_sum(
        tf.map_batches(df_partial, batch_format="pyarrow"), ["term"], ["df"]
    )
    df_map: dict[str, int] = dict(zip(df_frame["term"], df_frame["df"]))
    ref = _ray.put((df_map, float(n_docs)))

    def topk_partition(pdf):
        import pandas as pd

        if len(pdf) == 0:
            return pdf.assign(score=pd.Series([], dtype="float64"))
        dfm, n = _ray.get(ref)
        dfs = pdf["term"].map(dfm).astype("float64")
        pdf = pdf.assign(score=np.round(pdf["tf"] * np.log(n / dfs), 6))
        pdf = pdf.sort_values(["doc_id", "score", "term"], ascending=[True, False, True])
        out = pdf.groupby("doc_id", sort=True).head(k)
        return out.reset_index(drop=True)

    return _hash_partitioned(tf, "doc_id", topk_partition)


DOCS_TFIDF_SQL = f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents
),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
n AS (SELECT count(*)::DOUBLE AS n FROM documents)
SELECT doc_id, term, tf, round(tf * ln(n.n / df.df), 6) AS score
FROM tf JOIN df USING (term) CROSS JOIN n
QUALIFY row_number() OVER (
  PARTITION BY doc_id ORDER BY round(tf * ln(n.n / df.df), 6) DESC, term
) <= {TFIDF_TOPK}
"""

register("docs_tfidf_top_terms", docs_tfidf_top_terms, sql=DOCS_TFIDF_SQL)


# --- collocations: top bigrams by pointwise mutual information --------------

PMI_TOPK = 20
PMI_MIN_COUNT = 5


def docs_top_bigrams_pmi(
    sf_dir: str, k: int = PMI_TOPK, min_count: int = PMI_MIN_COUNT
) -> "ray.data.Dataset":
    """(w1, w2, n_pair, pmi): corpus-level collocations.

    Scale shape: ONE pass emits per-block partial unigram AND bigram
    counts (unigrams tagged with ``w2 = ''``, impossible for an [a-z]+
    token); a single hash partition on ``w1`` completes both count kinds
    per word; the merged unigram vocabulary (small by construction) is
    broadcast for the ``w2`` lookups; scoring and the per-partition top-k
    happen in place and only ≤ k × partitions candidate rows reach the
    final reduce.
    """
    import re

    import ray as _ray

    from .dedup import _hash_partitioned

    word_re = re.compile(r"[a-z]+")

    def partial_counts(batch: pa.Table) -> pa.Table:
        from collections import Counter

        uni: Counter = Counter()
        big: Counter = Counter()
        for t in batch["text"].to_pylist():
            ws = word_re.findall((t or "").lower())
            uni.update(ws)
            big.update(zip(ws, ws[1:]))
        w1s, w2s, cs = [], [], []
        for w, c in uni.items():
            w1s.append(w)
            w2s.append("")
            cs.append(c)
        for (a, b), c in big.items():
            w1s.append(a)
            w2s.append(b)
            cs.append(c)
        return pa.table(
            {
                "w1": pa.array(w1s),
                "w2": pa.array(w2s),
                "c": pa.array(cs, type=pa.int64()),
            }
        )

    counts = ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["text"]
    ).map_batches(partial_counts, batch_format="pyarrow", zero_copy_batch=True)

    def merge_counts(df):
        g = df.groupby(["w1", "w2"], sort=True)["c"].sum().reset_index()
        g["c"] = g["c"].astype("int64")
        return g

    merged = _hash_partitioned(counts, "w1", merge_counts).materialize()

    # vocabulary-sized unigram table + totals, broadcast once
    uni_map: dict[str, int] = {}
    n_big = 0
    for b in merged.iter_batches(batch_format="pyarrow"):
        is_uni = pc.equal(b["w2"], "")
        u = b.filter(is_uni)
        uni_map.update(zip(u["w1"].to_pylist(), u["c"].to_pylist()))
        n_big += sum(b.filter(pc.invert(is_uni))["c"].to_pylist())
    n_uni = sum(uni_map.values())
    ref = _ray.put((uni_map, float(n_uni), float(n_big)))

    def score_partition(df):
        import pandas as pd

        df = df[(df["w2"] != "") & (df["c"] >= min_count)]
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "w1": pd.Series([], dtype="object"),
                    "w2": pd.Series([], dtype="object"),
                    "n_pair": pd.Series([], dtype="int64"),
                    "pmi": pd.Series([], dtype="float64"),
                }
            )
        um, nu, nb = _ray.get(ref)
        c1 = df["w1"].map(um).astype("float64")
        c2 = df["w2"].map(um).astype("float64")
        pmi = np.round(np.log((df["c"] / nb) / ((c1 / nu) * (c2 / nu))), 6)
        out = pd.DataFrame(
            {"w1": df["w1"], "w2": df["w2"], "n_pair": df["c"].astype("int64"), "pmi": pmi}
        )
        return (
            out.sort_values(["pmi", "w1", "w2"], ascending=[False, True, True])
            .head(k)
            .reset_index(drop=True)
        )

    candidates = merged.map_batches(score_partition, batch_format="pandas")

    def final_topk(df):
        return (
            df.sort_values(["pmi", "w1", "w2"], ascending=[False, True, True])
            .head(k)
            .reset_index(drop=True)
        )

    return candidates.repartition(1).map_batches(
        final_topk, batch_format="pandas", batch_size=None
    )


DOCS_PMI_SQL = f"""
WITH w AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS ws FROM documents),
toks AS (
  SELECT ws[CAST(i AS INT)] AS term
  FROM w, LATERAL UNNEST(generate_series(1, len(ws))) u(i)
),
big AS (
  SELECT ws[CAST(i AS INT)] AS w1, ws[CAST(i AS INT)+1] AS w2
  FROM w, LATERAL UNNEST(generate_series(1, len(ws)-1)) u(i)
  WHERE len(ws) >= 2
),
uni_c AS (SELECT term, count(*) AS c FROM toks GROUP BY 1),
big_c AS (SELECT w1, w2, count(*) AS c FROM big GROUP BY 1, 2),
n AS (SELECT (SELECT count(*) FROM toks)::DOUBLE AS n_uni,
             (SELECT count(*) FROM big)::DOUBLE AS n_big)
SELECT w1, w2, big_c.c AS n_pair,
       round(ln((big_c.c / n.n_big) / ((u1.c / n.n_uni) * (u2.c / n.n_uni))), 6) AS pmi
FROM big_c
JOIN uni_c u1 ON u1.term = big_c.w1
JOIN uni_c u2 ON u2.term = big_c.w2
CROSS JOIN n
WHERE big_c.c >= {PMI_MIN_COUNT}
QUALIFY row_number() OVER (ORDER BY pmi DESC, w1, w2) <= {PMI_TOPK}
"""

register("docs_top_bigrams_pmi", docs_top_bigrams_pmi, sql=DOCS_PMI_SQL)

register(
    "docs_lang_counts",
    lambda sf_dir: doc_lang_counts(sf_dir),
    sql=f"""
    WITH s AS (SELECT doc_id, {sql_stats_select('text')} FROM documents)
    SELECT lang, count(*) AS n_docs FROM s GROUP BY lang
    """,
)


# --- corpus-frequent n-gram list (boilerplate detection) --------------------

TOP_NGRAMS_K = 20


def docs_top_ngrams(sf_dir: str, k: int = TOP_NGRAMS_K) -> "ray.data.Dataset":
    """Top-k word trigrams by document frequency: (ngram, df).

    The C4/RefinedWeb-style corpus-frequent-phrase list — the input to
    boilerplate stripping and contamination screens. Shares the dedup
    family's shingle definition (ASCII \\S+ word trigrams, per-doc
    distinct). Per-batch rows carry per-doc-distinct shingles; ONE hash
    exchange co-locates each ngram, the partition emits its local top-k
    (valid: partitions are group-complete), and the driver merges
    ≤ k × #partitions rows with the (df DESC, ngram ASC) tie-break that
    makes the k-th boundary deterministic on both engines.
    """
    import pandas as pd

    from .dedup import _doc_shingles
    from .exchange import hash_partitioned as _hash_partitioned

    def shingle_rows(batch: pa.Table) -> pa.Table:
        out: list[str] = []
        for text in batch["text"].to_pylist():
            out.extend(_doc_shingles(text or ""))
        return pa.table({"ngram": pa.array(out, type=pa.string())})

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("ngram", sort=False).size().reset_index(name="df")
        g["df"] = g["df"].astype("int64")
        return g.sort_values(["df", "ngram"], ascending=[False, True]).head(k)

    ds = ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["text"]
    ).map_batches(shingle_rows, batch_format="pyarrow", zero_copy_batch=True)
    cand = _hash_partitioned(ds, "ngram", local_topk).to_pandas()
    if cand.empty:  # empty corpus: map_groups never ran, no columns exist
        cand = pd.DataFrame(
            {"ngram": pd.Series(dtype="object"), "df": pd.Series(dtype="int64")}
        )
    final = (
        cand.sort_values(["df", "ngram"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    return ray.data.from_pandas(final)


DOCS_TOP_NGRAMS_SQL = f"""
WITH w AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws FROM documents),
s AS (
  SELECT doc_id,
         CASE WHEN len(ws) < 3 THEN array_to_string(ws, ' ')
              ELSE ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT)+1] || ' ' || ws[CAST(i AS INT)+2]
         END AS sh
  FROM w, LATERAL UNNEST(generate_series(1, greatest(len(ws)-2, CASE WHEN len(ws) > 0 THEN 1 ELSE 0 END))) u(i)
  WHERE len(ws) > 0
),
d AS (SELECT DISTINCT doc_id, sh FROM s)
SELECT sh AS ngram, count(*) AS df
FROM d GROUP BY 1
ORDER BY df DESC, ngram LIMIT {TOP_NGRAMS_K}
"""

register("docs_top_ngrams", docs_top_ngrams, sql=DOCS_TOP_NGRAMS_SQL)


# --- character-distribution entropy (gibberish / repetition signal) ---------


def docs_char_entropy(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, entropy): Shannon entropy (nats) of each document's
    character distribution — near 0 for repeated-char junk, high for
    natural text; a standard quality-filter input alongside the Gopher
    repetition ratios. Embarrassingly parallel, no shuffle."""

    def ent_batch(batch: pa.Table) -> pa.Table:
        vals = []
        for text in batch["text"].to_pylist():
            if not text:
                vals.append(0.0)
                continue
            cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
            counts = np.unique(cp, return_counts=True)[1].astype(np.float64)
            p = counts / counts.sum()
            vals.append(float(-(p * np.log(p)).sum()))
        ent = pc.round(pa.array(vals, type=pa.float64()), ndigits=6)
        return pa.table({"doc_id": batch["doc_id"], "entropy": ent})

    return ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(ent_batch, batch_format="pyarrow", zero_copy_batch=True)


DOCS_CHAR_ENTROPY_SQL = """
WITH t AS (SELECT doc_id, coalesce(text, '') AS tx FROM documents),
chars AS (
  SELECT doc_id, substr(tx, CAST(i AS INT), 1) AS ch
  FROM t, LATERAL UNNEST(generate_series(1, len(tx))) u(i)
  WHERE len(tx) > 0
),
freq AS (SELECT doc_id, ch, count(*)::DOUBLE AS c FROM chars GROUP BY 1, 2),
tot AS (SELECT doc_id, sum(c) AS n FROM freq GROUP BY 1),
e AS (
  SELECT f.doc_id, round(-sum((c / n) * ln(c / n)), 6) AS entropy
  FROM freq f JOIN tot USING (doc_id) GROUP BY f.doc_id
)
SELECT t.doc_id, coalesce(e.entropy, 0.0) AS entropy
FROM t LEFT JOIN e USING (doc_id)
"""

register("docs_char_entropy", docs_char_entropy, sql=DOCS_CHAR_ENTROPY_SQL)


def token_frequency_spectrum(sf_dir: str) -> "ray.data.Dataset":
    """(bucket, n_tokens): the corpus frequency SPECTRUM — how many
    distinct tokens occur with count in [2^bucket, 2^{bucket+1}) — the
    count-of-counts curve a corpus linguist reads for Zipf shape and a
    dedup engineer reads for boilerplate mass.

    Scale shape: per-block ``value_counts`` collapses duplicates before
    anything moves; ONE token hash exchange co-locates each token's
    partial counts, so the in-partition sum IS the exact global count;
    each partition then folds its tokens into ≤ 64 bucket rows
    (``frexp`` exponent = exact integer log2 for counts < 2^53) and the
    bounded bucket fold merges. Exchange volume is (token, cnt) partials —
    distinct tokens per block, never token instances.
    """
    import pandas as pd

    from .dedup import _hash_partitioned
    from .exchange import enum_group_sum
    from .heavy import _tokens

    def partial_counts(df: "pd.DataFrame") -> "pd.DataFrame":
        vc = _tokens(df["text"]).value_counts()
        return pd.DataFrame(
            {
                "token": vc.index.to_numpy(dtype=object),
                "cnt": vc.to_numpy(dtype=np.int64),
            }
        )

    def spectrum_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "n_tokens": pd.Series([], dtype="int64"),
                }
            )
        totals = df.groupby("token", sort=False)["cnt"].sum().to_numpy()
        # exact integer log2 via the float64 exponent (counts < 2^53)
        buckets = np.frexp(totals.astype(np.float64))[1] - 1
        vb = pd.Series(buckets).value_counts()
        return pd.DataFrame(
            {
                "bucket": vb.index.to_numpy(dtype=np.int64),
                "n_tokens": vb.to_numpy(dtype=np.int64),
            }
        )

    ds = ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["text"]
    ).map_batches(partial_counts, batch_format="pandas")
    partials = _hash_partitioned(ds, "token", spectrum_partition)
    return ray.data.from_pandas(
        enum_group_sum(partials, ["bucket"], ["n_tokens"])
    )


TOKEN_FREQUENCY_SPECTRUM_SQL = """
WITH toks AS (
  SELECT unnest(regexp_extract_all(text, '\\S+')) AS token FROM documents
),
c AS (SELECT token, count(*) AS n FROM toks GROUP BY token)
SELECT CAST(length(bin(n)) - 1 AS BIGINT) AS bucket,
       count(*) AS n_tokens
FROM c GROUP BY 1
"""

register(
    "token_frequency_spectrum",
    token_frequency_spectrum,
    sql=TOKEN_FREQUENCY_SPECTRUM_SQL,
)


# --- per-source lexical diversity: type-token ratio (X111) --------------------


def source_lexical_diversity(sf_dir: str) -> "pd.DataFrame":
    """(source, distinct_tokens, total_tokens, ttr_e6): exact type-token
    ratio per source — the lexical-diversity signal that separates
    template/boilerplate farms (few types, many tokens) from organic text.

    One read, one exchange: per-block (source, token, n) count partials
    collapse duplicates first; hash-partitioning on the TOKEN makes the
    in-partition (source, token) groupby a GLOBAL dedup (every copy of a
    token lands together) while spreading load across partitions instead
    of hot-spotting one partition per source; each partition then emits
    ≤ #sources bounded partials (distinct-count, token-total) and the
    driver folds and takes the ratio through the shared e6 chain. Rows
    with NULL source are excluded on both sides; a source whose docs have
    no tokens never appears (no token rows — same on both engines).
    """
    import pandas as pd

    from .exchange import enum_group_sum
    from .exchange import hash_partitioned as _hash_partitioned
    from .heavy import _tokens

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=["source"])
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "source": pd.Series([], dtype="object"),
                    "token": pd.Series([], dtype="object"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        toks = _tokens(df["text"])
        src = df["source"].reindex(toks.index)
        g = (
            pd.DataFrame({"source": src.to_numpy(), "token": toks.to_numpy()})
            .groupby(["source", "token"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        g["n"] = g["n"].astype("int64")
        return g

    def fold_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        empty = pd.DataFrame(
            {
                "source": pd.Series([], dtype="object"),
                "d": pd.Series([], dtype="int64"),
                "t": pd.Series([], dtype="int64"),
            }
        )
        if len(df) == 0:
            return empty
        # all copies of a token are in this partition: the (source, token)
        # group IS the global pair, its sum the global count
        g = df.groupby(["source", "token"], sort=False)["n"].sum().reset_index()
        out = (
            g.groupby("source", sort=False)
            .agg(d=("token", "size"), t=("n", "sum"))
            .reset_index()
        )
        out["d"] = out["d"].astype("int64")
        out["t"] = out["t"].astype("int64")
        return out

    ds = ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["source", "text"]
    ).map_batches(partial, batch_format="pandas")
    partials = _hash_partitioned(ds, "token", fold_partition)
    folded = enum_group_sum(partials, ["source"], ["d", "t"])
    if len(folded) == 0:
        return pd.DataFrame(
            {
                "source": pd.Series([], dtype="object"),
                "distinct_tokens": pd.Series([], dtype="int64"),
                "total_tokens": pd.Series([], dtype="int64"),
                "ttr_e6": pd.Series([], dtype="int64"),
            }
        )
    d = folded["d"].to_numpy(dtype=np.int64)
    t = folded["t"].to_numpy(dtype=np.int64)
    ratio = d.astype(np.float64) / t.astype(np.float64)
    return pd.DataFrame(
        {
            "source": folded["source"].to_numpy(dtype=object),
            "distinct_tokens": d,
            "total_tokens": t,
            "ttr_e6": np.floor(ratio * 1e6 + 0.5).astype(np.int64),
        }
    )


SOURCE_LEXICAL_DIVERSITY_SQL = r"""
WITH toks AS (
  SELECT source, unnest(regexp_extract_all(coalesce(text, ''), '\S+')) AS token
  FROM documents WHERE source IS NOT NULL
)
SELECT source,
       CAST(count(DISTINCT token) AS BIGINT) AS distinct_tokens,
       CAST(count(*) AS BIGINT) AS total_tokens,
       CAST(floor(CAST(count(DISTINCT token) AS DOUBLE)
                  / CAST(count(*) AS DOUBLE) * 1000000 + 0.5) AS BIGINT) AS ttr_e6
FROM toks GROUP BY 1
"""

register(
    "source_lexical_diversity",
    source_lexical_diversity,
    sql=SOURCE_LEXICAL_DIVERSITY_SQL,
)


#: equal-width doc_id bins for the vocabulary growth curve — fixed so the
#: output is a bounded enum fold at any corpus size.
VOCAB_GROWTH_BUCKETS = 16


def vocabulary_growth(sf_dir: str) -> "pd.DataFrame":
    """(bucket, new_tokens, vocab_size): the Heaps'-law vocabulary growth
    curve over word-trigram shingles (the exact shingle contract of
    ``dedup.py``) — how many NEVER-before-seen shingles each doc_id range
    introduces (16 equal-width id bins) and the running vocabulary size.
    A flattening curve means new data stops paying for itself; a linear
    one means the corpus is still lexically open — the go/no-go signal
    for "collect more of this source". (Shingles, not single tokens: this
    corpus' unigram vocabulary saturates in the first dozen docs, so the
    unigram curve is a constant.)

    Scale shape: the bin bounds come from the parquet FOOTER min/max of
    ``doc_id`` (zero scan; a Ray fold fallback when a footer lacks stats),
    so bucketing is a pure per-row function. Per-block (shingle, min
    doc_id) partials collapse duplicates before anything moves; ONE
    shingle-key exchange makes the in-partition min the exact global
    first-occurrence; each partition folds its shingles into ≤ 16 bucket
    rows and the driver merges + cumsums that enum frame. Exchange volume
    is distinct (shingle, first_id) partials per block — never shingle
    instances, never text.
    """
    import pandas as pd

    from .dedup import _shingle_rows
    from .exchange import enum_group_sum, footer_min_max
    from .exchange import hash_partitioned as _hash_partitioned

    path = table_path(sf_dir, "documents")
    bounds = footer_min_max(path, "doc_id")
    if bounds is None:
        # footer lacks stats (or is all-NULL groups): one cheap projected
        # scan through Ray's own distributed Min/Max fold
        from ray.data.aggregate import Max, Min

        agg = ray.data.read_parquet(path, columns=["doc_id"]).aggregate(
            Min("doc_id"), Max("doc_id")
        )
        if agg is None or agg.get("min(doc_id)") is None:
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "new_tokens": pd.Series([], dtype="int64"),
                    "vocab_size": pd.Series([], dtype="int64"),
                }
            )
        bounds = (agg["min(doc_id)"], agg["max(doc_id)"])
    mn, mx = int(bounds[0]), int(bounds[1])
    span = mx - mn + 1

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rows = _shingle_rows(
            batch.filter(pc.is_valid(batch["doc_id"]))
        ).select(["doc_id", "sh"])
        g = rows.group_by(["sh"]).aggregate([("doc_id", "min")])
        return g.rename_columns(["sh", "first_id"])

    def bucket_fold(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "new_tokens": pd.Series([], dtype="int64"),
                }
            )
        first = df.groupby("sh", sort=False)["first_id"].min().to_numpy()
        b = (first - mn) * VOCAB_GROWTH_BUCKETS // span
        vb = pd.Series(b).value_counts()
        return pd.DataFrame(
            {
                "bucket": vb.index.to_numpy(dtype=np.int64),
                "new_tokens": vb.to_numpy(dtype=np.int64),
            }
        )

    ds = ray.data.read_parquet(
        path, columns=["doc_id", "text"]
    ).map_batches(partial, batch_format="pyarrow")
    partials = _hash_partitioned(ds, "sh", bucket_fold)
    out = enum_group_sum(partials, ["bucket"], ["new_tokens"])
    out = out.sort_values("bucket").reset_index(drop=True)
    out["vocab_size"] = out["new_tokens"].cumsum().astype("int64")
    out["bucket"] = out["bucket"].astype("int64")
    out["new_tokens"] = out["new_tokens"].astype("int64")
    return out[["bucket", "new_tokens", "vocab_size"]]


VOCABULARY_GROWTH_SQL = rf"""
WITH b AS (
  SELECT min(doc_id) AS mn, max(doc_id) - min(doc_id) + 1 AS span
  FROM documents WHERE doc_id IS NOT NULL
),
w AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS ws
      FROM documents WHERE doc_id IS NOT NULL),
s AS (
  SELECT doc_id,
         CASE WHEN len(ws) < 3 THEN array_to_string(ws, ' ')
              ELSE ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT)+1] || ' ' || ws[CAST(i AS INT)+2]
         END AS sh
  FROM w, LATERAL UNNEST(generate_series(1, greatest(len(ws)-2, CASE WHEN len(ws) > 0 THEN 1 ELSE 0 END))) u(i)
  WHERE len(ws) > 0
),
f AS (SELECT sh, min(doc_id) AS first_id FROM s GROUP BY sh),
d AS (
  SELECT CAST((first_id - mn) * {VOCAB_GROWTH_BUCKETS} // span AS BIGINT)
           AS bucket,
         CAST(count(*) AS BIGINT) AS new_tokens
  FROM f, b GROUP BY 1
)
SELECT bucket, new_tokens,
       CAST(sum(new_tokens) OVER (ORDER BY bucket
            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS vocab_size
FROM d
"""

register("vocabulary_growth", vocabulary_growth, sql=VOCABULARY_GROWTH_SQL)


# --- cross-source vocabulary overlap (X137) -----------------------------------

#: source-enum ceiling for int64 bitmask safety. The fold's cardinality is
#: the number of DISTINCT OBSERVED masks (corpora share vocabulary along a
#: few co-occurrence patterns, not all 2^n) and enum_group_sum's
#: MAX_ENUM_GROUPS guard fails loud if a pathological corpus ever realizes
#: the exponential worst case — the reroute then is per-pair (a, b, inter)
#: emission from the shingle exchange.
MAX_OVERLAP_SOURCES = 30


def source_vocab_overlap(sf_dir: str) -> "pd.DataFrame":
    """(source_a, source_b, vocab_a, vocab_b, inter_n, union_n,
    jaccard_e6): exact pairwise Jaccard between every two sources'
    DISTINCT word-trigram vocabularies (the ``dedup.py`` shingle
    contract) — the corpus-comparison matrix that tells a data buyer
    whether a new source adds vocabulary or re-sells an existing one.

    Scale shape: per-block (shingle, source-bitmask) partials collapse
    duplicates before anything moves; ONE shingle-key exchange ORs each
    shingle's mask global (``bitwise_or.reduceat`` over sorted runs, no
    per-group Python); each partition then folds its shingles into
    (mask, n) counts — a set whose cardinality is at most
    2^n_sources (guarded) — and the driver reads every per-source
    vocabulary size, every pairwise intersection, and the Jaccard off
    that one bounded table with inclusion-over-bits sums. Shingle text
    crosses the wire once per block-distinct occurrence; nothing
    quadratic in documents or shingles ever exists.

    Exactness: all counts are exact integers on both engines;
    ``jaccard_e6`` divides two exact integers through one shared IEEE
    division, ``floor(x*1e6+0.5)``. Zero-vocabulary sources still pair
    (Jaccard 0 against non-empty ones); pairs whose union is empty are
    excluded (undefined) on both engines.
    """
    import math

    import pandas as pd

    from .dedup import _doc_shingles
    from .exchange import enum_group_sum
    from .exchange import hash_partitioned as _hash_partitioned

    path = table_path(sf_dir, "documents")

    # pass 0: the source enum (includes zero-vocabulary sources)
    def distinct_sources(batch: pa.Table) -> pa.Table:
        col = batch["source"]
        u = pc.unique(pc.drop_null(col))
        return pa.table({"source": u, "n": pa.array([1] * len(u), pa.int64())})

    sfold = enum_group_sum(
        ray.data.read_parquet(path, columns=["source"]).map_batches(
            distinct_sources, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["source"],
        ["n"],
    )
    sources = sorted(str(s) for s in sfold["source"])
    empty = pd.DataFrame(
        {
            "source_a": pd.Series(dtype="object"),
            "source_b": pd.Series(dtype="object"),
            "vocab_a": pd.Series(dtype="int64"),
            "vocab_b": pd.Series(dtype="int64"),
            "inter_n": pd.Series(dtype="int64"),
            "union_n": pd.Series(dtype="int64"),
            "jaccard_e6": pd.Series(dtype="int64"),
        }
    )
    if len(sources) < 2:
        return empty
    if len(sources) > MAX_OVERLAP_SOURCES:
        raise ValueError(
            f"source_vocab_overlap: {len(sources)} sources exceeds the "
            f"bitmask ceiling ({MAX_OVERLAP_SOURCES}); emit per-pair "
            "(a, b, inter) counts from the shingle exchange instead"
        )
    bit_of = {s: 1 << i for i, s in enumerate(sources)}

    def partial(batch: pa.Table) -> pa.Table:
        mask_of: dict[str, int] = {}
        for src, text in zip(
            batch["source"].to_pylist(), batch["text"].to_pylist()
        ):
            if src is None:
                continue
            b = bit_of[str(src)]
            for sh in _doc_shingles(text or ""):
                mask_of[sh] = mask_of.get(sh, 0) | b
        return pa.table(
            {
                "sh": pa.array(list(mask_of.keys()), type=pa.string()),
                "bits": pa.array(list(mask_of.values()), type=pa.int64()),
            }
        )

    def mask_counts(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "mask": pd.Series(dtype="int64"),
                    "n": pd.Series(dtype="int64"),
                }
            )
        df = df.sort_values("sh", kind="mergesort")
        bits = df["bits"].to_numpy(dtype=np.int64)
        sh = df["sh"].to_numpy()
        starts = np.flatnonzero(np.r_[True, sh[1:] != sh[:-1]])
        masks = np.bitwise_or.reduceat(bits, starts)
        vc = pd.Series(masks).value_counts()
        return pd.DataFrame(
            {
                "mask": vc.index.to_numpy(dtype=np.int64),
                "n": vc.to_numpy(dtype=np.int64),
            }
        )

    ds = ray.data.read_parquet(path, columns=["source", "text"]).map_batches(
        partial, batch_format="pyarrow"
    )
    folded = enum_group_sum(
        _hash_partitioned(ds, "sh", mask_counts), ["mask"], ["n"]
    )
    masks = folded["mask"].to_numpy(dtype=np.int64) if len(folded) else np.array([], dtype=np.int64)
    ns = folded["n"].to_numpy(dtype=np.int64) if len(folded) else np.array([], dtype=np.int64)
    vocab = {
        s: int(ns[(masks & bit) != 0].sum()) for s, bit in bit_of.items()
    }
    rows = []
    for i, a in enumerate(sources):
        for b in sources[i + 1 :]:
            inter = int(ns[(masks & bit_of[a] != 0) & (masks & bit_of[b] != 0)].sum())
            union = vocab[a] + vocab[b] - inter
            if union == 0:
                continue  # both vocabularies empty: Jaccard undefined
            rows.append(
                {
                    "source_a": a,
                    "source_b": b,
                    "vocab_a": vocab[a],
                    "vocab_b": vocab[b],
                    "inter_n": inter,
                    "union_n": union,
                    "jaccard_e6": int(
                        math.floor(float(inter) / float(union) * 1e6 + 0.5)
                    ),
                }
            )
    if not rows:
        return empty
    return pd.DataFrame(rows).astype(
        {
            "vocab_a": "int64",
            "vocab_b": "int64",
            "inter_n": "int64",
            "union_n": "int64",
            "jaccard_e6": "int64",
        }
    )


SOURCE_VOCAB_OVERLAP_SQL = r"""
WITH w AS (
  SELECT source, regexp_extract_all(text, '\S+') AS ws
  FROM documents WHERE source IS NOT NULL
),
s AS (
  SELECT DISTINCT source,
         CASE WHEN len(ws) < 3 THEN array_to_string(ws, ' ')
              ELSE ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT)+1]
                   || ' ' || ws[CAST(i AS INT)+2]
         END AS sh
  FROM w, LATERAL UNNEST(generate_series(1, greatest(len(ws)-2,
       CASE WHEN len(ws) > 0 THEN 1 ELSE 0 END))) u(i)
  WHERE len(ws) > 0
),
src AS (SELECT DISTINCT source FROM documents WHERE source IS NOT NULL),
v AS (SELECT source, CAST(count(*) AS BIGINT) AS vocab FROM s GROUP BY source),
pairs AS (
  SELECT a.source AS source_a, b.source AS source_b
  FROM src a JOIN src b ON a.source < b.source
),
i AS (
  SELECT a.source AS source_a, b.source AS source_b,
         CAST(count(*) AS BIGINT) AS inter_n
  FROM s a JOIN s b ON a.sh = b.sh AND a.source < b.source
  GROUP BY 1, 2
)
SELECT p.source_a, p.source_b,
       coalesce(va.vocab, 0) AS vocab_a,
       coalesce(vb.vocab, 0) AS vocab_b,
       coalesce(i.inter_n, 0) AS inter_n,
       coalesce(va.vocab, 0) + coalesce(vb.vocab, 0) - coalesce(i.inter_n, 0)
         AS union_n,
       CAST(floor(
         CAST(coalesce(i.inter_n, 0) AS DOUBLE)
         / CAST(coalesce(va.vocab, 0) + coalesce(vb.vocab, 0)
                - coalesce(i.inter_n, 0) AS DOUBLE)
         * 1e6 + 0.5) AS BIGINT) AS jaccard_e6
FROM pairs p
LEFT JOIN v va ON va.source = p.source_a
LEFT JOIN v vb ON vb.source = p.source_b
LEFT JOIN i ON i.source_a = p.source_a AND i.source_b = p.source_b
WHERE coalesce(va.vocab, 0) + coalesce(vb.vocab, 0) - coalesce(i.inter_n, 0) > 0
"""

register("source_vocab_overlap", source_vocab_overlap, sql=SOURCE_VOCAB_OVERLAP_SQL)


# --- per-source Mann-Whitney length drift (X144) -------------------------------


def source_length_mwu(sf_dir: str) -> "pd.DataFrame":
    """(source, n, u_x2, z_e6): the Mann-Whitney U rank-sum test of each
    source's document-length distribution against the REST of the corpus
    — the nonparametric "which feed changed shape" alarm (robust where
    the KS drift op is sensitive to a single quantile). ``u_x2`` is the
    exact DOUBLED U statistic (integer even under average-rank ties);
    ``z_e6`` its tie-corrected normal score.

    Exactness: one bounded (length, source) count fold (lengths are
    integer n_chars; MAX_ENUM_GROUPS guards the distinct-length x source
    cardinality — bucket lengths past it); the driver derives every
    source's doubled rank sum, the global tie term T = Σ(t³−t), and the
    doubled deviation 2U − n1·n2 in Python ints, then ONE shared IEEE
    chain (two int→double casts, divide, sqrt, divide, floor-e6) per
    source. The SQL twin spells doubled ranks as 2·rank() + cnt − 1 (the
    doubled average rank of a tie group, an integer) and the identical z
    chain. Sources with no
    counterpart rows or zero rank variance are excluded on both engines.
    """
    import math

    import pandas as pd

    from .exchange import enum_group_sum

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch["source"]), pc.is_valid(batch["n_chars"])
        )
        t = batch.filter(keep)
        g = (
            pa.table(
                {
                    "len": pc.cast(t["n_chars"], pa.int64()),
                    "source": t["source"],
                    "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                }
            )
            .group_by(["len", "source"])
            .aggregate([("n", "sum")])
        )
        return g.rename_columns(["len", "source", "n"])

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "documents"), columns=["source", "n_chars"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["len", "source"],
        ["n"],
    )
    empty = pd.DataFrame(
        {
            "source": pd.Series(dtype="object"),
            "n": pd.Series(dtype="int64"),
            "u_x2": pd.Series(dtype="int64"),
            "z_e6": pd.Series(dtype="int64"),
        }
    )
    if len(fold) == 0:
        return empty
    fold = fold.sort_values("len").reset_index(drop=True)
    glen = fold.groupby("len", sort=True)["n"].sum()
    lens = glen.index.to_numpy(dtype=np.int64)
    cnts = [int(v) for v in glen.to_numpy()]
    N = sum(cnts)
    # doubled average rank per distinct length + the tie term, Python ints
    r2_of: dict[int, int] = {}
    m = 0
    T = 0
    for lv, c in zip(lens, cnts):
        r2_of[int(lv)] = 2 * m + c + 1
        T += c * c * c - c
        m += c
    rows = []
    for src, g in fold.groupby("source", sort=True):
        n1 = int(g["n"].sum())
        n2 = N - n1
        if n2 == 0:
            continue  # no counterpart corpus: test undefined
        r1_x2 = sum(int(c) * r2_of[int(lv)] for lv, c in zip(g["len"], g["n"]))
        u_x2 = r1_x2 - n1 * (n1 + 1)
        num = u_x2 - n1 * n2  # = 2(U - n1*n2/2)
        a = n1 * n2 * ((N**3 - N) - T)
        b = 12 * N * (N - 1)
        if a <= 0:
            continue  # all lengths tied: zero rank variance
        z = float(num) / (2.0 * math.sqrt(float(a) / float(b)))
        rows.append(
            {
                "source": src,
                "n": n1,
                "u_x2": u_x2,
                "z_e6": int(math.floor(z * 1e6 + 0.5)),
            }
        )
    if not rows:
        return empty
    return pd.DataFrame(rows).astype({"n": "int64", "u_x2": "int64", "z_e6": "int64"})


SOURCE_LENGTH_MWU_SQL = """
WITH f AS (
  SELECT source, CAST(n_chars AS BIGINT) AS len FROM documents
  WHERE source IS NOT NULL AND n_chars IS NOT NULL
),
r AS (
  SELECT source,
         CAST(2 * rank() OVER (ORDER BY len)
              + count(*) OVER (PARTITION BY len) - 1 AS HUGEINT) AS r2
  FROM f
),
tot AS (
  SELECT CAST(coalesce(sum(t), 0) AS HUGEINT) AS n,
         CAST(coalesce(sum(t * t * t - t), 0) AS HUGEINT) AS tie_t
  FROM (SELECT count(*) AS t FROM f GROUP BY len)
),
s AS (
  SELECT source, CAST(count(*) AS HUGEINT) AS n1, sum(r2) AS r1_x2
  FROM r GROUP BY source
)
SELECT source, CAST(n1 AS BIGINT) AS n,
       CAST(r1_x2 - n1 * (n1 + 1) AS BIGINT) AS u_x2,
       CAST(floor(
         CAST(r1_x2 - n1 * (n1 + 1) - n1 * (tot.n - n1) AS DOUBLE)
         / (2.0 * sqrt(
             CAST(n1 * (tot.n - n1)
                  * ((tot.n * tot.n * tot.n - tot.n) - tot.tie_t) AS DOUBLE)
             / CAST(12 * tot.n * (tot.n - 1) AS DOUBLE)))
         * 1e6 + 0.5) AS BIGINT) AS z_e6
FROM s CROSS JOIN tot
WHERE tot.n - n1 > 0
  AND n1 * (tot.n - n1) * ((tot.n * tot.n * tot.n - tot.n) - tot.tie_t) > 0
"""

register("source_length_mwu", source_length_mwu, sql=SOURCE_LENGTH_MWU_SQL)


# --- zlib compression-ratio quality profile (X152) ------------------------------

_COMPRESSION_VERSION = 1
#: fixed level: zlib output is deterministic per (input, level, zlib build) —
#: the same-container determinism contract the md5-based ops already rely on
_ZLIB_LEVEL = 6


def _compression_kernel(doc_ids, texts):
    """Shared per-doc kernel (engine AND golden builder call THIS, so the
    oracle checks the DISTRIBUTED plumbing — row completeness, no dup/loss
    under partitioning — not the kernel; the kernel itself is pinned by the
    fixture tests)."""
    import zlib

    ids, raw, comp, ratio = [], [], [], []
    for d, t in zip(doc_ids, texts):
        if d is None:
            continue
        b = (t or "").encode("utf-8")
        if len(b) == 0:
            continue  # ratio undefined on empty text (excluded both sides)
        z = len(zlib.compress(b, _ZLIB_LEVEL))
        ids.append(d)
        raw.append(len(b))
        comp.append(z)
        ratio.append(int(np.floor(z / len(b) * 1e6 + 0.5)))
    return ids, raw, comp, ratio


def docs_compression_profile(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, raw_bytes, zlib_bytes, ratio_e6): per-document zlib
    compressibility — the cheap repetitiveness detector (a ratio near 0
    means boilerplate/template spam; near 1 means high-entropy text or
    binary junk) that large-corpus quality filters run when a model
    score is too expensive. Embarrassingly parallel, zero shuffle.

    Oracle contract: a golden parquet built by the SAME kernel running
    serially (the media-table MATERIALIZERS pattern) — the comparison
    proves the distributed plumbing (no row loss/dup under any
    partitioning), while the kernel itself is pinned by fixture tests
    with hand-computed byte counts. Empty/NULL text is excluded on both
    sides (ratio undefined).
    """
    def batch_fn(batch: pa.Table) -> pa.Table:
        ids, raw, comp, ratio = _compression_kernel(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "raw_bytes": pa.array(raw, pa.int64()),
                "zlib_bytes": pa.array(comp, pa.int64()),
                "ratio_e6": pa.array(ratio, pa.int64()),
            }
        )

    return ray.data.read_parquet(
        table_path(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(batch_fn, batch_format="pyarrow", zero_copy_batch=True)


def _build_expected_compression(sf_dir: str) -> pa.Table:
    import pyarrow.parquet as _pq

    src = _pq.read_table(table_path(sf_dir, "documents"), columns=["doc_id", "text"])
    ids, raw, comp, ratio = _compression_kernel(
        src["doc_id"].to_pylist(), src["text"].to_pylist()
    )
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "raw_bytes": pa.array(raw, pa.int64()),
            "zlib_bytes": pa.array(comp, pa.int64()),
            "ratio_e6": pa.array(ratio, pa.int64()),
        }
    )


def expected_compression_path(sf_dir: str) -> str:
    from .queryset import expected_table_path

    return expected_table_path(
        "expected-compression", sf_dir, _COMPRESSION_VERSION
    )


def materialize_expected_compression(sf_dir: str) -> str:
    from .queryset import materialize_expected_table

    return materialize_expected_table(
        "expected-compression", sf_dir, _COMPRESSION_VERSION,
        _build_expected_compression,
    )


DOCS_COMPRESSION_SQL = (
    "SELECT doc_id, raw_bytes, zlib_bytes, ratio_e6 FROM read_parquet("
    f"'{expected_compression_path('/root/testdata/sf0.01')}')"
)

register(
    "docs_compression_profile", docs_compression_profile,
    sql=DOCS_COMPRESSION_SQL,
)

from .queryset import MATERIALIZERS, SF_PATH_HELPERS  # noqa: E402

MATERIALIZERS.append(materialize_expected_compression)
SF_PATH_HELPERS.append(expected_compression_path)


# --- declared-vs-detected language confusion matrix (X156) -----------------------


def lang_id_confusion(sf_dir: str) -> "pd.DataFrame":
    """(declared, detected, n, share_of_declared_e6): the confusion
    matrix between each document's DECLARED ``lang`` column and the
    engine's detected language — the metadata-trust audit a mixture
    curator runs before weighting by declared language (mislabeled
    feeds poison per-language quotas silently).

    Exactness: detection is the repo's vectorized lang-ID kernel, whose
    SQL twin is already value-oracled through ``docs_textstats``; counts
    fold over the bounded (declared, detected) enum with zero shuffle;
    ``share_of_declared_e6`` (row-normalized within each declared lang)
    is one shared IEEE division of exact integers. NULL declared langs
    group as the literal '(null)' sentinel on both engines (a real
    missing-metadata signal, not a dropped row).
    """
    import pandas as pd

    from ..functions.textstats import text_stats_columns
    from .exchange import enum_group_sum

    def partial(batch: pa.Table) -> pa.Table:
        det = text_stats_columns(batch["text"])["lang"]
        declared = pc.fill_null(batch["lang"], "(null)")
        g = (
            pa.table(
                {
                    "declared": declared,
                    "detected": det,
                    "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                }
            )
            .group_by(["declared", "detected"])
            .aggregate([("n", "sum")])
        )
        return g.rename_columns(["declared", "detected", "n"])

    fold = enum_group_sum(
        ray.data.read_parquet(
            table_path(sf_dir, "documents"), columns=["lang", "text"]
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["declared", "detected"],
        ["n"],
    )
    cols = {
        "declared": "object", "detected": "object",
        "n": "int64", "share_of_declared_e6": "int64",
    }
    if len(fold) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    fold = fold.sort_values(["declared", "detected"]).reset_index(drop=True)
    tot = fold.groupby("declared")["n"].transform("sum").to_numpy(dtype=np.float64)
    share = np.floor(
        fold["n"].to_numpy(dtype=np.float64) / tot * 1e6 + 0.5
    ).astype(np.int64)
    out = fold.assign(share_of_declared_e6=share)
    return out.astype(cols)


def _lang_confusion_sql() -> str:
    from ..functions.textstats import sql_stats_select

    return f"""
WITH s AS (
  SELECT coalesce(lang, '(null)') AS declared, {sql_stats_select('text')}
  FROM documents
),
g AS (
  SELECT declared, lang AS detected, CAST(count(*) AS BIGINT) AS n
  FROM s GROUP BY 1, 2
),
t AS (SELECT declared, CAST(sum(n) AS BIGINT) AS tot FROM g GROUP BY declared)
SELECT g.declared, g.detected, g.n,
       CAST(floor(CAST(g.n AS DOUBLE) / CAST(t.tot AS DOUBLE) * 1e6 + 0.5)
            AS BIGINT) AS share_of_declared_e6
FROM g JOIN t ON g.declared = t.declared
"""


register("lang_id_confusion", lang_id_confusion, sql=_lang_confusion_sql())
