"""Unit + parity + property tests for the text-normalization kernel (F1-F10)."""

from __future__ import annotations

import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_ocr_batch_ndrocr_lite_ray.functions import textnorm as tn

# Character pool spanning every rule family: CJK, ASCII letters/digits,
# currency, brackets, punctuation, bullets, whitespace kinds.
_POOL = (
    "あいうえおアイウエオ漢字日本語東京テスト々〆〤ｱｲｳ"
    + string.ascii_letters
    + string.digits
    + "¥￥（）()[]【】「」『』、。，．,:;・：；！？●• \t\n　"
)


def _random_strings(n: int, seed: int = 42) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choice(_POOL) for _ in range(rng.randrange(0, 60))) for _ in range(n)]


class TestNormalizeSpace:
    def test_basic(self):
        assert tn.normalize_space("  a \t b\nc  ") == "a b c"
        assert tn.normalize_space("") == ""
        assert tn.normalize_space(None) == ""


class TestNormalizeText:
    def test_cjk_space_removal(self):
        assert tn.normalize_text("こんにちは  世界") == "こんにちは世界"

    def test_letter_digit(self):
        assert tn.normalize_text("A 1") == "A1"
        assert tn.normalize_text("1 A") == "1A"

    def test_currency(self):
        assert tn.normalize_text("¥ 100") == "¥100"
        assert tn.normalize_text("￥ 100") == "￥100"

    def test_brackets_punct(self):
        assert tn.normalize_text("( a") == "(a"
        assert tn.normalize_text("a )") == "a)"
        assert tn.normalize_text("a 。") == "a。"

    def test_bullets(self):
        assert tn.normalize_text("● item") == "●item"

    def test_fixpoint_idempotence_samples(self):
        for s in _random_strings(300):
            once = tn.normalize_text(s)
            assert tn.normalize_text(once) == once


class TestJapaneseCollapse:
    def test_keeps_ascii_pair_spaces(self):
        assert tn.collapse_spaces_japanese("日本 語 abc  def テスト") == "日本語abc defテスト"

    def test_non_japanese_passthrough(self):
        assert tn.collapse_spaces_japanese("hello  world") == "hello world"

    def test_idempotence_samples(self):
        for s in _random_strings(300, seed=7):
            once = tn.collapse_spaces_japanese(s)
            assert tn.collapse_spaces_japanese(once) == once

    def test_long_space_run_is_linear(self):
        """Placeholder chars in the input come back as one long space run;
        a run costs one scan, not one per space (50k spaces took ~27 s when
        every space started a new match attempt)."""
        import time

        for tail, kept in (("x", True), ("1", False), ("）", False)):
            s = "あ" + "\ufff0" * 50_000 + tail
            start = time.monotonic()
            out = tn.collapse_spaces_japanese(s)
            assert time.monotonic() - start < 2.0
            assert out == "あ" + " " * (50_000 if kept else 0) + tail


class TestHelpers:
    def test_contains_japanese(self):
        assert tn.contains_japanese("漢")
        assert tn.contains_japanese("ア")
        assert not tn.contains_japanese("abc123")

    def test_ascii_word_like(self):
        assert tn.is_ascii_word_like("abc-12.3")
        assert not tn.is_ascii_word_like("abc 123")
        assert not tn.is_ascii_word_like("日本")
        assert not tn.is_ascii_word_like("")

    def test_clamp_dpi(self):
        assert tn.clamp_dpi(300) == 300.0
        assert tn.clamp_dpi("72") == 72.0
        assert tn.clamp_dpi(10) == 150.0
        assert tn.clamp_dpi(99999) == 150.0
        assert tn.clamp_dpi("junk") == 150.0

    def test_tokenize_name(self):
        assert tn.tokenize_name("doc_p001-final.png") == {"doc", "p001", "final", "png"}

    def test_page_number_from_name(self):
        assert tn.page_number_from_name("doc_p003_x") == 3
        assert tn.page_number_from_name("doc_page12") == 12
        assert tn.page_number_from_name("doc_0042") == 42
        assert tn.page_number_from_name("nodigits") is None

    def test_wrap_text(self):
        chunks = tn.wrap_text("a" * 25, width=10)
        assert chunks == ["a" * 10, "a" * 10, "a" * 5]
        assert tn.wrap_text("", width=10) == []


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=_POOL, max_size=80))
def test_normalize_text_idempotent(s):
    once = tn.normalize_text(s)
    assert tn.normalize_text(once) == once


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=_POOL, max_size=80))
def test_polish_line_idempotent(s):
    once = tn.polish_line(s)
    assert tn.polish_line(once) == once


# ---------------------------------------------------------------------------
# In-repo oracle: the reference's rule cascades, applied to a fixpoint
# ---------------------------------------------------------------------------

# The reference's two rule lists (app.py:3930-3938 and 3969-3977), applied
# one rule at a time and repeated until the string stops changing. The
# kernel applies each list as one substitution; these tests pin that the
# two forms agree.
_CASCADE_NORMALIZE = [
    re.compile(r"(?<=[぀-ヿ㐀-䶿一-鿿！-｠　-〿])\s+(?=[぀-ヿ㐀-䶿一-鿿！-｠　-〿])"),
    re.compile(r"(?<=[A-Za-z])\s+(?=\d)"),
    re.compile(r"(?<=\d)\s+(?=[A-Za-z])"),
    re.compile(r"(?<=[\¥￥])\s+(?=\d)"),
    re.compile(r"(?<=[（\(\[【「『])\s+"),
    re.compile(r"\s+(?=[）\)\]】」』、。，．,:;])"),
    re.compile(r"(?<=[●•])\s+"),
]
_CASCADE_JP_COLLAPSE = [
    re.compile(r"(?<=[（(\[【「『]) +"),
    re.compile(r" +(?=[）)\]】」』、。，．・：；！？])"),
    re.compile(r"(?<=[●•]) +"),
    re.compile(r"(?<=P) +(?=\d)"),
    re.compile(r"(?<=\d) +(?=[頁ページ])"),
    re.compile(r"(?<=\d) +(?=[ぁ-ゖァ-ヺーｦ-ﾟ一-龯々〆〤])"),
    re.compile(r"(?<=[ぁ-ゖァ-ヺーｦ-ﾟ一-龯々〆〤]) +(?=\d)"),
]


def _to_fixpoint(s: str, rules: list) -> str:
    prev = None
    while s != prev:
        prev = s
        for pat in rules:
            s = pat.sub("", s)
    return s


def _oracle_normalize_text(text: str) -> str:
    s = re.sub(r"\s+", " ", text).strip()
    return _to_fixpoint(s, _CASCADE_NORMALIZE).strip()


def _oracle_collapse_spaces_japanese(text: str) -> str:
    s = _oracle_normalize_text(text)
    if not re.search(r"[ぁ-んァ-ヶ一-龯々〆〤ｦ-ﾟ]", s):
        return s
    s = re.sub(r"(?<=[A-Za-z0-9])\s+(?=[A-Za-z0-9])", "\ufff0", s)
    s = re.sub(r"\s+", "", s).replace("\ufff0", " ")
    return _to_fixpoint(s, _CASCADE_JP_COLLAPSE).strip()


def _oracle_polish_line(text: str) -> str:
    s = _oracle_normalize_text(text)
    if re.search(r"[ぁ-んァ-ヶ一-龯々〆〤ｦ-ﾟ]", s):
        s = _oracle_collapse_spaces_japanese(s)
    return s.strip()


# Every rule's context class, plus the whitespace kinds the collapse must
# fold (ideographic space, NBSP, the \x1c-\x1f separators, tab, CRLF) and
# the U+FFF0 placeholder the Japanese collapse uses internally.
_ORACLE_POOL = (
    "あいアイ漢字日本語頁ページー々〆〤ｱﾟ" + "AbPp" + "0159" + "０１"
    + "¥￥（）()[]【】「」『』、。，．,:;・：；！？●•"
    + " \t\u3000\u00a0\x1c\x1f\r\n\ufff0"
)
_ORACLE_PARTS = list(_ORACLE_POOL) + ["\r\n", "  ", " \u3000 ", "\ufff0\ufff0"]


def _assert_matches_cascades(s: str) -> None:
    want = _oracle_collapse_spaces_japanese(s)
    assert tn.normalize_text(s) == _oracle_normalize_text(s), repr(s)
    assert tn.collapse_spaces_japanese(s) == want, repr(s)
    assert tn.polish_line(s) == _oracle_polish_line(s) == want, repr(s)


def test_one_pass_rules_match_fixpoint_cascades():
    rng = random.Random(20261018)
    for _ in range(100_000):
        _assert_matches_cascades(
            "".join(rng.choice(_ORACLE_PARTS) for _ in range(rng.randrange(0, 24)))
        )


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_ORACLE_PARTS), max_size=40).map("".join))
def test_one_pass_rules_match_fixpoint_cascades_property(s):
    _assert_matches_cascades(s)


# ---------------------------------------------------------------------------
# Parity fuzz against the reference implementation
# ---------------------------------------------------------------------------

class TestReferenceParity:
    def test_normalize_space(self, refmod):
        for s in _random_strings(500, seed=1):
            assert tn.normalize_space(s) == refmod._normalize_space(s)

    def test_normalize_text(self, refmod):
        for s in _random_strings(500, seed=2):
            assert tn.normalize_text(s) == refmod._normalize_ocr_text(s)

    def test_collapse_spaces_japanese(self, refmod):
        for s in _random_strings(500, seed=3):
            assert tn.collapse_spaces_japanese(s) == refmod._collapse_spaces_for_japanese_line(s)

    def test_polish_line(self, refmod):
        for s in _random_strings(500, seed=4):
            assert tn.polish_line(s) == refmod._polish_hidden_line_text(s)

    def test_predicates(self, refmod):
        for s in _random_strings(500, seed=5):
            assert tn.contains_japanese(s) == refmod._contains_japanese(s)
            assert tn.is_ascii_word_like(s) == refmod._is_ascii_word_like(s)

    def test_name_helpers(self, refmod):
        names = ["doc_p001", "x-page3-", "a_0042_b", "img12", "p9", "none", "P000"]
        for name in names:
            assert tn.tokenize_name(name) == refmod._tokenize_name(name)
            assert tn.page_number_from_name(name) == refmod._extract_page_number_from_name(name)


class TestGuessPageIndex:
    PAGES = ["scan_0001", "scan_0002", "chapter-two-page2", "appendix_final"]

    def test_exact_number_wins(self):
        assert tn.guess_page_index("frag_p0003", self.PAGES) == 2
        assert tn.guess_page_index("x_0002_y", self.PAGES) == 1

    def test_out_of_range_number_falls_through(self):
        # p9 exceeds page_count -> fuzzy scoring (no match -> None)
        assert tn.guess_page_index("zz_p0009_zz", self.PAGES) is None

    def test_single_page_claims_all(self):
        assert tn.guess_page_index("anything", ["only"]) == 0

    def test_substring_and_token_overlap(self):
        assert tn.guess_page_index("out-appendix-final-ocr", self.PAGES) == 3
        # "page2" carries an exact embedded number -> 1-based page 2, NOT
        # the fuzzy match against the page stem (reference precedence)
        assert tn.guess_page_index("chapter-two-page2-result", self.PAGES) == 1

    def test_no_evidence_is_none(self):
        assert tn.guess_page_index("unrelated", self.PAGES) is None
        assert tn.guess_page_index("", self.PAGES) is None

    def test_matches_reference(self, refmod):
        import random
        import types
        from pathlib import Path

        class _Page:
            def __init__(self, index, stem):
                self.index = index
                self.image_path = Path(f"{stem}.png")

        parser = refmod.OCRResultParser(log=lambda level, msg: None)
        rng = random.Random(77)
        stems_pool = [
            "scan_0001", "scan_0002", "page3", "frag_p0004", "doc-part-five",
            "image", "img_001", "table_page2", "fig", "appendix",
        ]
        probes = [
            "frag_p0001", "scan_0002_ocr", "out_page3", "img_001_result",
            "doc-part-five", "nothing-here", "p0002", "_0003_", "page1",
            "table_page2_x", "", "appendix",
        ]
        for _ in range(200):
            n = rng.randrange(1, 6)
            stems = rng.sample(stems_pool, n)
            pages = [_Page(i, s) for i, s in enumerate(stems)]
            prepared = types.SimpleNamespace(pages=pages)
            probe = rng.choice(probes)
            want = parser._guess_page_index_from_name(Path(probe + ".json"), prepared)
            got = tn.guess_page_index(probe, stems)
            assert got == want, (probe, stems)
