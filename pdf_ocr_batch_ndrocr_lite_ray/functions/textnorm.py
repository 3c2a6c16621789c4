"""Text-normalization kernel (the reference's F1-F10 string functions).

Per-turn text equality with the reference hinges on these functions being
semantically identical to the reference implementation:

- ``normalize_space``            ⇔ ``_normalize_space``            (app.py:3921-3922)
- ``normalize_text``             ⇔ ``_normalize_ocr_text``         (app.py:3925-3944)
- ``contains_japanese``          ⇔ ``_contains_japanese``          (app.py:3947-3948)
- ``is_ascii_word_like``         ⇔ ``_is_ascii_word_like``         (app.py:3951-3952)
- ``collapse_spaces_japanese``   ⇔ ``_collapse_spaces_for_japanese_line`` (app.py:3955-3983)
- ``polish_line``                ⇔ ``_polish_hidden_line_text`` / ``_normalize_hidden_text``
                                                                    (app.py:3986-3996)
- ``wrap_text``                  ⇔ ``_wrap_for_hidden_text``        (app.py:4332-4348)
- ``clamp_dpi``                  ⇔ ``_normalize_dpi_value``         (app.py:3911-3918)
- ``tokenize_name``              ⇔ ``_tokenize_name``               (app.py:4124-4125)
- ``page_number_from_name``      ⇔ ``_extract_page_number_from_name`` (app.py:4129-4141)

All functions are pure; the regexes are compiled once at module import
(one import per Ray worker process — the "state built once per worker" pattern).

The reference applies each space-deletion rule list over and over until the
string stops changing. Here each list is one alternation applied once, and
that reaches the same fixpoint: after the whitespace collapse every space
(or, in the Japanese collapse, every space run) sits between two non-space
characters, every rule decides on those two neighbours alone, and deleting
one space never changes another space's neighbours. So a space the first
pass keeps is kept by every later pass, and ``f(f(x)) == f(x)``
(tests/test_textnorm.py checks both forms agree and property-tests
idempotence).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Optional

_WS_RE = re.compile(r"\s+")

# Unwanted half-width spaces that OCR tends to inject around CJK text,
# digits, currency, brackets and bullets (reference rule list at
# app.py:3930-3938), one alternative per rule. It runs after the whitespace
# collapse, so each space is a single " " and a 2-char lookbehind "X " sees
# the character before it.
_NORMALIZE_RE = re.compile(
    r" (?:(?<=[぀-ヿ㐀-䶿一-鿿！-｠　-〿] )(?=[぀-ヿ㐀-䶿一-鿿！-｠　-〿])"
    r"|(?<=[A-Za-z] )(?=\d)"
    r"|(?<=\d )(?=[A-Za-z])"
    r"|(?<=[\¥￥] )(?=\d)"
    r"|(?<=[（\(\[【「『] )"
    r"|(?=[）\)\]】」』、。，．,:;])"
    r"|(?<=[●•] ))"
)

_JAPANESE_RE = re.compile(r"[ぁ-んァ-ヶ一-龯々〆〤ｦ-ﾟ]")
_ASCII_WORD_RE = re.compile(r"[A-Za-z0-9%&/@#_+\-=:;.,]+")

# Second rule list, used on Japanese-bearing lines after the aggressive
# space collapse (reference rule list at app.py:3969-3977), one alternative
# per rule. Spaces here can come in runs (an input that carries the
# placeholder below), so each alternative checks the run's first space
# against the character before it and deletes the whole run. ``(?<!  )``
# skips match attempts inside a run, which keeps a long run linear.
_JP_COLLAPSE_RE = re.compile(
    r" (?<!  )(?:(?<=[（(\[【「『] ) *"
    r"| *(?=[）)\]】」』、。，．・：；！？])"
    r"|(?<=[●•] ) *"
    r"|(?<=P ) *(?=\d)"
    r"|(?<=\d ) *(?=[頁ページ])"
    r"|(?<=\d ) *(?=[ぁ-ゖァ-ヺーｦ-ﾟ一-龯々〆〤])"
    r"|(?<=[ぁ-ゖァ-ヺーｦ-ﾟ一-龯々〆〤] ) *(?=\d))"
)

# Placeholder used to protect ASCII-word inter-word spaces while every other
# space is dropped (reference app.py:3964-3967).
_ASCII_PAIR_SPACE_RE = re.compile(r"(?<=[A-Za-z0-9])\s+(?=[A-Za-z0-9])")
_PLACEHOLDER = "￰"

DEFAULT_IMAGE_DPI = 150.0


def normalize_space(text: Optional[str]) -> str:
    """Collapse all runs of whitespace to a single space and strip."""
    return _WS_RE.sub(" ", text or "").strip()


class RowBudgetExceeded(Exception):
    """A single row blew its wall-clock budget (straggler guard, SURVEY §4
    — the reference bounds per-item work with a 3600 s subprocess timeout,
    app.py:88, 1601-1607). Raised from the normalization kernels, caught by
    the extractor and turned into an action="error" row."""


#: per-row deadline (time.monotonic value), set by the extractor before each
#: row and cleared after. Ray tasks/actors execute calls single-threaded per
#: worker process, so a module global is safe worker-local state.
_ROW_DEADLINE: Optional[float] = None


def set_row_deadline(seconds: Optional[float]) -> None:
    """Arm (or with None, disarm) the per-row wall-clock budget."""
    global _ROW_DEADLINE
    if seconds is None:
        _ROW_DEADLINE = None
    else:
        import time

        _ROW_DEADLINE = time.monotonic() + seconds


def check_row_budget() -> None:
    """Raise ``RowBudgetExceeded`` if the armed deadline has passed.
    Called once per uncached ``normalize_text`` and once per Japanese
    collapse — one ``time.monotonic`` per call, never per character."""
    if _ROW_DEADLINE is not None:
        import time

        if time.monotonic() > _ROW_DEADLINE:
            raise RowBudgetExceeded()


@lru_cache(maxsize=65536)
def _normalize_text_cached(s: str) -> str:
    check_row_budget()
    return _NORMALIZE_RE.sub("", s)


def normalize_text(text: Optional[str]) -> str:
    """Whitespace-collapse, then delete the unwanted spaces in one pass.

    The result is the fixpoint of the reference's repeated rule cascade
    (see the module docstring). Memoized on the collapsed string: token
    texts repeat massively inside a corpus (layout tokens are words), and
    the rule substitution is the single hottest kernel in the pdfish path.
    Pure function → cache-safe; each worker process keeps its own LRU.
    """
    s = normalize_space(text)
    if not s:
        return ""
    return _normalize_text_cached(s)


def contains_japanese(text: Optional[str]) -> bool:
    return bool(_JAPANESE_RE.search(text or ""))


def is_ascii_word_like(text: Optional[str]) -> bool:
    return bool(_ASCII_WORD_RE.fullmatch(text or ""))


def collapse_spaces_japanese(text: Optional[str]) -> str:
    """On Japanese-bearing lines keep only ASCII-word↔ASCII-word spaces.

    Non-Japanese input passes through ``normalize_text`` untouched.
    """
    s = normalize_text(text)
    if not contains_japanese(s):
        return s
    check_row_budget()
    s = _ASCII_PAIR_SPACE_RE.sub(_PLACEHOLDER, s)
    s = _WS_RE.sub("", s)
    s = s.replace(_PLACEHOLDER, " ")
    return _JP_COLLAPSE_RE.sub("", s).strip()


#: final per-line normalization (normalize, then JP-collapse when needed).
#: ``normalize_text`` is idempotent, so this is exactly
#: ``collapse_spaces_japanese``; the two names mirror two reference functions.
polish_line = collapse_spaces_japanese


def wrap_text(text: Optional[str], width: int = 80) -> list[str]:
    """Character-count wrap, re-polishing each chunk (reference app.py:4332-4348)."""
    s = polish_line(text)
    if not s:
        return []
    if width <= 0:
        return [s]
    chunks: list[str] = []
    for i in range(0, len(s), width):
        piece = polish_line(s[i : i + width])
        if piece:
            chunks.append(piece)
    return chunks


def clamp_dpi(value: Any) -> float:
    """Validate/clamp a DPI-like numeric to [20, 1200], defaulting to 150."""
    try:
        v = float(value)
    except Exception:
        return DEFAULT_IMAGE_DPI
    # Inverted comparison also rejects NaN (deviation from the reference,
    # which propagates NaN through its two one-sided checks).
    if not (20 <= v <= 1200):
        return DEFAULT_IMAGE_DPI
    return v


def tokenize_name(name: Optional[str]) -> set[str]:
    """Split a lowercase name on non-alphanumerics into a token set."""
    return {t for t in re.split(r"[^a-z0-9]+", (name or "").lower()) if t}


_PAGE_NUM_PATTERNS = [
    re.compile(r"(?:^|[_\-])p(?:age)?0*(\d{1,5})(?:$|[_\-])"),
    re.compile(r"(?:^|[_\-])0*(\d{1,5})(?:$|[_\-])"),
]


def page_number_from_name(name: Optional[str]) -> Optional[int]:
    """Extract a page/fragment number embedded in a name, if any."""
    for pat in _PAGE_NUM_PATTERNS:
        m = pat.search(name or "")
        if m:
            try:
                return int(m.group(1))
            except ValueError:
                continue
    return None


def guess_page_index(name: Optional[str], page_names: list[str]) -> Optional[int]:
    """Fuzzy page/fragment attribution of a name to one of ``page_names``.

    Mirrors the reference's ``_guess_page_index_from_name``
    (app.py:2025-2051): exact embedded page number wins (1-based, must be
    in range); a single-page document claims everything; otherwise each
    page is scored by summed lengths of candidate substrings found in the
    name (the page's own stem, ``pNNNN``, ``pageN``, ``_NNNN``) plus the
    name-token overlap — highest positive score wins, ties to the earlier
    page.
    """
    lowered = (name or "").lower()
    page_count = len(page_names)
    exact = page_number_from_name(lowered)
    if exact is not None and 1 <= exact <= page_count:
        return exact - 1
    if page_count == 1:
        return 0
    name_tokens = tokenize_name(lowered)
    best: Optional[tuple[int, int]] = None
    for idx, page_name in enumerate(page_names):
        stem = (page_name or "").lower()
        candidates = {stem, f"p{idx + 1:04d}", f"page{idx + 1}", f"_{idx + 1:04d}"}
        score = 0
        for cand in candidates:
            if cand and cand in lowered:
                score += len(cand)
        score += len(name_tokens & tokenize_name(stem))
        if score > 0 and (best is None or score > best[0]):
            best = (score, idx)
    return best[1] if best else None
