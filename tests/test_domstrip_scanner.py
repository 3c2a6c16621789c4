"""Differential tests: the HTML tag scanner against stdlib ``html.parser``.

``stages.domstrip`` builds its DOM tree with one compiled scanner regex and
one loop. Its text joins data chunks with a space, so the tree has to match
the one the ``HTMLParser`` builder below produces (the builder the scanner
replaced) in every tag, attribute dict and data chunk, on hostile input
too. A scanner that is right on well-formed markup but splits or merges
chunks differently, or keeps the first of two duplicate attributes, fails
here: ``a<b`` must read ``a < b`` and ``<p content='first' CONTENT='second'>``
must read ``second``.
"""

from __future__ import annotations

import random
import time
from html.parser import HTMLParser
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_ocr_batch_ndrocr_lite_ray.stages import domstrip
from pdf_ocr_batch_ndrocr_lite_ray.stages.domstrip import (
    DROP_TAGS,
    _VOID_TAGS,
    _Node,
    extract_html_main_content,
)


class _TreeBuilder(HTMLParser):
    """The oracle: the HTMLParser-based builder, unchanged."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root", {}, None)
        self._cursor = self.root
        self._drop_depth = 0

    def handle_starttag(self, tag, attrs):
        if self._drop_depth:
            if tag not in _VOID_TAGS:
                self._drop_depth += 1
            return
        if tag in DROP_TAGS:
            self._drop_depth = 1
            return
        node = _Node(tag, dict(attrs), self._cursor)
        self._cursor.children.append(node)
        if tag not in _VOID_TAGS:
            self._cursor = node

    def handle_startendtag(self, tag, attrs):
        if self._drop_depth:
            return
        if tag in DROP_TAGS:
            return
        self._cursor.children.append(_Node(tag, dict(attrs), self._cursor))

    def handle_endtag(self, tag):
        if self._drop_depth:
            self._drop_depth -= 1
            return
        node = self._cursor
        while node is not None and node.tag != tag:
            node = node.parent
        if node is not None and node.parent is not None:
            self._cursor = node.parent

    def handle_data(self, data):
        if self._drop_depth or not data:
            return
        self._cursor.children.append(data)


def _oracle_tree(html: str) -> _Node:
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


def _dump(node):
    """A node as nested ``(tag, attrs, children)``; data chunks as strings."""
    if isinstance(node, str):
        return node
    return (node.tag, node.attrs, [_dump(child) for child in node.children])


def _outcome(fn, html: str):
    # html.parser raises AssertionError on an unknown marked section, the
    # scanner ValueError; the extractor treats both as a failed parse
    try:
        return fn(html)
    except (AssertionError, ValueError):
        return "raised"


def _oracle_main_content(html: str):
    with mock.patch.object(domstrip, "_build_tree", _oracle_tree):
        return extract_html_main_content(html)


def assert_same(html: str) -> None:
    assert _outcome(lambda h: _dump(domstrip._build_tree(h)), html) == _outcome(
        lambda h: _dump(_oracle_tree(h)), html
    ), html
    assert _outcome(extract_html_main_content, html) == _outcome(_oracle_main_content, html), html


CASES = [
    # a "<" that opens nothing, or markup cut off by the end of input
    pytest.param("a<b", id="lt-letter-at-end"),
    pytest.param("x <", id="lt-at-end"),
    pytest.param("a < b", id="lt-space"),
    pytest.param("a </ b> c", id="end-tag-space-then-name"),
    pytest.param("a </1> c", id="end-tag-digit"),
    pytest.param("a </", id="end-tag-open-at-end"),
    pytest.param("a </> b", id="end-tag-empty"),
    pytest.param("<p>one <b two", id="start-tag-cut-off"),
    pytest.param("<p>one <b x='two", id="attr-value-cut-off"),
    pytest.param("<p>one <a b=> two</p>", id="attr-empty-value"),
    # duplicate attribute names: the last one wins, names are lowercased
    pytest.param("<p content='first' CONTENT='second'></p>", id="dup-attr-case"),
    pytest.param("<p alt=a ALT=b Alt=c></p>", id="dup-attr-three"),
    # unquoted, valueless and entity-escaped attribute values
    pytest.param("<p title=unquoted></p>", id="attr-unquoted"),
    pytest.param("<p title></p><p alt content></p>", id="attr-valueless"),
    pytest.param("<p content='a &amp; b &lt;c&gt; &#65;'></p>", id="attr-entities"),
    pytest.param("<a href=/x/>link</a><p>t</p>", id="attr-bare-value-slash"),
    # self-closing and void tags
    pytest.param("<p/>text<p />more", id="p-self-closing"),
    pytest.param("<div>a<br>b<img src=x alt='pic'>c<hr/>d</div>", id="void-tags"),
    pytest.param("<p>a<nav/>b<script/>c</p>", id="drop-tag-self-closing"),
    # comments, declarations, processing instructions, marked sections
    pytest.param("<p>a<!-- c --></p><p>b<!---->c</p>", id="comment"),
    pytest.param("<p>a<!-- never closed", id="comment-cut-off"),
    pytest.param("<p>a<!-->b</p>", id="comment-short"),
    pytest.param("<!DOCTYPE html><p>a</p>", id="doctype"),
    pytest.param("<!doctype", id="doctype-cut-off"),
    pytest.param("<?xml version='1.0'?><p>a</p>", id="pi"),
    pytest.param("<p>a<![CDATA[ x ]]>b</p>", id="cdata"),
    pytest.param("<p>a<![if gte mso 9]>b<![endif]>c</p>", id="ms-conditional"),
    pytest.param("<p>a<![foo[ x ]]>b</p>", id="marked-section-unknown"),
    pytest.param("<p>a<![ x", id="marked-section-no-name"),
    pytest.param("<p>a<![", id="marked-section-at-end"),
    # raw text in script and style
    pytest.param("<p>a</p><script>x = '<p>no</p>'</SCRIPT ><p>b</p>", id="script-end-upper-space"),
    pytest.param("<p>a</p><script>var s = '</scripty>';</script><p>b</p>", id="script-end-lookalike"),
    pytest.param("<p>a</p><script>never closed <p>b</p>", id="script-unterminated"),
    pytest.param("<p>a</p><style>p { x: 1 }", id="style-unterminated"),
    pytest.param("<p>a</p><script></ſcript><p>b</p></script><p>c</p>", id="script-end-non-ascii"),
    # character references in data
    pytest.param("<p>&amp without semicolon</p>", id="entity-no-semicolon"),
    pytest.param("<p>&#65 and &#x42;</p>", id="charref-no-semicolon"),
    pytest.param("<p>bad &#; ref</p>", id="charref-empty"),
    pytest.param("<p>cut &ab", id="entity-at-end"),
    pytest.param("<p>&#1; &#0; &#xD800;</p>", id="charref-invalid"),
    # case and NUL bytes
    pytest.param("<P CLASS='x'>Upper</P><DIV>d</DIV>", id="uppercase-tags"),
    pytest.param("<p>a\x00b</p><p\x00>c</p><a\x00 b>d", id="nul-bytes"),
    pytest.param("<p a=1\x00>x</p>", id="nul-in-attrs"),
    # past the last ">" nothing closes: the tail is decided without the
    # scanner, and must still give html.parser's chunks
    pytest.param("a<" * 50, id="tail-lt-letter-run"),
    pytest.param("a<" * 50 + ">", id="tail-lt-letter-run-closed"),
    pytest.param("</a<" * 50, id="tail-end-tag-run"),
    pytest.param("<p>x</p><!-- " + "a<" * 20, id="tail-comment-cut-off-run"),
    pytest.param("<p>x</p><![CDATA[ " + "a<" * 20, id="tail-marked-cut-off-run"),
    pytest.param("<p>x</p><![foo[ a<b", id="tail-marked-unknown"),
    pytest.param("<p>x</p>a<bc\x00d<e", id="tail-name-stops-at-nul"),
    pytest.param("<p>x</p>a<b'\x00c<d", id="tail-nul-after-quote"),
    pytest.param("<p>x</p>a<b\x0b\x00c<d", id="tail-nul-after-vtab"),
    pytest.param("<p>x</p>a<b c<d e='f<g", id="tail-attrs-cut-off"),
    pytest.param("<p>x</p><? a< <! b<", id="tail-pi-and-declaration"),
]


@pytest.mark.parametrize("html", CASES)
def test_scanner_matches_html_parser(html):
    assert_same(html)


def test_lt_before_letter_is_its_own_chunk():
    assert extract_html_main_content("a<b") == (["a < b"], True)


def test_tail_of_unclosed_tags_is_linear():
    # a scanner run to the end of input from every "<" past the last ">"
    # makes this quadratic: about a minute for these 200 KB
    start = time.perf_counter()
    blocks, _ = extract_html_main_content("<p>x</p>" + "a<" * 100_000)
    assert time.perf_counter() - start < 2.0
    assert blocks == ["x"]


def test_last_duplicate_attribute_wins():
    html = "<p content='first' CONTENT='second'></p>"
    assert extract_html_main_content(html) == (["second"], False)


# Whole tokens and single characters that steer the scanner into each of
# its branches.
_TOKENS = [
    "<", ">", "/", "!", "-", "?", "[", "]", "=", '"', "'", " ", "\t", "\n", "\x00",
    "\xa0", "\x0b", "&", ";", "#", "a", "b", "p", "P", "x", "A", "1", ".", "ſ", "İ",
    "script", "style", "SCRIPT", "nav", "div", "li", "br", "img", "content", "CONTENT",
    "&amp;", "&amp", "&#65", "&#x41;", "&lt", "<!--", "-->", "<![", "CDATA[", "if", "]]>",
    "<!DOCTYPE", "<?", "</", "<p", "<script>", "</script>", "</SCRIPT >", "<style>",
    "</style>", "<a href=", "<p/>", " content=", "alt=", "title=",
]


def _random_html(rng: random.Random) -> str:
    return "".join(rng.choice(_TOKENS) for _ in range(rng.randrange(0, 30)))


def test_seeded_hostile_strings():
    rng = random.Random(20240612)
    for _ in range(50_000):
        assert_same(_random_html(rng))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join))
def test_property_token_strings(html):
    assert_same(html)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="<>/!-?[]=\"' \t\n\x00&;#abpsxAPSX1ſ", max_size=40))
def test_property_character_strings(html):
    assert_same(html)
