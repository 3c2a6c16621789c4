"""HTML main-content extraction: DOM tree + text-density boilerplate strip.

The HTML path of the per-turn router. Design carries over the reference's XML
extraction discipline (``OCRResultParser._parse_xml_file``, app.py:1911-2013):

- **one-granularity rule** (app.py:1965-2007): pick exactly ONE node
  granularity from a priority list and extract only at that level, so a parent
  and its child are never both emitted (the double-extraction bug the
  reference's v62 history documents). Priority here:
  ``p > li > h1-h6 > td/th > pre/blockquote > div > body``.
- **attribute-carried text** (app.py:1952, 1991: ``STRING=``/``CONTENT=``):
  a selected node with no child text contributes its ``content``/``alt``/
  ``title`` attribute instead.
- **whole-document fallback** (app.py:2009-2012): no candidate granularity
  with text → the full stripped-tree text as a single block.
- per-string normalization on insertion (``add_text``, app.py:1845-1851).

Boilerplate removal (the Readability-style part; no reference analog because
the reference never sees HTML):

- container subtrees that never hold main content are dropped outright:
  ``script style noscript template nav footer header aside form iframe svg
  button select option``;
- a selected block whose **link density** (characters inside ``<a>`` /
  total characters) is ≥ 0.65 is dropped as a link farm.

The tree comes from one compiled scanner regex (``_SCAN_RE``) and one loop
(``_build_tree``). They reproduce the tree that stdlib ``html.parser`` with
``convert_charrefs=True`` gives after one ``feed`` and ``close``, down to its
error recovery, because the text joins data chunks with a space:

- tag and attribute names are lowercased, the last duplicate attribute wins,
  and attribute values and data are unescaped;
- ``script`` and ``style`` hold raw text up to their end tag (``</script>``
  in any ASCII case, spaces allowed around the name); an unterminated one
  swallows the rest of the input;
- comments, declarations and processing instructions are skipped;
- a ``<`` that opens no markup is a one-character data chunk; markup cut
  off by the end of input is data up to the next ``>`` (inclusive) or ``<``,
  else just its ``<`` (``a<b`` gives the chunks ``a``, ``<``, ``b``, so the
  text is ``a < b``);
- a marked section other than ``<![cdata[`` and its kin raises ``ValueError``
  (``html.parser`` raises ``AssertionError``), so the turn falls back to the
  plain path either way.

``tests/test_domstrip_scanner.py`` compares the two on hostile input.
"""

from __future__ import annotations

import re
from html import unescape
from typing import Optional

from ..functions.textnorm import normalize_text

DROP_TAGS = frozenset(
    "script style noscript template nav footer header aside form iframe svg "
    "button select option".split()
)

# One-granularity priority: first family present-with-text wins.
GRANULARITY_PRIORITY: list[frozenset[str]] = [
    frozenset({"p"}),
    frozenset({"li"}),
    frozenset({"h1", "h2", "h3", "h4", "h5", "h6"}),
    frozenset({"td", "th"}),
    frozenset({"pre", "blockquote"}),
    frozenset({"div"}),
    frozenset({"body"}),
]

_TEXT_ATTRS = ("content", "alt", "title")
_LINK_DENSITY_MAX = 0.65

_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


class _Node:
    __slots__ = ("tag", "attrs", "children", "parent")

    def __init__(self, tag: str, attrs: dict[str, str], parent: Optional["_Node"]):
        self.tag = tag
        self.attrs = attrs
        self.children: list[object] = []  # _Node | str
        self.parent = parent


# One token at a "<", tried in html.parser's order, told apart by the name
# of the last group that matched (``Match.lastgroup``):
#   empty       start tag with no attributes, closed by "/>" ("<br/>")
#   startend    start tag closed by "/>"
#   start       start tag closed by ">"
#   attrs       start tag that is cut off or malformed (see _build_tree)
#   end         end tag in strict form, or
#   endname     end tag name, the rest up to ">" ignored
#   opencomment comment cut off by the end of input
#   marked      marked section ("<![")
#   None        skipped: comment, processing instruction, declaration or
#               bogus comment ("</>", "</ 1>")
# No match is a lone "<" or markup cut off by the end of input. The
# ``attrs`` pattern is html.parser's, which finds where a start tag ends;
# html.parser then re-reads the attributes with its attribute pattern
# (``_ATTR_RE``) and checks that only ">" or "/>" is left. The two patterns
# consume the same attributes, and differ only in that the first also takes
# a "/" right before ">" when no attribute follows, which is the ``empty``
# case. So a tag closed here by ">" or "/>" passes that check, and only a
# node the tree keeps needs its attributes read.
_SCAN_RE = re.compile(
    r"""<(?:
        (?P<tag>[a-zA-Z][^\t\n\r\f />\x00]*)
        (?:[\s/]*/(?P<empty>)>
          | (?P<attrs>(?:[\s/]*(?:(?<=['"\s/])[^\s/>][^\s/=>]*
                (?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*)\s*)?
                (?:\s|/(?!>))*)*)?\s*)
            (?:(?P<startend>/>)|(?P<start>>))?)
      | /(?:\s*(?P<end>[a-zA-Z][-.a-zA-Z0-9:_]*)\s*>
          | (?P<endname>[a-zA-Z][^\t\n\r\f />\x00]*)?[^>]*>)
      | !--(?:(?s:.*?)--\s*>|(?P<opencomment>))
      | (?P<marked>!\[)
      | [?!][^>]*>
    )""",
    re.VERBOSE,
)
# html.parser's attribute loop, run from the end of the tag name: the gap,
# then one attribute per match.
_NAME_GAP_RE = re.compile(r"(?:\s|/(?!>))*")
_ATTR_RE = re.compile(
    r"""((?<=['"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"""
    r"""('[^']*'|"[^"]*"|(?!['"])[^>\s]*))?(?:\s|/(?!>))*"""
)
# A start tag that stops before one of these (or at the end of input) is
# cut off; before any other character it is malformed, and is data.
_ASCII_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_CUT_OFF_NEXT = _ASCII_LETTERS | {"=", "/"}
# End of a raw-text element. html.parser matches it with re.IGNORECASE, so
# "ſ" or "İ" can match too, but it then rejects such a name as data and goes
# on scanning: an ASCII-only search finds the same end tag.
_RAW_TEXT_END = {
    name: re.compile(r"</\s*%s\s*>" % "".join(f"[{c}{c.upper()}]" for c in name))
    for name in ("script", "style")
}
_MARKED_NAME_RE = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
# Where a tag name stops, and the characters after which an attribute may
# start (the lookbehind of ``_ATTR_RE``).
_NAME_STOP_RE = re.compile(r"[\t\n\r\f /\x00]")
_ATTR_AFTER_RE = re.compile(r"['\"\s/]")
_MARKED_CLOSE = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"), re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>")),
}


def _marked_section_end(html: str, i: int, gt_end: int) -> int:
    """End of the ``<![name ...]]>`` section at ``i``; -1 if cut off.
    ``gt_end`` is one past the last ">" of ``html``."""
    m = _MARKED_NAME_RE.match(html, i + 3)
    if m is None:
        if i + 3 == len(html):
            return -1
        raise ValueError(f"expected a marked-section name at {html[i:i + 20]!r}")
    if m.end() == len(html):
        return -1
    close = _MARKED_CLOSE.get(m.group().strip().lower())
    if close is None:
        raise ValueError(f"unknown marked section {html[i:m.end()]!r}")
    end = close.search(html, i + 3, gt_end)
    return end.end() if end else -1


def _attributes(html: str, k: int) -> dict:
    """The attributes of the start tag whose name ends at ``k``: lowercased
    names, unescaped values (None without "="), the last duplicate wins."""
    attrs: dict = {}
    k = _NAME_GAP_RE.match(html, k).end()
    while (a := _ATTR_RE.match(html, k)) is not None:
        name, rest, value = a.group(1, 2, 3)
        if not rest:
            value = None
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if value and "&" in value:
            value = unescape(value)
        attrs[name.lower()] = value
        k = a.end()
    return attrs


def _build_tree(html: str) -> _Node:
    """The forgiving DOM tree of ``html``; dropped subtrees are pruned as it
    is built, and data chunks stay separate children."""
    root = cursor = _Node("#root", {}, None)
    drop = 0  # depth inside a DROP_TAGS subtree
    raw_end = None  # end-tag regex while inside <script> or <style>
    find = html.find
    scan = _SCAN_RE.match
    n = len(html)
    # Past the last ">" no markup can close, so the scanner is not run there:
    # its tag name and its "[^>]*>" branches would run on to the end of input
    # from every "<", which is quadratic in a run like "a<a<a<". The tail
    # takes the scanner's decisions by hand; a tag name there ends at the
    # first _NAME_STOP_RE character, cached for the "<"s inside one name.
    gt_end = html.rfind(">") + 1
    name_from = name_stop = -1  # no name stop in [name_from, name_stop)
    i = 0
    while i < n:
        if raw_end is not None:
            # raw text is always inside a dropped subtree: skip it
            m = raw_end.search(html, i)
            if m is None:
                break
            drop -= 1
            raw_end = None
            i = m.end()
            continue
        j = find("<", i)
        if j < 0:
            j = n
        if j > i:
            if not drop:
                data = html[i:j]
                if "&" in data:
                    data = unescape(data)
                if data:
                    cursor.children.append(data)
            i = j
            if i == n:
                break
        if i < gt_end:
            m = scan(html, i)
            kind = m.lastgroup if m is not None else None
            if kind == "start" or kind == "startend" or kind == "empty":
                i = m.end()
                tag = m.group("tag").lower()
                if kind == "start":
                    if drop:
                        if tag not in _VOID_TAGS:
                            drop += 1
                    elif tag in DROP_TAGS:
                        drop = 1
                    else:
                        node = _Node(tag, _attributes(html, m.end("tag")), cursor)
                        cursor.children.append(node)
                        if tag not in _VOID_TAGS:
                            cursor = node
                    raw_end = _RAW_TEXT_END.get(tag)
                elif not drop and tag not in DROP_TAGS:
                    attrs = _attributes(html, m.end("tag")) if kind == "startend" else {}
                    cursor.children.append(_Node(tag, attrs, cursor))
                continue
            if kind == "end" or kind == "endname":
                i = m.end()
                if drop:
                    drop -= 1
                    continue
                name = m.group(kind).lower()
                node = cursor
                while node is not None and node.tag != name:
                    node = node.parent
                if node is not None and node.parent is not None:
                    cursor = node.parent
                continue
            if m is None:
                if not html.startswith(("</", "<!", "<?"), i):
                    if not drop:  # a "<" that opens nothing is a chunk of its own
                        cursor.children.append("<")
                    i += 1
                    continue
            elif kind is None:
                i = m.end()
                continue
            elif kind == "attrs":
                j = m.end()
                if j < n and html[j] not in _CUT_OFF_NEXT:
                    if not drop:  # malformed start tag: raw data
                        cursor.children.append(html[i:j])
                    i = j
                    continue
            elif kind == "marked":
                end = _marked_section_end(html, i, gt_end)
                if end >= 0:
                    i = end
                    continue
        elif html[i + 1:i + 2] in _ASCII_LETTERS:
            # past the last ">" a start tag is cut off by the end of input,
            # unless its name stops at a NUL that no attribute may follow
            if not name_from <= i + 1 <= name_stop:
                stop = _NAME_STOP_RE.search(html, i + 1)
                name_from, name_stop = i + 1, stop.start() if stop else n
            e = name_stop
            if e < n and html[e] == "\x00" and not _ATTR_AFTER_RE.match(html, e - 1):
                if not drop:  # malformed start tag: raw data
                    cursor.children.append(html[i:e])
                i = e
                continue
        elif html.startswith("<![", i):
            _marked_section_end(html, i, gt_end)  # raises on an unknown name
        elif not html.startswith(("</", "<!", "<?"), i):
            if not drop:
                cursor.children.append("<")
            i += 1
            continue
        # markup cut off by the end of input: data up to the next ">"
        # (inclusive) or "<", else the lone "<"
        k = find(">", i + 1, gt_end)
        if k >= 0:
            k += 1
        else:
            k = find("<", i + 1)
            if k < 0:
                k = i + 1
        if not drop:
            data = unescape(html[i:k])
            if data:
                cursor.children.append(data)
        i = k
    return root


def _iter_text(node: _Node, out: list[str]) -> None:
    for child in node.children:
        if isinstance(child, str):
            out.append(child)
        else:
            _iter_text(child, out)


def _node_text(node: _Node) -> str:
    parts: list[str] = []
    _iter_text(node, parts)
    return " ".join(parts)


def _link_text_len(node: _Node, inside_link: bool = False) -> int:
    total = 0
    for child in node.children:
        if isinstance(child, str):
            if inside_link:
                total += len(normalize_text(child))
        else:
            total += _link_text_len(child, inside_link or child.tag == "a")
    return total


def _collect_nodes(node: _Node, tags: frozenset[str], out: list[_Node]) -> None:
    """Collect matching nodes; never descend into an already-selected node
    (the one-granularity no-double-count guarantee for nestable tags)."""
    for child in node.children:
        if isinstance(child, _Node):
            if child.tag in tags:
                out.append(child)
            else:
                _collect_nodes(child, tags, out)


def _is_link_farm(node: _Node, text: str) -> bool:
    if not text:
        return False
    link_len = _link_text_len(node)
    return link_len / max(1, len(text)) >= _LINK_DENSITY_MAX


def extract_html_main_content(html: str) -> tuple[list[str], bool]:
    """Extract main-content paragraphs from an HTML fragment.

    Returns ``(paragraphs, used_fallback)`` where paragraphs are normalized
    non-empty strings at exactly one node granularity, in document order, and
    ``used_fallback`` marks the whole-document path (no granularity had text).
    """
    root = _build_tree(html or "")

    for tags in GRANULARITY_PRIORITY:
        nodes: list[_Node] = []
        _collect_nodes(root, tags, nodes)
        if not nodes:
            continue
        paragraphs: list[str] = []
        for node in nodes:
            text = normalize_text(_node_text(node))
            if not text:
                for attr in _TEXT_ATTRS:
                    value = node.attrs.get(attr)
                    if value and value.strip():
                        text = normalize_text(value)
                        break
            if not text:
                continue
            if _is_link_farm(node, text):
                continue
            paragraphs.append(text)
        if paragraphs:
            return paragraphs, False

    whole = normalize_text(_node_text(root))
    if whole:
        return [whole], True
    return [], True
