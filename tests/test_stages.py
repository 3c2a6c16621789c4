"""Unit tests for sniffer, pdfish payload parser, HTML domstrip, and extract_turn."""

from __future__ import annotations

import json

import pyarrow as pa

from pdf_ocr_batch_ndrocr_lite_ray.stages import sniffer
from pdf_ocr_batch_ndrocr_lite_ray.stages.domstrip import extract_html_main_content
from pdf_ocr_batch_ndrocr_lite_ray.stages.extract import (
    ACTION_EMPTY,
    ACTION_ERROR,
    ACTION_EXTRACTED,
    ACTION_SKIPPED_CLEAN,
    extract_turn,
)
from pdf_ocr_batch_ndrocr_lite_ray.stages.payload import parse_pdfish_payload


class TestSniffer:
    def test_kinds(self):
        cases = {
            "": "empty",
            "   \t\n": "empty",
            '[{"text": "a", "bbox": [0,0,1,1]}]': "pdfish",
            ' {"contents": []}': "pdfish",
            "<html><body><p>hi</p></body></html>": "html",
            "<p>hello</p>": "html",
            "hello world": "plain",
            "a < b > c": "plain",
            "x <notarealtag> y": "plain",  # 1 tag-like, unknown, low density
            "<foo><bar><baz> stuff </baz></bar></foo>": "html",  # density >= 3
        }
        for text, want in cases.items():
            assert sniffer.classify_one(text) == want, repr(text)

    def test_vectorized_matches_scalar(self):
        texts = ["", "<p>x</p>", "[1,2]", "plain", None, "{\"a\":1}"]
        arr = sniffer.classify_text_array(pa.array(texts, type=pa.string()))
        assert arr.to_pylist() == [
            sniffer.classify_one(t or "") for t in texts
        ]

    def test_sniff_batch_appends_column(self):
        batch = pa.table({"text": ["hi", "<p>a</p>"]})
        out = sniffer.sniff_batch(batch)
        assert out["content_kind"].to_pylist() == ["plain", "html"]


class TestPayloadParser:
    def test_flat_token_list(self):
        boxes, blocks = parse_pdfish_payload(
            '[{"text": "a", "bbox": [0,0,10,10]}, {"content": "b", "x": 0, "y": 20, "w": 5, "h": 5}]'
        )
        assert [(b.text, b.x1, b.y1) for b in boxes] == [("a", 0, 0), ("b", 0, 20)]
        assert blocks == []

    def test_contents_nested_shape(self):
        payload = json.dumps(
            {"contents": [[{"text": "x", "boundingBox": [[0, 0], [5, 5]]}]], "imginfo": {}}
        )
        boxes, blocks = parse_pdfish_payload(payload)
        assert [b.text for b in boxes] == ["x"]

    def test_text_leaf(self):
        boxes, blocks = parse_pdfish_payload('[{"text": "leafy text", "id": 3}]')
        assert boxes == [] and blocks == ["leafy text"]

    def test_normalization_on_insert(self):
        boxes, _ = parse_pdfish_payload('[{"text": "こん にちは", "bbox": [0,0,9,9]}]')
        assert boxes[0].text == "こんにちは"

    def test_bad_json_raises(self):
        import pytest

        with pytest.raises(ValueError):
            parse_pdfish_payload('{"text": "trunc')

    def test_deep_nesting_bounded(self):
        deep = json.loads("[" * 80 + "]" * 80) if False else None
        payload = "[" * 80 + '{"text":"t","bbox":[0,0,1,1]}' + "]" * 80
        boxes, blocks = parse_pdfish_payload(payload)
        assert boxes == [] and blocks == []  # beyond depth cap: dropped, not crash


class TestDomStrip:
    def test_paragraph_granularity_and_boilerplate(self):
        html = (
            "<html><body><nav><a href='/'>home</a></nav>"
            "<p>first para</p><div><p>second para</p></div>"
            "<script>var x;</script><footer>foot</footer></body></html>"
        )
        paras, fallback = extract_html_main_content(html)
        assert paras == ["first para", "second para"]
        assert not fallback

    def test_no_double_extraction_nested_divs(self):
        html = "<div><div>inner text</div></div>"
        paras, fallback = extract_html_main_content(html)
        # one granularity: outer div selected once, no duplicate
        assert paras == ["inner text"]

    def test_link_farm_dropped(self):
        html = (
            "<p>real content here with words</p>"
            "<p><a href='/1'>aa</a> <a href='/2'>bb</a> <a href='/3'>cc</a></p>"
        )
        paras, _ = extract_html_main_content(html)
        assert paras == ["real content here with words"]

    def test_attribute_carried_text(self):
        paras, _ = extract_html_main_content("<p content='from attribute'></p>")
        assert paras == ["from attribute"]

    def test_fallback_whole_document(self):
        paras, fallback = extract_html_main_content("<span>only a span</span>")
        assert paras == ["only a span"]
        assert fallback

    def test_garbage_markup_no_crash(self):
        paras, _ = extract_html_main_content("<<<>> <p>ok</p> </bogus>")
        assert "ok" in " ".join(paras)


class TestExtractTurn:
    def test_plain_extracted(self):
        text, spans, action, err = extract_turn("hello   world", "plain")
        assert text == "hello world" and action == ACTION_EXTRACTED and err == ""
        assert spans == [(0, 11, "block")]

    def test_plain_skipped_clean(self):
        text, spans, action, _ = extract_turn("already clean", "plain")
        assert action == ACTION_SKIPPED_CLEAN and text == "already clean"

    def test_plain_formfeed_segments(self):
        text, spans, action, _ = extract_turn("page one\fpage two", "plain")
        assert text == "page one\npage two"
        assert [s[2] for s in spans] == ["block", "block"]

    def test_plain_segment_dedup(self):
        text, _, _, _ = extract_turn("same\fsame\fother", "plain")
        assert text == "same\nother"

    def test_empty(self):
        assert extract_turn("", "empty") == ("", [], ACTION_EMPTY, "")

    def test_pdfish_parse_failure_falls_back_to_plain(self):
        """Truncated JSON yields normalized text via the plain fallback,
        not an error row (reference fill-only-empty chain, app.py:1663-1687)."""
        from pdf_ocr_batch_ndrocr_lite_ray.stages.extract import ACTION_FALLBACK

        text, spans, action, err = extract_turn('{"text": "trunc', "pdfish")
        assert action == ACTION_FALLBACK and err == ""
        assert text == '{"text": "trunc'  # plain-normalized raw payload
        assert spans and spans[0][2] == "block"

    def test_pdfish_empty_result_falls_back(self):
        """A structurally valid but token-free payload fills from plain."""
        from pdf_ocr_batch_ndrocr_lite_ray.stages.extract import ACTION_FALLBACK

        text, _, action, _ = extract_turn("{}", "pdfish")
        assert action == ACTION_FALLBACK and text == "{}"

    def test_custom_kind_error_still_isolated(self):
        """Non-fallback kinds keep strict per-item error isolation."""
        from pdf_ocr_batch_ndrocr_lite_ray.stages.extract import register_extractor, EXTRACTOR_REGISTRY

        def boom(raw):
            raise RuntimeError("kaput")

        register_extractor("custom_boom", boom)
        try:
            text, _, action, err = extract_turn("x", "custom_boom")
            assert action == ACTION_ERROR and "kaput" in err and text == ""
        finally:
            EXTRACTOR_REGISTRY.pop("custom_boom", None)

    def test_pdfish_lines(self):
        payload = json.dumps(
            [
                {"text": "hello", "bbox": [0, 0, 30, 10]},
                {"text": "world", "bbox": [36, 0, 60, 10]},
                {"text": "below", "bbox": [0, 50, 30, 60]},
            ]
        )
        text, spans, action, _ = extract_turn(payload, "pdfish")
        assert text == "hello world\nbelow" and action == ACTION_EXTRACTED
        assert [s[2] for s in spans] == ["line", "line"]

    def test_html(self):
        text, spans, action, _ = extract_turn("<p>a b</p><p>c</p>", "html")
        assert text == "a b\nc" and action == ACTION_EXTRACTED
        assert [s[2] for s in spans] == ["paragraph", "paragraph"]

    def test_unknown_kind(self):
        _, _, action, err = extract_turn("x", "bogus")
        assert action == ACTION_ERROR and "unknown content kind" in err

    def test_multipage_payload_routes_through_paged_kernel(self):
        """Flagship M7/M11 integration: a 3-page NDLOCR payload through the
        flagship pdfish path yields the form-feed-separated document the
        paged kernel produces, with kind="page" spans tiling it."""
        import json

        from pdf_ocr_batch_ndrocr_lite_ray.stages.paged import PAGE_SEP, extract_paged_turn

        payload = json.dumps(
            {
                "contents": [
                    [
                        {"text": "alpha one", "boundingBox": [0, 0, 30, 10]},
                        {"text": "alpha two", "boundingBox": [0, 20, 30, 30]},
                    ],
                    [{"text": "beta", "boundingBox": [0, 0, 10, 10]}],
                    [],
                ]
            }
        )
        paged_doc, n_pages, _ = extract_paged_turn(payload)
        assert n_pages == 3
        text, spans, action, _ = extract_turn(payload, "pdfish")
        assert action == ACTION_EXTRACTED
        assert text == paged_doc
        assert text.split(PAGE_SEP) == paged_doc.split(PAGE_SEP)
        assert [k for _, _, k in spans] == ["page", "page", "page"]
        # page spans tile the document around the form-feed separators
        pages = text.split(PAGE_SEP)
        assert [text[s:e] for s, e, _ in spans] == pages

    def test_single_page_payload_keeps_flat_path(self):
        """A one-page payload is NOT paged: the flat box/block layout path
        (line/block spans) still applies, unchanged from round 2."""
        payload = '{"contents": [[{"text": "only", "boundingBox": [0,0,9,9]}]]}'
        text, spans, action, _ = extract_turn(payload, "pdfish")
        assert action == ACTION_EXTRACTED and text == "only"
        assert all(k != "page" for _, _, k in spans)

    def test_pdfish_decodes_payload_once(self, monkeypatch):
        """The page count, the flat parse and the paged merge share one
        ``json.loads`` of the turn, single-page and multi-page alike."""
        single = '{"contents": [[{"text": "only", "boundingBox": [0,0,9,9]}]]}'
        paged = json.dumps(
            {"contents": [[{"text": f"page {i}", "boundingBox": [0, 0, 9, 9]}] for i in range(3)]}
        )
        real_loads = json.loads
        calls = []

        def counting_loads(*args, **kwargs):
            calls.append(1)
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        for payload, n_spans in ((single, 1), (paged, 3)):
            calls.clear()
            text, spans, action, _ = extract_turn(payload, "pdfish")
            assert action == ACTION_EXTRACTED and len(spans) == n_spans
            assert len(calls) == 1, f"{len(calls)} decodes of a {n_spans}-page payload"

    def test_spans_cover_text_exactly(self):
        from pdf_ocr_batch_ndrocr_lite_ray.sources.transcripts import generate_rows
        from pdf_ocr_batch_ndrocr_lite_ray.stages.sniffer import classify_one

        for row in generate_rows(n_convs=6, seed=3):
            kind = classify_one(row["text"])
            text, spans, action, _ = extract_turn(row["text"], kind)
            joined = "\n".join(text[s:e] for s, e, _ in spans)
            assert joined == text
