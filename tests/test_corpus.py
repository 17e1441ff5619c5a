"""Ingestion, normalization, and token-removal behavior."""

import json
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caserisk.corpus import (
    Corpus,
    Document,
    Gazetteer,
    clean_text,
    extract_attributes,
    ingest,
    normalize_phone,
    remove_tokens,
    tokenize,
    write_corpus,
)
from caserisk.errors import EmptyCorpusError, MalformedRecordError


_RAW_IDS = st.one_of(st.sampled_from(["a", " b", "c ", "a"]), st.text(min_size=1, max_size=4))
_RAW_PHONES = st.one_of(
    st.sampled_from(["(555) 012-3456", "1-555-000-1111", "+1 555 000 2222", "123", "15550001111"]),
    st.text(alphabet="0123456789-. ()+", max_size=14),
)
_RAW_TEXTS = st.one_of(
    st.lists(
        st.sampled_from(
            ["visit", " ", "\t\n", "<b>", "</b>", "<", ">", "Springfield", "new", "York", "555-012-3456",
             "5550001111", ",", "call", "İ", "é", "\u00a0", "\u2028"]
        ),
        max_size=12,
    ).map("".join),
    st.text(max_size=20),
)


def write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


class TestNormalizePhone:
    def test_strips_punctuation(self):
        assert normalize_phone("(555) 012-3456") == "5550123456"

    def test_no_digits(self):
        assert normalize_phone("call me!!") is None

    def test_leading_country_code(self):
        assert normalize_phone("1-555-012-3456") == "5550123456"

    def test_too_short_and_too_long(self):
        assert normalize_phone("123456") is None
        assert normalize_phone("1" * 16) is None

    def test_output_shape_when_present(self):
        import re

        for raw in ["555.012.3456", "+1 (555) 012 3456", "00 123 4567", "998877"]:
            out = normalize_phone(raw)
            if out is not None:
                assert re.fullmatch(r"\d{7,15}", out)

    def test_idempotent_on_own_output(self):
        for raw in ["(555) 012-3456", "1-555-012-3456", "123456789012"]:
            out = normalize_phone(raw)
            assert out is not None
            assert normalize_phone(out) == out


class TestExtractAttributes:
    def test_phone_and_gazetteer_location(self):
        gaz = Gazetteer(["springfield"])
        doc = extract_attributes(
            {"id": "a", "domain": "x.example", "text": "meet in springfield, 555-012-3456"},
            gaz,
        )
        assert doc.phones == ("5550123456",)
        assert doc.locations == ("springfield",)

    def test_no_gazetteer_hits(self):
        doc = extract_attributes({"id": "a", "domain": "x", "text": "nothing here"}, Gazetteer(["metropolis"]))
        assert doc.locations == ()

    def test_duplicate_phone_deduplicated(self):
        doc = extract_attributes(
            {"id": "a", "domain": "x", "text": "call 555-012-3456 or 555-012-3456"}
        )
        assert doc.phones == ("5550123456",)

    def test_missing_id_rejected(self):
        with pytest.raises(MalformedRecordError):
            extract_attributes({"domain": "x", "text": "hello"})

    def test_missing_text_rejected(self):
        with pytest.raises(MalformedRecordError):
            extract_attributes({"id": "a", "domain": "x"})

    def test_html_stripped(self):
        doc = extract_attributes({"id": "a", "domain": "x", "text": "<b>hello</b>  <i>there</i>"})
        assert doc.text == "hello there"

    def test_multiword_gazetteer_term(self):
        gaz = Gazetteer(["new york"])
        doc = extract_attributes({"id": "a", "domain": "x", "text": "Flying to New York tomorrow"}, gaz)
        assert "new york" in doc.locations


class TestIngest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus, stats = ingest(path)
        assert len(corpus) == 0
        assert corpus.schema == frozenset()
        assert stats.skipped == 0

    def test_three_records(self, tmp_path):
        path = tmp_path / "three.jsonl"
        write_lines(
            path,
            [
                {"id": "a", "domain": "x", "text": "one"},
                {"id": "b", "domain": "x", "text": "two"},
                {"id": "c", "domain": "y", "text": "three"},
            ],
        )
        corpus, stats = ingest(path)
        assert corpus.ids() == ["a", "b", "c"]
        assert stats.ingested == 3

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        write_lines(
            path,
            [
                {"id": "a", "domain": "x", "text": "one"},
                {"domain": "x", "text": "missing id"},
                {"id": "b", "domain": "x", "text": "two"},
            ],
        )
        corpus, stats = ingest(path)
        assert len(corpus) == 2
        assert stats.skipped == 1

    def test_all_invalid_raises_empty_corpus(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n{\"id\": \"a\"}\n")
        with pytest.raises(EmptyCorpusError):
            ingest(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            ingest(tmp_path / "nope.jsonl")

    def test_limit_caps_records(self, tmp_path):
        path = tmp_path / "many.jsonl"
        write_lines(path, [{"id": f"d{i}", "domain": "x", "text": "t"} for i in range(10)])
        corpus, _ = ingest(path, limit=4)
        assert len(corpus) == 4

    def test_duplicate_id_skipped(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_lines(
            path,
            [
                {"id": "a", "domain": "x", "text": "one"},
                {"id": "a", "domain": "x", "text": "again"},
            ],
        )
        corpus, stats = ingest(path)
        assert len(corpus) == 1
        assert stats.skipped == 1

    def test_round_trip(self, tmp_path):
        src = tmp_path / "src.jsonl"
        write_lines(
            src,
            [
                {
                    "id": "a",
                    "domain": "x.example",
                    "text": "visit <b>soon</b>, call 555-012-3456",
                    "locations": ["Springfield "],
                    "date": "2024-03-05",
                    "note": "extra",
                },
                {"id": "b", "domain": "y", "text": "plain text", "phones": ["1-555-000-1111"]},
            ],
        )
        corpus, _ = ingest(src)
        out = tmp_path / "out.jsonl"
        write_corpus(corpus, out)
        corpus2, stats2 = ingest(out)
        assert stats2.skipped == 0
        assert corpus2.documents == corpus.documents

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.fixed_dictionaries(
                {"id": _RAW_IDS, "domain": st.sampled_from(["x.example", " y ", "z"]), "text": _RAW_TEXTS},
                optional={
                    "phones": st.lists(_RAW_PHONES, max_size=3),
                    "locations": st.lists(
                        st.one_of(st.sampled_from(["Springfield ", "new YORK", " ", "İstanbul"]), st.text(max_size=6)),
                        max_size=3,
                    ),
                    "date": st.dates().map(date.isoformat),
                    "note": st.text(max_size=6),
                },
            ),
            max_size=6,
        ),
        st.booleans(),
    )
    def test_write_then_ingest_gives_the_same_corpus(self, records, use_gazetteer):
        gazetteer = Gazetteer(["springfield", "new york"]) if use_gazetteer else None
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / "raw.jsonl", Path(tmp) / "clean.jsonl"
            write_lines(src, records)
            try:
                corpus, _ = ingest(src, gazetteer=gazetteer)
            except EmptyCorpusError:
                return
            write_corpus(corpus, out)
            again, stats = ingest(out)
        assert stats.skipped == 0
        assert again.documents == corpus.documents

    def test_schema_union_of_keys(self, tmp_path):
        path = tmp_path / "schema.jsonl"
        write_lines(path, [{"id": "a", "domain": "x", "text": "t"}])
        corpus, _ = ingest(path)
        base_schema = corpus.schema
        write_lines(
            path,
            [
                {"id": "a", "domain": "x", "text": "t"},
                {"id": "b", "domain": "x", "text": "t", "ethnicity": "unknown"},
            ],
        )
        corpus2, _ = ingest(path)
        assert corpus2.schema == base_schema | {"ethnicity"}


class TestRemoveTokens:
    def corpus_of(self, text):
        return Corpus([Document(id="a", source_domain="x", text=text)])

    def test_single_removal(self):
        out = remove_tokens(self.corpus_of("visit springfield now"), {"springfield"})
        assert out.get("a").text == "visit now"

    def test_empty_lexicon_identity(self):
        corpus = self.corpus_of("visit springfield now")
        out = remove_tokens(corpus, set())
        assert out.get("a").text == corpus.get("a").text

    def test_multi_token_removal(self):
        out = remove_tokens(self.corpus_of("visit springfield now"), {"now", "visit"})
        assert out.get("a").text == "springfield"

    def test_case_insensitive_whole_token(self):
        out = remove_tokens(self.corpus_of("Springfield springfielder SPRINGFIELD"), {"springfield"})
        assert out.get("a").text == "springfielder"

    def test_idempotent(self):
        corpus = self.corpus_of("a springfield b springfield c")
        once = remove_tokens(corpus, {"springfield"})
        twice = remove_tokens(once, {"springfield"})
        assert once.get("a").text == twice.get("a").text

    def test_original_untouched(self):
        corpus = self.corpus_of("visit springfield now")
        remove_tokens(corpus, {"springfield"})
        assert corpus.get("a").text == "visit springfield now"

    def test_removes_on_tokenizer_spans(self):
        out = remove_tokens(self.corpus_of("call sitealpha_now Sitealphaé ok"), ["sitealpha"])
        assert tokenize(out.get("a").text) == ["call", "now", "ok"]

    def test_phrase_joined_by_removal_is_removed(self):
        out = remove_tokens(self.corpus_of("new new York-york city"), ["new york"])
        assert tokenize(out.get("a").text) == ["city"]

    def test_lowercasing_that_lengthens_text(self):
        # "İ" lowercases to two characters, shifting every later offset.
        out = remove_tokens(self.corpus_of("İİ visit springfield now"), {"springfield"})
        assert out.get("a").text == "İİ visit now"

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["sitealpha", "site", "alpha", "SiteAlpha", "x1", "é", "İ", "\u212a", "k",
                 "_", "-", " ", "  ", "."]
            ),
            max_size=14,
        ),
        st.sets(st.sampled_from(["sitealpha", "alpha", "i", "k", "site alpha", "x1 k", "é"]), max_size=3),
    )
    def test_no_lexicon_entry_survives(self, pieces, lexicon):
        out = remove_tokens(self.corpus_of("".join(pieces)), lexicon)
        tokens = tokenize(out.get("a").text)
        for entry in lexicon:
            parts = tokenize(entry)
            if parts:
                n = len(parts)
                assert all(tokens[i : i + n] != parts for i in range(len(tokens) - n + 1))

    def test_other_fields_preserved(self):
        doc = Document(id="a", source_domain="x", text="springfield calling", phones=("5550123456",))
        out = remove_tokens(Corpus([doc]), {"springfield"})
        assert out.get("a").phones == ("5550123456",)
        assert out.get("a").source_domain == "x"


def test_clean_text_collapses_whitespace():
    assert clean_text("a\t b\n\nc") == "a b c"
    assert clean_text("<div>x</div>") == "x"
