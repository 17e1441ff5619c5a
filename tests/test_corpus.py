"""Ingestion, normalization, and token-removal behavior."""

import copy
import json
import pickle
import re
import tempfile
import time
from collections import Counter
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import caserisk.corpus
from caserisk.clustering import GraphConfig, build_graph
from caserisk.corpus import (
    _PHONE_CORE_RE,
    EMPTY_EXTRAS,
    Corpus,
    Document,
    Gazetteer,
    Lexicon,
    clean_text,
    columns_of,
    extract_attributes,
    gram_counts,
    gram_tokens,
    ingest,
    normalize_phone,
    phones_in_text,
    read_terms,
    remove_tokens,
    token_ids,
    tokenize,
    write_corpus,
    _first_core,
)
from caserisk.errors import EmptyCorpusError, MalformedRecordError
from caserisk.model import _gathered


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

# Equal values in other spellings: "20240305" is 2024-03-05, and the two
# phone lists normalize alike.
_RAW_RECORDS = st.fixed_dictionaries(
    {"id": _RAW_IDS, "domain": st.sampled_from(["x.example", " y ", "z"]), "text": _RAW_TEXTS},
    optional={
        "phones": st.one_of(
            st.sampled_from([["555.012.3456"], ["(555) 012-3456", "555-012-3456"]]),
            st.lists(_RAW_PHONES, max_size=3),
        ),
        "locations": st.lists(
            st.one_of(st.sampled_from(["Springfield ", "new YORK", " ", "İstanbul"]), st.text(max_size=6)),
            max_size=3,
        ),
        "date": st.one_of(
            st.sampled_from(["2024-03-05", "20240305", "2024-13-05"]), st.dates().map(date.isoformat)
        ),
        "note": st.text(max_size=6),
    },
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

    def test_unicode_decimal_digits_become_ascii(self):
        assert normalize_phone("\u0665\u0665\u0665\u0660\u0661\u0662\u0663\u0664\u0665\u0666") == "5550123456"
        assert normalize_phone("\uff11-\uff15\uff15\uff15-\uff10\uff11\uff12-\uff13\uff14\uff15\uff16") == "5550123456"
        assert normalize_phone("\u0665\u0665\u0665-\u0660\u0661\u0662-3456") == "5550123456"

    def test_one_number_in_two_scripts_is_one_phone(self):
        record = {"id": "a", "domain": "x", "text": "call 555-012-3456", "phones": [ARABIC_PHONE]}
        assert extract_attributes(record).phones == ("5550123456",)

    def test_one_number_in_two_scripts_links_documents(self):
        corpus = Corpus(
            [
                extract_attributes({"id": "a", "domain": "x", "text": "hello", "phones": [ARABIC_PHONE]}),
                extract_attributes({"id": "b", "domain": "y", "text": "call 555-012-3456"}),
            ]
        )
        graph = build_graph(corpus, GraphConfig(use_text=False, use_location_date=False))
        assert graph.edge_count() == 1


ARABIC_PHONE = "\u0665\u0665\u0665\u0660\u0661\u0662\u0663\u0664\u0665\u0666"


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

    def test_undecodable_line_skipped_and_counted(self, tmp_path):
        # Lines end at \n, \r\n or \r alike; a line holding a byte that is
        # not UTF-8 (a Latin-1 e-acute, an encoded surrogate) is skipped.
        path = tmp_path / "bytes.jsonl"
        path.write_bytes(
            b'{"id": "a", "domain": "x", "text": "caf\xc3\xa9"}\r\n'
            b'{"id": "b", "domain": "x", "text": "caf\xe9"}\n'
            b'{"id": "c", "domain": "x", "text": "ok"}\r{"id": "d", "domain": "x", "text": "\xed\xb2\x80"}\n'
        )
        corpus, stats = ingest(path)
        assert corpus.ids() == ["a", "c"]
        assert corpus.get("a").text == "caf\u00e9"
        assert (stats.total_lines, stats.ingested, stats.skipped) == (4, 2, 2)

    def test_all_invalid_raises_empty_corpus(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n{\"id\": \"a\"}\n")
        with pytest.raises(EmptyCorpusError):
            ingest(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            ingest(tmp_path / "nope.jsonl")

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
    @given(st.lists(_RAW_RECORDS, max_size=6), st.booleans())
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


class TestIngestSharing:
    """Ingest shares equal values between documents; nothing can tell but
    ``is`` and the memory it saves."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_RAW_RECORDS, max_size=8), st.booleans())
    def test_documents_equal_each_line_extracted_alone(self, records, use_gazetteer):
        gazetteer = Gazetteer(["springfield", "new york"]) if use_gazetteer else None
        alone = {}
        for record in records:
            try:
                doc = extract_attributes(record, gazetteer)
            except MalformedRecordError:
                continue
            alone.setdefault(doc.id, doc)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "raw.jsonl"
            write_lines(path, records)
            try:
                corpus, _ = ingest(path, gazetteer=gazetteer)
            except EmptyCorpusError:
                assert not alone
                return
        assert corpus.documents == tuple(sorted(alone.values(), key=lambda doc: doc.id))
        for doc in corpus:
            assert (doc.extras is EMPTY_EXTRAS) == (not doc.extras)
            for other in corpus:
                for name in ("source_domain", "phones", "locations", "posted_date"):
                    mine, theirs = getattr(doc, name), getattr(other, name)
                    assert (mine is theirs) == (mine == theirs)

    def test_equal_values_are_one_object(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        base = {"domain": "x.example", "locations": ["Springfield "], "date": "2024-03-05"}
        write_lines(
            path,
            [
                {**base, "id": "a", "text": "one", "phones": ["(555) 012-3456"]},
                {**base, "id": "b", "text": "two", "phones": ["555.012.3456"]},
                {**base, "id": "c", "text": "call 555-012-3456", "date": "20240305"},
            ],
        )
        corpus, _ = ingest(path)
        a, *others = corpus.documents
        for doc in others:
            assert doc.source_domain is a.source_domain
            assert doc.phones is a.phones
            assert doc.locations is a.locations
            assert doc.posted_date is a.posted_date
            assert doc.extras is a.extras is EMPTY_EXTRAS
        # Called on its own, extraction shares nothing with another call.
        record = {**base, "id": "a", "text": "one", "phones": ["555-012-3456"]}
        first, second = extract_attributes(record), extract_attributes(record)
        assert first == second
        assert first.phones is not second.phones and first.posted_date is not second.posted_date

    def test_empty_extras_is_read_only(self, tmp_path):
        path = tmp_path / "extras.jsonl"
        write_lines(
            path,
            [
                {"id": "a", "domain": "x", "text": "one"},
                {"id": "b", "domain": "x", "text": "two", "note": "kept"},
                {"id": "c", "domain": "x", "text": "three"},
            ],
        )
        corpus, _ = ingest(path)
        with pytest.raises(TypeError):
            corpus.get("a").extras["note"] = "everywhere"
        assert [dict(doc.extras) for doc in corpus] == [{}, {"note": "kept"}, {}]
        assert corpus.get("c").attribute_names() == {"id", "domain", "text"}

    def test_ingested_corpus_pickles_and_deep_copies(self, tmp_path):
        path = tmp_path / "copy.jsonl"
        write_lines(
            path,
            [
                {"id": "a", "domain": "x", "text": "one", "phones": ["555-012-3456"], "date": "2024-03-05"},
                {"id": "b", "domain": "x", "text": "two", "phones": ["555-012-3456"], "date": "2024-03-05"},
                {"id": "c", "domain": "y", "text": "three", "note": "kept"},
            ],
        )
        corpus, _ = ingest(path)
        for copied in (pickle.loads(pickle.dumps(corpus)), copy.deepcopy(corpus)):
            assert copied.documents == corpus.documents and copied.schema == corpus.schema
            assert copied.get("b").extras is EMPTY_EXTRAS
            assert copied.get("b").phones is copied.get("a").phones
            assert copied.get("c").extras == {"note": "kept"}


_REMOVAL_TEXTS = st.lists(
    st.sampled_from(
        ["sitealpha", "site", "alpha", "SiteAlpha", "x1", "é", "İ", "\u212a", "k", "a", "b", "A",
         "_", "-", " ", "  ", ".", ", ", "\t"]
    ),
    max_size=16,
).map("".join)
_REMOVAL_LEXICONS = st.lists(
    st.sampled_from(
        ["sitealpha", "alpha", "site", "site alpha", "i", "k", "x1 k", "k x1 k", "é", "a", "a b", "b a",
         "a b a", "b", "Site_Alpha", "!!"]
    ),
    max_size=4,
)


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

    def test_shortest_entry_first_then_joined_phrases(self):
        # "site" is cut before "site alpha" can be; cutting "x" then joins
        # "new" and "york" into an entry, cut with all that lies between.
        out = remove_tokens(self.corpus_of("Site alpha, new- x; York."), ["site alpha", "site", "x", "new york"])
        assert out.get("a").text == "alpha, ."
        out = remove_tokens(self.corpus_of("a Site-Alpha, b"), ["site alpha"])
        assert out.get("a").text == "a , b"

    @settings(max_examples=500, deadline=None)
    @given(_REMOVAL_TEXTS, _REMOVAL_LEXICONS)
    def test_matches_reference_regex(self, text, lexicon):
        corpus = self.corpus_of(text)
        assert remove_tokens(corpus, lexicon).get("a").text == reference_remove_tokens(text, lexicon)

    @settings(max_examples=500, deadline=None)
    @given(_REMOVAL_TEXTS, _REMOVAL_LEXICONS)
    def test_cuts_keep_the_tokens_of_the_cut_text(self, text, lexicon):
        tokens = tokenize(text)
        for start, stop in reversed(Lexicon(lexicon).cuts(tokens)):
            del tokens[start:stop]
        assert tokens == tokenize(remove_tokens(self.corpus_of(text), lexicon).get("a").text)
        vocab, ids, lengths = _gathered(token_ids([text]), np.array([0]), Lexicon(lexicon))
        assert [vocab[i] for i in ids] == tokens and lengths.tolist() == [len(tokens)]


class TestLexicon:
    def test_terms_are_token_sequences_once(self):
        lexicon = Lexicon(["Site-Alpha", "site alpha", "tonight", "tonight", "!!", ""])
        assert lexicon.terms == {"site alpha", "tonight"}
        assert lexicon.occurrences(tokenize("call site_alpha tonight")) == [
            (1, ("site", "alpha")),
            (3, ("tonight",)),
        ]

    def test_occurrences_overlap(self):
        lexicon = Lexicon(["a a", "a"])
        assert lexicon.occurrences(["a", "a", "a"]) == [
            (0, ("a",)),
            (0, ("a", "a")),
            (1, ("a",)),
            (1, ("a", "a")),
            (2, ("a",)),
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(["a", "b", "a b", "b a", "a b a", "b b", "c", "a c", "A-B"]), max_size=6),
        st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=12),
    )
    def test_occurrences_match_every_term_at_every_token(self, terms, tokens):
        phrases = {tuple(tokenize(t)) for t in terms} - {()}
        expected = sorted(
            (i, p) for p in phrases for i in range(len(tokens) - len(p) + 1) if tuple(tokens[i : i + len(p)]) == p
        )
        assert sorted(Lexicon(terms).occurrences(tokens)) == expected

    def test_read_terms(self, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("  New York \n\n\tSITEALPHA\n")
        assert read_terms(path) == ["new york", "sitealpha"]
        assert Lexicon.from_file(path).terms == Gazetteer.from_file(path).terms == {"new york", "sitealpha"}


_REFERENCE_TOKEN_RE = re.compile(r"[a-z0-9]+")
_TOKEN_TEXTS = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=127)),
    st.lists(st.sampled_from(["Abc", "x9", "-", " ", "\u212a", "\u0130", "\u00df", "\uff21", "\u0663", "_"])).map("".join),
)


class TestTokenStream:
    """The byte-translation tokenizer and the array matcher against the
    regex and ``Lexicon.occurrences``."""

    @settings(max_examples=500, deadline=None)
    @given(_TOKEN_TEXTS)
    @example("Hillcrest\u2014Caf\u00e9 \u212aelvin")  # KELVIN SIGN lowercases to ASCII "k"
    @example("\u0130stanbul")  # lowercases to two code points
    @example("Stra\u00dfe")
    @example("\uff21\uff22\uff23\uff11\uff12\uff13")  # fullwidth
    @example("\u0661\u0662\u0663 tel 123")  # Arabic-Indic digits
    @example("a\x00b\x01c\x1f d\x7fe\x0b")  # NUL and control characters
    def test_tokenize_equals_the_regex(self, text):
        assert tokenize(text) == _REFERENCE_TOKEN_RE.findall(text.lower())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_TOKEN_TEXTS, max_size=6))
    def test_token_ids_equal_a_per_text_reference(self, texts):
        per_text = [_REFERENCE_TOKEN_RE.findall(text.lower()) for text in texts]
        vocab, ids, lengths = token_ids(texts)
        assert vocab == sorted({token for tokens in per_text for token in tokens})
        assert [vocab[i] for i in ids.tolist()] == [token for tokens in per_text for token in tokens]
        assert lengths.tolist() == [len(tokens) for tokens in per_text]

    # "e" is in no text, so neither are the terms that hold it; "a a",
    # "a b a" and "b a" overlap other terms and themselves.
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.sampled_from(["a", "b", "a a", "a b", "b a", "a b a", "c", "a c", "A-B", "e", "a e", "e a"]), max_size=7),
        st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8), max_size=5),
    )
    def test_find_equals_the_occurrences(self, terms, texts):
        lexicon = Lexicon(terms)
        rows, found, counts = lexicon.find(token_ids(" ".join(tokens) for tokens in texts))
        expected = sorted(
            Counter(
                (row, lexicon.ordered.index(" ".join(term)))
                for row, tokens in enumerate(texts)
                for _, term in lexicon.occurrences(tokens)
            ).items()
        )
        assert list(zip(zip(rows.tolist(), found.tolist()), counts.tolist())) == expected
        firsts = {lexicon.ordered[k].split(" ")[0] for k in range(len(lexicon.ordered))}
        vocab, _, _ = token_ids(" ".join(tokens) for tokens in texts)
        assert lexicon.first_ids(vocab).tolist() == [i for i, token in enumerate(vocab) if token in firsts]


class TestCorpusOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_permutation_gives_the_same_corpus(self, data):
        """A corpus is its documents in id order, whatever order it is given
        them in; row k of ``token_stream`` is the k-th smallest id's text."""
        ids = data.draw(st.lists(st.text(min_size=1, max_size=4), unique=True, max_size=8))
        docs = [Document(doc_id, "x.example", data.draw(_TOKEN_TEXTS)) for doc_id in ids]
        given_order = Corpus(data.draw(st.permutations(docs)))
        corpus = Corpus(docs)
        ordered = sorted(docs, key=lambda doc: doc.id)
        assert corpus.documents == given_order.documents == tuple(ordered)
        assert corpus.ids() == given_order.ids() == sorted(ids)
        (vocab, ids_, lengths), other = corpus.token_stream, given_order.token_stream
        assert vocab == other[0]
        assert ids_.dtype == other[1].dtype and ids_.tolist() == other[1].tolist()
        assert lengths.tolist() == other[2].tolist() == [len(tokenize(doc.text)) for doc in ordered]
        chosen = data.draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
        rows = [sorted(ids).index(doc_id) for doc_id in chosen]
        assert corpus.rows(chosen).tolist() == given_order.rows(chosen).tolist() == rows
        assert corpus.members(chosen) == given_order.members(chosen) == [ordered[k] for k in sorted(rows)]
        assert all(corpus.get(doc_id) == given_order.get(doc_id) for doc_id in ids)


def test_clean_text_collapses_whitespace():
    assert clean_text("a\t b\n\nc") == "a b c"
    assert clean_text("<div>x</div>") == "x"


# The regex scans the fast text passes replaced, kept as references.
_REFERENCE_TAG_RE = re.compile(r"<[^>]*>")
_REFERENCE_PHONE_RE = re.compile(
    r"(?<!\d)(?:\+?1[-. ]?)?(?:\(\d{3}\)[-. ]?|\d{3}[-. ])\d{3}[-. ]?\d{4}(?!\d)"
    r"|(?<!\d)\d{7,15}(?!\d)"
)


def reference_clean_text(raw):
    return re.sub(r"\s+", " ", _REFERENCE_TAG_RE.sub(" ", raw)).strip()


def reference_phones_in_text(text):
    found = []
    for candidate in _REFERENCE_PHONE_RE.findall(text):
        normalized = normalize_phone(candidate)
        if normalized is not None and normalized not in found:
            found.append(normalized)
    return found


def reference_remove_tokens(text, lexicon):
    """Removal by one alternation regex over the lowercased text, repeated
    while a phrase of several tokens may have been joined."""
    phrases = sorted({tuple(re.findall(r"[a-z0-9]+", t.lower())) for t in lexicon} - {()})
    if not phrases:
        return text
    pattern = re.compile(
        r"\b(?:" + "|".join("[^a-z0-9]+".join(parts) for parts in phrases) + r")\b", re.ASCII
    )

    def cut(text):
        # With "_" blanked out, an ASCII-mode \b in the lowered text falls
        # exactly on the edges of the tokens.
        lowered = text.lower().replace("_", " ")
        spans = [m.span() for m in pattern.finditer(lowered)]
        if not spans:
            return text
        if len(lowered) != len(text):
            origin = [i for i, ch in enumerate(text) for _ in ch.lower()]
            spans = [(origin[a], origin[b - 1] + 1) for a, b in spans]
        pieces, last = [], 0
        for a, b in spans:
            pieces.append(text[last:a])
            last = b
        pieces.append(text[last:])
        return " ".join(" ".join(pieces).split())

    new_text = cut(text)
    while any(len(parts) > 1 for parts in phrases) and (again := cut(new_text)) != new_text:
        new_text = again
    return new_text


def reference_gazetteer_matches(terms, text):
    """Every term tried at every token position."""
    tokens = re.findall(r"[a-z0-9]+", text.lower())
    hits = set()
    for term in {" ".join(re.findall(r"[a-z0-9]+", t.lower())) for t in terms} - {""}:
        parts = term.split(" ")
        for i in range(len(tokens) - len(parts) + 1):
            if tokens[i : i + len(parts)] == parts:
                hits.add(term)
                break
    return sorted(hits)


_DIGITS = "0123456789" "\u0660\u0661\u0662\u0665" "\uff10\uff11\uff15"
_PHONE_TEXTS = st.one_of(
    st.lists(
        st.sampled_from(
            ["555", "012", "3456", "0123456", "1", "+1", "(555)", "\u0665\u0665\u0665", "\u0660\u0661\u0662\u0663",
             "\uff15\uff15\uff15", "\uff10\uff11\uff12\uff13", "-", ".", " ", "(", ")", "+", "a", "x9", "<b>", "</b>"]
        ),
        max_size=16,
    ).map("".join),
    st.text(alphabet=_DIGITS + "+()-. ab<>", max_size=40),
)
# ASCII letters, the three separators, and ASCII, Arabic-Indic and
# fullwidth digits; the first strategy keeps to ASCII, whose texts take the
# byte-class prefilter.
_CORE_ASCII = "abcxyzABZ" "-. " "0123456789"
_CORE_TEXTS = st.one_of(
    st.text(alphabet=_CORE_ASCII, max_size=40),
    st.lists(st.sampled_from(["555", "0123", "12", "-", ".", " ", "a", "B9"]), max_size=12).map("".join),
    st.text(alphabet=_CORE_ASCII + "\u0660\u0663\u0665\u0669" "\uff10\uff13\uff15\uff19", max_size=40),
)
_WHITESPACE_TEXTS = st.one_of(
    st.text(alphabet="ab<>/ \t\n\x1c\x1f\x85\xa0\u2028\u3000\u200b", max_size=30),
    st.text(max_size=30),
)


class TestFastTextPasses:
    """Each fast path against the scan it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(_PHONE_TEXTS)
    def test_phones_in_text_matches_reference(self, text):
        assert phones_in_text(text) == reference_phones_in_text(text)

    @settings(max_examples=500, deadline=None)
    @given(_CORE_TEXTS)
    def test_first_core_matches_the_core_pattern(self, text):
        core = _PHONE_CORE_RE.search(text)
        assert _first_core(text) == (None if core is None else core.start())

    def test_phones_in_text_on_every_digit_script(self):
        text = "a \u0665\u0665\u0665-\u0660\u0661\u0662-\u0663\u0664\u0665\u0666 b (555) 012-3456"
        assert phones_in_text(text) == reference_phones_in_text(text) == ["5550123456"]
        assert phones_in_text("x +1-(555)-012-3456") == ["5550123456"]

    @settings(max_examples=300, deadline=None)
    @given(_WHITESPACE_TEXTS)
    def test_clean_text_matches_reference(self, raw):
        assert clean_text(raw) == reference_clean_text(raw)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(["a", "b", "a b", "b a", "a b a", "b b", "c", "a c", "A-B"]), max_size=6),
        st.lists(st.sampled_from(["a", "b", "c", "d", " ", "-"]), max_size=12).map(" ".join),
    )
    def test_gazetteer_matches_reference(self, terms, text):
        assert Gazetteer(terms).matches(text) == reference_gazetteer_matches(terms, text)

    def test_gazetteer_scales_with_terms(self):
        singles = [f"town{i}" for i in range(10_000)]
        pairs = [f"west{i} end{i % 97}" for i in range(10_000)]
        gazetteer = Gazetteer(singles + pairs)
        filler = " ".join(f"w{k:05d}" for k in range(24))
        texts = [
            f"west{i} end{i % 97} {filler} town{i * 37} west{i + 1} end{i % 5} town{i}x"
            for i in range(200)
        ]
        start = time.perf_counter()
        found = [gazetteer.matches(text) for text in texts]
        elapsed = time.perf_counter() - start
        terms = gazetteer.terms
        for text, hits in zip(texts, found):
            tokens = tokenize(text)
            spans = set(tokens) | {" ".join(pair) for pair in zip(tokens, tokens[1:])}
            assert hits == sorted(spans & terms)
        assert elapsed < 2.0


# A vocabulary of 2**24 tokens takes 24 bits a token: a unigram id is
# packed, and a bigram's or trigram's is ranked token by token instead.
# An order of a billion tokens, above every text's length, is counted
# without a step per token.
@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 5), max_size=9), max_size=6),
    st.one_of(st.integers(1, 4), st.just(10**9)),
    st.sampled_from([6, 2**24]),
)
def test_gram_counts_match_reference(texts, n, vocab_size):
    ids = np.array([t for text in texts for t in text], dtype=np.int32)
    lengths = np.array([len(text) for text in texts], dtype=np.int64)
    indptr, grams, counts, keys = gram_counts(ids, lengths, n, vocab_size)
    # Keys decode ranked grams, so there are none without a gram.
    assert (len(keys) > 0) == (vocab_size == 2**24 and n > 1 and len(grams) > 0)
    tokens = gram_tokens(grams, n, vocab_size, keys).tolist()
    for t, text in enumerate(texts):
        expected = sorted(Counter(tuple(text[i : i + n]) for i in range(len(text) - n + 1)).items())
        rows = range(indptr[t], indptr[t + 1])
        assert [(tuple(tokens[r]), int(counts[r])) for r in rows] == expected
    assert indptr[-1] == len(grams) == len(counts)


def test_ranked_gram_counts_match_packed_across_steps():
    # More tokens than one counting step holds, so both routes, packed
    # (6 tokens) and ranked (2**24), count the texts in several blocks.
    rng = np.random.default_rng(7)
    lengths = rng.integers(0, 40, size=9000)
    ids = rng.integers(0, 6, size=int(lengths.sum())).astype(np.int32)
    assert len(ids) > 2 * 2**16
    for n in (2, 3):
        packed = gram_counts(ids, lengths, n, 6)
        ranked = gram_counts(ids, lengths, n, 2**24)
        assert ranked[3] and not packed[3]
        np.testing.assert_array_equal(ranked[0], packed[0])
        np.testing.assert_array_equal(ranked[2], packed[2])
        np.testing.assert_array_equal(
            gram_tokens(ranked[1], n, 2**24, ranked[3]), gram_tokens(packed[1], n, 6, packed[3])
        )


# Steps of 3 grams, so most searches cross a step boundary.
@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 12), max_size=20), st.sets(st.integers(0, 9)))
def test_columns_of_matches_reference(grams, values):
    values = sorted(values)
    with mock.patch.object(caserisk.corpus, "_GRAM_STEP", 3):
        col, found = columns_of(np.array(grams, dtype=np.int64), np.array(values, dtype=np.int64))
    assert col.dtype == np.int32
    assert found.tolist() == [g in values for g in grams]
    assert col[found].tolist() == [values.index(g) for g in grams if g in values]
