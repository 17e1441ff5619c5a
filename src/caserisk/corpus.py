"""Corpus ingestion, cleaning and attribute extraction.

A corpus is a flat line-delimited JSON file, one record per line, with
required fields ``id``, ``domain`` and ``text``; optional ``phones``,
``locations`` and ``date``; any further string-valued fields are kept in
``extras``.  Ingestion is strict: malformed records are counted and
skipped, never repaired.

A token is a run of ``[a-z0-9]`` in a lowercased text; an ASCII text is
tokenized by one byte translation and a split, and only other text needs
the regex.  A corpus is tokenized once, into its ``token_stream``: the
sorted token list, every token of every text (in ascending id order) as
its index there, and each text's token count.  Gazetteer and
indicator-rule matching (``Lexicon.find``), the graph's shingles and the
model's n-gram counts all read those ids, so no stage tokenizes a text
again.
"""

from __future__ import annotations

import json
import re
import unicodedata
from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from datetime import date
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import EmptyCorpusError, InputError, MalformedRecordError, PipelineError

_TAG_RE = re.compile(r"<[^>]*>")
_TOKEN_RE = re.compile(r"[a-z0-9]+")
_TOKEN_SPLIT_RE = re.compile(f"({_TOKEN_RE.pattern})")
# Each byte of an ASCII text as ``tokenize`` reads it: a letter lowercased,
# a digit kept and any other byte a space, so that ``split`` gives the
# ``_TOKEN_RE`` runs of the lowered text.
_TOKEN_BYTES = bytes(
    ord(chr(b).lower()) if chr(b).lower() in "abcdefghijklmnopqrstuvwxyz0123456789" else ord(" ") for b in range(256)
)

# North-American style numbers (optional +1 / separators) plus bare digit runs.
_PHONE_CANDIDATE_RE = re.compile(
    r"(?<!\d)(?:\+?1[-. ]?)?(?:\(\d{3}\)[-. ]?|\d{3}[-. ])\d{3}[-. ]?\d{4}(?!\d)"
    r"|(?<!\d)\d{7,15}(?!\d)"
)
# Every candidate above holds a core: three digits, an optional separator,
# then four digits.  ``phones_in_text`` skips a text without one and starts
# its scan just before the first, because the candidate pattern begins with
# a lookbehind, which ``re`` tries at every character.  \d, like the
# candidate's, is any Unicode decimal digit.
_PHONE_CORE_RE = re.compile(r"\d{3}[-. ]?\d{4}")
# A candidate's first core starts at most this far into it: "+1-(555)-".
_PHONE_LEAD = 9
# An ASCII text's bytes as classes for the core: "0" for a digit, "-" for
# each separator and "x" for every other byte, so a core is one of two
# byte strings.
_PHONE_CLASSES = bytes(
    ord("0") if chr(b).isdigit() else ord("-") if chr(b) in "-. " else ord("x") for b in range(128)
) + b"x" * 128
_PHONE_CORES = (b"0000000", b"000-0000")

PHONE_MIN_DIGITS = 7
PHONE_MAX_DIGITS = 15


def clean_text(raw: str) -> str:
    """Strip markup tags and collapse whitespace runs; case is preserved.

    Whitespace is what ``str.split`` splits on, which is what ``re``'s \\s
    matches.
    """
    text = _TAG_RE.sub(" ", raw) if "<" in raw else raw
    return " ".join(text.split())


def tokenize(text: str) -> list[str]:
    """Lowercased tokens split on non-alphanumeric boundaries: the runs of
    ``[a-z0-9]`` in ``text.lower()``.  An ASCII text takes one byte
    translation and a split; the regex runs only on other texts."""
    if text.isascii():
        return text.encode("ascii").translate(_TOKEN_BYTES).decode("ascii").split()
    return _TOKEN_RE.findall(text.lower())


def token_ids(texts: Iterable[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Tokenize each text once, into integer ids: a token stream.

    Returns the distinct tokens in sorted order, every token of every text
    (texts one after another) as its index in that list, and each text's
    token count.  Ids take 2 bytes a token (uint16) for up to 65,536
    distinct tokens and 4 bytes (int32) beyond.
    """
    seen: defaultdict[str, int] = defaultdict()
    seen.default_factory = seen.__len__  # a new token's id: the count so far
    ids = array("i")
    lengths = array("q")
    for text in texts:
        tokens = tokenize(text)
        ids.extend(map(seen.__getitem__, tokens))
        lengths.append(len(tokens))
    vocab = sorted(seen)
    rank = np.empty(len(vocab), dtype=np.int32)
    rank[[seen[token] for token in vocab]] = np.arange(len(vocab))
    first = np.frombuffer(ids, dtype=np.int32)
    ids = np.empty(len(first), dtype=np.uint16 if len(vocab) <= 1 << 16 else np.int32)
    for start in range(0, len(ids), _GRAM_STEP):  # a step at a time
        ids[start : start + _GRAM_STEP] = rank[first[start : start + _GRAM_STEP]]
    return vocab, ids, np.frombuffer(lengths, dtype=np.int64)


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] : starts[i] + lengths[i]``, end to end."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def shingles(text: str, shingle_len: int) -> frozenset[str]:
    """Set of word shingles of the given length over lowercased tokens."""
    if shingle_len < 1:
        raise InputError("shingle_len must be >= 1")
    tokens = tokenize(text)
    if len(tokens) < shingle_len:
        return frozenset()
    return frozenset(
        " ".join(tokens[i : i + shingle_len]) for i in range(len(tokens) - shingle_len + 1)
    )


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """True where a run of equal values starts in an ascending array, so
    ``ordered[run_starts(ordered)]`` is its distinct values.

    Every de-duplication of per-occurrence integers goes through a sort and
    this, never ``np.unique``: numpy 2.4's ``np.unique`` hashes int64 keys
    first, 2.1 s against 0.04 s for 2M keys on a 2-core machine, and the
    hash table's memory is not seen by tracemalloc and stays resident.
    """
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def columns_of(grams: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each gram's index into the ascending distinct ``values`` (int32), and
    whether it is there at all; searched a step at a time."""
    col = np.empty(len(grams), dtype=np.int32)
    found = np.empty(len(grams), dtype=bool)
    for start in range(0, len(grams), _GRAM_STEP):
        step = grams[start : start + _GRAM_STEP]
        at = np.searchsorted(values, step)
        hit = at < len(values)
        hit[hit] = values[at[hit]] == step[hit]
        col[start : start + _GRAM_STEP] = at
        found[start : start + _GRAM_STEP] = hit
    return col, found


def spans(cost: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive ``[start, stop)`` item ranges that cover ``cost``, each
    of total cost at most ``budget`` or a single item."""
    total = np.cumsum(cost)
    start = 0
    while start < len(total):
        spent = int(total[start - 1]) if start else 0
        stop = max(int(np.searchsorted(total, spent + budget, side="right")), start + 1)
        yield start, stop
        start = stop


# Occurrences that one step of a per-occurrence pass handles: it bounds the
# temporaries of ranking tokens, counting grams and finding their columns,
# and a text in a ``gram_counts`` step is its row below it.
_GRAM_STEP = 1 << 16
_ROW_BITS = _GRAM_STEP.bit_length()
_KEY_BITS = 63


def gram_ids(
    ids: np.ndarray, lengths: np.ndarray, n: int, vocab_size: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Every n-gram of the texts ``token_ids`` gave, as an exact integer id.

    Returns the gram ids, in text order, and the keys that decode them.
    Ids follow the order of the grams' token-id tuples.  With ``bits =
    max(1, ceil(log2 vocab_size))`` and ``n * bits`` at most 46, an id is
    the token ids packed ``bits`` apart, the first token highest, and
    ``keys`` is empty.  Otherwise an id is its first token's id, then, per
    further token k, the rank of ``previous id * vocab_size + token id``
    among that step's distinct values, which are ``keys[k - 1]``.  Either
    way an id stays below 2**46 for fewer than 2**46 occurrences, which
    leaves ``gram_counts`` room for a row number.  When no text holds n
    tokens, ids and keys are empty, found without a step per token of n.
    """
    if n > lengths.max(initial=0):
        return np.empty(0, dtype=np.int64), []
    m = max(len(ids) - n + 1, 0)
    bits = _gram_bits(n, vocab_size)
    grams = ids[:m].astype(np.int64)
    keys = []
    for k in range(1, n):
        if bits is None:
            grams *= vocab_size
            grams += ids[k : m + k]
            order = np.argsort(grams, kind="stable")
            ordered = grams[order]
            first = run_starts(ordered)
            keys.append(ordered[first])
            grams[order] = np.cumsum(first) - 1
        else:
            grams <<= bits
            grams |= ids[k : m + k]
    if n > 1:
        # The windows that start in a text's last n - 1 tokens run past
        # its end; one that starts n - 1 or fewer tokens before a text
        # shorter than that runs past its predecessor's end as well.
        keep = np.ones(m, dtype=bool)
        ends = np.cumsum(lengths)
        for k in range(1, n):
            start = ends - k
            keep[start[(start >= 0) & (start < m)]] = False
        grams = grams[keep]
    return grams, keys


def _gram_bits(n: int, vocab_size: int) -> Optional[int]:
    """Bits per token of a packed order-n gram id, or None when ids are ranked."""
    bits = max(vocab_size - 1, 1).bit_length()
    return bits if n * bits <= _KEY_BITS - _ROW_BITS else None


def gram_tokens(grams: np.ndarray, n: int, vocab_size: int, keys: list[np.ndarray]) -> np.ndarray:
    """The token ids of each order-n ``gram_ids`` id, one row per gram."""
    parts = np.empty((len(grams), n), dtype=np.int64)
    if not len(grams):
        return parts  # no keys to decode by
    bits = _gram_bits(n, vocab_size)
    for k in range(n - 1, 0, -1):
        if bits is None:
            grams, parts[:, k] = np.divmod(keys[k - 1][grams], vocab_size)
        else:
            parts[:, k] = grams & ((1 << bits) - 1)
            grams = grams >> bits
    parts[:, 0] = grams
    return parts


def gram_counts(
    ids: np.ndarray, lengths: np.ndarray, n: int, vocab_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Each text's distinct n-grams and how often each occurs, as CSR rows.

    Returns ``indptr``, the ``gram_ids`` ids (text t's ascending in
    ``indptr[t]:indptr[t + 1]``), their counts (int32) and the keys that
    decode the ids.  Grams are packed, sorted and counted a few hundred
    thousand tokens at a time, on a row-major ``row << id bits | id`` key,
    so the temporaries stay small beside the result.
    """
    windows = np.maximum(lengths - n + 1, 0)
    ranked, keys = None, []
    if _gram_bits(n, vocab_size) is None:
        # Ranks are global, so they are found over all texts at once.
        ranked, keys = gram_ids(ids, lengths, n, vocab_size)
    token_ends = np.concatenate(([0], np.cumsum(lengths)))
    window_ends = np.concatenate(([0], np.cumsum(windows)))
    # A text has at most as many distinct grams as windows: the result is
    # written into arrays of that size and cut to what was found.
    grams = np.empty(window_ends[-1], dtype=np.int64)
    counts = np.empty(window_ends[-1], dtype=np.int32)
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    shift = _KEY_BITS - _ROW_BITS
    for start, stop in spans(lengths + 1, _GRAM_STEP):
        if ranked is None:
            texts = slice(token_ends[start], token_ends[stop])
            step, _ = gram_ids(ids[texts], lengths[start:stop], n, vocab_size)
        else:
            step = ranked[window_ends[start] : window_ends[stop]].copy()
        step |= np.repeat(np.arange(stop - start, dtype=np.int64) << shift, windows[start:stop])
        step.sort()
        first = run_starts(step)
        key = step[first]
        count = np.diff(np.flatnonzero(first), append=len(step))
        found = indptr[start] + np.cumsum(np.bincount(key >> shift, minlength=stop - start))
        indptr[start + 1 : stop + 1] = found
        grams[indptr[start] : indptr[stop]] = key & ((1 << shift) - 1)
        counts[indptr[start] : indptr[stop]] = count
    return indptr, grams[: indptr[-1]], counts[: indptr[-1]], keys


def normalize_phone(raw: str) -> Optional[str]:
    """Normalize a phone-like string to a bare digit string.

    Strips every non-digit character, writes each Unicode decimal digit
    (Arabic-Indic, fullwidth, ...) as its ASCII digit, drops a single
    leading country-code "1" when exactly 11 digits remain, and returns
    None when the digit count falls outside 7..15.
    """
    digits = re.sub(r"\D", "", raw)
    if not digits.isascii():
        digits = "".join(str(unicodedata.decimal(d)) for d in digits)
    if len(digits) == 11 and digits.startswith("1"):
        digits = digits[1:]
    if PHONE_MIN_DIGITS <= len(digits) <= PHONE_MAX_DIGITS:
        return digits
    return None


def _first_core(text: str) -> Optional[int]:
    """Where ``_PHONE_CORE_RE`` first matches in ``text``, or None.  An
    ASCII text is searched as byte classes, by two ``find`` calls."""
    if not text.isascii():
        core = _PHONE_CORE_RE.search(text)
        return None if core is None else core.start()
    classes = text.encode("ascii").translate(_PHONE_CLASSES)
    starts = [at for at in map(classes.find, _PHONE_CORES) if at >= 0]
    return min(starts, default=None)


def phones_in_text(text: str) -> list[str]:
    """Scan free text for phone-like spans and normalize the hits."""
    core = _first_core(text)
    if core is None:
        return []
    found = []
    # The lookbehind still sees the characters before the scan's start.
    for candidate in _PHONE_CANDIDATE_RE.findall(text, max(core - _PHONE_LEAD, 0)):
        normalized = normalize_phone(candidate)
        if normalized is not None and normalized not in found:
            found.append(normalized)
    return found


@dataclass(frozen=True, slots=True)
class Document:
    """One cleaned record with its extracted linking attributes."""

    id: str
    source_domain: str
    text: str
    phones: tuple[str, ...] = ()
    locations: tuple[str, ...] = ()
    posted_date: Optional[date] = None
    extras: Mapping[str, str] = field(default_factory=dict)

    def attribute_names(self) -> set[str]:
        names = {"id", "domain", "text"}
        if self.phones:
            names.add("phones")
        if self.locations:
            names.add("locations")
        if self.posted_date is not None:
            names.add("date")
        names.update(self.extras)
        return names


class Corpus:
    """Immutable collection of documents, sorted by id, with a derived
    schema: document k is row k of ``rows`` and of ``token_stream``.

    ``token_stream`` is the corpus's one tokenization: ``token_ids`` of
    its texts, built on first use (or given by ``ingest``) and read by
    every stage that needs tokens.  It costs 2 or 4 bytes a token;
    ``del corpus.token_stream`` frees it, and a later use builds it again.
    """

    def __init__(self, documents: Iterable[Document]):
        self.documents: tuple[Document, ...] = tuple(sorted(documents, key=lambda doc: doc.id))
        self._row: dict[str, int] = {}  # id -> row
        schema: set[str] = set()
        for doc in self.documents:
            if doc.id in self._row:
                raise MalformedRecordError(f"duplicate document id {doc.id!r}")
            self._row[doc.id] = len(self._row)
            schema |= doc.attribute_names()
        self.schema: frozenset[str] = frozenset(schema)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._row

    def get(self, doc_id: str) -> Document:
        return self.documents[self._row[doc_id]]

    def ids(self) -> list[str]:
        return [doc.id for doc in self.documents]

    @cached_property
    def token_stream(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        return token_ids(doc.text for doc in self.documents)

    def rows(self, doc_ids: Iterable[str]) -> np.ndarray:
        """Each id's row: its document's index, and its text's in
        ``token_stream``; an id the corpus does not hold raises InputError
        naming the first one."""
        return np.array(self._rows(doc_ids), dtype=np.int64)

    def members(self, doc_ids: Iterable[str]) -> list[Document]:
        """The documents of a set of member ids, in id order; an id the
        corpus does not hold raises InputError naming the first one."""
        return [self.documents[k] for k in sorted(self._rows(doc_ids))]

    def _rows(self, doc_ids: Iterable[str]) -> list[int]:
        doc_ids = list(doc_ids)
        rows = list(map(self._row.get, doc_ids))
        if None in rows:
            raise InputError(f"cluster member {doc_ids[rows.index(None)]!r} not in corpus")
        return rows


def text_lines(
    path: str | Path, newline: Optional[str] = None, error: type[PipelineError] = InputError
) -> Iterator[str]:
    """The lines of a UTF-8 file as ``open(path, encoding="utf-8",
    newline=newline)`` gives them; a line holding a byte that is not UTF-8
    raises ``error`` naming the file and the line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        for number, line in enumerate(fh, 1):
            if _undecodable(line):
                raise error(f"{path}:{number}: a byte that is not UTF-8")
            yield line


def write_json(path: str | Path, payload: object) -> None:
    """Write a JSON artifact: keys sorted, two-space indents, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _undecodable(line: str) -> bool:
    """Whether a line read with ``errors="surrogateescape"`` held a byte
    that is not UTF-8: that byte was decoded to a lone surrogate, which has
    no UTF-8 encoding."""
    if line.isascii():
        return False
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def read_terms(path: str | Path) -> list[str]:
    """The terms of a one-term-per-line file: its non-blank lines, stripped
    and lowercased."""
    return [line.strip().lower() for line in text_lines(path) if line.strip()]


class Lexicon:
    """Terms as ``tokenize`` sequences: a term occurs where a text's tokens
    run as its own, whatever the case or the separators between them.

    Terms that tokenize alike are one; ``terms`` joins each with spaces,
    and ``ordered`` lists them sorted.
    """

    def __init__(self, terms: Iterable[str]):
        # Sorted token tuples join into sorted strings: the joining space
        # sorts before every token character.
        phrases = sorted({tuple(tokenize(t)) for t in terms} - {()})
        self.ordered: tuple[str, ...] = tuple(" ".join(p) for p in phrases)
        self.terms: frozenset[str] = frozenset(self.ordered)
        # A deletion can join its neighbours only into a term of several
        # tokens, so only with one of those do cuts repeat their pass.
        self._joins = any(len(p) > 1 for p in phrases)
        self._by_first: dict[str, list[tuple[str, ...]]] = {}  # shortest first
        for phrase in sorted(phrases, key=len):
            self._by_first.setdefault(phrase[0], []).append(phrase)
        self._number = {phrase: k for k, phrase in enumerate(phrases)}  # index in ``ordered``

    @classmethod
    def from_file(cls, path: str | Path):
        return cls(read_terms(path))

    def occurrences(self, tokens: Sequence[str]) -> list[tuple[int, tuple[str, ...]]]:
        """Every ``(start, term)`` where the tokens run as the term from
        ``start``, overlapping ones included; by start, then shortest first."""
        by_first = self._by_first
        if by_first.keys().isdisjoint(tokens):
            return []
        return [
            (i, term)
            for i, token in enumerate(tokens)
            if token in by_first
            for term in by_first[token]
            if len(term) == 1 or tuple(tokens[i : i + len(term)]) == term
        ]

    def cuts(self, tokens: Sequence[str]) -> list[tuple[int, int]]:
        """The ascending, disjoint ``[start, stop)`` token ranges that
        deleting the terms removes, so that no term occurs in the rest.

        A pass deletes, left to right, the shortest term at each token not
        yet deleted.  Passes repeat while a deletion joins its neighbours
        into an occurrence, which then takes the ranges deleted inside it.
        """
        kept, at, ranges = tokens, range(len(tokens)), []  # ``at``: kept tokens' indices
        while True:
            found, free = [], 0
            for i, term in self.occurrences(kept):
                if i >= free:
                    free = i + len(term)
                    found.append((i, free))
            ranges += [(at[a], at[b - 1] + 1) for a, b in found]
            if not found or not self._joins:
                break
            gone = {k for a, b in found for k in range(a, b)}
            at = [k for j, k in enumerate(at) if j not in gone]
            kept = [tokens[k] for k in at]
        outer: list[tuple[int, int]] = []
        for start, stop in sorted(ranges):  # nested or disjoint; no two start alike
            if not outer or start >= outer[-1][1]:
                outer.append((start, stop))
        return outer

    def first_ids(self, tokens: Sequence[str]) -> np.ndarray:
        """The ids in a stream's sorted ``tokens`` of the terms' first
        tokens that it holds, ascending: a text holds a term only where it
        holds one of these."""
        return np.array([at for at, token in enumerate(tokens) if token in self._by_first], dtype=np.int64)

    def find(self, stream: tuple[list[str], np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the terms occur in the texts of a ``token_ids`` stream: the
        distinct ``(text, term)`` pairs, ascending, as a text array and a
        term array, a term as its index in ``ordered``, and how often each
        pair occurs (overlapping occurrences included, as ``occurrences``
        lists them).

        Each term's tokens are looked up in the stream's sorted token list,
        and a term with a token that is not there cannot occur.  The others
        are tried at every position whose token is their first, and a term
        of several tokens is compared there token by token, at shifted
        positions that must stay inside the text.
        """
        tokens, ids, lengths = stream
        # The terms that can occur, by ascending first token id.
        table = []
        for first in self.first_ids(tokens).tolist():
            for phrase in self._by_first[tokens[first]]:
                parts = _find(tokens, phrase)
                if None not in parts:
                    table.append((self._number[phrase], parts))
        if not table:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        number = np.array([k for k, _ in table], dtype=np.int64)
        size = np.array([len(parts) for _, parts in table], dtype=np.int64)
        term_ids = np.full((len(table), int(size.max())), -1, dtype=np.int64)
        for row, (_, parts) in enumerate(table):
            term_ids[row, : len(parts)] = parts
        first = term_ids[:, 0]
        # Every (position, term) whose first token the position holds.
        at = np.flatnonzero(np.isin(ids, first))
        lo = np.searchsorted(first, ids[at])
        count = np.searchsorted(first, ids[at], side="right") - lo
        at = np.repeat(at, count)
        term = ranges(lo, count)
        ends = np.cumsum(lengths)
        text = np.searchsorted(ends, at, side="right")
        hit = at + size[term] <= ends[text]
        for k in range(1, term_ids.shape[1]):
            check = np.flatnonzero(hit & (size[term] > k))
            hit[check] = ids[at[check] + k] == term_ids[term[check], k]
        key = text[hit] * len(self.ordered) + number[term[hit]]
        key.sort()
        starts = np.flatnonzero(run_starts(key))
        text, term = np.divmod(key[starts], len(self.ordered))
        return text, term, np.diff(starts, append=len(key))


def _find(tokens: Sequence[str], words: Iterable[str]) -> list[Optional[int]]:
    """Each word's index in the sorted ``tokens``, or None where it is not
    there."""
    found = []
    for word in words:
        at = bisect_left(tokens, word)
        found.append(at if at < len(tokens) and tokens[at] == word else None)
    return found


class Gazetteer(Lexicon):
    """Location lexicon; terms are lowercase, possibly multi-word."""

    def matches(self, text: str) -> list[str]:
        """All terms present as whole-token spans of the text, sorted."""
        _, found, _ = self.find(token_ids([text]))
        return [self.ordered[k] for k in found.tolist()]


class _EmptyExtras(Mapping):
    """A read-only empty mapping: the ``extras`` of every ingested document
    without extra fields.  It pickles and copies as ``EMPTY_EXTRAS`` itself,
    and writing to it raises TypeError."""

    __slots__ = ()

    def __getitem__(self, key):
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"

    def __reduce__(self) -> str:
        return "EMPTY_EXTRAS"


EMPTY_EXTRAS: Mapping[str, str] = _EmptyExtras()


class _Shared:
    """The values that the records of one ingest have given so far.

    Each raw phone string maps to its ``normalize_phone`` result and each
    raw date string to its ``date``, so each is parsed once.  ``share``
    maps each domain, phone tuple, location tuple and date to the first
    equal one seen, so documents that repeat a value hold one object.
    """

    def __init__(self):
        self.phones: dict[str, Optional[str]] = {}
        self.dates: dict[str, date] = {}
        self.values: dict[object, object] = {}

    def share(self, value):
        return self.values.setdefault(value, value)

    def phone(self, raw: str) -> Optional[str]:
        if raw not in self.phones:
            self.phones[raw] = normalize_phone(raw)
        return self.phones[raw]

    def date(self, raw: str) -> date:
        """Raises ValueError when ``raw`` is no ISO-8601 date."""
        if raw not in self.dates:
            self.dates[raw] = self.share(date.fromisoformat(raw))
        return self.dates[raw]


def extract_attributes(record: Mapping[str, object], gazetteer: Optional[Gazetteer] = None) -> Document:
    """Build a Document from a raw record dict.

    Raises MalformedRecordError when required fields are missing/empty or
    optional fields have the wrong shape.  The document shares no value
    with a document from another call, except the read-only
    ``EMPTY_EXTRAS`` when it has no extra fields.
    """
    shared = _Shared()
    doc = _extract(record, shared)
    if gazetteer is None:
        return doc
    return _located(doc, gazetteer.matches(doc.text), shared)


def _located(doc: Document, places: Iterable[str], shared: _Shared) -> Document:
    """The document with gazetteer matches added to its locations."""
    locations = set(doc.locations)
    locations.update(places)
    if len(locations) == len(doc.locations):
        return doc
    return replace(doc, locations=shared.share(tuple(sorted(locations))))


def _extract(record: Mapping[str, object], shared: _Shared) -> Document:
    if not isinstance(record, Mapping):
        raise MalformedRecordError("record is not an object")
    doc_id = record.get("id")
    domain = record.get("domain")
    raw_text = record.get("text")
    if not isinstance(doc_id, str) or not doc_id.strip():
        raise MalformedRecordError("missing or empty 'id'")
    if not isinstance(domain, str) or not domain.strip():
        raise MalformedRecordError("missing or empty 'domain'")
    if not isinstance(raw_text, str):
        raise MalformedRecordError("missing 'text'")
    text = clean_text(raw_text)
    if not text:
        raise MalformedRecordError("text empty after cleaning")

    phones: list[str] = []
    raw_phones = record.get("phones", [])
    if not isinstance(raw_phones, list) or any(not isinstance(p, str) for p in raw_phones):
        raise MalformedRecordError("'phones' must be a list of strings")
    for raw in raw_phones:
        normalized = shared.phone(raw)
        if normalized is not None and normalized not in phones:
            phones.append(normalized)
    for normalized in phones_in_text(text):
        if normalized not in phones:
            phones.append(normalized)

    raw_locations = record.get("locations", [])
    if not isinstance(raw_locations, list) or any(not isinstance(x, str) for x in raw_locations):
        raise MalformedRecordError("'locations' must be a list of strings")
    locations = {loc.strip().lower() for loc in raw_locations if loc.strip()}

    posted = None
    raw_date = record.get("date")
    if raw_date is not None:
        if not isinstance(raw_date, str):
            raise MalformedRecordError("'date' must be an ISO-8601 string")
        try:
            posted = shared.date(raw_date)
        except ValueError as exc:
            raise MalformedRecordError(f"bad date {raw_date!r}") from exc

    extras: dict[str, str] = {}
    for key, value in record.items():
        if key in ("id", "domain", "text", "phones", "locations", "date"):
            continue
        if not isinstance(value, str):
            raise MalformedRecordError(f"extra field {key!r} is not a string")
        extras[key] = value

    return Document(
        id=doc_id.strip(),
        source_domain=shared.share(domain.strip()),
        text=text,
        phones=shared.share(tuple(phones)),
        locations=shared.share(tuple(sorted(locations))),
        posted_date=posted,
        extras=extras or EMPTY_EXTRAS,
    )


@dataclass
class IngestStats:
    total_lines: int = 0
    ingested: int = 0
    skipped: int = 0


def ingest(path: str | Path, gazetteer: Optional[Gazetteer] = None) -> tuple[Corpus, IngestStats]:
    """Read a line-delimited corpus file into a Corpus.

    Malformed lines (bytes that are not UTF-8, bad JSON, failed
    extraction, duplicate ids) are counted in the returned stats and
    skipped.  A file whose non-blank lines yield zero valid records raises
    EmptyCorpusError; an entirely empty file yields an empty corpus.

    Documents that repeat a domain, phone tuple, location tuple or date
    hold one object for it, and each distinct raw phone and date string is
    parsed once.  A document without extra fields has ``EMPTY_EXTRAS``.

    With a gazetteer, the valid documents are tokenized once, into the
    corpus's ``token_stream``, and the gazetteer is matched over its ids.
    """
    stats = IngestStats()
    shared = _Shared()
    documents: list[Document] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            stats.total_lines += 1
            try:
                if _undecodable(line):
                    raise MalformedRecordError("a byte that is not UTF-8")
                record = json.loads(line)
                doc = _extract(record, shared)
                if doc.id in seen:
                    raise MalformedRecordError(f"duplicate id {doc.id!r}")
            except (json.JSONDecodeError, MalformedRecordError):
                stats.skipped += 1
                continue
            seen.add(doc.id)
            documents.append(doc)
            stats.ingested += 1
    if stats.total_lines > 0 and stats.ingested == 0:
        raise EmptyCorpusError(f"no valid records in {path}")
    if gazetteer is None:
        return Corpus(documents), stats
    documents.sort(key=lambda doc: doc.id)  # the corpus's order, so stream row k is document k
    stream = token_ids(doc.text for doc in documents)
    rows, terms, _ = gazetteer.find(stream)
    places: defaultdict[int, list[str]] = defaultdict(list)
    for row, term in zip(rows.tolist(), terms.tolist()):
        places[row].append(gazetteer.ordered[term])
    for row, found in places.items():
        documents[row] = _located(documents[row], found, shared)
    corpus = Corpus(documents)
    corpus.token_stream = stream
    return corpus, stats


def document_to_record(doc: Document) -> dict:
    record: dict[str, object] = {
        "id": doc.id,
        "domain": doc.source_domain,
        "text": doc.text,
    }
    if doc.phones:
        record["phones"] = list(doc.phones)
    if doc.locations:
        record["locations"] = list(doc.locations)
    if doc.posted_date is not None:
        record["date"] = doc.posted_date.isoformat()
    record.update(doc.extras)
    return record


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Export as line-delimited JSON, in id order; re-ingesting yields identical documents."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus:
            fh.write(encode(document_to_record(doc)))
            fh.write("\n")


def remove_tokens(corpus: Corpus, lexicon: Iterable[str]) -> Corpus:
    """Delete lexicon entries from every text on ``tokenize``'s own spans.

    A text loses the characters of the token ranges that a ``Lexicon`` of
    the entries ``cuts`` from its tokens, so no tokenized text keeps an
    entry, and its whitespace is collapsed.  All other document fields are
    unchanged and the input corpus is not modified.
    """
    terms = Lexicon(lexicon)
    out = []
    for doc in corpus:
        lowered = doc.text.lower()
        # Separators and tokens in turn: token k is part 2k + 1.
        parts = _TOKEN_SPLIT_RE.split(lowered)
        ranges = terms.cuts(parts[1::2])
        if not ranges:
            out.append(doc)
            continue
        ends = list(accumulate(map(len, parts)))
        spans = [(ends[2 * a], ends[2 * b - 1]) for a, b in ranges]
        if len(lowered) != len(doc.text):
            # Some character lowercases to several (e.g. U+0130); map back.
            origin = [i for i, ch in enumerate(doc.text) for _ in ch.lower()]
            spans = [(origin[a], origin[b - 1] + 1) for a, b in spans]
        edges = [0, *(edge for span in spans for edge in span), len(doc.text)]
        text = " ".join(" ".join(doc.text[a:b] for a, b in zip(edges[::2], edges[1::2])).split())
        out.append(Document(doc.id, doc.source_domain, text, doc.phones, doc.locations, doc.posted_date, doc.extras))
    return Corpus(out)
