import logging
import math
import os
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from verdoc.errors import EmptyCorpusError, InvalidChunkParamsError
from verdoc.ingestion import (
    Chunk,
    RawDocument,
    _head,
    chunk_document,
    count_tokens,
    first_pages,
    load_corpus,
    outline,
)


def words(n, prefix="tok"):
    return " ".join(f"{prefix}{i}" for i in range(n))


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_three_words(self):
        assert count_tokens("assert deepEqual removed") == 3

    def test_thousand_word_text(self):
        text = words(1000)
        assert count_tokens(text) == len(text.split())  # oracle: whitespace split
        assert count_tokens(text) == 1000


def window_oracle(token_count, chunk_size, overlap):
    """Enumerate expected spans with stride chunk_size - overlap."""
    stride = chunk_size - overlap
    spans = []
    start = 0
    while start == 0 or start + overlap < token_count:
        spans.append((start, min(start + chunk_size, token_count)))
        if spans[-1][1] >= token_count:
            break
        start += stride
    return spans


class TestChunkDocument:
    def test_thousand_token_document(self):
        doc = RawDocument(source_path="d", text=words(1000))
        chunks = chunk_document(doc, chunk_size=512, overlap=50)
        assert window_oracle(1000, 512, 50) == [(0, 512), (462, 974), (924, 1000)]
        assert [c.token_span for c in chunks] == [(0, 512), (462, 974), (924, 1000)]
        assert len(chunks) == 3

    def test_short_document_single_chunk(self):
        doc = RawDocument(source_path="d", text=words(400))
        chunks = chunk_document(doc, chunk_size=512, overlap=50)
        assert [c.token_span for c in chunks] == [(0, 400)]

    def test_overlap_equal_to_size_rejected(self):
        doc = RawDocument(source_path="d", text=words(10))
        with pytest.raises(InvalidChunkParamsError):
            chunk_document(doc, chunk_size=512, overlap=512)

    def test_negative_overlap_rejected(self):
        doc = RawDocument(source_path="d", text=words(10))
        with pytest.raises(InvalidChunkParamsError):
            chunk_document(doc, chunk_size=512, overlap=-1)

    def test_ordinals_dense_from_zero(self):
        doc = RawDocument(source_path="d", text=words(2000))
        chunks = chunk_document(doc, chunk_size=512, overlap=50)
        assert [c.ordinal for c in chunks] == list(range(len(chunks)))

    def test_metadata_passthrough_and_key(self):
        doc = RawDocument(source_path="d", text=words(10))
        (chunk,) = chunk_document(doc, document="document:x", version="1.0")
        assert isinstance(chunk, Chunk)
        assert chunk.key == "document:x@1.0#c0000"

    @settings(max_examples=60, deadline=None)
    @given(
        token_count=st.integers(min_value=1, max_value=4000),
        chunk_size=st.integers(min_value=2, max_value=600),
        overlap_fraction=st.floats(min_value=0.0, max_value=0.95),
    )
    def test_dechunking_property(self, token_count, chunk_size, overlap_fraction):
        overlap = min(int(chunk_size * overlap_fraction), chunk_size - 1)
        tokens = [f"w{i}" for i in range(token_count)]
        doc = RawDocument(source_path="d", text=" ".join(tokens))
        chunks = chunk_document(doc, chunk_size=chunk_size, overlap=overlap)
        rebuilt = []
        for index, chunk in enumerate(chunks):
            chunk_tokens = chunk.text.split()
            rebuilt.extend(chunk_tokens if index == 0 else chunk_tokens[overlap:])
        assert rebuilt == tokens
        covered = set()
        for chunk in chunks:
            start, end = chunk.token_span
            assert end - start <= chunk_size
            covered.update(range(start, end))
        assert covered == set(range(token_count))

    @settings(max_examples=60, deadline=None)
    @given(
        token_count=st.integers(min_value=1, max_value=5000),
        chunk_size=st.integers(min_value=2, max_value=700),
        overlap_fraction=st.floats(min_value=0.0, max_value=0.95),
    )
    def test_chunk_count_formula(self, token_count, chunk_size, overlap_fraction):
        overlap = min(int(chunk_size * overlap_fraction), chunk_size - 1)
        doc = RawDocument(source_path="d", text=words(token_count))
        chunks = chunk_document(doc, chunk_size=chunk_size, overlap=overlap)
        if token_count > chunk_size:
            expected = math.ceil(max(1, token_count - overlap) / (chunk_size - overlap))
        else:
            expected = 1
        assert len(chunks) == expected

    def test_overlap_between_consecutive_chunks_is_exact(self):
        doc = RawDocument(source_path="d", text=words(1500))
        chunks = chunk_document(doc, chunk_size=512, overlap=50)
        for prev, nxt in zip(chunks, chunks[1:]):
            prev_tokens = prev.text.split()
            nxt_tokens = nxt.text.split()
            assert prev_tokens[-50:] == nxt_tokens[:50]


class TestFirstPages:
    def test_first_page_of_long_document(self):
        doc = RawDocument(source_path="d", text=words(10_000))
        out = first_pages(doc, 1)
        assert out.split() == doc.text.split()[:500]  # oracle: token slice

    def test_short_document_returned_whole(self):
        doc = RawDocument(source_path="d", text=words(200))
        assert first_pages(doc, 10).split() == doc.text.split()

    def test_zero_pages_rejected(self):
        doc = RawDocument(source_path="d", text=words(10))
        with pytest.raises(InvalidChunkParamsError):
            first_pages(doc, 0)

    def test_page_tokens_configurable(self):
        doc = RawDocument(source_path="d", text=words(100))
        assert first_pages(doc, 2, page_tokens=10).split() == doc.text.split()[:20]


def reference_head(text, budget):
    """The per-token loop ``_head`` replaced, kept as its oracle."""
    for count, match in enumerate(re.finditer(r"\S+", text), start=1):
        if count == budget:
            return text[: match.end()]
    return text


@settings(max_examples=300, deadline=None)
@given(
    text=st.text(alphabet="ab# \t\n\xa0\u2003\x1c", max_size=40),
    budget=st.integers(min_value=-2, max_value=14),
)
def test_head_matches_the_per_token_loop(text, budget):
    assert _head(text, budget) == reference_head(text, budget)


def regex_head(text, budget):
    """The one-match ``_head`` that a bounded split replaced, kept as its oracle."""
    if budget < 1:
        return text
    match = re.match(rf"\s*(?:\S+\s+){{{budget - 1}}}\S+", text)
    return text[: match.end()] if match else text


@settings(max_examples=500, deadline=None)
@given(
    text=st.text(
        alphabet=st.sampled_from("ab# \t\n\r\x0b\x0c\xa0\x85\u2003\u2028\u3000\x1c\x1f") | st.characters(),
        max_size=60,
    ),
    budget=st.integers(min_value=-2, max_value=20),
)
@example(text="  a b  c \n", budget=3)
@example(text="a b c", budget=3)
@example(text="a\u3000b\x1cc d", budget=3)
@example(text=" \n ", budget=1)
@example(text="", budget=5)
def test_head_matches_the_regex_it_replaced(text, budget):
    assert _head(text, budget) == regex_head(text, budget)


def test_split_and_regex_agree_on_whitespace():
    """``str.split``, ``str.rstrip`` and ``re``'s ``\\s`` share one set of
    whitespace characters, which ``_head``'s cut relies on."""
    every = "".join(map(chr, range(0x110000)))
    by_regex = set(re.findall(r"\s", every))
    assert by_regex == set(every) - set("".join(every.split()))
    assert by_regex == {c for c in every if c != c.rstrip()}


def is_cut_subsequence(part, whole):
    """``part`` is a subsequence of ``whole`` whose last line may be cut short."""
    remaining = iter(whole)
    *kept, last = part
    return all(any(line == candidate for candidate in remaining) for line in kept) and any(
        candidate.startswith(last) for candidate in remaining
    )


class TestOutline:
    def test_first_line_and_headings_in_order(self):
        text = "# Guide\n\nintro body\n\n## Setup\n\nsetup body\n### Flags\nmore body\n"
        assert outline(RawDocument("d", text)) == "# Guide\n## Setup\n### Flags"

    def test_headings_after_page_ten_are_excluded(self):
        body = "\n".join(words(10, prefix=f"l{i}w") for i in range(60))  # 600 tokens
        text = f"# Title\n{body}\n## Early\n{body}\n## Late\n"
        assert outline(RawDocument("d", text), page_tokens=100) == "# Title\n## Early"

    def test_document_without_headings_yields_its_first_line(self):
        text = "plain opening line\nsecond line\n#hashtag is not a heading\n"
        assert outline(RawDocument("d", text)) == "plain opening line"

    def test_overlong_first_line_is_truncated_not_emptied(self):
        doc = RawDocument("d", words(1200) + "\n## Heading\n")
        out = outline(doc, page_tokens=500)
        assert out.split() == doc.text.split()[:500]  # oracle: token slice

    def test_leading_blank_lines_and_crlf(self):
        text = "\r\n  \r\n# Title\r\nbody\r\n## Section\r\nbody\r\n"
        assert outline(RawDocument("d", text)) == "# Title\n## Section"

    def test_blank_document_yields_nothing(self):
        assert outline(RawDocument("d", " \n\n")) == ""

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(
                st.text(alphabet="ab #\t", max_size=12),
                st.builds(lambda n, t: "#" * n + " " + t, st.integers(1, 7), st.text("ab ", max_size=8)),
            ),
            max_size=40,
        ),
        newline=st.sampled_from(["\n", "\r\n"]),
        page_tokens=st.integers(min_value=1, max_value=12),
    )
    def test_bounded_subsequence_property(self, lines, newline, page_tokens):
        doc = RawDocument("d", newline.join(lines))
        out = outline(doc, page_tokens=page_tokens)
        assert count_tokens(out) <= page_tokens
        if out:
            assert is_cut_subsequence(out.splitlines(), doc.text.splitlines())


class TestLoadCorpus:
    def write_files(self, root, count=34):
        for i in range(count):
            (root / f"doc_{i:02d}.md").write_text(f"# Doc {i}\n\nbody {i}\n", encoding="utf-8")

    def test_loads_all_markdown_files(self, tmp_path):
        self.write_files(tmp_path, 34)
        docs = load_corpus(tmp_path)
        assert len(docs) == 34

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(EmptyCorpusError):
            load_corpus(tmp_path)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(EmptyCorpusError):
            load_corpus(tmp_path / "nope")

    def test_extension_filter(self, tmp_path):
        (tmp_path / "a.md").write_text("# A\n\ntext\n", encoding="utf-8")
        (tmp_path / "b.bin").write_bytes(b"\x00\x01")
        (tmp_path / "c.txt").write_text("plain text doc\n", encoding="utf-8")
        docs = load_corpus(tmp_path)
        assert [os.path.basename(d.source_path) for d in docs] == ["a.md", "c.txt"]

    def test_deterministic_path_sorted_order(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "z.md").write_text("z doc\n", encoding="utf-8")
        (tmp_path / "sub" / "a.md").write_text("a doc\n", encoding="utf-8")
        first = load_corpus(tmp_path)
        second = load_corpus(tmp_path)
        assert [d.source_path for d in first] == [d.source_path for d in second]
        assert [d.text for d in first] == [d.text for d in second]
        assert [d.source_path for d in first] == ["sub/a.md", "z.md"]

    def test_unreadable_file_reported_not_fatal(self, tmp_path, caplog):
        (tmp_path / "good.md").write_text("# fine\n\ncontent\n", encoding="utf-8")
        (tmp_path / "bad.md").write_bytes(b"\xff\xfe\x00bad utf8\xff")
        with caplog.at_level(logging.WARNING, logger="verdoc.ingestion"):
            docs = load_corpus(tmp_path)
        assert [d.source_path for d in docs] == ["good.md"]
        skipped = [r.getMessage() for r in caplog.records]
        assert len(skipped) == 1
        assert skipped[0].startswith("skipping unreadable file ")
        assert "bad.md" in skipped[0]

    def test_empty_file_skipped(self, tmp_path):
        (tmp_path / "good.md").write_text("content here\n", encoding="utf-8")
        (tmp_path / "empty.md").write_text("   \n", encoding="utf-8")
        docs = load_corpus(tmp_path)
        assert len(docs) == 1

    def test_token_count_invariant(self, tmp_path):
        self.write_files(tmp_path, 3)
        for doc in load_corpus(tmp_path):
            assert doc.token_count == count_tokens(doc.text)
