import logging
import math
import os
import re
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from verdoc.errors import EmptyCorpusError, InvalidChunkParamsError
from verdoc.ingestion import (
    CORPUS_EXTENSIONS,
    Chunk,
    RawDocument,
    _head,
    chunk_document,
    count_tokens,
    first_pages,
    load_corpus,
    outline,
    walk_corpus,
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
    """Enumerate expected spans with stride chunk_size - overlap: how the
    cap cuts a text that has no line end inside it."""
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
        """A text without line ends has no content-defined cut, so the cap
        cuts it into the fixed windows of ``window_oracle``."""
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


VOCABULARY = [f"w{i}" for i in range(12)]
# lines of a few words from a small vocabulary, so that lines and their
# hashes repeat; an empty line is a blank one
LINES = st.lists(st.lists(st.sampled_from(VOCABULARY), max_size=6), min_size=1, max_size=120)


def text_of(lines):
    return "\n".join(" ".join(line) for line in lines)


def leads(chunks, overlap):
    """The length of each chunk's leading overlap: the last ``overlap``
    tokens that the chunks before it added, or all of them when fewer."""
    added = 0
    out = []
    for chunk in chunks:
        lead = min(overlap, added)
        out.append(lead)
        added += len(chunk.text.split()) - lead
    return out


def covering(chunks, start, end):
    """The chunks whose span holds a token of [start, end), or, for an empty
    range, the position ``start``."""
    if end > start:
        return [c for c in chunks if c.token_span[0] < end and start < c.token_span[1]]
    return [c for c in chunks if c.token_span[0] <= start < c.token_span[1]]


def changed(chunks, others):
    """The chunks of ``chunks`` outside the longest common prefix and suffix
    of chunk texts that they share with ``others``."""
    texts, other = [c.text for c in chunks], [c.text for c in others]
    prefix = 0
    while prefix < min(len(texts), len(other)) and texts[prefix] == other[prefix]:
        prefix += 1
    suffix = 0
    while (
        suffix < min(len(texts), len(other)) - prefix
        and texts[len(texts) - 1 - suffix] == other[len(other) - 1 - suffix]
    ):
        suffix += 1
    return chunks[prefix : len(chunks) - suffix]


def reference_chunks(text, chunk_size, overlap):
    """``chunk_document`` as a plain loop over lines, kept as its oracle:
    (span, text) of each chunk."""
    spacing, minimum = max(1, chunk_size // 4), chunk_size // 8
    tokens, ends, cuts, since = [], [], [], 0
    for line in text.splitlines():
        words = line.split()
        tokens += words
        ends.append(len(tokens))
        if words:
            since += len(words)
            if zlib.crc32(line.encode("utf-8")) * spacing < len(words) << 32:
                if since >= minimum:
                    cuts.append(len(tokens))
                since = 0
    chunks, start = [], 0
    for cut in cuts + [len(tokens)]:
        while start < cut:
            lead = min(overlap, start)
            end = min(cut, start + chunk_size - lead)
            if end < cut:
                fitting = [e for e in ends if start + max(1, minimum) <= e <= end]
                end = fitting[-1] if fitting else end
            chunks.append(((start - lead, end), " ".join(tokens[start - lead : end])))
            start = end
    return chunks or [((0, 0), "")]


class TestContentDefinedChunks:
    @settings(max_examples=200, deadline=None)
    @given(
        text=st.one_of(
            LINES.map(text_of),
            # separators that str.splitlines and str.split know and bytes do not
            st.text(st.sampled_from("ab \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"), max_size=300),
        ),
        chunk_size=st.one_of(st.integers(min_value=1, max_value=80), st.integers(1, 2**40)),
        overlap_fraction=st.floats(min_value=0.0, max_value=0.95),
    )
    def test_chunks_match_the_per_line_loop(self, text, chunk_size, overlap_fraction):
        overlap = min(int(chunk_size * overlap_fraction), chunk_size - 1)
        chunks = chunk_document(RawDocument("d", text), chunk_size=chunk_size, overlap=overlap)
        assert [(c.token_span, c.text) for c in chunks] == reference_chunks(text, chunk_size, overlap)

    @settings(max_examples=150, deadline=None)
    @given(
        lines=LINES,
        chunk_size=st.integers(min_value=1, max_value=80),
        overlap_fraction=st.floats(min_value=0.0, max_value=0.95),
    )
    def test_chunks_rejoin_to_the_tokens_and_fit_the_size(self, lines, chunk_size, overlap_fraction):
        """Dropping each chunk's leading overlap rejoins the document's exact
        token sequence; no chunk holds more than ``chunk_size`` tokens; spans
        and ordinals describe the chunks."""
        overlap = min(int(chunk_size * overlap_fraction), chunk_size - 1)
        doc = RawDocument(source_path="d", text=text_of(lines))
        tokens = doc.text.split()
        chunks = chunk_document(doc, chunk_size=chunk_size, overlap=overlap)
        rebuilt = []
        for ordinal, (chunk, lead) in enumerate(zip(chunks, leads(chunks, overlap))):
            chunk_tokens = chunk.text.split()
            assert chunk.ordinal == ordinal
            assert len(chunk_tokens) <= chunk_size
            assert chunk_tokens[:lead] == rebuilt[len(rebuilt) - lead :]
            assert chunk.token_span == (len(rebuilt) - lead, len(rebuilt) + len(chunk_tokens) - lead)
            assert chunk.text == " ".join(tokens[slice(*chunk.token_span)])
            rebuilt += chunk_tokens[lead:]
        assert rebuilt == tokens
        assert all(c.text for c in chunks) or chunks == [Chunk(0, (0, 0), "")]

    @settings(max_examples=300, deadline=None)
    @given(
        lines=LINES,
        chunk_size=st.integers(min_value=8, max_value=80),
        overlap_fraction=st.floats(min_value=0.0, max_value=0.25),
        where=st.floats(min_value=0.0, max_value=1.0),
        kind=st.sampled_from(["replace", "insert", "delete"]),
        line=st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=6),
    )
    @example(  # no cap cut; the edit changes the chunk over it and the next one
        lines=[[f"w{(i + j) % 12}" for j in range(1 + i % 6)] for i in range(50)],
        chunk_size=32,
        overlap_fraction=0.1,
        where=0.5,
        kind="replace",
        line=["w9", "w10"],
    )
    def test_a_one_line_edit_changes_the_chunks_over_it_and_the_next(
        self, lines, chunk_size, overlap_fraction, where, kind, line
    ):
        """Content-defined cuts depend on the lines back to the previous
        candidate line, so an edit moves them only at the edited line and
        the next candidate. Where the cap cut no chunk, on either side of
        the edit, the only chunks that change are those over the edited line
        and the one after them.

        A cap cut is placed from its chunk's start and looks ahead at most
        ``chunk_size`` tokens, so the chunks that end that far before the
        line never change; but an edit can move the cap cut before it and
        every later cap cut up to the next content-defined cut. The last
        chunk ends at the end of the text, so an edit after it changes it.
        """
        overlap = int(chunk_size * overlap_fraction)
        at = min(int(where * len(lines)), len(lines) - (kind != "insert"))
        edited = list(lines)
        if kind == "insert":
            edited.insert(at, line)
        elif kind == "delete":
            del edited[at]
        else:
            edited[at] = line
        start = len(text_of(lines[:at]).split())
        old_end = start + (0 if kind == "insert" else len(lines[at]))
        new_end = start + (0 if kind == "delete" else len(edited[at]))
        old, new = (
            chunk_document(RawDocument("d", text_of(version)), chunk_size, overlap)
            for version in (lines, edited)
        )
        # the last chunk ends at the end of the text, not at a cut
        before = [c for c in old[:-1] if c.token_span[1] <= start - chunk_size]
        assert [c.text for c in new[: len(before)]] == [c.text for c in before]
        longest = max((len(l) for l in lines + [line]), default=0)
        capped = any(
            len(c.text.split()) - lead > chunk_size - lead - longest
            for chunks in (old, new)
            for c, lead in zip(chunks, leads(chunks, overlap))
        )
        if not capped:
            assert len(changed(old, new)) <= len(covering(old, start, old_end)) + 1
            assert len(changed(new, old)) <= len(covering(new, start, new_end)) + 1


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

    def test_walk_finds_what_rglob_finds(self, tmp_path):
        """Hidden files and directories, upper-case and odd suffixes, a
        directory named like a document, a symlink to a file, one to a
        directory and a broken one: the walk keeps the file set, order and
        paths of ``rglob`` with the suffix filter."""
        for rel in ("a/x.md", "a/b/Y.TXT", ".h/z.md", ".md", "a..md", "e.", "d.md/in.md", "n.bin"):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text("text\n", encoding="utf-8")
        (tmp_path / "link.md").symlink_to(tmp_path / "a" / "x.md")
        (tmp_path / "linkdir").symlink_to(tmp_path / "a", target_is_directory=True)
        (tmp_path / "broken.md").symlink_to(tmp_path / "nowhere.md")
        expected = sorted(
            (p.relative_to(tmp_path).as_posix(), str(p))
            for p in tmp_path.rglob("*")
            if p.is_file() and p.suffix.lower() in CORPUS_EXTENSIONS
        )
        assert [(f.source_path, f.path) for f in walk_corpus(tmp_path)] == expected
        assert [d.source_path for d in load_corpus(tmp_path)] == [rel for rel, _ in expected]

    def test_empty_file_skipped(self, tmp_path):
        (tmp_path / "good.md").write_text("content here\n", encoding="utf-8")
        (tmp_path / "empty.md").write_text("   \n", encoding="utf-8")
        docs = load_corpus(tmp_path)
        assert len(docs) == 1
