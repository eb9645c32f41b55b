"""Corpus loading, token counting, first-page and outline extraction, chunking.

A token is a whitespace-delimited word. Chunks are cut at line ends that
the text's content picks (content-defined chunking, as in LBFS and
FastCDC), so an edit changes the chunks around it and no others, and the
unchanged chunks of two versions have equal texts. Chunk spans are
defined over the token sequence, so rejoining chunk tokens (dropping each
chunk's leading overlap) reproduces the document's token sequence
exactly.

Loading a corpus walks the root once and reads the files and nothing more:
a document's hash is computed when first read. Each file keeps the stat of
its open handle, taken before its text is read.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import logging
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import EmptyCorpusError, InvalidChunkParamsError

logger = logging.getLogger(__name__)

PAGE_TOKENS = 500
CHUNK_SIZE = 512
CHUNK_OVERLAP = 50

CORPUS_EXTENSIONS = (".md", ".txt")


def count_tokens(text: str) -> int:
    return len(text.split())


@dataclass
class RawDocument:
    source_path: str
    text: str

    @functools.cached_property
    def sha256(self) -> str:
        """The hex sha256 of the UTF-8 text."""
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


@dataclass
class Chunk:
    """One chunk of a document's token sequence.

    ``token_span`` is half-open over the document's tokens, and ``text``
    joins the span's tokens with single spaces. The span opens with the
    chunk's leading overlap, the last ``overlap`` tokens before it (fewer
    when fewer precede it); the first chunk has none.
    """

    ordinal: int
    token_span: tuple
    text: str


def chunk_document(
    doc: RawDocument,
    chunk_size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
) -> list:
    """Split a document into chunks at line ends that its content picks.

    A non-blank line of ``t`` tokens is a candidate when its ``zlib.crc32``
    falls under ``t / spacing`` of the hash range, ``spacing`` being
    ``chunk_size // 4`` tokens. A candidate is a cut when at least
    ``chunk_size // 8`` tokens lie between it and the candidate before it.
    Whether a line is a cut so depends on the lines back to the previous
    candidate alone, and an edit moves the cuts at the edited line and at
    the next candidate, nowhere else.

    A chunk holds at most ``chunk_size`` tokens, its leading overlap
    included. A span between two cuts that holds more is cut greedily from
    its start: at the last line end that keeps the chunk at least the
    minimum long, or else after as many tokens as fit. A text without line
    ends is so cut into fixed windows that start ``chunk_size - overlap``
    tokens apart. These cap cuts are counted from the span's start, so an
    edit in such a span can move its later cap cuts too. Every token lands
    in a chunk, and ordinals are dense from zero; a text without tokens is
    one empty chunk.
    """
    if chunk_size <= 0 or overlap < 0 or overlap >= chunk_size:
        raise InvalidChunkParamsError(
            f"need 0 <= overlap < chunk_size, got chunk_size={chunk_size} overlap={overlap}"
        )
    spacing, minimum = max(1, chunk_size // 4), chunk_size // 8
    lines = doc.text.splitlines()
    counts = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
    hashes = np.fromiter(map(zlib.crc32, map(str.encode, lines)), np.int64, len(lines))
    ends = np.cumsum(counts)  # the token offset after each line
    # crc / 2**32 < count / spacing, so a blank line is never a candidate
    candidates = ends[hashes < -((-counts << 32) // spacing)]
    gaps = np.diff(candidates, prepend=0)  # tokens since the candidate before
    cuts = candidates[gaps >= minimum].tolist()
    # line separators are whitespace, so no token spans two lines
    tokens = doc.text.split()
    chunks = []
    start = 0
    for cut in cuts + [len(tokens)]:
        while start < cut:
            lead = min(overlap, start)
            end = min(cut, start + chunk_size - lead)
            if end < cut:
                # the last line end in [start + minimum, end], if any
                at = np.searchsorted(ends, end, side="right")
                last = int(ends[at - 1]) if at else 0
                if last >= start + max(1, minimum):
                    end = last
            chunks.append(
                Chunk(len(chunks), (start - lead, end), " ".join(tokens[start - lead : end]))
            )
            start = end
    return chunks or [Chunk(0, (0, 0), "")]


def first_pages(doc: RawDocument, pages: int, page_tokens: int = PAGE_TOKENS) -> str:
    """The first ``pages * page_tokens`` whitespace tokens of the document.

    Returns the original text up to the end of the last included token, so
    line structure survives (heading-sensitive consumers rely on it).
    """
    if pages < 1:
        raise InvalidChunkParamsError(f"pages must be >= 1, got {pages}")
    return _head(doc.text, pages * page_tokens)


def _head(text: str, budget: int) -> str:
    """``text`` up to the end of its ``budget``-th whitespace token; the
    whole text when it has fewer tokens or ``budget`` is below one."""
    if budget < 1:
        return text
    # splitting stops after the budget-th token; the part after it, when
    # there is one, starts at the next token
    parts = text.split(None, budget)
    if len(parts) < budget:
        return text
    rest = len(parts[budget]) if len(parts) > budget else 0
    return text[: len(text) - rest].rstrip()


_HEADING = re.compile(r" {0,3}#{1,6}(?:\s|$)")


def outline(doc: RawDocument, page_tokens: int = PAGE_TOKENS) -> str:
    """The first non-blank line plus every Markdown heading line of the first
    ten pages, in document order, cut to one page of tokens.

    The cut falls after the ``page_tokens``-th token rather than at a line
    boundary, so an overlong first line still yields a non-empty outline.
    """
    lines = first_pages(doc, 10, page_tokens=page_tokens).splitlines()
    start = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    kept = lines[start : start + 1] + [line for line in lines[start + 1 :] if _HEADING.match(line)]
    return _head("\n".join(kept), page_tokens)


@dataclass(eq=False)
class CorpusFile:
    """A file that :func:`walk_corpus` found.

    ``source_path`` is its path relative to the corpus root, with POSIX
    separators, and ``path`` the path to open. ``stat`` is the file's last
    ``os.stat_result``: :meth:`read` takes it on the open handle before it
    reads the text, so it never describes a later state of the file than
    the text read.
    """

    source_path: str
    path: str
    stat: Optional[os.stat_result] = None

    def read(self) -> Optional[RawDocument]:
        """The file's document; None, and logged, when the file cannot be
        read, is not UTF-8 or holds only whitespace. A file that cannot be
        opened takes its ``stat`` from its path, and None when that fails too."""
        self.stat = None
        try:
            with open(self.path, encoding="utf-8") as handle:
                self.stat = os.fstat(handle.fileno())
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            logger.warning("skipping unreadable file %s: %s", self.path, exc)
            if self.stat is None:
                with contextlib.suppress(OSError):
                    self.stat = os.stat(self.path)
            return None
        if not text.strip():
            logger.warning("skipping empty file %s", self.path)
            return None
        return RawDocument(source_path=self.source_path, text=text)


def _is_corpus_name(name: str) -> bool:
    """Whether ``name``'s suffix, as ``pathlib`` reads it, is a corpus extension."""
    dot = name.rfind(".")
    return 0 < dot < len(name) - 1 and name[dot:].lower() in CORPUS_EXTENSIONS


def walk_corpus(root_path) -> list:
    """Every .md/.txt file under ``root_path``, as a :class:`CorpusFile`,
    sorted by source path; no file is opened.

    The walk finds what ``Path.rglob`` finds: hidden files are included, a
    symlink to a file is a file, a symlink to a directory is not entered,
    and a directory that cannot be listed is skipped.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise EmptyCorpusError(f"corpus root {root} is not a directory")
    files = []
    pending = [("", os.fspath(root))]
    while pending:
        prefix, directory = pending.pop()
        try:
            with os.scandir(directory) as entries:
                for entry in entries:
                    if entry.is_dir(follow_symlinks=False):
                        pending.append((f"{prefix}{entry.name}/", entry.path))
                    elif _is_corpus_name(entry.name) and entry.is_file():
                        files.append(CorpusFile(prefix + entry.name, entry.path))
        except OSError:
            continue
    files.sort(key=lambda file: file.source_path)
    return files


def load_corpus(root_path, files: Optional[list] = None) -> list:
    """Read the .md/.txt files under ``root_path``, path-sorted: ``files``,
    when :func:`walk_corpus` already found them, or else a new walk's.

    A document's ``source_path`` is its path relative to the root, with
    POSIX separators, so it does not depend on how the root was given.
    An unreadable or empty file is logged and skipped without aborting the
    load; an empty result raises ``EmptyCorpusError``. Each file's ``stat``
    is taken as it is read (see :meth:`CorpusFile.read`).
    """
    if files is None:
        files = walk_corpus(root_path)
    documents = [doc for doc in (file.read() for file in files) if doc is not None]
    if not documents:
        raise EmptyCorpusError(f"no readable .md/.txt documents under {Path(root_path)}")
    return documents
