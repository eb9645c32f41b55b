"""Corpus loading, token counting, first-page and outline extraction, chunking.

A token is a whitespace-delimited word. Chunk windows are defined over the
token sequence, so rejoining chunk tokens (dropping each chunk's leading
overlap) reproduces the document's token sequence exactly.

Loading a corpus reads the files and nothing more: a document's token count
and hash are computed when first read.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import re
from dataclasses import dataclass
from pathlib import Path

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
    def token_count(self) -> int:
        return count_tokens(self.text)

    @functools.cached_property
    def sha256(self) -> str:
        """The hex sha256 of the UTF-8 text."""
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


@dataclass
class Chunk:
    """One token window of a document version.

    ``token_span`` is half-open over the document's token sequence, and
    ``text`` joins the span's tokens with single spaces; consecutive chunks
    overlap by exactly the configured overlap except that the final chunk
    may be shorter.
    """

    document: str
    version: str
    ordinal: int
    token_span: tuple
    text: str

    @property
    def key(self) -> str:
        return chunk_key(self.document, self.version, self.ordinal)


def chunk_key(document: str, version: str, ordinal: int) -> str:
    """The vector-index key of chunk ``ordinal`` of a document version."""
    return f"{document}@{version}#c{ordinal:04d}"


def chunk_document(
    doc: RawDocument,
    chunk_size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
    *,
    document: str = "",
    version: str = "",
) -> list:
    """Split a document into overlapping token windows.

    Windows start at multiples of ``chunk_size - overlap``; a window is
    emitted while it contributes tokens beyond the previous window's
    overlap, so every token lands in at least one chunk and ordinals are
    dense from zero.
    """
    if chunk_size <= 0 or overlap < 0 or overlap >= chunk_size:
        raise InvalidChunkParamsError(
            f"need 0 <= overlap < chunk_size, got chunk_size={chunk_size} overlap={overlap}"
        )
    tokens = doc.text.split()
    total = len(tokens)
    stride = chunk_size - overlap
    chunks = []
    start = 0
    while start == 0 or start + overlap < total:
        end = min(start + chunk_size, total)
        chunks.append(
            Chunk(
                document=document,
                version=version,
                ordinal=len(chunks),
                token_span=(start, end),
                text=" ".join(tokens[start:end]),
            )
        )
        if end >= total:
            break
        start += stride
    return chunks


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


def load_corpus(root_path) -> list:
    """Load every .md/.txt file under ``root_path``, path-sorted.

    A document's ``source_path`` is its path relative to the root, with
    POSIX separators, so it does not depend on how the root was given.
    An unreadable or empty file is logged and skipped without aborting the
    load; an empty result raises ``EmptyCorpusError``.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise EmptyCorpusError(f"corpus root {root} is not a directory")
    paths = sorted(
        (p.relative_to(root).as_posix(), p)
        for p in root.rglob("*")
        if p.is_file() and p.suffix.lower() in CORPUS_EXTENSIONS
    )
    documents = []
    for source_path, path in paths:
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            logger.warning("skipping unreadable file %s: %s", path, exc)
            continue
        if not text.strip():
            logger.warning("skipping empty file %s", path)
            continue
        documents.append(RawDocument(source_path=source_path, text=text))
    if not documents:
        raise EmptyCorpusError(f"no readable .md/.txt documents under {root}")
    return documents
