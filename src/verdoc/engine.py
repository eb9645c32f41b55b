"""Facade tying graph, vector index and gateway into one query engine."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import DocumentNotFoundError, EmptyIndexError, InvalidQuestionError
from .gateway import Gateway
from .generation import Answer, answer as generate_answer
from .graph import DocumentNode, VersionGraph
from .indexer import CONTENT, GRAPH_FILE, INDEX_FILE
from .retrieval import (
    DEFAULT_K,
    ParsedQuery,
    RetrievedContext,
    parse_query_safe,
    resolve_document,
    retrieve,
)
from .vector_index import VectorIndex
from .versions import parse_version


@dataclass
class AskResult:
    parsed: ParsedQuery
    context: RetrievedContext
    answer: Answer


class Engine:
    def __init__(self, graph: VersionGraph, index: VectorIndex, gateway: Gateway, k: int = DEFAULT_K):
        self.graph = graph
        self.index = index
        self.gateway = gateway
        self.k = k

    @classmethod
    def load(cls, index_dir, gateway: Gateway, k: int = DEFAULT_K) -> "Engine":
        index_dir = Path(index_dir)
        graph_path = index_dir / GRAPH_FILE
        vectors_path = index_dir / INDEX_FILE
        if not graph_path.exists() or not vectors_path.exists():
            raise EmptyIndexError(
                f"no index at {index_dir} (expected {GRAPH_FILE} and {INDEX_FILE}); run indexing first"
            )
        return cls(VersionGraph.load(graph_path), VectorIndex.load(vectors_path), gateway, k=k)

    def parse(self, text: str) -> ParsedQuery:
        return parse_query_safe(text, self.graph, self.gateway)

    def retrieve(
        self, parsed: ParsedQuery, k: Optional[int] = None, version_filter: bool = True
    ) -> RetrievedContext:
        return retrieve(
            parsed,
            self.graph,
            self.index,
            self.gateway,
            k=k or self.k,
            version_filter=version_filter,
        )

    def ask(self, text: str, k: Optional[int] = None, version_filter: bool = True) -> AskResult:
        """Parse, retrieve and answer ``text``. A question that is not
        valid Unicode raises ``InvalidQuestionError`` before any request."""
        _check_question(text)
        parsed = self.parse(text)
        context = self.retrieve(parsed, k=k, version_filter=version_filter)
        result = generate_answer(parsed, context, self.gateway)
        return AskResult(parsed=parsed, context=context, answer=result)

    def versions(self, document_name: str) -> list:
        doc = resolve_document(self.graph, document_name)
        if doc is None:
            titles = ", ".join(sorted(d.title for d in self.graph.documents()))
            raise DocumentNotFoundError(
                f"no document matches {document_name!r}; known documents: {titles}"
            )
        return [label.raw for label in self.graph.list_versions(doc.id)]

    def changes(self, document_name: str, frm: str, to: str) -> list:
        doc = resolve_document(self.graph, document_name)
        if doc is None:
            raise DocumentNotFoundError(f"no document matches {document_name!r}")
        return self.graph.changes_between(doc.id, frm, to)

    def validate(self) -> list:
        """The graph's invariant violations, then every mismatch between the
        graph and the vector index: a content entry whose run does not name
        versions of its document, first to last in chain order; a version
        with a text that no content entry covers, or one without a text
        that an entry covers; a change record without an entry; and an entry
        that is neither content nor a change record."""
        graph = self.graph
        problems = graph.validate()
        covered: set = set()  # ids of the versions that content entries cover
        content = self.index.keys(CONTENT)
        for key in content:
            metadata = self.index.get(key).metadata
            run = _run_of(graph, metadata)
            if run is None:
                problems.append(
                    f"vector entry {key!r}: run {metadata.get('first')!r}.."
                    f"{metadata.get('last')!r} names no versions of {metadata.get('document')!r}"
                )
            covered.update(version.id for version in run or ())
        for doc in graph.documents():
            for version in graph.versions_of(doc.id):
                if version.has_text and version.id not in covered:
                    problems.append(f"version {version.id}: no content entry covers it")
                elif not version.has_text and version.id in covered:
                    problems.append(f"version {version.id}: has no text, but content covers it")
        records = {record.id for record in graph.change_records()}
        held = set(self.index.keys()).difference(content)
        problems += [f"vector entry {key!r}: missing" for key in sorted(records - held)]
        problems += [
            f"vector entry {key!r}: neither content nor a change record"
            for key in sorted(held - records)
        ]
        return problems


def _check_question(text: str) -> None:
    """Refuse a question with a lone surrogate, which no request can carry:
    what Python makes of undecodable bytes on a command line, or of a
    ``\\udcff`` escape in JSON."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidQuestionError(
            f"the question is not valid Unicode: character {exc.start}"
            f" ({ascii(text[exc.start])}) is a lone surrogate"
        ) from None


def _run_of(graph: VersionGraph, metadata: dict) -> Optional[list]:
    """The versions of a content entry's run, from its ``first`` to its
    ``last`` version in its document's chain; None unless both name
    versions of the document, in that order."""
    document, first, last = (metadata.get(name) for name in ("document", "first", "last"))
    if not isinstance(document, str) or not isinstance(graph.node(document), DocumentNode):
        return None
    if not (isinstance(first, str) and isinstance(last, str)):
        return None
    chain = graph.versions_of(document)
    keys = [version.label.sort_key() for version in chain]
    first_key, last_key = parse_version(first).sort_key(), parse_version(last).sort_key()
    if first_key not in keys or last_key not in keys or first_key > last_key:
        return None
    return chain[keys.index(first_key) : keys.index(last_key) + 1]
