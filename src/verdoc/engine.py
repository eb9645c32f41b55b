"""Facade tying graph, vector index and gateway into one query engine."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import DocumentNotFoundError, EmptyIndexError
from .gateway import Gateway
from .generation import Answer, answer as generate_answer
from .graph import VersionGraph
from .indexer import GRAPH_FILE, INDEX_FILE
from .retrieval import (
    DEFAULT_K,
    ParsedQuery,
    RetrievedContext,
    parse_query_safe,
    resolve_document,
    retrieve,
)
from .vector_index import VectorIndex


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
        graph and the vector index: each key the graph accounts for (a
        version's chunks, a change record) without an entry, and each entry
        that the graph does not account for."""
        problems = self.graph.validate()
        referenced = self.graph.index_keys()
        held = set(self.index.keys())
        problems += [f"vector entry {key!r}: missing" for key in sorted(referenced - held)]
        problems += [
            f"vector entry {key!r}: referenced by no version or change"
            for key in sorted(held - referenced)
        ]
        return problems
