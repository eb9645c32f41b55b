"""Query parsing, retrieval mode selection and context retrieval.

Version queries answer straight off the graph (the vector index is never
touched for them), change queries traverse the graph when a document and
version range are resolved and otherwise search the indexed change
records semantically, and content queries run a vector search that is
hard-filtered to the requested version when one was extracted: a content
entry holds one chunk text over a run of versions, and the filter keeps
the entries whose run holds that version. A query must name a version
that actually exists; nothing silently substitutes a nearby version.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import prompts
from .errors import (
    CorruptFileError,
    DocumentNotFoundError,
    EmptyIndexError,
    QueryParseError,
    SchemaViolationError,
    VersionNotFoundError,
)
from .gateway import CompletionRequest, Gateway, ResponseSchema, parse_json_reply
from .graph import ChangeOrigin, ChangeRecord, DocumentNode, VersionGraph
from .textmatch import content_tokens
from .vector_index import MetadataFilter, VectorIndex
from .versions import VersionLabel, compare_versions, parse_version

logger = logging.getLogger(__name__)

DEFAULT_K = 5
CHANGE_ORIGINS = frozenset(origin.value for origin in ChangeOrigin)


class QueryIntent(str, Enum):
    CONTENT = "content"
    VERSION = "version"
    CHANGE = "change"


class RetrievalMode(str, Enum):
    GRAPH_TRAVERSAL = "graph_traversal"
    VECTOR_SEARCH = "vector_search"
    CHANGE_SEARCH = "change_search"


@dataclass
class ParsedQuery:
    text: str
    intent: QueryIntent
    category: Optional[str] = None
    document: Optional[str] = None  # resolved document node id
    version: Optional[VersionLabel] = None
    version_range: Optional[tuple] = None  # (from_label, to_label)


@dataclass
class ContextItem:
    text: str
    document: str  # document title for display
    version: str
    origin: str


@dataclass
class RetrievedContext:
    items: list = field(default_factory=list)
    mode: RetrievalMode = RetrievalMode.VECTOR_SEARCH
    intent: QueryIntent = QueryIntent.CONTENT


def resolve_document(graph: VersionGraph, name: str) -> Optional[DocumentNode]:
    """Case-folded containment match between a name and document titles.

    Ties go to the document with the most versions, then title order.
    """
    needle = name.casefold().strip()
    if not needle:
        return None
    matches = []
    for doc in graph.documents():
        title = doc.title.casefold()
        if needle in title or title in needle:
            matches.append(doc)
    if not matches:
        needle_tokens = set(content_tokens(name))
        for doc in graph.documents():
            tokens = content_tokens(doc.title)
            if tokens and sum(1 for t in tokens if t in needle_tokens) == len(tokens):
                matches.append(doc)
    if not matches:
        return None
    matches.sort(key=lambda d: (-len(graph.list_versions(d.id)), d.title))
    return matches[0]


def _resolve_category(graph: VersionGraph, name: str) -> Optional[str]:
    needle = name.casefold().strip()
    for category in sorted(graph.categories(), key=lambda c: c.name):
        title = category.name.casefold()
        if needle and (needle in title or title in needle):
            return category.id
    return None


def parse_query(text: str, graph: VersionGraph, gateway: Gateway) -> ParsedQuery:
    """One classification completion, then graph-based name resolution."""
    if not text.strip():
        raise QueryParseError("query text is empty")
    documents = "\n".join(f"- {d.title}" for d in sorted(graph.documents(), key=lambda d: d.title))
    categories = "\n".join(f"- {c.name}" for c in sorted(graph.categories(), key=lambda c: c.name))
    prompt = prompts.PARSE_PROMPT.format(
        documents=documents or "- (none)",
        categories=categories or "- (none)",
        question=text,
    )
    try:
        reply = gateway.complete(
            CompletionRequest(prompt=prompt, response_schema=ResponseSchema.PARSED_QUERY)
        )
        data = parse_json_reply(reply)
    except SchemaViolationError as exc:
        raise QueryParseError(f"query classification failed: {exc}") from exc

    intent = QueryIntent(data["intent"])
    document = None
    if data.get("document"):
        node = resolve_document(graph, data["document"])
        document = node.id if node is not None else None
    category = None
    if data.get("category"):
        category = _resolve_category(graph, data["category"])
    version = None
    if data.get("version"):
        version = parse_version(data["version"])
    version_range = None
    if data.get("version_range"):
        frm, to = (parse_version(v) for v in data["version_range"])
        if compare_versions(frm, to) > 0:
            frm, to = to, frm
        if compare_versions(frm, to) != 0:
            version_range = (frm, to)
    return ParsedQuery(
        text=text,
        intent=intent,
        category=category,
        document=document,
        version=version,
        version_range=version_range,
    )


def parse_query_safe(text: str, graph: VersionGraph, gateway: Gateway) -> ParsedQuery:
    """Parse, degrading to an unfiltered content query on failure."""
    try:
        return parse_query(text, graph, gateway)
    except QueryParseError as exc:
        logger.warning("falling back to unfiltered content retrieval: %s", exc)
        return ParsedQuery(text=text, intent=QueryIntent.CONTENT)


def select_mode(parsed: ParsedQuery) -> RetrievalMode:
    """Deterministic routing by intent and resolved parameters."""
    if parsed.intent is QueryIntent.VERSION:
        return RetrievalMode.GRAPH_TRAVERSAL
    if parsed.intent is QueryIntent.CHANGE:
        if parsed.document is not None and parsed.version_range is not None:
            return RetrievalMode.GRAPH_TRAVERSAL
        return RetrievalMode.CHANGE_SEARCH
    return RetrievalMode.VECTOR_SEARCH


def retrieve(
    parsed: ParsedQuery,
    graph: VersionGraph,
    index: VectorIndex,
    gateway: Gateway,
    k: int = DEFAULT_K,
    version_filter: bool = True,
) -> RetrievedContext:
    """Execute the selected retrieval path and return grounded context.

    ``version_filter=False`` disables version/document constraining of
    vector search (the naive baseline behaviour, kept for comparison runs).
    """
    mode = select_mode(parsed)
    if mode is RetrievalMode.GRAPH_TRAVERSAL and parsed.intent is QueryIntent.VERSION:
        return _retrieve_versions(parsed, graph)
    if mode is RetrievalMode.GRAPH_TRAVERSAL:
        return _retrieve_change_range(parsed, graph)
    if mode is RetrievalMode.CHANGE_SEARCH:
        return _search_changes(parsed, graph, index, gateway, k)
    return _search_content(parsed, graph, index, gateway, k, version_filter)


def _title_of(graph: VersionGraph, document_id: str) -> str:
    node = graph.nodes.get(document_id)
    return getattr(node, "title", document_id)


def _retrieve_versions(parsed: ParsedQuery, graph: VersionGraph) -> RetrievedContext:
    if parsed.document is not None:
        if parsed.document not in graph.nodes:
            raise DocumentNotFoundError(f"document {parsed.document!r} is not in the graph")
        documents = [graph.nodes[parsed.document]]
    elif parsed.category is not None:
        documents = [d for d in graph.documents() if d.category == parsed.category]
    else:
        documents = sorted(graph.documents(), key=lambda d: d.title)
    if not documents:
        raise DocumentNotFoundError("no documents in the graph match the query")
    items = []
    for doc in documents:
        for label in graph.list_versions(doc.id):
            items.append(
                ContextItem(
                    text=f"Version {label.raw}",
                    document=doc.title,
                    version=label.raw,
                    origin="graph",
                )
            )
    return RetrievedContext(items=items, mode=RetrievalMode.GRAPH_TRAVERSAL, intent=parsed.intent)


def _retrieve_change_range(parsed: ParsedQuery, graph: VersionGraph) -> RetrievedContext:
    frm, to = parsed.version_range
    if parsed.document not in graph.nodes:
        raise DocumentNotFoundError(f"document {parsed.document!r} is not in the graph")
    available = [v.raw for v in graph.list_versions(parsed.document)]
    for label in (frm, to):
        if graph.find_version(parsed.document, label) is None:
            raise VersionNotFoundError(
                f"version {label.raw!r} not found; available: {', '.join(available)}",
                available=available,
            )
    records = graph.changes_between(parsed.document, frm, to)
    title = _title_of(graph, parsed.document)
    items = [_change_item(record, title) for record in records]
    return RetrievedContext(items=items, mode=RetrievalMode.GRAPH_TRAVERSAL, intent=parsed.intent)


def _change_item(record: ChangeRecord, title: str) -> ContextItem:
    """A change record as context; its version is "from -> to", or the
    target alone without a from version."""
    version = record.to_version.raw
    if record.from_version is not None:
        version = f"{record.from_version.raw} -> {version}"
    return ContextItem(
        text=record.description, document=title, version=version, origin=record.origin.value
    )


def _embed_query(gateway: Gateway, text: str):
    return gateway.embed([text])[0]


def _search_changes(
    parsed: ParsedQuery,
    graph: VersionGraph,
    index: VectorIndex,
    gateway: Gateway,
    k: int,
) -> RetrievedContext:
    """One semantic search over explicit and implicit records; the graph
    holds the record behind each hit."""
    if len(index) == 0:
        raise EmptyIndexError("the vector index is empty; run indexing first")
    query_vector = _embed_query(gateway, parsed.text)
    base = {"document": parsed.document} if parsed.document is not None else {}
    hits = index.search(
        query_vector, k=k, metadata_filter=MetadataFilter({**base, "origin": CHANGE_ORIGINS})
    )
    items = []
    for hit in hits:
        record = graph.nodes.get(hit.key)
        if not isinstance(record, ChangeRecord):
            raise CorruptFileError(f"change entry {hit.key!r} has no change record in the graph")
        items.append(_change_item(record, _title_of(graph, record.document)))
    return RetrievedContext(items=items, mode=RetrievalMode.CHANGE_SEARCH, intent=parsed.intent)


def _search_content(
    parsed: ParsedQuery,
    graph: VersionGraph,
    index: VectorIndex,
    gateway: Gateway,
    k: int,
    version_filter: bool,
) -> RetrievedContext:
    if len(index) == 0:
        raise EmptyIndexError("the vector index is empty; run indexing first")
    equality = {"origin": "content"}
    resolved: dict = {}  # document id -> raw label of the version the query names
    if version_filter:
        if parsed.document is not None:
            equality["document"] = parsed.document
        elif parsed.category is not None:
            # a chunk's category is its document's
            equality["document"] = {
                d.id for d in graph.documents() if d.category == parsed.category
            }
        if parsed.version is not None:
            resolved = _resolve_versions(parsed, graph)
            if parsed.document is None:  # only the documents that have the version
                equality["document"] = set(resolved) & equality.get("document", set(resolved))
    query_vector = _embed_query(gateway, parsed.text)
    metadata_filter = MetadataFilter(equality, valid_at=parsed.version.raw if resolved else None)
    hits = index.search(query_vector, k=k, metadata_filter=metadata_filter)
    items = []
    for hit in hits:
        metadata = hit.entry.metadata
        version = resolved.get(metadata["document"])
        if version is None:
            first, last = metadata["first"], metadata["last"]
            version = first if first == last else f"{first} .. {last}"
        items.append(
            ContextItem(
                text=hit.entry.text,
                document=_title_of(graph, metadata["document"]),
                version=version,
                origin="content",
            )
        )
    return RetrievedContext(items=items, mode=RetrievalMode.VECTOR_SEARCH, intent=parsed.intent)


def _resolve_versions(parsed: ParsedQuery, graph: VersionGraph) -> dict:
    """Each document that has the requested version, by id, mapped to that
    version node's raw label: the named document, or else every document
    of the graph. Raises ``VersionNotFoundError`` when there is none."""
    documents = [parsed.document] if parsed.document is not None else [
        doc.id for doc in graph.documents()
    ]
    resolved = {}
    for document in documents:
        node = graph.find_version(document, parsed.version)
        if node is not None:
            resolved[document] = node.label.raw
    if resolved:
        return resolved
    if parsed.document is not None:
        available = [v.raw for v in graph.list_versions(parsed.document)]
        raise VersionNotFoundError(
            f"version {parsed.version.raw!r} not found in "
            f"{_title_of(graph, parsed.document)!r}; available: {', '.join(available)}",
            available=available,
        )
    available = sorted(
        {v.raw for doc in graph.documents() for v in graph.list_versions(doc.id)}
    )
    raise VersionNotFoundError(
        f"version {parsed.version.raw!r} not found in any document; "
        f"available: {', '.join(available)}",
        available=available,
    )
