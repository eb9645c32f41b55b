"""Indexing pipeline: attribute extraction, document clustering, graph
construction, content indexing and change extraction, in that order.

Only first pages, diff hunks and changelog bodies are ever sent to the
completion backend; full documentation bodies are chunked and embedded but
never prompted. That bound is what keeps indexing cheap and is asserted by
the acceptance suite.

Re-running the pipeline over the same corpus is idempotent: node ids,
chunk keys and change ids are deterministic, extracted attributes are
cached next to the index, and already-present chunks are skipped by
(document, version, ordinal) key.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import prompts
from .changes import extract_explicit_changes, extract_implicit_changes
from .errors import (
    AttributeExtractionError,
    ClusteringError,
    IndexingError,
    SchemaViolationError,
    VerdocError,
)
from .gateway import CompletionRequest, Gateway, ResponseSchema, TokenUsage, parse_json_reply
from .graph import VersionGraph
from .ingestion import (
    CHUNK_OVERLAP,
    CHUNK_SIZE,
    PAGE_TOKENS,
    RawDocument,
    chunk_document,
    first_pages,
    load_corpus,
)
from .textmatch import content_tokens
from .vector_index import IndexEntry, VectorIndex
from .versions import VersionLabel, parse_version

logger = logging.getLogger(__name__)

GRAPH_FILE = "graph.json"
INDEX_FILE = "vectors.json"
SUMMARY_FILE = "summary.json"
ATTRIBUTES_FILE = "attributes.json"


@dataclass
class DocumentAttributes:
    title: str
    summary: str
    version: Optional[VersionLabel]
    doc_type: str  # "changelog" | "documentation"

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "summary": self.summary,
            "version": None if self.version is None else self.version.raw,
            "doc_type": self.doc_type,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DocumentAttributes":
        return cls(
            title=data["title"],
            summary=data["summary"],
            version=None if data["version"] is None else parse_version(data["version"]),
            doc_type=data["doc_type"],
        )


@dataclass
class DocumentGroup:
    canonical_title: str
    members: list = field(default_factory=list)  # (RawDocument, DocumentAttributes)
    # set by build_graph: the group's document node and one version node per member
    document_id: str = ""
    version_ids: list = field(default_factory=list)

    @property
    def is_changelog(self) -> bool:
        votes = sum(1 for _, attrs in self.members if attrs.doc_type == "changelog")
        return votes * 2 > len(self.members)


@dataclass
class Category:
    name: str
    groups: list = field(default_factory=list)


@dataclass
class CorpusCatalog:
    categories: list = field(default_factory=list)

    def all_groups(self):
        for category in self.categories:
            for group in category.groups:
                yield category, group

    def member_count(self) -> int:
        return sum(len(g.members) for _, g in self.all_groups())


@dataclass
class IndexSummary:
    graph: VersionGraph
    chunks: int
    changes: int
    usage: TokenUsage
    documents: int = 0
    groups: int = 0
    categories: int = 0

    def to_dict(self) -> dict:
        return {
            "documents": self.documents,
            "categories": self.categories,
            "groups": self.groups,
            "versions": sum(len(self.graph.list_versions(d.id)) for d in self.graph.documents()),
            "chunks": self.chunks,
            "changes": self.changes,
            "usage": self.usage.to_dict(),
        }


def normalize_title(title: str) -> str:
    return " ".join(content_tokens(title))


# --- step 1: attribute extraction ------------------------------------------------


def extract_attributes(
    doc: RawDocument, gateway: Gateway, page_tokens: int = PAGE_TOKENS
) -> DocumentAttributes:
    """Two completions per document: metadata off page one, type off ten pages."""
    first_page = first_pages(doc, 1, page_tokens=page_tokens)
    try:
        reply = gateway.complete(
            CompletionRequest(
                prompt=prompts.ATTRIBUTES_PROMPT.format(
                    doc_begin=prompts.DOC_BEGIN, text=first_page, doc_end=prompts.DOC_END
                ),
                response_schema=ResponseSchema.ATTRIBUTES,
            )
        )
        meta = parse_json_reply(reply)
        type_reply = gateway.complete(
            CompletionRequest(
                prompt=prompts.DOC_TYPE_PROMPT.format(
                    doc_begin=prompts.DOC_BEGIN,
                    text=first_pages(doc, 10, page_tokens=page_tokens),
                    doc_end=prompts.DOC_END,
                ),
                response_schema=ResponseSchema.ATTRIBUTES,
            )
        )
        doc_type = parse_json_reply(type_reply)["doc_type"]
    except SchemaViolationError as exc:
        raise AttributeExtractionError(f"attribute extraction failed for {doc.source_path}: {exc}") from exc
    version = meta.get("version")
    return DocumentAttributes(
        title=meta["title"].strip(),
        summary=meta.get("summary", ""),
        version=None if not version else parse_version(str(version)),
        doc_type=doc_type,
    )


# --- step 2: clustering -----------------------------------------------------------


def _fallback_catalog(attrs: list) -> CorpusCatalog:
    """Deterministic grouping by normalized title; category per group."""
    groups: dict[str, DocumentGroup] = {}
    order: list = []
    for doc, attr in attrs:
        key = normalize_title(attr.title)
        if key not in groups:
            groups[key] = DocumentGroup(canonical_title=attr.title)
            order.append(key)
        groups[key].members.append((doc, attr))
    catalog = CorpusCatalog()
    for key in sorted(order):
        group = groups[key]
        _sort_members(group)
        catalog.categories.append(Category(name=group.canonical_title, groups=[group]))
    return catalog


def _sort_members(group: DocumentGroup) -> None:
    group.members.sort(
        key=lambda pair: (
            pair[1].version.sort_key() if pair[1].version is not None else (),
            pair[0].source_path,
        )
    )


def _is_partition(catalog: CorpusCatalog, expected: int) -> bool:
    seen: set = set()
    for _, group in catalog.all_groups():
        for doc, _ in group.members:
            if id(doc) in seen:
                return False
            seen.add(id(doc))
    return len(seen) == expected


def cluster_documents(attrs: list, gateway: Gateway) -> CorpusCatalog:
    """Group versions of one document and organize groups into categories.

    The completion proposes the grouping; the result is only accepted when
    it partitions the inputs, otherwise the deterministic title-equality
    fallback applies.
    """
    if not attrs:
        raise ClusteringError("cannot cluster an empty attribute list")
    listing = "\n".join(
        f"{i}. {attr.title} [{attr.doc_type}]" for i, (_, attr) in enumerate(attrs)
    )
    proposal: Optional[CorpusCatalog] = None
    try:
        reply = gateway.complete(
            CompletionRequest(
                prompt=prompts.CLUSTER_PROMPT.format(listing=listing),
                response_schema=ResponseSchema.CLUSTERS,
            )
        )
        data = parse_json_reply(reply)
        catalog = CorpusCatalog()
        for category_data in data["categories"]:
            category = Category(name=category_data["name"])
            for group_data in category_data["groups"]:
                group = DocumentGroup(canonical_title=group_data["title"])
                for member in group_data["members"]:
                    if not 0 <= member < len(attrs):
                        raise ValueError(f"member index {member} out of range")
                    group.members.append(attrs[member])
                _sort_members(group)
                if group.members:
                    category.groups.append(group)
            if category.groups:
                catalog.categories.append(category)
        if _is_partition(catalog, len(attrs)):
            catalog.categories.sort(key=lambda c: c.name)
            proposal = catalog
        else:
            logger.warning("clustering proposal is not a partition; using title fallback")
    except (SchemaViolationError, ValueError, KeyError) as exc:
        logger.warning("clustering completion unusable (%s); using title fallback", exc)
    return proposal if proposal is not None else _fallback_catalog(attrs)


# --- step 3: graph construction ----------------------------------------------------


def build_graph(catalog: CorpusCatalog) -> VersionGraph:
    """One category node per category, one document per group, one version
    per member. Members without an extracted version get synthetic
    "0.0.<ordinal>" labels (flagged) so indexing never halts on them.

    Each group records its document and version node ids, which the later
    stages read instead of looking the group up again."""
    if not catalog.categories:
        raise ClusteringError("catalog has no categories")
    graph = VersionGraph()
    for category in catalog.categories:
        category_id = graph.add_category(category.name)
        for group in category.groups:
            group.document_id = graph.add_document(group.canonical_title, category_id)
            group.version_ids = []
            for (doc, _), (label, synthetic) in zip(group.members, _member_labels(group)):
                if synthetic:
                    logger.warning(
                        "no version extracted for %s; using synthetic label %s",
                        doc.source_path,
                        label.raw,
                    )
                version_id = graph.add_version(group.document_id, label, synthetic=synthetic)
                group.version_ids.append(version_id)
    return graph


def _member_labels(group: DocumentGroup) -> list:
    """(label, synthetic) per group member, in member order.

    A member without an extracted version gets the next free "0.0.<ordinal>"
    label, skipping ordinals that a real member's version already takes.
    """
    real = {attrs.version.sort_key() for _, attrs in group.members if attrs.version is not None}
    labels = []
    missing = 0
    for _, attrs in group.members:
        if attrs.version is not None:
            labels.append((attrs.version, False))
            continue
        missing += 1
        while parse_version(f"0.0.{missing}").sort_key() in real:
            missing += 1
        labels.append((parse_version(f"0.0.{missing}"), True))
    return labels


# --- step 4: content indexing --------------------------------------------------------


def index_content(
    graph: VersionGraph,
    catalog: CorpusCatalog,
    gateway: Gateway,
    vector_index: VectorIndex,
    chunk_size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
) -> int:
    """Chunk, embed and insert every version's text; returns new chunk count.

    Chunks already present in the index (same document/version/ordinal key)
    are skipped, which makes interrupted runs resumable and re-runs no-ops.
    """
    new_chunks = 0
    for category, group in catalog.all_groups():
        if group.document_id not in graph.nodes:
            raise IndexingError("content", f"group {group.canonical_title!r} missing from graph")
        for (doc, _), version_id in zip(group.members, group.version_ids):
            version = graph.nodes[version_id].label.raw
            chunks = chunk_document(
                doc,
                chunk_size=chunk_size,
                overlap=overlap,
                document=group.document_id,
                version=version,
            )
            pending = [c for c in chunks if c.key not in vector_index]
            if pending:
                vectors = gateway.embed([c.text for c in pending])
                for chunk, vector in zip(pending, vectors):
                    vector_index.insert(
                        IndexEntry(
                            key=chunk.key,
                            vector=vector,
                            metadata={
                                "category": category.name,
                                "document": group.document_id,
                                "version": version,
                                "ordinal": str(chunk.ordinal),
                                "origin": "content",
                            },
                            text=chunk.text,
                        )
                    )
                    new_chunks += 1
            for chunk in chunks:
                graph.add_content_ref(version_id, chunk.ordinal, chunk.key)
    return new_chunks


# --- step 5: change extraction ---------------------------------------------------------


def extract_changes(
    graph: VersionGraph,
    catalog: CorpusCatalog,
    gateway: Gateway,
    vector_index: VectorIndex,
) -> int:
    """Explicit records for changelog documents, implicit diffs elsewhere.

    Work already present in the vector index is not re-extracted: records
    are rebuilt from their entries and re-attached to the (fresh) graph, so
    re-runs spend no completion tokens on changes.
    """
    indexed = _indexed_records(vector_index)
    total = 0
    for category, group in catalog.all_groups():
        document_id = group.document_id
        text_of = {vid: doc.text for (doc, _), vid in zip(group.members, group.version_ids)}
        if group.is_changelog:
            for doc, attrs in group.members:
                if attrs.doc_type != "changelog":
                    continue
                existing = indexed.get(("explicit", document_id, doc.source_path))
                if existing:
                    _attach_records(
                        graph, vector_index, gateway, existing, category.name, doc.source_path
                    )
                    continue
                records = extract_explicit_changes(
                    doc, attrs, document_id, gateway, vector_index=None, category=category.name
                )
                total += _attach_records(
                    graph, vector_index, gateway, records, category.name, doc.source_path
                )
        else:
            for prev_node, next_node in graph.version_pairs(document_id):
                if prev_node.id not in text_of or next_node.id not in text_of:
                    continue
                existing = indexed.get(
                    ("implicit", document_id, prev_node.label.raw, next_node.label.raw)
                )
                if existing:
                    _attach_records(graph, vector_index, gateway, existing, category.name)
                    continue
                records = extract_implicit_changes(
                    document_id,
                    (prev_node.label, text_of[prev_node.id]),
                    (next_node.label, text_of[next_node.id]),
                    gateway,
                    vector_index=None,
                    category=category.name,
                )
                total += _attach_records(graph, vector_index, gateway, records, category.name)
    return total


def _indexed_records(vector_index: VectorIndex) -> dict:
    """Change records already in the index, grouped by extraction unit."""
    from .changes import record_from_entry

    grouped: dict = {}
    for key in vector_index.keys():
        entry = vector_index.get(key)
        origin = entry.metadata.get("origin")
        if origin == "explicit":
            bucket = ("explicit", entry.metadata["document"], entry.metadata.get("source", ""))
        elif origin == "implicit":
            bucket = (
                "implicit",
                entry.metadata["document"],
                entry.metadata.get("from_version", ""),
                entry.metadata["to_version"],
            )
        else:
            continue
        grouped.setdefault(bucket, []).append(record_from_entry(entry))
    for records in grouped.values():
        records.sort(key=lambda r: r.id)
    return grouped


def _attach_records(
    graph: VersionGraph,
    vector_index: VectorIndex,
    gateway: Gateway,
    records: list,
    category: str,
    source: str = "",
) -> int:
    from .changes import index_change_record

    pending = []
    for record in records:
        if graph.find_version(record.document, record.to_version) is None:
            # changelog mentions a version with no retained documentation
            graph.add_version(record.document, record.to_version, synthetic=True)
            logger.warning(
                "auto-created version %s for %s (mentioned by a change record)",
                record.to_version.raw,
                record.document,
            )
        if record.origin.value == "explicit" and record.from_version is None:
            chain = graph.versions_of(record.document)
            for prev, nxt in zip(chain, chain[1:]):
                if nxt.label.sort_key() == record.to_version.sort_key():
                    record.from_version = prev.label
                    break
        if record.id in graph.nodes:
            continue
        graph.add_change(record)
        if record.id not in vector_index:
            pending.append(record)
    if pending:
        vectors = gateway.embed([record.description for record in pending])
        for record, vector in zip(pending, vectors):
            index_change_record(record, vector, vector_index, category, source)
    return len(pending)


# --- whole pipeline ----------------------------------------------------------------------


def index_documents(
    documents: list,
    gateway: Gateway,
    vector_index: VectorIndex,
    chunk_size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
    page_tokens: int = PAGE_TOKENS,
    attribute_cache: Optional[dict] = None,
) -> IndexSummary:
    """Run the five steps over already-loaded documents."""
    usage_before = gateway.usage()
    attrs = []
    step = "attributes"
    try:
        for doc in documents:
            cached = None if attribute_cache is None else attribute_cache.get(_cache_key(doc))
            if cached is not None:
                attrs.append((doc, DocumentAttributes.from_dict(cached)))
                continue
            extracted = extract_attributes(doc, gateway, page_tokens=page_tokens)
            attrs.append((doc, extracted))
            if attribute_cache is not None:
                attribute_cache[_cache_key(doc)] = extracted.to_dict()
        step = "clustering"
        catalog = cluster_documents(attrs, gateway)
        step = "graph"
        graph = build_graph(catalog)
        step = "content"
        chunks = index_content(
            graph, catalog, gateway, vector_index, chunk_size=chunk_size, overlap=overlap
        )
        step = "changes"
        changes = extract_changes(graph, catalog, gateway, vector_index)
        graph.validate_strict()
    except VerdocError as exc:
        if isinstance(exc, IndexingError):
            raise
        raise IndexingError(step, exc) from exc
    return IndexSummary(
        graph=graph,
        chunks=chunks,
        changes=changes,
        usage=gateway.usage().minus(usage_before),
        documents=len(documents),
        groups=sum(1 for _ in catalog.all_groups()),
        categories=len(catalog.categories),
    )


def _cache_key(doc: RawDocument) -> str:
    digest = hashlib.sha256(doc.text.encode("utf-8")).hexdigest()[:16]
    return f"{doc.source_path}:{digest}"


def index_corpus(
    root_path,
    out_dir,
    gateway: Gateway,
    dimension: int,
    chunk_size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
    page_tokens: int = PAGE_TOKENS,
) -> IndexSummary:
    """Index a corpus directory and persist graph, vectors and summary.

    When ``out_dir`` already holds an index, its vector entries and cached
    attributes are reused: unchanged corpora re-index to an identical
    state without re-spending completion tokens.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    documents = load_corpus(root_path)

    index_path = out / INDEX_FILE
    vector_index = VectorIndex.load(index_path) if index_path.exists() else VectorIndex(dimension)
    cache_path = out / ATTRIBUTES_FILE
    attribute_cache: dict = {}
    if cache_path.exists():
        try:
            attribute_cache = json.loads(cache_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            logger.warning("ignoring unreadable attribute cache at %s", cache_path)

    summary = index_documents(
        documents,
        gateway,
        vector_index,
        chunk_size=chunk_size,
        overlap=overlap,
        page_tokens=page_tokens,
        attribute_cache=attribute_cache,
    )

    summary.graph.save(out / GRAPH_FILE)
    vector_index.save(index_path)
    cache_path.write_text(
        json.dumps(attribute_cache, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out / SUMMARY_FILE).write_text(
        json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary
