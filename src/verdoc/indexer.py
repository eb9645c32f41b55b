"""Indexing pipeline: attribute extraction, document clustering, graph
construction, change extraction and content indexing, in that order.
Content comes last because a change record can add a version that has no
text, and such a version ends the runs of versions that content entries
name.

Completions see first pages, diff hunks and changelog bodies; bodies are
chunked and embedded. The metadata prompt takes page one; the doc-type
prompt takes an outline of at most one page (the first line and the
headings of the first ten pages), so no documentation body is prompted
twice.

A distinct chunk text of a document is stored once per run of consecutive
versions that hold it, in one vector entry that names the run's first and
last version (see :func:`index_content`); a version node records only
whether it has a text.

Re-running the pipeline over the same corpus is idempotent: node ids,
content keys and change ids are deterministic, extracted attributes are
cached next to the index, a text that an entry already holds is not
embedded again, and the change records of the previous graph are reused
per changelog file and per version pair whose current texts their ids
name (``changes.record_source``). A changelog that yielded no record is
marked ``no_changes`` in its attribute-cache entry, and is not prompted
again while that entry stands. A run ends with the graph and the content
entries it wrote as the one record of what the index holds: the vector
entries of anything else and the cached attributes of files no longer in
the corpus are dropped.

Every full run writes ``manifest.json`` after the other index files. It
records a digest of the clustered catalog (each category name, group title
and member's cache key and attributes), the chunking, page and embedding
parameters, the ids of the completion and embedding models, and the sha256
of ``graph.json``, ``vectors.json``, ``vectors.npy`` and
``attributes.json``. A re-index whose catalog, parameters and files match
it stops right after clustering, parses neither the graph nor the vectors
and writes none of the index files, and any other run rebuilds and
rewrites every file. A run that stops early leaves a manifest that no
longer matches, so the next run takes the full path. An index without a
manifest vouches for nothing, so none of its files is reused.

The stat signature (:mod:`verdoc.signature`), written after the manifest,
spares that check its reads: a re-index whose corpus and index files still
have the rows the signature holds reads no corpus text and hashes no index
file, and a run that had to read and hash to find the index current
writes the signature alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from . import prompts, signature
from .changes import (
    changelog_source,
    extract_explicit_changes,
    extract_implicit_changes,
    pair_source,
    record_source,
)
from .errors import (
    AttributeExtractionError,
    ClusteringError,
    CorruptFileError,
    DimensionMismatchError,
    IndexingError,
    SchemaViolationError,
    VerdocError,
)
from .fileio import json_bytes, write_atomic
from .gateway import CompletionRequest, Gateway, ResponseSchema, TokenUsage, parse_json_reply
from .graph import FORMAT_VERSION as GRAPH_FORMAT_VERSION
from .graph import ChangeOrigin, VersionGraph
from .ingestion import (
    CHUNK_OVERLAP,
    CHUNK_SIZE,
    PAGE_TOKENS,
    CorpusFile,
    RawDocument,
    chunk_document,
    first_pages,
    load_corpus,
    outline,
    walk_corpus,
)
from .textmatch import content_tokens
from .vector_index import FORMAT_VERSION as VECTOR_FORMAT_VERSION
from .vector_index import IndexEntry, MetadataFilter, VectorIndex, vectors_path
from .versions import VersionLabel, parse_version

logger = logging.getLogger(__name__)

GRAPH_FILE = "graph.json"
INDEX_FILE = "vectors.json"
SUMMARY_FILE = "summary.json"
ATTRIBUTES_FILE = "attributes.json"
MANIFEST_FILE = "manifest.json"
MANIFEST_FORMAT_VERSION = 1
# the vector entries that hold content
CONTENT = MetadataFilter({"origin": "content"})
# the files whose sha256 the manifest records
HASHED_FILES = (GRAPH_FILE, INDEX_FILE, vectors_path(INDEX_FILE).name, ATTRIBUTES_FILE)
# the index files whose rows the stat signature holds
SIGNED_FILES = (MANIFEST_FILE, *HASHED_FILES)


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


@dataclass
class IndexSummary:
    """What an indexing run did, and the graph of the index it left.

    ``_graph`` is the graph a full run built, or, for a run that stopped
    after clustering, the path of the ``graph.json`` its manifest describes;
    :attr:`graph` loads that file on first read and keeps the result.
    """

    _graph: object
    chunks: int
    changes: int
    usage: TokenUsage
    documents: int = 0
    groups: int = 0
    categories: int = 0

    @property
    def graph(self) -> VersionGraph:
        """The index's graph; reading a ``graph.json`` that no longer parses
        raises ``CorruptFileError``."""
        if not isinstance(self._graph, VersionGraph):
            self._graph = VersionGraph.load(self._graph)
        return self._graph

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
    """Two completions per document: metadata off page one, type off the outline."""
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
                    text=outline(doc, page_tokens=page_tokens),
                    doc_end=prompts.DOC_END,
                ),
                response_schema=ResponseSchema.ATTRIBUTES,
            )
        )
        doc_type = parse_json_reply(type_reply).get("doc_type")
    except SchemaViolationError as exc:
        raise AttributeExtractionError(f"attribute extraction failed for {doc.source_path}: {exc}") from exc
    # one schema covers both prompts, so a reply may have the other prompt's shape
    if not isinstance(meta.get("title"), str):
        raise AttributeExtractionError(f"metadata reply for {doc.source_path} has no title")
    if doc_type is None:
        raise AttributeExtractionError(f"doc-type reply for {doc.source_path} has no doc_type")
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


# --- step 4: change extraction ---------------------------------------------------------


def extract_changes(
    graph: VersionGraph,
    catalog: CorpusCatalog,
    gateway: Gateway,
    vector_index: VectorIndex,
    previous: Iterable = (),
    attribute_cache: Optional[dict] = None,
) -> int:
    """Explicit records for changelog documents, implicit diffs elsewhere.

    ``previous`` holds the change records of an earlier run. A record's id
    names its source (see ``changes.record_source``), so a changelog file
    or version pair that has records in ``previous`` under its current
    source is not re-extracted: its records are re-attached to the (fresh)
    graph, and re-runs spend no completion tokens on changes. A unit whose
    text changed since has no records under its new source, and is
    extracted again. An explicit record has no from-version: the chain
    places it in the pair that ends at its to-version. A reused one drops
    any from-version that an older index stored.

    ``attribute_cache`` maps a file's path:hash to its cached attributes. A
    changelog that yields no record is marked ``no_changes`` there, and a
    changelog so marked is not prompted: an entry of the cache holds the
    attributes, and so the version, that the extraction prompt names.

    Records join the graph as each unit is extracted. A group's records to
    embed, fresh or missing from ``vector_index``, go to the gateway in one
    embed call once the group's extraction ends; the count returned is of
    the fresh ones.
    """
    reusable: dict = {}
    for record in previous:
        reusable.setdefault(_extraction_unit(record), []).append(record)

    total = 0
    for _, group in catalog.all_groups():
        document_id = group.document_id
        doc_of = {vid: doc for (doc, _), vid in zip(group.members, group.version_ids)}
        pending = []  # the group's records to embed, in attach order
        if group.is_changelog:
            for doc, attrs in group.members:
                if attrs.doc_type != "changelog":
                    continue
                existing = reusable.get((document_id, changelog_source(doc, attrs)))
                if existing:
                    for record in existing:
                        record.from_version = None
                    _attach_records(graph, vector_index, existing, pending, fresh=False)
                    continue
                entry = (attribute_cache or {}).get(_cache_key(doc))
                if isinstance(entry, dict) and entry.get("no_changes") is True:
                    continue
                records = extract_explicit_changes(doc, attrs, document_id, gateway)
                if not records and isinstance(entry, dict):
                    entry["no_changes"] = True
                total += _attach_records(graph, vector_index, records, pending)
        else:
            for prev_node, next_node in graph.version_pairs(document_id):
                if prev_node.id not in doc_of or next_node.id not in doc_of:
                    continue
                prev_doc, next_doc = doc_of[prev_node.id], doc_of[next_node.id]
                source = pair_source(prev_doc, next_doc)
                existing = reusable.get((document_id, prev_node.label.raw, next_node.label.raw, source))
                if existing:
                    _attach_records(graph, vector_index, existing, pending, fresh=False)
                    continue
                records = extract_implicit_changes(
                    document_id, (prev_node.label, prev_doc), (next_node.label, next_doc), gateway
                )
                total += _attach_records(graph, vector_index, records, pending)
        if pending:
            _embed_records(gateway, vector_index, pending)
    return total


def _extraction_unit(record) -> tuple:
    """The unit a record was extracted from: (document, source) for an
    explicit record, (document, from, to, source) for an implicit one."""
    if record.origin is ChangeOrigin.EXPLICIT:
        return record.document, record_source(record)
    from_raw = "" if record.from_version is None else record.from_version.raw
    return record.document, from_raw, record.to_version.raw, record_source(record)


def _attach_records(
    graph: VersionGraph,
    vector_index: VectorIndex,
    records: list,
    pending: list,
    fresh: bool = True,
) -> int:
    """Add ``records`` to the graph and append those to embed to
    ``pending``; returns the count appended.

    A ``fresh`` record was just extracted and is embedded even when its id
    has an entry, because a record keeps its id when its description
    changes; a reused record is embedded only when its entry is missing.
    """
    count = len(pending)
    for record in records:
        if graph.find_version(record.document, record.to_version) is None:
            # changelog mentions a version with no retained documentation
            graph.add_version(record.document, record.to_version, synthetic=True, has_text=False)
            logger.warning(
                "auto-created version %s for %s (mentioned by a change record)",
                record.to_version.raw,
                record.document,
            )
        if graph.node(record.id) is not None:
            continue
        graph.add_change(record)
        if fresh or record.id not in vector_index:
            pending.append(record)
    return len(pending) - count


def _embed_records(gateway: Gateway, vector_index: VectorIndex, records: list) -> None:
    """Embed the descriptions of ``records`` in one call and write their entries."""
    vectors = gateway.embed([record.description for record in records])
    for record, vector in zip(records, vectors):
        # the record lives in the graph; its entry holds what a change search filters on
        metadata = {"document": record.document, "origin": record.origin.value}
        vector_index.insert(IndexEntry(record.id, vector, metadata, text=""))


# --- step 5: content indexing --------------------------------------------------------


def content_key(document: str, first: str, text: str) -> str:
    """The vector-index key of the content entry of ``text`` in a run of
    versions of ``document`` that opens at version ``first``."""
    return f"{document}@{first}#{hashlib.sha256(text.encode('utf-8')).hexdigest()[:16]}"


def index_content(
    graph: VersionGraph,
    catalog: CorpusCatalog,
    gateway: Gateway,
    vector_index: VectorIndex,
    chunk_size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
) -> int:
    """Chunk every version's text and store each distinct chunk text of a
    document once per run of consecutive versions that hold it; returns the
    count of texts embedded.

    A run's entry is keyed by :func:`content_key`, and its metadata names
    the document and the run's ``first`` and ``last`` version. The runs
    follow the document's version chain, where a version without a text
    holds no chunk, and a text that leaves and comes back opens a new run.

    A text that a content entry already held is not embedded again: its
    entries take that vector, which makes re-runs and interrupted runs
    cheap, and an entry that already holds its key, text and metadata is
    left as it is. The other texts of a document group go to the gateway
    in one embed call, each distinct text once. The content entries this
    run does not write are dropped.
    """
    held = {}  # text -> vector, of the content entries the index held
    stale = {}  # key -> (metadata, text) of the content entries not yet written
    for key in vector_index.keys(CONTENT):
        entry = vector_index.get(key)
        held.setdefault(entry.text, entry.vector)
        stale[key] = (entry.metadata, entry.text)
    embedded = 0
    for _, group in catalog.all_groups():
        document = group.document_id
        if graph.node(document) is None:
            raise IndexingError("content", f"group {group.canonical_title!r} missing from graph")
        text_of = {vid: doc for (doc, _), vid in zip(group.members, group.version_ids)}
        runs = _runs(graph.versions_of(document), text_of, chunk_size, overlap)
        missing = list(dict.fromkeys(text for text, _, _ in runs if text not in held))
        if missing:
            held.update(zip(missing, gateway.embed(missing)))
            embedded += len(missing)
        for text, first, last in runs:
            key = content_key(document, first, text)
            metadata = {"document": document, "origin": "content", "first": first, "last": last}
            if stale.pop(key, None) != (metadata, text):
                vector_index.insert(IndexEntry(key, held[text], metadata, text))
    vector_index.drop(stale)
    return embedded


def _runs(chain: list, text_of: dict, chunk_size: int, overlap: int) -> list:
    """(text, first, last) for each run of consecutive versions of ``chain``
    that hold a chunk text, in the order the runs open; ``first`` and
    ``last`` are raw labels. ``text_of`` maps a version id to its document."""
    runs = []
    open_runs: dict = {}  # text -> its run, for the texts of the version before
    for node in chain:
        doc = text_of.get(node.id)
        chunks = () if doc is None else chunk_document(doc, chunk_size=chunk_size, overlap=overlap)
        current: dict = {}
        for chunk in chunks:
            run = current.get(chunk.text) or open_runs.get(chunk.text)
            if run is None:
                run = [chunk.text, node.label.raw, None]
                runs.append(run)
            run[2] = node.label.raw
            current[chunk.text] = run
        open_runs = current
    return runs


# --- whole pipeline ----------------------------------------------------------------------


@contextlib.contextmanager
def _stage(step: str):
    """Report a failure inside ``step`` as an ``IndexingError`` naming it."""
    try:
        yield
    except IndexingError:
        raise
    except VerdocError as exc:
        raise IndexingError(step, exc) from exc


def catalog_documents(
    documents: list,
    gateway: Gateway,
    page_tokens: int = PAGE_TOKENS,
    attribute_cache: Optional[dict] = None,
) -> CorpusCatalog:
    """Steps 1 and 2: each document's attributes, then their clustering.

    ``attribute_cache`` maps a file's path:hash to its extracted attributes;
    a file found there sends no completion, an entry that is not an
    attribute object is a miss, and the cache is left holding the files of
    ``documents`` and no others.
    """
    attrs = []
    with _stage("attributes"):
        cache_keys = [_cache_key(doc) for doc in documents]
        for doc, key in zip(documents, cache_keys):
            if isinstance(doc, _Vouched):  # its entry was decoded when the file was vouched for
                cached = doc.attributes
            elif attribute_cache is not None:
                cached = _cached_attributes(attribute_cache.get(key))
            else:
                cached = None
            if cached is not None:
                attrs.append((doc, cached))
                continue
            extracted = extract_attributes(doc, gateway, page_tokens=page_tokens)
            attrs.append((doc, extracted))
            if attribute_cache is not None:
                attribute_cache[key] = extracted.to_dict()
        if attribute_cache is not None:
            for stale in attribute_cache.keys() - set(cache_keys):
                del attribute_cache[stale]
    with _stage("clustering"):
        return cluster_documents(attrs, gateway)


def _cached_attributes(entry) -> Optional[DocumentAttributes]:
    """The attributes of an attribute-cache entry; None (a miss) when it is
    missing or is not an attribute object: one with a text ``title``,
    ``summary`` and ``doc_type``, and a ``version`` that is text or null."""
    if not isinstance(entry, dict):
        return None
    if not all(isinstance(entry.get(name), str) for name in ("title", "summary", "doc_type")):
        return None
    version = entry.get("version", False)  # False: no version key
    if version is not None and not isinstance(version, str):
        return None
    return DocumentAttributes.from_dict(entry)


def index_documents(
    documents: list,
    gateway: Gateway,
    vector_index: VectorIndex,
    chunk_size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
    page_tokens: int = PAGE_TOKENS,
    attribute_cache: Optional[dict] = None,
    change_records: Iterable = (),
    catalog: Optional[CorpusCatalog] = None,
) -> IndexSummary:
    """Run the five steps over already-loaded documents.

    Steps 1 and 2 are :func:`catalog_documents`, with ``page_tokens`` and
    ``attribute_cache``; a caller that already has the ``catalog`` of
    ``documents`` passes it, and only steps 3 to 5 run. ``change_records``
    are an earlier run's records, reused where their source is unchanged,
    and ``attribute_cache`` also marks the changelogs that yield no record.
    The vector entries that are neither content nor a change record of the
    new graph are dropped.
    """
    usage_before = gateway.usage()
    if catalog is None:
        catalog = catalog_documents(documents, gateway, page_tokens, attribute_cache)
    with _stage("graph"):
        graph = build_graph(catalog)
    with _stage("changes"):
        changes = extract_changes(
            graph, catalog, gateway, vector_index, change_records, attribute_cache
        )
        graph.validate_strict()
    with _stage("content"):
        chunks = index_content(
            graph, catalog, gateway, vector_index, chunk_size=chunk_size, overlap=overlap
        )
    kept = {record.id for record in graph.change_records()}.union(vector_index.keys(CONTENT))
    vector_index.drop([key for key in vector_index.keys() if key not in kept])
    return _summary(graph, catalog, documents, gateway.usage().minus(usage_before), chunks, changes)


def _summary(graph, catalog, documents, usage, chunks=0, changes=0) -> IndexSummary:
    return IndexSummary(
        graph,
        chunks=chunks,
        changes=changes,
        usage=usage,
        documents=len(documents),
        groups=sum(1 for _ in catalog.all_groups()),
        categories=len(catalog.categories),
    )


def _cache_key(doc) -> str:
    if isinstance(doc, _Vouched):
        return doc.key
    return f"{doc.source_path}:{doc.sha256[:16]}"


@dataclass(eq=False)
class _Vouched:
    """A corpus file that the stat signature vouches for, in place of its
    document: ``key`` is the attribute-cache key of the text the file held
    when the signature was written, and ``attributes`` the decoded entry
    under it. That text is not read unless a stage after clustering needs
    it."""

    file: CorpusFile
    key: str
    attributes: DocumentAttributes

    @property
    def source_path(self) -> str:
        return self.file.source_path


def _vouched_documents(files: list, attribute_cache: dict) -> Optional[list]:
    """A ``_Vouched`` for each of ``files`` that ``attribute_cache`` names
    with attributes, under the key it is named by and with those attributes,
    each entry decoded once; None when no file is so named, or when one of
    the others now reads as a document.

    The run that wrote the signature cached the attributes of every file it
    kept and of no other, so each other file is one it skipped; it is read
    to log why it is skipped again.
    """
    named = {}  # source path -> (cache key, attributes)
    for key, entry in attribute_cache.items():
        attributes = _cached_attributes(entry)
        if attributes is not None:
            named[key.rpartition(":")[0]] = (key, attributes)
    documents = [_Vouched(file, *named[file.source_path]) for file in files if file.source_path in named]
    if not documents or any(file.read() is not None for file in files if file.source_path not in named):
        return None
    return documents


def _read_vouched(catalog: CorpusCatalog, documents: list) -> Optional[list]:
    """``documents`` with each ``_Vouched`` replaced by the document its file
    holds, in ``catalog`` as well; None when a file no longer holds the
    text its cache key names, or cannot be read."""
    read = {}
    for doc in documents:
        if isinstance(doc, _Vouched):
            held = doc.file.read()
            if held is None or _cache_key(held) != doc.key:
                return None
            read[id(doc)] = held
    if read:
        for _, group in catalog.all_groups():
            group.members = [(read.get(id(doc), doc), attrs) for doc, attrs in group.members]
    return [read.get(id(doc), doc) for doc in documents]


# --- the manifest ------------------------------------------------------------------------


def _inputs_digest(catalog: CorpusCatalog) -> str:
    """The sha256 of what an index of ``catalog`` is built from: each
    category's name, each group's title, and each member's cache key and
    attributes, in catalog order, behind the formats of the graph and vector
    files, so that an index of an older format is built again."""
    listing = [
        [
            category.name,
            [
                [group.canonical_title, [[_cache_key(d), a.to_dict()] for d, a in group.members]]
                for group in category.groups
            ],
        ]
        for category in catalog.categories
    ]
    payload = [GRAPH_FORMAT_VERSION, VECTOR_FORMAT_VERSION, listing]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("ascii")).hexdigest()


def _file_sha256(path: Path, digests: dict) -> Optional[str]:
    """The sha256 of the file at ``path``, None when it cannot be read. A
    path already in ``digests`` is not read again; the others are added."""
    if path not in digests:
        try:
            digests[path] = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            digests[path] = None
    return digests[path]


def _read_manifest(path: Path) -> dict:
    """The manifest at ``path``; empty, and so matching nothing, when it is
    missing or is not a JSON object."""
    try:
        data = json.loads(path.read_bytes())
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def _changed_files(index_dir: Path, files: dict, digests: dict) -> list:
    """The names in ``files`` whose file under ``index_dir`` is missing or
    does not hash to the sha256 recorded beside the name."""
    return [name for name, digest in files.items() if _file_sha256(index_dir / name, digests) != digest]


def _index_is_current(out: Path, recorded: dict, expected: dict, digests: dict) -> bool:
    """Whether the index in ``out`` holds what this run would write: its
    manifest ``recorded`` records ``expected`` and every file it lists still
    has its recorded sha256. A file whose sha256 matches holds the bytes
    that the manifest's run wrote, in the formats that ``inputs`` names."""
    files = recorded.get("files")
    rest = {name: value for name, value in recorded.items() if name != "files"}
    if rest != expected or not isinstance(files, dict) or set(files) != set(HASHED_FILES):
        return False
    return not _changed_files(out, files, digests)


def _described_by(recorded: dict, path: Path, digests: dict) -> bool:
    """Whether the manifest ``recorded`` records the sha256 that ``path``
    has now."""
    files = recorded.get("files")
    return isinstance(files, dict) and files.get(path.name) == _file_sha256(path, digests)


def _unchanged(recorded: dict, parameters: dict, *names: str) -> bool:
    """Whether the manifest ``recorded`` records each of ``names`` with its
    value in ``parameters``."""
    return all(recorded.get(name) == parameters[name] for name in names)


def manifest_problems(index_dir) -> list:
    """Each file that the manifest of the index in ``index_dir`` lists and
    that is missing or no longer has its recorded sha256. An index without a
    manifest has nothing to report."""
    path = Path(index_dir) / MANIFEST_FILE
    if not path.exists():
        return []
    files = _read_manifest(path).get("files")
    if not isinstance(files, dict):
        return [f"{MANIFEST_FILE}: unreadable or lists no files"]
    return [
        f"{name}: sha256 differs from the one in {MANIFEST_FILE}"
        for name in _changed_files(Path(index_dir), files, {})
    ]


def index_corpus(
    root_path,
    out_dir,
    gateway: Gateway,
    dimension: int,
    chunk_size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
    page_tokens: int = PAGE_TOKENS,
) -> IndexSummary:
    """Index a corpus directory and persist graph, vectors, summary and manifest.

    The corpus is loaded and clustered first; its files are named by their
    paths under ``root_path``, so the root may be given relative or
    absolute. Cached attributes are used only when the manifest records the
    same ``page_tokens`` and completion ``model``, change records only under
    the same ``model``, and vectors only under the same ``embedding_model``.
    When the manifest of ``out_dir`` records this catalog and these
    parameters, and each file it lists still has its recorded sha256, the
    index already holds what this run would write: the run returns 0
    chunks, 0 changes and a graph that is read from ``graph.json`` on first
    use, and writes none of the six index files, so ``summary.json`` still
    describes the run that built the index. An attribute-cache miss or a
    cached file that is gone changes the catalog, and a damaged cache its
    sha256, so neither passes this check. Each index file is hashed at most
    once per run.

    When the stat signature in ``out_dir`` (see :mod:`verdoc.signature`)
    vouches for the corpus and the index files, no file's sha256 is taken:
    the manifest's are trusted, and each corpus file the attribute cache
    names is clustered under the cache key it is named by, unread. Only
    when that index turns out not to be current are the texts read, and a
    text that no longer has its cache key makes the run start over,
    reading and hashing everything. A run that hashed its way to a current
    index writes the signature alone.

    Otherwise the vector entries, cached attributes and change records of
    an index in ``out_dir`` are reused, so an unchanged corpus re-indexes
    to an identical state without re-spending completion tokens. A change
    record is reused when its id names the current texts it was extracted
    from, whatever the attribute cache holds, and only from a
    ``graph.json`` that the manifest describes. An index without a
    readable manifest reuses none of the three. An unreadable vector index
    (an older format, one torn by a crash, or one of another dimension) is
    re-embedded in full, and an unreadable graph has its changes
    re-extracted. Every file is replaced atomically, and ``manifest.json``
    is written after the other five and before the signature, so a run
    that stops early leaves a manifest whose inputs or file hashes do not
    match, and a signature that does not match the new files, and the next
    run builds the index again.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = walk_corpus(root_path)
    # a clock reading taken before every stat this run records: the
    # signature's mtime, when it vouches for the stats it holds
    since = signature.vouched(out, files, SIGNED_FILES)
    hashing, rows = since is None, None
    if hashing:
        since = signature.clock(out)
        rows = signature.index_rows(out, SIGNED_FILES)
    recorded = _read_manifest(out / MANIFEST_FILE)
    parameters = {
        "chunk_size": chunk_size,
        "overlap": overlap,
        "page_tokens": page_tokens,
        "dimension": dimension,
        "model": gateway.backend.model,
        "embedding_model": gateway.backend.embedding_model,
    }

    digests: dict = {}  # path -> sha256, each index file hashed at most once
    if not hashing and isinstance(recorded.get("files"), dict):
        # a signature is written only over files found to have these sha256
        digests = {out / name: recorded["files"].get(name) for name in HASHED_FILES}
    cache_path = out / ATTRIBUTES_FILE
    attribute_cache: dict = {}
    # attributes cached at another page_tokens were extracted from other pages,
    # and those of another model by another model
    if cache_path.exists() and _unchanged(recorded, parameters, "page_tokens", "model"):
        try:
            cached = cache_path.read_bytes()
            if cache_path not in digests:
                digests[cache_path] = hashlib.sha256(cached).hexdigest()
            attribute_cache = json.loads(cached.decode("utf-8"))
        except (OSError, ValueError):
            attribute_cache = None
        if not isinstance(attribute_cache, dict):
            logger.warning("ignoring unreadable attribute cache at %s", cache_path)
            attribute_cache = {}
    documents = None
    if not hashing and attribute_cache:
        documents = _vouched_documents(files, attribute_cache)
    if documents is None:
        documents = load_corpus(root_path, files)
    usage_before = gateway.usage()
    catalog = catalog_documents(documents, gateway, page_tokens, attribute_cache)
    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "inputs": _inputs_digest(catalog),
        **parameters,
    }
    graph_path = out / GRAPH_FILE
    if _index_is_current(out, recorded, manifest, digests):
        if hashing and rows is not None:
            signature.write(out, files, since, SIGNED_FILES, rows)
        return _summary(graph_path, catalog, documents, gateway.usage().minus(usage_before))
    documents = _read_vouched(catalog, documents)
    if documents is None:
        logger.warning("a corpus file changed during the run; indexing %s again", root_path)
        (out / signature.SIGNATURE_FILE).unlink(missing_ok=True)
        return index_corpus(root_path, out_dir, gateway, dimension, chunk_size, overlap, page_tokens)

    index_path = out / INDEX_FILE
    vector_index = VectorIndex(dimension)
    # vectors of another embedding model are not reused, as those of another dimension are not
    if index_path.exists() and _unchanged(recorded, parameters, "embedding_model"):
        try:
            loaded = VectorIndex.load(index_path)
            if loaded.dimension != dimension:
                raise DimensionMismatchError(f"it has dimension {loaded.dimension}, not {dimension}")
            vector_index = loaded
        except (CorruptFileError, DimensionMismatchError) as exc:
            logger.warning("re-embedding every entry; unreadable vector index: %s", exc)
    change_records: list = []
    if graph_path.exists():
        if not _described_by(recorded, graph_path, digests):
            # not the graph the manifest's run wrote, or no manifest vouches for it
            logger.warning(
                "re-extracting every change; %s does not match %s", GRAPH_FILE, MANIFEST_FILE
            )
        elif _unchanged(recorded, parameters, "model"):
            try:
                change_records = VersionGraph.load_change_records(graph_path)
            except CorruptFileError as exc:
                logger.warning("re-extracting every change; unreadable graph: %s", exc)

    summary = index_documents(
        documents,
        gateway,
        vector_index,
        chunk_size=chunk_size,
        overlap=overlap,
        attribute_cache=attribute_cache,
        change_records=change_records,
        catalog=catalog,
    )
    summary.usage = gateway.usage().minus(usage_before)  # the clustering above included

    files_written = {GRAPH_FILE: summary.graph.save(graph_path), **vector_index.save(index_path)}
    attributes = json_bytes(attribute_cache)
    write_atomic(cache_path, attributes)
    files_written[ATTRIBUTES_FILE] = hashlib.sha256(attributes).hexdigest()
    write_atomic(out / SUMMARY_FILE, json_bytes(summary.to_dict()))
    write_atomic(out / MANIFEST_FILE, json_bytes({**manifest, "files": files_written}))
    signature.write(out, files, since, SIGNED_FILES)
    return summary
