"""Five-level version graph: categories, documents, versions, content refs,
and change records, with typed edges and a JSON persistence format.

Structural invariants (checked by :meth:`VersionGraph.validate`):

* every document has exactly one category parent, every version exactly
  one document parent, every content ref exactly one version parent,
* no two versions of a document have labels the comparator equates,
* change nodes attach to an ordered version pair of their document
  (from-version may be absent for a document's first version),
* edge endpoints respect the level hierarchy.

Each edge is stored once, in ``_out`` (source id -> its outgoing edges);
``_in`` (target id -> its incoming edges) is the reverse index over the
same edge objects, and ``edges`` lists them on demand. A document's
version order is not stored: :meth:`VersionGraph.versions_of` sorts its
HAS_VERSION children by label under the comparator. ``_by_kind`` holds
the nodes of each class in ``nodes`` order, so listing the documents,
categories, change records or content refs never walks every node.

Mutations take an internal lock (single writer); reads are lock-free and
may run from any thread.
"""

from __future__ import annotations

import functools
import hashlib
import re
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Union

from .errors import (
    CorruptFileError,
    DuplicateVersionError,
    GraphValidationError,
    InvertedRangeError,
    UnknownNodeError,
    UnknownVersionError,
    VersionMismatchError,
)
from .fileio import json_bytes, read_json, write_atomic
from .versions import VersionLabel, compare_versions, parse_version

FORMAT_VERSION = 2

_SLUG = re.compile(r"[^a-z0-9]+")


def _slugify(text: str) -> str:
    return _SLUG.sub("-", text.casefold()).strip("-") or "x"


class NodeKind(str, Enum):
    CATEGORY = "category"
    DOCUMENT = "document"
    VERSION = "version"
    CONTENT_REF = "content_ref"
    CHANGE = "change"


class EdgeKind(str, Enum):
    HAS_DOCUMENT = "has_document"
    HAS_VERSION = "has_version"
    HAS_CONTENT = "has_content"
    CHANGED_TO = "changed_to"


class ChangeKind(str, Enum):
    ADDED = "added"
    REMOVED = "removed"
    MODIFIED = "modified"
    OTHER = "other"


class ChangeOrigin(str, Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"


def _by_value(enum: type) -> dict:
    """Value -> member of ``enum``, for the decoders: an unknown value raises
    KeyError and an unhashable one TypeError, as ``enum(value)`` raises ValueError."""
    return {member.value: member for member in enum}


_NODE_KINDS = _by_value(NodeKind)
_EDGE_KINDS = _by_value(EdgeKind)
_CHANGE_KINDS = _by_value(ChangeKind)
_ORIGINS = _by_value(ChangeOrigin)


class Edge(NamedTuple):
    source: str
    kind: EdgeKind
    target: str


@dataclass
class CategoryNode:
    id: str
    name: str


@dataclass
class DocumentNode:
    id: str
    title: str
    category: str


@dataclass
class VersionNode:
    id: str
    document: str
    label: VersionLabel
    synthetic: bool = False  # True when the label was not extracted but invented


@dataclass
class ContentRefNode:
    id: str
    document: str
    version: str  # raw label of the owning version
    ordinal: int
    key: str  # vector-index entry key


@dataclass
class ChangeRecord:
    id: str
    document: str
    from_version: Optional[VersionLabel]
    to_version: VersionLabel
    kind: ChangeKind
    description: str
    origin: ChangeOrigin
    evidence: list = field(default_factory=list)  # diff hunk ids, empty for explicit


Node = Union[CategoryNode, DocumentNode, VersionNode, ContentRefNode, ChangeRecord]

_KIND_OF = {
    CategoryNode: NodeKind.CATEGORY,
    DocumentNode: NodeKind.DOCUMENT,
    VersionNode: NodeKind.VERSION,
    ContentRefNode: NodeKind.CONTENT_REF,
    ChangeRecord: NodeKind.CHANGE,
}


def node_kind(node: Node) -> NodeKind:
    return _KIND_OF[type(node)]


def _find(versions: list, label: VersionLabel) -> Optional[VersionNode]:
    """The first of ``versions`` whose label the comparator equates with ``label``."""
    key = label.sort_key()
    for node in versions:
        if node.label.sort_key() == key:
            return node
    return None


class VersionGraph:
    """In-memory store for the version graph with traversal primitives."""

    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self._by_kind: dict[type, dict[str, Node]] = {cls: {} for cls in _KIND_OF}
        self._out: dict[str, list[Edge]] = {}
        self._in: dict[str, list[Edge]] = {}
        self._lock = threading.RLock()

    @property
    def edges(self) -> list[Edge]:
        """Every edge, grouped by source; a fresh list on each read.

        ``list()`` copies the values in one step, so a writer adding a node
        cannot break a lock-free read mid-iteration.
        """
        return [e for out in list(self._out.values()) for e in out]

    # --- low-level helpers -------------------------------------------------

    def _add_node(self, node: Node) -> str:
        self.nodes[node.id] = node
        self._by_kind[type(node)][node.id] = node
        return node.id

    def _add_edge(self, source: str, kind: EdgeKind, target: str) -> None:
        edge = Edge(source, kind, target)
        self._out.setdefault(source, []).append(edge)
        self._in.setdefault(target, []).append(edge)

    def _unique_id(self, base: str) -> str:
        if base not in self.nodes:
            return base
        n = 2
        while f"{base}-{n}" in self.nodes:
            n += 1
        return f"{base}-{n}"

    def _require(self, node_id: str, kind: NodeKind) -> Node:
        node = self.nodes.get(node_id)
        if node is None or node_kind(node) is not kind:
            raise UnknownNodeError(f"no {kind.value} node with id {node_id!r}")
        return node

    # --- construction ------------------------------------------------------

    def add_category(self, name: str) -> str:
        with self._lock:
            node_id = self._unique_id(f"category:{_slugify(name)}")
            return self._add_node(CategoryNode(id=node_id, name=name))

    def add_document(self, title: str, category: str) -> str:
        with self._lock:
            self._require(category, NodeKind.CATEGORY)
            node_id = self._unique_id(f"document:{_slugify(title)}")
            self._add_node(DocumentNode(id=node_id, title=title, category=category))
            self._add_edge(category, EdgeKind.HAS_DOCUMENT, node_id)
            return node_id

    def add_version(
        self,
        document: str,
        label: Union[VersionLabel, str],
        synthetic: bool = False,
    ) -> str:
        """Insert a version node under ``document``."""
        if isinstance(label, str):
            label = parse_version(label)
        with self._lock:
            doc = self._require(document, NodeKind.DOCUMENT)
            if _find(self.versions_of(document), label) is not None:
                raise DuplicateVersionError(
                    f"document {doc.title!r} already has version {label.raw!r}"
                )
            node_id = self._unique_id(f"version:{_slugify(doc.title)}@{_slugify(label.raw)}")
            node = VersionNode(id=node_id, document=document, label=label, synthetic=synthetic)
            self._add_node(node)
            self._add_edge(document, EdgeKind.HAS_VERSION, node_id)
            return node_id

    def add_content_ref(self, version_id: str, ordinal: int, key: str) -> str:
        with self._lock:
            version = self._require(version_id, NodeKind.VERSION)
            node_id = f"content:{key}"
            if node_id in self.nodes:
                return node_id
            self._add_node(
                ContentRefNode(
                    id=node_id,
                    document=version.document,
                    version=version.label.raw,
                    ordinal=ordinal,
                    key=key,
                )
            )
            self._add_edge(version_id, EdgeKind.HAS_CONTENT, node_id)
            return node_id

    def add_change(self, record: ChangeRecord) -> str:
        """Attach a change record between its version pair via CHANGED_TO edges;
        nothing is added when a version is unknown."""
        with self._lock:
            chain = self.versions_of(record.document)
            to_node = _find(chain, record.to_version)
            if to_node is None:
                raise UnknownVersionError(
                    f"version {record.to_version.raw!r} not in document {record.document!r}",
                    available=[v.label.raw for v in chain],
                )
            if record.id in self.nodes:
                return record.id
            from_node = None
            if record.from_version is not None:
                from_node = _find(chain, record.from_version)
                if from_node is None:
                    raise UnknownVersionError(
                        f"version {record.from_version.raw!r} not in document {record.document!r}",
                        available=[v.label.raw for v in chain],
                    )
            self._add_node(record)
            if from_node is not None:
                self._add_edge(from_node.id, EdgeKind.CHANGED_TO, record.id)
            self._add_edge(record.id, EdgeKind.CHANGED_TO, to_node.id)
            return record.id

    # --- traversal ----------------------------------------------------------

    def categories(self) -> list[CategoryNode]:
        return list(self._by_kind[CategoryNode].values())

    def documents(self) -> list[DocumentNode]:
        return list(self._by_kind[DocumentNode].values())

    def versions_of(self, document: str) -> list[VersionNode]:
        """Version nodes of a document in comparator order, ties broken by id."""
        self._require(document, NodeKind.DOCUMENT)
        # a target missing from the graph, or of another level, is left to
        # validate(), which reports the edge
        get = self.nodes.get
        nodes = [
            n
            for e in self._out.get(document, ())
            if e.kind is EdgeKind.HAS_VERSION and isinstance(n := get(e.target), VersionNode)
        ]
        return sorted(nodes, key=lambda v: (v.label.sort_key(), v.id))

    def list_versions(self, document: str) -> list[VersionLabel]:
        return [v.label for v in self.versions_of(document)]

    def find_version(self, document: str, label: Union[VersionLabel, str]) -> Optional[VersionNode]:
        if isinstance(label, str):
            label = parse_version(label)
        return _find(self.versions_of(document), label)

    def version_pairs(self, document: str) -> list[tuple]:
        chain = self.versions_of(document)
        return list(zip(chain, chain[1:]))

    def changes_for_pair(self, prev: VersionNode, nxt: VersionNode) -> list[ChangeRecord]:
        """Change records attached to one adjacent version pair, id-ordered."""
        explicit_from = {
            e.target for e in self._out.get(prev.id, []) if e.kind is EdgeKind.CHANGED_TO
        }
        records = []
        for edge in self._in.get(nxt.id, []):
            if edge.kind is not EdgeKind.CHANGED_TO:
                continue
            record = self.nodes[edge.source]
            if not isinstance(record, ChangeRecord):
                continue
            if record.from_version is None or record.id in explicit_from:
                records.append(record)
        return sorted(records, key=lambda r: r.id)

    def changes_between(
        self,
        document: str,
        frm: Union[VersionLabel, str],
        to: Union[VersionLabel, str],
    ) -> list[ChangeRecord]:
        """Concatenated records along the chain from ``frm`` to ``to``."""
        if isinstance(frm, str):
            frm = parse_version(frm)
        if isinstance(to, str):
            to = parse_version(to)
        chain = self.versions_of(document)
        available = [v.label.raw for v in chain]
        if _find(chain, frm) is None:
            raise UnknownVersionError(
                f"version {frm.raw!r} not in document {document!r}", available=available
            )
        if _find(chain, to) is None:
            raise UnknownVersionError(
                f"version {to.raw!r} not in document {document!r}", available=available
            )
        if compare_versions(frm, to) >= 0:
            raise InvertedRangeError(f"range {frm.raw!r} .. {to.raw!r} is not ascending")
        records = []
        for prev, nxt in zip(chain, chain[1:]):
            if compare_versions(prev.label, frm) >= 0 and compare_versions(nxt.label, to) <= 0:
                records.extend(self.changes_for_pair(prev, nxt))
        return records

    def change_records(self) -> list[ChangeRecord]:
        return list(self._by_kind[ChangeRecord].values())

    def content_refs(self) -> list[ContentRefNode]:
        return list(self._by_kind[ContentRefNode].values())

    def index_keys(self) -> set:
        """The vector-index keys the graph references: each content ref's key
        and each change record's id."""
        return {ref.key for ref in self.content_refs()} | set(self._by_kind[ChangeRecord])

    # --- validation ---------------------------------------------------------

    _EDGE_LEVELS = {
        EdgeKind.HAS_DOCUMENT: (NodeKind.CATEGORY, NodeKind.DOCUMENT),
        EdgeKind.HAS_VERSION: (NodeKind.DOCUMENT, NodeKind.VERSION),
        EdgeKind.HAS_CONTENT: (NodeKind.VERSION, NodeKind.CONTENT_REF),
    }

    def validate(self) -> list[str]:
        """Return a list of invariant violations (empty when the graph is valid)."""
        problems: list[str] = []

        for edge in self.edges:
            src = self.nodes.get(edge.source)
            dst = self.nodes.get(edge.target)
            if src is None or dst is None:
                problems.append(f"edge {edge} references a missing node")
                continue
            if edge.kind is EdgeKind.CHANGED_TO:
                ok = (
                    isinstance(src, VersionNode)
                    and isinstance(dst, ChangeRecord)
                    or isinstance(src, ChangeRecord)
                    and isinstance(dst, VersionNode)
                )
                if not ok:
                    problems.append(f"edge {edge} violates the level hierarchy")
                continue
            want = self._EDGE_LEVELS[edge.kind]
            if (node_kind(src), node_kind(dst)) != want:
                problems.append(f"edge {edge} violates the level hierarchy")

        documents = self.documents()
        for doc in documents:
            parents = [
                e.source for e in self._in.get(doc.id, []) if e.kind is EdgeKind.HAS_DOCUMENT
            ]
            if len(parents) != 1:
                problems.append(f"document {doc.id} has {len(parents)} category parents")

        for node in self.nodes.values():
            if isinstance(node, VersionNode):
                parents = [
                    e.source for e in self._in.get(node.id, []) if e.kind is EdgeKind.HAS_VERSION
                ]
                if len(parents) != 1:
                    problems.append(f"version {node.id} has {len(parents)} document parents")
            elif isinstance(node, ContentRefNode):
                parents = [
                    e.source for e in self._in.get(node.id, []) if e.kind is EdgeKind.HAS_CONTENT
                ]
                if len(parents) != 1:
                    problems.append(f"content ref {node.id} has {len(parents)} version parents")

        # per document: the sort keys of its versions and of its adjacent pairs
        keys: dict = {}
        for doc in documents:
            chain = self.versions_of(doc.id)
            labels = [v.label.sort_key() for v in chain]
            # equivalent labels, such as "1.2" and "1.2.0" in a loaded graph, sort side by side
            problems.extend(
                f"document {doc.id}: versions {prev.label.raw!r} and {nxt.label.raw!r} "
                "have equivalent labels"
                for prev, nxt, a, b in zip(chain, chain[1:], labels, labels[1:])
                if a == b
            )
            keys[doc.id] = (set(labels), set(zip(labels, labels[1:])))

        for record in self.change_records():
            problems.extend(self._validate_change(record, keys.get(record.document)))

        return problems

    @staticmethod
    def _validate_change(record: ChangeRecord, keys: Optional[tuple]) -> list[str]:
        """``keys`` holds the record's document's version keys and adjacent-pair keys."""
        if keys is None:
            return [f"change {record.id}: document missing from graph"]
        versions, pairs = keys
        problems = []
        if record.to_version.sort_key() not in versions:
            problems.append(f"change {record.id}: to_version missing from graph")
            return problems
        if record.origin is ChangeOrigin.EXPLICIT and record.evidence:
            problems.append(f"change {record.id}: explicit record carries evidence")
        if record.origin is ChangeOrigin.IMPLICIT:
            if not record.evidence:
                problems.append(f"change {record.id}: implicit record without evidence")
            if record.from_version is None:
                problems.append(f"change {record.id}: implicit record without from_version")
            elif (record.from_version.sort_key(), record.to_version.sort_key()) not in pairs:
                problems.append(f"change {record.id}: version pair is not chain-adjacent")
        if record.from_version is not None:
            if record.from_version.sort_key() not in versions:
                problems.append(f"change {record.id}: from_version missing from graph")
        return problems

    def validate_strict(self) -> None:
        problems = self.validate()
        if problems:
            raise GraphValidationError(problems)

    # --- persistence ----------------------------------------------------------

    def _node_to_dict(self, node: Node) -> dict:
        # "node_kind" is the payload discriminator; a change record's own
        # classification keeps the plain "kind" field name
        data = {"id": node.id, "node_kind": node_kind(node).value}
        if isinstance(node, CategoryNode):
            data["name"] = node.name
        elif isinstance(node, DocumentNode):
            data.update(title=node.title, category=node.category)
        elif isinstance(node, VersionNode):
            data.update(document=node.document, label=node.label.raw, synthetic=node.synthetic)
        elif isinstance(node, ContentRefNode):
            data.update(
                document=node.document, version=node.version, ordinal=node.ordinal, key=node.key
            )
        else:
            data.update(
                document=node.document,
                from_version=None if node.from_version is None else node.from_version.raw,
                to_version=node.to_version.raw,
                kind=node.kind.value,
                description=node.description,
                origin=node.origin.value,
                evidence=list(node.evidence),
            )
        return data

    @staticmethod
    def _node_from_dict(data: dict, label) -> Node:
        """The node ``_node_to_dict`` wrote; ``label`` parses a raw version label."""
        kind = _NODE_KINDS[data["node_kind"]]
        if kind is NodeKind.CATEGORY:
            return CategoryNode(id=data["id"], name=data["name"])
        if kind is NodeKind.DOCUMENT:
            return DocumentNode(id=data["id"], title=data["title"], category=data["category"])
        if kind is NodeKind.VERSION:
            return VersionNode(
                id=data["id"],
                document=data["document"],
                label=label(data["label"]),
                synthetic=bool(data.get("synthetic", False)),
            )
        if kind is NodeKind.CONTENT_REF:
            return ContentRefNode(
                id=data["id"],
                document=data["document"],
                version=data["version"],
                ordinal=int(data["ordinal"]),
                key=data["key"],
            )
        return ChangeRecord(
            id=data["id"],
            document=data["document"],
            from_version=(
                None if data.get("from_version") is None else label(data["from_version"])
            ),
            to_version=label(data["to_version"]),
            kind=_CHANGE_KINDS[data["kind"]],
            description=data["description"],
            origin=_ORIGINS[data["origin"]],
            evidence=list(data.get("evidence", [])),
        )

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "nodes": [self._node_to_dict(n) for n in sorted(self.nodes.values(), key=lambda n: n.id)],
            "edges": [
                {"from": e.source, "kind": e.kind.value, "to": e.target}
                for e in sorted(self.edges)
            ],
        }

    def save(self, path) -> str:
        """Replace ``path`` with the graph's JSON; returns the sha256 of the bytes written."""
        data = json_bytes(self.to_dict())
        write_atomic(path, data)
        return hashlib.sha256(data).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "VersionGraph":
        """The graph ``to_dict`` wrote, filled in bulk and not validated, so that
        :meth:`validate` can report dangling edges and equivalent labels. A
        malformed payload raises ``CorruptFileError``.

        Each distinct version label is parsed once. An id given twice keeps
        its first place in ``nodes`` and its last node.
        """
        graph = cls()
        label = functools.cache(parse_version)
        decode, edge_kinds = cls._node_from_dict, _EDGE_KINDS
        try:
            version = data["format_version"]
            if version != FORMAT_VERSION:
                raise VersionMismatchError(
                    f"unsupported graph format_version {version!r} (expected {FORMAT_VERSION})"
                )
            nodes = (decode(payload, label) for payload in data["nodes"])
            graph.nodes = {node.id: node for node in nodes}
            by_kind = graph._by_kind
            for node_id, node in graph.nodes.items():
                by_kind[type(node)][node_id] = node
            out, into = graph._out, graph._in
            for e in data["edges"]:
                edge = Edge(e["from"], edge_kinds[e["kind"]], e["to"])
                out.setdefault(edge.source, []).append(edge)
                into.setdefault(edge.target, []).append(edge)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CorruptFileError(f"malformed graph payload: {exc}") from exc
        return graph

    @classmethod
    def load(cls, path) -> "VersionGraph":
        return cls.from_dict(read_json(path, "graph file", CorruptFileError))
