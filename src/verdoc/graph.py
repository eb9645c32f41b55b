"""Four-level version graph: categories, documents, versions and change
records, with a JSON persistence format.

The hierarchy is stored once, in each node's parent fields: a document's
``category``, the ``document`` of a version or change record, and a change
record's ``from_version`` and ``to_version`` labels. Two in-memory indexes
are derived from those fields, filled as each node is added and in one pass
on load: ``_versions`` holds each document's version nodes in comparator
order of their labels, ties broken by id, and ``_changes`` each document's
change records bucketed by the sort key of their to-version. ``_by_kind``
holds the nodes of each class in ``nodes`` order, so listing the documents,
categories or change records never walks every node.

A version's content lives in the vector index alone, where each content
entry names the first and last version of its document that hold it. A
version node records only whether it has a text: one that only a change
record names has none.

Structural invariants (checked by :meth:`VersionGraph.validate`):

* each parent field names a node of the level above: a document's a
  category, and the document of a version or change record a document,
* no two versions of a document have labels the comparator equates,
* change records name versions of their document (an explicit one need
  name no from-version), an implicit one an adjacent pair.

Mutations take an internal lock (single writer); reads are lock-free and
may run from any thread.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import re
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

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

FORMAT_VERSION = 5
# the formats whose change records read as this format's: format 5 changed
# only the version nodes
RECORD_FORMATS = (4, FORMAT_VERSION)

_SLUG = re.compile(r"[^a-z0-9]+")


def _slugify(text: str) -> str:
    return _SLUG.sub("-", text.casefold()).strip("-") or "x"


class NodeKind(str, Enum):
    CATEGORY = "category"
    DOCUMENT = "document"
    VERSION = "version"
    CHANGE = "change"


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
_CHANGE_KINDS = _by_value(ChangeKind)
_ORIGINS = _by_value(ChangeOrigin)


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
    has_text: bool = True  # False for a version that only a change record names


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

    @property
    def span(self) -> str:
        """The record's versions: "<from> -> <to>", or the to-version alone."""
        if self.from_version is None:
            return self.to_version.raw
        return f"{self.from_version.raw} -> {self.to_version.raw}"


Node = Union[CategoryNode, DocumentNode, VersionNode, ChangeRecord]

_KIND_OF = {
    CategoryNode: NodeKind.CATEGORY,
    DocumentNode: NodeKind.DOCUMENT,
    VersionNode: NodeKind.VERSION,
    ChangeRecord: NodeKind.CHANGE,
}


def node_kind(node: Node) -> NodeKind:
    return _KIND_OF[type(node)]


# the parent field of each level below the categories, and the class it names
_PARENT = {
    DocumentNode: ("category", CategoryNode),
    VersionNode: ("document", DocumentNode),
    ChangeRecord: ("document", DocumentNode),
}


def _flag(value) -> bool:
    """``value`` when it is a boolean; ValueError otherwise."""
    if type(value) is not bool:
        raise ValueError(f"has_text {value!r} is not a boolean")
    return value


def _version_order(node: VersionNode) -> tuple:
    return node.label.sort_key(), node.id


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
        # document id -> its versions in versions_of order
        self._versions: dict[str, list[VersionNode]] = {}
        # document id -> to-version sort key -> change records
        self._changes: dict[str, dict[tuple, list[ChangeRecord]]] = {}
        self._lock = threading.RLock()

    # --- low-level helpers -------------------------------------------------

    def _add_node(self, node: Node) -> str:
        self.nodes[node.id] = node
        self._index(node)
        return node.id

    def _index(self, node: Node) -> None:
        """File ``node`` under its class and, by its parent fields, in the
        derived indexes."""
        self._by_kind[type(node)][node.id] = node
        if isinstance(node, VersionNode):
            bisect.insort(self._versions.setdefault(node.document, []), node, key=_version_order)
        elif isinstance(node, ChangeRecord):
            by_key = self._changes.setdefault(node.document, {})
            by_key.setdefault(node.to_version.sort_key(), []).append(node)

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
            return self._add_node(DocumentNode(id=node_id, title=title, category=category))

    def add_version(
        self,
        document: str,
        label: Union[VersionLabel, str],
        synthetic: bool = False,
        has_text: bool = True,
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
            node = VersionNode(
                id=node_id, document=document, label=label, synthetic=synthetic, has_text=has_text
            )
            return self._add_node(node)

    def add_change(self, record: ChangeRecord) -> str:
        """Add a change record under its document; nothing is added when a
        version it names is not one of the document's."""
        with self._lock:
            chain = self.versions_of(record.document)
            if _find(chain, record.to_version) is None:
                raise UnknownVersionError(
                    f"version {record.to_version.raw!r} not in document {record.document!r}",
                    available=[v.label.raw for v in chain],
                )
            if record.id in self.nodes:
                return record.id
            if record.from_version is not None and _find(chain, record.from_version) is None:
                raise UnknownVersionError(
                    f"version {record.from_version.raw!r} not in document {record.document!r}",
                    available=[v.label.raw for v in chain],
                )
            return self._add_node(record)

    # --- traversal ----------------------------------------------------------

    def categories(self) -> list[CategoryNode]:
        return list(self._by_kind[CategoryNode].values())

    def documents(self) -> list[DocumentNode]:
        return list(self._by_kind[DocumentNode].values())

    def versions_of(self, document: str) -> list[VersionNode]:
        """Version nodes of a document in comparator order, ties broken by id."""
        self._require(document, NodeKind.DOCUMENT)
        return list(self._versions.get(document, ()))

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
        """Change records of one adjacent version pair, id-ordered: those whose
        to-version is ``nxt`` and whose from-version is absent or ``prev``."""
        records = self._changes.get(nxt.document, {}).get(nxt.label.sort_key(), ())
        key = prev.label.sort_key()
        return sorted(
            (r for r in records if r.from_version is None or r.from_version.sort_key() == key),
            key=lambda r: r.id,
        )

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

    # --- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        """Return a list of invariant violations (empty when the graph is valid)."""
        problems: list[str] = []

        # per document: the sort keys of its versions and of its adjacent pairs
        versions: dict = {}
        for doc in self.documents():
            chain = self.versions_of(doc.id)
            labels = [v.label.sort_key() for v in chain]
            # equivalent labels, such as "1.2" and "1.2.0" in a loaded graph, sort side by side
            problems.extend(
                f"document {doc.id}: versions {prev.label.raw!r} and {nxt.label.raw!r} "
                "have equivalent labels"
                for prev, nxt, a, b in zip(chain, chain[1:], labels, labels[1:])
                if a == b
            )
            versions[doc.id] = (set(labels), set(zip(labels, labels[1:])))

        for node in self.nodes.values():
            if isinstance(node, CategoryNode):
                continue
            name, level = _PARENT[type(node)]
            # a loaded field may hold any JSON value, and one that is not a string names no node
            ref = getattr(node, name)
            parent = self.nodes.get(ref) if isinstance(ref, str) else None
            where = f"{node_kind(node).value} {node.id}"
            if parent is None:
                problems.append(f"{where}: {name} missing from graph")
            elif not isinstance(parent, level):
                problems.append(f"{where}: {name} names a {node_kind(parent).value} node")
            elif isinstance(node, ChangeRecord):
                problems.extend(self._validate_change(node, *versions[parent.id]))
        return problems

    @staticmethod
    def _validate_change(record: ChangeRecord, versions: set, pairs: set) -> list[str]:
        """``versions`` and ``pairs`` hold the sort keys of the record's
        document's versions and adjacent pairs."""
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
            data.update(
                document=node.document,
                label=node.label.raw,
                synthetic=node.synthetic,
                has_text=node.has_text,
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
                has_text=_flag(data.get("has_text", True)),
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
        }

    def save(self, path) -> str:
        """Replace ``path`` with the graph's JSON; returns the sha256 of the bytes written."""
        data = json_bytes(self.to_dict())
        write_atomic(path, data)
        return hashlib.sha256(data).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "VersionGraph":
        """The graph ``to_dict`` wrote, filled in bulk and not validated, so that
        :meth:`validate` can report a parent field that names no node of the
        level above, and equivalent labels. A malformed payload raises
        ``CorruptFileError``.

        Each distinct version label is parsed once. An id given twice keeps
        its first place in ``nodes`` and its last node.
        """
        graph = cls()
        label = functools.cache(parse_version)
        decode = cls._node_from_dict
        try:
            version = data["format_version"]
            if version != FORMAT_VERSION:
                raise VersionMismatchError(
                    f"unsupported graph format_version {version!r} (expected {FORMAT_VERSION})"
                )
            graph.nodes = {node.id: node for node in (decode(d, label) for d in data["nodes"])}
            for node in graph.nodes.values():
                graph._index(node)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CorruptFileError(f"malformed graph payload: {exc}") from exc
        return graph

    @classmethod
    def load(cls, path) -> "VersionGraph":
        return cls.from_dict(read_json(path, "graph file", CorruptFileError))

    @classmethod
    def load_change_records(cls, path) -> list[ChangeRecord]:
        """The change records of the graph file at ``path``, which may also
        be of an older format in ``RECORD_FORMATS``; no other node is
        decoded. Raises as :meth:`load` does."""
        data = read_json(path, "graph file", CorruptFileError)
        label = functools.cache(parse_version)
        try:
            version = data["format_version"]
            if version not in RECORD_FORMATS:
                raise VersionMismatchError(
                    f"unsupported graph format_version {version!r} (expected one of {RECORD_FORMATS})"
                )
            return [
                cls._node_from_dict(item, label)
                for item in data["nodes"]
                if item["node_kind"] == NodeKind.CHANGE.value
            ]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CorruptFileError(f"malformed graph payload: {exc}") from exc
