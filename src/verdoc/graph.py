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

``graph.json`` (format 6) lists the categories, documents and versions in
``nodes``, sorted by id, and stores the change records apart, in
``changes``: one column per record field, each row a record, sorted by id.
The ids, descriptions and evidence lists are plain lists; the document,
from-version, to-version, kind and origin columns are dictionary-encoded as
``values`` plus one ``codes`` entry per row, the position of the row's
value, and from-version code -1 marks a record without one. Change records
are most of the file, and a content question reads none of them, so a
loaded graph checks their columns but builds no :class:`ChangeRecord` until
one is asked for: by ``changes_for_pair`` (and so ``changes_between``), a
``node`` lookup of a change id, a read of ``nodes``, ``change_records``,
``validate``, ``to_dict`` (and so ``save``) or ``add_change``. Then one step
builds them all and files them in ``nodes``, in id order, and in the derived
indexes. A lookup that finds a category, document or version never takes
that step.

Structural invariants (checked by :meth:`VersionGraph.validate`):

* each parent field names a node of the level above: a document's a
  category, and the document of a version or change record a document,
* no two versions of a document have labels the comparator equates,
* change records name versions of their document; an explicit one names
  no from-version, since the chain places it, and an implicit one names an
  adjacent pair.

Mutations take an internal lock (single writer); reads are lock-free and
may run from any thread.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import operator
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

FORMAT_VERSION = 6
# the formats whose change records load_change_records reads: format 5
# changed only the version nodes, and format 6 moved the records into columns
RECORD_FORMATS = (4, 5, FORMAT_VERSION)

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


# the kinds that "nodes" lists; the change records have columns of their own
_NODE_KINDS = {
    value: kind for value, kind in _by_value(NodeKind).items() if kind is not NodeKind.CHANGE
}
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


_node_id = operator.attrgetter("id")


def _version_order(node: VersionNode) -> tuple:
    return node.label.sort_key(), node.id


def _find(versions: list, label: VersionLabel) -> Optional[VersionNode]:
    """The first of ``versions`` whose label the comparator equates with ``label``."""
    key = label.sort_key()
    for node in versions:
        if node.label.sort_key() == key:
            return node
    return None


# the fields of a change record in ChangeRecord's order, each a column of
# "changes", and those of them stored as values plus codes
_CHANGE_FIELDS = (
    "id",
    "document",
    "from_version",
    "to_version",
    "kind",
    "description",
    "origin",
    "evidence",
)
_CODED = ("document", "from_version", "to_version", "kind", "origin")


def _record_row(record: ChangeRecord) -> tuple:
    """``record``'s fields as JSON values, in ``_CHANGE_FIELDS`` order."""
    return (
        record.id,
        record.document,
        None if record.from_version is None else record.from_version.raw,
        record.to_version.raw,
        record.kind.value,
        record.description,
        record.origin.value,
        list(record.evidence),
    )


def _change_columns(rows: list) -> dict:
    """The ``changes`` object of ``rows``, each a record's fields as
    ``_record_row`` gives them, in id order. A coded column lists each value
    once, as first seen, and a row without a from-version has code -1."""
    columns = {name: [row[i] for row in rows] for i, name in enumerate(_CHANGE_FIELDS)}
    for name in _CODED:
        code_of: dict = {}  # (type, value) -> code, so that 1 and True stay apart
        codes = [
            -1
            if value is None and name == "from_version"
            else code_of.setdefault((type(value), value), len(code_of))
            for value in columns[name]
        ]
        columns[name] = {"codes": codes, "values": [value for _, value in code_of]}
    return columns


def _hashable(value):
    """``value``; TypeError unless it is hashable, as a record's document,
    which the graph files the record under, must be."""
    hash(value)
    return value


def _coded(name: str, column, rows: int, decode, optional: bool = False) -> tuple:
    """(values, codes) of the coded change column ``name`` over ``rows``
    records, each value passed through ``decode``. Raises ``ValueError``
    unless the column holds a list of values and one integer code per row,
    each a value's position, or -1 when ``optional``; -1 then reads the None
    appended to the values."""
    if not (isinstance(column, dict) and set(column) == {"values", "codes"}):
        raise ValueError(f"change column {name!r} is not an object of values and codes")
    values, codes = column["values"], column["codes"]
    if not (isinstance(values, list) and isinstance(codes, list) and len(codes) == rows):
        raise ValueError(f"change column {name!r}: values and {rows} codes are not two lists")
    if not set(map(type, codes)) <= {int}:
        raise ValueError(f"change column {name!r}: a code is not an integer")
    if rows and not (min(codes) >= (-1 if optional else 0) and max(codes) < len(values)):
        raise ValueError(f"change column {name!r}: a code is out of range")
    values = list(map(decode, values))
    if optional:
        values.append(None)
    return values, codes


def _decode_changes(data, label) -> tuple:
    """The columns of a ``changes`` object, checked and decoded, in
    ``_CHANGE_FIELDS`` order: plain columns as lists, coded ones as (values,
    codes) pairs, labels parsed by ``label``. Raises ``ValueError``,
    ``KeyError`` or ``TypeError`` when a column is malformed, the columns
    differ in length, or the ids are not strings sorted without repeats."""
    if not (isinstance(data, dict) and set(data) == set(_CHANGE_FIELDS)):
        raise ValueError("changes are not an object of one column per record field")
    ids, descriptions, evidence = data["id"], data["description"], data["evidence"]
    if not (
        isinstance(ids, list)
        and isinstance(descriptions, list)
        and isinstance(evidence, list)
        and len(ids) == len(descriptions) == len(evidence)
    ):
        raise ValueError("change columns id, description and evidence are not lists of one length")
    if not (set(map(type, ids)) <= {str} and all(map(operator.lt, ids, ids[1:]))):
        raise ValueError("change ids are not strings sorted without repeats")
    if not set(map(type, evidence)) <= {list}:
        raise ValueError("a change record's evidence is not a list")
    rows = len(ids)
    return (
        ids,
        _coded("document", data["document"], rows, _hashable),
        _coded("from_version", data["from_version"], rows, label, optional=True),
        _coded("to_version", data["to_version"], rows, label),
        _coded("kind", data["kind"], rows, _CHANGE_KINDS.__getitem__),
        descriptions,
        _coded("origin", data["origin"], rows, _ORIGINS.__getitem__),
        evidence,
    )


def _records(columns: tuple) -> list[ChangeRecord]:
    """The change records of columns ``_decode_changes`` gave, in id order."""
    ids, document, from_version, to_version, kind, descriptions, origin, evidence = columns

    def rows(coded):
        values, codes = coded
        return map(values.__getitem__, codes)

    return list(
        map(
            ChangeRecord,
            ids,
            rows(document),
            rows(from_version),
            rows(to_version),
            rows(kind),
            descriptions,
            rows(origin),
            evidence,
        )
    )


class VersionGraph:
    """In-memory store for the version graph with traversal primitives."""

    def __init__(self):
        self._nodes: dict[str, Node] = {}
        self._by_kind: dict[type, dict[str, Node]] = {cls: {} for cls in _KIND_OF}
        # document id -> its versions in versions_of order
        self._versions: dict[str, list[VersionNode]] = {}
        # document id -> to-version sort key -> change records
        self._changes: dict[str, dict[tuple, list[ChangeRecord]]] = {}
        # the decoded change columns of a loaded graph, until _build_changes
        self._unbuilt: Optional[tuple] = None
        self._lock = threading.RLock()

    @property
    def nodes(self) -> dict[str, Node]:
        """Every node by id, change records included."""
        self._build_changes()
        return self._nodes

    def node(self, node_id: str) -> Optional[Node]:
        """The node with id ``node_id``, None when there is none. The change
        records of a loaded graph are built only for an id that names no
        category, document or version."""
        node = self._nodes.get(node_id)
        if node is None and self._unbuilt is not None:
            self._build_changes()
            node = self._nodes.get(node_id)
        return node

    # --- low-level helpers -------------------------------------------------

    def _add_node(self, node: Node) -> str:
        self._nodes[node.id] = node
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

    def _build_changes(self) -> None:
        """Build every change record whose columns ``from_dict`` kept, and
        file each in ``nodes`` and the derived indexes. The records join
        ``nodes`` sorted by id, so the nodes of a file in id order stay so."""
        if self._unbuilt is None:
            return
        with self._lock:
            if self._unbuilt is None:
                return
            records = _records(self._unbuilt)
            # two runs sorted by id, which sorted merges in one pass
            nodes = sorted([*self._nodes.values(), *records], key=_node_id)
            self._nodes = {node.id: node for node in nodes}
            for record in records:
                self._index(record)
            self._unbuilt = None

    def _unique_id(self, base: str) -> str:
        # no id of a change record starts as a category, document or version id does
        if base not in self._nodes:
            return base
        n = 2
        while f"{base}-{n}" in self._nodes:
            n += 1
        return f"{base}-{n}"

    def _require(self, node_id: str, kind: NodeKind) -> Node:
        node = self.node(node_id)
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
            self._build_changes()
            chain = self.versions_of(record.document)
            if _find(chain, record.to_version) is None:
                raise UnknownVersionError(
                    f"version {record.to_version.raw!r} not in document {record.document!r}",
                    available=[v.label.raw for v in chain],
                )
            if record.id in self._nodes:
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
        self._build_changes()
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
        self._build_changes()
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

        nodes = self.nodes
        for node in nodes.values():
            if isinstance(node, CategoryNode):
                continue
            name, level = _PARENT[type(node)]
            # a loaded field may hold any JSON value, and one that is not a string names no node
            ref = getattr(node, name)
            parent = nodes.get(ref) if isinstance(ref, str) else None
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
        if record.origin is ChangeOrigin.EXPLICIT:
            if record.evidence:
                problems.append(f"change {record.id}: explicit record carries evidence")
            # the chain places an explicit record; a stored from-version goes stale
            if record.from_version is not None:
                problems.append(f"change {record.id}: explicit record stores a from_version")
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
        # classification keeps the plain "kind" field name in its column
        data = {"id": node.id, "node_kind": node_kind(node).value}
        if isinstance(node, CategoryNode):
            data["name"] = node.name
        elif isinstance(node, DocumentNode):
            data.update(title=node.title, category=node.category)
        else:
            data.update(
                document=node.document,
                label=node.label.raw,
                synthetic=node.synthetic,
                has_text=node.has_text,
            )
        return data

    @staticmethod
    def _node_from_dict(data: dict, label) -> Node:
        """The node ``_node_to_dict`` wrote; ``label`` parses a raw version label.

        Fields go in by position, which a dataclass takes at under half the
        cost of keywords; most nodes are versions, so they are tested first.
        """
        kind = _NODE_KINDS[data["node_kind"]]
        if kind is NodeKind.VERSION:
            return VersionNode(
                data["id"],
                data["document"],
                label(data["label"]),
                bool(data.get("synthetic", False)),
                _flag(data.get("has_text", True)),
            )
        if kind is NodeKind.DOCUMENT:
            return DocumentNode(data["id"], data["title"], data["category"])
        return CategoryNode(data["id"], data["name"])

    def to_dict(self) -> dict:
        nodes = sorted(self.nodes.values(), key=_node_id)
        return {
            "format_version": FORMAT_VERSION,
            "nodes": [self._node_to_dict(n) for n in nodes if not isinstance(n, ChangeRecord)],
            "changes": _change_columns(
                [_record_row(n) for n in nodes if isinstance(n, ChangeRecord)]
            ),
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
        ``CorruptFileError``, a change column included; the change records
        themselves are built when first needed (see the module docstring).

        Each distinct version label is parsed once. An id given twice in
        ``nodes`` keeps its first place and its last node; a change record
        may not reuse the id of another node.
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
            graph._nodes = {node.id: node for node in (decode(d, label) for d in data["nodes"])}
            changes = _decode_changes(data["changes"], label)
            # the change records join nodes sorted by id, which compares ids of one type
            if not set(map(type, graph._nodes)) <= {str}:
                raise ValueError("a node id is not a string")
            if not graph._nodes.keys().isdisjoint(changes[0]):
                raise ValueError("a change record has the id of another node")
            # _index, in bulk: each chain sorted once, as insertion in nodes order would
            for node in graph._nodes.values():
                graph._by_kind[type(node)][node.id] = node
                if isinstance(node, VersionNode):
                    graph._versions.setdefault(node.document, []).append(node)
            for chain in graph._versions.values():
                chain.sort(key=_version_order)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CorruptFileError(f"malformed graph payload: {exc}") from exc
        if changes[0]:
            graph._unbuilt = changes
        return graph

    @classmethod
    def load(cls, path) -> "VersionGraph":
        return cls.from_dict(read_json(path, "graph file", CorruptFileError))

    @classmethod
    def load_change_records(cls, path) -> list[ChangeRecord]:
        """The change records of the graph file at ``path``, in id order;
        no other node is decoded. The file may also be of an older format in
        ``RECORD_FORMATS``, whose record nodes are turned into the columns
        format 6 stores and decoded as those are. Raises as :meth:`load` does."""
        data = read_json(path, "graph file", CorruptFileError)
        try:
            version = data["format_version"]
            if version not in RECORD_FORMATS:
                raise VersionMismatchError(
                    f"unsupported graph format_version {version!r} (expected one of {RECORD_FORMATS})"
                )
            if version == FORMAT_VERSION:
                changes = data["changes"]
            else:
                rows = [
                    (
                        item["id"],
                        item["document"],
                        item.get("from_version"),
                        item["to_version"],
                        item["kind"],
                        item["description"],
                        item["origin"],
                        item.get("evidence", []),
                    )
                    for item in data["nodes"]
                    if item["node_kind"] == NodeKind.CHANGE.value
                ]
                changes = _change_columns(sorted(rows, key=operator.itemgetter(0)))
            return _records(_decode_changes(changes, functools.cache(parse_version)))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CorruptFileError(f"malformed graph payload: {exc}") from exc
