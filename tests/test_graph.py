import bisect
import json
import random

import pytest
from conftest import graph_nodes

from verdoc import graph as graph_module
from verdoc.errors import (
    CorruptFileError,
    DuplicateVersionError,
    GraphValidationError,
    InvertedRangeError,
    UnknownNodeError,
    UnknownVersionError,
    VersionMismatchError,
)
from verdoc.graph import (
    CategoryNode,
    ChangeKind,
    ChangeOrigin,
    ChangeRecord,
    DocumentNode,
    VersionGraph,
    VersionNode,
)
from verdoc.versions import compare_versions, parse_version

SPARK_VERSIONS = ["2.4.7", "3.3.4", "3.4.4", "3.5.3", "3.5.4", "3.5.5"]
BOOTSTRAP_VERSIONS = ["5.2.3", "5.3.1", "5.3.2", "5.3.3", "5.3.4", "5.3.5"]


def graph_with_document(title="Apache Spark"):
    graph = VersionGraph()
    category = graph.add_category("Data Processing")
    document = graph.add_document(title, category)
    return graph, document


def chain_labels(graph, document):
    return [label.raw for label in graph.list_versions(document)]


class TestAddVersion:
    def test_insert_into_middle_of_chain(self):
        graph, doc = graph_with_document()
        graph.add_version(doc, "2.4.7")
        graph.add_version(doc, "3.5.3")
        graph.add_version(doc, "3.3.4")
        assert chain_labels(graph, doc) == ["2.4.7", "3.3.4", "3.5.3"]

    def test_duplicate_version_rejected(self):
        graph, doc = graph_with_document()
        graph.add_version(doc, "2.4.7")
        with pytest.raises(DuplicateVersionError):
            graph.add_version(doc, "2.4.7")

    def test_equivalent_label_counts_as_duplicate(self):
        graph, doc = graph_with_document()
        graph.add_version(doc, "1.2")
        with pytest.raises(DuplicateVersionError):
            graph.add_version(doc, "1.2.0")

    def test_unknown_document_rejected(self):
        graph, _ = graph_with_document()
        with pytest.raises(UnknownNodeError):
            graph.add_version("document:nope", "1.0.0")


class TestListVersions:
    def test_spark_shaped_chain(self):
        graph, doc = graph_with_document()
        shuffled = list(SPARK_VERSIONS)
        random.Random(7).shuffle(shuffled)
        for raw in shuffled:
            graph.add_version(doc, raw)
        assert chain_labels(graph, doc) == SPARK_VERSIONS

    def test_bootstrap_shaped_chain_has_six_labels(self):
        graph, doc = graph_with_document("Bootstrap")
        for raw in BOOTSTRAP_VERSIONS:
            graph.add_version(doc, raw)
        assert len(graph.list_versions(doc)) == 6

    def test_single_version(self):
        graph, doc = graph_with_document()
        graph.add_version(doc, "9.9")
        assert chain_labels(graph, doc) == ["9.9"]

    def test_unknown_document(self):
        graph, _ = graph_with_document()
        with pytest.raises(UnknownNodeError):
            graph.list_versions("document:missing")

    def test_sorted_under_comparator_after_random_insertions(self):
        rng = random.Random(42)
        for _ in range(25):
            graph, doc = graph_with_document()
            labels = set()
            while len(labels) < rng.randint(1, 12):
                labels.add(
                    ".".join(str(rng.randint(0, 20)) for _ in range(rng.randint(1, 4)))
                )
            inserted = []
            for raw in labels:
                try:
                    graph.add_version(doc, raw)
                    inserted.append(raw)
                except DuplicateVersionError:
                    pass  # equivalent label (e.g. 1.2 vs 1.2.0) already present
            out = graph.list_versions(doc)
            assert len(out) == len(inserted)
            for prev, nxt in zip(out, out[1:]):
                assert compare_versions(prev, nxt) == -1


def make_record(doc, frm, to, ordinal=0, origin=ChangeOrigin.EXPLICIT, evidence=()):
    return ChangeRecord(
        id=f"change:{doc}@{frm}->{to}#r{ordinal:04d}",
        document=doc,
        from_version=None if frm is None else parse_version(frm),
        to_version=parse_version(to),
        kind=ChangeKind.ADDED,
        description=f"change {ordinal} between {frm} and {to}",
        origin=origin,
        evidence=list(evidence),
    )


def oracle_versions(graph, doc):
    """Oracle for ``versions_of``: a scan of every node's parent field,
    sorted under the comparator, ties broken by id."""
    versions = [n for n in graph.nodes.values() if isinstance(n, VersionNode) and n.document == doc]
    return sorted(versions, key=lambda v: (v.label.sort_key(), v.id))


def oracle_changes(graph, doc, frm, to):
    """Oracle for ``changes_between``: per adjacent pair from ``frm`` to
    ``to``, a scan of every change record's fields for those that name the
    pair's to-version and its from-version or none, id-ordered, then
    concatenated."""
    chain = oracle_versions(graph, doc)
    out = []
    for prev, nxt in zip(chain, chain[1:]):
        if compare_versions(prev.label, frm) < 0 or compare_versions(nxt.label, to) > 0:
            continue
        attached = [
            r
            for r in graph.nodes.values()
            if isinstance(r, ChangeRecord)
            and r.document == doc
            and compare_versions(r.to_version, nxt.label) == 0
            and (r.from_version is None or compare_versions(r.from_version, prev.label) == 0)
        ]
        out.extend(sorted(attached, key=lambda r: r.id))
    return out


class TestChangesBetween:
    def build(self):
        graph, doc = graph_with_document()
        for raw in ["1.0", "1.1", "1.2", "1.3"]:
            graph.add_version(doc, raw)
        return graph, doc

    def test_adjacent_pair_with_two_records(self):
        graph, doc = self.build()
        r1 = make_record(doc, "1.0", "1.1", 0)
        r2 = make_record(doc, "1.0", "1.1", 1)
        graph.add_change(r1)
        graph.add_change(r2)
        expected = oracle_changes(graph, doc, parse_version("1.0"), parse_version("1.1"))
        got = graph.changes_between(doc, "1.0", "1.1")
        assert got == expected
        assert {r.id for r in got} == {r1.id, r2.id}

    def test_pair_without_records_is_empty(self):
        graph, doc = self.build()
        assert graph.changes_between(doc, "1.1", "1.2") == []

    def test_range_spanning_three_pairs_concatenates_in_chain_order(self):
        graph, doc = self.build()
        for frm, to in [("1.0", "1.1"), ("1.1", "1.2"), ("1.2", "1.3")]:
            graph.add_change(make_record(doc, frm, to))
        expected = oracle_changes(graph, doc, parse_version("1.0"), parse_version("1.3"))
        got = graph.changes_between(doc, "1.0", "1.3")
        assert got == expected
        assert [(r.from_version.raw, r.to_version.raw) for r in got] == [
            ("1.0", "1.1"),
            ("1.1", "1.2"),
            ("1.2", "1.3"),
        ]

    def test_inverted_range_rejected(self):
        graph, doc = self.build()
        with pytest.raises(InvertedRangeError):
            graph.changes_between(doc, "1.2", "1.0")
        with pytest.raises(InvertedRangeError):
            graph.changes_between(doc, "1.2", "1.2")

    def test_unknown_version_rejected_with_available_list(self):
        graph, doc = self.build()
        with pytest.raises(UnknownVersionError) as excinfo:
            graph.changes_between(doc, "1.0", "9.9")
        assert "1.0" in excinfo.value.available

    def test_record_without_from_version_attaches_to_preceding_pair(self):
        graph, doc = self.build()
        graph.add_change(make_record(doc, None, "1.2", 5))
        got = graph.changes_between(doc, "1.1", "1.2")
        assert len(got) == 1 and got[0].to_version.raw == "1.2"


def hand_edited(graph, tmp_path, edit):
    """``graph`` saved, its file's payload changed by ``edit``, and the file
    loaded back."""
    path = tmp_path / "graph.json"
    graph.save(path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return VersionGraph.load(path)


def payload_of(data, node_id):
    return next(node for node in data["nodes"] if node["id"] == node_id)


def edit_change(data, record_id, **fields):
    """Set ``fields`` of one change record in a payload's columns; a coded
    column gets the new value appended and the record's code pointed at it."""
    changes = data["changes"]
    row = changes["id"].index(record_id)
    for name, value in fields.items():
        column = changes[name]
        if isinstance(column, dict):
            column["values"].append(value)
            column["codes"][row] = len(column["values"]) - 1
        else:
            column[row] = value


def copy_change(data, record_id, new_id, **fields):
    """Add a copy of one change record under ``new_id``, in id order, then
    set ``fields`` of the copy as :func:`edit_change` does."""
    changes = data["changes"]
    row = changes["id"].index(record_id)
    at = bisect.bisect(changes["id"], new_id)
    for name, column in changes.items():
        cells = column["codes"] if isinstance(column, dict) else column
        cells.insert(at, new_id if name == "id" else cells[row])
    edit_change(data, new_id, **fields)


class TestValidate:
    def test_valid_graph_has_no_violations(self):
        graph, doc = graph_with_document()
        for raw in SPARK_VERSIONS:
            graph.add_version(doc, raw)
        graph.add_change(
            make_record(doc, "2.4.7", "3.3.4", origin=ChangeOrigin.IMPLICIT, evidence=["h1"])
        )
        assert graph.validate() == []
        graph.validate_strict()

    def test_orphan_document_detected(self, tmp_path):
        graph, doc = graph_with_document()
        loaded = hand_edited(
            graph, tmp_path, lambda data: payload_of(data, doc).update(category="category:gone")
        )
        assert loaded.validate() == [f"document {doc}: category missing from graph"]

    def test_loaded_equivalent_labels_detected(self):
        graph, doc = graph_with_document()
        for raw in ["1.0", "1.2", "2.0"]:
            graph.add_version(doc, raw)
        data = graph.to_dict()
        # add_version refuses "1.2.0" beside "1.2"; a hand-edited file holds both
        twin = next(n for n in data["nodes"] if n.get("label") == "1.2")
        data["nodes"].append({**twin, "id": "version:twin", "label": "1.2.0"})
        loaded = VersionGraph.from_dict(data)
        assert chain_labels(loaded, doc) == ["1.0", "1.2", "1.2.0", "2.0"]
        assert loaded.validate() == [
            f"document {doc}: versions '1.2' and '1.2.0' have equivalent labels"
        ]

    def test_implicit_record_without_evidence_detected(self):
        graph, doc = graph_with_document()
        graph.add_version(doc, "1.0")
        graph.add_version(doc, "1.1")
        record = make_record(doc, "1.0", "1.1", origin=ChangeOrigin.IMPLICIT, evidence=[])
        graph.add_change(record)
        problems = graph.validate()
        assert any("without evidence" in p for p in problems)
        with pytest.raises(GraphValidationError):
            graph.validate_strict()

    def test_non_adjacent_implicit_pair_detected(self):
        graph, doc = graph_with_document()
        for raw in ["1.0", "1.1", "1.2"]:
            graph.add_version(doc, raw)
        record = make_record(doc, "1.0", "1.2", origin=ChangeOrigin.IMPLICIT, evidence=["h"])
        graph.add_change(record)
        assert any("not chain-adjacent" in p for p in graph.validate())

    def test_level_hierarchy_violation_detected(self, tmp_path):
        """A document whose category field names a document, itself."""
        graph, doc = graph_with_document()
        graph.add_version(doc, "1.0")
        loaded = hand_edited(graph, tmp_path, lambda data: payload_of(data, doc).update(category=doc))
        assert chain_labels(loaded, doc) == ["1.0"]
        assert loaded.validate() == [f"document {doc}: category names a document node"]

    def test_loaded_edge_order_does_not_set_version_order(self, tmp_path):
        graph, doc = graph_with_document()
        for raw in ["10.0", "9.0", "9.1"]:
            graph.add_version(doc, raw)
        graph.add_change(make_record(doc, None, "10.0"))
        # saved nodes sort by id, which puts 10.0 first; reversed, 9.1 comes first
        loaded = hand_edited(graph, tmp_path, lambda data: data["nodes"].reverse())
        assert chain_labels(loaded, doc) == ["9.0", "9.1", "10.0"]
        assert [r.id for r in loaded.changes_between(doc, "9.0", "10.0")] == [
            r.id for r in graph.change_records()
        ]
        assert loaded.validate() == []

    def test_loaded_chain_into_missing_node_validates(self, tmp_path):
        """A change record whose to-version label is not a version of its document."""
        graph, doc = graph_with_document()
        for raw in ["1.0", "2.0"]:
            graph.add_version(doc, raw)
        record = make_record(doc, "1.0", "2.0", origin=ChangeOrigin.IMPLICIT, evidence=["h"])
        graph.add_change(record)
        v2 = graph.find_version(doc, "2.0").id
        loaded = hand_edited(
            graph,
            tmp_path,
            lambda data: copy_change(data, record.id, "change:ghost", to_version="3.0"),
        )
        assert chain_labels(loaded, doc) == ["1.0", "2.0"]
        assert loaded.find_version(doc, "2.0").id == v2
        assert len(loaded.changes_between(doc, "1.0", "2.0")) == 1
        assert loaded.validate() == ["change change:ghost: to_version missing from graph"]

    def test_change_record_of_missing_document_is_reported(self, tmp_path):
        graph, doc = graph_with_document()
        for raw in ["1.0", "2.0"]:
            graph.add_version(doc, raw)
        record = make_record(doc, "1.0", "2.0")
        graph.add_change(record)
        loaded = hand_edited(
            graph, tmp_path, lambda data: edit_change(data, record.id, document="document:gone")
        )
        problems = loaded.validate()
        assert f"change {record.id}: document missing from graph" in problems

    def test_loaded_version_edge_into_missing_node_validates(self, tmp_path):
        """A version whose document field names a missing node."""
        graph, doc = graph_with_document()
        for raw in ["1.0", "2.0"]:
            graph.add_version(doc, raw)
        graph.add_change(
            make_record(doc, "1.0", "2.0", origin=ChangeOrigin.IMPLICIT, evidence=["h"])
        )
        ghost = {
            "id": "version:ghost",
            "node_kind": "version",
            "document": "document:ghost",
            "label": "3.0",
            "synthetic": False,
        }
        loaded = hand_edited(graph, tmp_path, lambda data: data["nodes"].append(ghost))
        assert chain_labels(loaded, doc) == ["1.0", "2.0"]
        assert len(loaded.changes_between(doc, "1.0", "2.0")) == 1
        assert loaded.validate() == ["version version:ghost: document missing from graph"]

    def test_loaded_version_edge_into_another_level_validates(self):
        """A version whose document field names a category."""
        graph, doc = graph_with_document()
        graph.add_version(doc, "1.0")
        data = graph.to_dict()
        category = graph.documents()[0].category
        data["nodes"].append(
            {
                "id": "version:stray",
                "node_kind": "version",
                "document": category,
                "label": "2.0",
                "synthetic": False,
            }
        )
        loaded = VersionGraph.from_dict(data)
        assert chain_labels(loaded, doc) == ["1.0"]
        assert loaded.validate() == ["version version:stray: document names a category node"]

    def test_loaded_parent_field_that_is_not_a_string_is_missing(self):
        graph, doc = graph_with_document()
        version = graph.add_version(doc, "1.0")
        graph.add_version(doc, "2.0")
        record = make_record(doc, "1.0", "2.0")
        graph.add_change(record)
        data = graph.to_dict()
        payload_of(data, doc)["category"] = ["category:data-processing"]
        # the loader files versions and records under their document, so those stay hashable
        payload_of(data, version)["document"] = 7
        edit_change(data, record.id, document=None)
        assert VersionGraph.from_dict(data).validate() == [
            f"change {record.id}: document missing from graph",
            f"document {doc}: category missing from graph",
            f"version {version}: document missing from graph",
        ]

    def test_unknown_from_version_leaves_graph_unchanged(self):
        graph, doc = graph_with_document()
        for raw in ["1.0", "2.0"]:
            graph.add_version(doc, raw)
        before = graph.to_dict()
        record = make_record(doc, "9.0", "2.0")
        with pytest.raises(UnknownVersionError):
            graph.add_change(record)
        assert record.id not in graph.nodes
        assert graph.validate() == []
        assert graph.to_dict() == before


def scanned(graph, cls):
    """Oracle for the per-kind listings: every node of ``cls``, in ``nodes`` order."""
    return [node for node in graph.nodes.values() if isinstance(node, cls)]


class TestKindListings:
    LISTINGS = {
        "categories": CategoryNode,
        "documents": DocumentNode,
        "change_records": ChangeRecord,
    }

    def assert_listings_match_scan(self, graph):
        for name, cls in self.LISTINGS.items():
            assert getattr(graph, name)() == scanned(graph, cls), name

    @pytest.mark.parametrize("seed", range(3))
    def test_listings_keep_insertion_order(self, tmp_path, seed):
        rng = random.Random(seed)
        graph = VersionGraph()
        categories = [graph.add_category(name) for name in rng.sample(["b", "a", "c", "d"], 3)]
        for n in range(6):
            doc = graph.add_document(f"Doc {rng.randrange(100)}", rng.choice(categories))
            labels = rng.sample(["1.0", "2.0", "3.0", "4.0"], rng.randint(1, 4))
            for label in labels:
                graph.add_version(doc, label)
            ordered = sorted(labels, key=parse_version)
            for ordinal, (frm, to) in enumerate(zip(ordered, ordered[1:])):
                graph.add_change(make_record(doc, frm, to, ordinal))
        self.assert_listings_match_scan(graph)
        path = tmp_path / "graph.json"
        graph.save(path)
        self.assert_listings_match_scan(VersionGraph.load(path))

    def test_loaded_id_of_two_kinds_keeps_its_place(self):
        graph, doc = graph_with_document()
        graph.add_category("Later")
        data = graph.to_dict()
        category = data["nodes"][0]
        assert category["node_kind"] == "category"
        # a later node reuses the first category's id as a document
        data["nodes"].append(
            {"id": category["id"], "node_kind": "document", "title": "Twin", "category": "x"}
        )
        loaded = VersionGraph.from_dict(data)
        self.assert_listings_match_scan(loaded)
        assert [d.title for d in loaded.documents()] == ["Twin", "Apache Spark"]


def build_corpus_scale_graph():
    """34 versions over 4 documents, mirroring a realistic corpus shape."""
    graph = VersionGraph()
    data = {
        "Data Processing": {"Apache Spark": SPARK_VERSIONS},
        "Web Framework": {"Bootstrap": BOOTSTRAP_VERSIONS},
        "Node.js Runtime": {
            "Node.js Assert": [f"{major}.0.0" for major in range(11, 24)],  # 13 versions
            "Node.js Errors": [f"{major}.1.0" for major in range(15, 24)],  # 9 versions
        },
    }
    for category_name, documents in data.items():
        category = graph.add_category(category_name)
        for title, versions in documents.items():
            doc = graph.add_document(title, category)
            for raw in versions:
                graph.add_version(doc, raw)
    chains = graph.documents()
    graph.versions_of(chains[0].id)[0].has_text = False
    graph.add_change(
        make_record(chains[0].id, "2.4.7", "3.3.4", origin=ChangeOrigin.IMPLICIT, evidence=["h0"])
    )
    return graph


class TestPersistence:
    def test_round_trip_empty_graph(self, tmp_path):
        graph = VersionGraph()
        path = tmp_path / "graph.json"
        graph.save(path)
        assert VersionGraph.load(path).to_dict() == graph.to_dict()

    def test_round_trip_corpus_scale_graph(self, tmp_path):
        graph = build_corpus_scale_graph()
        assert sum(len(graph.list_versions(d.id)) for d in graph.documents()) == 34
        path = tmp_path / "graph.json"
        graph.save(path)
        loaded = VersionGraph.load(path)
        # oracle: the node count and the whole serialized payload
        assert len(loaded.nodes) == len(graph.nodes)
        assert loaded.to_dict() == graph.to_dict()
        assert loaded.validate() == []

    @pytest.mark.parametrize("seed", range(5))
    def test_adjacency_holds_each_edge_once(self, tmp_path, seed):
        """The graph's edges are its nodes' parent fields. The adjacency
        derived from them lists each version once, under its document, and
        each change record once along its document's chain; ``versions_of``
        and ``changes_between`` agree with a scan of the fields, in memory
        and after save and load."""
        rng = random.Random(seed)
        graph = VersionGraph()
        category = graph.add_category("Data Processing")
        documents, stale = [], []
        for title, versions in (("Spark", SPARK_VERSIONS), ("Bootstrap", BOOTSTRAP_VERSIONS)):
            doc = graph.add_document(title, category)
            documents.append(doc)
            versions = rng.sample(versions, len(versions))
            for raw in versions:
                graph.add_version(doc, raw)
            ordered = sorted(versions, key=parse_version)
            records = [make_record(doc, None, ordered[0]), make_record(doc, None, ordered[3], 9)]
            records += [
                make_record(doc, frm, to, ordinal, ChangeOrigin.IMPLICIT, [f"h{ordinal}"])
                for ordinal, (frm, to) in enumerate(zip(ordered, ordered[1:]))
                if ordinal != 1
            ]
            # an explicit record with a from-version, as an older index stored it
            records.append(make_record(doc, ordered[1], ordered[2], 1))
            stale.append(f"change {records[-1].id}: explicit record stores a from_version")
            for record in rng.sample(records, len(records)):
                graph.add_change(record)
            # late synthetic versions join a chain that already has records:
            # one ahead of the record with no from-version into the first
            # version, one between the from- and to-version of a record
            graph.add_version(doc, "0.0.1", synthetic=True)
            graph.add_version(doc, ordered[1] + ".1", synthetic=True)
        assert graph.validate() == stale
        path = tmp_path / "graph.json"
        graph.save(path)
        loaded = VersionGraph.load(path)
        assert loaded.to_dict() == graph.to_dict()
        for g in (graph, loaded):
            listed = [v.id for doc in documents for v in g.versions_of(doc)]
            assert sorted(listed) == sorted(n.id for n in scanned(g, VersionNode))
            for doc in documents:
                chain = g.versions_of(doc)
                assert chain == oracle_versions(g, doc)
                for i, frm in enumerate(chain):
                    for to in chain[i + 1 :]:
                        expected = oracle_changes(g, doc, frm.label, to.label)
                        assert g.changes_between(doc, frm.label, to.label) == expected
                along = [r.id for r in g.changes_between(doc, chain[0].label, chain[-1].label)]
                # each record once, but the one whose versions a synthetic version now parts
                own = [r for r in g.change_records() if r.document == doc]
                assert len(set(along)) == len(along) == len(own) - 1

    def test_round_trip_preserves_node_ids(self, tmp_path):
        graph = build_corpus_scale_graph()
        path = tmp_path / "graph.json"
        graph.save(path)
        assert set(VersionGraph.load(path).nodes) == set(graph.nodes)

    def test_truncated_file_is_corrupt(self, tmp_path):
        graph = build_corpus_scale_graph()
        path = tmp_path / "graph.json"
        graph.save(path)
        payload = path.read_text()
        path.write_text(payload[: len(payload) // 2])
        with pytest.raises(CorruptFileError):
            VersionGraph.load(path)

    def test_format_version_mismatch(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"format_version": 99, "nodes": []}))
        with pytest.raises(VersionMismatchError):
            VersionGraph.load(path)

    def test_missing_file_is_corrupt(self, tmp_path):
        with pytest.raises(CorruptFileError):
            VersionGraph.load(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "node_kind,field,value",
        [
            ("version", "node_kind", "release"),
            ("version", "node_kind", ["version"]),
            ("change", "kind", "renamed"),
            ("change", "origin", "guessed"),
            ("change", "kind", ["added"]),
            ("change", "from_version", 3.0),
            ("change", "to_version", ["3.3.4"]),
            ("version", "has_text", -1),
            ("version", "has_text", 1.5),
            ("version", "has_text", "true"),
            ("version", "has_text", None),
            ("version", "has_text", 1),
        ],
        ids=[
            "unknown-node-kind",
            "list-node-kind",
            "unknown-change-kind",
            "unknown-origin",
            "list-change-kind",
            "number-label",
            "list-label",
            "negative-has-text",
            "fractional-has-text",
            "text-has-text",
            "null-has-text",
            "integer-has-text",
        ],
    )
    def test_bad_node_field_is_corrupt_to_both_loaders(self, tmp_path, node_kind, field, value):
        """The file reader ``load`` and the payload decoder ``from_dict``."""
        path = tmp_path / "graph.json"
        build_corpus_scale_graph().save(path)
        data = json.loads(path.read_text())
        if node_kind == "change":
            edit_change(data, data["changes"]["id"][0], **{field: value})
        else:
            node = next(n for n in data["nodes"] if n["node_kind"] == node_kind)
            node[field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptFileError):
            VersionGraph.load(path)
        with pytest.raises(CorruptFileError):
            VersionGraph.from_dict(data)

    def test_load_parses_each_distinct_label_once(self, tmp_path, monkeypatch):
        graph = build_corpus_scale_graph()
        path = tmp_path / "graph.json"
        graph.save(path)
        parsed = []
        real_parse = graph_module.parse_version
        monkeypatch.setattr(
            graph_module, "parse_version", lambda raw: parsed.append(raw) or real_parse(raw)
        )
        assert VersionGraph.load(path).to_dict() == graph.to_dict()
        labels = {node.label.raw for node in graph.nodes.values() if isinstance(node, VersionNode)}
        assert sorted(parsed) == sorted(labels)

    def test_load_then_save_rewrites_criterion_9_graph_byte_for_byte(self, tmp_path, monkeypatch):
        from conftest import make_gateway, spark_changelog_corpus, write_corpus
        from test_acceptance import DIMENSION, purity_corpus

        from verdoc.indexer import index_corpus

        monkeypatch.chdir(tmp_path)
        write_corpus(tmp_path / "corpus", {**purity_corpus(), **spark_changelog_corpus()})
        index_corpus("corpus", "out", make_gateway(dimension=DIMENSION), dimension=DIMENSION)
        written = tmp_path / "out" / "graph.json"
        VersionGraph.load(written).save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == written.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        build_corpus_scale_graph().save(a)
        build_corpus_scale_graph().save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_wire_format_field_names(self, tmp_path):
        """The persistence file is an external interface; pin its shape."""
        graph = build_corpus_scale_graph()
        path = tmp_path / "graph.json"
        graph.save(path)
        data = json.loads(path.read_text())
        assert data["format_version"] == 6
        assert set(data) == {"format_version", "nodes", "changes"}
        fields = {}
        for node in data["nodes"]:
            assert fields.setdefault(node["node_kind"], set(node)) == set(node)
        assert fields == {
            "category": {"id", "node_kind", "name"},
            "document": {"id", "node_kind", "title", "category"},
            "version": {"id", "node_kind", "document", "label", "synthetic", "has_text"},
        }
        changes = data["changes"]
        plain = {name for name, column in changes.items() if isinstance(column, list)}
        assert plain == {"id", "description", "evidence"}
        coded = {name: set(column) for name, column in changes.items() if name not in plain}
        assert coded == dict.fromkeys(
            ["document", "from_version", "to_version", "kind", "origin"], {"values", "codes"}
        )

    def test_change_records_load_from_format_4(self, tmp_path):
        """Format 5 changed only the version nodes, so the records of a
        format-4 file, whose version nodes count chunks, still load; those
        of format 3, or of a format to come, do not."""
        graph = build_corpus_scale_graph()
        path = tmp_path / "graph.json"
        graph.save(path)
        data = json.loads(path.read_text())
        data = {"format_version": 4, "nodes": graph_nodes(data)}
        for node in data["nodes"]:
            if node["node_kind"] == "version":
                del node["has_text"]
                node["chunks"] = 2
        path.write_text(json.dumps(data))
        with pytest.raises(VersionMismatchError):
            VersionGraph.load(path)
        assert VersionGraph.load_change_records(path) == graph.change_records()
        for version in (3, 7):
            data["format_version"] = version
            path.write_text(json.dumps(data))
            with pytest.raises(VersionMismatchError):
                VersionGraph.load_change_records(path)

    def test_change_records_of_a_damaged_file_are_corrupt(self, tmp_path):
        path = tmp_path / "graph.json"
        build_corpus_scale_graph().save(path)
        data = json.loads(path.read_text())
        edit_change(data, data["changes"]["id"][0], kind="renamed")
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptFileError):
            VersionGraph.load_change_records(path)
        old = {"format_version": 5, "nodes": graph_nodes(data)}
        path.write_text(json.dumps(old))
        with pytest.raises(CorruptFileError):
            VersionGraph.load_change_records(path)
        path.write_text("{")
        with pytest.raises(CorruptFileError):
            VersionGraph.load_change_records(path)


def saved_payload(graph, tmp_path) -> dict:
    path = tmp_path / "graph.json"
    graph.save(path)
    return json.loads(path.read_text())


def records_graph():
    """Two documents with explicit, implicit and from-less records."""
    graph = build_corpus_scale_graph()
    spark, bootstrap = (d.id for d in graph.documents()[:2])
    graph.add_change(make_record(spark, None, "3.5.5", 1))
    graph.add_change(make_record(bootstrap, None, "5.3.1", 2))
    graph.add_change(
        make_record(bootstrap, "5.3.1", "5.3.2", 3, ChangeOrigin.IMPLICIT, ["h3", "h4"])
    )
    return graph


class TestChangeColumns:
    """Format 6 stores the change records as columns, decoded on load and
    built into records only when one is needed."""

    def test_records_read_the_same_from_formats_4_5_and_6(self, tmp_path):
        graph = records_graph()
        data = saved_payload(graph, tmp_path)
        path = tmp_path / "records.json"
        old = {"nodes": graph_nodes(data)}
        assert [n for n in old["nodes"] if n["node_kind"] != "change"] == data["nodes"]
        read = {}
        for version, payload in ((6, data), (5, {**old, "format_version": 5}), (4, None)):
            if payload is None:  # format 4: version nodes counted chunks
                nodes = [dict(n) for n in old["nodes"]]
                for node in nodes:
                    if node["node_kind"] == "version":
                        node["chunks"] = int(node.pop("has_text"))
                payload = {"format_version": 4, "nodes": nodes}
            path.write_text(json.dumps(payload))
            read[version] = VersionGraph.load_change_records(path)
        assert read[4] == read[5] == read[6] == sorted(graph.change_records(), key=lambda r: r.id)

    def test_old_records_out_of_id_order_read_in_id_order(self, tmp_path):
        graph = records_graph()
        nodes = graph_nodes(saved_payload(graph, tmp_path))
        path = tmp_path / "records.json"
        path.write_text(json.dumps({"format_version": 5, "nodes": nodes[::-1]}))
        assert VersionGraph.load_change_records(path) == sorted(
            graph.change_records(), key=lambda r: r.id
        )

    def test_coded_columns_list_each_value_once(self, tmp_path):
        changes = saved_payload(records_graph(), tmp_path)["changes"]
        for name in ("document", "from_version", "to_version", "kind", "origin"):
            values = changes[name]["values"]
            assert len(set(values)) == len(values) and None not in values, name
            assert sorted(set(changes[name]["codes"]) - {-1}) == list(range(len(values))), name
        assert changes["from_version"]["codes"].count(-1) == 2
        assert changes["id"] == sorted(changes["id"])

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c["description"].pop(),
            lambda c: c["evidence"].append([]),
            lambda c: c["kind"]["codes"].pop(),
            lambda c: c["document"]["codes"].__setitem__(0, len(c["document"]["values"])),
            lambda c: c["to_version"]["codes"].__setitem__(0, -1),
            lambda c: c["from_version"]["codes"].__setitem__(0, -2),
            lambda c: c["origin"]["codes"].__setitem__(0, True),
            lambda c: c["origin"]["codes"].__setitem__(0, 0.0),
            lambda c: c["kind"]["values"].__setitem__(0, "renamed"),
            lambda c: c["origin"]["values"].__setitem__(0, "guessed"),
            lambda c: c["origin"].pop("values"),
            lambda c: c.pop("evidence"),
            lambda c: c.__setitem__("extra", []),
            lambda c: c["evidence"].__setitem__(0, "h0"),
            lambda c: c["document"]["values"].__setitem__(0, ["document:x"]),
            lambda c: c["id"].reverse(),
            lambda c: c["id"].__setitem__(1, c["id"][0]),
        ],
        ids=[
            "short-description-column",
            "long-evidence-column",
            "short-codes",
            "code-past-the-values",
            "missing-to-version",
            "from-version-code-below-minus-one",
            "boolean-code",
            "float-code",
            "unknown-kind",
            "unknown-origin",
            "codes-without-values",
            "missing-column",
            "unknown-column",
            "evidence-not-a-list",
            "unhashable-document",
            "unsorted-ids",
            "repeated-id",
        ],
    )
    def test_malformed_columns_are_corrupt_on_load(self, tmp_path, edit):
        data = saved_payload(records_graph(), tmp_path)
        edit(data["changes"])
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptFileError):
            VersionGraph.load(path)
        with pytest.raises(CorruptFileError):
            VersionGraph.load_change_records(path)

    def test_a_record_with_the_id_of_another_node_is_corrupt_on_load(self, tmp_path):
        data = saved_payload(records_graph(), tmp_path)
        data["changes"]["id"][0] = "category:data-processing"
        with pytest.raises(CorruptFileError, match="id of another node"):
            VersionGraph.from_dict(data)

    def test_a_loaded_graph_builds_its_records_only_when_one_is_needed(self, tmp_path, monkeypatch):
        graph = records_graph()
        path = tmp_path / "graph.json"
        graph.save(path)
        extra = make_record(graph.documents()[0].id, None, "3.4.4", 7)
        built = []
        init = ChangeRecord.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("id", args[0] if args else None))
            init(self, *args, **kwargs)

        monkeypatch.setattr(ChangeRecord, "__init__", counted)
        uses = {
            "changes_between": lambda g, d: g.changes_between(d.id, "2.4.7", "3.5.5"),
            "node of a change id": lambda g, d: g.node(graph.change_records()[0].id),
            "nodes": lambda g, d: g.nodes,
            "change_records": lambda g, d: g.change_records(),
            "validate": lambda g, d: g.validate(),
            "to_dict": lambda g, d: g.to_dict(),
            "add_change": lambda g, d: g.add_change(extra),
        }
        for name, use in uses.items():
            loaded = VersionGraph.load(path)
            document = loaded.documents()[0]
            # lookups of documents, titles and versions build nothing
            assert loaded.node(document.id) is document
            assert loaded.node(document.category).name == "Data Processing"
            assert [v.label.raw for v in loaded.versions_of(document.id)] == SPARK_VERSIONS
            assert loaded.find_version(document.id, "3.5.5") is not None
            assert built == [], name
            use(loaded, document)
            assert sorted(built) == sorted(r.id for r in graph.change_records()), name
            use(loaded, document)
            assert len(built) == len(graph.change_records()), f"{name} built twice"
            built.clear()
            # once built, the records sit in nodes in id order, as format 5 loaded
            # them; a record added since comes last
            assert list(loaded.nodes)[: len(graph.nodes)] == sorted(graph.nodes)

    def test_a_document_lookup_that_misses_builds_the_records(self, tmp_path):
        path = tmp_path / "graph.json"
        records_graph().save(path)
        loaded = VersionGraph.load(path)
        assert loaded.node("document:missing") is None
        assert loaded.node(loaded.change_records()[0].id) is not None


def test_concurrent_first_reads_build_the_records_once(tmp_path, monkeypatch):
    import sys
    import threading

    graph = records_graph()
    path = tmp_path / "graph.json"
    graph.save(path)
    expected = sorted(r.id for r in graph.change_records())
    built, results, errors = [], [], []
    init = ChangeRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("id", args[0] if args else None))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChangeRecord, "__init__", counted)
    for _ in range(20):
        loaded = VersionGraph.load(path)
        spark = loaded.documents()[0].id
        barrier = threading.Barrier(6)
        reads = [
            lambda: [r.id for r in loaded.change_records()],
            lambda: [r.id for r in loaded.changes_between(spark, "2.4.7", "3.5.5")],
            lambda: [loaded.node(record_id).id for record_id in expected],
            lambda: [n.id for n in loaded.nodes.values() if isinstance(n, ChangeRecord)],
            lambda: loaded.validate(),
            lambda: [r.id for r in loaded.change_records()],
        ]

        def reader(read):
            try:
                barrier.wait(timeout=10)
                results.append(read())
            except Exception as exc:  # noqa: BLE001 - collected for the main thread
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(read,)) for read in reads]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert sorted(built) == expected, "each record built once"
        assert sorted(loaded.nodes) == sorted(graph.nodes)
        built.clear()


class TestStaleFromVersion:
    def test_explicit_record_with_a_from_version_is_reported(self, tmp_path):
        graph, doc = graph_with_document()
        for raw in ["1.0", "2.0", "3.0"]:
            graph.add_version(doc, raw)
        fine = make_record(doc, None, "2.0", 0)
        stale = make_record(doc, "1.0", "3.0", 1)
        graph.add_change(fine)
        graph.add_change(stale)
        expected = [f"change {stale.id}: explicit record stores a from_version"]
        assert graph.validate() == expected
        path = tmp_path / "graph.json"
        graph.save(path)
        assert VersionGraph.load(path).validate() == expected
        # the chain places a from-less record in the pair that ends at its to-version
        assert graph.changes_between(doc, "1.0", "2.0") == [fine]


def test_concurrent_reads_while_holding_graph():
    import threading

    graph, doc = graph_with_document()
    for raw in SPARK_VERSIONS:
        graph.add_version(doc, raw)
    errors = []

    def reader():
        try:
            for _ in range(200):
                assert [l.raw for l in graph.list_versions(doc)] == SPARK_VERSIONS
        except Exception as exc:  # noqa: BLE001 - collected for the main thread
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_edges_read_while_writer_adds_documents():
    import sys
    import threading

    graph = VersionGraph()
    category = graph.add_category("Data Processing")
    done = threading.Event()
    errors = []

    def writer():
        try:
            for n in range(300):
                doc = graph.add_document(f"doc {n}", category)
                graph.add_version(doc, "1.0")
                graph.add_version(doc, "2.0")
        except Exception as exc:  # noqa: BLE001 - collected for the main thread
            errors.append(exc)
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set():
                documents = graph.documents()
                assert len({d.id for d in documents}) == len(documents)
                # the newest documents, which the writer may still be filling
                for doc in documents[-2:]:
                    labels = chain_labels(graph, doc.id)
                    assert labels == ["1.0", "2.0"][: len(labels)]
        except Exception as exc:  # noqa: BLE001 - collected for the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    documents = graph.documents()
    assert len(documents) == 300
    assert all(chain_labels(graph, doc.id) == ["1.0", "2.0"] for doc in documents)
