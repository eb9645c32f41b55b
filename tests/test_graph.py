import json
import random

import pytest

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
    ChangeKind,
    ChangeOrigin,
    ChangeRecord,
    Edge,
    EdgeKind,
    VersionGraph,
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

    def test_singleton_has_no_next_version_edges(self):
        graph, doc = graph_with_document()
        graph.add_version(doc, "1.0.0")
        assert chain_labels(graph, doc) == ["1.0.0"]
        assert not [e for e in graph.edges if e.kind is EdgeKind.NEXT_VERSION]

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

    def test_chain_edge_count_is_n_minus_one(self):
        graph, doc = graph_with_document()
        for raw in SPARK_VERSIONS:
            graph.add_version(doc, raw)
        next_edges = [e for e in graph.edges if e.kind is EdgeKind.NEXT_VERSION]
        assert len(next_edges) == len(SPARK_VERSIONS) - 1


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


class TestChangesBetween:
    def build(self):
        graph, doc = graph_with_document()
        for raw in ["1.0", "1.1", "1.2", "1.3"]:
            graph.add_version(doc, raw)
        return graph, doc

    def oracle_pair_scan(self, graph, doc, frm, to):
        """Independent oracle: per-pair edge scan, then concatenate."""
        chain = graph.versions_of(doc)
        out = []
        for prev, nxt in zip(chain, chain[1:]):
            if compare_versions(prev.label, frm) < 0 or compare_versions(nxt.label, to) > 0:
                continue
            attached = []
            for record in graph.change_records():
                to_edges = [
                    e
                    for e in graph.edges
                    if e.kind is EdgeKind.CHANGED_TO and e.source == record.id and e.target == nxt.id
                ]
                if not to_edges:
                    continue
                if record.from_version is None:
                    attached.append(record)
                elif any(
                    e.kind is EdgeKind.CHANGED_TO and e.source == prev.id and e.target == record.id
                    for e in graph.edges
                ):
                    attached.append(record)
            out.extend(sorted(attached, key=lambda r: r.id))
        return out

    def test_adjacent_pair_with_two_records(self):
        graph, doc = self.build()
        r1 = make_record(doc, "1.0", "1.1", 0)
        r2 = make_record(doc, "1.0", "1.1", 1)
        graph.add_change(r1)
        graph.add_change(r2)
        expected = self.oracle_pair_scan(graph, doc, parse_version("1.0"), parse_version("1.1"))
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
        expected = self.oracle_pair_scan(graph, doc, parse_version("1.0"), parse_version("1.3"))
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


class TestValidate:
    def test_valid_graph_has_no_violations(self):
        graph, doc = graph_with_document()
        for raw in SPARK_VERSIONS:
            graph.add_version(doc, raw)
        version = graph.versions_of(doc)[0]
        graph.add_content_ref(version.id, 0, f"{doc}@2.4.7#c0000")
        graph.add_change(
            make_record(doc, "2.4.7", "3.3.4", origin=ChangeOrigin.IMPLICIT, evidence=["h1"])
        )
        assert graph.validate() == []
        graph.validate_strict()

    def test_orphan_document_detected(self):
        graph, doc = graph_with_document()
        graph._remove_edges({e for e in graph.edges if e.kind is EdgeKind.HAS_DOCUMENT})
        problems = graph.validate()
        assert any("category parents" in p for p in problems)

    def test_chain_order_violation_detected(self):
        graph, doc = graph_with_document()
        a = graph.add_version(doc, "1.0")
        b = graph.add_version(doc, "2.0")
        drop = {e for e in graph.edges if e.kind is EdgeKind.NEXT_VERSION}
        graph._remove_edges(drop)
        graph._add_edge(b, EdgeKind.NEXT_VERSION, a)  # backwards on purpose
        problems = graph.validate()
        assert any("contradicts the comparator" in p for p in problems)

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

    def test_level_hierarchy_violation_detected(self):
        graph, doc = graph_with_document()
        category = graph.documents()[0].category
        graph._add_edge(doc, EdgeKind.HAS_DOCUMENT, category)
        assert any("level hierarchy" in p for p in graph.validate())

    def test_looped_chain_reads_in_comparator_order(self):
        graph, doc = graph_with_document()
        graph.add_version(doc, "1.0")
        v2 = graph.add_version(doc, "2.0")
        v3 = graph.add_version(doc, "3.0")
        graph._add_edge(v3, EdgeKind.NEXT_VERSION, v2)  # 1.0 -> 2.0 -> 3.0 -> 2.0 ...
        assert chain_labels(graph, doc) == ["1.0", "2.0", "3.0"]
        assert graph.find_version(doc, "3.0").id == v3
        assert any("NEXT_VERSION edges for 3 versions" in p for p in graph.validate())

    def test_loaded_looped_chain_with_change_records_validates(self, tmp_path):
        graph, doc = graph_with_document()
        for raw in ["1.0", "2.0", "3.0"]:
            graph.add_version(doc, raw)
        graph.add_change(make_record(doc, "2.0", "3.0"))
        v1, v2, v3 = (graph.find_version(doc, raw).id for raw in ("1.0", "2.0", "3.0"))
        path = tmp_path / "graph.json"
        graph.save(path)
        data = json.loads(path.read_text())
        # hand edit: 1.0 -> 3.0 -> 2.0 -> 3.0 ..., a walk order unlike the comparator's
        data["edges"].remove({"from": v1, "kind": "next_version", "to": v2})
        data["edges"] += [
            {"from": v1, "kind": "next_version", "to": v3},
            {"from": v3, "kind": "next_version", "to": v2},
        ]
        path.write_text(json.dumps(data))
        loaded = VersionGraph.load(path)
        assert chain_labels(loaded, doc) == ["1.0", "2.0", "3.0"]
        assert any("NEXT_VERSION edges for 3 versions" in p for p in loaded.validate())

    def test_loaded_chain_into_missing_node_validates(self, tmp_path):
        graph, doc = graph_with_document()
        for raw in ["1.0", "2.0"]:
            graph.add_version(doc, raw)
        graph.add_change(make_record(doc, "1.0", "2.0"))
        v2 = graph.find_version(doc, "2.0").id
        path = tmp_path / "graph.json"
        graph.save(path)
        data = json.loads(path.read_text())
        data["edges"].append({"from": v2, "kind": "next_version", "to": "version:ghost"})
        path.write_text(json.dumps(data))
        loaded = VersionGraph.load(path)
        assert chain_labels(loaded, doc) == ["1.0", "2.0"]
        assert loaded.find_version(doc, "2.0").id == v2
        problems = loaded.validate()
        assert any("references a missing node" in p for p in problems)

    def test_two_heads_read_in_comparator_order(self):
        graph, doc = graph_with_document()
        for raw in ["3.0", "1.0", "2.0"]:
            graph.add_version(doc, raw)
        v1, v2 = (graph.find_version(doc, raw).id for raw in ("1.0", "2.0"))
        graph._remove_edges({Edge(v1, EdgeKind.NEXT_VERSION, v2)})  # heads: 1.0 and 2.0
        assert chain_labels(graph, doc) == ["1.0", "2.0", "3.0"]
        assert any("NEXT_VERSION edges for 3 versions" in p for p in graph.validate())

    def test_detached_loop_reads_all_versions_in_comparator_order(self):
        graph, doc = graph_with_document()
        for raw in ["4.0", "2.0", "1.0", "3.0"]:
            graph.add_version(doc, raw)
        v2, v3, v4 = (graph.find_version(doc, raw).id for raw in ("2.0", "3.0", "4.0"))
        # 1.0 -> 2.0, then a loop 3.0 -> 4.0 -> 3.0 that the head never reaches
        graph._remove_edges({Edge(v2, EdgeKind.NEXT_VERSION, v3)})
        graph._add_edge(v4, EdgeKind.NEXT_VERSION, v3)
        assert chain_labels(graph, doc) == ["1.0", "2.0", "3.0", "4.0"]
        assert f"document {doc}: NEXT_VERSION chain misses versions" in graph.validate()

    def test_change_record_of_missing_document_is_reported(self, tmp_path):
        graph, doc = graph_with_document()
        for raw in ["1.0", "2.0"]:
            graph.add_version(doc, raw)
        record = make_record(doc, "1.0", "2.0")
        graph.add_change(record)
        path = tmp_path / "graph.json"
        graph.save(path)
        data = json.loads(path.read_text())
        for node in data["nodes"]:
            if node["id"] == record.id:
                node["document"] = "document:gone"
        path.write_text(json.dumps(data))
        problems = VersionGraph.load(path).validate()
        assert f"change {record.id}: document missing from graph" in problems


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
    first = graph.versions_of(chains[0].id)[0]
    graph.add_content_ref(first.id, 0, "k0")
    graph.add_change(
        make_record(chains[0].id, "2.4.7", "3.3.4", origin=ChangeOrigin.IMPLICIT, evidence=["h0"])
    )
    return graph


class TestPersistence:
    def test_round_trip_empty_graph(self, tmp_path):
        graph = VersionGraph()
        path = tmp_path / "graph.json"
        graph.save(path)
        assert VersionGraph.load(path).structurally_equal(graph)

    def test_round_trip_corpus_scale_graph(self, tmp_path):
        graph = build_corpus_scale_graph()
        assert sum(len(graph.list_versions(d.id)) for d in graph.documents()) == 34
        path = tmp_path / "graph.json"
        graph.save(path)
        loaded = VersionGraph.load(path)
        # oracle: structural equality checks node/edge counts and payloads
        assert len(loaded.nodes) == len(graph.nodes)
        assert len(loaded.edges) == len(graph.edges)
        assert loaded.structurally_equal(graph)
        assert loaded.validate() == []

    @pytest.mark.parametrize("seed", range(5))
    def test_adjacency_holds_each_edge_once(self, tmp_path, seed):
        rng = random.Random(seed)
        graph = VersionGraph()
        category = graph.add_category("Data Processing")
        for title, versions in (("Spark", SPARK_VERSIONS), ("Bootstrap", BOOTSTRAP_VERSIONS)):
            doc = graph.add_document(title, category)
            versions = rng.sample(versions, len(versions))
            for raw in versions:
                version = graph.add_version(doc, raw)
                graph.add_content_ref(version, 0, f"{version}#c0")
            ordered = sorted(versions, key=parse_version)
            graph.add_change(make_record(doc, None, ordered[0]))
            for ordinal, (frm, to) in enumerate(zip(ordered, ordered[1:])):
                graph.add_change(
                    make_record(doc, frm, to, ordinal, ChangeOrigin.IMPLICIT, [f"h{ordinal}"])
                )
            # a late synthetic version relinks a chain that already has records
            graph.add_version(doc, "0.0.1", synthetic=True)
        edges = graph.edges
        assert sorted(e for target in graph._in.values() for e in target) == sorted(edges)
        assert len(set(edges)) == len(edges)
        assert all(e in graph._in[e.target] for e in edges)
        assert graph.validate() == []
        path = tmp_path / "graph.json"
        graph.save(path)
        loaded = VersionGraph.load(path)
        assert loaded.to_dict() == graph.to_dict()
        assert sorted(loaded.edges) == sorted(edges)

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
        path.write_text(json.dumps({"format_version": 99, "nodes": [], "edges": []}))
        with pytest.raises(VersionMismatchError):
            VersionGraph.load(path)

    def test_missing_file_is_corrupt(self, tmp_path):
        with pytest.raises(CorruptFileError):
            VersionGraph.load(tmp_path / "absent.json")

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
        assert data["format_version"] == 1
        assert set(data) == {"format_version", "nodes", "edges"}
        for edge in data["edges"]:
            assert set(edge) == {"from", "kind", "to"}
        kinds = {node["node_kind"] for node in data["nodes"]}
        assert kinds == {"category", "document", "version", "content_ref", "change"}
        change = next(n for n in data["nodes"] if n["node_kind"] == "change")
        assert set(change) == {
            "id",
            "node_kind",
            "document",
            "from_version",
            "to_version",
            "kind",
            "description",
            "origin",
            "evidence",
        }


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
                edges = graph.edges
                assert len(set(edges)) == len(edges)
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
    assert len(graph.edges) == 300 * 4
