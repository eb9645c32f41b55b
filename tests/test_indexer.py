import hashlib
import json
import logging
import math
import os
import shutil
from pathlib import Path

import pytest

from verdoc import indexer, prompts
from verdoc.cli import main
from verdoc.engine import Engine
from verdoc.errors import (
    AttributeExtractionError,
    ClusteringError,
    CorruptFileError,
    EmptyCorpusError,
    IndexingError,
)
from verdoc.fileio import json_bytes
from verdoc.gateway import Gateway, MockBackend, ResponseSchema
from verdoc.graph import ChangeKind, ChangeOrigin, ChangeRecord, VersionGraph
from verdoc.indexer import (
    CONTENT,
    DocumentAttributes,
    _attach_records,
    build_graph,
    cluster_documents,
    extract_attributes,
    catalog_documents,
    content_key,
    index_content,
    index_corpus,
    index_documents,
    manifest_problems,
)
from verdoc.ingestion import CorpusFile, RawDocument, chunk_document, count_tokens, first_pages
from verdoc.retrieval import ParsedQuery, QueryIntent, RetrievalMode
from verdoc.signature import SIGNATURE_FILE
from verdoc.vector_index import IndexEntry, VectorIndex
from verdoc.versions import parse_version

from conftest import (
    DIMENSION,
    assert_doc_corpus,
    changelog_text,
    doc_text,
    make_gateway,
    marker_corpus,
    raw,
    sidecar_entries,
    spark_changelog_corpus,
    write_corpus,
)

# what index_corpus writes besides summary.json, whose usage counts differ by run
INDEX_FILES = ("graph.json", "vectors.json", "vectors.npy", "attributes.json")


class TestExtractAttributes:
    def test_documentation_file(self, gateway):
        doc = raw(
            "assert.md",
            doc_text("Node.js Assert", "20.19.0", [("assert.ok", ["Stability: 2 - Stable"])]),
        )
        attrs = extract_attributes(doc, gateway)
        assert attrs.title == "Node.js Assert"
        assert attrs.version.raw == "20.19.0"
        assert attrs.doc_type == "documentation"

    def test_changelog_file(self, gateway):
        doc = raw("spark.md", changelog_text("Apache Spark", "3.5.5", ["Upgraded Avro"]))
        attrs = extract_attributes(doc, gateway)
        assert attrs.doc_type == "changelog"
        assert attrs.version.raw == "3.5.5"

    def test_scripted_replies_override(self):
        script = [
            {
                "schema": "attributes",
                "match": ["mystery body", '"doc_type"'],
                "reply": '{"doc_type": "documentation"}',
            },
            {
                "schema": "attributes",
                "match": ["mystery body"],
                "reply": '{"title": "Scripted Title", "summary": "s", "version": "9.9.9"}',
            },
        ]
        gateway = make_gateway(script=script)
        attrs = extract_attributes(raw("m.md", "mystery body"), gateway)
        assert attrs.title == "Scripted Title"
        assert attrs.version.raw == "9.9.9"

    def test_missing_version_is_not_an_error(self):
        script = [
            {"schema": "attributes", "match": ['"doc_type"'], "reply": '{"doc_type": "documentation"}'},
            {
                "schema": "attributes",
                "match": ["versionless"],
                "reply": '{"title": "No Version Doc", "summary": "", "version": null}',
            },
        ]
        attrs = extract_attributes(raw("n.md", "versionless body"), make_gateway(script=script))
        assert attrs.version is None

    def test_malformed_twice_raises(self):
        script = [{"schema": "attributes", "match": [], "reply": "never valid"}]
        with pytest.raises(AttributeExtractionError):
            extract_attributes(raw("x.md", "whatever body"), make_gateway(script=script))

    def test_doc_type_marker_in_the_document_is_not_an_instruction(self, gateway):
        doc = raw("c.md", '# Config Guide\n\nVersion: 1.2\n\nSet "doc_type" to pick the parser.\n')
        attrs = extract_attributes(doc, gateway)
        assert attrs.title == "Config Guide"
        assert attrs.version.raw == "1.2"
        assert attrs.doc_type == "documentation"

    def test_metadata_reply_without_title_is_a_typed_error(self):
        script = [{"schema": "attributes", "match": [], "reply": '{"doc_type": "documentation"}'}]
        with pytest.raises(AttributeExtractionError, match="no title"):
            extract_attributes(raw("x.md", "# X\n\nbody\n"), make_gateway(script=script))

    def test_doc_type_reply_without_doc_type_is_a_typed_error(self):
        reply = '{"title": "X", "summary": "", "version": null}'
        script = [{"schema": "attributes", "match": [], "reply": reply}]
        with pytest.raises(AttributeExtractionError, match="no doc_type"):
            extract_attributes(raw("x.md", "# X\n\nbody\n"), make_gateway(script=script))


class TestClusterDocuments:
    def corpus_pairs(self, titles_and_versions):
        pairs = []
        for i, (title, version) in enumerate(titles_and_versions):
            doc = raw(f"f{i:02d}.md", doc_text(title, version, [("s", ["body"])]))
            attrs = DocumentAttributes(
                title=title, summary="", version=parse_version(version), doc_type="documentation"
            )
            pairs.append((doc, attrs))
        return pairs

    def test_two_title_groups(self, gateway):
        pairs = self.corpus_pairs(
            [("Node.js Assert", f"{m}.0.0") for m in range(11, 24)]  # 13 files
            + [("Node.js Errors", f"{m}.1.0") for m in range(15, 24)]  # 9 files
        )
        catalog = cluster_documents(pairs, gateway)
        groups = [g for _, g in catalog.all_groups()]
        assert len(groups) == 2
        sizes = sorted(len(g.members) for g in groups)
        assert sizes == [9, 13]

    def test_single_document(self, gateway):
        catalog = cluster_documents(self.corpus_pairs([("Solo Guide", "1.0")]), gateway)
        groups = [g for _, g in catalog.all_groups()]
        assert len(groups) == 1 and len(catalog.categories) == 1

    def test_same_normalized_title_groups_together(self, gateway):
        # oracle: fallback rule is case-folded punctuation-stripped equality
        pairs = self.corpus_pairs([("Node.js Assert", "1.0"), ("node js assert", "2.0")])
        catalog = cluster_documents(pairs, gateway)
        groups = [g for _, g in catalog.all_groups()]
        assert len(groups) == 1 and len(groups[0].members) == 2

    def test_partition_property(self, gateway):
        pairs = self.corpus_pairs(
            [("Alpha", "1.0"), ("Alpha", "2.0"), ("Beta", "1.0"), ("Gamma", "3.1")]
        )
        catalog = cluster_documents(pairs, gateway)
        seen = []
        for _, group in catalog.all_groups():
            seen.extend(id(doc) for doc, _ in group.members)
        assert sorted(seen) == sorted(id(doc) for doc, _ in pairs)

    def test_invalid_proposal_falls_back(self):
        # proposal drops one document; fallback must take over
        script = [
            {
                "schema": "clusters",
                "match": [],
                "reply": '{"categories": [{"name": "C", "groups": [{"title": "Alpha", "members": [0]}]}]}',
            }
        ]
        gateway = make_gateway(script=script)
        pairs = self.corpus_pairs([("Alpha", "1.0"), ("Beta", "1.0")])
        catalog = cluster_documents(pairs, gateway)
        groups = [g for _, g in catalog.all_groups()]
        assert len(groups) == 2

    def test_members_sorted_by_version(self, gateway):
        pairs = self.corpus_pairs([("Doc", "3.0"), ("Doc", "1.0"), ("Doc", "2.0")])
        catalog = cluster_documents(pairs, gateway)
        (_, group), = catalog.all_groups()
        assert [a.version.raw for _, a in group.members] == ["1.0", "2.0", "3.0"]

    def test_empty_input_rejected(self, gateway):
        with pytest.raises(ClusteringError):
            cluster_documents([], gateway)


class TestBuildGraph:
    def catalog_for(self, spec):
        """spec: {title: [versions]} built through the fallback path."""
        pairs = []
        for title, versions in spec.items():
            for v in versions:
                doc = raw(f"{title}-{v}.md", doc_text(title, v, [("s", ["b"])]))
                attrs = DocumentAttributes(
                    title=title,
                    summary="",
                    version=None if v == "?" else parse_version(v),
                    doc_type="documentation",
                )
                pairs.append((doc, attrs))
        return cluster_documents(pairs, make_gateway())

    def test_corpus_shape_counts(self):
        catalog = self.catalog_for(
            {
                "Apache Spark": ["2.4.7", "3.3.4", "3.4.4", "3.5.3", "3.5.4", "3.5.5"],
                "Bootstrap": ["5.2.3", "5.3.1", "5.3.2", "5.3.3", "5.3.4", "5.3.5"],
                "Node.js Assert": [f"{m}.0.0" for m in range(11, 24)],
                "Node.js Errors": [f"{m}.1.0" for m in range(15, 24)],
            }
        )
        graph = build_graph(catalog)
        assert len(graph.documents()) == 4
        assert sum(len(graph.list_versions(d.id)) for d in graph.documents()) == 34
        assert graph.validate() == []

    def test_empty_catalog_rejected(self):
        from verdoc.indexer import CorpusCatalog

        with pytest.raises(ClusteringError):
            build_graph(CorpusCatalog())

    def test_missing_versions_get_flagged_synthetic_labels(self):
        catalog = self.catalog_for({"Doc": ["?", "?", "1.0"]})
        graph = build_graph(catalog)
        doc = graph.documents()[0]
        versions = graph.versions_of(doc.id)
        synthetic = [v for v in versions if v.synthetic]
        assert len(synthetic) == 2
        assert sorted(v.label.raw for v in synthetic) == ["0.0.1", "0.0.2"]


class TestIndexContent:
    def build(self, text_tokens=1000):
        title = "Sized Doc"
        body = " ".join(f"tok{i}" for i in range(text_tokens))
        doc = raw("sized.md", f"# {title}\n\nVersion: 1.0.0\n\n{body}")
        attrs = DocumentAttributes(
            title=title, summary="", version=parse_version("1.0.0"), doc_type="documentation"
        )
        gateway = make_gateway()
        catalog = cluster_documents([(doc, attrs)], gateway)
        graph = build_graph(catalog)
        index = VectorIndex(dimension=DIMENSION)
        return graph, catalog, gateway, index, doc

    def test_chunk_count_matches_formula(self):
        """The head lines are too short to cut after, and the body is one
        line, so the cap cuts the text into fixed windows."""
        graph, catalog, gateway, index, doc = self.build(1000)
        count = index_content(graph, catalog, gateway, index)
        total = count_tokens(doc.text)
        expected = math.ceil((total - 50) / (512 - 50)) if total > 512 else 1
        assert count == expected  # oracle: chunk-count formula
        metadata = [index.get(key).metadata for key in index.keys()]
        assert {(m["first"], m["last"]) for m in metadata} == {("1.0.0", "1.0.0")}
        assert len(index) == expected

    def test_rerun_is_idempotent(self):
        graph, catalog, gateway, index, _ = self.build(1000)
        first = index_content(graph, catalog, gateway, index)
        assert first > 0
        again = index_content(graph, catalog, gateway, index)
        assert again == 0
        assert len(index) == first

    def test_chunk_counts_name_the_index_keys(self):
        """Each chunk of the one version has one entry, under the key of its
        document, its run's first version and its text."""
        graph, catalog, gateway, index, doc = self.build(2500)
        index_content(graph, catalog, gateway, index)
        document = graph.documents()[0].id
        chunks = chunk_document(doc)
        assert len(chunks) > 1
        assert index.keys() == [content_key(document, "1.0.0", chunk.text) for chunk in chunks]

    def test_entry_holding_the_text_keeps_its_vector_and_takes_new_metadata(self):
        """As an index whose content entries still carry a ``category`` is
        re-indexed: nothing is embedded, and only the metadata changes."""
        graph, catalog, gateway, index, _ = self.build(1000)
        index_content(graph, catalog, gateway, index)
        fresh = {key: index.get(key) for key in index.keys()}
        for entry in fresh.values():
            metadata = {**entry.metadata, "category": "x"}
            index.insert(IndexEntry(entry.key, -entry.vector, metadata, entry.text))
        assert index_content(graph, catalog, gateway, index) == 0
        for key, entry in fresh.items():
            held = index.get(key)
            assert held.metadata == entry.metadata == {
                "document": graph.documents()[0].id,
                "origin": "content",
                "first": "1.0.0",
                "last": "1.0.0",
            }
            assert held.text == entry.text
            assert (held.vector == -entry.vector).all()


class TestIndexDocuments:
    def documents(self):
        files = {**spark_changelog_corpus(), **assert_doc_corpus()}
        return [raw(path, text) for path, text in sorted(files.items())]

    def test_pipeline_produces_valid_graph(self, gateway):
        index = VectorIndex(dimension=DIMENSION)
        summary = index_documents(self.documents(), gateway, index)
        assert summary.graph.validate() == []
        assert summary.documents == 9
        assert summary.chunks > 0
        assert summary.changes > 0
        titles = {d.title for d in summary.graph.documents()}
        assert titles == {"Apache Spark Changelog", "Node.js Assert"}

    def test_explicit_records_for_changelogs(self, gateway):
        index = VectorIndex(dimension=DIMENSION)
        summary = index_documents(self.documents(), gateway, index)
        explicit = [
            r for r in summary.graph.change_records() if r.origin.value == "explicit"
        ]
        assert any("Avro" in r.description for r in explicit)
        implicit = [
            r for r in summary.graph.change_records() if r.origin.value == "implicit"
        ]
        assert any("partialDeepStrictEqual" in r.description for r in implicit)

    def test_each_change_record_has_one_entry_under_its_id(self, gateway):
        index = VectorIndex(dimension=DIMENSION)
        records = index_documents(self.documents(), gateway, index).graph.change_records()
        assert {r.origin for r in records} == set(ChangeOrigin)
        change_keys = [
            key for key in index.keys() if index.get(key).metadata["origin"] != "content"
        ]
        assert sorted(change_keys) == sorted(r.id for r in records)
        for record in records:
            entry = index.get(record.id)
            assert entry.metadata == {"document": record.document, "origin": record.origin.value}
            assert entry.text == ""

    def test_usage_accounted(self, gateway):
        index = VectorIndex(dimension=DIMENSION)
        summary = index_documents(self.documents(), gateway, index)
        assert summary.usage.calls > 0
        assert summary.usage.input_tokens > 0

    def test_attribute_cache_skips_completions(self, gateway):
        cache = {}
        index = VectorIndex(dimension=DIMENSION)
        index_documents(self.documents(), gateway, index, attribute_cache=cache)
        calls_first = gateway.usage().calls
        index2 = VectorIndex(dimension=DIMENSION)
        index_documents(self.documents(), gateway, index2, attribute_cache=cache)
        calls_second = gateway.usage().calls - calls_first
        assert calls_second < calls_first / 2  # attributes + changes all cached


def test_attach_records_walks_each_chain_once():
    graph = VersionGraph()
    doc = graph.add_document("Widget Changelog", graph.add_category("Widgets"))
    for label in ("1.0", "2.0", "3.0"):
        graph.add_version(doc, label)
    records = [
        ChangeRecord(
            id=f"change:{doc}#{n}",
            document=doc,
            from_version=None,
            to_version=parse_version(to),
            kind=ChangeKind.OTHER,
            description=f"item {n}",
            origin=ChangeOrigin.EXPLICIT,
        )
        for n, to in enumerate(["2.0", "2.0", "2.5", "3.0"])
    ]
    index = VectorIndex(dimension=DIMENSION)
    assert _attach_records(graph, index, make_gateway(), records) == 4
    assert [r.from_version for r in records] == [None] * 4
    added = graph.find_version(doc, "2.5")
    assert added.synthetic and not added.has_text
    assert graph.validate() == []
    assert len(index) == 4


class TestSharedGroupTitle:
    """A clustering reply may name two groups alike; each keeps its own nodes."""

    def index(self, alpha_labels, beta_labels):
        documents = [
            raw(f"{product}-{label}.md", doc_text(f"{product} Guide", label, [("Usage", [f"{product} {label}"])]))
            for product, labels in (("Alpha", alpha_labels), ("Beta", beta_labels))
            for label in labels
        ]
        groups = [
            {"title": "Shared Guide", "members": [0, 1]},
            {"title": "Shared Guide", "members": [2, 3]},
        ]
        reply = json.dumps({"categories": [{"name": "Guides", "groups": groups}]})
        gateway = make_gateway(script=[{"schema": "clusters", "match": [], "reply": reply}])
        index = VectorIndex(dimension=DIMENSION)
        graph = index_documents(documents, gateway, index).graph
        products: dict = {}  # document id -> products whose chunks carry it
        for key in index.keys():
            entry = index.get(key)
            if entry.metadata["origin"] == "content":
                product = "Alpha" if "Alpha" in entry.text else "Beta"
                products.setdefault(entry.metadata["document"], set()).add(product)
        return graph, products

    @pytest.mark.parametrize(
        "beta_labels", [["3.0", "4.0"], ["1.0", "2.0"]], ids=["different-labels", "equal-labels"]
    )
    def test_each_group_keeps_its_own_document(self, beta_labels):
        graph, products = self.index(["1.0", "2.0"], beta_labels)
        assert graph.validate() == []
        doc_ids = {d.id for d in graph.documents()}
        assert [d.title for d in graph.documents()] == ["Shared Guide", "Shared Guide"]
        assert set(products) == doc_ids
        assert sorted(map(sorted, products.values())) == [["Alpha"], ["Beta"]]
        assert {r.document for r in graph.change_records()} == doc_ids


class TestIndexCorpus:
    def test_deterministic_outputs(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_corpus(corpus, {**spark_changelog_corpus(), **assert_doc_corpus()})
        out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
        summary_a = index_corpus(corpus, out_a, make_gateway(), dimension=DIMENSION)
        summary_b = index_corpus(corpus, out_b, make_gateway(), dimension=DIMENSION)
        for name in ("graph.json", "vectors.json", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        assert summary_a.chunks == summary_b.chunks

    def test_rerun_adds_nothing_and_spends_no_extraction_tokens(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_corpus(corpus, {**spark_changelog_corpus(), **assert_doc_corpus()})
        out = tmp_path / "out"
        gateway = make_gateway()
        first = index_corpus(corpus, out, gateway, dimension=DIMENSION)
        graph_bytes = (out / "graph.json").read_bytes()
        index_bytes = (out / "vectors.json").read_bytes()

        gateway2 = make_gateway()
        second = index_corpus(corpus, out, gateway2, dimension=DIMENSION)
        assert second.chunks == 0
        assert second.changes == 0
        assert (out / "graph.json").read_bytes() == graph_bytes
        assert (out / "vectors.json").read_bytes() == index_bytes
        # only clustering remains; attribute and change completions are cached
        assert gateway2.usage().calls < first.usage.calls / 2

    def test_unreadable_root_rejected(self, tmp_path, gateway):
        with pytest.raises(EmptyCorpusError):
            index_corpus(tmp_path / "missing", tmp_path / "out", gateway, dimension=DIMENSION)

    def test_marker_corpus_round_trips(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_corpus(corpus, marker_corpus())
        out = tmp_path / "out"
        summary = index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        assert summary.graph.validate() == []
        loaded = VersionGraph.load(out / "graph.json")
        assert loaded.to_dict() == summary.graph.to_dict()

    def test_unicode_corpus_round_trips(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        text_v1 = doc_text("Guide Météo", "1.0.0", [("prévisions", ["Température: 21°C ☀"])])
        text_v2 = doc_text("Guide Météo", "2.0.0", [("prévisions", ["Température: 19°C ☔"])])
        write_corpus(corpus, {"météo/v1.md": text_v1, "météo/v2.md": text_v2})
        out = tmp_path / "out"
        summary = index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        assert summary.graph.validate() == []
        (doc,) = summary.graph.documents()
        assert doc.title == "Guide Météo"
        loaded = VersionGraph.load(out / "graph.json")
        assert loaded.to_dict() == summary.graph.to_dict()

    def test_index_files_are_the_only_files_written(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_corpus(corpus, assert_doc_corpus())
        out = tmp_path / "out"
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        written = (*INDEX_FILES, "summary.json", "manifest.json", "stat.json")
        assert sorted(p.name for p in out.iterdir()) == sorted(written)

    def test_step_failures_carry_step_name(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.md").write_text("# A\n\nbody text\n", encoding="utf-8")
        script = [{"schema": "attributes", "match": [], "reply": "junk"}]
        with pytest.raises(IndexingError) as excinfo:
            index_corpus(corpus, tmp_path / "out", make_gateway(script=script), dimension=DIMENSION)
        assert excinfo.value.step == "attributes"


@pytest.mark.parametrize(
    "schema,bad,fallback",
    [
        ("change_summary", '{"changes": ["oops"]}', "using per-hunk records"),
        ("clusters", '{"categories": [1]}', "using title fallback"),
        ("clusters", '{"categories": [{"name": "a", "groups": [[1]]}]}', "using title fallback"),
    ],
    ids=["change-item", "category-item", "group-item"],
)
def test_reply_with_items_that_are_not_objects_takes_the_fallback(tmp_path, caplog, schema, bad, fallback):
    """Such a reply is a schema violation: it is reprompted once, and then
    the stage's fallback builds what it builds for a reply with no JSON."""
    corpus = tmp_path / "corpus"
    write_corpus(corpus, assert_doc_corpus())
    outs = {}
    for reply in (bad, "no json here"):
        outs[reply] = tmp_path / f"out-{len(outs)}"
        gateway = make_gateway(script=[{"schema": schema, "match": [], "reply": reply}])
        with caplog.at_level(logging.WARNING):
            index_corpus(corpus, outs[reply], gateway, dimension=DIMENSION)
        assert "violated (attempt 2)" in caplog.text and fallback in caplog.text
        caplog.clear()
    for name in (*INDEX_FILES, "manifest.json"):
        assert (outs[bad] / name).read_bytes() == (outs["no json here"] / name).read_bytes(), name


class RecordingBackend:
    """Wraps the offline backend and captures every completion prompt and
    every embed batch."""

    model, embedding_model = MockBackend.model, MockBackend.embedding_model

    def __init__(self):
        self.inner = MockBackend()
        self.prompts = []
        self.batches = []

    def complete(self, prompt, schema, max_output_tokens):
        self.prompts.append(prompt)
        return self.inner.complete(prompt, schema, max_output_tokens)

    def embed(self, texts, dimension):
        self.batches.append(list(texts))
        return self.inner.embed(texts, dimension)


class TestContentBatching:
    def documents(self):
        files = {**spark_changelog_corpus(), **assert_doc_corpus()}
        return [raw(path, text) for path, text in sorted(files.items())]

    @staticmethod
    def content_batches(backend, index):
        """The recorded embed batches that carry content chunks."""
        chunk_texts = {
            index.get(key).text
            for key in index.keys()
            if index.get(key).metadata["origin"] == "content"
        }
        return [batch for batch in backend.batches if chunk_texts.issuperset(batch)]

    def test_one_content_request_per_group_and_none_on_reindex(self):
        backend = RecordingBackend()
        index = VectorIndex(dimension=DIMENSION)
        summary = index_documents(self.documents(), Gateway(backend, dimension=DIMENSION), index)
        groups = summary.graph.documents()
        entries = [index.get(key) for key in index.keys()]
        content = [
            [e for e in entries if e.metadata["origin"] == "content" and e.metadata["document"] == d.id]
            for d in groups
        ]
        assert len(groups) == 2
        assert all(len({e.metadata["first"] for e in group}) > 1 for group in content)
        assert self.content_batches(backend, index) == [
            list(dict.fromkeys(e.text for e in group)) for group in content
        ]

        again = RecordingBackend()
        index_documents(self.documents(), Gateway(again, dimension=DIMENSION), index)
        assert self.content_batches(again, index) == []

    def test_keys_come_out_in_group_version_ordinal_order(self):
        """A run's entry comes in the order its run opens: by group, then by
        the version and the ordinal of its first chunk."""
        index = VectorIndex(dimension=DIMENSION)
        documents = self.documents()
        summary = index_documents(documents, make_gateway(), index, chunk_size=64, overlap=8)
        graph = summary.graph
        catalog = catalog_documents(documents, make_gateway())
        build_graph(catalog)
        source = {  # version id -> its file
            vid: doc
            for _, group in catalog.all_groups()
            for (doc, _), vid in zip(group.members, group.version_ids)
        }
        expected = []
        for document in graph.documents():
            opened = set()
            for version in graph.versions_of(document.id):
                if version.id not in source:
                    continue
                for chunk in chunk_document(source[version.id], chunk_size=64, overlap=8):
                    key = content_key(document.id, version.label.raw, chunk.text)
                    if index.get(key) is not None and key not in opened:
                        opened.add(key)
                        expected.append(key)
        keys = index.keys(CONTENT)
        assert len(set(keys)) > len(graph.documents()) * 2
        assert keys == expected


def test_no_completion_ever_carries_a_full_documentation_body():
    """Prompts must stay at first-pages scale even for huge documents."""
    from verdoc.gateway import Gateway

    page_tokens = 500
    big_body = " ".join(f"w{i}" for i in range(8000))
    documents = []
    for v in ("1.0.0", "2.0.0"):
        text = doc_text("Big Manual", v, [("reference", [big_body, f"note for {v}"])])
        documents.append(raw(f"big/{v}.md", text))
    documents.append(
        raw("big/changes.md", changelog_text("Big Manual", "2.0.0", ["Fixed the frobnicator"]))
    )
    backend = RecordingBackend()
    gateway = Gateway(backend, dimension=DIMENSION)
    index = VectorIndex(dimension=DIMENSION)
    index_documents(documents, gateway, index, page_tokens=page_tokens)
    template_allowance = 600  # instructions, listings and hunk markers
    bound = 10 * page_tokens + template_allowance
    for prompt in backend.prompts:
        assert count_tokens(prompt) <= bound, f"oversized prompt ({count_tokens(prompt)} tokens)"


def test_token_frugality_mechanism():
    """Indexing prompts stay near first-pages scale, far below corpus size."""
    documents = []
    body = " ".join(f"filler{i} lorem ipsum dolor" for i in range(2000))  # 8000 tokens
    for d in range(3):
        for v in ("1.0.0", "2.0.0"):
            text = doc_text(f"Service {chr(65 + d)}", v, [("body", [body, f"unique {d} {v}"])])
            documents.append(raw(f"s{d}-{v}.md", text))
    total_tokens = sum(count_tokens(d.text) for d in documents)
    gateway = make_gateway()
    index = VectorIndex(dimension=DIMENSION)
    summary = index_documents(documents, gateway, index)
    assert summary.usage.input_tokens < total_tokens
    # chunks cover everything, so a send-every-chunk baseline costs >= N tokens
    naive_tokens = sum(
        count_tokens(chunk.text) for document in documents for chunk in chunk_document(document)
    )
    assert naive_tokens >= total_tokens


def ten_page_doc_type(doc):
    """The offline backend's doc type for the ten-page excerpt sent before outlines."""
    prompt = prompts.DOC_TYPE_PROMPT.format(
        doc_begin=prompts.DOC_BEGIN, text=first_pages(doc, 10), doc_end=prompts.DOC_END
    )
    return json.loads(MockBackend().complete(prompt, ResponseSchema.ATTRIBUTES, 64))["doc_type"]


@pytest.mark.parametrize(
    "files, expected",
    [
        ({"d.md": doc_text("Widget Guide", "1.0.0", [("usage", ["Run the widget."])])}, "documentation"),
        ({"c.md": changelog_text("Widget", "1.0.0", ["Added the widget"])}, "changelog"),
        (spark_changelog_corpus(), "changelog"),
        (assert_doc_corpus(), "documentation"),
        (marker_corpus(), "documentation"),
    ],
    ids=["doc_text", "changelog_text", "spark", "assert", "marker"],
)
def test_outline_keeps_the_ten_page_doc_type(gateway, files, expected):
    for path, text in sorted(files.items()):
        doc = raw(path, text)
        assert extract_attributes(doc, gateway).doc_type == ten_page_doc_type(doc) == expected, path


def test_criterion_7_shaped_corpus_prompts_a_twentieth_of_its_tokens():
    documents = []
    for d in range(3):
        body_lines = [
            f"service {d} paragraph {i} " + " ".join(f"w{d}{i}{j}" for j in range(10))
            for i in range(2100)
        ]
        for v in ("1.0.0", "2.0.0"):
            text = doc_text(f"Bulk Service {chr(65 + d)}", v, [("reference", body_lines + [f"note {v} {d}"])])
            documents.append(raw(f"bulk{d}/v{v}.md", text))
    corpus_tokens = sum(count_tokens(d.text) for d in documents)
    summary = index_documents(documents, make_gateway(), VectorIndex(dimension=DIMENSION))
    assert summary.usage.input_tokens / corpus_tokens <= 0.05


def test_no_doc_type_prompt_carries_a_body_line():
    files = {**spark_changelog_corpus(), **assert_doc_corpus(), **marker_corpus()}
    long_body = [f"body line {i} " + " ".join(f"w{i}x{j}" for j in range(10)) for i in range(900)]
    files["long/1.md"] = doc_text("Long Manual", "1.0.0", [("part one", long_body), ("part two", long_body)])
    documents = [raw(path, text) for path, text in sorted(files.items())]
    allowed = set()
    for doc in documents:
        lines = [line for line in doc.text.splitlines() if line.strip()]
        allowed.add(lines[0])
        allowed.update(line for line in lines if line.startswith("#"))
    backend = RecordingBackend()
    index_documents(documents, Gateway(backend, dimension=DIMENSION), VectorIndex(dimension=DIMENSION))
    sent = [
        prompts.extract_document(p)
        for p in backend.prompts
        if '"doc_type"' in p.split(prompts.DOC_BEGIN, 1)[0]
    ]
    assert len(sent) == len(documents)
    for block in sent:
        assert set(block.splitlines()) <= allowed, block


class TestCrashSafety:
    """An index run that stops between two file writes leaves an index that
    loads whole or is reported corrupt, and the next run rebuilds it."""

    @staticmethod
    def corpus(tmp_path, grown=False):
        files = {**spark_changelog_corpus(), **assert_doc_corpus()}
        if grown:
            files["assert/23.md"] = doc_text(
                "Node.js Assert",
                "23.1.0",
                [("assert.ok(value)", ["Stability: 2 - Stable", "Tests whether value is truthy."])],
            )
        root = tmp_path / "corpus"
        write_corpus(root, files)
        return root

    @staticmethod
    def clean_index(tmp_path, corpus):
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION)
        return clean

    @pytest.mark.parametrize("grown", [False, True], ids=["same-corpus", "grown-corpus"])
    def test_failed_sidecar_replace_is_detected_and_rebuilt(self, tmp_path, monkeypatch, grown):
        """A failed replace of the sidecar leaves a hash mismatch that loading
        reports and the next run rebuilds. A re-index of the same corpus
        finds the index its manifest describes, so it replaces no file and
        never meets the failing replace."""
        corpus = self.corpus(tmp_path)
        out = tmp_path / "out"
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        vector_files = [out / "vectors.json", out / "vectors.npy"]
        before = [(path.read_bytes(), path.stat().st_ino) for path in vector_files]
        corpus = self.corpus(tmp_path, grown)

        real_replace = os.replace
        replaced = []

        def replace_failing_on_sidecar(src, dst):
            replaced.append(Path(dst).name)
            if Path(dst).name == "vectors.json":
                raise OSError("no space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_failing_on_sidecar)
        if grown:
            with pytest.raises(OSError):
                index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        else:
            index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        monkeypatch.undo()
        assert not list(out.glob("*.tmp"))

        if grown:
            # the new .npy went in, the old sidecar stayed: their hashes differ
            with pytest.raises(CorruptFileError):
                Engine.load(out, make_gateway())
        else:
            assert replaced == []
            assert [(path.read_bytes(), path.stat().st_ino) for path in vector_files] == before

        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        clean = self.clean_index(tmp_path, corpus)
        for name in INDEX_FILES:
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name
        Engine.load(out, make_gateway())

    def test_v1_index_is_rebuilt_with_a_warning(self, tmp_path, caplog):
        corpus = self.corpus(tmp_path)
        # the manifest vouches for the embedding model, so the old file is read
        out = self.clean_index(tmp_path / "old", corpus)
        v1 = {
            "format_version": 1,
            "dimension": DIMENSION,
            "entries": [{"key": "k", "metadata": {}, "text": "", "vector": [1.0] * DIMENSION}],
        }
        (out / "vectors.json").write_text(json.dumps(v1))
        with caplog.at_level(logging.WARNING):
            index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        assert "unreadable vector index" in caplog.text
        assert "format_version 1" in caplog.text
        clean = self.clean_index(tmp_path, corpus)
        for name in INDEX_FILES:
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    def test_v2_index_is_rebuilt_with_a_warning(self, tmp_path, caplog):
        corpus = self.corpus(tmp_path)
        out = self.clean_index(tmp_path, corpus)
        sidecar = json.loads((out / "vectors.json").read_text())
        sidecar["format_version"] = 2
        (out / "vectors.json").write_text(json.dumps(sidecar))
        gateway = make_gateway()
        with caplog.at_level(logging.WARNING):
            index_corpus(corpus, out, gateway, dimension=DIMENSION)
        assert "format_version 2" in caplog.text
        # the records come from graph.json: only the clustering completion is sent
        assert gateway.usage().calls == 1
        clean = self.clean_index(tmp_path / "again", corpus)
        for name in INDEX_FILES:
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name


class TestVectorFileWrites:
    """A re-index that finds the index its manifest describes writes no file
    at all; every other run writes ``vectors.npy`` and ``vectors.json``."""

    VECTOR_FILES = ("vectors.json", "vectors.npy")

    @staticmethod
    def indexed(tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, {**spark_changelog_corpus(), **assert_doc_corpus()})
        out = tmp_path / "out"
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        return corpus, out

    @staticmethod
    def files(out, names):
        return {name: ((out / name).read_bytes(), (out / name).stat().st_ino) for name in names}

    def test_unchanged_reindex_leaves_the_vector_files_untouched(self, tmp_path):
        """Every index file keeps its bytes, inode and mtime, the vector files included."""
        corpus, out = self.indexed(tmp_path)

        def state():
            paths = [out / name for name in (*INDEX_FILES, "summary.json", "manifest.json")]
            return {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in paths}

        before = state()
        summary = index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        assert (summary.chunks, summary.changes) == (0, 0)
        assert state() == before

    @pytest.mark.parametrize("edit", ["added-version", "deleted-file"])
    def test_reindex_that_inserts_or_drops_rewrites_the_vector_files(self, tmp_path, edit):
        corpus, out = self.indexed(tmp_path)
        vectors = self.files(out, self.VECTOR_FILES)
        if edit == "added-version":
            added = [("assert.fail(message)", ["Stability: 2 - Stable", "Throws an AssertionError."])]
            write_corpus(corpus, {"assert/23.md": doc_text("Node.js Assert", "23.11.0", added)})
        else:
            # the newest version: its chunks and records go, and nothing is re-extracted
            (corpus / "assert" / "22.md").unlink()
        summary = index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        if edit == "deleted-file":
            assert (summary.chunks, summary.changes) == (0, 0)
        now = self.files(out, self.VECTOR_FILES)
        assert all(now[name] != vectors[name] for name in self.VECTOR_FILES)
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION)
        for name in INDEX_FILES:
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    @pytest.mark.parametrize("damage", ["torn-npy", "missing-npy", "missing-sidecar"])
    def test_reindex_over_an_unreadable_index_rewrites_the_vector_files(self, tmp_path, damage):
        corpus, out = self.indexed(tmp_path)
        expected = {name: (out / name).read_bytes() for name in INDEX_FILES}
        npy, sidecar = out / "vectors.npy", out / "vectors.json"
        if damage == "torn-npy":
            npy.write_bytes(expected["vectors.npy"][:-8])
        else:
            (npy if damage == "missing-npy" else sidecar).unlink()
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        for name in INDEX_FILES:
            assert (out / name).read_bytes() == expected[name], name
        Engine.load(out, make_gateway())


def test_reindex_after_deletes_and_an_added_version_matches_a_fresh_index(tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, {**spark_changelog_corpus(), **assert_doc_corpus()})
    out = tmp_path / "out"
    index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
    (corpus / "assert" / "20.md").unlink()
    (corpus / "spark" / "2.4.7.md").unlink()
    added = [("assert.fail(message)", ["Stability: 2 - Stable", "Throws an AssertionError."])]
    write_corpus(corpus, {"assert/23.md": doc_text("Node.js Assert", "23.11.0", added)})
    index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
    clean = tmp_path / "clean"
    index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION)
    for name in INDEX_FILES:
        assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    engine = Engine.load(out, make_gateway())
    assert engine.validate() == []
    parsed = ParsedQuery("What changed in the assert module?", QueryIntent.CHANGE)
    context = engine.retrieve(parsed, k=100)
    assert context.mode is RetrievalMode.CHANGE_SEARCH
    versions = {item.version for item in context.items}
    assert "22.14.0 -> 23.11.0" in versions
    assert not any("20.19.0" in v or "2.4.7" in v for v in versions), versions


def test_a_version_inserted_mid_chain_keeps_pinned_queries_pure(tmp_path):
    """A re-index that adds 2.5 between 2.0 and 3.0 splits the run of a text
    that 2.5 lacks into one entry per side. A pinned query of each version
    gets only chunks of that version's own text, and the index is byte for
    byte a fresh index of the new corpus."""

    def text(label, changed):
        lines = [f"Shared usage line {i} of the widget tool says little." for i in range(120)]
        lines[60] = changed
        return doc_text("Widget Tool", label, [("usage", lines + [f"The retry limit is {label}."])])

    files = {f"tool/{label}.md": text(label, "Line sixty holds.") for label in ("2.0", "3.0")}
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    write_corpus(corpus, files)
    index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)

    def runs(index):
        found = {}
        for key in index.keys(CONTENT):
            entry = index.get(key)
            run = (entry.metadata["first"], entry.metadata["last"])
            found.setdefault(entry.text, []).append(run)
        return found

    before = runs(VectorIndex.load(out / "vectors.json"))
    assert ("2.0", "3.0") in [run for held in before.values() for run in held]
    files["tool/2.5.md"] = text("2.5", "Line sixty changed in 2.5.")
    write_corpus(corpus, files)
    index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
    clean = tmp_path / "clean"
    index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION)
    for name in (*INDEX_FILES, "manifest.json"):
        assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    engine = Engine.load(out, make_gateway())
    assert engine.validate() == []
    after = runs(engine.index)
    split = [t for t, held in after.items() if held == [("2.0", "2.0"), ("3.0", "3.0")]]
    assert split and all(before[t] == [("2.0", "3.0")] for t in split)
    document = engine.graph.documents()[0].id
    for path, body in files.items():
        label = path.rpartition("/")[2][: -len(".md")]
        question, version = "What does line sixty hold?", parse_version(label)
        parsed = ParsedQuery(question, QueryIntent.CONTENT, document=document, version=version)
        context = engine.retrieve(parsed, k=100)
        chunks = {chunk.text for chunk in chunk_document(raw(path, body))}
        assert {item.version for item in context.items} == {label}
        assert {item.text for item in context.items} == chunks


def test_a_newest_first_changelog_places_each_record_by_the_chain(tmp_path, capsys):
    """r3.md lists 3.0 above 2.5, and 2.5 has no file of its own. Each
    explicit record keeps no from-version, so the chain places it in the
    pair that ends at its release: the range 2.0 .. 3.0 holds the 2.5 item
    and both 3.0 items, through the graph, the CLI and a question alike."""
    r3 = "\n".join(
        [
            "# Widget Changelog",
            "",
            "Release notes for Widget.",
            "",
            "## Version 3.0",
            "",
            "- Added the turbo mode",
            "- Removed the legacy dial",
            "",
            "## Version 2.5",
            "",
            "- Fixed the stuck lever",
        ]
    )
    files = {"widget/r1.md": changelog_text("Widget", "2.0", ["Added the first dial"]), "widget/r3.md": r3 + "\n"}
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    write_corpus(corpus, files)
    index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
    expected = [
        ("2.5", "modified", "Fixed the stuck lever"),
        ("3.0", "added", "Added the turbo mode"),
        ("3.0", "removed", "Removed the legacy dial"),
    ]

    engine = Engine.load(out, make_gateway())
    assert engine.validate() == []
    assert all(record.from_version is None for record in engine.graph.change_records())
    document = engine.graph.documents()[0].id
    records = engine.graph.changes_between(document, "2.0", "3.0")
    assert [(r.to_version.raw, r.kind.value, r.description) for r in records] == expected

    result = engine.ask("What changed in Widget Changelog between 2.0 and 3.0?")
    assert result.context.mode is RetrievalMode.GRAPH_TRAVERSAL
    assert [(item.version, item.text) for item in result.context.items] == [
        (version, text) for version, _, text in expected
    ]

    capsys.readouterr()
    assert main(["changes", "Widget Changelog", "2.0", "3.0", "--index", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{version} [{kind}/explicit] {text}" for version, kind, text in expected
    ]

    files["widget/r2.md"] = changelog_text("Widget", "2.5", ["Fixed the stuck lever"])
    write_corpus(corpus, files)
    index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
    clean = tmp_path / "clean"
    index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION)
    for name in (*INDEX_FILES, "manifest.json"):
        assert (out / name).read_bytes() == (clean / name).read_bytes(), name
    assert Engine.load(out, make_gateway()).validate() == []


def test_a_changelog_without_records_is_not_prompted_again(tmp_path):
    """A changelog that yields no record is marked in the attribute cache, so
    a re-index after an edit elsewhere does not prompt it again."""
    changelog = "# Gadget Changelog\n\nRelease notes for Gadget.\n\nNothing has been released yet.\n"
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    write_corpus(corpus, {**assert_doc_corpus(), "gadget/CHANGELOG.md": changelog})
    first = RecordingBackend()
    index_corpus(corpus, out, Gateway(first, dimension=DIMENSION), dimension=DIMENSION)

    def extractions(backend):
        return [
            p
            for p in backend.prompts
            if p.startswith("The document below is a changelog") and "released yet" in p
        ]

    assert len(extractions(first)) == 1
    cache = json.loads((out / "attributes.json").read_bytes())
    (marked,) = [entry for key, entry in cache.items() if key.startswith("gadget/")]
    assert marked["doc_type"] == "changelog" and marked["no_changes"] is True

    edited = corpus / "assert" / "20.md"
    edited.write_text(edited.read_text().replace("truthy", "zorblax"), encoding="utf-8")
    again = RecordingBackend()
    summary = index_corpus(corpus, out, Gateway(again, dimension=DIMENSION), dimension=DIMENSION)
    assert summary.changes > 0  # the edited pair was extracted again
    assert extractions(again) == []
    clean = tmp_path / "clean"
    index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION)
    for name in (*INDEX_FILES, "manifest.json"):
        assert (out / name).read_bytes() == (clean / name).read_bytes(), name


class TestManifest:
    """A re-index stops after clustering when ``manifest.json`` records the
    same inputs and parameters and every file it lists is unchanged;
    anything else takes the full path."""

    indexed = staticmethod(TestVectorFileWrites.indexed)

    @pytest.mark.parametrize(
        "changed",
        [
            {"chunk_size": 128},
            {"overlap": 8},
            {"page_tokens": 100},
            {"page_tokens": 3},
            {"dimension": 32},
            {"chunk_size": 16, "overlap": 4},
        ],
        ids=[
            "chunk_size-128",
            "overlap-8",
            "page_tokens-100",
            "page_tokens-3",
            "dimension-32",
            "chunk_size-16-overlap-4",
        ],
    )
    def test_changed_parameter_takes_the_full_path(self, tmp_path, changed):
        """A re-index with other parameters writes what a fresh index with
        them writes: every chunk window and every vector of another
        dimension is embedded again."""
        corpus, out = self.indexed(tmp_path)
        params = {"dimension": DIMENSION, **changed}
        index_corpus(corpus, out, make_gateway(dimension=params["dimension"]), **params)
        manifest = json.loads((out / "manifest.json").read_text())
        assert {name: manifest[name] for name in changed} == changed
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(dimension=params["dimension"]), **params)
        for name in (*INDEX_FILES, "manifest.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name
        Engine.load(out, make_gateway(dimension=params["dimension"])).ask("What does assert.ok test?")

    class RewordingBackend(MockBackend):
        """Another completion model: the mock's summaries and change
        descriptions, reworded."""

        model = "rewording"

        def complete(self, prompt, schema, max_output_tokens):
            reply = super().complete(prompt, schema, max_output_tokens)
            data = json.loads(reply) if schema is not None else None
            if schema is ResponseSchema.CHANGE_SUMMARY:
                for change in data["changes"]:
                    change["description"] = "Reworded: " + change["description"]
            elif schema is ResponseSchema.ATTRIBUTES and "summary" in data:
                data["summary"] = "Reworded: " + data["summary"]
            else:
                return reply
            return json.dumps(data)

    class NegatingBackend(MockBackend):
        """Another embedding model of the same dimension: the mock's vectors, negated."""

        embedding_model = "negating"

        def embed(self, texts, dimension):
            return [-vector for vector in super().embed(texts, dimension)]

    @pytest.mark.parametrize(
        "backend,differs",
        [(RewordingBackend, "graph.json"), (NegatingBackend, "vectors.npy")],
        ids=["model", "embedding_model"],
    )
    def test_changed_model_takes_the_full_path(self, tmp_path, backend, differs):
        """A re-index by another model writes what a fresh index by it
        writes: attributes and change records of another completion model
        are extracted again, and vectors of another embedding model are
        embedded again."""
        corpus, out = self.indexed(tmp_path)
        index_corpus(corpus, out, Gateway(backend(), dimension=DIMENSION), dimension=DIMENSION)
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["model"], manifest["embedding_model"]) == (backend.model, backend.embedding_model)
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, Gateway(backend(), dimension=DIMENSION), dimension=DIMENSION)
        for name in (*INDEX_FILES, "manifest.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name
        # the other model made other files than the mock does
        plain = tmp_path / "plain"
        index_corpus(corpus, plain, make_gateway(), dimension=DIMENSION)
        assert (out / differs).read_bytes() != (plain / differs).read_bytes()

    @pytest.mark.parametrize(
        "backend",
        [MockBackend, RewordingBackend, NegatingBackend],
        ids=["same", "model", "embedding_model"],
    )
    def test_index_without_a_manifest_reuses_nothing(self, tmp_path, backend):
        """No manifest names the models that made the index's files, so a
        re-index embeds and extracts everything again, as a fresh index does."""
        corpus, out = self.indexed(tmp_path)
        (out / "manifest.json").unlink()
        clean = tmp_path / "clean"
        summary, fresh = (
            index_corpus(corpus, d, Gateway(backend(), dimension=DIMENSION), dimension=DIMENSION)
            for d in (out, clean)
        )
        assert summary.to_dict() == fresh.to_dict()
        for name in (*INDEX_FILES, "manifest.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    @pytest.mark.parametrize("damage", ["deleted", "invalid-json", "not-an-object"])
    def test_damaged_attribute_cache_takes_the_full_path(self, tmp_path, damage):
        """The manifest's sha256 of attributes.json is the only guard of the
        cache: every file's attributes are extracted again."""
        corpus, out = self.indexed(tmp_path)
        cache = out / "attributes.json"
        if damage == "deleted":
            cache.unlink()
        else:
            cache.write_text("{not json" if damage == "invalid-json" else "[1, 2]", encoding="utf-8")
        backend = RecordingBackend()
        index_corpus(corpus, out, Gateway(backend, dimension=DIMENSION), dimension=DIMENSION)
        files = len(list(corpus.rglob("*.md")))
        assert len(backend.prompts) == 2 * files + 1
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION)
        for name in (*INDEX_FILES, "manifest.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    @pytest.mark.parametrize("damage", ["a-list", "a-number-title"])
    def test_cached_entry_that_is_not_an_attribute_object_is_a_miss(self, tmp_path, damage):
        corpus, out = self.indexed(tmp_path)
        cache = out / "attributes.json"
        entries = json.loads(cache.read_text())
        (damaged,) = [key for key in entries if key.startswith("assert/21.md:")]
        entries[damaged] = ["not", "attributes"] if damage == "a-list" else {**entries[damaged], "title": 5}
        cache.write_text(json.dumps(entries), encoding="utf-8")
        backend = RecordingBackend()
        index_corpus(corpus, out, Gateway(backend, dimension=DIMENSION), dimension=DIMENSION)
        # the metadata and doc-type prompts of that file, then clustering
        assert len(backend.prompts) == 3
        assert "Version: 21.7.3" in backend.prompts[0]
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION)
        for name in (*INDEX_FILES, "manifest.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    @pytest.mark.parametrize("then", ["grown", "reverted"])
    @pytest.mark.parametrize(
        "stop_at", ["vectors.npy", "vectors.json", "attributes.json", "summary.json", "manifest.json"]
    )
    def test_run_stopped_before_the_manifest_is_built_again(self, tmp_path, monkeypatch, stop_at, then):
        """A grown-corpus run stops after replacing graph.json: re-indexing
        the grown corpus, or the corpus reverted to what the manifest
        describes, writes what a fresh index of it writes."""
        corpus = TestCrashSafety.corpus(tmp_path)
        out = tmp_path / "out"
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        graph_before = (out / "graph.json").read_bytes()
        TestCrashSafety.corpus(tmp_path, grown=True)

        real_replace = os.replace

        def replace_stopping_at(src, dst):
            if Path(dst).name == stop_at:
                raise OSError("stopped")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_stopping_at)
        with pytest.raises(OSError):
            index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        monkeypatch.undo()
        assert (out / "graph.json").read_bytes() != graph_before

        if then == "reverted":
            (corpus / "assert" / "23.md").unlink()
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION)
        for name in (*INDEX_FILES, "manifest.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name
        Engine.load(out, make_gateway())

    def test_run_stopped_after_the_graph_reuses_none_of_its_records(self, tmp_path, monkeypatch):
        """A run over an edited version stops after replacing graph.json,
        and the edit is undone: the records in that graph.json came from the
        edited text, so the next run extracts every change again."""
        corpus, out = self.indexed(tmp_path)
        edited = corpus / "assert" / "22.md"
        original = edited.read_text()
        edited.write_text(original.replace("partialDeepStrictEqual", "zorblaxEqual"), encoding="utf-8")
        real_replace = os.replace

        def replace_stopping_at_vectors(src, dst):
            if Path(dst).name == "vectors.npy":
                raise OSError("stopped")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_stopping_at_vectors)
        with pytest.raises(OSError):
            index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        monkeypatch.undo()
        edited.write_text(original, encoding="utf-8")
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION)
        for name in (*INDEX_FILES, "manifest.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    def test_file_edited_in_place_is_extracted_again(self, tmp_path):
        corpus, out = self.indexed(tmp_path)
        edited = corpus / "assert" / "22.md"
        edited.write_text(edited.read_text().replace("truthy", "zorblax"), encoding="utf-8")
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        backend = RecordingBackend()
        index_corpus(corpus, out, Gateway(backend, dimension=DIMENSION), dimension=DIMENSION)
        # the metadata and doc-type prompts of the edited file, clustering,
        # then the summary of the one version pair the edited file is in
        assert len(backend.prompts) == 4
        assert "zorblax" in backend.prompts[0]
        assert "between version 21.7.3 and\nversion 22.14.0" in backend.prompts[3]
        assert "zorblax" in backend.prompts[3]
        assert json.loads((out / "manifest.json").read_text())["inputs"] != inputs

    @pytest.mark.parametrize("lost", ["deleted", "page_tokens-100"])
    def test_lost_attribute_cache_keeps_the_changes_of_unchanged_files(self, tmp_path, lost):
        """Change records are reused by the sources their ids name, not by
        the attribute cache: with the cache deleted, or dropped by another
        page_tokens, and one version edited, every file's attributes are
        extracted again, but only the edited version's pair is summarized."""
        corpus, out = self.indexed(tmp_path)
        params = {"dimension": DIMENSION}
        if lost == "deleted":
            (out / "attributes.json").unlink()
        else:
            params["page_tokens"] = 100
        edited = corpus / "assert" / "22.md"
        edited.write_text(edited.read_text().replace("truthy", "zorblax"), encoding="utf-8")
        backend = RecordingBackend()
        index_corpus(corpus, out, Gateway(backend, dimension=DIMENSION), **params)
        files = len(list(corpus.rglob("*.md")))
        # two attribute prompts per file, clustering, and one change summary
        assert len(backend.prompts) == 2 * files + 2
        assert "between version 21.7.3 and\nversion 22.14.0" in backend.prompts[-1]
        assert "zorblax" in backend.prompts[-1]
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(), **params)
        for name in (*INDEX_FILES, "manifest.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    def test_changelog_version_from_its_attributes_is_part_of_its_source(self, tmp_path):
        """The extraction prompt names the version of a changelog's
        attributes, and another page_tokens can change it: at 3 tokens this
        changelog's first page has no version, so its bullets get none, and a
        re-index must not keep the records extracted at 500."""
        corpus = tmp_path / "corpus"
        write_corpus(corpus, {"gadget/notes.md": "Gadget release notes 1.2.0\n\n- Added the gadget dial\n"})
        out = tmp_path / "out"
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        assert Engine.load(out, make_gateway()).graph.change_records()
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION, page_tokens=3)
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION, page_tokens=3)
        for name in (*INDEX_FILES, "manifest.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    def test_root_given_another_way_is_the_same_corpus(self, tmp_path, monkeypatch):
        """A corpus indexed through a relative root and re-indexed through its
        absolute path is unchanged: only the clustering completion is sent,
        and all six files keep their bytes, inode and mtime."""
        monkeypatch.chdir(tmp_path)
        write_corpus(tmp_path / "corpus", {**spark_changelog_corpus(), **assert_doc_corpus()})
        out = tmp_path / "out"
        index_corpus("corpus", out, make_gateway(), dimension=DIMENSION)

        def state():
            paths = [out / name for name in (*INDEX_FILES, "summary.json", "manifest.json")]
            return {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in paths}

        before = state()
        backend = RecordingBackend()
        index_corpus(tmp_path / "corpus", out, Gateway(backend, dimension=DIMENSION), dimension=DIMENSION)
        assert len(backend.prompts) == 1 and backend.batches == []
        assert state() == before

    @pytest.mark.parametrize(
        "files,edited,old,new,question,wanted",
        [
            (
                {"gadget/CHANGELOG.md": changelog_text("Gadget", "1.0.0", ["Added the gadget dial"])},
                "gadget/CHANGELOG.md",
                "- Added the gadget dial\n",
                "- Added the gadget dial\n\n## Version 1.1.0\n\n- Removed the zorblax switch\n",
                "Which release removed the zorblax switch?",
                "Removed the zorblax switch",
            ),
            (
                assert_doc_corpus(),
                "assert/22.md",
                "partialDeepStrictEqual",
                "zorblaxEqual",
                "Which version added zorblaxEqual to Node.js Assert?",
                "## assert.zorblaxEqual(actual, expected)",
            ),
        ],
        ids=["grown-changelog", "version-edited-in-place"],
    )
    def test_edited_file_has_its_changes_extracted_again(
        self, tmp_path, files, edited, old, new, question, wanted
    ):
        """The change records of a changelog that grew a release, or of the
        version pairs of a version edited in place, are extracted again:
        the index is what a fresh index writes, and the question about the
        edit reads the new record."""
        corpus = tmp_path / "corpus"
        write_corpus(corpus, files)
        out = tmp_path / "out"
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        path = corpus / edited
        path.write_text(path.read_text().replace(old, new), encoding="utf-8")
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION)
        for name in (*INDEX_FILES, "manifest.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

        result = Engine.load(out, make_gateway()).ask(question)
        assert wanted in [item.text for item in result.context.items]

    def test_version_edited_in_place_gets_its_new_text(self, tmp_path):
        """Every content entry of an edited version holds its new text, as in
        a fresh index, and a question pinned to that version reads it."""
        corpus, out = self.indexed(tmp_path)
        edited = corpus / "assert" / "22.md"
        edited.write_text(edited.read_text().replace("truthy", "zorblax"), encoding="utf-8")
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION)

        def content(index_dir):
            entries = sidecar_entries(json.loads((index_dir / "vectors.json").read_text()))
            return [e for e in entries if e["metadata"]["origin"] == "content"]

        assert content(out) == content(clean)
        engine = Engine.load(out, make_gateway())
        (document,) = [d for d in engine.graph.documents() if d.title == "Node.js Assert"]
        parsed = ParsedQuery(
            "Which value does assert.ok test for zorblax?",
            QueryIntent.CONTENT,
            document=document.id,
            version=parse_version("22.14.0"),
        )
        context = engine.retrieve(parsed, k=10)
        assert context.items and {item.version for item in context.items} == {"22.14.0"}
        texts = " ".join(item.text for item in context.items)
        assert "zorblax" in texts and "truthy" not in texts

    def test_skipped_run_returns_what_a_full_reindex_returns(self, tmp_path):
        corpus, out = self.indexed(tmp_path)
        full = tmp_path / "full"
        full.mkdir()
        for name in (*INDEX_FILES, "summary.json"):
            (full / name).write_bytes((out / name).read_bytes())
        manifest = (out / "manifest.json").stat()
        # a manifest whose inputs differ sends the run down the full path over the same index
        copied = json.loads((out / "manifest.json").read_bytes())
        copied["inputs"] = "0" * 64
        (full / "manifest.json").write_bytes(json_bytes(copied))

        skipped = index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        rebuilt = index_corpus(corpus, full, make_gateway(), dimension=DIMENSION)
        assert (out / "manifest.json").stat().st_mtime_ns == manifest.st_mtime_ns
        assert (full / "manifest.json").read_bytes() == (out / "manifest.json").read_bytes()
        assert skipped.to_dict() == rebuilt.to_dict()
        assert skipped.graph.to_dict() == rebuilt.graph.to_dict()

    @staticmethod
    def counted_loads(monkeypatch) -> list:
        """The path of each ``VersionGraph.load`` or ``load_change_records``
        call from now on."""
        loads = []
        for name in ("load", "load_change_records"):
            real = getattr(VersionGraph, name).__func__

            def load(cls, path, real=real):
                loads.append(Path(path))
                return real(cls, path)

            monkeypatch.setattr(VersionGraph, name, classmethod(load))
        return loads

    def test_skipped_run_parses_no_graph(self, tmp_path, monkeypatch):
        """The run sends its one clustering completion, embeds nothing and
        loads no graph."""
        corpus, out = self.indexed(tmp_path)
        loads = self.counted_loads(monkeypatch)
        backend = RecordingBackend()
        summary = index_corpus(corpus, out, Gateway(backend, dimension=DIMENSION), dimension=DIMENSION)
        assert (summary.chunks, summary.changes) == (0, 0)
        assert len(backend.prompts) == 1 and backend.batches == []
        assert loads == []

    def test_skipped_run_loads_its_graph_on_first_read(self, tmp_path, monkeypatch):
        corpus, out = self.indexed(tmp_path)
        loads = self.counted_loads(monkeypatch)
        summary = index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        graph = summary.graph
        assert loads == [out / "graph.json"]
        summary.to_dict()
        assert summary.graph is graph
        assert loads == [out / "graph.json"]
        assert graph.to_dict() == VersionGraph.load(out / "graph.json").to_dict()

    @pytest.mark.parametrize("run", ["fresh", "edited"])
    def test_full_run_returns_the_graph_it_saved(self, tmp_path, monkeypatch, run):
        """Reading a full run's graph loads nothing; a re-index loads the old
        graph once during the run, for its change records."""
        if run == "fresh":
            corpus, out = tmp_path / "corpus", tmp_path / "out"
            write_corpus(corpus, {**spark_changelog_corpus(), **assert_doc_corpus()})
        else:
            corpus, out = self.indexed(tmp_path)
            edited = corpus / "assert" / "22.md"
            edited.write_text(edited.read_text().replace("truthy", "zorblax"), encoding="utf-8")
        loads = self.counted_loads(monkeypatch)
        summary = index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        expected = [] if run == "fresh" else [out / "graph.json"]
        assert loads == expected
        assert json_bytes(summary.graph.to_dict()) == (out / "graph.json").read_bytes()
        assert loads == expected

    @pytest.mark.parametrize("damage", ["none", "torn-npy", "signed"])
    def test_run_reads_each_hashed_file_once(self, tmp_path, monkeypatch, damage):
        """Without the stat signature, the attribute cache is parsed and
        hashed from one read, and a run whose manifest check fails on another
        file hashes graph.json once, both for that check and to decide
        whether to reuse its change records. With the signature in place,
        attributes.json is the one index file read, once."""
        if damage == "signed":
            corpus, out = TestStatSignature.signed(tmp_path)
        else:
            corpus, out = self.indexed(tmp_path)
            (out / SIGNATURE_FILE).unlink(missing_ok=True)
        if damage == "torn-npy":
            npy = out / "vectors.npy"
            npy.write_bytes(npy.read_bytes()[:-8])
        reads = []
        for method in ("read_bytes", "read_text"):
            real = getattr(Path, method)

            def counted(path, *args, real=real, **kwargs):
                reads.append(path.name)
                return real(path, *args, **kwargs)

            monkeypatch.setattr(Path, method, counted)
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        if damage == "signed":
            expected = {**dict.fromkeys(INDEX_FILES, 0), "attributes.json": 1}
            assert {name: reads.count(name) for name in INDEX_FILES} == expected
            return
        once = INDEX_FILES if damage == "none" else ("graph.json", "attributes.json")
        assert {name: reads.count(name) for name in once} == dict.fromkeys(once, 1)

    @pytest.mark.parametrize("damage", ["truncated", "not-utf8"])
    def test_manifest_edited_to_describe_a_damaged_graph(self, tmp_path, damage):
        """A manifest rewritten by hand to record the sha256 of a damaged
        graph.json describes that file, so the re-index stops after
        clustering; its graph is reported as corrupt on first read."""
        corpus, out = self.indexed(tmp_path)
        graph = out / "graph.json"
        data = graph.read_bytes()
        graph.write_bytes(data[:-100] if damage == "truncated" else b"\xff" + data)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"]["graph.json"] = hashlib.sha256(graph.read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        backend = RecordingBackend()
        summary = index_corpus(corpus, out, Gateway(backend, dimension=DIMENSION), dimension=DIMENSION)
        assert len(backend.prompts) == 1 and backend.batches == []
        with pytest.raises(CorruptFileError, match="cannot read graph file"):
            summary.graph
        with pytest.raises(CorruptFileError):
            summary.to_dict()

    def test_skipped_run_sends_only_the_clustering_completion_and_no_embed_call(self, tmp_path):
        corpus, out = self.indexed(tmp_path)
        backend = RecordingBackend()
        index_corpus(corpus, out, Gateway(backend, dimension=DIMENSION), dimension=DIMENSION)
        assert backend.batches == []
        assert len(backend.prompts) == 1


def same_size_edit(corpus, out):
    """One file's text changes but not its size or mtime."""
    path = corpus / "assert" / "22.md"
    stat = path.stat()
    path.write_text(path.read_text(encoding="utf-8").replace("truthy", "zorbly"), encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    return corpus, out


def replaced_by_rename(corpus, out):
    """One file is replaced by another of the same size and mtime."""
    path = corpus / "assert" / "22.md"
    stat = path.stat()
    new = path.with_name("22.md.new")
    new.write_text(path.read_text(encoding="utf-8").replace("truthy", "zorbly"), encoding="utf-8")
    os.utime(new, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    os.replace(new, path)
    return corpus, out


def renamed(corpus, out):
    path = corpus / "assert" / "22.md"
    path.rename(path.with_name("22-renamed.md"))
    return corpus, out


def new_empty_file(corpus, out):
    (corpus / "assert" / "empty.md").write_bytes(b"")
    return corpus, out


def racy_row(corpus, out):
    """The signature is dated back to the newest mtime or ctime it holds."""
    paths = [*corpus.rglob("*.md"), *(out / name for name in (*INDEX_FILES, "manifest.json"))]
    newest = max(max(p.stat().st_mtime_ns, p.stat().st_ctime_ns) for p in paths)
    os.utime(out / SIGNATURE_FILE, ns=(newest, newest))
    return corpus, out


def signature_deleted(corpus, out):
    (out / SIGNATURE_FILE).unlink()
    return corpus, out


def signature_truncated(corpus, out):
    path = out / SIGNATURE_FILE
    path.write_bytes(path.read_bytes()[:20])
    return corpus, out


def signature_not_json(corpus, out):
    (out / SIGNATURE_FILE).write_bytes(b"\xff not json")
    return corpus, out


def graph_damaged_in_place(corpus, out):
    """A byte of a title in graph.json changes; its size and mtime do not,
    and ``verdoc validate`` reports it."""
    path = out / "graph.json"
    stat = path.stat()
    with open(path, "r+b") as handle:
        handle.seek(path.read_bytes().index(b"Node.js Assert"))
        handle.write(b"M")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    assert main(["validate", "--index", str(out)]) == 2
    assert manifest_problems(out) == ["graph.json: sha256 differs from the one in manifest.json"]
    return corpus, out


def copied_elsewhere(corpus, out):
    """The corpus and the index are copied, mtimes included, to another directory."""
    elsewhere = out.parent / "elsewhere"
    shutil.copytree(corpus, elsewhere / "corpus")
    shutil.copytree(out, elsewhere / "out")
    return elsewhere / "corpus", elsewhere / "out"


class TestStatSignature:
    """A re-index whose stat signature vouches for the corpus and the index
    reads no corpus text and hashes no index file. Every other re-index
    takes the hashing path, and ends in the bytes a fresh index writes."""

    @staticmethod
    def signed(tmp_path):
        """An indexed corpus whose signature is in place: the first run
        writes none when a corpus file is as new as the run, and the
        second, hashing, run writes it then."""
        corpus, out = TestVectorFileWrites.indexed(tmp_path)
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        assert (out / SIGNATURE_FILE).exists()
        return corpus, out

    @staticmethod
    def hashed(monkeypatch) -> list:
        """The name of each file read whole from now on: graph.json is read
        only to hash it."""
        reads = []
        real = Path.read_bytes

        def counted(path):
            reads.append(path.name)
            return real(path)

        monkeypatch.setattr(Path, "read_bytes", counted)
        return reads

    def test_unchanged_reindex_reads_and_writes_no_index_file(self, tmp_path, monkeypatch):
        corpus, out = self.signed(tmp_path)
        names = (*INDEX_FILES, "summary.json", "manifest.json", SIGNATURE_FILE)

        def state():
            return {n: ((out / n).read_bytes(), (out / n).stat().st_ino, (out / n).stat().st_mtime_ns) for n in names}

        before = state()
        reads = self.hashed(monkeypatch)
        texts = []
        real = CorpusFile.read
        monkeypatch.setattr(CorpusFile, "read", lambda file: texts.append(file) or real(file))
        backend = RecordingBackend()
        summary = index_corpus(corpus, out, Gateway(backend, dimension=DIMENSION), dimension=DIMENSION)
        assert reads == ["manifest.json", "attributes.json"] and texts == []
        assert len(backend.prompts) == 1 and backend.batches == []
        monkeypatch.undo()
        assert state() == before
        assert summary.to_dict() == json.loads((out / "summary.json").read_bytes()) | {
            "chunks": 0,
            "changes": 0,
            "usage": summary.usage.to_dict(),
        }

    @pytest.mark.parametrize(
        "change",
        [
            same_size_edit,
            replaced_by_rename,
            renamed,
            new_empty_file,
            racy_row,
            signature_deleted,
            signature_truncated,
            signature_not_json,
            graph_damaged_in_place,
            copied_elsewhere,
        ],
    )
    def test_any_other_reindex_hashes_and_ends_in_a_fresh_index_bytes(self, tmp_path, monkeypatch, change):
        corpus, out = self.signed(tmp_path)
        before = {name: (out / name).read_bytes() for name in (*INDEX_FILES, "summary.json", "manifest.json")}
        corpus, out = change(corpus, out)
        reads = self.hashed(monkeypatch)
        index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        assert "graph.json" in reads
        monkeypatch.undo()
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION)
        for name in (*INDEX_FILES, "manifest.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name
        if change in (new_empty_file, racy_row, signature_deleted, signature_truncated, signature_not_json, copied_elsewhere):
            # the index was current: the run wrote the signature and nothing else
            assert {name: (out / name).read_bytes() for name in before} == before
            assert (out / SIGNATURE_FILE).exists()

    def test_each_run_walks_the_corpus_once(self, tmp_path, monkeypatch):
        """A fresh index, a re-index the signature vouches for and one that
        hashes each list the corpus root once: loading and the signature
        share one walk."""
        corpus = tmp_path / "corpus"
        write_corpus(corpus, assert_doc_corpus())
        out = tmp_path / "out"
        listed = []
        real = os.scandir
        monkeypatch.setattr(os, "scandir", lambda path: listed.append(Path(path)) or real(path))
        for run in ("fresh", "fresh-or-refresh", "vouched", "hashed"):
            if run == "hashed":
                (out / SIGNATURE_FILE).unlink()
            index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
            assert listed.count(corpus) == 1, run
            listed.clear()

    def test_fast_path_logs_the_files_it_skips(self, tmp_path, caplog, monkeypatch):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, assert_doc_corpus())
        (corpus / "assert" / "empty.md").write_text("  \n", encoding="utf-8")
        (corpus / "assert" / "latin1.md").write_bytes(b"caf\xe9\n")
        out = tmp_path / "out"
        for _ in range(2):
            index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        reads = self.hashed(monkeypatch)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="verdoc.ingestion"):
            index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
        assert "graph.json" not in reads
        skipped = sorted(r.getMessage().split(" file ")[0] + " " + Path(r.args[0]).name for r in caplog.records)
        assert skipped == ["skipping empty empty.md", "skipping unreadable latin1.md"]

    def test_stale_index_reads_each_text_once_and_clusters_once(self, tmp_path, monkeypatch):
        """A vouched-for corpus whose index was built with another chunk size
        is read, each file once, and sends only its clustering completion."""
        corpus, out = self.signed(tmp_path)
        texts = []
        real = CorpusFile.read
        monkeypatch.setattr(CorpusFile, "read", lambda file: texts.append(file.source_path) or real(file))
        backend = RecordingBackend()
        index_corpus(corpus, out, Gateway(backend, dimension=DIMENSION), dimension=DIMENSION, chunk_size=128)
        assert len(backend.prompts) == 1
        assert sorted(texts) == sorted(p.relative_to(corpus).as_posix() for p in corpus.rglob("*.md"))
        monkeypatch.undo()
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION, chunk_size=128)
        for name in (*INDEX_FILES, "manifest.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    def test_file_changed_after_clustering_starts_the_run_over(self, tmp_path, monkeypatch, caplog):
        """The catalog of a vouched-for corpus names the texts its files held;
        a file edited before its text is read sends the run back to the
        start, so no stage sees the old text and the new one together."""
        corpus, out = self.signed(tmp_path)
        real = indexer.catalog_documents
        edits = []

        def edit_after(*args, **kwargs):
            catalog = real(*args, **kwargs)
            if not edits:
                edits.append(same_size_edit(corpus, out))
            return catalog

        monkeypatch.setattr(indexer, "catalog_documents", edit_after)
        with caplog.at_level(logging.WARNING, logger="verdoc.indexer"):
            index_corpus(corpus, out, make_gateway(), dimension=DIMENSION, chunk_size=128)
        assert "a corpus file changed during the run" in caplog.text
        monkeypatch.undo()
        clean = tmp_path / "clean"
        index_corpus(corpus, clean, make_gateway(), dimension=DIMENSION, chunk_size=128)
        for name in (*INDEX_FILES, "manifest.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name
