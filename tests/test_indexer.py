import json
import math

import pytest

from verdoc.errors import (
    AttributeExtractionError,
    ClusteringError,
    EmptyCorpusError,
    IndexingError,
)
from verdoc.gateway import MockBackend
from verdoc.graph import EdgeKind, VersionGraph
from verdoc.indexer import (
    DocumentAttributes,
    build_graph,
    cluster_documents,
    extract_attributes,
    index_content,
    index_corpus,
    index_documents,
)
from verdoc.ingestion import RawDocument, count_tokens
from verdoc.vector_index import VectorIndex
from verdoc.versions import parse_version

from conftest import (
    DIMENSION,
    assert_doc_corpus,
    changelog_text,
    doc_text,
    make_gateway,
    marker_corpus,
    raw,
    spark_changelog_corpus,
    write_corpus,
)


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

    def test_three_versions_two_chain_edges(self):
        catalog = self.catalog_for({"Doc": ["1.0", "2.0", "3.0"]})
        graph = build_graph(catalog)
        chain_edges = [e for e in graph.edges if e.kind is EdgeKind.NEXT_VERSION]
        assert len(chain_edges) == 2  # oracle: n - 1 edges

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
        graph, catalog, gateway, index, doc = self.build(1000)
        count = index_content(graph, catalog, gateway, index)
        total = count_tokens(doc.text)
        expected = math.ceil((total - 50) / (512 - 50)) if total > 512 else 1
        assert count == expected  # oracle: chunk-count formula
        refs = graph.content_refs()
        assert len(refs) == expected
        assert len(index) == expected

    def test_rerun_is_idempotent(self):
        graph, catalog, gateway, index, _ = self.build(1000)
        first = index_content(graph, catalog, gateway, index)
        assert first > 0
        again = index_content(graph, catalog, gateway, index)
        assert again == 0
        assert len(index) == first

    def test_content_ref_count_equals_index_size(self):
        graph, catalog, gateway, index, _ = self.build(2500)
        index_content(graph, catalog, gateway, index)
        content_entries = [
            key for key in index.keys() if index.get(key).metadata["origin"] == "content"
        ]
        assert len(graph.content_refs()) == len(content_entries)


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
        assert loaded.structurally_equal(summary.graph)

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
        assert loaded.structurally_equal(summary.graph)

    def test_step_failures_carry_step_name(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.md").write_text("# A\n\nbody text\n", encoding="utf-8")
        script = [{"schema": "attributes", "match": [], "reply": "junk"}]
        with pytest.raises(IndexingError) as excinfo:
            index_corpus(corpus, tmp_path / "out", make_gateway(script=script), dimension=DIMENSION)
        assert excinfo.value.step == "attributes"


class RecordingBackend:
    """Wraps the offline backend and captures every completion prompt."""

    def __init__(self):
        self.inner = MockBackend()
        self.prompts = []

    def complete(self, prompt, schema, max_output_tokens):
        self.prompts.append(prompt)
        return self.inner.complete(prompt, schema, max_output_tokens)

    def embed(self, texts, dimension):
        return self.inner.embed(texts, dimension)


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
    total_tokens = sum(d.token_count for d in documents)
    gateway = make_gateway()
    index = VectorIndex(dimension=DIMENSION)
    summary = index_documents(documents, gateway, index)
    assert summary.usage.input_tokens < total_tokens
    # chunks cover everything, so a send-every-chunk baseline costs >= N tokens
    naive_tokens = sum(
        count_tokens(index.get(key).text) for key in index.keys()
        if index.get(key).metadata.get("origin") == "content"
    )
    assert naive_tokens >= total_tokens
