import itertools

import pytest

from verdoc.engine import Engine
from verdoc.errors import (
    CorruptFileError,
    EmptyIndexError,
    QueryParseError,
    VersionNotFoundError,
)
from verdoc.indexer import index_documents
from verdoc.ingestion import RawDocument
from verdoc.retrieval import (
    ParsedQuery,
    QueryIntent,
    RetrievalMode,
    parse_query,
    parse_query_safe,
    resolve_document,
    retrieve,
    select_mode,
)
from verdoc.vector_index import IndexEntry, MetadataFilter, VectorIndex
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
)


@pytest.fixture(scope="module")
def indexed():
    """One indexed corpus shared by the read-only retrieval tests."""
    gateway = make_gateway()
    files = {**spark_changelog_corpus(), **assert_doc_corpus()}
    documents = [raw(path, text) for path, text in sorted(files.items())]
    index = VectorIndex(dimension=DIMENSION)
    summary = index_documents(documents, gateway, index)
    return summary.graph, index, gateway


class TestParseQuery:
    def test_version_specific_content_question(self, indexed):
        graph, _, gateway = indexed
        parsed = parse_query(
            "What is the stability level of the assert.CallTracker in Node.js version 20.19.0?",
            graph,
            gateway,
        )
        assert parsed.intent is QueryIntent.CONTENT
        assert graph.nodes[parsed.document].title == "Node.js Assert"
        assert parsed.version.raw == "20.19.0"

    def test_version_listing_question(self, indexed):
        graph, _, gateway = indexed
        parsed = parse_query("What Apache Spark versions are available?", graph, gateway)
        assert parsed.intent is QueryIntent.VERSION
        assert graph.nodes[parsed.document].title == "Apache Spark Changelog"

    def test_change_question(self, indexed):
        graph, _, gateway = indexed
        parsed = parse_query("In which version was assert.deepEqual() removed?", graph, gateway)
        assert parsed.intent is QueryIntent.CHANGE
        assert graph.nodes[parsed.document].title == "Node.js Assert"

    def test_change_question_with_range(self, indexed):
        graph, _, gateway = indexed
        parsed = parse_query(
            "What changed in Node.js Assert between 21.7.3 and 22.14.0?", graph, gateway
        )
        assert parsed.intent is QueryIntent.CHANGE
        assert parsed.version_range is not None
        assert parsed.version_range[0].raw == "21.7.3"
        assert parsed.version_range[1].raw == "22.14.0"

    def test_unresolvable_names_left_absent(self, indexed):
        graph, _, gateway = indexed
        parsed = parse_query("What is the capital of France?", graph, gateway)
        assert parsed.document is None

    def test_empty_query_rejected(self, indexed):
        graph, _, gateway = indexed
        with pytest.raises(QueryParseError):
            parse_query("   ", graph, gateway)

    def test_parse_failure_degrades_to_unfiltered_content(self, indexed):
        graph, _, _ = indexed
        broken = make_gateway(
            script=[{"schema": "parsed_query", "match": [], "reply": "never json"}]
        )
        parsed = parse_query_safe("anything at all", graph, broken)
        assert parsed.intent is QueryIntent.CONTENT
        assert parsed.document is None and parsed.version is None


class TestSelectMode:
    def test_version_intent_routes_to_graph(self):
        parsed = ParsedQuery(text="q", intent=QueryIntent.VERSION)
        assert select_mode(parsed) is RetrievalMode.GRAPH_TRAVERSAL

    def test_change_without_range_routes_to_change_search(self):
        parsed = ParsedQuery(text="q", intent=QueryIntent.CHANGE, document="document:x")
        assert select_mode(parsed) is RetrievalMode.CHANGE_SEARCH

    def test_change_with_document_and_range_routes_to_graph(self):
        parsed = ParsedQuery(
            text="q",
            intent=QueryIntent.CHANGE,
            document="document:x",
            version_range=(parse_version("1.0"), parse_version("2.0")),
        )
        assert select_mode(parsed) is RetrievalMode.GRAPH_TRAVERSAL

    def test_content_routes_to_vector_search(self):
        parsed = ParsedQuery(text="q", intent=QueryIntent.CONTENT, version=parse_version("1.0"))
        assert select_mode(parsed) is RetrievalMode.VECTOR_SEARCH

    def test_total_and_deterministic_over_all_shapes(self):
        rng_range = (parse_version("1.0"), parse_version("2.0"))
        for intent, doc, cat, ver, rng in itertools.product(
            list(QueryIntent),
            [None, "document:d"],
            [None, "category:c"],
            [None, parse_version("1.0")],
            [None, rng_range],
        ):
            parsed = ParsedQuery(
                text="q", intent=intent, document=doc, category=cat, version=ver, version_range=rng
            )
            mode = select_mode(parsed)
            assert mode is select_mode(parsed)
            if intent is QueryIntent.VERSION:
                assert mode is RetrievalMode.GRAPH_TRAVERSAL
            elif intent is QueryIntent.CONTENT:
                assert mode is RetrievalMode.VECTOR_SEARCH
            elif doc is not None and rng is not None:
                assert mode is RetrievalMode.GRAPH_TRAVERSAL
            else:
                assert mode is RetrievalMode.CHANGE_SEARCH


class TestRetrieve:
    def test_version_listing_returns_six_items(self, indexed):
        graph, index, gateway = indexed
        parsed = parse_query("What Apache Spark versions are available?", graph, gateway)
        context = retrieve(parsed, graph, index, gateway)
        assert context.mode is RetrievalMode.GRAPH_TRAVERSAL
        assert [item.text for item in context.items] == [
            "Version 2.4.7",
            "Version 3.3.4",
            "Version 3.4.4",
            "Version 3.5.3",
            "Version 3.5.4",
            "Version 3.5.5",
        ]

    def test_version_listing_never_touches_vector_index(self, indexed, monkeypatch):
        graph, index, gateway = indexed
        parsed = parse_query("What Apache Spark versions are available?", graph, gateway)

        def no_search(*args, **kwargs):
            raise AssertionError("the version route searched the vector index")

        monkeypatch.setattr(VectorIndex, "search", no_search)
        retrieve(parsed, graph, index, gateway)

    def test_version_filtered_content_is_pure(self, indexed):
        graph, index, gateway = indexed
        parsed = parse_query(
            "What is the stability level of the assert.CallTracker in Node.js version 20.19.0?",
            graph,
            gateway,
        )
        context = retrieve(parsed, graph, index, gateway)
        assert context.mode is RetrievalMode.VECTOR_SEARCH
        assert context.items
        assert all(item.version == "20.19.0" for item in context.items)

    def test_missing_version_lists_available(self, indexed):
        graph, index, gateway = indexed
        parsed = ParsedQuery(
            text="q",
            intent=QueryIntent.CONTENT,
            document=resolve_document(graph, "Node.js Assert").id,
            version=parse_version("99.0.0"),
        )
        with pytest.raises(VersionNotFoundError) as excinfo:
            retrieve(parsed, graph, index, gateway)
        assert "20.19.0" in excinfo.value.available

    def test_change_search_finds_added_method(self, indexed):
        graph, index, gateway = indexed
        parsed = parse_query(
            "When was assert.partialDeepStrictEqual added to Node.js Assert?", graph, gateway
        )
        assert parsed.intent is QueryIntent.CHANGE
        context = retrieve(parsed, graph, index, gateway)
        assert context.mode is RetrievalMode.CHANGE_SEARCH
        assert any("partialDeepStrictEqual" in item.text for item in context.items)
        assert all(item.origin in ("explicit", "implicit") for item in context.items)

    def test_change_range_traversal(self, indexed):
        graph, index, gateway = indexed
        parsed = parse_query(
            "What changed in Node.js Assert between 21.7.3 and 22.14.0?", graph, gateway
        )
        context = retrieve(parsed, graph, index, gateway)
        assert context.mode is RetrievalMode.GRAPH_TRAVERSAL
        assert any("partialDeepStrictEqual" in item.text for item in context.items)
        assert all("->" in item.version or item.version for item in context.items)

    def test_empty_index_rejected(self, indexed):
        graph, _, gateway = indexed
        empty = VectorIndex(dimension=DIMENSION)
        parsed = ParsedQuery(text="q", intent=QueryIntent.CONTENT)
        with pytest.raises(EmptyIndexError):
            retrieve(parsed, graph, empty, gateway)

    def test_change_hit_without_a_record_in_the_graph_is_corrupt(self, indexed):
        graph, index, gateway = indexed
        text = "When was partialDeepStrictEqual added?"
        orphan = VectorIndex(dimension=DIMENSION)
        orphan.insert(
            IndexEntry(
                key="change:document:gone@1.0->2.0#r0000",
                vector=gateway.embed([text])[0],
                metadata={"document": "document:gone", "origin": "implicit"},
                text="",
            )
        )
        with pytest.raises(CorruptFileError, match="no change record"):
            retrieve(ParsedQuery(text, QueryIntent.CHANGE), graph, orphan, gateway)

    def test_k_limits_results(self, indexed):
        graph, index, gateway = indexed
        parsed = ParsedQuery(text="stability of assert ok", intent=QueryIntent.CONTENT)
        context = retrieve(parsed, graph, index, gateway, k=2)
        assert len(context.items) <= 2

    def test_change_search_merges_both_origins_by_score_then_key(self):
        """Criterion 5's seeded functions, plus a changelog that lists them:
        a change search without a document returns the top k of explicit and
        implicit records together, as the two per-origin searches merged."""
        stems = ["frobnicate", "marshal", "tokenize", "quantize", "replay", "compact"]
        names = [f"vx_{stem}_{i}" for i, stem in enumerate(stems)]
        files = {}
        for d in range(3):
            title = f"API Surface {chr(ord('A') + d)}"
            lines = [f"stable api line {i}" for i in range(3)]
            for v in range(1, 4):
                if v > 1:
                    lines = lines + [f"The function {names[d * 2 + v - 2]} was introduced."]
                files[f"api{d}/v{v}.md"] = doc_text(title, f"{v}.0.0", [("functions", lines)])
        files["api-changelog/3.0.0.md"] = changelog_text(
            "API Surface", "3.0.0", [f"Added the function {name}" for name in names]
        )
        gateway = make_gateway()
        index = VectorIndex(dimension=DIMENSION)
        graph = index_documents(
            [raw(path, text) for path, text in sorted(files.items())], gateway, index
        ).graph
        seen_origins = set()
        for name in names:
            text = f"When was the function {name} added?"
            context = retrieve(ParsedQuery(text, QueryIntent.CHANGE), graph, index, gateway, k=5)
            query = gateway.embed([text])[0]
            hits = [
                hit
                for origin in ("explicit", "implicit")
                for hit in index.search(query, 5, MetadataFilter({"origin": origin}))
            ]
            hits = sorted(hits, key=lambda hit: (-hit.score, hit.key))[:5]
            expected = []
            for hit in hits:
                record = graph.nodes[hit.key]
                span = record.to_version.raw
                if record.from_version is not None:
                    span = f"{record.from_version.raw} -> {span}"
                expected.append((record.description, span, record.origin.value))
            assert [(item.text, item.version, item.origin) for item in context.items] == expected
            assert any(name in item.text for item in context.items)
            seen_origins.update(item.origin for item in context.items)
        assert seen_origins == {"explicit", "implicit"}

    def test_baseline_mode_can_mix_versions(self):
        gateway = make_gateway()
        files = marker_corpus(documents=1, versions=4)
        documents = [raw(path, text) for path, text in sorted(files.items())]
        index = VectorIndex(dimension=DIMENSION)
        summary = index_documents(documents, gateway, index)
        graph = summary.graph
        doc = graph.documents()[0]
        parsed = ParsedQuery(
            text="Shared configuration line describing widget service behaviour",
            intent=QueryIntent.CONTENT,
            document=doc.id,
            version=parse_version("2.0.0"),
        )
        filtered = retrieve(parsed, graph, index, gateway)
        assert {item.version for item in filtered.items} == {"2.0.0"}
        unfiltered = retrieve(parsed, graph, index, gateway, version_filter=False)
        assert len({item.version for item in unfiltered.items}) > 1


class TestResolveDocument:
    def test_containment_both_directions(self, indexed):
        graph, _, _ = indexed
        assert resolve_document(graph, "apache spark").title == "Apache Spark Changelog"
        assert (
            resolve_document(graph, "the Node.js Assert documentation").title == "Node.js Assert"
        )

    def test_token_subset_fallback(self, indexed):
        graph, _, _ = indexed
        assert resolve_document(graph, "assert node js").title == "Node.js Assert"

    def test_no_match_returns_none(self, indexed):
        graph, _, _ = indexed
        assert resolve_document(graph, "totally unrelated") is None

    def test_tie_broken_by_version_count(self):
        from verdoc.graph import VersionGraph

        graph = VersionGraph()
        category = graph.add_category("c")
        small = graph.add_document("Widget Guide", category)
        big = graph.add_document("Widget Guide Extended", category)
        graph.add_version(small, "1.0")
        for raw_label in ("1.0", "2.0", "3.0"):
            graph.add_version(big, raw_label)
        # "widget guide" matches both titles; the richer chain wins
        assert resolve_document(graph, "widget guide").id == big


class NoScanDict(dict):
    """A node map that fails on any read of every node; lookups by id still work."""

    def _scan(self, *args):
        raise AssertionError("the ask path read every graph node")

    __iter__ = keys = values = items = _scan


ASK_ROUTES = [
    "What Apache Spark versions are available?",
    "What is the stability level of the assert.CallTracker in Node.js version 20.19.0?",
    "In which version was assert.deepEqual() removed?",
    "What changed in Node.js Assert between 21.7.3 and 22.14.0?",
    "What is the capital of France?",
]


def test_ask_path_reads_no_node_scan(indexed, monkeypatch):
    graph, index, gateway = indexed
    category = graph.nodes[graph.documents()[0].category]
    monkeypatch.setattr(graph, "nodes", NoScanDict(graph.nodes))
    parsed = [parse_query(text, graph, gateway) for text in ASK_ROUTES]
    parsed += [
        ParsedQuery(text="q", intent=QueryIntent.VERSION, category=category.id),
        ParsedQuery(text="q", intent=QueryIntent.CONTENT, category=category.id),
        ParsedQuery(text="q", intent=QueryIntent.CONTENT, version=parse_version("21.7.3")),
    ]
    modes = {retrieve(query, graph, index, gateway).mode for query in parsed}
    assert modes == set(RetrievalMode)
    engine = Engine(graph, index, gateway)
    for text in ASK_ROUTES:
        assert engine.ask(text).answer.text
