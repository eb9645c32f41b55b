import pytest

from verdoc.engine import Engine
from verdoc.errors import DocumentNotFoundError, InvertedRangeError
from verdoc.graph import VersionGraph
from verdoc.indexer import CONTENT, index_corpus
from verdoc.retrieval import ParsedQuery, QueryIntent, RetrievalMode
from verdoc.vector_index import IndexEntry, VectorIndex

from conftest import DIMENSION, assert_doc_corpus, make_gateway, spark_changelog_corpus, write_corpus


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    root = tmp_path_factory.mktemp("engine")
    corpus = root / "corpus"
    corpus.mkdir()
    write_corpus(corpus, {**spark_changelog_corpus(), **assert_doc_corpus()})
    out = root / "index"
    index_corpus(corpus, out, make_gateway(), dimension=DIMENSION)
    return Engine.load(out, make_gateway())


def test_ask_returns_parse_context_and_answer(engine):
    result = engine.ask("What Apache Spark versions are available?")
    assert result.parsed.intent is QueryIntent.VERSION
    assert result.context.mode is RetrievalMode.GRAPH_TRAVERSAL
    assert "Version 3.5.5" in result.answer.text
    assert result.answer.citations


def test_ask_k_override(engine):
    result = engine.ask("What does assert.ok test?", k=1)
    assert len(result.context.items) == 1


def test_versions_fuzzy_name(engine):
    assert engine.versions("apache spark") == [
        "2.4.7",
        "3.3.4",
        "3.4.4",
        "3.5.3",
        "3.5.4",
        "3.5.5",
    ]


def test_versions_unknown_document(engine):
    with pytest.raises(DocumentNotFoundError):
        engine.versions("no such thing")


def test_changes_range(engine):
    records = engine.changes("Node.js Assert", "21.7.3", "22.14.0")
    assert records
    assert any("partialDeepStrictEqual" in r.description for r in records)


def test_changes_inverted_range(engine):
    with pytest.raises(InvertedRangeError):
        engine.changes("Node.js Assert", "22.14.0", "21.7.3")


def test_validate_clean(engine):
    assert engine.validate() == []


@pytest.fixture(scope="module")
def fine_chunks(tmp_path_factory):
    """An index of the Node.js Assert corpus in 16-token chunks, so that each
    version has several."""
    root = tmp_path_factory.mktemp("fine")
    write_corpus(root / "corpus", assert_doc_corpus())
    out = root / "index"
    index_corpus(root / "corpus", out, make_gateway(), DIMENSION, chunk_size=16, overlap=2)
    return Engine.load(out, make_gateway())


def test_validate_checks_the_graph_against_the_index_both_ways(fine_chunks):
    """Each damage to a copy of a valid index is reported in one line."""
    graph = fine_chunks.graph
    doc = graph.documents()[0].id
    chain = graph.versions_of(doc)
    oldest, newest = chain[0], chain[-1]
    content = fine_chunks.index.keys(CONTENT)
    runs = {key: fine_chunks.index.get(key).metadata for key in content}
    assert len(content) > len(chain) * 2
    over_newest = [key for key, run in runs.items() if run["last"] == newest.label.raw]
    record = graph.change_records()[0].id

    def run(document, first, last):
        return {"document": document, "origin": "content", "first": first, "last": last}

    def names_no_versions(key, metadata):
        span = f"{metadata['first']!r}..{metadata['last']!r}"
        return f"vector entry {key!r}: run {span} names no versions of {metadata['document']!r}"

    strays = {
        "run past the chain": run(doc, oldest.label.raw, "9.9.9"),
        "run of a document the graph lacks": run("document:gone", "1.0", "1.0"),
        "run in reverse": run(doc, newest.label.raw, oldest.label.raw),
    }
    damages = [
        ("change record", [record], {}, f"vector entry {record!r}: missing"),
        (
            "entry of nothing",
            [],
            {"orphan": {"origin": "implicit"}},
            "vector entry 'orphan': neither content nor a change record",
        ),
        ("runs over the newest", over_newest, {}, f"version {newest.id}: no content entry covers it"),
    ]
    damages += [
        (name, [], {name: metadata}, names_no_versions(name, metadata))
        for name, metadata in strays.items()
    ]
    for name, dropped, added, problem in damages:
        index = VectorIndex(dimension=DIMENSION)
        for key in fine_chunks.index.keys():
            if key not in dropped:
                index.insert(fine_chunks.index.get(key))
        for key, metadata in added.items():
            index.insert(IndexEntry(key, [1.0] * DIMENSION, metadata, "stale"))
        assert Engine(graph, index, fine_chunks.gateway).validate() == [problem], name
    textless = VersionGraph.from_dict(graph.to_dict())
    textless.nodes[oldest.id].has_text = False
    assert Engine(textless, fine_chunks.index, fine_chunks.gateway).validate() == [
        f"version {oldest.id}: has no text, but content covers it"
    ]
    assert fine_chunks.validate() == []


def test_category_query_searches_the_documents_of_that_category(engine):
    documents = engine.graph.documents()
    assert len({d.category for d in documents}) == len(documents) > 1
    for doc in documents:
        parsed = ParsedQuery("What changed?", QueryIntent.CONTENT, category=doc.category)
        context = engine.retrieve(parsed, k=20)
        assert context.items and {item.document for item in context.items} == {doc.title}


def test_baseline_toggle_passes_through(engine):
    strict = engine.ask(
        "What is the stability level of the assert.CallTracker in Node.js version 20.19.0?"
    )
    assert {item.version for item in strict.context.items} == {"20.19.0"}
    loose = engine.ask(
        "What is the stability level of the assert.CallTracker in Node.js version 20.19.0?",
        version_filter=False,
    )
    assert loose.context.items  # unfiltered still answers, may mix versions
