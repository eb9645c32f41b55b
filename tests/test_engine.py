import pytest

from verdoc.engine import Engine
from verdoc.errors import DocumentNotFoundError, InvertedRangeError
from verdoc.indexer import index_corpus
from verdoc.retrieval import QueryIntent, RetrievalMode
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


def test_validate_checks_the_graph_against_the_index_both_ways(engine):
    graph, index = engine.graph, VectorIndex(dimension=DIMENSION)
    ref, record = graph.content_refs()[0], graph.change_records()[0]
    for key in engine.index.keys():
        if key not in (ref.key, record.id):
            index.insert(engine.index.get(key))
    index.insert(IndexEntry("orphan", [1.0] * DIMENSION, {"origin": "content"}, "stale"))
    problems = Engine(graph, index, engine.gateway).validate()
    assert problems == [
        f"content ref {ref.id}: no vector entry {ref.key!r}",
        f"change {record.id}: no vector entry",
        "vector entry 'orphan': referenced by no content ref or change",
    ]


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
