import pytest

from verdoc import prompts
from verdoc.generation import answer, build_prompt
from verdoc.retrieval import ContextItem, ParsedQuery, QueryIntent, RetrievalMode, RetrievedContext

from conftest import make_gateway


def item(text, document="Node.js Assert", version="20.19.0", origin="content"):
    return ContextItem(text=text, document=document, version=version, origin=origin)


def content_query(text="What is the stability level of assert.CallTracker?"):
    return ParsedQuery(text=text, intent=QueryIntent.CONTENT)


class TestBuildPrompt:
    def test_single_item_has_one_label(self):
        context = RetrievedContext(items=[item("Stability: 0 - Deprecated")])
        prompt = build_prompt(content_query(), context)
        assert prompt.count("[Node.js Assert @ 20.19.0]") == 1
        assert "Stability: 0 - Deprecated" in prompt
        assert prompt.rstrip().endswith("Question: What is the stability level of assert.CallTracker?")

    def test_empty_context_carries_marker(self):
        prompt = build_prompt(content_query(), RetrievedContext())
        assert prompts.NO_CONTEXT_MARKER in prompt
        assert "unknown" in prompt

    def test_labels_in_rank_order(self):
        context = RetrievedContext(items=[item(f"text {i}", version=f"{i}.0") for i in range(5)])
        prompt = build_prompt(content_query(), context)
        positions = [prompt.index(f"[Node.js Assert @ {i}.0]") for i in range(5)]
        assert positions == sorted(positions)

    def test_prompt_is_deterministic(self):
        context = RetrievedContext(items=[item("alpha"), item("beta", version="21.0.0")])
        query = content_query()
        assert build_prompt(query, context) == build_prompt(query, context)

    def test_mode_and_intent_lines_present(self):
        context = RetrievedContext(
            items=[item("Version 1.0")], mode=RetrievalMode.GRAPH_TRAVERSAL, intent=QueryIntent.VERSION
        )
        prompt = build_prompt(content_query(), context)
        assert "Retrieval mode: graph_traversal" in prompt
        assert "Query intent: version" in prompt


class TestAnswer:
    def test_mock_echoes_top_context_item(self):
        gateway = make_gateway()
        context = RetrievedContext(items=[item("Stability: 0 - Deprecated")])
        result = answer(content_query(), context, gateway)
        assert result.text == "Stability: 0 - Deprecated"

    def test_empty_context_yields_insufficient_answer(self):
        gateway = make_gateway()
        result = answer(content_query(), RetrievedContext(), gateway)
        assert result.text == prompts.INSUFFICIENT_CONTEXT
        assert result.citations == []

    def test_citations_cover_all_context_items(self):
        gateway = make_gateway()
        context = RetrievedContext(items=[item("a"), item("b", version="21.0.0")])
        result = answer(content_query(), context, gateway)
        assert len(result.citations) == 2
        assert result.citations[0] == {
            "document": "Node.js Assert",
            "version": "20.19.0",
            "origin": "content",
        }

    def test_citations_never_reference_versions_outside_context(self):
        gateway = make_gateway()
        context = RetrievedContext(items=[item("a", version="1.0"), item("b", version="2.0")])
        result = answer(content_query(), context, gateway)
        context_versions = {i.version for i in context.items}
        assert all(c["version"] in context_versions for c in result.citations)

    def test_version_enumeration_joined_in_mock_mode(self):
        gateway = make_gateway()
        labels = ["2.4.7", "3.3.4", "3.4.4", "3.5.3", "3.5.4", "3.5.5"]
        context = RetrievedContext(
            items=[
                item(f"Version {raw}", document="Apache Spark Changelog", version=raw, origin="graph")
                for raw in labels
            ],
            mode=RetrievalMode.GRAPH_TRAVERSAL,
            intent=QueryIntent.VERSION,
        )
        query = ParsedQuery(text="What Apache Spark versions are available?", intent=QueryIntent.VERSION)
        result = answer(query, context, gateway)
        assert result.text == ", ".join(f"Version {raw}" for raw in labels)
