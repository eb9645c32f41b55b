import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import verdoc
from verdoc import indexer
from verdoc.cli import main
from verdoc.engine import Engine
from verdoc.errors import ConfigError, EmptyIndexError, VersionMismatchError, VersionNotFoundError
from verdoc.config import load_config, build_gateway
from verdoc.evaluation import QAItem, save_dataset
from verdoc.fileio import json_bytes
from verdoc.gateway import MockBackend
from verdoc.graph import VersionGraph
from verdoc.indexer import GRAPH_FILE, HASHED_FILES, INDEX_FILE, MANIFEST_FILE, SUMMARY_FILE
from verdoc.ingestion import load_corpus
from verdoc.signature import SIGNATURE_FILE
from verdoc.vector_index import IndexEntry, VectorIndex
from verdoc.versions import parse_version

from conftest import (
    assert_doc_corpus,
    graph_nodes,
    sidecar_entries,
    spark_changelog_corpus,
    write_corpus,
)


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    write_corpus(root, {**spark_changelog_corpus(), **assert_doc_corpus()})
    return root


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gateway": {"backend": "mock", "dimension": 64}}))
    return path


@pytest.fixture
def indexed_dir(tmp_path, corpus, config_file, capsys):
    out = tmp_path / "index"
    code = main(["--config", str(config_file), "index", str(corpus), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return out


def run_cli(config_file, *args):
    return main(["--config", str(config_file), *args])


class TestIndexCommand:
    def test_index_writes_artifacts_and_summary(self, tmp_path, corpus, config_file, capsys):
        out = tmp_path / "index"
        code = main(["--config", str(config_file), "index", str(corpus), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        summary = json.loads(captured.out)
        assert summary["documents"] == 9
        assert (out / "graph.json").exists()
        assert (out / "vectors.json").exists()
        assert (out / "summary.json").exists()

    def test_missing_corpus_is_usage_error(self, tmp_path, config_file):
        code = run_cli(config_file, "index", str(tmp_path / "nope"), "--out", str(tmp_path / "o"))
        assert code == 1

    def test_doc_type_reply_to_the_metadata_prompt_is_a_data_error(self, tmp_path, corpus, capsys):
        script_path = tmp_path / "script.json"
        script_path.write_text(
            json.dumps([{"schema": "attributes", "match": [], "reply": '{"doc_type": "changelog"}'}])
        )
        config_path = tmp_path / "scripted.json"
        config_path.write_text(
            json.dumps({"gateway": {"backend": "mock", "dimension": 64, "script_path": str(script_path)}})
        )
        code = run_cli(config_path, "index", str(corpus), "--out", str(tmp_path / "o"))
        captured = capsys.readouterr()
        assert code == 2
        assert "indexing step 'attributes' failed" in captured.err
        assert "has no title" in captured.err


class TestQueryCommand:
    def test_plain_answer(self, indexed_dir, config_file, capsys):
        code = run_cli(
            config_file,
            "query",
            "What is the stability level of the assert.CallTracker in Node.js version 20.19.0?",
            "--index",
            str(indexed_dir),
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Stability: 0 - Deprecated" in captured.out

    def test_json_output(self, indexed_dir, config_file, capsys):
        code = run_cli(
            config_file,
            "query",
            "What Apache Spark versions are available?",
            "--index",
            str(indexed_dir),
            "--json",
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["intent"] == "version"
        assert payload["mode"] == "graph_traversal"
        assert "3.5.5" in payload["answer"]
        assert payload["citations"]

    def test_show_context(self, indexed_dir, config_file, capsys):
        code = run_cli(
            config_file,
            "query",
            "What does assert.ok test?",
            "--index",
            str(indexed_dir),
            "--show-context",
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "[Node.js Assert @" in captured.out

    def test_question_that_is_not_unicode_is_a_usage_error(self, indexed_dir, config_file, capsys, monkeypatch):
        """Undecodable bytes on a command line reach the program as lone
        surrogates: ``printf 'what is \\xff here'`` reads as below. The
        question is refused before any completion or embed."""

        def refuse(*args):
            raise AssertionError("a request was sent")

        monkeypatch.setattr(MockBackend, "complete", refuse)
        monkeypatch.setattr(MockBackend, "embed", refuse)
        code = run_cli(config_file, "query", "what is \udcff here", "--index", str(indexed_dir))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("InvalidQuestionError: ")
        assert "character 8 ('\\udcff') is a lone surrogate" in captured.err

    def test_query_before_index_fails_with_data_error(self, tmp_path, config_file, capsys):
        empty = tmp_path / "empty_index"
        empty.mkdir()
        code = run_cli(config_file, "query", "anything", "--index", str(empty))
        captured = capsys.readouterr()
        assert code == 2
        assert "EmptyIndex" in captured.err

    def test_version_of_5000_digits_is_a_typed_error(self, indexed_dir, config_file, capsys):
        """A digit run past Python's int-string limit is a string segment of
        the label, so the question names a version the index lacks and
        exits with that typed error, not a traceback."""
        question = f"What does Foo Guide 1.{'9' * 5000} say about foo?"
        code = run_cli(config_file, "query", question, "--index", str(indexed_dir))
        captured = capsys.readouterr()
        assert code == VersionNotFoundError.exit_code == 2
        assert captured.err.startswith("VersionNotFoundError: version '1.999")


class TestVersionsCommand:
    def test_lists_six_spark_versions(self, indexed_dir, config_file, capsys):
        code = run_cli(config_file, "versions", "Apache Spark", "--index", str(indexed_dir))
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.split("\n")[:6] == [
            "2.4.7",
            "3.3.4",
            "3.4.4",
            "3.5.3",
            "3.5.4",
            "3.5.5",
        ]

    def test_json_flag(self, indexed_dir, config_file, capsys):
        code = run_cli(config_file, "versions", "Apache Spark", "--index", str(indexed_dir), "--json")
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out) == ["2.4.7", "3.3.4", "3.4.4", "3.5.3", "3.5.4", "3.5.5"]

    def test_unknown_document_is_data_error(self, indexed_dir, config_file, capsys):
        code = run_cli(config_file, "versions", "Unknown Thing", "--index", str(indexed_dir))
        captured = capsys.readouterr()
        assert code == 2
        assert "DocumentNotFound" in captured.err


class TestChangesCommand:
    def test_range_listing(self, indexed_dir, config_file, capsys):
        code = run_cli(
            config_file,
            "changes",
            "Node.js Assert",
            "21.7.3",
            "22.14.0",
            "--index",
            str(indexed_dir),
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "partialDeepStrictEqual" in captured.out

    def test_json_flag(self, indexed_dir, config_file, capsys):
        code = run_cli(
            config_file,
            "changes",
            "Node.js Assert",
            "21.7.3",
            "22.14.0",
            "--index",
            str(indexed_dir),
            "--json",
        )
        captured = capsys.readouterr()
        assert code == 0
        records = json.loads(captured.out)
        assert records and all(r["to_version"] == "22.14.0" for r in records)

    def test_inverted_range_is_data_error(self, indexed_dir, config_file, capsys):
        code = run_cli(
            config_file,
            "changes",
            "Node.js Assert",
            "22.14.0",
            "21.7.3",
            "--index",
            str(indexed_dir),
        )
        assert code == 2


class TestEvalCommand:
    def test_eval_prints_per_category_lines(self, indexed_dir, config_file, tmp_path, capsys):
        config = load_config(config_file)
        engine = Engine.load(indexed_dir, build_gateway(config))
        question = "What Apache Spark versions are available?"
        gold = engine.ask(question).answer.text
        dataset = tmp_path / "qa.jsonl"
        save_dataset(
            [
                QAItem(
                    id="q1",
                    question=question,
                    gold_answer=gold,
                    category="VersionListingInquiry",
                    version_sensitive=True,
                )
            ],
            dataset,
        )
        report_path = tmp_path / "report.json"
        code = run_cli(
            config_file,
            "eval",
            str(dataset),
            "--index",
            str(indexed_dir),
            "--report",
            str(report_path),
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "VersionListingInquiry: 1/1 = 1.000" in captured.out
        assert "overall: 1/1 = 1.000" in captured.out
        payload = json.loads(report_path.read_text())
        assert payload["overall_accuracy"] == 1.0

    def test_an_item_that_is_not_unicode_fails_alone(self, indexed_dir, config_file, tmp_path, capsys):
        """A ``\\udcff`` escape in the dataset's JSON counts its item as
        incorrect, and the other items are still asked."""
        dataset = tmp_path / "qa.jsonl"
        question = "What Apache Spark versions are available?"
        save_dataset(
            [
                QAItem("bad", question + " \udcff", "3.5.5", "VersionListingInquiry", True),
                QAItem("good", question, "3.5.5", "VersionListingInquiry", True),
            ],
            dataset,
        )
        assert b"\\udcff" in dataset.read_bytes()
        report_path = tmp_path / "report.json"
        code = run_cli(
            config_file, "eval", str(dataset), "--index", str(indexed_dir), "--report", str(report_path)
        )
        capsys.readouterr()
        assert code == 0
        items = {item["id"]: item for item in json.loads(report_path.read_text())["per_item"]}
        assert items["bad"]["verdict"] is False
        assert items["bad"]["judge_rationale"].startswith("InvalidQuestionError: ")
        assert items["good"]["verdict"] is True

    def test_llm_judge_mode(self, indexed_dir, config_file, tmp_path, capsys):
        dataset = tmp_path / "qa.jsonl"
        save_dataset(
            [
                QAItem(
                    id="q1",
                    question="What Apache Spark versions are available?",
                    gold_answer="Version 2.4.7",
                    category="VersionListingInquiry",
                    version_sensitive=True,
                )
            ],
            dataset,
        )
        code = run_cli(
            config_file, "eval", str(dataset), "--index", str(indexed_dir), "--judge", "llm"
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "overall: 1/1" in captured.out


class TestValidateAndUsage:
    def test_validate_fresh_index(self, indexed_dir, config_file, capsys):
        code = run_cli(config_file, "validate", "--index", str(indexed_dir))
        captured = capsys.readouterr()
        assert code == 0
        assert "graph valid" in captured.out

    def test_validate_reports_an_orphan_entry_as_a_data_error(
        self, indexed_dir, config_file, capsys
    ):
        index = VectorIndex.load(indexed_dir / "vectors.json")
        index.insert(IndexEntry("orphan", [1.0] * 64, {"origin": "content"}, "stale"))
        index.save(indexed_dir / "vectors.json")
        code = run_cli(config_file, "validate", "--index", str(indexed_dir))
        captured = capsys.readouterr()
        assert code == 2
        assert "violation: vector entry 'orphan'" in captured.err

    def test_validate_reports_a_file_that_differs_from_the_manifest(
        self, indexed_dir, config_file, capsys
    ):
        attributes = indexed_dir / "attributes.json"
        attributes.write_text(attributes.read_text() + "\n")
        code = run_cli(config_file, "validate", "--index", str(indexed_dir))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            "violation: attributes.json: sha256 differs from the one in manifest.json"
        ]

    def test_validate_accepts_an_index_without_a_manifest(self, indexed_dir, config_file, capsys):
        (indexed_dir / "manifest.json").unlink()
        code = run_cli(config_file, "validate", "--index", str(indexed_dir))
        captured = capsys.readouterr()
        assert code == 0
        assert "graph valid" in captured.out

    def test_validate_reports_a_bad_change_record_as_a_data_error(
        self, indexed_dir, config_file, capsys
    ):
        graph_path = indexed_dir / GRAPH_FILE
        data = json.loads(graph_path.read_bytes())
        changes = data["changes"]
        explicit = changes["origin"]["values"].index("explicit")
        first, second = [
            record_id
            for record_id, code in zip(changes["id"], changes["origin"]["codes"])
            if code == explicit
        ][:2]
        row = changes["id"].index(second)
        document = changes["document"]["values"][changes["document"]["codes"][row]]
        to_version = changes["to_version"]["values"][changes["to_version"]["codes"][row]]
        older = next(
            node["label"]
            for node in data["nodes"]
            if node.get("document") == document and node["label"] != to_version
        )
        edits = ((first, "to_version", "9.9.9"), (second, "from_version", older))
        for record_id, name, value in edits:
            column = changes[name]
            column["values"].append(value)
            column["codes"][changes["id"].index(record_id)] = len(column["values"]) - 1
        graph_path.write_bytes(json_bytes(data))
        (indexed_dir / MANIFEST_FILE).unlink()
        code = run_cli(config_file, "validate", "--index", str(indexed_dir))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            f"violation: change {first}: to_version missing from graph",
            f"violation: change {second}: explicit record stores a from_version",
        ]

    def test_usage_prints_token_accounting(self, indexed_dir, config_file, capsys):
        code = run_cli(config_file, "usage", "--index", str(indexed_dir))
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["calls"] > 0
        assert payload["input_tokens"] > 0

    def test_usage_without_summary_is_data_error(self, tmp_path, config_file, capsys):
        empty = tmp_path / "no_summary"
        empty.mkdir()
        code = run_cli(config_file, "usage", "--index", str(empty))
        assert code == 2


def chunk_key_4(document, version, ordinal):
    """The key of a content entry in vector formats 1 to 4."""
    return f"{document}@{version}#c{ordinal:04d}"


def fixed_windows(text, chunk_size=512, overlap=50):
    """The chunk texts of graph and vector formats 1 to 4: windows of
    ``chunk_size`` tokens that start ``chunk_size - overlap`` apart."""
    tokens = text.split()
    windows, start = [], 0
    while start == 0 or start + overlap < len(tokens):
        end = min(start + chunk_size, len(tokens))
        windows.append(" ".join(tokens[start:end]))
        if end >= len(tokens):
            break
        start += chunk_size - overlap
    return windows


def rewrite_as_format_4(out, corpus, config_file):
    """Rewrite the index in ``out`` as graph and vector format 4 wrote it.

    A version node counted its chunks, fixed windows of its text, and a
    content entry was keyed by version and ordinal and tagged with its
    version. The manifest's inputs are left alone: the index is built with
    the formats patched to the ones its inputs should hash.
    """
    gateway = build_gateway(load_config(config_file))
    attributes = json.loads((out / "attributes.json").read_bytes())
    for entry in attributes.values():
        entry.pop("no_changes", None)  # format 4 kept attributes alone
    catalog = indexer.catalog_documents(load_corpus(corpus), gateway, attribute_cache=dict(attributes))
    indexer.build_graph(catalog)
    source = {  # version id -> its file
        vid: doc
        for _, group in catalog.all_groups()
        for (doc, _), vid in zip(group.members, group.version_ids)
    }
    graph_path, sidecar_path, npy_path = out / GRAPH_FILE, out / INDEX_FILE, out / "vectors.npy"
    graph = {"format_version": 4, "nodes": graph_nodes(json.loads(graph_path.read_bytes()))}
    sidecar = json.loads(sidecar_path.read_bytes())
    entries = [item for item in sidecar_entries(sidecar) if item["metadata"]["origin"] != "content"]
    for node in graph["nodes"]:
        if node["node_kind"] != "version":
            continue
        del node["has_text"]
        windows = fixed_windows(source[node["id"]].text) if node["id"] in source else []
        node["chunks"] = len(windows)
        for ordinal, text in enumerate(windows):
            key = chunk_key_4(node["document"], node["label"], ordinal)
            metadata = {"document": node["document"], "origin": "content", "version": node["label"]}
            entries.append({"key": key, "metadata": metadata, "text": text})
    entries.sort(key=lambda item: item["key"])
    descriptions = {node["id"]: node.get("description") for node in graph["nodes"]}
    rows = gateway.embed([item["text"] or descriptions[item["key"]] for item in entries])
    buffer = io.BytesIO()
    np.save(buffer, np.stack(rows).astype("<f4"), allow_pickle=False)
    npy_path.write_bytes(buffer.getvalue())
    digest = hashlib.sha256(buffer.getvalue()).hexdigest()
    sidecar = {
        "format_version": 4,
        "dimension": sidecar["dimension"],
        "vectors_sha256": digest,
        "entries": entries,
    }
    summary = json.loads((out / SUMMARY_FILE).read_bytes())
    summary["chunks"] = sum(item["metadata"]["origin"] == "content" for item in entries)
    manifest = json.loads((out / MANIFEST_FILE).read_bytes())
    for path, payload in (
        (graph_path, graph),
        (sidecar_path, sidecar),
        (out / "attributes.json", attributes),
        (out / SUMMARY_FILE, summary),
    ):
        path.write_bytes(json_bytes(payload))
    for path in (graph_path, sidecar_path, npy_path, out / "attributes.json"):
        manifest["files"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    (out / MANIFEST_FILE).write_bytes(json_bytes(manifest))


def build_old_index(out, corpus, config_file, monkeypatch, graph_format, vector_format):
    """Index ``corpus`` into ``out`` with the manifest's inputs hashed at the
    given formats, and rewrite its graph and vector files as format 4."""
    with monkeypatch.context() as patch:
        patch.setattr(indexer, "GRAPH_FORMAT_VERSION", graph_format)
        patch.setattr(indexer, "VECTOR_FORMAT_VERSION", vector_format)
        assert run_cli(config_file, "index", str(corpus), "--out", str(out)) == 0
    rewrite_as_format_4(out, corpus, config_file)


class TestFormat4Upgrade:
    """An index written when graph.json and vectors.json were format 4: one
    content entry per fixed-window chunk of each version, and version nodes
    that counted them."""

    @pytest.fixture
    def old_index(self, tmp_path, corpus, config_file, capsys, monkeypatch):
        out = tmp_path / "old"
        build_old_index(out, corpus, config_file, monkeypatch, 4, 4)
        capsys.readouterr()
        return out

    def test_old_files_are_a_version_mismatch(self, old_index, config_file):
        with pytest.raises(VersionMismatchError, match="format_version 4"):
            VersionGraph.load(old_index / GRAPH_FILE)
        with pytest.raises(VersionMismatchError, match="format_version 4"):
            VectorIndex.load(old_index / INDEX_FILE)
        with pytest.raises(VersionMismatchError):
            Engine.load(old_index, build_gateway(load_config(config_file)))

    def test_reindex_reuses_the_change_records_and_writes_what_a_fresh_index_writes(
        self, tmp_path, old_index, corpus, config_file, capsys
    ):
        assert run_cli(config_file, "index", str(corpus), "--out", str(old_index)) == 0
        fresh = tmp_path / "fresh"
        assert run_cli(config_file, "index", str(corpus), "--out", str(fresh)) == 0
        capsys.readouterr()
        for name in (*HASHED_FILES, MANIFEST_FILE):
            assert (old_index / name).read_bytes() == (fresh / name).read_bytes(), name
        # the records of a format-4 graph.json are reused, so the one completion
        # is the clustering prompt; the format-4 vectors do not load, so every
        # text is embedded again
        upgraded, built = (json.loads((d / SUMMARY_FILE).read_bytes()) for d in (old_index, fresh))
        assert upgraded.pop("usage")["calls"] == 1 < built.pop("usage")["calls"]
        assert upgraded.pop("changes") == 0 < built.pop("changes")
        assert upgraded == built and upgraded["chunks"] > 0


class TestVectorFormat5Upgrade:
    """An index written when vectors.json was format 5, which stored each
    row's metadata as an object of its own, in row-wise ``entries``."""

    @pytest.fixture
    def old_index(self, tmp_path, corpus, config_file, capsys, monkeypatch):
        out = tmp_path / "old"
        with monkeypatch.context() as patch:
            patch.setattr(indexer, "VECTOR_FORMAT_VERSION", 5)
            assert run_cli(config_file, "index", str(corpus), "--out", str(out)) == 0
        capsys.readouterr()
        sidecar_path = out / INDEX_FILE
        sidecar = json.loads(sidecar_path.read_bytes())
        old = {
            "format_version": 5,
            "dimension": sidecar["dimension"],
            "vectors_sha256": sidecar["vectors_sha256"],
            "entries": sidecar_entries(sidecar),
        }
        sidecar_path.write_bytes(json_bytes(old))
        manifest = json.loads((out / MANIFEST_FILE).read_bytes())
        manifest["files"][sidecar_path.name] = hashlib.sha256(sidecar_path.read_bytes()).hexdigest()
        (out / MANIFEST_FILE).write_bytes(json_bytes(manifest))
        return out

    def test_old_vectors_are_a_version_mismatch(self, old_index, config_file):
        with pytest.raises(VersionMismatchError, match="format_version 5"):
            VectorIndex.load(old_index / INDEX_FILE)
        with pytest.raises(VersionMismatchError):
            Engine.load(old_index, build_gateway(load_config(config_file)))

    def test_reindex_reembeds_each_text_once_and_writes_what_a_fresh_index_writes(
        self, tmp_path, old_index, corpus, config_file, capsys, monkeypatch
    ):
        embedded = {"upgraded": [], "fresh": []}
        run = "upgraded"
        real_embed = verdoc.gateway.Gateway.embed

        def counted_embed(gateway, texts):
            embedded[run].extend(texts)
            return real_embed(gateway, texts)

        monkeypatch.setattr(verdoc.gateway.Gateway, "embed", counted_embed)
        assert run_cli(config_file, "index", str(corpus), "--out", str(old_index)) == 0
        run = "fresh"
        fresh = tmp_path / "fresh"
        assert run_cli(config_file, "index", str(corpus), "--out", str(fresh)) == 0
        capsys.readouterr()
        for name in (*HASHED_FILES, MANIFEST_FILE):
            assert (old_index / name).read_bytes() == (fresh / name).read_bytes(), name
        # the format-5 vectors do not load, so each text is embedded again, once,
        # as a fresh index embeds it; graph.json still loads, so its records are
        # reused, not extracted, and the one completion is the clustering prompt
        assert embedded["upgraded"] and sorted(embedded["upgraded"]) == sorted(embedded["fresh"])
        assert len(set(embedded["upgraded"])) == len(embedded["upgraded"])
        upgraded, built = (json.loads((d / SUMMARY_FILE).read_bytes()) for d in (old_index, fresh))
        assert upgraded.pop("usage")["calls"] == 1 < built.pop("usage")["calls"]
        assert upgraded.pop("changes") == 0 < built.pop("changes")
        assert upgraded == built and upgraded["chunks"] > 0


class TestGraphFormatUpgrade:
    """An index written when graph.json was format 3, which stored each chunk
    a second time as a content-ref node, and each content entry of
    vectors.json copied its document's category."""

    @pytest.fixture
    def old_index(self, tmp_path, corpus, config_file, capsys, monkeypatch):
        out = tmp_path / "old"
        build_old_index(out, corpus, config_file, monkeypatch, 3, 4)
        capsys.readouterr()
        graph_path, vectors_path = out / GRAPH_FILE, out / INDEX_FILE
        data = json.loads(graph_path.read_bytes())
        graph = {node["id"]: node for node in data["nodes"]}
        nodes = data["nodes"]
        for node in list(nodes):
            chunks = node.pop("chunks", 0)
            for ordinal in range(chunks):
                key = chunk_key_4(node["document"], node["label"], ordinal)
                nodes.append(
                    {
                        "id": f"content:{key}",
                        "node_kind": "content_ref",
                        "document": node["document"],
                        "version": node["label"],
                        "ordinal": ordinal,
                        "key": key,
                    }
                )
        nodes.sort(key=lambda node: node["id"])
        data["format_version"] = 3
        vectors = json.loads(vectors_path.read_bytes())
        for entry in vectors["entries"]:
            metadata = entry["metadata"]
            if metadata["origin"] == "content":
                metadata["category"] = graph[graph[metadata["document"]]["category"]]["name"]
        manifest = json.loads((out / MANIFEST_FILE).read_bytes())
        for path, payload in ((graph_path, data), (vectors_path, vectors)):
            path.write_bytes(json_bytes(payload))
            manifest["files"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        (out / MANIFEST_FILE).write_bytes(json_bytes(manifest))
        return out

    def test_old_graph_is_a_version_mismatch(self, old_index, config_file, capsys):
        with pytest.raises(VersionMismatchError):
            Engine.load(old_index, build_gateway(load_config(config_file)))
        code = run_cli(config_file, "query", "What changed?", "--index", str(old_index))
        assert code == 2
        assert "VersionMismatch" in capsys.readouterr().err

    def test_reindex_writes_what_a_fresh_index_writes(
        self, tmp_path, old_index, corpus, config_file, capsys
    ):
        assert run_cli(config_file, "index", str(corpus), "--out", str(old_index)) == 0
        fresh = tmp_path / "fresh"
        assert run_cli(config_file, "index", str(corpus), "--out", str(fresh)) == 0
        capsys.readouterr()
        # summary.json holds what each run did, so it is compared below
        for name in (*HASHED_FILES, MANIFEST_FILE):
            assert (old_index / name).read_bytes() == (fresh / name).read_bytes(), name
        # the format-4 vectors do not load, so every text is embedded again; the
        # records come from a format-3 graph.json, so they are extracted again
        upgraded, built = (json.loads((d / SUMMARY_FILE).read_bytes()) for d in (old_index, fresh))
        del upgraded["usage"], built["usage"]
        assert upgraded == built and upgraded["changes"] > 0 and upgraded["chunks"] > 0


class TestGraphFormat5Upgrade:
    """An index written when graph.json was format 5, which listed each
    change record as a node beside the others, and whose code kept an
    explicit record's from-version."""

    @pytest.fixture
    def old_index(self, tmp_path, corpus, config_file, capsys, monkeypatch):
        out = tmp_path / "old"
        with monkeypatch.context() as patch:
            patch.setattr(indexer, "GRAPH_FORMAT_VERSION", 5)
            assert run_cli(config_file, "index", str(corpus), "--out", str(out)) == 0
        capsys.readouterr()
        graph_path = out / GRAPH_FILE
        nodes = graph_nodes(json.loads(graph_path.read_bytes()))
        # the newest explicit record gets the from-version an older index gave it
        record = max(
            (node for node in nodes if node.get("origin") == "explicit"),
            key=lambda node: parse_version(node["to_version"]),
        )
        versions = [n for n in nodes if n["node_kind"] == "version"]
        labels = sorted(
            (n["label"] for n in versions if n["document"] == record["document"]), key=parse_version
        )
        record["from_version"] = labels[labels.index(record["to_version"]) - 1]
        graph_path.write_bytes(json_bytes({"format_version": 5, "nodes": nodes}))
        manifest = json.loads((out / MANIFEST_FILE).read_bytes())
        manifest["files"][graph_path.name] = hashlib.sha256(graph_path.read_bytes()).hexdigest()
        (out / MANIFEST_FILE).write_bytes(json_bytes(manifest))
        return out, record

    def test_old_graph_is_a_version_mismatch_whose_records_still_read(self, old_index, config_file):
        out, stale = old_index
        with pytest.raises(VersionMismatchError, match="format_version 5"):
            VersionGraph.load(out / GRAPH_FILE)
        with pytest.raises(VersionMismatchError):
            Engine.load(out, build_gateway(load_config(config_file)))
        records = VersionGraph.load_change_records(out / GRAPH_FILE)
        assert {r.id: r for r in records}[stale["id"]].from_version.raw == stale["from_version"]

    def test_reindex_reuses_the_records_and_rewrites_them_as_format_6(
        self, tmp_path, old_index, corpus, config_file, capsys
    ):
        out, stale = old_index
        # the manifest's inputs hash the graph format, so this is a full run
        assert run_cli(config_file, "index", str(corpus), "--out", str(out)) == 0
        fresh = tmp_path / "fresh"
        assert run_cli(config_file, "index", str(corpus), "--out", str(fresh)) == 0
        capsys.readouterr()
        for name in (*HASHED_FILES, MANIFEST_FILE):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
        graph = json.loads((out / GRAPH_FILE).read_bytes())
        assert graph["format_version"] == 6
        row = graph["changes"]["id"].index(stale["id"])
        assert graph["changes"]["from_version"]["codes"][row] == -1
        assert VersionGraph.load(out / GRAPH_FILE).validate() == []
        # every record is reused, stale one included: the one completion is
        # the clustering prompt, and no change is extracted; vectors.json still
        # loads, so no chunk is embedded either
        upgraded, built = (json.loads((d / SUMMARY_FILE).read_bytes()) for d in (out, fresh))
        assert upgraded.pop("usage")["calls"] == 1 < built.pop("usage")["calls"]
        assert upgraded.pop("changes") == 0 < built.pop("changes")
        assert upgraded.pop("chunks") == 0 < built.pop("chunks")
        assert upgraded == built


class TestVectorFormatUpgrade:
    """An index written when vectors.npy held float64 rows (vector format 3)."""

    @pytest.fixture
    def old_index(self, tmp_path, corpus, config_file, capsys, monkeypatch):
        out = tmp_path / "old"
        build_old_index(out, corpus, config_file, monkeypatch, 4, 3)
        capsys.readouterr()
        sidecar_path, npy_path = out / INDEX_FILE, out / "vectors.npy"
        sidecar = json.loads(sidecar_path.read_bytes())
        # format 3 stored each vector as the backend returned it, in float64
        records = VersionGraph.load_change_records(out / GRAPH_FILE)
        descriptions = {record.id: record.description for record in records}
        texts = [
            item["text"] if item["metadata"]["origin"] == "content" else descriptions[item["key"]]
            for item in sidecar["entries"]
        ]
        buffer = io.BytesIO()
        rows = np.stack(build_gateway(load_config(config_file)).embed(texts))
        np.save(buffer, rows.astype("<f8"), allow_pickle=False)
        npy_path.write_bytes(buffer.getvalue())
        sidecar["format_version"] = 3
        sidecar["vectors_sha256"] = hashlib.sha256(buffer.getvalue()).hexdigest()
        sidecar_path.write_bytes(json_bytes(sidecar))
        manifest = json.loads((out / MANIFEST_FILE).read_bytes())
        for path in (npy_path, sidecar_path):
            manifest["files"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        (out / MANIFEST_FILE).write_bytes(json_bytes(manifest))
        return out

    def test_old_vectors_are_a_version_mismatch(self, old_index, config_file):
        with pytest.raises(VersionMismatchError, match="format_version 3"):
            VectorIndex.load(old_index / INDEX_FILE)
        with pytest.raises(VersionMismatchError):
            Engine.load(old_index, build_gateway(load_config(config_file)))

    def test_reindex_reembeds_and_reuses_the_change_records(
        self, tmp_path, old_index, corpus, config_file, capsys
    ):
        assert run_cli(config_file, "index", str(corpus), "--out", str(old_index)) == 0
        fresh = tmp_path / "fresh"
        assert run_cli(config_file, "index", str(corpus), "--out", str(fresh)) == 0
        capsys.readouterr()
        for name in (*HASHED_FILES, MANIFEST_FILE):
            assert (old_index / name).read_bytes() == (fresh / name).read_bytes(), name
        # every chunk is embedded again; graph.json still loads, so its records
        # are reused, not extracted, and the one completion is the clustering prompt
        upgraded, built = (json.loads((d / SUMMARY_FILE).read_bytes()) for d in (old_index, fresh))
        assert upgraded.pop("usage")["calls"] == 1 < built.pop("usage")["calls"]
        assert upgraded.pop("changes") == 0 < built.pop("changes")
        assert upgraded == built and upgraded["chunks"] > 0


class TestConfigHandling:
    def test_invalid_config_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"gateway": {"backend": "carrier-pigeon"}}))
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_field_level_messages(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"ingestion": {"chunk_size": 10, "chunk_overlap": 10}, "retrieval": {"k": 0}})
        )
        with pytest.raises(ConfigError) as excinfo:
            load_config(bad)
        message = str(excinfo.value)
        assert "chunk_overlap" in message and "retrieval.k" in message

    def test_env_var_overrides_api_key(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gateway": {"api_key": "from-file"}}))
        monkeypatch.setenv("VERDOC_API_KEY", "from-env")
        assert load_config(path).gateway.api_key == "from-env"

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gateway": {"warp_drive": True}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_engine_load_requires_artifacts(self, tmp_path):
        with pytest.raises(EmptyIndexError):
            Engine.load(tmp_path, build_gateway(load_config(None)))

    def test_usage_error_exit_code(self, config_file):
        assert run_cli(config_file, "definitely-not-a-command") == 1

    def test_backend_error_exit_code(self, tmp_path, corpus, capsys):
        unreachable = tmp_path / "http.json"
        unreachable.write_text(
            json.dumps(
                {"gateway": {"backend": "http", "base_url": "http://127.0.0.1:1", "model": "m"}}
            )
        )
        code = main(
            ["--config", str(unreachable), "index", str(corpus), "--out", str(tmp_path / "o")]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "cannot reach" in captured.err

    def test_mock_script_file_via_config(self, tmp_path, corpus, capsys):
        script_path = tmp_path / "script.json"
        script_path.write_text(
            json.dumps(
                [
                    {
                        "schema": "attributes",
                        "match": ["Apache Spark Changelog", '"doc_type"'],
                        "reply": '{"doc_type": "changelog"}',
                    }
                ]
            )
        )
        config_path = tmp_path / "scripted.json"
        config_path.write_text(
            json.dumps({"gateway": {"backend": "mock", "dimension": 64, "script_path": str(script_path)}})
        )
        out = tmp_path / "scripted_index"
        code = main(["--config", str(config_path), "index", str(corpus), "--out", str(out)])
        capsys.readouterr()
        assert code == 0


def scripted_config(tmp_path, script_bytes):
    script_path = tmp_path / "script.json"
    script_path.write_bytes(script_bytes)
    config_path = tmp_path / "scripted.json"
    config_path.write_text(
        json.dumps({"gateway": {"backend": "mock", "dimension": 64, "script_path": str(script_path)}})
    )
    return config_path


class TestUnreadableInputFiles:
    """A JSON or JSONL file that the CLI reads outside the index and cannot
    use ends the run with a typed error and its exit code, not a traceback."""

    @pytest.mark.parametrize(
        "content", [b"\xff{}", b"[1, 2]", b"{"], ids=["not-utf8", "not-an-object", "not-json"]
    )
    def test_bad_config_file_is_a_config_error(self, tmp_path, indexed_dir, content, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_bytes(content)
        code = run_cli(config_path, "validate", "--index", str(indexed_dir))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("ConfigError: ") and "config file" in captured.err

    @pytest.mark.parametrize(
        "content",
        [b"\xff[]", b'{"match": [], "reply": "x"}', b'["reply"]'],
        ids=["not-utf8", "an-object", "entry-not-an-object"],
    )
    def test_bad_mock_script_is_a_config_error(self, tmp_path, corpus, content, capsys):
        config_path = scripted_config(tmp_path, content)
        code = run_cli(config_path, "index", str(corpus), "--out", str(tmp_path / "o"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("ConfigError: ") and "mock script" in captured.err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [b"{", b"[]", b"\xff"], ids=["not-json", "not-an-object", "not-utf8"])
    def test_bad_summary_is_a_data_error(self, indexed_dir, config_file, content, capsys):
        (indexed_dir / "summary.json").write_bytes(content)
        code = run_cli(config_file, "usage", "--index", str(indexed_dir))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("CorruptFileError: ") and "summary file" in captured.err

    @pytest.mark.parametrize(
        "content,problem",
        [
            (b"5\n", "line 1: expected a JSON object"),
            (b'["q1"]\n', "line 1: expected a JSON object"),
            (b"\n\xff\n", "line 2: invalid JSON"),
        ],
        ids=["number", "array", "not-utf8"],
    )
    def test_bad_dataset_line_is_a_data_error(
        self, tmp_path, indexed_dir, config_file, content, problem, capsys
    ):
        dataset = tmp_path / "qa.jsonl"
        dataset.write_bytes(content)
        code = run_cli(config_file, "eval", str(dataset), "--index", str(indexed_dir))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("DatasetSchemaError: " + problem)


WIDGET = "# Widget Guide\n\nVersion: {version}\n\n## Usage\n\nRun the widget with the {flag} flag.\n"


def verdoc_cli(*args, cwd):
    """Run ``python -m verdoc.cli`` in a fresh interpreter, as a user would."""
    src = str(Path(verdoc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "verdoc.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_entry_point_indexes_reindexes_answers_and_validates(tmp_path):
    """The module entry point end to end on a two-version corpus: an
    unchanged re-index prints the same counts and leaves all six index
    files and the stat signature untouched; an in-place edit, and then a
    same-size edit whose mtime is restored, are re-indexed, validated and
    read back; a damaged graph makes ``validate`` exit with 2."""
    widget = tmp_path / "corpus" / "widget"
    widget.mkdir(parents=True)
    (widget / "1.0.0.md").write_text(WIDGET.format(version="1.0.0", flag="blue"), encoding="utf-8")
    (widget / "2.0.0.md").write_text(WIDGET.format(version="2.0.0", flag="red"), encoding="utf-8")
    index = tmp_path / "index"
    files = [index / name for name in (*HASHED_FILES, SUMMARY_FILE, MANIFEST_FILE, SIGNATURE_FILE)]

    def run(*args):
        done = verdoc_cli(*args, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def counts(stdout):
        printed = json.loads(stdout)
        return {key: printed[key] for key in ("documents", "categories", "groups", "versions")}

    def state():
        return {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in files}

    first = counts(run("index", "corpus", "--out", "index"))
    assert first == {"documents": 2, "categories": 1, "groups": 1, "versions": 2}
    before = state()
    assert counts(run("index", "corpus", "--out", "index")) == first
    assert state() == before

    assert run("validate", "--index", "index") == "graph valid\n"
    reply = json.loads(run("query", "When was the red flag introduced?", "--index", "index", "--json"))
    assert reply["intent"] == "change" and "red flag" in reply["answer"]

    (widget / "2.0.0.md").write_text(WIDGET.format(version="2.0.0", flag="green"), encoding="utf-8")
    run("index", "corpus", "--out", "index")
    assert state()[MANIFEST_FILE] != before[MANIFEST_FILE]
    run("validate", "--index", "index")
    question = "Which flag does Widget Guide 2.0.0 use?"
    assert "green" in json.loads(run("query", question, "--index", "index", "--json"))["answer"]

    # same size, same mtime: only the ctime tells the stat signature of the edit
    edited = widget / "2.0.0.md"
    mtime = edited.stat().st_mtime_ns
    edited.write_text(WIDGET.format(version="2.0.0", flag="black"), encoding="utf-8")
    os.utime(edited, ns=(mtime, mtime))
    run("index", "corpus", "--out", "index")
    run("validate", "--index", "index")
    assert "black" in json.loads(run("query", question, "--index", "index", "--json"))["answer"]

    graph = index / "graph.json"
    graph.write_bytes(graph.read_bytes()[:-100])
    done = verdoc_cli("validate", "--index", "index", cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("CorruptFileError: cannot read graph file")
