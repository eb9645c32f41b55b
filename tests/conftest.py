"""Shared fixtures: gateways and synthetic corpus builders.

The builders emit Markdown shaped like real documentation so the offline
backend's rule-based extraction finds titles, versions and document types
without scripted replies.
"""

from __future__ import annotations

import pytest

from verdoc.gateway import Gateway, MockBackend
from verdoc.ingestion import RawDocument

DIMENSION = 64  # small embeddings keep the suite fast


@pytest.fixture
def gateway():
    return Gateway(MockBackend(), dimension=DIMENSION)


def make_gateway(script=None, dimension=DIMENSION, **kwargs) -> Gateway:
    return Gateway(MockBackend(script=script), dimension=dimension, **kwargs)


def sidecar_entries(sidecar: dict) -> list:
    """The rows of a ``vectors.json`` sidecar as ``{"key", "metadata",
    "text"}`` objects, the layout vector formats 1 to 5 stored, in key order.
    Format 6 stores the metadata as columns: code -1 is a row without the
    field, and any other code is the position of the row's value."""
    rows = [{"key": k, "metadata": {}, "text": t} for k, t in zip(sidecar["keys"], sidecar["texts"])]
    for name, column in sidecar["metadata"].items():
        for row, code in zip(rows, column["codes"]):
            if code >= 0:
                row["metadata"][name] = column["values"][code]
    return rows


def graph_nodes(graph: dict) -> list:
    """The nodes of a ``graph.json`` payload with each change record a node
    of its own (``"node_kind": "change"``), the layout graph formats 1 to 5
    stored, in id order. Format 6 stores the records as columns: a coded
    column holds values and one code per record, the position of its value,
    and from-version code -1 is a record without one."""
    changes = graph["changes"]
    records = []
    for row, record_id in enumerate(changes["id"]):
        record = {"id": record_id, "node_kind": "change"}
        for name, column in changes.items():
            if isinstance(column, dict):
                code = column["codes"][row]
                record[name] = None if code < 0 else column["values"][code]
            else:
                record[name] = column[row]
        records.append(record)
    return sorted(graph["nodes"] + records, key=lambda node: node["id"])


def doc_text(title: str, version: str, sections) -> str:
    """Documentation file: title heading, version line, ## sections."""
    parts = [f"# {title}", "", f"Version: {version}", "", f"{title} reference documentation."]
    for heading, lines in sections:
        parts += ["", f"## {heading}", ""]
        parts += list(lines)
    return "\n".join(parts) + "\n"


def changelog_text(product: str, version: str, items) -> str:
    """Changelog file: one version heading with bullet items."""
    parts = [
        f"# {product} Changelog",
        "",
        f"Release notes for {product}.",
        "",
        f"## Version {version}",
        "",
    ]
    parts += [f"- {item}" for item in items]
    return "\n".join(parts) + "\n"


def raw(path: str, text: str) -> RawDocument:
    return RawDocument(source_path=path, text=text)


def write_corpus(root, files: dict) -> None:
    """Write {relative_path: text} under root."""
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


def spark_changelog_corpus() -> dict:
    """Six changelog files mirroring a changelog-per-release layout."""
    releases = {
        "2.4.7": ["Fixed scheduler deadlock under heavy load", "Improved shuffle spill accounting"],
        "3.3.4": ["Fixed ANSI interval arithmetic overflow", "Updated log4j dependency"],
        "3.4.4": ["Fixed executor rolling upgrade regression", "Improved push-based shuffle retries"],
        "3.5.3": ["Fixed columnar scan crash on nested maps", "Updated parquet reader defaults"],
        "3.5.4": ["Fixed streaming checkpoint cleanup race", "Improved broadcast join planning"],
        "3.5.5": ["Upgraded Avro to version 1.11.4", "Fixed regression in UI job listing"],
    }
    return {
        f"spark/{version}.md": changelog_text("Apache Spark", version, items)
        for version, items in releases.items()
    }


def assert_doc_corpus() -> dict:
    """Three documentation versions of one module with tracked changes."""
    base_sections = [
        ("assert.ok(value)", ["Stability: 2 - Stable", "Tests whether value is truthy."]),
        (
            "assert.deepEqual(actual, expected)",
            ["Stability: 0 - Deprecated", "Tests coercive deep equality."],
        ),
    ]
    v20 = base_sections + [
        (
            "assert.CallTracker()",
            ["Stability: 0 - Deprecated", "Tracks whether functions were called."],
        )
    ]
    v21 = base_sections + [
        (
            "assert.CallTracker()",
            ["Stability: 0 - Deprecated", "Tracks whether functions were called."],
        )
    ]
    v22 = base_sections + [
        (
            "assert.partialDeepStrictEqual(actual, expected)",
            ["Stability: 1.0 - Early development", "Tests partial deep strict equality."],
        )
    ]
    return {
        "assert/20.md": doc_text("Node.js Assert", "20.19.0", v20),
        "assert/21.md": doc_text("Node.js Assert", "21.7.3", v21),
        "assert/22.md": doc_text("Node.js Assert", "22.14.0", v22),
    }


def marker_corpus(documents: int = 2, versions: int = 3, extra_lines: int = 12) -> dict:
    """Docs whose versions differ only by a version-unique marker token."""
    files = {}
    for d in range(documents):
        title = f"Widget Service {chr(ord('A') + d)}"
        for v in range(1, versions + 1):
            version = f"{v}.0.0"
            marker = f"marker-{chr(ord('a') + d)}{v}"
            sections = [
                (
                    "configuration reference",
                    [f"The unique marker token for this release is {marker}."]
                    + [
                        f"Shared configuration line {i} describing widget service behaviour."
                        for i in range(extra_lines)
                    ],
                )
            ]
            files[f"doc{d}/v{v}.md"] = doc_text(title, version, sections)
    return files
