"""Pinned index artifacts: the bytes an index of criterion 9's corpus writes.

A change that alters any of these files alters the on-disk format or what
indexing computes; when that is the change's purpose, update the digests
here and say so in CHANGES.md. Source paths are stored relative to the
corpus root, so the files do not depend on where the test runs.
"""

import hashlib

from conftest import make_gateway, spark_changelog_corpus, write_corpus
from test_acceptance import DIMENSION, purity_corpus

from verdoc.indexer import index_corpus

PINNED = {
    "graph.json": "4429d986c4efc1bc68de2cc47f86916f1a6ce90601ebdff12592a418c05196e9",
    # holds the sha256 of vectors.npy, so it pins the vectors too
    "vectors.json": "914b1f47b23d18043f27448c7a7512297bca335902b1096a842b92d2e7c73313",
    "attributes.json": "33f76c3edcc475a20c4c43e19036c1ba4f4aef88c5d687a0d04bc24f036ce265",
    "summary.json": "9c0f423004cfc0f3e1efe2b8e02e9f4326f001d6a9ebdbb8b4049f135580710c",
    # holds the sha256 of the other files but summary.json, and of the clustered corpus
    "manifest.json": "7b2ff261f3f8e82aa9540d8a1fc3cede45ffc54294d2b0daf0b00d5d288f20f4",
}


def test_criterion_9_corpus_artifacts_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "corpus", {**purity_corpus(), **spark_changelog_corpus()})
    index_corpus("corpus", "out", make_gateway(dimension=DIMENSION), dimension=DIMENSION)
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in PINNED
    }
    assert digests == PINNED
