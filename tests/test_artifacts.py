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
    "graph.json": "2ad620fce383371047a2b9c9c897066a8d562e36e459ca91739f80391543a824",
    # holds the sha256 of vectors.npy, so it pins the vectors too
    "vectors.json": "ea85774f68397d3faa964a07c6432e27c34adce98c894b3aa00c2de9bf7ab3dc",
    "attributes.json": "33f76c3edcc475a20c4c43e19036c1ba4f4aef88c5d687a0d04bc24f036ce265",
    "summary.json": "9c0f423004cfc0f3e1efe2b8e02e9f4326f001d6a9ebdbb8b4049f135580710c",
    # holds the sha256 of the other files but summary.json and of the clustered corpus,
    # and the ids of the mock's models
    "manifest.json": "765ada4a66c683fb171ae08265c9e141dfd8475549a8ff62a47b7317d1606010",
}


def test_criterion_9_corpus_artifacts_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "corpus", {**purity_corpus(), **spark_changelog_corpus()})
    index_corpus("corpus", "out", make_gateway(dimension=DIMENSION), dimension=DIMENSION)
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in PINNED
    }
    assert digests == PINNED
