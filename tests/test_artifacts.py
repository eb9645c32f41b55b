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
    "graph.json": "b36d601ee9be449988e5d872d5feb152fa9e4f11dfe0929657b060f3529653ca",
    # holds the sha256 of vectors.npy, so it pins the vectors too
    "vectors.json": "914b1f47b23d18043f27448c7a7512297bca335902b1096a842b92d2e7c73313",
    "attributes.json": "33f76c3edcc475a20c4c43e19036c1ba4f4aef88c5d687a0d04bc24f036ce265",
    "summary.json": "9c0f423004cfc0f3e1efe2b8e02e9f4326f001d6a9ebdbb8b4049f135580710c",
    # holds the sha256 of the other files but summary.json and of the clustered corpus,
    # and the ids of the mock's models
    "manifest.json": "a5d836633503911ca6b61f12ee30029523e98b8c5bcbfe449f1aae029fe07b04",
}


def test_criterion_9_corpus_artifacts_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "corpus", {**purity_corpus(), **spark_changelog_corpus()})
    index_corpus("corpus", "out", make_gateway(dimension=DIMENSION), dimension=DIMENSION)
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in PINNED
    }
    assert digests == PINNED
