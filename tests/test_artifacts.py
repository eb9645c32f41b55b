"""Pinned index artifacts: the bytes an index of criterion 9's corpus writes.

A change that alters any of these files alters the on-disk format or what
indexing computes; when that is the change's purpose, update the digests
here and say so in CHANGES.md. The corpus is indexed through a relative
path, so the source paths stored in the files do not depend on where the
test runs.
"""

import hashlib

from conftest import make_gateway, spark_changelog_corpus, write_corpus
from test_acceptance import DIMENSION, purity_corpus

from verdoc.indexer import index_corpus

PINNED = {
    "graph.json": "86c10a93381ebbcf03d06d1b281a65436d1bfacc3060aeed6a39bededa968740",
    # holds the sha256 of vectors.npy, so it pins the vectors too
    "vectors.json": "6688ea84678c354ac7c99e11f1ae6b45c4e8a55728ce3c6617351e70469f95e9",
    "attributes.json": "6a3be9d8dd1aa95ce807256776d8af541895ea6a419f1210373e2a5f406280ad",
    "summary.json": "bcc7cc19077610665f8d7cf6ffb4b738c1c2ab1a2aa58c52c6543892801707ae",
    # holds the sha256 of the other files but summary.json, and of the clustered corpus
    "manifest.json": "7d225160f7cfdfb75b2e9d6be81a90c0968cd14f18da61f382022a4cd7a93922",
}


def test_criterion_9_corpus_artifacts_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "corpus", {**purity_corpus(), **spark_changelog_corpus()})
    index_corpus("corpus", "out", make_gateway(dimension=DIMENSION), dimension=DIMENSION)
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in PINNED
    }
    assert digests == PINNED
