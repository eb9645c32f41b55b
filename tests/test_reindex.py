"""A re-index equals a fresh index of the corpus as it is now.

A hypothesis state machine edits, deletes and adds corpus files, grows
changelogs, changes ``chunk_size`` and gives the corpus root as a relative
or an absolute path. After every step the index it re-indexes in place
must hold the bytes that a fresh index of the same corpus, with the same
parameters, writes.
"""

import os
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import (
    DIMENSION,
    assert_doc_corpus,
    doc_text,
    make_gateway,
    spark_changelog_corpus,
    write_corpus,
)

from verdoc.indexer import index_corpus
from verdoc.ingestion import CHUNK_SIZE

COMPARED = ("graph.json", "vectors.json", "vectors.npy", "attributes.json", "manifest.json")


class Reindex(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="verdoc-reindex-"))
        self.corpus = self.tmp / "corpus"
        write_corpus(self.corpus, {**spark_changelog_corpus(), **assert_doc_corpus()})
        self.chunk_size = CHUNK_SIZE
        self.relative = False
        self.step = 0

    def teardown(self):
        shutil.rmtree(self.tmp)

    def files(self, folder="") -> list:
        return sorted((self.corpus / folder).rglob("*.md"))

    def note(self) -> str:
        self.step += 1
        return f"Note {self.step}: the zorblax setting changed."

    @rule(pick=st.integers(0, 99), line=st.integers(0, 99))
    def edit_in_place(self, pick, line):
        files = self.files()
        path = files[pick % len(files)]
        lines = path.read_text(encoding="utf-8").split("\n")
        lines.insert(line % (len(lines) + 1), self.note())
        path.write_text("\n".join(lines), encoding="utf-8")

    @precondition(lambda self: len(self.files()) > 1)
    @rule(pick=st.integers(0, 99))
    def delete_file(self, pick):
        files = self.files()
        files[pick % len(files)].unlink()

    @rule()
    def add_version(self):
        sections = [("assert.ok(value)", ["Stability: 2 - Stable", self.note()])]
        major = 22 + self.step  # above every earlier version, and never reused
        text = doc_text("Node.js Assert", f"{major}.0.0", sections)
        write_corpus(self.corpus, {f"assert/{major}.md": text})

    @precondition(lambda self: self.files("spark"))
    @rule(pick=st.integers(0, 99))
    def grow_changelog(self, pick):
        files = self.files("spark")
        path = files[pick % len(files)]
        self.note()
        release = f"\n## Version 3.6.{self.step}\n\n- Added the feature {self.step}\n"
        path.write_text(path.read_text(encoding="utf-8") + release, encoding="utf-8")

    @rule(size=st.sampled_from([64, 128, CHUNK_SIZE]))
    def change_chunk_size(self, size):
        self.chunk_size = size

    @rule(relative=st.booleans())
    def give_root(self, relative):
        self.relative = relative

    @invariant()
    def reindex_writes_what_a_fresh_index_writes(self):
        root = os.path.relpath(self.corpus) if self.relative else self.corpus
        params = {"dimension": DIMENSION, "chunk_size": self.chunk_size}
        index_corpus(root, self.tmp / "out", make_gateway(), **params)
        clean = self.tmp / "clean"
        shutil.rmtree(clean, ignore_errors=True)
        index_corpus(self.corpus, clean, make_gateway(), **params)
        for name in COMPARED:
            assert (self.tmp / "out" / name).read_bytes() == (clean / name).read_bytes(), name


Reindex.TestCase.settings = settings(max_examples=40, stateful_step_count=8, deadline=None)
TestReindex = Reindex.TestCase
