import json
import logging
import random

import pytest
from hypothesis import given, settings, strategies as st

from verdoc.changes import (
    DiffHunk,
    HunkKind,
    apply_hunks,
    deterministic_description,
    extract_explicit_changes,
    extract_implicit_changes,
    line_diff,
)
from verdoc.graph import ChangeKind, ChangeOrigin
from verdoc.indexer import DocumentAttributes
from verdoc.ingestion import RawDocument
from verdoc.versions import parse_version

from conftest import changelog_text, doc_text, make_gateway, raw


class TestLineDiff:
    def test_identical_texts(self):
        assert line_diff("a\nb\nc", "a\nb\nc") == []

    def test_single_append(self):
        hunks = line_diff("a\nb", "a\nb\nc")
        assert len(hunks) == 1
        assert hunks[0].kind is HunkKind.ADDED_LINES
        assert hunks[0].new_text == "c"
        assert hunks[0].old_span is None
        assert hunks[0].new_span == (2, 3)

    def test_single_removal(self):
        hunks = line_diff("a\nb\nc", "a\nc")
        assert len(hunks) == 1
        assert hunks[0].kind is HunkKind.REMOVED_LINES
        assert hunks[0].old_text == "b"
        assert hunks[0].new_span is None

    def test_replacement(self):
        hunks = line_diff("a\nb\nc", "a\nB\nc")
        assert len(hunks) == 1
        assert hunks[0].kind is HunkKind.REPLACED_LINES
        assert hunks[0].old_text == "b"
        assert hunks[0].new_text == "B"

    def test_trailing_whitespace_only_change_is_silent(self):
        assert line_diff("a  \nb", "a\nb") == []

    def test_hunk_ids_carry_prefix_and_position(self):
        hunks = line_diff("a\nb\nc\nd", "a\nX\nc\nY", hunk_prefix="p")
        assert [h.id for h in hunks] == ["p0000", "p0001"]

    def seeded_edit(self, rng, lines):
        """Apply one random line edit; returns (new_lines, sentinel)."""
        sentinel = f"sentinel-{rng.randrange(10**9)}"
        kind = rng.choice(["insert", "delete", "replace"])
        out = list(lines)
        if kind == "insert" or not out:
            out.insert(rng.randrange(len(out) + 1), sentinel)
            return out, ("added", sentinel)
        position = rng.randrange(len(out))
        if kind == "delete":
            removed = out.pop(position)
            return out, ("removed", removed)
        removed = out[position]
        out[position] = sentinel
        return out, ("replaced", sentinel)

    @pytest.mark.parametrize("seed", range(40))
    def test_patch_apply_reconstruction(self, seed):
        rng = random.Random(seed)
        lines = [f"line {i} content {rng.randrange(100)}" for i in range(200)]
        new_lines = list(lines)
        for _ in range(5):
            new_lines, _ = self.seeded_edit(rng, new_lines)
        old_text = "\n".join(lines)
        new_text = "\n".join(new_lines)
        hunks = line_diff(old_text, new_text)
        assert apply_hunks(old_text, hunks) == new_text  # oracle: byte-exact replay

    @pytest.mark.parametrize("seed", range(40))
    def test_diff_symmetry(self, seed):
        rng = random.Random(seed + 1000)
        a_lines = [f"ln {rng.randrange(30)}" for _ in range(rng.randrange(0, 60))]
        b_lines = [f"ln {rng.randrange(30)}" for _ in range(rng.randrange(0, 60))]
        a, b = "\n".join(a_lines), "\n".join(b_lines)
        forward = line_diff(a, b)
        backward = line_diff(b, a)
        swapped = [
            (
                {HunkKind.ADDED_LINES: HunkKind.REMOVED_LINES,
                 HunkKind.REMOVED_LINES: HunkKind.ADDED_LINES,
                 HunkKind.REPLACED_LINES: HunkKind.REPLACED_LINES}[h.kind],
                h.new_span,
                h.old_span,
                h.new_text,
                h.old_text,
            )
            for h in backward
        ]
        expected = [(h.kind, h.old_span, h.new_span, h.old_text, h.new_text) for h in forward]
        assert sorted(map(repr, swapped)) == sorted(map(repr, expected))

    @pytest.mark.parametrize("seed", range(20))
    def test_added_lines_recall(self, seed):
        rng = random.Random(seed + 31)
        old_lines = [f"base {i}" for i in range(50)]
        new_lines = list(old_lines)
        sentinels = []
        for _ in range(5):
            s = f"sentinel-{rng.randrange(10**9)}"
            sentinels.append(s)
            new_lines.insert(rng.randrange(len(new_lines) + 1), s)
        hunks = line_diff("\n".join(old_lines), "\n".join(new_lines))
        added_text = "\n".join(h.new_text for h in hunks if h.new_text)
        for s in sentinels:
            assert s in added_text  # recall 1.0 for seeded additions

    def test_empty_to_text(self):
        hunks = line_diff("", "a\nb")
        assert apply_hunks("", hunks) == "a\nb"

    def test_crlf_texts_round_trip(self):
        # newline-terminated CRLF files: unchanged lines are byte-identical
        old = "alpha\r\nbeta\r\ngamma\r\n"
        new = "alpha\r\nBETA\r\ngamma\r\ndelta\r\n"
        hunks = line_diff(old, new)
        assert apply_hunks(old, hunks) == new

    def test_crlf_without_final_newline_matches_modulo_trailing_whitespace(self):
        # appending after an unterminated last line changes only its trailing
        # \r; such lines count as unchanged, so replay keeps the old bytes
        old = "alpha\r\nbeta\r\ngamma"
        new = "alpha\r\nbeta\r\ngamma\r\ndelta"
        rebuilt = apply_hunks(old, line_diff(old, new))
        assert [l.rstrip() for l in rebuilt.split("\n")] == [
            l.rstrip() for l in new.split("\n")
        ]

    def test_empty_line_insertion_survives(self):
        old = "a\nb"
        new = "a\n\nb"
        hunks = line_diff(old, new)
        assert apply_hunks(old, hunks) == new

    # lines are rstripped by the strategy: matching ignores trailing
    # whitespace, so byte-exact replay is only promised for such texts
    _line = st.text(alphabet="abx 019", min_size=0, max_size=10).map(str.rstrip)
    _text = st.lists(_line, min_size=0, max_size=25).map("\n".join)

    @settings(max_examples=200, deadline=None)
    @given(old=_text, new=_text)
    def test_patch_fidelity_property(self, old, new):
        assert apply_hunks(old, line_diff(old, new)) == new

    def test_deterministic_description_first_line_truncated(self):
        hunk = DiffHunk(
            id="h0",
            kind=HunkKind.ADDED_LINES,
            old_span=None,
            new_span=(0, 2),
            old_text="",
            new_text="\n" + ("x" * 500),
        )
        description = deterministic_description(hunk)
        assert description == "x" * 200


class TestImplicitExtraction:
    def test_added_method_detected(self, gateway):
        prev_text = doc_text(
            "Node.js Assert",
            "21.7.3",
            [("assert.ok(value)", ["Stability: 2 - Stable", "Tests truthiness."])],
        )
        next_text = doc_text(
            "Node.js Assert",
            "22.14.0",
            [
                ("assert.ok(value)", ["Stability: 2 - Stable", "Tests truthiness."]),
                (
                    "assert.partialDeepStrictEqual(actual, expected)",
                    ["Stability: 1.0 - Early development", "Tests partial equality."],
                ),
            ],
        )
        records = extract_implicit_changes(
            "document:assert",
            (parse_version("21.7.3"), raw("21.md", prev_text)),
            (parse_version("22.14.0"), raw("22.md", next_text)),
            gateway,
        )
        added = [r for r in records if r.kind is ChangeKind.ADDED]
        assert any("partialDeepStrictEqual" in r.description for r in added)
        assert all(r.origin is ChangeOrigin.IMPLICIT for r in records)
        assert all(r.evidence for r in records)

    def test_identical_versions_yield_nothing(self, gateway):
        text = doc_text("Guide", "1.0", [("topic", ["same content"])])
        records = extract_implicit_changes(
            "document:guide",
            (parse_version("1.0.0"), raw("1.0.md", text)),
            (parse_version("1.1.0"), raw("1.1.md", text)),
            gateway,
        )
        assert records == []

    def test_one_removed_section_yields_one_removed_record(self, gateway):
        removed_section = ("old feature", [f"detail line {i}" for i in range(10)])
        # bodies share the version line so the section is the only difference
        prev_text = doc_text("Guide", "1.0", [("kept", ["stays"]), removed_section])
        next_text = doc_text("Guide", "1.0", [("kept", ["stays"])])
        # oracle: the hunk count from line_diff fixes the record count
        hunks = line_diff(prev_text, next_text)
        assert len(hunks) == 1
        records = extract_implicit_changes(
            "document:guide",
            (parse_version("1.0"), raw("1.0.md", prev_text)),
            (parse_version("1.1"), raw("1.1.md", next_text)),
            gateway,
        )
        assert len(records) == 1
        assert records[0].kind is ChangeKind.REMOVED

    def test_non_ascending_versions_rejected(self, gateway):
        with pytest.raises(ValueError):
            extract_implicit_changes(
                "document:d",
                (parse_version("2.0"), raw("2.0.md", "a")),
                (parse_version("1.0"), raw("1.0.md", "b")),
                gateway,
            )

    def test_scripted_merge_mapping_accepted(self):
        script = [
            {
                "match": ["===BEGIN HUNK 0"],
                "schema": "change_summary",
                "reply": '{"changes": [{"kind": "modified", "description": "one merged change", "hunks": [0, 1]}]}',
            }
        ]
        gateway = make_gateway(script=script)
        prev = "a\nb\nc\nd\ne"
        nxt = "a\nX\nc\nY\ne"
        records = extract_implicit_changes(
            "document:d",
            (parse_version("1.0"), raw("1.0.md", prev)),
            (parse_version("2.0"), raw("2.0.md", nxt)),
            gateway,
        )
        assert len(records) == 1
        assert records[0].description == "one merged change"
        assert len(records[0].evidence) == 2

    def test_invalid_merge_mapping_falls_back_to_per_hunk(self):
        script = [
            {
                "match": ["===BEGIN HUNK 0"],
                "schema": "change_summary",
                "reply": '{"changes": [{"kind": "modified", "description": "covers only one", "hunks": [0]}]}',
            }
        ]
        gateway = make_gateway(script=script)
        prev = "a\nb\nc\nd\ne"
        nxt = "a\nX\nc\nY\ne"
        records = extract_implicit_changes(
            "document:d",
            (parse_version("1.0"), raw("1.0.md", prev)),
            (parse_version("2.0"), raw("2.0.md", nxt)),
            gateway,
        )
        assert len(records) == 2  # partition violated -> one record per hunk

    @pytest.mark.parametrize(
        "groups",
        [
            pytest.param([[0, 1], [1]], id="overlapping"),
            pytest.param([[0]], id="missing"),
            pytest.param([[0], [5]], id="out-of-range"),
            pytest.param([[0, 0, 1]], id="repeated"),
            pytest.param([[0, 5], [1]], id="out-of-range-inside"),
        ],
    )
    def test_merge_mapping_that_is_not_a_partition_is_logged(self, caplog, groups):
        changes = [{"kind": "modified", "description": "merged", "hunks": h} for h in groups]
        script = [
            {
                "match": ["===BEGIN HUNK 0"],
                "schema": "change_summary",
                "reply": json.dumps({"changes": changes}),
            }
        ]
        with caplog.at_level(logging.WARNING, logger="verdoc.changes"):
            records = extract_implicit_changes(
                "document:d",
                (parse_version("1.0"), raw("1.0.md", "a\nb\nc\nd\ne")),
                (parse_version("2.0"), raw("2.0.md", "a\nX\nc\nY\ne")),
                make_gateway(script=script),
            )
        assert len(records) == 2
        assert len(caplog.records) == 1
        assert caplog.records[0].msg.startswith("hunk summarization failed, using per-hunk records")


class TestExplicitExtraction:
    def attrs(self, version):
        return DocumentAttributes(
            title="Apache Spark Changelog",
            summary="",
            version=parse_version(version),
            doc_type="changelog",
        )

    def test_spark_avro_upgrade(self, gateway):
        doc = RawDocument(
            source_path="spark/3.5.5.md",
            text=changelog_text(
                "Apache Spark",
                "3.5.5",
                ["Upgraded Avro to version 1.11.4", "Fixed regression in UI job listing"],
            ),
        )
        records = extract_explicit_changes(doc, self.attrs("3.5.5"), "document:spark", gateway)
        avro = [r for r in records if "Avro" in r.description]
        assert avro and avro[0].to_version.raw == "3.5.5"
        assert avro[0].description == "Upgraded Avro to version 1.11.4"
        assert all(r.origin is ChangeOrigin.EXPLICIT and not r.evidence for r in records)

    def test_bootstrap_badges(self, gateway):
        doc = RawDocument(
            source_path="bootstrap/5.3.3.md",
            text=changelog_text(
                "Bootstrap",
                "5.3.3",
                [
                    "Badges now use the .text-bg-* text utilities for readable text",
                    "Fixed a selector engine regression with multiple IDs",
                ],
            ),
        )
        records = extract_explicit_changes(
            doc,
            DocumentAttributes(
                title="Bootstrap Changelog",
                summary="",
                version=parse_version("5.3.3"),
                doc_type="changelog",
            ),
            "document:bootstrap",
            gateway,
        )
        assert any(".text-bg-*" in r.description for r in records)
        assert all(r.to_version.raw == "5.3.3" for r in records)

    def test_changelog_without_items_yields_empty(self, gateway):
        doc = RawDocument(
            source_path="c.md",
            text="# Widget Changelog\n\nRelease notes for Widget.\n\nNothing listed here.\n",
        )
        records = extract_explicit_changes(
            doc,
            DocumentAttributes(title="Widget Changelog", summary="", version=None, doc_type="changelog"),
            "document:widget",
            gateway,
        )
        assert records == []

    def test_non_changelog_rejected(self, gateway):
        doc = RawDocument(source_path="d.md", text="# Doc\n\ntext\n")
        with pytest.raises(ValueError):
            extract_explicit_changes(
                doc,
                DocumentAttributes(title="Doc", summary="", version=None, doc_type="documentation"),
                "document:doc",
                gateway,
            )

    def test_multi_version_changelog(self, gateway):
        text = (
            "# Widget Changelog\n\nRelease notes for Widget.\n\n"
            "## Version 1.1.0\n\n- Added frobnicator support\n\n"
            "## Version 1.2.0\n\n- Removed legacy widget API\n"
        )
        doc = RawDocument(source_path="w.md", text=text)
        records = extract_explicit_changes(
            doc,
            DocumentAttributes(title="Widget Changelog", summary="", version=None, doc_type="changelog"),
            "document:widget",
            gateway,
        )
        assert {r.to_version.raw for r in records} == {"1.1.0", "1.2.0"}
        kinds = {r.to_version.raw: r.kind for r in records}
        assert kinds["1.1.0"] is ChangeKind.ADDED
        assert kinds["1.2.0"] is ChangeKind.REMOVED
