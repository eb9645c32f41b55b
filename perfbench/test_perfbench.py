"""Self-tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import logging
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from spans import Span, Tracer, self_times, totals  # noqa: E402

SMALL = corpus.Shape(
    groups=6,
    versions=5,
    body_lines=40,
    words_per_line=6,
    edits=2,
    changelog_share=0.34,
    changelog_items=3,
    unversioned_files=2,
)


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*.md"))}


# --- generator ---------------------------------------------------------------------


def test_same_seed_writes_same_bytes(tmp_path):
    first = corpus.generate(tmp_path / "a", SMALL, seed=7)
    second = corpus.generate(tmp_path / "b", SMALL, seed=7)
    assert _files(first.root) == _files(second.root)
    assert (first.files, first.tokens, first.bytes) == (second.files, second.tokens, second.bytes)
    assert [g.listing for g in first.groups] == [g.listing for g in second.groups]


def test_other_seed_writes_other_bytes(tmp_path):
    first = corpus.generate(tmp_path / "a", SMALL, seed=7)
    other = corpus.generate(tmp_path / "b", SMALL, seed=8)
    assert _files(first.root) != _files(other.root)


def test_corpus_shape_and_labels(tmp_path):
    generated = corpus.generate(tmp_path / "c", SMALL, seed=3)
    assert generated.files == SMALL.groups * SMALL.versions
    assert sum(g.changelog for g in generated.groups) == 2
    unversioned = [r for g in generated.groups for r in g.releases if r.label is None]
    assert len(unversioned) == SMALL.unversioned_files
    for group in generated.groups:
        labels = [label for label in group.listing if label is not None]
        keys = [corpus._triple(label) for label in labels]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), group.listing
    for release in unversioned:
        text = (generated.root / release.path).read_text()
        assert "Version" not in text and not corpus._VERSION_TOKEN.search(text)


def test_numeric_label_drops_prefix_and_suffix():
    assert corpus.numeric_label("v2.10-rc1") == "2.10"
    assert corpus.numeric_label("3.0.1") == "3.0.1"
    with pytest.raises(ValueError):
        corpus.numeric_label("rc1")


# --- percentile rule -----------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.highest_percentile(n) == expected


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# --- spans and self time -----------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0, 100, -1, 1),
        Span("b", 10, 40, 0, 1),
        Span("c", 50, 90, 0, 1),
        Span("d", 60, 70, 2, 1),
        Span("a", 200, 210, -1, 2),
    ]
    assert self_times(spans) == [30, 30, 30, 10, 10]
    summed = totals(spans)
    assert summed["a"] == {"calls": 2, "total_ns": 110, "self_ns": 40}
    assert summed["c"] == {"calls": 1, "total_ns": 40, "self_ns": 30}


def test_nested_same_name_counts_inclusive_time_once():
    spans = [Span("f", 0, 50, -1, 1), Span("f", 10, 20, 0, 1)]
    assert totals(spans)["f"] == {"calls": 2, "total_ns": 50, "self_ns": 50}


class _Subject:
    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2

    @classmethod
    def make(cls):
        return cls()


def test_tracer_records_parents_requests_and_restores():
    original_outer = _Subject.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(_Subject, "outer", "s.outer")
    tracer.wrap(_Subject, "inner", "s.inner")
    tracer.wrap(_Subject, "make", "s.make")
    tracer.count(_Subject, "inner", "s.inner_calls")
    try:
        subject = _Subject.make()
        assert subject.outer(2) == 5
        assert subject.outer(3) == 7
        tracer.enabled = False
        subject.outer(1)
    finally:
        tracer.restore()
    assert [(s.name, s.parent, s.request) for s in tracer.spans] == [
        ("s.make", -1, 1),
        ("s.outer", -1, 2),
        ("s.inner", 1, 2),
        ("s.outer", -1, 3),
        ("s.inner", 3, 3),
    ]
    assert all(s.end_ns >= s.start_ns for s in tracer.spans)
    assert tracer.counts["s.inner_calls"] == 2
    assert _Subject.__dict__["outer"] is original_outer
    assert isinstance(_Subject.__dict__["make"], classmethod)


# --- host speed correction -------------------------------------------------------


def test_correction_drops_probe_time_and_scales_by_local_speed():
    speed = hostspeed.HostSpeed()
    slow = 2 * hostspeed.REFERENCE_PROBE_S
    speed.starts = [i / 100 for i in range(101)]
    speed.ends = [start + slow for start in speed.starts]
    # 0.105 .. 0.305 holds the 20 probes that start at 0.11 .. 0.30
    expected = (0.2 - 20 * slow) * 0.5
    assert speed.correct(0.105, 0.305) == pytest.approx(expected)
    assert speed.correct(0.105, 0.305, 0.5) == pytest.approx((0.2 - 20 * slow) * 0.5**0.5)
    with pytest.raises(RuntimeError):
        speed.correct(5.0, 5.1)


def test_probe_timer_starts_and_stops():
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    finally:
        speed.stop()
    taken = len(speed.starts)
    assert taken >= 3
    assert speed.starts == sorted(speed.starts)
    time.sleep(0.03)
    assert len(speed.starts) == taken


# --- outside accounting ---------------------------------------------------------------


def test_fallback_counter_reads_verdoc_warnings():
    run.import_verdoc()
    import workloads

    counter = workloads.FallbackCounter()
    logger = logging.getLogger("verdoc.test-perfbench")
    logger.addHandler(counter)
    logger.propagate = False
    try:
        logger.warning("schema %s violated (attempt %d): %s", "attributes", 1, "bad")
        logger.warning("schema %s violated (attempt %d): %s", "attributes", 2, "bad")
        logger.warning("auto-created version %s for %s (mentioned by a change record)", "1.2", "d")
        logger.warning("falling back to unfiltered content retrieval: %s", "x")
    finally:
        logger.removeHandler(counter)
    assert counter.counts["gateway.reprompts"] == 1
    assert counter.counts["indexer.synthetic_versions"] == 1
    assert counter.counts["retrieval.parse_fallbacks"] == 1
    assert counter.counts["indexer.cluster_fallbacks"] == 0


def test_judge_needs_every_gold_token():
    run.import_verdoc()
    import workloads

    assert workloads.judge("Version: v2.10-rc1", "Version v2.10-rc1")
    assert workloads.judge("the limit is 4812.", "4812")
    assert not workloads.judge("the limit is 4813.", "4812")
