"""The three workloads: corpus shapes, query mix, timed loops and checks.

Every workload indexes a generated corpus with ``index_corpus`` (fresh, then
two or three times again into the same directory) and then asks questions
through ``Engine`` in a closed loop with one client: each question is sent
when the previous answer is back. What differs is the corpus and where the
time goes:

* ``index-docs`` and ``index-long`` spend 60% and 35% of the measured
  window on repeated index passes and the rest on questions;
* ``query-mix`` indexes during set-up and spends the whole window on
  ``Engine.load`` and questions.

The offline ``MockBackend`` answers every completion, so the runs need no
network and their outputs are deterministic. Each question is checked
against gold the generator wrote, and every index against the graph
invariants and the re-index contract.
"""

from __future__ import annotations

import gc
import logging
import random
import re
import resource
import shutil
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import corpus
import hostspeed
import stats
from corpus import Shape
from spans import Tracer, totals

import verdoc.changes
import verdoc.engine
import verdoc.indexer
from verdoc.engine import Engine
from verdoc.errors import VerdocError
from verdoc.gateway import Gateway, MockBackend
from verdoc.graph import VersionGraph
from verdoc.indexer import ATTRIBUTES_FILE, GRAPH_FILE, INDEX_FILE
from verdoc.retrieval import select_mode
from verdoc.vector_index import VectorIndex
from verdoc.versions import VersionLabel

DIMENSION = 256
COLD_REPS = 9
MIN_WARM_ASKS = 1000
QUERIES_PER_KIND = 200
KINDS = ("pinned", "open", "listing", "range", "change")
EXPECTED_MODE = {
    "pinned": "vector_search",
    "open": "vector_search",
    "listing": "graph_traversal",
    "range": "graph_traversal",
    "change": "change_search",
}
REINDEXED_FILES = (GRAPH_FILE, INDEX_FILE, ATTRIBUTES_FILE)


@dataclass(frozen=True)
class Workload:
    shape: Shape
    index_in_setup: bool  # index during set-up instead of the measured window
    index_share: float  # share of the measured window spent indexing
    setup_reps: int  # set-up repetitions; setup_s is their median
    reindexes: int  # re-indexes timed after each fresh index


WORKLOADS = {
    # wide: many groups and versions, short bodies, a fifth changelogs
    "index-docs": Workload(
        Shape(
            groups=12,
            versions=8,
            body_lines=170,
            words_per_line=12,
            edits=3,
            changelog_share=0.2,
            changelog_items=10,
            unversioned_files=2,
        ),
        index_in_setup=False,
        index_share=0.6,
        setup_reps=9,
        reindexes=3,
    ),
    # long: few documents of thousands of short lines, a few edits per release
    "index-long": Workload(
        Shape(
            groups=3,
            versions=4,
            body_lines=6000,
            words_per_line=2,
            edits=3,
            changelog_share=0.0,
            changelog_items=0,
            unversioned_files=0,
        ),
        index_in_setup=False,
        index_share=0.35,
        setup_reps=9,
        reindexes=2,
    ),
    # mid-size bodies, indexed during set-up; the window is all questions
    "query-mix": Workload(
        Shape(
            groups=10,
            versions=8,
            body_lines=400,
            words_per_line=8,
            edits=3,
            changelog_share=0.2,
            changelog_items=10,
            unversioned_files=2,
        ),
        index_in_setup=True,
        index_share=0.0,
        setup_reps=3,
        reindexes=2,
    ),
}


# --- fallbacks, counted from the program's log records ---------------------------


class FallbackCounter(logging.Handler):
    """Counts the warnings verdoc logs when it falls back to a weaker path."""

    MESSAGES = {
        "indexer.cluster_fallbacks": (
            "clustering proposal is not a partition",
            "clustering completion unusable",
        ),
        "indexer.synthetic_versions": ("no version extracted for", "auto-created version"),
        "retrieval.parse_fallbacks": ("falling back to unfiltered content retrieval",),
        "changes.summarize_fallbacks": ("hunk summarization failed",),
    }

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = dict.fromkeys((*self.MESSAGES, "gateway.reprompts"), 0)

    def emit(self, record: logging.LogRecord) -> None:
        template = str(record.msg)
        if template.startswith("schema %s violated"):
            # the first violation of a request triggers the one reprompt
            if record.args and record.args[1] == 1:
                self.counts["gateway.reprompts"] += 1
            return
        for name, prefixes in self.MESSAGES.items():
            if template.startswith(prefixes):
                self.counts[name] += 1
                return


# --- questions -------------------------------------------------------------------


@dataclass
class Query:
    kind: str
    text: str
    gold: str
    title: str = ""
    version: str = ""  # pinned: the only version the context may hold
    listing: list = field(default_factory=list)  # listing: expected labels, None = synthetic
    order: dict = field(default_factory=dict)  # range: label -> chain position
    span: tuple = ()  # range: (from, to)


def make_queries(generated, seed: int) -> list:
    """``QUERIES_PER_KIND`` questions of each kind, interleaved by kind."""
    rng = random.Random(f"{seed}-queries")
    docs = [g for g in generated.groups if not g.changelog]
    changelogs = [g for g in generated.groups if g.changelog]
    by_kind = {kind: [] for kind in KINDS}
    for _ in range(QUERIES_PER_KIND):
        group = rng.choice(docs)
        release = rng.choice([r for r in group.releases if r.label is not None])
        by_kind["pinned"].append(
            Query(
                "pinned",
                f"In {release.label}, the {group.title} {group.pinned_subject} limit for this build is what?",
                release.pinned_value,
                title=group.title,
                version=release.label,
            )
        )
        group = rng.choice(docs)
        by_kind["open"].append(
            Query(
                "open",
                f"The {group.title} {group.stable_subject} default is what?",
                group.stable_value,
                title=group.title,
            )
        )
        group = rng.choice(generated.groups)
        labels = [label for label in group.listing if label is not None]
        by_kind["listing"].append(
            Query(
                "listing",
                f"Which versions of {group.title} are available?",
                " ".join(labels),
                title=group.title,
                listing=group.listing,
            )
        )
        group = rng.choice(docs)
        labels = [label for label in group.listing if label is not None]
        first, last = sorted(rng.sample(range(len(labels)), 2))
        successor = next(r for r in group.releases if r.label == labels[first + 1])
        by_kind["range"].append(
            Query(
                "range",
                f"What changed in {group.title} between {labels[first]} and {labels[last]}?",
                # the first record of a range is the version line of the next release
                f"Version {successor.rendered}",
                title=group.title,
                order={label: i for i, label in enumerate(labels)},
                span=(labels[first], labels[last]),
            )
        )
        if changelogs and len(by_kind["change"]) % 2:
            subject, _ = rng.choice(rng.choice(changelogs).bullets)
            by_kind["change"].append(
                Query("change", f"Which release added the {subject} switch?", f"{subject} switch")
            )
        else:
            group = rng.choice(docs)
            release = rng.choice([r for r in group.releases if r.edits])
            subject, value = rng.choice(release.edits)
            by_kind["change"].append(
                Query(
                    "change",
                    f"When was the {subject} option changed to {value}?",
                    f"{subject} {value}",
                )
            )
    return [by_kind[kind][i] for i in range(QUERIES_PER_KIND) for kind in KINDS]


_WORD = re.compile(r"[a-z0-9]+")


def judge(answer: str, gold: str) -> bool:
    """Every alphanumeric token of the gold occurs in the answer."""
    have = set(_WORD.findall(answer.casefold()))
    return all(token in have for token in _WORD.findall(gold.casefold()))


def check_answer(query: Query, result, graph: VersionGraph) -> Optional[str]:
    """The problem with one answer's context, or None when it is correct."""
    context = result.context
    if context.mode.value != EXPECTED_MODE[query.kind]:
        return f"{query.text!r} routed to {context.mode.value}"
    items = context.items
    if query.kind in ("pinned", "open"):
        if not items:
            return f"{query.text!r} retrieved nothing"
        for item in items:
            if item.document != query.title or query.version not in ("", item.version):
                return f"{query.text!r} context holds {item.document} @ {item.version}"
    elif query.kind == "listing":
        got = [item.version for item in items]
        if len(got) != len(query.listing) or any(i.document != query.title for i in items):
            return f"{query.text!r} listed {got}, expected {query.listing}"
        for want, have in zip(query.listing, got):
            if want is None:
                node = graph.find_version(result.parsed.document, have)
                if node is None or not node.synthetic:
                    return f"{query.text!r} listed {have} where a synthetic label belongs"
            elif want != have:
                return f"{query.text!r} listed {got}, expected {query.listing}"
    elif query.kind == "range":
        low, high = (query.order[label] for label in query.span)
        for item in items:
            ends = [part.strip() for part in item.version.split("->")]
            positions = [query.order.get(end) for end in ends]
            if None in positions or not (
                low <= positions[0] and positions[-1] <= high and positions[-1] > low
            ):
                return f"{query.text!r} context holds {item.version}, outside {query.span}"
    return None


# --- one run ---------------------------------------------------------------------


@dataclass
class Run:
    """Everything a run measures, counts and finds wrong.

    Timings are kept as (start, end) perf_counter intervals and corrected
    for host speed (see :mod:`hostspeed`) when the metrics are computed.
    """

    gateway: Gateway
    fallbacks: FallbackCounter
    tracer: Optional[Tracer] = None
    speed: hostspeed.HostSpeed = field(default_factory=hostspeed.HostSpeed)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)  # corrected seconds per set-up repetition
    index_spans: list = field(default_factory=list)
    reindex_spans: list = field(default_factory=list)
    prompt_tokens: int = 0
    index_bytes: int = 0
    cold_spans: list = field(default_factory=list)
    asks: list = field(default_factory=list)  # (question kind, start, end) of warm asks
    judged: int = 0
    correct: int = 0

    @contextmanager
    def paused(self):
        """Context in which the benchmark's own checks run untraced."""
        tracer = self.tracer
        was = tracer is not None and tracer.enabled
        if tracer is not None:
            tracer.enabled = False
        try:
            yield
        finally:
            if tracer is not None:
                tracer.enabled = was

    def corrected(self, spans, elasticity: float = 1.0) -> list:
        return [self.speed.correct(start, end, elasticity) for start, end in spans]



class Interval:
    """Context that records the (start, end) perf_counter interval it encloses."""

    span = None

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.span = (self._start, time.perf_counter())


def index_pass(run: Run, generated, out_dir: Path, reindexes: int = 1) -> Optional[tuple]:
    """Index into a fresh directory, then re-index into it ``reindexes`` times.

    Returns the index interval and the list of re-index intervals, or None
    when any of them failed. Checks that every graph validates, that each
    re-index sends exactly one completion (the clustering call) and that it
    leaves the index files byte for byte as the fresh index wrote them.
    Garbage is collected before each timed call, so no call pays for
    collections its predecessor's garbage causes.
    """
    gateway = run.gateway
    before = gateway.usage()
    run.attempted += 1
    gc.collect()
    try:
        with Interval() as first:
            summary = verdoc.indexer.index_corpus(generated.root, out_dir, gateway, DIMENSION)
    except VerdocError as exc:
        run.failed += 1
        run.problems.append(f"indexing failed: {exc}")
        return None
    run.prompt_tokens = gateway.usage().input_tokens - before.input_tokens
    with run.paused():
        violations = summary.graph.validate()
        saved = {name: (out_dir / name).read_bytes() for name in REINDEXED_FILES}
    if violations:
        run.problems.append(f"graph invalid after indexing: {violations[:3]}")
    again = []
    for _ in range(reindexes):
        del summary
        calls = gateway.usage().calls
        run.attempted += 1
        gc.collect()
        try:
            with Interval() as second:
                summary = verdoc.indexer.index_corpus(generated.root, out_dir, gateway, DIMENSION)
        except VerdocError as exc:
            run.failed += 1
            run.problems.append(f"re-indexing failed: {exc}")
            return None
        calls = gateway.usage().calls - calls
        again.append(second.span)
        with run.paused():
            violations = summary.graph.validate()
            changed = [n for n in REINDEXED_FILES if (out_dir / n).read_bytes() != saved[n]]
        if violations:
            run.problems.append(f"graph invalid after re-indexing: {violations[:3]}")
        if changed:
            run.problems.append(f"re-indexing rewrote {changed}")
        if calls != 1:
            run.problems.append(f"re-indexing sent {calls} completions, expected 1")
    run.index_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    return first.span, again


def ask(run: Run, engine: Engine, query: Query) -> Optional[tuple]:
    """One question; returns (kind, start, end) or None when it failed."""
    run.attempted += 1
    started = time.perf_counter()
    try:
        result = engine.ask(query.text)
    except VerdocError as exc:
        run.failed += 1
        run.problems.append(f"{query.text!r} failed: {exc}")
        return None
    ended = time.perf_counter()
    with run.paused():
        problem = check_answer(query, result, engine.graph)
    if problem:
        run.problems.append(problem)
    run.judged += 1
    run.correct += judge(result.answer.text, query.gold)
    return query.kind, started, ended


def cold_ask(run: Run, index_dir: Path, query: Query) -> Optional[tuple]:
    """``Engine.load`` plus the first question; returns (engine, interval)."""
    run.attempted += 1
    with Interval() as timing:
        try:
            engine = Engine.load(index_dir, run.gateway)
        except VerdocError as exc:
            run.failed += 1
            run.problems.append(f"loading the index failed: {exc}")
            return None
        asked = ask(run, engine, query)
    if asked is None:
        return None
    return engine, timing.span


def query_phase(run: Run, index_dir: Path, queries: list, deadline: float) -> None:
    """Cold asks, then warm asks in a closed loop until the deadline."""
    engine = None
    for _ in range(COLD_REPS):
        gc.collect()
        loaded = cold_ask(run, index_dir, queries[0])
        if loaded is not None:
            engine, span = loaded
            run.cold_spans.append(span)
    if engine is None:
        raise RuntimeError("no index could be loaded")
    position = 0
    while position < MIN_WARM_ASKS or time.perf_counter() < deadline:
        asked = ask(run, engine, queries[position % len(queries)])
        position += 1
        if asked is not None:
            run.asks.append(asked)


def index_unit(run: Run, generated, out_dir: Path) -> Optional[float]:
    """The unit of the index workloads: corrected seconds of an index and a re-index."""
    passed = index_pass(run, generated, out_dir)
    if passed is None:
        return None
    return sum(run.corrected([passed[0], *passed[1]], hostspeed.INDEX_ELASTICITY))


def query_unit(run: Run, index_dir: Path, queries: list) -> Optional[float]:
    """The unit of ``query-mix``: load the index, ask every question once."""
    with Interval() as timing:
        loaded = cold_ask(run, index_dir, queries[0])
        if loaded is None:
            return None
        engine, _ = loaded
        for query in queries[1:]:
            ask(run, engine, query)
    return run.corrected([timing.span])[0]


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def setup(run: Run, workload: Workload, seed: int, work: Path):
    """Generate the corpus (and index it, for ``query-mix``) ``setup_reps`` times.

    Returns the generated corpus and index directory of the first repetition.
    For ``query-mix`` the index and re-index times also feed the index metrics.
    """
    kept = None
    for rep in range(workload.setup_reps):
        with Interval() as timing:
            generated = corpus.generate(_fresh(work / f"corpus-{rep}"), workload.shape, seed)
        spent = run.corrected([timing.span])[0]
        index_dir = work / f"index-{rep}"
        if workload.index_in_setup:
            passed = index_pass(run, generated, _fresh(index_dir), workload.reindexes)
            if passed is None:
                raise RuntimeError("the set-up index failed")
            run.index_spans.append(passed[0])
            run.reindex_spans += passed[1]
            spent += sum(run.corrected([passed[0], *passed[1]], hostspeed.INDEX_ELASTICITY))
        run.setup_s.append(spent)
        if kept is None:
            kept = (generated, index_dir)
        else:
            shutil.rmtree(generated.root)
            shutil.rmtree(index_dir, ignore_errors=True)
    return kept


def new_run(tracer: Optional[Tracer] = None) -> Run:
    fallbacks = FallbackCounter()
    logging.getLogger("verdoc").addHandler(fallbacks)
    return Run(gateway=Gateway(MockBackend(), dimension=DIMENSION), fallbacks=fallbacks, tracer=tracer)


def measure(name: str, seed: int, seconds: float, work: Path) -> tuple:
    """The untraced run: returns (run, end-to-end metrics)."""
    workload = WORKLOADS[name]
    run = new_run()
    run.speed.start()
    try:
        generated, index_dir = setup(run, workload, seed, work)
        queries = make_queries(generated, seed)
        started = time.perf_counter()
        index_until = started + workload.index_share * seconds
        passes, last = 0, 0.0
        if not workload.index_in_setup:
            # at least two passes; then another only if it ends within the share
            while passes < 2 or time.perf_counter() + last <= index_until:
                pass_started = time.perf_counter()
                index_dir = _fresh(work / f"index-pass-{passes % 2}")
                passed = index_pass(run, generated, index_dir, workload.reindexes)
                passes += 1
                last = time.perf_counter() - pass_started
                if passed is not None:
                    run.index_spans.append(passed[0])
                    run.reindex_spans += passed[1]
        query_phase(run, index_dir, queries, started + seconds)
    finally:
        run.speed.stop()
    return run, end_to_end(run, generated)


def end_to_end(run: Run, generated) -> dict:
    """End-to-end metrics from host-speed corrected timings."""
    if not run.index_spans or not run.asks:
        raise RuntimeError("the run measured no complete index pass or no question")
    samples = run.corrected((start, end) for _, start, end in run.asks)
    by_kind: dict = {kind: [] for kind in KINDS}
    for (kind, _, _), seconds in zip(run.asks, samples):
        by_kind[kind].append(seconds)
    if not all(by_kind.values()):
        raise RuntimeError("some question kind was never answered")

    def route_p50(mode: str) -> float:
        # Two kinds of different cost can share a route; the median of their
        # pooled samples would flip between the two clusters, so each kind's
        # median counts equally instead.
        medians = [stats.median(by_kind[k]) for k in KINDS if EXPECTED_MODE[k] == mode]
        return sum(medians) / len(medians)

    indexed = run.corrected(run.index_spans, hostspeed.INDEX_ELASTICITY)
    reindexed = run.corrected(run.reindex_spans, hostspeed.INDEX_ELASTICITY)
    if stats.highest_percentile(len(samples)) < 99.0:
        raise RuntimeError(f"{len(samples)} warm asks are too few for a 99th percentile")
    ms = 1000.0
    return {
        "setup_s": (stats.median(run.setup_s), "s"),
        "index_tok_per_s": (generated.tokens / stats.median(indexed), "tok/s"),
        "reindex_s": (stats.median(reindexed), "s"),
        "prompt_tok_per_corpus_tok": (run.prompt_tokens / generated.tokens, "ratio"),
        "index_bytes_per_corpus_byte": (run.index_bytes / generated.bytes, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "cold_ask_s": (stats.median(run.corrected(run.cold_spans)), "s"),
        "ask_p50_ms": (stats.median(samples) * ms, "ms"),
        "ask_p99_ms": (stats.percentile(samples, 99.0) * ms, "ms"),
        # one client in a closed loop: throughput is the inverse of the mean latency
        "ask_qps": (len(samples) / sum(samples), "1/s"),
        "ask_vector_p50_ms": (route_p50("vector_search") * ms, "ms"),
        "ask_graph_p50_ms": (route_p50("graph_traversal") * ms, "ms"),
        "ask_changesearch_p50_ms": (route_p50("change_search") * ms, "ms"),
        "answer_accuracy": (run.correct / run.judged, "ratio"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- the traced run ----------------------------------------------------------------


def install(tracer: Tracer, biggest_diff: dict) -> None:
    """Wrap the public functions of each layer where verdoc looks them up."""
    G, V = VersionGraph, VectorIndex
    counts = tracer.counts

    def prompt_tokens_before(args, kwargs):
        return args[0].usage().input_tokens

    def prompt_tokens_after(before, args, kwargs, result):
        schema = args[1].response_schema
        name = schema.value if schema is not None else "free_text"
        counts[f"gateway.prompt_tok.{name}"] += args[0].usage().input_tokens - before

    def embedded(state, args, kwargs, result):
        counts["gateway.embed_texts"] += len(args[1])

    def diffed(state, args, kwargs, result):
        old, new = args[0], args[1]
        lines = old.count("\n") + new.count("\n") + 2
        counts["changes.line_diff_lines"] += lines
        counts["changes.hunks"] += len(result)
        if lines > biggest_diff.get("lines", 0):
            biggest_diff.update(lines=lines, old=old, new=new)

    def searched(state, args, kwargs, result):
        counts["vector_index.rows_scanned"] += len(args[0])
        counts["vector_index.hits"] += len(result)

    def retrieve_name(args, kwargs):
        return "retrieval.retrieve." + select_mode(args[0]).value

    wraps = [
        (verdoc.indexer, "index_corpus", "indexer.index_corpus"),
        (verdoc.indexer, "index_documents", "indexer.index_documents"),
        (verdoc.indexer, "extract_attributes", "indexer.attributes"),
        (verdoc.indexer, "cluster_documents", "indexer.clustering"),
        (verdoc.indexer, "build_graph", "indexer.graph"),
        (verdoc.indexer, "index_content", "indexer.content"),
        (verdoc.indexer, "extract_changes", "indexer.changes"),
        (verdoc.indexer, "load_corpus", "ingestion.load_corpus"),
        (verdoc.indexer, "chunk_document", "ingestion.chunk"),
        (verdoc.indexer, "extract_implicit_changes", "changes.extract_implicit"),
        (verdoc.indexer, "extract_explicit_changes", "changes.extract_explicit"),
        (verdoc.changes, "lcs_ops", "changes.lcs_ops"),
        (G, "versions_of", "graph.versions_of"),
        (G, "add_version", "graph.add_version"),
        (G, "validate", "graph.validate"),
        (G, "changes_between", "graph.changes_between"),
        (G, "save", "graph.save"),
        (G, "load", "graph.load"),
        (V, "save", "vector_index.save"),
        (V, "load", "vector_index.load"),
        (verdoc.engine, "parse_query_safe", "retrieval.parse"),
        (verdoc.engine, "generate_answer", "generation.answer"),
        (Engine, "ask", "engine.ask"),
        (Engine, "load", "engine.load"),
    ]
    for owner, attr, name in wraps:
        tracer.wrap(owner, attr, name)
    tracer.wrap(Gateway, "complete", "gateway.complete", prompt_tokens_before, prompt_tokens_after)
    tracer.wrap(Gateway, "embed", "gateway.embed", after=embedded)
    tracer.wrap(verdoc.changes, "line_diff", "changes.line_diff", after=diffed)
    tracer.wrap(V, "search", "vector_index.search", after=searched)
    tracer.wrap(verdoc.engine, "retrieve", retrieve_name)
    tracer.count(VersionLabel, "sort_key", "versions.sort_key_calls")


def line_diff_peak_mb(biggest_diff: dict) -> float:
    """Peak bytes traced while diffing the largest pair seen, in MB."""
    if not biggest_diff:
        return 0.0
    tracemalloc.start()
    try:
        verdoc.changes.line_diff(biggest_diff["old"], biggest_diff["new"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1024.0 * 1024.0)


class Aggregate:
    """Span totals and counters summed over traced units."""

    def __init__(self):
        self.units = 0
        self.names: dict = {}
        self.counts: dict = {}
        self.index_saves_ns = 0
        self.index_validate_ns = 0
        self.spans = 0

    def add(self, tracer: Tracer) -> None:
        spans = tracer.spans
        self.units += 1
        self.spans += len(spans)
        for name, entry in totals(spans).items():
            mine = self.names.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in mine:
                mine[key] += entry[key]
        for name, value in tracer.counts.items():
            self.counts[name] = self.counts.get(name, 0) + value
        for span in spans:
            if span.parent < 0:
                continue
            parent = spans[span.parent].name
            duration = span.end_ns - span.start_ns
            if parent == "indexer.index_corpus" and span.name in ("graph.save", "vector_index.save"):
                self.index_saves_ns += duration
            elif parent == "indexer.index_documents" and span.name == "graph.validate":
                self.index_validate_ns += duration

    def per_unit(self, value: float) -> float:
        return value / self.units

    def seconds(self, name: str, key: str = "total_ns") -> float:
        return self.per_unit(self.names.get(name, {}).get(key, 0)) / 1e9

    def calls(self, name: str) -> float:
        return self.per_unit(self.names.get(name, {}).get("calls", 0))

    def count(self, name: str) -> float:
        return self.per_unit(self.counts.get(name, 0))


LAYERS = (
    "ingestion", "gateway", "indexer", "changes", "graph",
    "vector_index", "retrieval", "generation", "engine",
)
SCHEMAS = ("attributes", "clusters", "parsed_query", "change_summary", "judge", "free_text")
MODES = ("graph_traversal", "vector_search", "change_search")


def per_layer(agg: Aggregate, fallbacks: dict, peak_mb: float, overhead_pct: float) -> dict:
    """Per-layer metrics, each per traced unit of work."""
    s, count, calls = agg.seconds, agg.count, agg.calls
    rows = count("vector_index.rows_scanned")
    out = {
        "graph.versions_of_calls": (calls("graph.versions_of"), "count"),
        "graph.versions_of_s": (s("graph.versions_of"), "s"),
        "graph.add_version_s": (s("graph.add_version"), "s"),
        "graph.validate_s": (s("graph.validate"), "s"),
        "graph.changes_between_s": (s("graph.changes_between"), "s"),
        "graph.save_s": (s("graph.save"), "s"),
        "graph.load_s": (s("graph.load"), "s"),
        "versions.sort_key_calls": (count("versions.sort_key_calls"), "count"),
        "changes.line_diff_calls": (calls("changes.line_diff"), "count"),
        "changes.line_diff_lines": (count("changes.line_diff_lines"), "count"),
        "changes.line_diff_s": (s("changes.line_diff"), "s"),
        "changes.lcs_ops_s": (s("changes.lcs_ops"), "s"),
        "changes.line_diff_peak_mb": (peak_mb, "MB"),
        "changes.hunks": (count("changes.hunks"), "count"),
        "gateway.embed_calls": (calls("gateway.embed"), "count"),
        "gateway.embed_texts": (count("gateway.embed_texts"), "count"),
        "gateway.embed_s": (s("gateway.embed"), "s"),
        "gateway.complete_calls": (calls("gateway.complete"), "count"),
        "gateway.complete_s": (s("gateway.complete"), "s"),
        "vector_index.search_calls": (calls("vector_index.search"), "count"),
        "vector_index.search_s": (s("vector_index.search"), "s"),
        "vector_index.rows_scanned": (rows, "count"),
        "vector_index.hit_ratio": (count("vector_index.hits") / rows if rows else 0.0, "ratio"),
        "vector_index.save_s": (s("vector_index.save"), "s"),
        "vector_index.load_s": (s("vector_index.load"), "s"),
        "indexer.attributes_s": (s("indexer.attributes"), "s"),
        "indexer.clustering_s": (s("indexer.clustering"), "s"),
        "indexer.graph_s": (s("indexer.graph"), "s"),
        "indexer.content_s": (s("indexer.content"), "s"),
        "indexer.changes_s": (s("indexer.changes"), "s"),
        "indexer.validate_s": (agg.per_unit(agg.index_validate_ns) / 1e9, "s"),
        "indexer.save_s": (
            agg.per_unit(agg.index_saves_ns) / 1e9 + s("indexer.index_corpus", "self_ns"),
            "s",
        ),
        "retrieval.parse_s": (s("retrieval.parse"), "s"),
        "generation.answer_s": (s("generation.answer"), "s"),
        "engine.ask_s": (s("engine.ask", "self_ns"), "s"),
        "ingestion.load_corpus_s": (s("ingestion.load_corpus"), "s"),
        "ingestion.chunk_s": (s("ingestion.chunk"), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.spans": (agg.per_unit(agg.spans), "count"),
    }
    out["gateway.reprompts"] = (agg.per_unit(fallbacks["gateway.reprompts"]), "count")
    for schema in SCHEMAS:
        out[f"gateway.prompt_tok.{schema}"] = (count(f"gateway.prompt_tok.{schema}"), "count")
    for mode in MODES:
        out[f"retrieval.retrieve_s.{mode}"] = (s(f"retrieval.retrieve.{mode}"), "s")
    for name in FallbackCounter.MESSAGES:
        out[name] = (agg.per_unit(fallbacks[name]), "count")
    layer_self: dict = dict.fromkeys(LAYERS, 0)
    for name, entry in agg.names.items():
        layer_self[name.split(".")[0]] += entry["self_ns"]
    for layer in LAYERS:
        out[f"self_s.{layer}"] = (agg.per_unit(layer_self[layer]) / 1e9, "s")
    return out


def measure_traced(name: str, seed: int, seconds: float, work: Path, spans_path: Path) -> tuple:
    """The traced run: alternate untraced and traced units of the workload.

    A unit is a fresh index plus one re-index for the index
    workloads and ``Engine.load`` plus one pass over the question list for
    ``query-mix``. Per-layer figures are totals per traced unit; the
    tracing overhead compares the median unit time with and without spans.
    """
    workload = WORKLOADS[name]
    tracer = Tracer()
    tracer.enabled = False
    run = new_run(tracer)
    fallbacks = dict.fromkeys(run.fallbacks.counts, 0)
    biggest_diff: dict = {}
    agg = Aggregate()
    plain, traced = [], []
    run.speed.start()
    try:
        generated, index_dir = setup(run, workload, seed, work)
        queries = make_queries(generated, seed)
        install(tracer, biggest_diff)
        deadline = time.perf_counter() + seconds
        while True:
            pair_started = time.perf_counter()
            for tracing in (False, True):
                tracer.reset()
                tracer.enabled = tracing
                counted = dict(run.fallbacks.counts)
                if workload.index_in_setup:
                    spent = query_unit(run, index_dir, queries)
                else:
                    spent = index_unit(run, generated, _fresh(work / "index-traced"))
                tracer.enabled = False
                if spent is None:
                    continue
                if tracing:
                    traced.append(spent)
                    agg.add(tracer)
                    for key, value in run.fallbacks.counts.items():
                        fallbacks[key] += value - counted[key]
                else:
                    plain.append(spent)
            # stop when another pair of units would overrun the window
            now = time.perf_counter()
            if now + (now - pair_started) > deadline:
                break
        tracer.write(spans_path)
    finally:
        run.speed.stop()
        tracer.restore()
    if not traced or not plain:
        raise RuntimeError("no unit of work completed in the traced run")
    overhead = 100.0 * (stats.median(traced) / stats.median(plain) - 1.0)
    metrics = per_layer(agg, fallbacks, line_diff_peak_mb(biggest_diff), overhead)
    return run, metrics
