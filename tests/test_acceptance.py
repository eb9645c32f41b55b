"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Every tolerance is pinned here, not configured.
"""

import functools
import json
import random
import time

import numpy as np
import pytest

from verdoc.changes import apply_hunks, line_diff
from verdoc.engine import Engine
from verdoc.evaluation import QAItem, judge, load_dataset, run_eval, save_dataset
from verdoc.indexer import index_corpus, index_documents
from verdoc.ingestion import RawDocument, chunk_document, count_tokens
from verdoc.retrieval import ParsedQuery, QueryIntent, RetrievalMode, retrieve, select_mode
from verdoc.vector_index import IndexEntry, MetadataFilter, VectorIndex, cosine
from verdoc.versions import parse_version

from conftest import doc_text, make_gateway, write_corpus

DIMENSION = 256  # acceptance runs at the default embedding width


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE FAIL [{number:2d}] {description}")
                raise
            print(f"\nACCEPTANCE PASS [{number:2d}] {description}")

        return wrapper

    return decorate


# --- 1. graph validity over random corpora -----------------------------------------


def random_corpus(rng):
    """1-50 document groups, 1-10 versions each, mixed doc types."""
    documents = []
    group_count = rng.randint(1, 50)
    for g in range(group_count):
        title = f"Service {g:02d} Manual"
        is_changelog = rng.random() < 0.25
        version_count = rng.randint(1, 10)
        versions = rng.sample(range(1, 40), k=version_count)
        for v in sorted(versions):
            label = f"{v}.{rng.randint(0, 3)}.0"
            if is_changelog:
                text = (
                    f"# {title} Changelog\n\nRelease notes for service {g}.\n\n"
                    f"## Version {label}\n\n- Added feature f{g}v{v}\n- Fixed bug b{g}v{v}\n"
                )
            else:
                lines = [f"shared body line {i} of service {g}" for i in range(rng.randint(3, 8))]
                text = doc_text(title, label, [("behaviour", lines + [f"detail d{g}v{v}"])])
            documents.append(RawDocument(source_path=f"g{g:02d}/v{v:02d}.md", text=text))
    return documents


@criterion(1, "graph validity: 100 random corpora index to invariant-clean graphs in <1 min")
def test_criterion_1_graph_validity():
    rng = random.Random(1234)
    started = time.monotonic()
    for run in range(100):
        documents = random_corpus(rng)
        gateway = make_gateway(dimension=DIMENSION)
        index = VectorIndex(dimension=DIMENSION)
        summary = index_documents(documents, gateway, index)
        violations = summary.graph.validate()
        assert violations == [], f"corpus {run}: {violations}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# --- 2. version purity -------------------------------------------------------------


def purity_corpus():
    files = {}
    shared = [
        "The widget daemon reads its configuration from the standard location.",
        "Operational limits apply to concurrent widget connections.",
        "Administrators can tune the widget cache eviction policy.",
    ]
    for d in range(4):
        title = f"Widget Daemon {chr(ord('A') + d)}"
        for v in range(1, 6):
            label = f"{v}.0.0"
            marker = f"marker{chr(ord('a') + d)}{v}"
            body = shared + [f"The release marker token for this build is {marker}."]
            files[f"doc{d}/v{v}.md"] = doc_text(title, label, [("configuration", body)])
    return files


@criterion(2, "version purity: 100/100 filtered queries pure; baseline contaminates")
def test_criterion_2_version_purity(tmp_path):
    gateway = make_gateway(dimension=DIMENSION)
    files = purity_corpus()
    documents = [RawDocument(source_path=p, text=t) for p, t in sorted(files.items())]
    index = VectorIndex(dimension=DIMENSION)
    summary = index_documents(documents, gateway, index)
    graph = summary.graph

    queries = []
    docs = sorted(graph.documents(), key=lambda d: d.title)
    for i in range(100):
        doc = docs[i % len(docs)]
        version = f"{(i % 5) + 1}.0.0"
        queries.append(
            ParsedQuery(
                text="What does the widget daemon configuration say about cache eviction?",
                intent=QueryIntent.CONTENT,
                document=doc.id,
                version=parse_version(version),
            )
        )

    pure = 0
    for parsed in queries:
        context = retrieve(parsed, graph, index, gateway, k=5)
        assert context.items, "version-filtered query returned nothing"
        if all(item.version == parsed.version.raw for item in context.items):
            pure += 1
    assert pure == 100, f"only {pure}/100 queries were version-pure"

    contaminated = 0
    for parsed in queries:
        context = retrieve(parsed, graph, index, gateway, k=5, version_filter=False)
        if any(item.version != parsed.version.raw for item in context.items):
            contaminated += 1
    assert contaminated >= 1, "baseline mode never mixed versions; mechanism not demonstrated"


# --- 3. search oracle equivalence ---------------------------------------------------


@criterion(3, "search oracle equivalence: 10,000 entries x 100 filtered queries, exact")
def test_criterion_3_search_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(99)
    dimension = 32
    index = VectorIndex(dimension=dimension)
    entries = []
    versions = ["1.0", "1.1", "2.0", "2.1", "3.0"]
    # 1/64-grid vectors: exact float64 dot products, so ordering is
    # independent of summation order and the comparison can be exact
    for i in range(10_000):
        vector = np.round(rng.uniform(-1, 1, size=dimension) * 64.0) / 64.0
        entry = IndexEntry(
            key=f"e{i:05d}",
            vector=vector,
            metadata={
                "shard": str(int(rng.integers(0, 5))),
                "version": versions[int(rng.integers(0, len(versions)))],
            },
            text="",
        )
        entries.append(entry)
        index.insert(entry)

    def oracle(query, k, flt):
        scored = []
        for e in entries:
            if flt is not None and not flt.matches(e.metadata):
                continue
            scored.append((cosine(e.vector, query), e.key))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return [key for _, key in scored[:k]]

    for q in range(100):
        query = np.round(rng.uniform(-1, 1, size=dimension) * 64.0) / 64.0
        choice = q % 4
        if choice == 0:
            flt = None
        elif choice == 1:
            flt = MetadataFilter({"shard": str(int(rng.integers(0, 5)))})
        elif choice == 2:
            flt = MetadataFilter(version_in={versions[int(rng.integers(0, len(versions)))]})
        else:
            flt = MetadataFilter(
                {"shard": str(int(rng.integers(0, 5)))},
                version_in={versions[int(rng.integers(0, len(versions)))]},
            )
        k = int(rng.integers(1, 12))
        got = [hit.key for hit in index.search(query, k=k, metadata_filter=flt)]
        assert got == oracle(query, k, flt), f"query {q} diverged from the oracle"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# --- 4. diff fidelity ----------------------------------------------------------------


@criterion(4, "diff fidelity: 1,000 random edited pairs reconstruct byte-exact, recall 1.0")
def test_criterion_4_diff_fidelity():
    rng = random.Random(2718)
    for round_no in range(1000):
        lines = [f"line {i} :: {rng.randrange(1000)}" for i in range(rng.randint(20, 120))]
        new_lines = list(lines)
        for _ in range(rng.randint(1, 8)):
            op = rng.choice(["add", "del", "replace"])
            if op == "add" or not new_lines:
                sentinel = f"added-sentinel-{round_no}-{rng.randrange(10**9)}"
                new_lines.insert(rng.randrange(len(new_lines) + 1), sentinel)
            elif op == "del":
                new_lines.pop(rng.randrange(len(new_lines)))
            else:
                sentinel = f"replaced-sentinel-{round_no}-{rng.randrange(10**9)}"
                new_lines[rng.randrange(len(new_lines))] = sentinel
        old_text, new_text = "\n".join(lines), "\n".join(new_lines)
        hunks = line_diff(old_text, new_text)
        assert apply_hunks(old_text, hunks) == new_text, f"round {round_no} not byte-exact"
        # recall 1.0 over the net edits: every line present on only one
        # side must be covered by a hunk (later edits may cancel earlier
        # ones, so the net sets are what the diff can see)
        added_pool = set("\n".join(h.new_text for h in hunks if h.new_text).split("\n"))
        removed_pool = set("\n".join(h.old_text for h in hunks if h.old_text).split("\n"))
        old_set, new_set = set(lines), set(new_lines)
        for line in new_set - old_set:
            assert line in added_pool, f"round {round_no}: added line missed"
        for line in old_set - new_set:
            assert line in removed_pool, f"round {round_no}: removed line missed"


# --- 5. implicit change retrieval end to end ------------------------------------------


@criterion(5, "implicit change retrieval: >=18/20 seeded edits found in top-5")
def test_criterion_5_implicit_change_retrieval():
    gateway = make_gateway(dimension=DIMENSION)
    function_names = [f"vx_{stem}_{i}" for i, stem in enumerate(
        ["frobnicate", "marshal", "tokenize", "quantize", "interpolate",
         "checksum", "rebalance", "snapshot", "replay", "compact",
         "throttle", "migrate", "fanout", "dedupe", "paginate",
         "hydrate", "linearize", "partition", "escalate", "normalize"]
    )]
    files = {}
    base_lines = [f"stable api line {i}" for i in range(10)]
    for d in range(4):
        title = f"API Surface {chr(ord('A') + d)}"
        grown = list(base_lines)
        for v in range(1, 7):
            if v > 1:
                name = function_names[d * 5 + (v - 2)]
                grown = grown + [f"The function {name} was introduced in this release."]
            files[f"api{d}/v{v}.md"] = doc_text(title, f"{v}.0.0", [("functions", list(grown))])
    documents = [RawDocument(source_path=p, text=t) for p, t in sorted(files.items())]
    index = VectorIndex(dimension=DIMENSION)
    summary = index_documents(documents, gateway, index)

    hits = 0
    for name in function_names:
        parsed = ParsedQuery(
            text=f"When was the function {name} added?", intent=QueryIntent.CHANGE
        )
        context = retrieve(parsed, summary.graph, index, gateway, k=5)
        if any(name in item.text for item in context.items):
            hits += 1
    assert hits >= 18, f"only {hits}/20 seeded edits retrieved in top-5"


# --- 6. routing determinism ------------------------------------------------------------


@criterion(6, "routing determinism: select_mode matches the published mapping exactly")
def test_criterion_6_routing():
    import itertools

    rng_pair = (parse_version("1.0"), parse_version("2.0"))
    checked = 0
    for intent, document, category, version, version_range in itertools.product(
        list(QueryIntent),
        [None, "document:d"],
        [None, "category:c"],
        [None, parse_version("1.0")],
        [None, rng_pair],
    ):
        parsed = ParsedQuery(
            text="q",
            intent=intent,
            document=document,
            category=category,
            version=version,
            version_range=version_range,
        )
        mode = select_mode(parsed)
        # published mapping: version -> graph traversal to version nodes;
        # change -> graph access when document+range resolved, else semantic
        # search over change nodes; content -> vector search with optional
        # version filtering
        if intent is QueryIntent.VERSION:
            expected = RetrievalMode.GRAPH_TRAVERSAL
        elif intent is QueryIntent.CHANGE:
            expected = (
                RetrievalMode.GRAPH_TRAVERSAL
                if document is not None and version_range is not None
                else RetrievalMode.CHANGE_SEARCH
            )
        else:
            expected = RetrievalMode.VECTOR_SEARCH
        assert mode is expected, f"{parsed} routed to {mode}"
        assert select_mode(parsed) is mode
        checked += 1
    assert checked == 3 * 2 * 2 * 2 * 2


# --- 7. token frugality -----------------------------------------------------------------


@criterion(7, "token frugality: indexing completions < 0.25x corpus; chunk baseline >= 1.0x")
def test_criterion_7_token_frugality():
    documents = []
    for d in range(3):
        body_lines = [
            f"service {d} paragraph {i} " + " ".join(f"w{d}{i}{j}" for j in range(10))
            for i in range(2100)
        ]  # ~25k tokens per version
        for v in ("1.0.0", "2.0.0"):
            text = doc_text(
                f"Bulk Service {chr(ord('A') + d)}",
                v,
                [("reference", body_lines + [f"release note unique to {v} of service {d}"])],
            )
            documents.append(RawDocument(source_path=f"bulk{d}/v{v}.md", text=text))
    corpus_tokens = sum(d.token_count for d in documents)

    gateway = make_gateway(dimension=DIMENSION)
    index = VectorIndex(dimension=DIMENSION)
    summary = index_documents(documents, gateway, index)

    ratio = summary.usage.input_tokens / corpus_tokens
    assert ratio < 0.25, f"indexing spent {ratio:.3f}x the corpus tokens"

    # what an extractor that prompts every chunk of every version sends
    naive_tokens = sum(
        count_tokens(chunk.text) for document in documents for chunk in chunk_document(document)
    )
    assert naive_tokens >= corpus_tokens, "send-every-chunk baseline undershot the corpus"


# --- 8. eval harness closure --------------------------------------------------------------


def closure_questions():
    spark = ["2.4.7", "3.3.4", "3.4.4", "3.5.3", "3.5.4", "3.5.5"]
    questions = {
        "ContentRetrieval": [
            f"What does the widget daemon documentation say about topic {i}?" for i in range(20)
        ],
        "ContentRetrievalComplex": [
            f"How do widget cache policy and connection limits interact in scenario {i}?"
            for i in range(20)
        ],
        "ContentRetrievalVersionSpecific": [
            f"What does Widget Daemon {chr(ord('A') + (i % 4))} version {(i % 5) + 1}.0.0 "
            "say about the release marker?"
            for i in range(20)
        ],
        "VersionListingInquiry": [
            f"Which versions of Widget Daemon {chr(ord('A') + (i % 4))} are available?"
            for i in range(20)
        ],
        "ChangeRetrievalExplicit": [
            f"What was fixed in Apache Spark {spark[i % 6]}?" for i in range(10)
        ],
        "ChangeRetrievalImplicit": [
            f"When was widget feature {i} changed between releases?" for i in range(10)
        ],
    }
    return questions


@criterion(8, "eval harness closure: echo-gold dataset scores 1.000 with a Table-3 shape")
def test_criterion_8_eval_closure(tmp_path):
    from conftest import spark_changelog_corpus

    gateway = make_gateway(dimension=DIMENSION)
    files = {**purity_corpus(), **spark_changelog_corpus()}
    documents = [RawDocument(source_path=p, text=t) for p, t in sorted(files.items())]
    index = VectorIndex(dimension=DIMENSION)
    summary = index_documents(documents, gateway, index)
    engine = Engine(summary.graph, index, gateway)

    items = []
    for category, questions in closure_questions().items():
        sensitive = category not in ("ContentRetrieval", "ContentRetrievalComplex")
        for i, question in enumerate(questions):
            gold = engine.ask(question).answer.text
            assert gold.strip(), f"engine returned an empty answer for {question!r}"
            items.append(
                QAItem(
                    id=f"{category}-{i:03d}",
                    question=question,
                    gold_answer=gold,
                    category=category,
                    version_sensitive=sensitive,
                )
            )
    dataset_path = tmp_path / "closure.jsonl"
    save_dataset(items, dataset_path)
    loaded = load_dataset(dataset_path)
    distribution = {}
    for item in loaded:
        distribution[item.category] = distribution.get(item.category, 0) + 1
    assert distribution == {
        "ContentRetrieval": 20,
        "ContentRetrievalComplex": 20,
        "ContentRetrievalVersionSpecific": 20,
        "VersionListingInquiry": 20,
        "ChangeRetrievalExplicit": 10,
        "ChangeRetrievalImplicit": 10,
    }
    report = run_eval(engine, loaded)
    assert report.overall_total == 100
    assert report.overall_accuracy == 1.0, f"accuracy {report.overall_accuracy:.3f}"


# --- 9. determinism --------------------------------------------------------------------


@criterion(9, "determinism: two full index+eval runs are byte-identical")
def test_criterion_9_determinism(tmp_path):
    from conftest import spark_changelog_corpus

    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    write_corpus(corpus_dir, {**purity_corpus(), **spark_changelog_corpus()})

    outputs = []
    for run in ("one", "two"):
        out_dir = tmp_path / f"run_{run}"
        gateway = make_gateway(dimension=DIMENSION)
        index_corpus(corpus_dir, out_dir, gateway, dimension=DIMENSION)
        engine = Engine.load(out_dir, make_gateway(dimension=DIMENSION))
        questions = [
            ("q1", "Which versions of Widget Daemon A are available?", "VersionListingInquiry", True),
            ("q2", "What was fixed in Apache Spark 3.5.5?", "ChangeRetrievalExplicit", True),
            ("q3", "What does the widget daemon say about cache eviction?", "ContentRetrieval", False),
        ]
        items = [
            QAItem(id=i, question=q, gold_answer="x", category=c, version_sensitive=s)
            for i, q, c, s in questions
        ]
        report = run_eval(engine, items)
        report_path = out_dir / "report.json"
        report_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        outputs.append(
            {
                "graph": (out_dir / "graph.json").read_bytes(),
                "vectors": (out_dir / "vectors.json").read_bytes(),
                "report": report_path.read_bytes(),
            }
        )
    assert outputs[0]["graph"] == outputs[1]["graph"], "graph files differ between runs"
    assert outputs[0]["vectors"] == outputs[1]["vectors"], "index files differ between runs"
    assert outputs[0]["report"] == outputs[1]["report"], "eval reports differ between runs"


# --- 10. published-example smoke test ---------------------------------------------------


SPARK_GOLD = (
    "Version 2.4.7, Version 3.3.4, Version 3.4.4, Version 3.5.3, Version 3.5.4, Version 3.5.5."
)
CALLTRACKER_GOLD = "Stability: 0 - Deprecated"


@criterion(10, "published-example smoke test: version listing and version-specific lookup")
def test_criterion_10_published_examples(tmp_path):
    spark_versions = ["2.4.7", "3.3.4", "3.4.4", "3.5.3", "3.5.4", "3.5.5"]
    files = {}
    script = []
    for v in spark_versions:
        body = f"Release {v} of the engine.\n\n- Maintenance fixes for release {v}\n"
        files[f"spark/{v}.md"] = f"# Release file {v}\n\n{body}"
        script.append(
            {
                "schema": "attributes",
                "match": [f"Release file {v}", '"doc_type"'],
                "reply": '{"doc_type": "changelog"}',
            }
        )
        script.append(
            {
                "schema": "attributes",
                "match": [f"Release file {v}"],
                "reply": json.dumps(
                    {"title": "Apache Spark", "summary": f"release {v}", "version": v}
                ),
            }
        )
    files["assert/20.19.0.md"] = (
        "# assert module reference\n\n"
        "## assert.CallTracker()\n\n"
        "Stability: 0 - Deprecated\n\n"
        "Creates a tracker object that counts function invocations.\n"
    )
    script.append(
        {
            "schema": "attributes",
            "match": ["assert module reference", '"doc_type"'],
            "reply": '{"doc_type": "documentation"}',
        }
    )
    script.append(
        {
            "schema": "attributes",
            "match": ["assert module reference"],
            "reply": json.dumps(
                {"title": "Node.js Assert", "summary": "assert module", "version": "20.19.0"}
            ),
        }
    )

    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    write_corpus(corpus_dir, files)
    gateway = make_gateway(script=script, dimension=DIMENSION)
    out_dir = tmp_path / "index"
    index_corpus(corpus_dir, out_dir, gateway, dimension=DIMENSION)
    engine = Engine.load(out_dir, gateway)

    spark_answer = engine.ask("What Apache Spark versions are available?").answer.text
    assert judge(spark_answer, SPARK_GOLD), f"not judged correct: {spark_answer!r}"

    tracker_answer = engine.ask(
        "What is the stability level of the assert.CallTracker in Node.js version 20.19.0?"
    ).answer.text
    assert judge(tracker_answer, CALLTRACKER_GOLD), f"not judged correct: {tracker_answer!r}"
