import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from verdoc.errors import (
    BackendUnavailableError,
    DimensionMismatchError,
    IndexingError,
    RateLimitedError,
    SchemaViolationError,
)
from verdoc import gateway as gateway_module, prompts
from verdoc.gateway import (
    RETRY_AFTER_CAP_S,
    CompletionRequest,
    Gateway,
    HttpBackend,
    MockBackend,
    ResponseSchema,
    parse_json_reply,
    validate_reply,
)
from verdoc.indexer import (
    DocumentAttributes,
    build_graph,
    cluster_documents,
    index_content,
    index_corpus,
)
from verdoc.vector_index import VectorIndex
from verdoc.versions import parse_version

from conftest import DIMENSION, assert_doc_corpus, doc_text, make_gateway, raw, write_corpus


class TestMockScripting:
    def test_scripted_reply_is_byte_exact(self):
        script = [{"match": ["magic needle"], "reply": '{"doc_type": "changelog"}'}]
        gateway = make_gateway(script=script)
        reply = gateway.complete(
            CompletionRequest(
                prompt="anything magic needle anything", response_schema=ResponseSchema.ATTRIBUTES
            )
        )
        assert reply == '{"doc_type": "changelog"}'

    def test_scripted_reply_respects_schema_tag(self):
        script = [
            {"match": ["q"], "schema": "judge", "reply": '{"verdict": "correct"}'},
            {"match": ["q"], "reply": "fallback"},
        ]
        gateway = make_gateway(script=script)
        assert (
            gateway.complete(CompletionRequest(prompt="q", response_schema=ResponseSchema.JUDGE))
            == '{"verdict": "correct"}'
        )

    def test_malformed_reply_twice_raises_schema_violation(self):
        script = [{"match": ["extract"], "reply": "not json at all"}]
        gateway = make_gateway(script=script)
        with pytest.raises(SchemaViolationError):
            gateway.complete(
                CompletionRequest(prompt="extract this", response_schema=ResponseSchema.ATTRIBUTES)
            )
        assert gateway.usage().calls == 2  # original + one reprompt

    def test_reprompt_can_recover(self):
        # first attempt matches the bare prompt; the reprompt carries the
        # error suffix, which routes to the second entry
        script = [
            {"match": ["previous reply was invalid"], "reply": '{"verdict": "incorrect"}'},
            {"match": ["judge this"], "reply": "garbage"},
        ]
        gateway = make_gateway(script=script)
        reply = gateway.complete(
            CompletionRequest(prompt="judge this", response_schema=ResponseSchema.JUDGE)
        )
        assert reply == '{"verdict": "incorrect"}'

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            make_gateway().complete(CompletionRequest(prompt=""))


class TestUsageAccounting:
    def test_fresh_session_is_zero(self):
        usage = make_gateway().usage()
        assert (usage.input_tokens, usage.output_tokens, usage.calls) == (0, 0, 0)
        assert usage.estimated_cost == 0.0

    def test_call_count_increments(self):
        gateway = make_gateway()
        gateway.complete(CompletionRequest(prompt="hello world"))
        assert gateway.usage().calls == 1

    def test_input_tokens_cover_prompt(self):
        gateway = make_gateway()
        prompt = " ".join(f"w{i}" for i in range(100))
        gateway.complete(CompletionRequest(prompt=prompt))
        assert gateway.usage().input_tokens >= 100  # oracle: whitespace count

    def test_cost_formula(self):
        gateway = make_gateway(rate_in=0.5, rate_out=2.0)
        gateway.complete(CompletionRequest(prompt="a b c"))
        usage = gateway.usage()
        assert usage.estimated_cost == pytest.approx(
            usage.input_tokens * 0.5 + usage.output_tokens * 2.0
        )

    def test_accounting_additivity(self):
        gateway = make_gateway()
        gateway.complete(CompletionRequest(prompt="one two"))
        first = gateway.usage()
        gateway.complete(CompletionRequest(prompt="three four five"))
        second = gateway.usage()
        delta = second.minus(first)
        solo = make_gateway()
        solo.complete(CompletionRequest(prompt="three four five"))
        assert delta.input_tokens == solo.usage().input_tokens
        assert delta.calls == 1

    def test_counters_monotone_across_calls(self):
        gateway = make_gateway()
        previous = gateway.usage()
        for _ in range(3):
            gateway.complete(CompletionRequest(prompt="p q r"))
            current = gateway.usage()
            assert current.input_tokens >= previous.input_tokens
            assert current.output_tokens >= previous.output_tokens
            assert current.calls == previous.calls + 1
            previous = current


class TestEmbeddings:
    def test_equal_texts_equal_vectors(self):
        gateway = make_gateway()
        a, b = gateway.embed(["x", "x"])
        assert np.array_equal(a, b)

    def test_empty_text_is_unit_basis_vector(self):
        (vec,) = make_gateway().embed([""])
        expected = np.zeros(DIMENSION)
        expected[0] = 1.0
        assert np.array_equal(vec, expected)

    def test_batch_dimension_contract(self):
        rng = np.random.default_rng(3)
        texts = [" ".join(f"t{rng.integers(0, 50)}" for _ in range(5)) for _ in range(1000)]
        vectors = make_gateway().embed(texts)
        assert len(vectors) == 1000  # oracle: one vector per input
        assert all(v.shape == (DIMENSION,) for v in vectors)

    def test_vectors_unit_norm(self):
        vectors = make_gateway().embed(["alpha beta gamma", "alpha", ""])
        for vec in vectors:
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_shared_tokens_raise_cosine(self):
        gateway = make_gateway()
        a, b, c = gateway.embed(
            ["frobnicate added in release", "when was frobnicate added", "unrelated words only here"]
        )
        assert float(a @ b) > float(a @ c)

    def test_pure_function_of_text(self):
        (alone,) = MockBackend().embed(["same text"], 32)
        _, in_batch, _ = MockBackend().embed(["other", "same text", "same text again"], 32)
        assert alone.tobytes() == in_batch.tobytes()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            make_gateway().embed([])

    def test_short_reply_is_backend_unavailable(self, tmp_path):
        class ShortBackend(MockBackend):
            def embed(self, texts, dimension):
                return super().embed(texts, dimension)[:-1]

        gateway = Gateway(ShortBackend(), dimension=DIMENSION)
        for texts in (["one"], ["one", "two", "three"]):
            with pytest.raises(BackendUnavailableError, match=f"{len(texts) - 1} vectors"):
                gateway.embed(texts)
        write_corpus(tmp_path / "corpus", assert_doc_corpus())
        with pytest.raises(IndexingError, match="vectors for") as excinfo:
            index_corpus(tmp_path / "corpus", tmp_path / "out", gateway, dimension=DIMENSION)
        assert isinstance(excinfo.value.cause, BackendUnavailableError)
        assert excinfo.value.exit_code == 3
        assert not (tmp_path / "out" / "manifest.json").exists()


class _ReplyBackend(HttpBackend):
    """An HTTP backend whose embeddings reply is the fixed JSON ``reply``."""

    def __init__(self, reply: str):
        super().__init__("http://stub.invalid", model="m")
        self.reply = reply

    def _post(self, path: str, payload: dict) -> dict:
        assert path == "/embeddings"
        return json.loads(self.reply)


def embeddings_reply(second: str) -> str:
    """The JSON reply for two texts: a good vector, then the JSON ``second``."""
    return '{"data": [{"embedding": [0.5, 0.5, 0.5, 0.5]}, {"embedding": %s}]}' % second


class TestEmbeddingRange:
    """The index stores float32 rows, so an embedding component that is nan,
    infinite or beyond float32's finite range is refused as a backend fault
    (exit code 3) before it reaches the index."""

    @pytest.mark.parametrize(
        "bad", ["NaN", "Infinity", "-Infinity", "null", "1e39", "-1e39"],
        ids=["nan", "inf", "-inf", "null", "1e39", "-1e39"],
    )
    def test_component_outside_float32_is_backend_unavailable(self, bad):
        gateway = Gateway(_ReplyBackend(embeddings_reply(f"[0.5, {bad}, 0.5, 0.5]")), dimension=4)
        with pytest.raises(BackendUnavailableError, match="text 1 with a component") as excinfo:
            gateway.embed(["good", "bad"])
        assert excinfo.value.exit_code == 3

    def test_largest_float32_components_are_kept(self):
        top = float(np.finfo(np.float32).max)
        reply = embeddings_reply(json.dumps([top, -top, 0.0, 1e-45]))
        gateway = Gateway(_ReplyBackend(reply), dimension=4)
        good, extreme = gateway.embed(["good", "extreme"])
        assert extreme.tolist() == [top, -top, 0.0, 1e-45] and good.tolist() == [0.5] * 4

    def test_non_number_component_is_backend_unavailable(self):
        gateway = Gateway(_ReplyBackend(embeddings_reply('[0.5, "x", 0.5, 0.5]')), dimension=4)
        with pytest.raises(BackendUnavailableError, match="unexpected embeddings payload"):
            gateway.embed(["good", "bad"])

    def test_nan_vector_stops_an_index_run_with_exit_code_3(self, tmp_path):
        class NanBackend(MockBackend):
            def embed(self, texts, dimension):
                vectors = super().embed(texts, dimension)
                vectors[-1][0] = float("nan")
                return vectors

        gateway = Gateway(NanBackend(), dimension=DIMENSION)
        write_corpus(tmp_path / "corpus", assert_doc_corpus())
        with pytest.raises(IndexingError) as excinfo:
            index_corpus(tmp_path / "corpus", tmp_path / "out", gateway, dimension=DIMENSION)
        assert isinstance(excinfo.value.cause, BackendUnavailableError)
        assert excinfo.value.exit_code == 3
        assert not (tmp_path / "out" / "manifest.json").exists()


def reference_embedding(text: str, dimension: int) -> np.ndarray:
    """The per-gram loop that the batch kernel replaced, kept as its oracle."""
    vec = np.zeros(dimension, dtype=np.float64)
    tokens = [t.casefold() for t in text.split()]
    if not tokens:
        vec[0] = 1.0
        return vec
    grams = list(tokens)
    grams.extend(a + " " + b for a, b in zip(tokens, tokens[1:]))
    for gram in grams:
        digest = hashlib.md5(gram.encode("utf-8")).digest()
        index = int.from_bytes(digest[:4], "little") % dimension
        sign = 1.0 if digest[4] & 1 else -1.0
        vec[index] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[:] = 0.0
        vec[0] = 1.0
        return vec
    return vec / norm


# short words over few letters, so grams repeat within and across texts;
# ß, ﬁ and İ grow under casefolding, Σ folds like σ and ς, and the
# separators include Unicode whitespace that str.split() honours
_EMBED_TEXT = st.text(alphabet="abßﬁİΣσς \t\n\xa0\u2003\x1c", max_size=24)
_EMBED_BATCH = st.lists(_EMBED_TEXT, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)
)


@settings(max_examples=300, deadline=None)
@given(batch=_EMBED_BATCH, dimension=st.sampled_from([1, 3, 64, 256]))
def test_batch_kernel_matches_the_per_gram_loop_byte_for_byte(batch, dimension):
    vectors = MockBackend().embed(batch, dimension)
    assert len(vectors) == len(batch)
    for text, vector in zip(batch, vectors):
        expected = reference_embedding(text, dimension)
        assert vector.dtype == expected.dtype and vector.shape == expected.shape
        assert vector.tobytes() == expected.tobytes(), text


class TestValidators:
    @pytest.mark.parametrize(
        "schema,good",
        [
            (ResponseSchema.ATTRIBUTES, '{"title": "T", "summary": "", "version": null}'),
            (ResponseSchema.ATTRIBUTES, '{"doc_type": "changelog"}'),
            (ResponseSchema.CLUSTERS, '{"categories": [{"name": "c", "groups": [{"title": "t", "members": [0]}]}]}'),
            (
                ResponseSchema.PARSED_QUERY,
                '{"intent": "content", "document": null, "category": null, "version": null, "version_range": null}',
            ),
            (ResponseSchema.CHANGE_SUMMARY, '{"changes": [{"kind": "added", "description": "d"}]}'),
            (ResponseSchema.JUDGE, '{"verdict": "correct"}'),
            (ResponseSchema.FREE_TEXT, "any text"),
        ],
    )
    def test_accepts_valid(self, schema, good):
        validate_reply(good, schema)

    @pytest.mark.parametrize(
        "schema,bad",
        [
            (ResponseSchema.ATTRIBUTES, '{"title": "", "summary": ""}'),
            (ResponseSchema.ATTRIBUTES, '{"doc_type": "novel"}'),
            (ResponseSchema.CLUSTERS, '{"categories": "nope"}'),
            (ResponseSchema.PARSED_QUERY, '{"intent": "wat"}'),
            (ResponseSchema.CHANGE_SUMMARY, '{"changes": [{"kind": "huge"}]}'),
            (ResponseSchema.CHANGE_SUMMARY, '{"changes": ["oops"]}'),
            (ResponseSchema.CLUSTERS, '{"categories": [1]}'),
            (ResponseSchema.CLUSTERS, '{"categories": [{"name": "a", "groups": [[1]]}]}'),
            (ResponseSchema.JUDGE, '{"verdict": "maybe"}'),
            (ResponseSchema.JUDGE, "no json here"),
        ],
    )
    def test_rejects_invalid(self, schema, bad):
        with pytest.raises(ValueError):
            validate_reply(bad, schema)

    def test_parse_json_reply_extracts_embedded_object(self):
        assert parse_json_reply('prefix {"a": {"b": 1}} suffix') == {"a": {"b": 1}}

    def test_parse_json_reply_handles_braces_in_strings(self):
        assert parse_json_reply('{"a": "close} brace"}') == {"a": "close} brace"}

    def test_parse_json_reply_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            parse_json_reply('{"a": 1')


def brace_scan_reply(text: str) -> dict:
    """Reference: the first balanced ``{...}`` span, found by a brace
    counter that skips string contents, parsed with ``json.loads``."""
    start = text.find("{")
    if start < 0:
        raise ValueError("reply contains no JSON object")
    depth = 0
    in_string = False
    escape = False
    for index in range(start, len(text)):
        char = text[index]
        if in_string:
            if escape:
                escape = False
            elif char == "\\":
                escape = True
            elif char == '"':
                in_string = False
            continue
        if char == '"':
            in_string = True
        elif char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth == 0:
                return json.loads(text[start : index + 1])
    raise ValueError("unbalanced JSON object in reply")


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


@pytest.mark.parametrize(
    "text,expected",
    [
        ('{"a": 1}', {"a": 1}),
        ('Sure! {"a": {"b": [1, 2]}} hope that helps', {"a": {"b": [1, 2]}}),
        ('{"a": "close} and open{ brace"}', {"a": "close} and open{ brace"}),
        ('{"a": "say \\"hi\\" {"} tail', {"a": 'say "hi" {'}),
        ('{"a": "back\\\\"} }', {"a": "back\\"}),
        ('{"a": 1}\n\nThe object above {is the answer}.', {"a": 1}),
        ('{"a": 1} {"b": 2}', {"a": 1}),
        ('```json\n{"verdict": "correct"}\n```', {"verdict": "correct"}),
        ('{"a": NaN}', "nan"),
        ('{"a": 1', ValueError),
        ('{"a": {"b": 1}', ValueError),
        ('{"a": "unterminated}', ValueError),
        ("{'a': 1}", ValueError),
        ('{"a": 1,}', ValueError),
        ('{"a" 1} {"b": 2}', ValueError),
        ("no object at all", ValueError),
        ("", ValueError),
        ('["a", 1]', ValueError),
        ("} {", ValueError),
    ],
)
def test_parse_json_reply_keeps_the_brace_scan_verdicts(text, expected):
    got = _outcome(parse_json_reply, text)
    assert repr(got) == repr(_outcome(brace_scan_reply, text))
    if expected == "nan":
        assert got["a"] != got["a"]
    else:
        assert got == expected


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet='{}[]":,\\ a1nN', max_size=30))
def test_parse_json_reply_agrees_with_brace_scan(text):
    assert repr(_outcome(parse_json_reply, text)) == repr(_outcome(brace_scan_reply, text))


class TestMockDeterminism:
    def test_same_prompt_same_reply(self):
        backend = MockBackend()
        prompt = "Decide whether the document excerpt below is a changelog...\n" '"doc_type"\n' + (
            "===BEGIN DOCUMENT===\n# Release Notes Changelog\n===END DOCUMENT==="
        )
        first = backend.complete(prompt, ResponseSchema.ATTRIBUTES, 512)
        second = backend.complete(prompt, ResponseSchema.ATTRIBUTES, 512)
        assert first == second == '{"doc_type": "changelog"}'

    def test_doc_type_marker_in_the_payload_does_not_pick_the_reply_shape(self):
        prompt = prompts.ATTRIBUTES_PROMPT.format(
            doc_begin=prompts.DOC_BEGIN,
            text='# Config Guide\n\nSet "doc_type" to pick the parser.',
            doc_end=prompts.DOC_END,
        )
        reply = json.loads(MockBackend().complete(prompt, ResponseSchema.ATTRIBUTES, 512))
        assert reply["title"] == "Config Guide"
        assert "doc_type" not in reply

    def test_reentrant_across_threads(self):
        gateway = make_gateway()
        errors = []

        def worker():
            try:
                for _ in range(50):
                    gateway.complete(CompletionRequest(prompt="t u v"))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert gateway.usage().calls == 200


# --- HTTP backend over a local canned server ---------------------------------


class _Handler(BaseHTTPRequestHandler):
    behaviours = {}

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        behaviour = self.behaviours.setdefault(self.path, {})
        behaviour["requests"] = behaviour.get("requests", 0) + 1
        behaviour.setdefault("bodies", []).append(body)
        status = behaviour.get("status", 200)
        # (status, headers) replies sent, in order, before the normal reply
        fail_first = behaviour.get("fail_first", [])
        if fail_first:
            failed_status, failed_headers = fail_first.pop(0)
            self.send_response(failed_status)
            for name, value in failed_headers.items():
                self.send_header(name, value)
            self.end_headers()
            return
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        if self.path == "/chat/completions":
            payload = {
                "choices": [{"message": {"content": behaviour.get("content", "pong")}}],
                "model": body.get("model"),
            }
        else:
            payload = {
                "data": [
                    {"embedding": [float(i + 1)] * behaviour.get("dimension", 4)}
                    for i, _ in enumerate(body.get("input", []))
                ]
            }
        self.wfile.write(json.dumps(payload).encode())

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture
def sleeps(monkeypatch):
    """The waits between retries, recorded instead of slept."""
    waits = []
    monkeypatch.setattr(gateway_module, "time", SimpleNamespace(sleep=waits.append))
    return waits


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    # a short poll interval keeps each test's shutdown from waiting 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    _Handler.behaviours = {}
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def test_completion_round_trip(self, http_server):
        _Handler.behaviours["/chat/completions"] = {"content": "hello from server"}
        backend = HttpBackend(http_server, model="m1", api_key="k")
        gateway = Gateway(backend, dimension=4)
        assert gateway.complete(CompletionRequest(prompt="ping")) == "hello from server"

    def test_embeddings_round_trip(self, http_server):
        _Handler.behaviours["/embeddings"] = {"dimension": 4}
        gateway = Gateway(HttpBackend(http_server, model="m1"), dimension=4)
        vectors = gateway.embed(["a", "b"])
        assert len(vectors) == 2
        assert np.array_equal(vectors[1], np.array([2.0, 2.0, 2.0, 2.0]))

    def test_indexing_a_group_sends_its_versions_in_one_request(self, http_server):
        _Handler.behaviours["/embeddings"] = {"dimension": 4}
        members = []
        for version in ("1.0.0", "2.0.0"):
            text = doc_text("Two Step", version, [("usage", [f"w{i} for {version}" for i in range(12)])])
            attrs = DocumentAttributes(
                title="Two Step", summary="", version=parse_version(version), doc_type="documentation"
            )
            members.append((raw(f"two/{version}.md", text), attrs))
        catalog = cluster_documents(members, make_gateway())
        graph = build_graph(catalog)
        index = VectorIndex(dimension=4)
        gateway = Gateway(HttpBackend(http_server, model="m1"), dimension=4)
        count = index_content(graph, catalog, gateway, index, chunk_size=16, overlap=4)

        behaviour = _Handler.behaviours["/embeddings"]
        assert behaviour["requests"] == 1
        (sent,) = [body["input"] for body in behaviour["bodies"]]
        keys = index.keys()
        assert count == len(keys) == len(sent)
        # every line names its version, so each text holds in one version
        runs = {(index.get(key).metadata["first"], index.get(key).metadata["last"]) for key in keys}
        assert runs == {("1.0.0", "1.0.0"), ("2.0.0", "2.0.0")}
        # the server answers input i with the constant vector i + 1
        for position, key in enumerate(keys):
            entry = index.get(key)
            assert entry.text == sent[position]
            assert np.array_equal(entry.vector, np.full(4, position + 1.0))

    def test_dimension_mismatch_surfaces(self, http_server):
        _Handler.behaviours["/embeddings"] = {"dimension": 3}
        gateway = Gateway(HttpBackend(http_server, model="m1"), dimension=4)
        with pytest.raises(DimensionMismatchError):
            gateway.embed(["a"])

    def test_rate_limit_retries_then_succeeds(self, http_server, sleeps):
        _Handler.behaviours["/chat/completions"] = {"content": "ok", "fail_first": [(429, {})] * 2}
        backend = HttpBackend(http_server, model="m1", max_retries=2)
        assert backend.complete("p", None, 64) == "ok"
        assert sleeps == [0.25, 0.5]

    def test_rate_limit_exhausted_surfaces(self, http_server, sleeps):
        _Handler.behaviours["/chat/completions"] = {"content": "ok", "fail_first": [(429, {})] * 99}
        backend = HttpBackend(http_server, model="m1", max_retries=1)
        with pytest.raises(RateLimitedError):
            backend.complete("p", None, 64)
        assert sleeps == [0.25]

    def test_server_error_is_retried_then_succeeds(self, http_server, sleeps):
        behaviour = {"content": "ok", "fail_first": [(503, {})]}
        _Handler.behaviours["/chat/completions"] = behaviour
        backend = HttpBackend(http_server, model="m1")
        assert backend.complete("p", None, 64) == "ok"
        assert behaviour["requests"] == 2
        assert sleeps == [0.25]

    def test_retry_after_replaces_the_backoff(self, http_server, sleeps):
        behaviour = {"content": "ok", "fail_first": [(429, {"Retry-After": "0"})]}
        _Handler.behaviours["/chat/completions"] = behaviour
        backend = HttpBackend(http_server, model="m1")
        assert backend.complete("p", None, 64) == "ok"
        assert behaviour["requests"] == 2
        assert sleeps == [0.0]

    @pytest.mark.parametrize(
        "header,wait",
        [("86400", RETRY_AFTER_CAP_S), (" 3 ", 3.0), ("Wed, 21 Oct 2015 07:28:00 GMT", 0.25), ("-1", 0.25)],
    )
    def test_retry_after_is_capped_and_dates_use_the_backoff(self, http_server, sleeps, header, wait):
        _Handler.behaviours["/embeddings"] = {"fail_first": [(503, {"Retry-After": header})]}
        HttpBackend(http_server, model="m1").embed(["a"], 4)
        assert sleeps == [wait]

    def test_server_error_is_backend_unavailable(self, http_server, sleeps):
        behaviour = {"status": 500}
        _Handler.behaviours["/chat/completions"] = behaviour
        backend = HttpBackend(http_server, model="m1", max_retries=2)
        with pytest.raises(BackendUnavailableError, match="after 3 attempts"):
            backend.complete("p", None, 64)
        assert behaviour["requests"] == 3
        assert sleeps == [0.25, 0.5]

    def test_client_error_is_not_retried(self, http_server, sleeps):
        behaviour = {"status": 400}
        _Handler.behaviours["/chat/completions"] = behaviour
        with pytest.raises(BackendUnavailableError, match="rejected"):
            HttpBackend(http_server, model="m1").complete("p", None, 64)
        assert behaviour["requests"] == 1
        assert sleeps == []

    def test_connection_refused_is_backend_unavailable(self, sleeps):
        backend = HttpBackend("http://127.0.0.1:1", model="m1", timeout=0.5)
        with pytest.raises(BackendUnavailableError, match="after 3 attempts"):
            backend.complete("p", None, 64)
        assert sleeps == [0.25, 0.5]

    def test_timeout_is_retried(self, http_server, sleeps, monkeypatch):
        import requests

        real_post = requests.post
        calls = []

        def post_timing_out_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise requests.Timeout("read timed out")
            return real_post(*args, **kwargs)

        monkeypatch.setattr(requests, "post", post_timing_out_once)
        _Handler.behaviours["/chat/completions"] = {"content": "ok"}
        assert HttpBackend(http_server, model="m1").complete("p", None, 64) == "ok"
        assert len(calls) == 2
        assert sleeps == [0.25]
