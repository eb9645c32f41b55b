"""Completion and embedding gateway with token accounting.

Two backends implement the same small protocol: ``MockBackend`` is fully
deterministic and offline (scripted replies plus rule-based handlers that
recover the task payload from the prompt markers), ``HttpBackend`` talks
to a chat-completions style HTTP service. Each names its completion
``model`` and its ``embedding_model``, which an index's manifest records.
Structured replies are validated against their schema tag; one reprompt
with an error-explaining suffix is attempted before
``SchemaViolationError`` is raised.

Usage counters cover completion traffic (embedding calls are local math
for the mock backend and are not part of the indexing token budget).

The mock's embedding is a batch kernel over feature-hashed unigrams and
bigrams (the hashing trick): within one ``embed`` call each distinct gram
is md5-hashed once, each text's ±1 slot counts are summed by one
``np.bincount``, and every row is L2-normalized. The counts are exact
integers, so a text's vector is the same bytes whatever batch carries it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import prompts
from .errors import (
    BackendUnavailableError,
    DimensionMismatchError,
    RateLimitedError,
    SchemaViolationError,
)
from .ingestion import count_tokens
from .textmatch import content_tokens, contains_gold_tokens
from .vector_index import finite_float32
from .versions import parse_version

logger = logging.getLogger(__name__)

DEFAULT_DIMENSION = 256
DEFAULT_MAX_OUTPUT_TOKENS = 512


class ResponseSchema(str, Enum):
    ATTRIBUTES = "attributes"
    CLUSTERS = "clusters"
    PARSED_QUERY = "parsed_query"
    CHANGE_SUMMARY = "change_summary"
    JUDGE = "judge"
    FREE_TEXT = "free_text"


@dataclass
class CompletionRequest:
    prompt: str
    response_schema: Optional[ResponseSchema] = None
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS


@dataclass
class TokenUsage:
    input_tokens: int = 0
    output_tokens: int = 0
    calls: int = 0
    estimated_cost: float = 0.0

    def minus(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            input_tokens=self.input_tokens - other.input_tokens,
            output_tokens=self.output_tokens - other.output_tokens,
            calls=self.calls - other.calls,
            estimated_cost=self.estimated_cost - other.estimated_cost,
        )

    def to_dict(self) -> dict:
        return {
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "calls": self.calls,
            "estimated_cost": round(self.estimated_cost, 8),
        }


_DECODER = json.JSONDecoder()


def parse_json_reply(text: str) -> dict:
    """Extract and parse the first JSON object embedded in a reply.

    The object starts at the first ``{``; any text after it is ignored.
    """
    start = text.find("{")
    if start < 0:
        raise ValueError("reply contains no JSON object")
    data, _ = _DECODER.raw_decode(text, start)
    return data


# --- schema validators ------------------------------------------------------

_CHANGE_KINDS = {"added", "removed", "modified", "other"}


def _validate_attributes(data: dict) -> None:
    if "doc_type" in data:
        if data["doc_type"] not in ("changelog", "documentation"):
            raise ValueError("doc_type must be 'changelog' or 'documentation'")
        return
    if not isinstance(data.get("title"), str) or not data["title"].strip():
        raise ValueError("title must be a non-empty string")
    if not isinstance(data.get("summary"), str):
        raise ValueError("summary must be a string")
    version = data.get("version")
    if version is not None and not isinstance(version, str):
        raise ValueError("version must be a string or null")


def _validate_clusters(data: dict) -> None:
    categories = data.get("categories")
    if not isinstance(categories, list):
        raise ValueError("categories must be a list")
    for category in categories:
        if not isinstance(category, dict):
            raise ValueError("category must be an object")
        if not isinstance(category.get("name"), str):
            raise ValueError("category name must be a string")
        groups = category.get("groups")
        if not isinstance(groups, list):
            raise ValueError("groups must be a list")
        for group in groups:
            if not isinstance(group, dict):
                raise ValueError("group must be an object")
            if not isinstance(group.get("title"), str):
                raise ValueError("group title must be a string")
            members = group.get("members")
            if not isinstance(members, list) or not all(isinstance(m, int) for m in members):
                raise ValueError("group members must be a list of ints")


def _validate_parsed_query(data: dict) -> None:
    if data.get("intent") not in ("content", "version", "change"):
        raise ValueError("intent must be content, version or change")
    for key in ("document", "category", "version"):
        value = data.get(key)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{key} must be a string or null")
    rng = data.get("version_range")
    if rng is not None:
        if not (isinstance(rng, list) and len(rng) == 2 and all(isinstance(v, str) for v in rng)):
            raise ValueError("version_range must be [string, string] or null")


def _validate_change_summary(data: dict) -> None:
    changes = data.get("changes")
    if not isinstance(changes, list):
        raise ValueError("changes must be a list")
    for item in changes:
        if not isinstance(item, dict):
            raise ValueError("change must be an object")
        if item.get("kind") not in _CHANGE_KINDS:
            raise ValueError("change kind must be added/removed/modified/other")
        if not isinstance(item.get("description"), str):
            raise ValueError("change description must be a string")
        if "version" in item and item["version"] is not None and not isinstance(item["version"], str):
            raise ValueError("change version must be a string")
        if "hunks" in item and not (
            isinstance(item["hunks"], list) and all(isinstance(h, int) for h in item["hunks"])
        ):
            raise ValueError("change hunks must be a list of ints")


def _validate_judge(data: dict) -> None:
    if data.get("verdict") not in ("correct", "incorrect"):
        raise ValueError("verdict must be correct or incorrect")


_VALIDATORS = {
    ResponseSchema.ATTRIBUTES: _validate_attributes,
    ResponseSchema.CLUSTERS: _validate_clusters,
    ResponseSchema.PARSED_QUERY: _validate_parsed_query,
    ResponseSchema.CHANGE_SUMMARY: _validate_change_summary,
    ResponseSchema.JUDGE: _validate_judge,
}


def validate_reply(reply: str, schema: Optional[ResponseSchema]) -> None:
    """Raise ValueError when the reply does not match its schema grammar."""
    if schema is None or schema is ResponseSchema.FREE_TEXT:
        if not isinstance(reply, str):
            raise ValueError("reply must be text")
        return
    data = parse_json_reply(reply)
    _VALIDATORS[schema](data)


# --- deterministic embedding --------------------------------------------------

# the two fields of an md5 digest the feature hashing reads: the slot word
# (first four bytes, little-endian) and the sign byte (the fifth)
_DIGEST_FIELDS = np.dtype(
    {"names": ["slot", "sign"], "formats": ["<u4", "u1"], "offsets": [0, 4], "itemsize": 16}
)
# a gram whose sign byte is even subtracts one from its slot, an odd one adds one
_SIGNS = np.array([-1.0, 1.0])


def _basis_vector(dimension: int) -> np.ndarray:
    vector = np.zeros(dimension, dtype=np.float64)
    vector[0] = 1.0
    return vector


# --- mock backend ---------------------------------------------------------------

_VERSION_TOKEN = re.compile(r"\bv?(\d+(?:\.\d+)+)\b")
_HUNK_BLOCK = re.compile(
    r"===BEGIN HUNK (\d+) kind=(\w+)===\n(.*?)\n===END HUNK \1===", re.DOTALL
)
_BULLET = re.compile(r"^\s*(?:[-*+]|\d+[.)])\s+(.*)$")
_CHANGELOG_MARKERS = ("changelog", "release notes", "release note", "what's new")

_CHANGE_INTENT = re.compile(
    r"\b(remov\w*|delet\w*|deprecat\w*|introduc\w*|upgrad\w*|renam\w*|fix\w*|"
    r"chang(?:e[sd]?)?|added|adds|was added|dropped)\b"
)
_VERSION_INTENT_A = re.compile(r"\bversions?\b")
_VERSION_INTENT_B = re.compile(
    r"\b(available|exists?|are there|how many|list\w*|know|aware|latest|newest|current)\b"
)

_ADDED_HINT = re.compile(r"\b(add(?:ed|s)?|new|introduc\w*)\b")
_REMOVED_HINT = re.compile(r"\b(remov\w*|delet\w*|dropp?ed)\b")
_MODIFIED_HINT = re.compile(r"\b(upgrad\w*|updat\w*|fix\w*|improv\w*|chang\w*|bump\w*|renam\w*)\b")


class MockBackend:
    """Deterministic offline backend.

    Scripted entries (``[{"match": [...], "schema": ..., "reply": ...}]``)
    take precedence; otherwise rule-based handlers reconstruct a plausible
    structured reply from the prompt payload. Replies are pure functions
    of the prompt, so whole-pipeline runs are reproducible byte for byte.
    """

    model = "mock"
    embedding_model = "mock-hashed-grams"

    def __init__(self, script: Optional[list] = None):
        self.script = list(script or [])

    # -- protocol --

    def complete(self, prompt: str, schema: Optional[ResponseSchema], max_output_tokens: int) -> str:
        for entry in self.script:
            wanted = entry.get("schema")
            if wanted is not None and schema is not None and wanted != schema.value:
                continue
            needles = entry.get("match", [])
            if isinstance(needles, str):
                needles = [needles]
            if all(needle in prompt for needle in needles):
                return entry["reply"]
        if schema is ResponseSchema.ATTRIBUTES:
            return self._handle_attributes(prompt)
        if schema is ResponseSchema.CLUSTERS:
            return self._handle_clusters(prompt)
        if schema is ResponseSchema.PARSED_QUERY:
            return self._handle_parse(prompt)
        if schema is ResponseSchema.CHANGE_SUMMARY:
            return self._handle_changes(prompt)
        if schema is ResponseSchema.JUDGE:
            return self._handle_judge(prompt)
        return self._handle_answer(prompt)

    def embed(self, texts: list, dimension: int) -> list:
        """Feature-hashed unigrams + bigrams of each text, L2-normalized.

        Each gram (a casefolded whitespace token, or two adjacent ones
        joined by a space) adds +1 or -1 to one of ``dimension`` slots,
        both read from the md5 digest of its UTF-8 bytes. A vector is a
        pure function of its text; empty or degenerate input maps to the
        first basis vector so every embedding has unit norm.

        Each distinct gram of the call is hashed once, into a table local
        to the call. The ±1 terms are summed by ``np.bincount`` in float64,
        where every partial sum is an exact integer, so the counts, their
        norm and the vectors do not depend on the order of summation.
        """
        digests: dict = {}
        vectors = []
        for text in texts:
            # casefolding never creates or removes whitespace, so folding
            # the text before splitting equals folding each token
            grams = text.casefold().split()
            grams += [a + " " + b for a, b in zip(grams, grams[1:])]
            if not grams:
                vectors.append(_basis_vector(dimension))
                continue
            missing = set(grams).difference(digests)
            digests.update({gram: hashlib.md5(gram.encode("utf-8")).digest() for gram in missing})
            fields = np.frombuffer(b"".join(map(digests.__getitem__, grams)), dtype=_DIGEST_FIELDS)
            signs = _SIGNS.take(fields["sign"] & 1)
            counts = np.bincount(fields["slot"] % dimension, weights=signs, minlength=dimension)
            norm = math.sqrt(counts @ counts)
            vectors.append(counts / norm if norm else _basis_vector(dimension))
        return vectors

    # -- handlers --

    @staticmethod
    def _handle_attributes(prompt: str) -> str:
        block = prompts.extract_document(prompt)
        instruction = prompt.split(prompts.DOC_BEGIN, 1)[0]
        if '"doc_type"' in instruction:
            head = block.casefold()[:4000]
            is_changelog = any(marker in head for marker in _CHANGELOG_MARKERS)
            return json.dumps({"doc_type": "changelog" if is_changelog else "documentation"})
        lines = [line.strip() for line in block.splitlines() if line.strip()]
        heading = next((l.lstrip("# ").strip() for l in lines if l.startswith("#")), None)
        if heading is None:
            heading = lines[0] if lines else "Untitled"
        title_words = [
            w
            for w in heading.replace("—", " ").split()
            if not _VERSION_TOKEN.fullmatch(w) and w not in ("-", ":", "|")
        ]
        title = " ".join(title_words).strip(" -:|") or "Untitled"
        version = None
        for line in lines:
            if "version" in line.casefold():
                match = _VERSION_TOKEN.search(line)
                if match:
                    version = match.group(1)
                    break
        if version is None:
            match = _VERSION_TOKEN.search(block)
            version = match.group(1) if match else None
        summary = next((l for l in lines if not l.startswith("#")), "")[:200]
        return json.dumps({"title": title, "summary": summary, "version": version})

    @staticmethod
    def _handle_clusters(prompt: str) -> str:
        listing = re.findall(
            r"^(\d+)\.\s+(.*?)(?:\s+\[(?:changelog|documentation)\])?$", prompt, re.MULTILINE
        )
        groups: dict[str, dict] = {}
        for index, title in listing:
            key = " ".join(content_tokens(title))
            bucket = groups.setdefault(key, {"title": title.strip(), "members": []})
            bucket["members"].append(int(index))
        categories = [
            {"name": bucket["title"], "groups": [bucket]} for bucket in groups.values()
        ]
        return json.dumps({"categories": categories})

    @staticmethod
    def _handle_parse(prompt: str) -> str:
        question = prompt.rsplit("Question:", 1)[-1].strip()
        lowered = question.casefold()
        if _CHANGE_INTENT.search(lowered):
            intent = "change"
        elif _VERSION_INTENT_A.search(lowered) and _VERSION_INTENT_B.search(lowered):
            intent = "version"
        else:
            intent = "content"

        def listed(section: str) -> list:
            match = re.search(rf"{section}:\n((?:- .*\n?)*)", prompt)
            if not match:
                return []
            return [line[2:].strip() for line in match.group(1).splitlines() if line.startswith("- ")]

        question_tokens = set(content_tokens(question))
        document = MockBackend._best_name(listed("Known documents"), question_tokens)
        category = None
        if document is None:
            category = MockBackend._best_name(listed("Known categories"), question_tokens)

        raw_versions = _VERSION_TOKEN.findall(question)
        seen = []
        for raw in raw_versions:
            if raw not in seen:
                seen.append(raw)
        version = None
        version_range = None
        if intent == "change" and len(seen) >= 2:
            ordered = sorted(seen, key=lambda r: parse_version(r).sort_key())
            version_range = [ordered[0], ordered[-1]]
        elif seen:
            version = seen[0]
        return json.dumps(
            {
                "intent": intent,
                "document": document,
                "category": category,
                "version": version,
                "version_range": version_range,
            }
        )

    @staticmethod
    def _best_name(names: list, question_tokens: set) -> Optional[str]:
        best = None
        best_score = 0
        for name in names:
            tokens = content_tokens(name)
            score = sum(1 for tok in tokens if tok in question_tokens)
            if score > best_score:
                best, best_score = name, score
        return best

    @staticmethod
    def _handle_changes(prompt: str) -> str:
        blocks = _HUNK_BLOCK.findall(prompt)
        if blocks:
            changes = []
            kind_map = {"added_lines": "added", "removed_lines": "removed", "replaced_lines": "modified"}
            for index, kind, body in blocks:
                first_line = next((l.strip() for l in body.splitlines() if l.strip()), "")
                changes.append(
                    {
                        "kind": kind_map.get(kind, "other"),
                        "description": first_line[:200],
                        "hunks": [int(index)],
                    }
                )
            return json.dumps({"changes": changes})
        return MockBackend._handle_changelog(prompt)

    @staticmethod
    def _handle_changelog(prompt: str) -> str:
        block = prompts.extract_document(prompt)
        default_version = None
        hint = re.search(r"changelog for version (\S+)\.", prompt)
        if hint:
            default_version = hint.group(1)
        current = default_version
        changes = []
        for line in block.splitlines():
            stripped = line.strip()
            if not stripped:
                continue
            bullet = _BULLET.match(line)
            if bullet:
                text = bullet.group(1).strip()
                if not current or not text:
                    continue
                lowered = text.casefold()
                if _REMOVED_HINT.search(lowered):
                    kind = "removed"
                elif _ADDED_HINT.search(lowered):
                    kind = "added"
                elif _MODIFIED_HINT.search(lowered):
                    kind = "modified"
                else:
                    kind = "other"
                changes.append({"version": current, "kind": kind, "description": text[:300]})
            elif stripped.startswith("#") or stripped.casefold().startswith("version"):
                match = _VERSION_TOKEN.search(stripped)
                if match:
                    current = match.group(1)
            elif changes and line[:1] in (" ", "\t"):
                changes[-1]["description"] = (changes[-1]["description"] + " " + stripped)[:300]
        return json.dumps({"changes": changes})

    @staticmethod
    def _handle_judge(prompt: str) -> str:
        marker = "\nAnswer: "
        head, _, answer = prompt.rpartition(marker)
        gold = head.rsplit("Gold: ", 1)[-1]
        verdict = "correct" if contains_gold_tokens(answer, gold) else "incorrect"
        return json.dumps({"verdict": verdict})

    @staticmethod
    def _handle_answer(prompt: str) -> str:
        start = prompt.find(prompts.CONTEXT_BEGIN)
        end = prompt.find(prompts.CONTEXT_END)
        section = prompt[start + len(prompts.CONTEXT_BEGIN) : end] if 0 <= start < end else ""
        if prompts.NO_CONTEXT_MARKER in section or not section.strip():
            return prompts.INSUFFICIENT_CONTEXT
        texts = []
        current: Optional[list] = None
        for line in section.splitlines():
            if re.fullmatch(r"\[.+ @ .+\]", line.strip()):
                if current:
                    texts.append(" ".join(current))
                current = []
            elif current is not None and line.strip():
                current.append(line.strip())
        if current:
            texts.append(" ".join(current))
        if not texts:
            return prompts.INSUFFICIENT_CONTEXT
        mode = re.search(r"Retrieval mode: (\S+)", prompt)
        intent = re.search(r"Query intent: (\S+)", prompt)
        if (
            mode
            and intent
            and mode.group(1) == "graph_traversal"
            and intent.group(1) == "version"
        ):
            return ", ".join(texts)
        return texts[0]


# --- HTTP backend ---------------------------------------------------------------

# longest wait a server's Retry-After may impose before a retry
RETRY_AFTER_CAP_S = 30.0


def _retry_after_seconds(value: Optional[str], default: float) -> float:
    """The wait a Retry-After header asks for, capped at RETRY_AFTER_CAP_S;
    ``default`` when it is absent or not a number of seconds (an HTTP date)."""
    if value is None or not value.strip().isdecimal():
        return default
    return min(float(value), RETRY_AFTER_CAP_S)


class HttpBackend:
    """Chat-completions style HTTP backend (one user message per call)."""

    def __init__(
        self,
        base_url: str,
        model: str,
        embedding_model: str = "",
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        max_retries: int = 2,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.embedding_model = embedding_model or model
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries

    def _post(self, path: str, payload: dict) -> dict:
        """POST ``payload`` and return the JSON reply.

        A 429, a 5xx, a failed connection and a timeout are retried up to
        ``max_retries`` times, after a delay that starts at 0.25 s and
        doubles; a numeric ``Retry-After`` (RFC 9110 section 10.2.3) replaces
        the delay, up to RETRY_AFTER_CAP_S. Other 4xx replies fail at once.
        """
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = f"{self.base_url}{path}"
        delay = 0.25
        for attempt in range(1, self.max_retries + 2):
            last = attempt > self.max_retries
            try:
                response = requests.post(url, json=payload, headers=headers, timeout=self.timeout)
            except (requests.ConnectionError, requests.Timeout) as exc:
                if last:
                    raise BackendUnavailableError(
                        f"cannot reach {url} after {attempt} attempts: {exc}"
                    ) from exc
                wait = delay
            except requests.RequestException as exc:
                raise BackendUnavailableError(f"cannot reach {url}: {exc}") from exc
            else:
                status = response.status_code
                if status < 400:
                    try:
                        return response.json()
                    except ValueError as exc:
                        raise BackendUnavailableError(f"{url} returned non-JSON payload") from exc
                if status != 429 and status < 500:
                    raise BackendUnavailableError(
                        f"{url} rejected the request ({status}): {response.text[:200]}"
                    )
                if last:
                    error = RateLimitedError if status == 429 else BackendUnavailableError
                    raise error(f"{url} returned {status} after {attempt} attempts")
                wait = _retry_after_seconds(response.headers.get("Retry-After"), delay)
            time.sleep(wait)
            delay *= 2

    def complete(self, prompt: str, schema: Optional[ResponseSchema], max_output_tokens: int) -> str:
        data = self._post(
            "/chat/completions",
            {
                "model": self.model,
                "messages": [{"role": "user", "content": prompt}],
                "max_tokens": max_output_tokens,
            },
        )
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendUnavailableError(f"unexpected completion payload: {exc}") from exc

    def embed(self, texts: list, dimension: int) -> list:
        data = self._post("/embeddings", {"model": self.embedding_model, "input": list(texts)})
        try:
            return [np.asarray(item["embedding"], dtype=np.float64) for item in data["data"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendUnavailableError(f"unexpected embeddings payload: {exc}") from exc


# --- gateway ---------------------------------------------------------------------


class Gateway:
    """Uniform completion/embedding entry point with usage accounting.

    Counters are updated under a lock so concurrent in-flight requests
    keep the accounting additive; the mock backend is reentrant.
    """

    def __init__(
        self,
        backend,
        dimension: int = DEFAULT_DIMENSION,
        rate_in: float = 0.0,
        rate_out: float = 0.0,
    ):
        self.backend = backend
        self.dimension = dimension
        self.rate_in = rate_in
        self.rate_out = rate_out
        self._lock = threading.Lock()
        self._usage = TokenUsage()

    def complete(self, request: CompletionRequest) -> str:
        if not request.prompt:
            raise ValueError("prompt must be non-empty")
        prompt = request.prompt
        error = ""
        for attempt in range(2):
            sent = prompt if attempt == 0 else prompt + prompts.REPROMPT_SUFFIX.format(error=error)
            reply = self.backend.complete(sent, request.response_schema, request.max_output_tokens)
            self._record(sent, reply)
            try:
                validate_reply(reply, request.response_schema)
                return reply
            except ValueError as exc:
                error = str(exc)
                logger.warning("schema %s violated (attempt %d): %s", request.response_schema, attempt + 1, exc)
        raise SchemaViolationError(
            f"reply kept violating schema {request.response_schema}: {error}"
        )

    def embed(self, texts: list) -> list:
        """One vector per text. A reply of another length or dimension, or
        with a component that is nan, infinite or beyond float32's finite
        range (a JSON null reads as nan), raises before anything is stored."""
        if not texts:
            raise ValueError("texts must be non-empty")
        vectors = self.backend.embed(list(texts), self.dimension)
        if len(vectors) != len(texts):
            raise BackendUnavailableError(
                f"backend returned {len(vectors)} vectors for {len(texts)} texts"
            )
        for position, vector in enumerate(vectors):
            if vector.shape != (self.dimension,):
                raise DimensionMismatchError(
                    f"backend returned dimension {vector.shape}, expected ({self.dimension},)"
                )
            if not finite_float32(vector):
                raise BackendUnavailableError(
                    f"backend returned a vector for text {position} with a"
                    " component that is nan, infinite or beyond float32's range"
                )
        return vectors

    def _record(self, prompt: str, reply: str) -> None:
        with self._lock:
            self._usage.input_tokens += count_tokens(prompt)
            self._usage.output_tokens += count_tokens(reply)
            self._usage.calls += 1

    def usage(self) -> TokenUsage:
        with self._lock:
            snapshot = TokenUsage(
                input_tokens=self._usage.input_tokens,
                output_tokens=self._usage.output_tokens,
                calls=self._usage.calls,
            )
        snapshot.estimated_cost = (
            snapshot.input_tokens * self.rate_in + snapshot.output_tokens * self.rate_out
        )
        return snapshot
