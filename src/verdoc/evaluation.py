"""QA dataset loading, answer judging and the evaluation run loop.

Datasets are JSON lines, one object per question with the fields of
``QAItem``. The deterministic judge checks order-free containment of the
gold answer's content tokens; the LLM judge asks the gateway for a
verdict. Per-item failures are recorded as incorrect with their reason
and never abort a run.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DatasetSchemaError, VerdocError
from .gateway import CompletionRequest, Gateway, ResponseSchema, TokenUsage, parse_json_reply
from .textmatch import contains_gold_tokens
from . import prompts

logger = logging.getLogger(__name__)

CATEGORIES = (
    "ContentRetrieval",
    "ContentRetrievalComplex",
    "ContentRetrievalVersionSpecific",
    "VersionListingInquiry",
    "ChangeRetrievalExplicit",
    "ChangeRetrievalImplicit",
)

VERSION_SENSITIVE = {
    "ContentRetrieval": False,
    "ContentRetrievalComplex": False,
    "ContentRetrievalVersionSpecific": True,
    "VersionListingInquiry": True,
    "ChangeRetrievalExplicit": True,
    "ChangeRetrievalImplicit": True,
}


@dataclass
class QAItem:
    id: str
    question: str
    gold_answer: str
    category: str
    version_sensitive: bool

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "question": self.question,
            "gold_answer": self.gold_answer,
            "category": self.category,
            "version_sensitive": self.version_sensitive,
        }


@dataclass
class EvalReport:
    per_category: dict = field(default_factory=dict)  # category -> [correct, total]
    overall_correct: int = 0
    overall_total: int = 0
    usage: TokenUsage = field(default_factory=TokenUsage)
    per_item: list = field(default_factory=list)

    @property
    def overall_accuracy(self) -> float:
        return self.overall_correct / self.overall_total if self.overall_total else 0.0

    def to_dict(self) -> dict:
        return {
            "overall_accuracy": round(self.overall_accuracy, 6),
            "overall_correct": self.overall_correct,
            "overall_total": self.overall_total,
            "per_category": {
                category: {
                    "correct": correct,
                    "total": total,
                    "accuracy": round(correct / total, 6) if total else 0.0,
                }
                for category, (correct, total) in sorted(self.per_category.items())
            },
            "usage": self.usage.to_dict(),
            "per_item": self.per_item,
        }


def load_dataset(path) -> list:
    """Load and validate a JSONL dataset; report the category distribution."""
    path = Path(path)
    if not path.exists():
        raise DatasetSchemaError(f"dataset file {path} does not exist")
    items = []
    seen_ids = set()
    for line_no, line in enumerate(path.read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise DatasetSchemaError(f"line {line_no}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise DatasetSchemaError(f"line {line_no}: expected a JSON object")
        items.append(_validate_item(data, line_no, seen_ids))
    if not items:
        raise DatasetSchemaError(f"dataset file {path} holds no items")
    distribution = {category: 0 for category in CATEGORIES}
    for item in items:
        distribution[item.category] += 1
    logger.info(
        "loaded %d items: %s",
        len(items),
        ", ".join(f"{c}={n}" for c, n in distribution.items()),
    )
    return items


def _validate_item(data: dict, line_no: int, seen_ids: set) -> QAItem:
    for field_name in ("id", "question", "gold_answer", "category", "version_sensitive"):
        if field_name not in data:
            raise DatasetSchemaError(f"line {line_no}: missing field {field_name!r}")
    for field_name in ("id", "question", "gold_answer", "category"):
        if not isinstance(data[field_name], str) or not data[field_name].strip():
            raise DatasetSchemaError(f"line {line_no}: field {field_name!r} must be a non-empty string")
    if data["category"] not in CATEGORIES:
        raise DatasetSchemaError(
            f"line {line_no}: field 'category' must be one of {', '.join(CATEGORIES)}"
        )
    if not isinstance(data["version_sensitive"], bool):
        raise DatasetSchemaError(f"line {line_no}: field 'version_sensitive' must be a boolean")
    if data["version_sensitive"] != VERSION_SENSITIVE[data["category"]]:
        raise DatasetSchemaError(
            f"line {line_no}: version_sensitive={data['version_sensitive']} contradicts "
            f"category {data['category']}"
        )
    if data["id"] in seen_ids:
        raise DatasetSchemaError(f"line {line_no}: duplicate id {data['id']!r}")
    seen_ids.add(data["id"])
    return QAItem(
        id=data["id"],
        question=data["question"],
        gold_answer=data["gold_answer"],
        category=data["category"],
        version_sensitive=data["version_sensitive"],
    )


def save_dataset(items: list, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for item in items:
            handle.write(json.dumps(item.to_dict(), sort_keys=True) + "\n")


def judge(answer: str, gold: str, mode: str = "deterministic", gateway: Gateway = None) -> bool:
    """Deterministic containment check, or one LLM verdict per answer."""
    if mode == "deterministic":
        return contains_gold_tokens(answer, gold)
    if mode != "llm":
        raise ValueError(f"unknown judge mode {mode!r}")
    if gateway is None:
        raise ValueError("llm judge mode needs a gateway")
    reply = gateway.complete(
        CompletionRequest(
            prompt=prompts.JUDGE_PROMPT.format(gold=gold, answer=answer),
            response_schema=ResponseSchema.JUDGE,
        )
    )
    return parse_json_reply(reply)["verdict"] == "correct"


def run_eval(engine, items: list, judge_mode: str = "deterministic") -> EvalReport:
    """Parse, retrieve, answer and judge every item; aggregate per category.

    ``engine`` is a :class:`verdoc.engine.Engine`. Item order never affects
    verdicts or aggregates; per-item errors count as incorrect with the
    error message as the rationale.
    """
    report = EvalReport(per_category={category: [0, 0] for category in CATEGORIES})
    usage_before = engine.gateway.usage()
    for item in items:
        verdict = False
        rationale = ""
        answer_text = ""
        try:
            result = engine.ask(item.question)
            answer_text = result.answer.text
            verdict = judge(answer_text, item.gold_answer, mode=judge_mode, gateway=engine.gateway)
            rationale = "gold tokens covered" if verdict else "gold tokens missing"
        except VerdocError as exc:
            rationale = f"{type(exc).__name__}: {exc}"
            logger.warning("item %s failed: %s", item.id, rationale)
        bucket = report.per_category[item.category]
        bucket[1] += 1
        if verdict:
            bucket[0] += 1
        report.overall_total += 1
        report.overall_correct += int(verdict)
        report.per_item.append(
            {
                "id": item.id,
                "answer": answer_text,
                "verdict": verdict,
                "judge_rationale": rationale,
            }
        )
    report.per_item.sort(key=lambda entry: entry["id"])
    report.per_category = {c: v for c, v in report.per_category.items() if v[1]}
    report.usage = engine.gateway.usage().minus(usage_before)
    return report
