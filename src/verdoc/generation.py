"""Answer generation: grounded prompt assembly plus one completion.

The prompt layout is deterministic: a grounding instruction block, the
retrieval mode and intent, one labeled block per context item in rank
order, then the question. Citations carry the provenance of every context
item; the engine does not attribute individual sub-claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import prompts
from .gateway import CompletionRequest, Gateway, ResponseSchema
from .retrieval import ParsedQuery, RetrievedContext


@dataclass
class Answer:
    text: str
    citations: list = field(default_factory=list)  # provenance dicts of the context used


def _label(item) -> str:
    return f"[{item.document} @ {item.version}]"


def build_prompt(query: ParsedQuery, context: RetrievedContext) -> str:
    if context.items:
        blocks = "\n\n".join(f"{_label(item)}\n{item.text}" for item in context.items)
    else:
        blocks = prompts.NO_CONTEXT_MARKER + "\nState that the answer is unknown."
    return prompts.ANSWER_PROMPT.format(
        mode=context.mode.value,
        intent=context.intent.value,
        context_begin=prompts.CONTEXT_BEGIN,
        context=blocks,
        context_end=prompts.CONTEXT_END,
        question=query.text,
    )


def answer(query: ParsedQuery, context: RetrievedContext, gateway: Gateway) -> Answer:
    prompt = build_prompt(query, context)
    text = gateway.complete(
        CompletionRequest(prompt=prompt, response_schema=ResponseSchema.FREE_TEXT)
    )
    citations = [
        {"document": item.document, "version": item.version, "origin": item.origin}
        for item in context.items
    ]
    return Answer(text=text, citations=citations)
