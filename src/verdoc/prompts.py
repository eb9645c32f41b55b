"""Prompt templates and the block markers shared with the offline backend.

The templates are original to this project. Each structured task wraps its
payload between BEGIN/END markers so that the deterministic offline
backend can recover the payload from the prompt alone; the remote backend
simply sees well-delimited context.
"""

from __future__ import annotations

DOC_BEGIN = "===BEGIN DOCUMENT==="
DOC_END = "===END DOCUMENT==="
CONTEXT_BEGIN = "===BEGIN CONTEXT==="
CONTEXT_END = "===END CONTEXT==="
HUNK_BEGIN = "===BEGIN HUNK {index} kind={kind}==="
HUNK_END = "===END HUNK {index}==="
NO_CONTEXT_MARKER = "(no context retrieved)"
INSUFFICIENT_CONTEXT = "The retrieved context is insufficient to answer this question."

ATTRIBUTES_PROMPT = """\
Extract catalog metadata from the document excerpt below.
Reply with exactly one JSON object: {{"title": string, "summary": string, "version": string or null}}.
The title must name the subject without any version number. Example reply:
{{"title": "Widget Toolkit", "summary": "API guide for the widget toolkit.", "version": "3.1.0"}}

{doc_begin}
{text}
{doc_end}
"""

DOC_TYPE_PROMPT = """\
Decide whether the title and headings below belong to a changelog
(release notes listing per-version changes) or to regular documentation.
Reply with exactly one JSON object: {{"doc_type": "changelog"}} or {{"doc_type": "documentation"}}.

{doc_begin}
{text}
{doc_end}
"""

CLUSTER_PROMPT = """\
Group the documents below: versions of the same document share a group,
and groups belong to semantic categories. Every index must appear in
exactly one group. Reply with exactly one JSON object shaped like:
{{"categories": [{{"name": string, "groups": [{{"title": string, "members": [int, ...]}}]}}]}}

Documents:
{listing}
"""

PARSE_PROMPT = """\
Classify the question below and extract its parameters.
intent is one of: "content" (asks what documentation says), "version"
(asks which versions exist or about version metadata), "change" (asks what
changed, was added or was removed between versions).
Reply with exactly one JSON object:
{{"intent": string, "document": string or null, "category": string or null,
  "version": string or null, "version_range": [string, string] or null}}
document must be copied from the known document titles when one matches.

Known documents:
{documents}
Known categories:
{categories}

Question: {question}
"""

IMPLICIT_CHANGES_PROMPT = """\
The hunks below are line differences between version {from_version} and
version {to_version} of "{document}". Describe each change. Reply with
exactly one JSON object: {{"changes": [{{"kind": "added"|"removed"|"modified"|"other",
"description": string, "hunks": [int, ...]}}]}}. Every hunk index must
appear in exactly one entry; merge adjacent hunks only when they form one
logical change.

{hunks}
"""

EXPLICIT_CHANGES_PROMPT = """\
The document below is a changelog{version_hint}. Extract the individual
change items. Reply with exactly one JSON object:
{{"changes": [{{"version": string, "kind": "added"|"removed"|"modified"|"other",
"description": string}}]}}

{doc_begin}
{text}
{doc_end}
"""

ANSWER_PROMPT = """\
Answer the question using only the context below. Every statement must be
grounded in the context; if the context does not contain the answer, say
that it is unknown. Mention the version a fact comes from when relevant.
Retrieval mode: {mode}
Query intent: {intent}
{context_begin}
{context}
{context_end}
Question: {question}
"""

JUDGE_PROMPT = """\
Decide whether the answer conveys the gold answer's content.
Reply with exactly one JSON object: {{"verdict": "correct"}} or {{"verdict": "incorrect"}}.

Gold: {gold}
Answer: {answer}
"""

REPROMPT_SUFFIX = """

The previous reply was invalid: {error}
Reply again with exactly one JSON object matching the requested shape.\
"""


def extract_document(prompt: str) -> str:
    """Payload of the last document block in a prompt (few-shot safe)."""
    start = prompt.rfind(DOC_BEGIN)
    if start < 0:
        return ""
    start += len(DOC_BEGIN)
    end = prompt.find(DOC_END, start)
    if end < 0:
        end = len(prompt)
    return prompt[start:end].strip("\n")


def format_hunks(hunks) -> str:
    blocks = []
    for index, hunk in enumerate(hunks):
        body = hunk.new_text if hunk.new_text else hunk.old_text
        blocks.append(
            HUNK_BEGIN.format(index=index, kind=hunk.kind.value)
            + "\n"
            + body
            + "\n"
            + HUNK_END.format(index=index)
        )
    return "\n".join(blocks)
