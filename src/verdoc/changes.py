"""Change detection: line diff plus implicit and explicit change records.

``line_diff`` computes a minimal LCS edit script over lines and groups it
into maximal contiguous hunks. Lines are matched after stripping trailing
whitespace (re-rendered Markdown often only touches trailing spaces) but
hunk text keeps lines verbatim; applying the hunks therefore reproduces
the new text byte-exactly whenever unchanged lines are byte-identical.

``lcs_ops`` is exact and banded. It trims the common suffix and prefix,
then fills the LCS table of what remains only on the diagonals that an
optimal edit path can reach (Ukkonen, "Algorithms for approximate string
matching", 1985), so time and memory are O((N+M)*D) for D edits rather
than O(N*M). The edit script is the one the full table gives under the
documented tie-break: when both a deletion and an insertion are optimal,
delete first when the old line's code is smaller. The codes of the lines
that tie-break compares are their lexicographic ranks, so diff(a, b) and
diff(b, a) pick mirrored paths.

Implicit records come from diffing adjacent version texts and summarizing
the hunks in one completion per version pair; explicit records come from
one completion over a changelog document. ``index_change_record`` and
``record_from_entry`` write and read a record's vector index entry.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import prompts
from .errors import ExplicitExtractionError, SchemaViolationError
from .gateway import CompletionRequest, Gateway, ResponseSchema, parse_json_reply
from .graph import ChangeKind, ChangeOrigin, ChangeRecord
from .ingestion import RawDocument
from .vector_index import IndexEntry, VectorIndex
from .versions import VersionLabel, compare_versions, parse_version

logger = logging.getLogger(__name__)

DESCRIPTION_LIMIT = 200

OP_MATCH = 0
OP_DELETE = 1
OP_INSERT = 2

# out-of-band cells of the LCS table; every in-band cell is >= 0
_NEG = -(2**14)
# match flags computed per block of band rows
_EQ_BLOCK = 2**16
# smallest half-width of a second pass: narrower passes cost about the
# same, since numpy's per-row overhead outweighs the cells they save
_MIN_REGROW = 128


class HunkKind(str, Enum):
    ADDED_LINES = "added_lines"
    REMOVED_LINES = "removed_lines"
    REPLACED_LINES = "replaced_lines"


@dataclass
class DiffHunk:
    """A maximal contiguous block of line edits.

    Spans are half-open 0-based line ranges; ``old_span`` is absent for
    pure additions and ``new_span`` for pure removals. Texts join the
    affected lines verbatim with newlines.
    """

    id: str
    kind: HunkKind
    old_span: Optional[tuple]
    new_span: Optional[tuple]
    old_text: str
    new_text: str


_KIND_TO_CHANGE = {
    HunkKind.ADDED_LINES: ChangeKind.ADDED,
    HunkKind.REMOVED_LINES: ChangeKind.REMOVED,
    HunkKind.REPLACED_LINES: ChangeKind.MODIFIED,
}


def _codes(old_lines: list, new_lines: list) -> tuple:
    """Map rstripped lines to int codes: equal lines get equal codes.

    Only the lines between the common suffix and prefix that ``lcs_ops``
    trims meet the kernel's tie-break, which compares codes; their codes
    are their lexicographic ranks among those lines, which keeps diff(a, b)
    and diff(b, a) symmetric. Every other line gets a code above them.
    """
    code_of: dict = {}
    a, b = (
        np.fromiter(
            (code_of.setdefault(line.rstrip(), len(code_of)) for line in lines),
            dtype=np.int64,
            count=len(lines),
        )
        for lines in (old_lines, new_lines)
    )
    suffix = _common_prefix(a[::-1], b[::-1])
    n, m = a.shape[0] - suffix, b.shape[0] - suffix
    p = _common_prefix(a[:n], b[:m])
    middle = np.unique(np.concatenate([a[p:n], b[p:m]])).tolist()
    distinct = list(code_of)
    middle.sort(key=distinct.__getitem__)
    remap = np.arange(len(distinct), dtype=np.int64) + len(middle)
    remap[middle] = np.arange(len(middle))
    return remap[a], remap[b]


def _common_prefix(a: np.ndarray, b: np.ndarray) -> int:
    k = min(a.shape[0], b.shape[0])
    differ = np.flatnonzero(a[:k] != b[:k])
    return int(differ[0]) if differ.size else k


def _band_table(a: np.ndarray, b: np.ndarray, kmin: int, kmax: int) -> tuple:
    """Fill the LCS table of ``a`` x ``b`` on the diagonals kmin <= j - i <= kmax.

    Row i holds columns lo[i]..hi[i], the diagonals clamped to the grid, at
    ``band[start[i] + 1:]`` with one _NEG cell on each side, so a read one
    column past either end of a row sees _NEG. Row recurrence as in the full
    table: row[j] = cummax(max(prev[j], prev[j-1] + eq[j])), with the cells
    outside the band read as _NEG.
    """
    n, m = a.shape[0], b.shape[0]
    rows = np.arange(n + 1)
    lo = np.maximum(rows + kmin, 0)
    hi = np.minimum(rows + kmax, m)
    start = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(hi - lo + 3, out=start[1:])
    dtype = np.int16 if min(n, m) < -_NEG else np.int32
    band = np.empty(int(start[-1]), dtype=dtype)
    band[start[:-1]] = _NEG
    band[start[1:] - 1] = _NEG
    band[1 : int(hi[0]) + 2] = 0
    # windows[i] holds b at the columns i + kmin .. i + kmax of row i; the
    # cells off the grid hold -1 and are never read
    span = kmax - kmin + 1
    b_pad = np.full(n + span, -1, dtype=np.int64)
    b_pad[1 - kmin : m + 1 - kmin] = b
    windows = np.lib.stride_tricks.sliding_window_view(b_pad, span)
    block = max(1, _EQ_BLOCK // span)
    add, maximum, cummax = np.add, np.maximum, np.maximum.accumulate
    lo, hi, start = lo.tolist(), hi.tolist(), start.tolist()
    for top in range(1, n + 1, block):
        hits = windows[top : top + block] == a[top - 1 : top - 1 + block, None]
        for i in range(top, min(top + block, n + 1)):
            first = lo[i]
            width = hi[i] - first + 1
            row = band[start[i] + 1 : start[i] + 1 + width]
            diag = start[i - 1] + first - lo[i - 1]  # prev row, column first - 1
            skip = first - i - kmin
            add(band[diag : diag + width], hits[i - top, skip : skip + width], out=row)
            maximum(row, band[diag + 1 : diag + 1 + width], out=row)
            cummax(row, out=row)
    return band, lo, start


def _lcs_band(a: np.ndarray, b: np.ndarray) -> tuple:
    """A band of the LCS table that holds every optimal edit path.

    A path through diagonal k = j - i makes at least |k| + |delta - k|
    edits, so with e edits on an optimal path every optimal path stays
    within (e - |delta|) / 2 diagonals of the strip between 0 and delta.
    The half-width starts at the bound that the code counts give. A band's
    own edit count is an upper bound on e: once it fits the half-width the
    band is exact. Otherwise the next pass takes that bound as its
    half-width when it is at most 8 times the current one, and grows 4
    times (to at least _MIN_REGROW) when it is not.
    """
    n, m = a.shape[0], b.shape[0]
    delta = m - n
    _, inverse = np.unique(np.concatenate([a, b]), return_inverse=True)
    surplus = np.bincount(inverse[:n], minlength=inverse.max() + 1)
    surplus -= np.bincount(inverse[n:], minlength=surplus.shape[0])
    width = max(1, (int(np.abs(surplus).sum()) - abs(delta)) // 2)
    while True:
        kmin, kmax = min(0, delta) - width, max(0, delta) + width
        band, lo, start = _band_table(a, b, kmin, kmax)
        lcs = int(band[start[n] + 1 + m - lo[n]])
        slack = (n + m - 2 * lcs - abs(delta)) // 2
        if slack <= width or (kmin <= -n and kmax >= m):
            return band, lo, start
        del band
        width = slack if slack <= 8 * width else max(4 * width, _MIN_REGROW)


def _backtrack_middle(a: np.ndarray, b: np.ndarray, rev: bytearray) -> tuple:
    """Walk the band from (n, m) to the first row or column, appending ops
    to ``rev`` in reverse; returns where the walk stopped."""
    i, j = a.shape[0], b.shape[0]
    if i == 0 or j == 0:
        return i, j
    band, lo, start = _lcs_band(a, b)
    a, b = a.tolist(), b.tolist()
    while i > 0 and j > 0:
        x, y = a[i - 1], b[j - 1]
        if x == y:
            rev.append(OP_MATCH)
            i -= 1
            j -= 1
            continue
        up = band[start[i - 1] + 1 + j - lo[i - 1]]
        left = band[start[i] + j - lo[i]]
        if up > left or (up == left and x < y):
            rev.append(OP_DELETE)
            i -= 1
        else:
            rev.append(OP_INSERT)
            j -= 1
    return i, j


def lcs_ops(a_codes: np.ndarray, b_codes: np.ndarray) -> np.ndarray:
    """Minimal LCS edit script between two int code sequences.

    Returns an int8 array over OP_MATCH / OP_DELETE / OP_INSERT in forward
    order; matches + deletes consume ``a_codes``, matches + inserts consume
    ``b_codes``. The script equals the backtrack over the full LCS table
    from (n, m) under the tie-break in the module docstring.
    """
    a = np.ascontiguousarray(a_codes, dtype=np.int64)
    b = np.ascontiguousarray(b_codes, dtype=np.int64)
    # The backtrack matches greedily from the end, so the common suffix is
    # its first steps.
    suffix = _common_prefix(a[::-1], b[::-1])
    n, m = a.shape[0] - suffix, b.shape[0] - suffix
    rev = bytearray([OP_MATCH]) * suffix
    # With a common prefix of length p, the table past row p and column p is
    # p plus the table of the middle, so the middle's band decides the walk
    # there.
    p = _common_prefix(a[:n], b[:m])
    i, j = _backtrack_middle(a[p:n], b[p:m], rev)
    i, j = i + p, j + p
    # The rest lies where i <= p or j <= p, in which dp(i, j) = min(i, j):
    # up = min(i - 1, j) and left = min(i, j - 1), so off the diagonal a
    # mismatch always moves toward it, and on the diagonal the rest matches.
    a_head, b_head = a[:i].tolist(), b[:j].tolist()
    while i > 0 and j > 0 and i != j:
        if a_head[i - 1] == b_head[j - 1]:
            rev.append(OP_MATCH)
            i -= 1
            j -= 1
        elif i < j:
            rev.append(OP_INSERT)
            j -= 1
        else:
            rev.append(OP_DELETE)
            i -= 1
    if i == j:
        rev += bytes([OP_MATCH]) * i
    else:
        rev += bytes([OP_DELETE]) * i + bytes([OP_INSERT]) * j
    return np.frombuffer(rev, dtype=np.int8)[::-1].copy()


def line_diff(old_text: str, new_text: str, hunk_prefix: str = "h") -> list:
    """Minimal LCS-based line diff grouped into hunks, ordered by position."""
    if old_text == new_text:
        return []
    old_lines = old_text.split("\n")
    new_lines = new_text.split("\n")
    a, b = _codes(old_lines, new_lines)
    ops = lcs_ops(a, b)

    # hunks are the maximal runs of non-match ops; the cumulative op counts
    # give each run's line spans
    flips = np.flatnonzero(np.diff(ops != OP_MATCH, prepend=False, append=False))
    starts, ends = flips[0::2], flips[1::2]
    old_pos = np.concatenate(([0], np.cumsum(ops != OP_INSERT)))
    new_pos = np.concatenate(([0], np.cumsum(ops != OP_DELETE)))
    hunks: list = []
    for old_start, old_end, new_start, new_end in zip(
        old_pos[starts].tolist(),
        old_pos[ends].tolist(),
        new_pos[starts].tolist(),
        new_pos[ends].tolist(),
    ):
        removed = old_lines[old_start:old_end]
        added = new_lines[new_start:new_end]
        if removed and added:
            kind = HunkKind.REPLACED_LINES
        elif added:
            kind = HunkKind.ADDED_LINES
        else:
            kind = HunkKind.REMOVED_LINES
        hunks.append(
            DiffHunk(
                id=f"{hunk_prefix}{len(hunks):04d}",
                kind=kind,
                old_span=(old_start, old_end) if removed else None,
                new_span=(new_start, new_end) if added else None,
                old_text="\n".join(removed),
                new_text="\n".join(added),
            )
        )
    return hunks


def apply_hunks(old_text: str, hunks: list) -> str:
    """Reconstruct the new text by replaying hunks over the old text."""
    old_lines = old_text.split("\n")
    out: list = []
    cursor = 0
    consumed_new = 0
    for hunk in hunks:
        if hunk.old_span is not None:
            gap = hunk.old_span[0] - cursor
        else:
            gap = hunk.new_span[0] - consumed_new
        out.extend(old_lines[cursor : cursor + gap])
        cursor += gap
        consumed_new += gap
        if hunk.old_span is not None:
            cursor += hunk.old_span[1] - hunk.old_span[0]
        if hunk.new_span is not None:
            # "".split("\n") == [""]: a single empty added line survives
            out.extend(hunk.new_text.split("\n"))
            consumed_new += hunk.new_span[1] - hunk.new_span[0]
    out.extend(old_lines[cursor:])
    return "\n".join(out)


def deterministic_description(hunk: DiffHunk) -> str:
    """First non-empty line of the hunk, truncated; used when no LLM ran."""
    body = hunk.new_text if hunk.new_text else hunk.old_text
    for line in body.splitlines():
        if line.strip():
            return line.strip()[:DESCRIPTION_LIMIT]
    return ""


def index_change_record(
    record: ChangeRecord,
    description_vector,
    vector_index: VectorIndex,
    category: str,
    source: str = "",
) -> None:
    """Insert a change record into the vector index.

    The metadata carries every record field (evidence comma-joined) plus
    the source file for explicit records, so a record can be rebuilt from
    its entry without re-running extraction.
    """
    metadata = {
        "category": category,
        "document": record.document,
        "version": record.to_version.raw,
        "to_version": record.to_version.raw,
        "from_version": "" if record.from_version is None else record.from_version.raw,
        "origin": record.origin.value,
        "record_kind": record.kind.value,
        "evidence": ",".join(record.evidence),
        "source": source,
    }
    vector_index.insert(
        IndexEntry(
            key=record.id,
            vector=description_vector,
            metadata=metadata,
            text=record.description,
        )
    )


def record_from_entry(entry) -> ChangeRecord:
    """Rebuild a change record from its vector index entry."""
    md = entry.metadata
    evidence = md.get("evidence", "")
    return ChangeRecord(
        id=entry.key,
        document=md["document"],
        from_version=None if not md.get("from_version") else parse_version(md["from_version"]),
        to_version=parse_version(md["to_version"]),
        kind=ChangeKind(md["record_kind"]),
        description=entry.text,
        origin=ChangeOrigin(md["origin"]),
        evidence=evidence.split(",") if evidence else [],
    )


def indexed_records(vector_index: VectorIndex) -> dict:
    """Change records already in the index, grouped by extraction unit."""
    grouped: dict = {}
    for key in vector_index.keys():
        entry = vector_index.get(key)
        md = entry.metadata
        if md.get("origin") == "explicit":
            bucket = ("explicit", md["document"], md.get("source", ""))
        elif md.get("origin") == "implicit":
            bucket = ("implicit", md["document"], md.get("from_version", ""), md["to_version"])
        else:
            continue
        grouped.setdefault(bucket, []).append(record_from_entry(entry))
    for records in grouped.values():
        records.sort(key=lambda r: r.id)
    return grouped


def extract_implicit_changes(document: str, prev: tuple, nxt: tuple, gateway: Gateway) -> list:
    """Diff two adjacent version texts and emit one record per hunk group.

    ``prev`` and ``nxt`` are (VersionLabel, text) pairs with prev < nxt.
    One completion summarizes all hunks of the pair; the reply may merge
    adjacent hunks when it returns a valid partition of hunk indices,
    otherwise every hunk gets its own record with the deterministic
    first-line description.
    """
    (prev_label, prev_text) = prev
    (next_label, next_text) = nxt
    if compare_versions(prev_label, next_label) >= 0:
        raise ValueError(f"versions not ascending: {prev_label.raw} .. {next_label.raw}")
    prefix = f"change:{document}@{prev_label.raw}->{next_label.raw}#h"
    hunks = line_diff(prev_text, next_text, hunk_prefix=prefix)
    if not hunks:
        return []

    groups = _summarize_hunks(hunks, document, prev_label, next_label, gateway)
    return [
        ChangeRecord(
            id=f"change:{document}@{prev_label.raw}->{next_label.raw}#r{ordinal:04d}",
            document=document,
            from_version=prev_label,
            to_version=next_label,
            kind=kind,
            description=description,
            origin=ChangeOrigin.IMPLICIT,
            evidence=[hunks[m].id for m in members],
        )
        for ordinal, (kind, description, members) in enumerate(groups)
    ]


def _summarize_hunks(
    hunks: list,
    document: str,
    prev_label: VersionLabel,
    next_label: VersionLabel,
    gateway: Gateway,
) -> list:
    """Return (kind, description, hunk_indices) groups covering every hunk."""
    fallback = [
        (_KIND_TO_CHANGE[h.kind], deterministic_description(h) or h.id, [i])
        for i, h in enumerate(hunks)
    ]
    prompt = prompts.IMPLICIT_CHANGES_PROMPT.format(
        from_version=prev_label.raw,
        to_version=next_label.raw,
        document=document,
        hunks=prompts.format_hunks(hunks),
    )
    try:
        reply = gateway.complete(
            CompletionRequest(prompt=prompt, response_schema=ResponseSchema.CHANGE_SUMMARY)
        )
        data = parse_json_reply(reply)
    except SchemaViolationError as exc:
        logger.warning("hunk summarization failed, using per-hunk records: %s", exc)
        return fallback
    groups = []
    seen: set = set()
    for item in data["changes"]:
        members = item.get("hunks")
        if members is None:
            return fallback
        members = [m for m in members if 0 <= m < len(hunks)]
        if not members or any(m in seen for m in members):
            return fallback
        seen.update(members)
        description = item["description"].strip()[:DESCRIPTION_LIMIT]
        if not description:
            description = deterministic_description(hunks[members[0]]) or hunks[members[0]].id
        groups.append((ChangeKind(item["kind"]), description, sorted(members)))
    if seen != set(range(len(hunks))):
        return fallback  # merge mapping must partition the hunks
    return groups


def extract_explicit_changes(
    changelog: RawDocument, attrs, document: str, gateway: Gateway
) -> list:
    """Extract per-version change items from a changelog document.

    ``attrs`` must classify the document as a changelog. Versions are kept
    as parsed labels; records carry no from_version (the graph attaches
    them to the chain-adjacent pair at insertion time).
    """
    if attrs.doc_type != "changelog":
        raise ValueError(f"{changelog.source_path} is not classified as a changelog")
    version_hint = f" for version {attrs.version.raw}" if attrs.version is not None else ""
    prompt = prompts.EXPLICIT_CHANGES_PROMPT.format(
        version_hint=version_hint,
        doc_begin=prompts.DOC_BEGIN,
        text=changelog.text,
        doc_end=prompts.DOC_END,
    )
    try:
        reply = gateway.complete(
            CompletionRequest(prompt=prompt, response_schema=ResponseSchema.CHANGE_SUMMARY)
        )
        data = parse_json_reply(reply)
    except SchemaViolationError as exc:
        raise ExplicitExtractionError(
            f"changelog extraction failed for {changelog.source_path}: {exc}"
        ) from exc
    source_tag = hashlib.sha1(changelog.source_path.encode("utf-8")).hexdigest()[:8]
    records = []
    for item in data["changes"]:
        raw_version = item.get("version")
        if not raw_version or not str(raw_version).strip():
            continue
        description = item["description"].strip()
        if not description:
            continue
        label = parse_version(str(raw_version))
        records.append(
            ChangeRecord(
                id=f"change:{document}@{label.raw}#x{source_tag}-{len(records):04d}",
                document=document,
                from_version=None,
                to_version=label,
                kind=ChangeKind(item["kind"]),
                description=description,
                origin=ChangeOrigin.EXPLICIT,
                evidence=[],
            )
        )
    if not records:
        logger.warning("changelog %s yielded no parseable change items", changelog.source_path)
    return records
