"""Change detection: line diff plus implicit and explicit change records.

``line_diff`` computes a minimal LCS edit script over lines and groups it
into maximal contiguous hunks. Lines are matched after stripping trailing
whitespace (re-rendered Markdown often only touches trailing spaces) but
hunk text keeps lines verbatim; applying the hunks therefore reproduces
the new text byte-exactly whenever unchanged lines are byte-identical.

``lcs_ops`` is exact. It trims the common suffix and prefix, then walks
what remains, the middle, by one of two exact methods that give the same
edit script. Myers' greedy pass ("An O(ND) Difference Algorithm and Its
Variations", 1986) stores each round's furthest reach per diagonal and
costs O((N+M)*D) Python steps for D edits, about D^2/2 of them diagonal
visits, so it wins when edits are few for the middle's length. A first
pass on a budget of _PROBE_STEPS_PER_LINE steps per middle line settles
most diffs before any line is coded. Past it, the line counts bound D from
below, and a second pass on _GREEDY_STEPS_PER_LINE steps per line runs
unless that bound already exceeds what its budget covers. Past that, the
LCS table is filled only on the diagonals that an optimal edit path can
reach (Ukkonen, "Algorithms for approximate string matching", 1985), one
numpy row per middle line, starting from the lower bound on D that the
greedy passes or the counts proved. The edit script is the one the full
table gives under the documented tie-break: when both a deletion and an
insertion are optimal, delete first when the old key is smaller. It
compares the keys themselves (the rstripped lines, for ``line_diff``), so
diff(a, b) and diff(b, a) pick mirrored paths.

Implicit records come from diffing adjacent version texts and summarizing
the hunks in one completion per version pair; explicit records come from
one completion over a changelog document. A record's id names the source
it came from (``pair_source``, ``changelog_source``), so the id alone
tells whether a record still describes the corpus. A record is stored
once, as a node of the version graph.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count
from typing import Optional

import numpy as np

from . import prompts
from .errors import ExplicitExtractionError, SchemaViolationError
from .gateway import CompletionRequest, Gateway, ResponseSchema, parse_json_reply
from .graph import ChangeKind, ChangeOrigin, ChangeRecord
from .ingestion import RawDocument
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
# work budgets of the greedy pass per middle line, in diagonal visits plus
# snake steps: a first pass before the line counts are taken, and a second
# one when the counts allow it; past the second the band runs
_PROBE_STEPS_PER_LINE = 1
_GREEDY_STEPS_PER_LINE = 4


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


def _run(a: list, b: list, i: int, j: int, most: int) -> int:
    """Length of the longest run a[i:i+x] == b[j:j+x] with x <= ``most``.

    Compares blocks that double while they match, then halve down to the
    end of the run, so a run of x keys takes O(log x) slice comparisons.
    """
    done, step = 0, 1
    while step <= most - done and a[i + done : i + done + step] == b[j + done : j + done + step]:
        done += step
        step *= 2
    while step > 1:
        step //= 2
        if step <= most - done and a[i + done : i + done + step] == b[j + done : j + done + step]:
            done += step
    return done


def _greedy_rounds(a, b, edits_at_least: int, steps_per_line: int) -> tuple:
    """Furthest reaches of Myers' greedy pass over ``a`` x ``b``.

    Dist(i, j) is the edit count of the best path from the origin to cell
    (i, j). Round d holds, for each diagonal k = j - i with |k| <= d and the
    parity of d, the furthest row i with Dist(i, i + k) <= d; Dist never
    decreases along a diagonal, so the cells up to that row are all of the
    diagonal's cells with Dist <= d. A diagonal's reach is the best of a
    delete from diagonal k + 1, an insert from k - 1 and its own reach two
    rounds back, followed by its snake of matches.

    Returns (rounds, d) when round d is the first to reach (n, m), so d is
    the edit count. Once the rounds cost more than ``steps_per_line`` *
    (n + m) diagonal visits plus snake steps, returns (None, d) with d a
    lower bound on the edit count. Round d <= min(n, m) visits d + 1
    diagonals, so the rounds up to a lower bound e cost about e^2 / 2; when
    that alone exceeds the budget, no round runs.
    """
    n, m = len(a), len(b)
    budget = steps_per_line * (n + m)
    if edits_at_least * edits_at_least > 2 * budget:
        return None, edits_at_least
    offset = n + 1  # reach[k + offset] is diagonal k's furthest row; -2 is unreached
    reach = [-2] * (n + m + 3)
    reach[offset] = 0
    end = m - n + offset
    rounds: list = []
    steps = 0
    for d in range(n + m + 1):
        lo = -d if d <= n else (d - n) % 2 - n
        hi = d if d <= m else m - (d - m) % 2
        for v in range(lo + offset, hi + offset + 1, 2):
            k = v - offset
            row = reach[v]
            deleted = reach[v + 1] + 1
            if row < deleted <= n:
                row = deleted
            inserted = reach[v - 1]
            if inserted > row and inserted + k <= m:
                row = inserted
            if row < 0:
                continue
            limit = min(n, m - k)
            if row < limit and a[row] == b[row + k]:
                snake = _run(a, b, row, row + k, limit - row)
                steps += snake
                row += snake
            reach[v] = row
        steps += (hi - lo) // 2 + 1
        rounds.append((lo, reach[lo + offset : hi + offset + 1 : 2]))
        if reach[end] == n:
            return rounds, d
        if steps > budget:
            return None, max(d + 1, edits_at_least)
    raise AssertionError("round n + m reaches (n, m)")


def _backtrack_greedy(rounds: list, a, b, rev: bytearray) -> tuple:
    """Walk from (n, m) to the first row or column under the documented
    tie-break, appending ops to ``rev`` in reverse; returns where the walk
    stopped.

    A match keeps Dist. At a mismatch the cells above and to the left have
    Dist one below or one above the current cell's, and at least one is
    below, so two reads of the previous round decide the edit.
    """
    n, m = i, j = len(a), len(b)
    a_back, b_back = a[::-1], b[::-1]  # a run of matches back from (i, j) is a run forward here
    d = len(rounds) - 1
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            run = _run(a_back, b_back, n - i, m - j, min(i, j))
            rev += bytes([OP_MATCH]) * run
            i -= run
            j -= run
            continue
        lo, reach = rounds[d - 1]
        left = (j - i - 1 - lo) // 2  # (i, j - 1); (i - 1, j) is on the next diagonal
        left_ok = 0 <= left < len(reach) and reach[left] >= i
        up_ok = -1 <= left < len(reach) - 1 and reach[left + 1] >= i - 1
        if up_ok and (not left_ok or a[i - 1] < b[j - 1]):
            rev.append(OP_DELETE)
            i -= 1
        else:
            rev.append(OP_INSERT)
            j -= 1
        d -= 1
    return i, j


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


def _lcs_band(a: np.ndarray, b: np.ndarray, edits_at_least: int) -> tuple:
    """A band of the LCS table that holds every optimal edit path.

    A path through diagonal k = j - i makes at least |k| + |delta - k|
    edits, so with e edits on an optimal path every optimal path stays
    within (e - |delta|) / 2 diagonals of the strip between 0 and delta.
    The half-width starts at the bound that ``edits_at_least``, a lower
    bound on e, gives. A band's own edit count is an upper bound on e: once
    it fits the half-width the band is exact. Otherwise the next pass takes that bound as its
    half-width when it is at most 8 times the current one, and grows 4
    times (to at least _MIN_REGROW) when it is not.
    """
    n, m = a.shape[0], b.shape[0]
    delta = m - n
    width = max(1, (edits_at_least - abs(delta)) // 2)
    while True:
        kmin, kmax = min(0, delta) - width, max(0, delta) + width
        band, lo, start = _band_table(a, b, kmin, kmax)
        lcs = int(band[start[n] + 1 + m - lo[n]])
        slack = (n + m - 2 * lcs - abs(delta)) // 2
        if slack <= width or (kmin <= -n and kmax >= m):
            return band, lo, start
        del band
        width = slack if slack <= 8 * width else max(4 * width, _MIN_REGROW)


def _backtrack_band(
    a: np.ndarray, b: np.ndarray, a_keys, b_keys, rev: bytearray, edits_at_least: int
) -> tuple:
    """Walk the band from (n, m) to the first row or column, appending ops
    to ``rev`` in reverse; returns where the walk stopped. ``a`` and ``b``
    hold equality codes of the keys ``a_keys`` and ``b_keys``, and
    ``edits_at_least`` is a lower bound on their edit count (0 always is)."""
    i, j = a.shape[0], b.shape[0]
    band, lo, start = _lcs_band(a, b, edits_at_least)
    a, b = a.tolist(), b.tolist()
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            rev.append(OP_MATCH)
            i -= 1
            j -= 1
            continue
        up = band[start[i - 1] + 1 + j - lo[i - 1]]
        left = band[start[i] + j - lo[i]]
        if up > left or (up == left and a_keys[i - 1] < b_keys[j - 1]):
            rev.append(OP_DELETE)
            i -= 1
        else:
            rev.append(OP_INSERT)
            j -= 1
    return i, j


def _backtrack_middle(a: list, b: list, rev: bytearray) -> tuple:
    """Walk the middle from (n, m) to the first row or column, appending
    ops to ``rev`` in reverse; returns where the walk stopped.

    A first greedy pass on a small budget settles the common case, few
    edits for the length, before the keys are coded. Past it, the line
    counts bound the edit count from below: what one side holds of a key
    beyond the other's count must be deleted or inserted. A second greedy
    pass runs on the full budget unless that bound shows it too small, and
    the band walks the rest.
    """
    if not a or not b:
        return len(a), len(b)
    rounds, edits = _greedy_rounds(a, b, 0, _PROBE_STEPS_PER_LINE)
    if rounds is None:
        code_of = dict(zip(dict.fromkeys(chain(a, b)), count()))
        a_codes, b_codes = (
            np.fromiter(map(code_of.__getitem__, keys), np.int64, len(keys)) for keys in (a, b)
        )
        counts = [np.bincount(codes, minlength=len(code_of)) for codes in (a_codes, b_codes)]
        edits = max(edits, int(np.abs(counts[0] - counts[1]).sum()))
        rounds, edits = _greedy_rounds(a, b, edits, _GREEDY_STEPS_PER_LINE)
        if rounds is None:
            return _backtrack_band(a_codes, b_codes, a, b, rev, edits)
    return _backtrack_greedy(rounds, a, b, rev)


def lcs_ops(a_keys, b_keys) -> np.ndarray:
    """Minimal LCS edit script between two sequences of ordered keys.

    Returns an int8 array over OP_MATCH / OP_DELETE / OP_INSERT in forward
    order; matches + deletes consume ``a_keys``, matches + inserts consume
    ``b_keys``. The script equals the backtrack over the full LCS table
    from (n, m) under the tie-break in the module docstring.
    """
    a_keys, b_keys = list(a_keys), list(b_keys)
    # The backtrack matches greedily from the end, so the common suffix is
    # its first steps.
    suffix = _run(a_keys[::-1], b_keys[::-1], 0, 0, min(len(a_keys), len(b_keys)))
    n, m = len(a_keys) - suffix, len(b_keys) - suffix
    rev = bytearray([OP_MATCH]) * suffix
    # With a common prefix of length p, the table past row p and column p is
    # p plus the table of the middle, so the middle's edit paths decide the
    # walk there.
    p = _run(a_keys, b_keys, 0, 0, min(n, m))
    i, j = _backtrack_middle(a_keys[p:n], b_keys[p:m], rev)
    i, j = i + p, j + p
    # The rest lies where i <= p or j <= p, in which dp(i, j) = min(i, j):
    # up = min(i - 1, j) and left = min(i, j - 1), so off the diagonal a
    # mismatch always moves toward it, and on the diagonal the rest matches.
    while i > 0 and j > 0 and i != j:
        if a_keys[i - 1] == b_keys[j - 1]:
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
    ops = lcs_ops(list(map(str.rstrip, old_lines)), list(map(str.rstrip, new_lines)))

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


def _tag(*parts: str) -> str:
    return hashlib.sha1("\n".join(parts).encode("utf-8")).hexdigest()[:8]


def pair_source(prev: RawDocument, nxt: RawDocument) -> str:
    """The source that the ids of a version pair's implicit records name:
    ``r`` and a tag of the sha256 of the two texts."""
    return "r" + _tag(prev.sha256, nxt.sha256)


def changelog_source(changelog: RawDocument, attrs) -> str:
    """The source that the ids of a changelog file's explicit records name:
    ``x`` and a tag of its path, the sha256 of its text and the version of
    its attributes, which the extraction prompt names."""
    version = "" if attrs.version is None else attrs.version.raw
    return "x" + _tag(changelog.source_path, changelog.sha256, version)


def record_source(record: ChangeRecord) -> str:
    """The source that ``record``'s id names; an id of an older format names
    none that :func:`pair_source` or :func:`changelog_source` gives."""
    return record.id.rpartition("-")[0].rpartition("#")[2]


def extract_implicit_changes(document: str, prev: tuple, nxt: tuple, gateway: Gateway) -> list:
    """Diff two adjacent version texts and emit one record per hunk group.

    ``prev`` and ``nxt`` are (VersionLabel, RawDocument) pairs with prev <
    nxt. One completion summarizes all hunks of the pair; the reply may
    merge adjacent hunks when it returns a valid partition of hunk indices,
    otherwise every hunk gets its own record with the deterministic
    first-line description. Record ids name the ``pair_source`` of the two
    texts.
    """
    (prev_label, prev_doc) = prev
    (next_label, next_doc) = nxt
    if compare_versions(prev_label, next_label) >= 0:
        raise ValueError(f"versions not ascending: {prev_label.raw} .. {next_label.raw}")
    pair = f"change:{document}@{prev_label.raw}->{next_label.raw}"
    hunks = line_diff(prev_doc.text, next_doc.text, hunk_prefix=f"{pair}#h")
    if not hunks:
        return []

    groups = _summarize_hunks(hunks, document, prev_label, next_label, gateway)
    source = pair_source(prev_doc, next_doc)
    return [
        ChangeRecord(
            id=f"{pair}#{source}-{ordinal:04d}",
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
    indices = set(range(len(hunks)))
    seen: set = set()
    for item in data["changes"]:
        members = item.get("hunks") or []
        fresh = set(members) - seen  # an index repeated or claimed before is not fresh
        if not members or len(fresh) < len(members) or not fresh <= indices:
            break
        seen |= fresh
        description = item["description"].strip()[:DESCRIPTION_LIMIT]
        if not description:
            description = deterministic_description(hunks[members[0]]) or hunks[members[0]].id
        groups.append((ChangeKind(item["kind"]), description, sorted(members)))
    else:
        if seen == indices:
            return groups  # the merge mapping partitions the hunks
    logger.warning(
        "hunk summarization failed, using per-hunk records: "
        "the reply's hunk lists do not partition the %d hunks",
        len(hunks),
    )
    return fallback


def extract_explicit_changes(
    changelog: RawDocument, attrs, document: str, gateway: Gateway
) -> list:
    """Extract per-version change items from a changelog document.

    ``attrs`` must classify the document as a changelog. Versions are kept
    as parsed labels. A record carries no from_version: it belongs to
    whichever adjacent version pair ends at its to-version in the graph
    (``VersionGraph.changes_for_pair``), so the chain alone places it.
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
    source = changelog_source(changelog, attrs)
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
                id=f"change:{document}@{label.raw}#{source}-{len(records):04d}",
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
