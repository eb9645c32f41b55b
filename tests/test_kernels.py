import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import verdoc.changes
from verdoc.changes import (
    OP_DELETE,
    OP_INSERT,
    OP_MATCH,
    _GREEDY_STEPS_PER_LINE,
    _backtrack_band,
    _backtrack_greedy,
    _band_table,
    _greedy_rounds,
    apply_hunks,
    lcs_ops,
    line_diff,
)


def reference_table(a, b):
    """Textbook double-loop LCS table."""
    n, m = len(a), len(b)
    dp = np.zeros((n + 1, m + 1), dtype=np.int32)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                dp[i, j] = dp[i - 1, j - 1] + 1
            else:
                dp[i, j] = max(dp[i - 1, j], dp[i, j - 1])
    return dp


def reference_ops(a, b):
    """The documented edit script: backtrack the full table from (n, m),
    matching greedily and, when deleting and inserting are both optimal,
    deleting first when the old code is smaller."""
    dp = reference_table(a, b)
    ops = []
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            ops.append(OP_MATCH)
            i -= 1
            j -= 1
        else:
            up, left = dp[i - 1, j], dp[i, j - 1]
            if up > left or (up == left and a[i - 1] < b[j - 1]):
                ops.append(OP_DELETE)
                i -= 1
            else:
                ops.append(OP_INSERT)
                j -= 1
    ops.extend([OP_DELETE] * i + [OP_INSERT] * j)
    return ops[::-1]


def full_band_table(a, b):
    """The band table over every diagonal, read back as a dense table."""
    n, m = len(a), len(b)
    band, lo, start = _band_table(a, b, -n - 1, m + 1)
    rows = [band[start[i] + 1 : start[i] + 2 + m] for i in range(n + 1)]
    assert all(first == 0 for first in lo)
    return np.array(rows, dtype=np.int32)


def apply_ops(ops, a, b):
    out = []
    i = j = 0
    for op in ops:
        if op == OP_MATCH:
            assert a[i] == b[j]
            out.append(b[j])
            i += 1
            j += 1
        elif op == OP_DELETE:
            i += 1
        else:
            out.append(b[j])
            j += 1
    assert i == len(a) and j == len(b)
    return out


@pytest.mark.parametrize("seed", range(20))
def test_vectorized_table_matches_reference(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 6, size=rng.integers(0, 40)).astype(np.int64)
    b = rng.integers(0, 6, size=rng.integers(0, 40)).astype(np.int64)
    assert np.array_equal(full_band_table(a, b), reference_table(a, b))


@pytest.mark.parametrize("seed", range(30))
def test_ops_reconstruct_target(seed):
    rng = np.random.default_rng(seed + 500)
    a = rng.integers(0, 5, size=rng.integers(0, 50)).astype(np.int64)
    b = rng.integers(0, 5, size=rng.integers(0, 50)).astype(np.int64)
    ops = lcs_ops(a, b)
    assert apply_ops(ops, list(a), list(b)) == list(b)


@pytest.mark.parametrize("seed", range(30))
def test_ops_are_minimal(seed):
    rng = np.random.default_rng(seed + 900)
    a = rng.integers(0, 5, size=rng.integers(0, 40)).astype(np.int64)
    b = rng.integers(0, 5, size=rng.integers(0, 40)).astype(np.int64)
    ops = lcs_ops(a, b)
    matches = int(np.sum(ops == OP_MATCH))
    lcs_len = int(reference_table(a, b)[len(a), len(b)])
    assert matches == lcs_len
    assert int(np.sum(ops == OP_DELETE)) == len(a) - lcs_len
    assert int(np.sum(ops == OP_INSERT)) == len(b) - lcs_len


def test_empty_inputs():
    assert list(lcs_ops(np.array([], dtype=np.int64), np.array([], dtype=np.int64))) == []
    assert list(lcs_ops(np.array([1], dtype=np.int64), np.array([], dtype=np.int64))) == [OP_DELETE]
    assert list(lcs_ops(np.array([], dtype=np.int64), np.array([2], dtype=np.int64))) == [OP_INSERT]


@st.composite
def _alphabet_pairs(draw):
    size = draw(st.integers(2, 8))
    seq = st.lists(st.integers(0, size - 1), max_size=80)
    return draw(seq), draw(seq)


@st.composite
def _edited_copies(draw):
    """Two edited copies of one base, so they share a long prefix and suffix."""
    size = draw(st.integers(2, 8))
    base = draw(st.lists(st.integers(0, size - 1), min_size=20, max_size=80))

    def edited():
        out = list(base)
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(out)))
            cut = draw(st.integers(0, 3))
            added = draw(st.lists(st.integers(0, size - 1), max_size=3))
            out[at : at + cut] = added
        return out

    return edited(), edited()


@settings(max_examples=300, deadline=None)
@given(pair=st.one_of(_alphabet_pairs(), _edited_copies()))
def test_ops_equal_documented_backtrack(pair):
    a, b = pair
    ops = lcs_ops(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    assert ops.tolist() == reference_ops(a, b)


def codes_ranking_every_line(old_lines, new_lines):
    """Reference: every rstripped line's lexicographic rank over both files."""
    stripped_old = [line.rstrip() for line in old_lines]
    stripped_new = [line.rstrip() for line in new_lines]
    rank = {line: i for i, line in enumerate(sorted(set(stripped_old) | set(stripped_new)))}
    return (
        np.array([rank[line] for line in stripped_old], dtype=np.int64),
        np.array([rank[line] for line in stripped_new], dtype=np.int64),
    )


_LINES = st.sampled_from(["", "alpha", "alpha  ", "Alpha", "beta", "gamma\t", "gamma", " delta"])


@st.composite
def _edited_line_pairs(draw):
    """Two edited copies of one page of lines, so the kept prefix and suffix
    hold lines that the edits also insert."""
    base = draw(st.lists(_LINES, max_size=60))

    def edited():
        out = list(base)
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(out)))
            out[at : at + draw(st.integers(0, 3))] = draw(st.lists(_LINES, max_size=3))
        return out

    return edited(), edited()


@settings(max_examples=300, deadline=None)
@given(pair=st.one_of(st.tuples(*[st.lists(_LINES, max_size=40)] * 2), _edited_line_pairs()))
def test_stripped_lines_give_the_ops_of_their_ranks(pair):
    old, new = pair
    stripped = [line.rstrip() for line in old], [line.rstrip() for line in new]
    assert lcs_ops(*stripped).tolist() == lcs_ops(*codes_ranking_every_line(old, new)).tolist()


def test_prefix_walk_keeps_tie_break():
    # the common prefix x is not simply matched first: the full-table
    # backtrack matches the last x of a against it instead
    x, y, c = 5, 9, 1
    assert lcs_ops(np.array([x, y, x]), np.array([x, c])).tolist() == [
        OP_DELETE,
        OP_DELETE,
        OP_MATCH,
        OP_INSERT,
    ]
    assert reference_ops([x, y, x], [x, c]) == [OP_DELETE, OP_DELETE, OP_MATCH, OP_INSERT]


def _edited_pair(lines, edits, seed):
    rng = np.random.default_rng(seed)
    old = [f"line {i} of a long reference page" for i in range(lines)]
    new = list(old)
    for e in range(edits):
        at = int(rng.integers(0, len(new)))
        kind = e % 3
        if kind == 0:
            new[at] = f"rewritten line {e}"
        elif kind == 1:
            new.insert(at, f"inserted line {e}")
        else:
            del new[at]
    return "\n".join(old), "\n".join(new)


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def test_few_edits_diff_in_small_memory():
    old, new = _edited_pair(8000, 5, seed=1)
    hunks, peak = _peak_mb(line_diff, old, new)
    assert 1 <= len(hunks) <= 5
    assert peak < 10.0, f"peak {peak:.1f} MB"


def test_long_pair_diffs_in_bounded_memory():
    # a full (n+1) x (m+1) int32 table would take about 3.4 GiB here
    old, new = _edited_pair(30000, 20, seed=2)
    hunks, peak = _peak_mb(line_diff, old, new)
    assert 1 <= len(hunks) <= 20
    assert peak < 50.0, f"peak {peak:.1f} MB"


def test_few_edits_never_fill_the_band(monkeypatch):
    filled = []

    def spy(*args):
        filled.append(args)
        return _band_table(*args)

    monkeypatch.setattr(verdoc.changes, "_band_table", spy)
    old, new = _edited_pair(6000, 10, seed=3)
    hunks = line_diff(old, new)
    assert apply_hunks(old, hunks) == new
    assert filled == []

    rewritten = "\n".join(f"rewritten line {i}" for i in range(6000))
    assert apply_hunks(old, line_diff(old, rewritten)) == rewritten
    assert filled


@st.composite
def _long_edited_copies(draw):
    """A page of 300-2000 lines from a small vocabulary and an edited copy,
    so many lines repeat and the tie-break decides between optimal paths."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vocabulary = draw(st.integers(2, 50))
    old = [f"l{x}" for x in rng.integers(0, vocabulary, draw(st.integers(300, 2000)))]
    new = list(old)
    for _ in range(draw(st.integers(1, 12))):
        at = int(rng.integers(0, len(new) + 1))
        added = [f"l{x}" for x in rng.integers(0, vocabulary + 3, int(rng.integers(0, 4)))]
        new[at : at + int(rng.integers(0, 4))] = added
    return (old, new) if draw(st.booleans()) else (new, old)


def band_walk(a, b):
    """The band's walk over the whole pair, without trimming: the oracle for
    the greedy walk on inputs too large for ``reference_ops``."""
    codes = {}
    a_codes, b_codes = (np.array([codes.setdefault(x, len(codes)) for x in seq]) for seq in (a, b))
    rev = bytearray()
    i, j = _backtrack_band(a_codes, b_codes, a, b, rev, 0)
    return rev, i, j


@settings(max_examples=60, deadline=None)
@given(pair=_long_edited_copies())
def test_greedy_walk_equals_band_walk(pair):
    old, new = pair
    rounds, edits = _greedy_rounds(old, new, 0, _GREEDY_STEPS_PER_LINE)
    assert rounds is not None
    rev = bytearray()
    assert (rev, *_backtrack_greedy(rounds, old, new, rev)) == band_walk(old, new)
    assert rev.count(OP_DELETE) + rev.count(OP_INSERT) <= edits
    if len(old) <= 400:
        assert lcs_ops(old, new).tolist() == reference_ops(old, new)


# the band kernel alone peaked at 18.4 MB on these shapes (tracemalloc,
# Python 3.11); the bound leaves 9% above that for the greedy pass
WORST_CASE_PEAK_MB = 20.0


def _worst_case_pair(shape, lines=3000):
    old = [f"old line {i}" for i in range(lines)]
    unrelated = [f"new line {i}" for i in range(lines)]

    def blank_every_5th(page):
        return [line if i % 5 else "" for i, line in enumerate(page)]

    return {
        "unrelated": (old, unrelated),
        "unrelated-blank-every-5th": (blank_every_5th(old), blank_every_5th(unrelated)),
        "halves-swapped": (old, old[lines // 2 :] + old[: lines // 2]),
        "reversed": (old, old[::-1]),
    }[shape]


@pytest.mark.parametrize(
    "shape", ["unrelated", "unrelated-blank-every-5th", "halves-swapped", "reversed"]
)
def test_worst_cases_diff_in_bounded_memory(shape):
    old, new = ("\n".join(page) for page in _worst_case_pair(shape))
    hunks, peak = _peak_mb(line_diff, old, new)
    assert apply_hunks(old, hunks) == new
    assert peak < WORST_CASE_PEAK_MB, f"peak {peak:.1f} MB"
