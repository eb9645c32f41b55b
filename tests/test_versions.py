import re

import pytest
from hypothesis import example, given, settings, strategies as st

from verdoc import versions
from verdoc.versions import VersionLabel, compare_versions, parse_version


def oracle_compare(a: str, b: str) -> int:
    """Independent pad-and-compare oracle over enumerated segment lists."""
    def segs(raw):
        raw = re.sub(r"^[vV](?=\d)", "", raw.strip())
        parts = [p for p in re.split(r"[.\-_+]", raw) if p]
        return [int(p) if p.isdigit() else p for p in parts]

    sa, sb = segs(a), segs(b)
    width = max(len(sa), len(sb))
    sa += [0] * (width - len(sa))
    sb += [0] * (width - len(sb))
    for x, y in zip(sa, sb):
        if type(x) is type(y) and x == y:
            continue
        kx, ky = isinstance(x, str), isinstance(y, str)
        if kx != ky:
            return 1 if kx else -1  # numeric sorts before string
        return -1 if x < y else 1
    return 0


def test_major_version_ordering():
    assert compare_versions("2.4.7", "3.3.4") == -1


def test_numeric_not_lexicographic():
    assert compare_versions("5.3.2", "5.3.10") == -1


def test_missing_segments_compare_as_zero():
    # oracle computed first, frozen expectation second
    assert oracle_compare("1.2", "1.2.0") == 0
    assert compare_versions("1.2", "1.2.0") == 0


def test_raw_preserved_verbatim():
    label = parse_version("  5.3.0-rc1")
    assert label.raw == "  5.3.0-rc1"
    assert label.components == (5, 3, 0, "rc1")


def test_prerelease_sorts_after_numeric_base():
    assert compare_versions("5.3.0", "5.3.0-rc1") == -1
    assert compare_versions("5.3.0-rc1", "5.3.1") == -1


def test_unparseable_string_is_single_segment():
    label = parse_version("weekly snapshot")
    assert label.components == ("weekly snapshot",)
    assert compare_versions("weekly snapshot", "weekly snapshot") == 0


def test_leading_v_ignored():
    assert compare_versions("v2.4.7", "2.4.7") == 0


@pytest.mark.parametrize(
    "a,b",
    [("1.0", "1.0.0"), ("2.4.7", "10.0"), ("1..2", "1.2"), ("0", ""), ("3.5-rc", "3.5")],
)
def test_matches_pad_and_compare_oracle(a, b):
    assert compare_versions(a, b) == oracle_compare(a, b)
    assert compare_versions(b, a) == oracle_compare(b, a)


label_strategy = st.one_of(
    st.from_regex(r"\d{1,3}(\.\d{1,3}){0,4}", fullmatch=True),
    st.from_regex(r"\d{1,2}\.\d{1,2}\.\d{1,2}-[a-z]{1,4}\d{0,2}", fullmatch=True),
    st.text(alphabet="abc123.-", min_size=0, max_size=12),
)


@given(a=label_strategy, b=label_strategy)
def test_antisymmetric(a, b):
    ca, cb = compare_versions(a, b), compare_versions(b, a)
    assert ca == -cb


@given(a=label_strategy, b=label_strategy, c=label_strategy)
def test_transitive(a, b, c):
    labels = sorted([parse_version(a), parse_version(b), parse_version(c)])
    assert compare_versions(labels[0], labels[1]) <= 0
    assert compare_versions(labels[1], labels[2]) <= 0
    assert compare_versions(labels[0], labels[2]) <= 0


@given(a=label_strategy, b=label_strategy)
def test_total(a, b):
    assert compare_versions(a, b) in (-1, 0, 1)


@given(a=label_strategy)
def test_reflexive_equal(a):
    assert compare_versions(a, a) == 0


def test_label_ordering_dunder():
    labels = [parse_version(v) for v in ["3.5.3", "2.4.7", "3.3.4"]]
    assert [l.raw for l in sorted(labels)] == ["2.4.7", "3.3.4", "3.5.3"]
    assert parse_version("1.2") == parse_version("1.2.0")
    assert hash(parse_version("1.2")) == hash(parse_version("1.2.0"))


def test_components_not_recomputed_when_given():
    label = VersionLabel(raw="1.2", components=(9,))
    assert label.components == (9,)


# plain dotted ASCII-digit labels, which take the fast path, and labels
# one step away from one, which do not
dotted_strategy = st.one_of(
    st.lists(st.integers(0, 10**20), min_size=1, max_size=6).map(lambda p: ".".join(map(str, p))),
    st.from_regex(r"0*[0-9]{1,4}(\.0*[0-9]{1,4}){0,5}", fullmatch=True),
    st.text(alphabet="0123456789.vV -_+\u0663\n", max_size=12),
)


@given(raw=dotted_strategy)
def test_dotted_fast_path_parses_as_the_general_path(raw):
    general = versions._general_segments(raw)
    label = parse_version(raw)
    assert versions._segments(raw) == label.components == general
    assert label.sort_key() == VersionLabel(raw="", components=general).sort_key()


def test_fast_path_takes_only_plain_dotted_ascii_digits():
    assert versions._DOTTED.fullmatch("22.14.0")
    for raw in ["v1.2", " 1.2", "1.2 ", "1..2", "1.2.", ".1", "1.\u0663", "1.2\n", "1-2", ""]:
        assert not versions._DOTTED.fullmatch(raw), raw
        assert versions._segments(raw) == versions._general_segments(raw)


NINES = "9" * 5000  # past Python's default limit of 4,300 digits for int("...")


def segments_before(raw):
    """The segments ``raw`` had when every ``isdigit`` run went to ``int``,
    or None where ``int`` refused one and parsing raised."""
    parts = [p for p in re.split(r"[.\-_+]", re.sub(r"^[vV](?=\d)", "", raw.strip())) if p]
    try:
        return tuple(int(p) if p.isdigit() else p for p in parts)
    except ValueError:
        return None


@settings(deadline=None)
@given(a=st.text(), b=st.text())
@example(a="1.\u00b2", b="1.2")
@example(a="1." + NINES, b=NINES)
@example(a="v" + NINES + "-rc1", b="1.\u0663\u00b2")
def test_every_string_parses_and_compares(a, b):
    """Every string is a label; one that parsed before keeps its components,
    and in one that did not, each run that ``int`` refuses is a string."""
    for raw in (a, b):
        components = parse_version(raw).components
        before = segments_before(raw)
        if before is not None:
            assert components == before
        else:
            assert any(isinstance(s, str) and s.isdigit() for s in components)
    assert compare_versions(a, b) == -compare_versions(b, a)
    assert compare_versions(a, a) == 0


def test_runs_that_int_refuses_are_string_segments():
    assert parse_version("1.\u00b2").components == (1, "\u00b2")
    assert parse_version("1." + NINES).components == (1, NINES)
    assert parse_version(NINES).components == (NINES,)
    # a string segment sorts after every number at its position
    assert compare_versions("1." + NINES, "1.9") == 1
