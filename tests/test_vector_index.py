import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from verdoc.errors import CorruptFileError, DimensionMismatchError, VersionMismatchError
from verdoc.vector_index import IndexEntry, MetadataFilter, VectorIndex, cosine, vectors_path
from verdoc.versions import parse_version


def entry(key, vector, metadata=None, text=""):
    return IndexEntry(key=key, vector=np.asarray(vector, dtype=np.float64), metadata=metadata or {}, text=text)


def brute_force(index_entries, query, k, metadata_filter):
    """Independent oracle: python loop, per-entry cosine, same tie rule."""
    scored = []
    for e in index_entries:
        if metadata_filter is not None and not metadata_filter.matches(e.metadata):
            continue
        scored.append((cosine(e.vector, query), e.key))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [key for _, key in scored[:k]]


def quantized(rng, shape):
    """Vectors on a 1/64 grid: dot products are exact in float64, so score
    ordering does not depend on summation order."""
    return np.round(rng.uniform(-1.0, 1.0, size=shape) * 64.0) / 64.0


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.3, -0.2, 0.9])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_unit_vectors(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_computed_value(self):
        # oracle by hand: dot = 1/sqrt(2), norms 1 and 1 -> 0.70710678
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert cosine(a, b) == pytest.approx(0.7071, abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine(np.array([1.0]), np.array([1.0, 2.0]))


class TestInsert:
    def test_insert_then_get(self):
        index = VectorIndex(dimension=3)
        index.insert(entry("k1", [1, 2, 3], {"version": "1.0"}, "hello"))
        got = index.get("k1")
        assert got.key == "k1"
        assert got.text == "hello"
        assert got.metadata == {"version": "1.0"}
        assert np.array_equal(got.vector, np.array([1.0, 2.0, 3.0]))

    def test_upsert_keeps_size(self):
        index = VectorIndex(dimension=2)
        index.insert(entry("k", [1, 0]))
        index.insert(entry("k", [0, 1], {"v": "2"}))
        assert len(index) == 1
        assert np.array_equal(index.get("k").vector, np.array([0.0, 1.0]))

    def test_dimension_mismatch(self):
        index = VectorIndex(dimension=2)
        with pytest.raises(DimensionMismatchError):
            index.insert(entry("k", [1, 2, 3]))

    def test_contains(self):
        index = VectorIndex(dimension=1)
        index.insert(entry("k", [1]))
        assert "k" in index and "other" not in index

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 1e39, -1e39], ids=["nan", "inf", "-inf", "1e39", "-1e39"]
    )
    def test_vector_that_float32_cannot_score_is_refused(self, tmp_path, bad):
        """A component that is nan, infinite or beyond float32's range is
        refused before anything is stored; float32's largest finite
        magnitude is stored as it is."""
        largest = float(np.finfo(np.float32).max)
        index = VectorIndex(dimension=2)
        with np.errstate(over="ignore"):  # its float32 norm overflows
            index.insert(entry("k", [largest, -largest], {"shard": "a"}, text="kept"))
        with pytest.raises(ValueError, match="'k'"):
            index.insert(entry("k", [1.0, bad], {"shard": "b"}, text="new"))
        with pytest.raises(ValueError, match="'other'"):
            index.insert(entry("other", [bad, 0.0]))
        assert index.keys() == ["k"] and "other" not in index
        kept = index.get("k")
        assert kept.vector.tolist() == [largest, -largest]
        assert (kept.metadata, kept.text) == ({"shard": "a"}, "kept")


class TestSearch:
    def test_stored_vector_scores_one(self):
        index = VectorIndex(dimension=3)
        rng = np.random.default_rng(0)
        for i in range(20):
            index.insert(entry(f"k{i:02d}", rng.normal(size=3)))
        target = index.get("k07").vector
        hits = index.search(target, k=1)
        assert hits[0].key == "k07"
        assert hits[0].score == pytest.approx(1.0, abs=1e-9)

    def test_version_filter_contract(self):
        index = VectorIndex(dimension=2)
        index.insert(entry("a", [1, 0], {"version": "20.19.0"}))
        index.insert(entry("b", [1, 0.01], {"version": "21.0.0"}))
        index.insert(entry("c", [0.9, 0], {"version": "20.19.0"}))
        hits = index.search(
            np.array([1.0, 0.0]), k=5, metadata_filter=MetadataFilter({"version": "20.19.0"})
        )
        assert hits and all(h.entry.metadata["version"] == "20.19.0" for h in hits)

    def test_version_in_filter_uses_comparator(self):
        index = VectorIndex(dimension=2)
        index.insert(entry("a", [1, 0], {"version": "1.2.0"}))
        index.insert(entry("b", [1, 0], {"version": "1.3"}))
        hits = index.search(
            np.array([1.0, 0.0]), k=5, metadata_filter=MetadataFilter(version_in={"1.2"})
        )
        assert [h.key for h in hits] == ["a"]

    def test_valid_at_filter_keeps_the_runs_that_hold_the_version(self):
        index = VectorIndex(dimension=2)
        runs = {"a": ("1.0", "1.2"), "b": ("1.2.0", "2.0"), "c": ("2.1", "3"), "d": (None, "9")}
        for key, (first, last) in runs.items():
            metadata = {"last": last} if first is None else {"first": first, "last": last}
            index.insert(entry(key, [1, 0], metadata))
        for at, expected in (("1.2", ["a", "b"]), ("v2", ["b"]), ("2.0.1", []), ("3.0", ["c"])):
            flt = MetadataFilter(valid_at=at)
            assert [h.key for h in index.search(np.array([1.0, 0.0]), 5, flt)] == expected, at
            assert index.keys(flt) == expected

    def test_empty_filter_matches_everything(self):
        assert MetadataFilter().matches({"anything": "x"})

    def test_thousand_random_entries_match_oracle(self):
        rng = np.random.default_rng(11)
        index = VectorIndex(dimension=16)
        entries = []
        for i in range(1000):
            e = entry(
                f"key{i:04d}",
                quantized(rng, 16),
                {"shard": str(rng.integers(0, 4))},
            )
            entries.append(e)
            index.insert(e)
        for _ in range(20):
            query = quantized(rng, 16)
            flt = MetadataFilter({"shard": str(rng.integers(0, 4))}) if rng.random() < 0.5 else None
            hits = index.search(query, k=5, metadata_filter=flt)
            assert [h.key for h in hits] == brute_force(entries, query, 5, flt)

    def test_ties_broken_by_ascending_key(self):
        index = VectorIndex(dimension=2)
        for key in ["zz", "aa", "mm"]:
            index.insert(entry(key, [1, 0]))
        hits = index.search(np.array([1.0, 0.0]), k=3)
        assert [h.key for h in hits] == ["aa", "mm", "zz"]

    def test_fewer_than_k_returned(self):
        index = VectorIndex(dimension=2)
        index.insert(entry("only", [1, 1]))
        assert len(index.search(np.array([1.0, 0.0]), k=5)) == 1

    def test_no_match_returns_empty(self):
        index = VectorIndex(dimension=2)
        index.insert(entry("a", [1, 0], {"origin": "content"}))
        hits = index.search(
            np.array([1.0, 0.0]), k=5, metadata_filter=MetadataFilter({"origin": "change"})
        )
        assert hits == []

    def test_empty_index_returns_empty(self):
        assert VectorIndex(dimension=2).search(np.array([1.0, 0.0]), k=3) == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            VectorIndex(dimension=2).search(np.array([1.0, 0.0]), k=0)

    def test_scores_descending(self):
        rng = np.random.default_rng(5)
        index = VectorIndex(dimension=8)
        for i in range(200):
            index.insert(entry(f"k{i}", rng.normal(size=8)))
        hits = index.search(rng.normal(size=8), k=10)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert all(-1.0 - 1e-9 <= s <= 1.0 + 1e-9 for s in scores)

    def test_filter_soundness_and_completeness(self):
        rng = np.random.default_rng(23)
        index = VectorIndex(dimension=8)
        entries = []
        for i in range(300):
            e = entry(
                f"k{i:03d}",
                quantized(rng, 8),
                {"origin": ["content", "explicit", "implicit"][int(rng.integers(0, 3))]},
            )
            entries.append(e)
            index.insert(e)
        flt = MetadataFilter({"origin": "explicit"})
        query = quantized(rng, 8)
        hits = index.search(query, k=10, metadata_filter=flt)
        # soundness: every hit satisfies the filter
        assert all(h.entry.metadata["origin"] == "explicit" for h in hits)
        # completeness: no matching entry scores above the worst returned hit
        worst = hits[-1].score
        for e in entries:
            if e.metadata["origin"] == "explicit" and e.key not in {h.key for h in hits}:
                assert cosine(e.vector, query) <= worst + 1e-12


LABELS = ["1.0", "1.2.0", "1.10", "2.0-rc1", "2.0"]
FILTERS = {
    "none": None,
    "equality": MetadataFilter({"shard": "1"}),
    "version_in": MetadataFilter(version_in={"1.2", "2.0"}),
    "both": MetadataFilter({"shard": "0"}, version_in={"1.0", "1.10"}),
}


def random_entries(rng, rows, dimension, zero_share=0.1):
    """Normal vectors, about ``zero_share`` of them all-zero, with a shard
    and a version label each."""
    matrix = rng.normal(size=(rows, dimension))
    matrix[rng.random(rows) < zero_share] = 0.0
    return [
        entry(
            f"k{i:03d}",
            vector,
            {
                "shard": str(int(rng.integers(0, 3))),
                "version": LABELS[int(rng.integers(0, len(LABELS)))],
            },
        )
        for i, vector in enumerate(matrix)
    ]


def search_all(entries, query, metadata_filter=None):
    index = VectorIndex(dimension=len(query))
    for e in reversed(entries):  # row order opposite to key order
        index.insert(e)
    return index.search(query, k=len(entries), metadata_filter=metadata_filter)


def stored_cosine(vector, query):
    """Independent oracle of a search score: the float32 dot of the row and
    query rounded to float32, over the roots of their float32 self-dots."""
    row, query = np.asarray(vector, dtype=np.float32), np.asarray(query, dtype=np.float32)
    denom = math.sqrt(float(np.dot(row, row))) * math.sqrt(float(np.dot(query, query)))
    return float(np.dot(row, query)) / denom if denom > 0.0 else 0.0


@pytest.mark.parametrize("seed", range(30))
def test_search_scores_match_cosine(seed):
    rng = np.random.default_rng(seed + 100)
    entries = random_entries(rng, int(rng.integers(1, 80)), int(rng.integers(1, 40)))
    query = rng.normal(size=entries[0].vector.size)
    flt = list(FILTERS.values())[seed % len(FILTERS)]
    vectors = {e.key: e.vector for e in entries}
    for hit in search_all(entries, query, flt):
        assert hit.entry.vector.tobytes() == vectors[hit.key].astype(np.float32).tobytes()
        assert repr(hit.score) == repr(stored_cosine(hit.entry.vector, query))
        assert abs(hit.score - cosine(vectors[hit.key], query)) <= 1e-5
        if not vectors[hit.key].any():
            assert hit.score == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_search_returns_only_filtered_rows(seed):
    rng = np.random.default_rng(seed)
    entries = random_entries(rng, 50, 16, zero_share=0.0)
    query = rng.normal(size=16)
    for name, flt in FILTERS.items():
        hits = search_all(entries, query, flt)
        wanted = {e.key for e in entries if flt is None or flt.matches(e.metadata)}
        assert {h.key for h in hits} == wanted, name
        assert all(abs(h.score) <= 1.0 for h in hits), name


@pytest.mark.parametrize("zero", ["row", "query", "rows-across-top-k"])
@pytest.mark.parametrize("flt", FILTERS)
def test_zero_norm_scores_zero_with_ties_by_key(zero, flt):
    rng = np.random.default_rng(4)
    entries = random_entries(rng, 40, 6, zero_share=0.0)
    query = np.zeros(6) if zero == "query" else rng.normal(size=6)
    if zero != "query":
        for e in entries[::3]:
            e.vector[:] = 0.0
    if zero == "rows-across-top-k":
        # the zero rows tie at 0.0 across the k-th place, the rows go in in
        # descending key order, and a zero row of the smallest key is
        # inserted between the two searches: each time the smallest tied key
        # takes the one tied place
        flt = FILTERS[flt]
        matching = [e for e in entries if flt is None or flt.matches(e.metadata)]
        k = sum(cosine(e.vector, query) > 0.0 for e in matching) + 1
        assert sum(not e.vector.any() for e in matching) > 1
        index = VectorIndex(dimension=6)
        for e in reversed(entries):
            index.insert(e)
        first = [h.key for h in index.search(query, k=k, metadata_filter=flt)]
        assert first == brute_force(entries, query, k, flt)
        entries.append(entry("k00", np.zeros(6), matching[-1].metadata))
        index.insert(entries[-1])
        second = [h.key for h in index.search(query, k=k, metadata_filter=flt)]
        assert second == brute_force(entries, query, k, flt)
        assert second == first[:-1] + ["k00"]
        return
    hits = search_all(entries, query, FILTERS[flt])
    tied = hits if zero == "query" else [h for h in hits if not h.entry.vector.any()]
    assert tied and all(h.score == 0.0 for h in tied)
    for prev, nxt in zip(hits, hits[1:]):
        assert prev.score > nxt.score or (prev.score == nxt.score and prev.key < nxt.key)


def test_version_whitelist_parsed_once_per_search(monkeypatch):
    import verdoc.vector_index as vector_index

    calls = []

    def counting_parse(raw):
        calls.append(raw)
        return parse_version(raw)

    rng = np.random.default_rng(8)
    entries = random_entries(rng, 200, 4)
    flt = MetadataFilter(version_in={"1.0", "1.10", "2.0-rc1"})
    index = VectorIndex(dimension=4)
    for e in entries:
        index.insert(e)
    monkeypatch.setattr(vector_index, "parse_version", counting_parse)
    hits = index.search(rng.normal(size=4), k=5, metadata_filter=flt)
    assert hits
    assert len(calls) <= len(entries) + len(flt.version_in)


# filter values that compare equal across types (1, 1.0, True), never equal
# themselves (nan), or that no row holds ("absent"), alone or as an any-of
# set; rows may also hold an unhashable value, which no set holds
NAN = float("nan")
FIELD_VALUES = st.sampled_from([None, 1, 1.0, True, "1", 0, False, "", "a", NAN])
SCALAR_FILTER_VALUES = st.one_of(FIELD_VALUES, st.just("absent"))
FILTER_VALUES = st.one_of(SCALAR_FILTER_VALUES, st.sets(SCALAR_FILTER_VALUES, max_size=3))
VERSION_LABELS = ["1.2", "1.2.0", "v2", "2", "2.0", "2.0-rc1", "1.10"]
ROW_METADATA = st.fixed_dictionaries(
    {},
    optional={
        "shard": st.one_of(FIELD_VALUES, st.just(["1"])),
        "version": st.sampled_from([*VERSION_LABELS, None]),
        "first": st.sampled_from([*VERSION_LABELS, None]),
        "last": st.sampled_from([*VERSION_LABELS, None]),
    },
)
FILTER = st.builds(
    MetadataFilter,
    st.dictionaries(st.sampled_from(["shard", "version"]), FILTER_VALUES, max_size=2),
    st.none() | st.sets(st.sampled_from([*VERSION_LABELS, "9.9"]), max_size=3),
    st.none() | st.sampled_from([*VERSION_LABELS, "9.9"]),
)
GRID_VECTOR = st.lists(st.integers(-2, 2), min_size=3, max_size=3).map(
    lambda v: np.asarray(v, dtype=np.float64) / 4.0  # exact dot products; some rows all zero
)
STEP = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 11), ROW_METADATA, GRID_VECTOR),
    st.tuples(st.just("search"), FILTER, GRID_VECTOR),
)


def rows_then_search(values, flt):
    """Steps that insert one row per shard value and then search with ``flt``."""
    vector = np.ones(3)
    inserts = [("insert", n, {"shard": v}, vector) for n, v in enumerate(values)]
    return [*inserts, ("search", flt, vector)]


@settings(max_examples=400, deadline=None)
@given(st.lists(STEP, min_size=1, max_size=25))
@example(rows_then_search([NAN, 1.0], MetadataFilter({"shard": NAN})))
@example(rows_then_search([1, 1.0, True, "1", None], MetadataFilter({"shard": True})))
@example(rows_then_search([1, "1", None], MetadataFilter({"shard": None})))
@example(rows_then_search([NAN, 1.0, ["1"]], MetadataFilter({"shard": {NAN, 1}})))
@example(rows_then_search([1, 1.0, True, "1", None, ["1"]], MetadataFilter({"shard": {True, "1"}})))
def test_column_filter_returns_rows_matches_passes(steps):
    """Interleaved upserts and searches: each search with k = len(index)
    returns exactly the rows ``MetadataFilter.matches`` passes, by descending
    cosine and then key, and ``keys`` lists them in insertion order; each
    upsert keeps the columns current for the searches after it."""
    index = VectorIndex(dimension=3)
    rows = {}
    for step in steps:
        if step[0] == "insert":
            _, n, metadata, vector = step
            rows[f"k{n:02d}"] = entry(f"k{n:02d}", vector, metadata)
            index.insert(rows[f"k{n:02d}"])
            continue
        _, flt, query = step
        if not rows:
            assert index.search(query, k=1, metadata_filter=flt) == []
            continue
        hits = index.search(query, k=len(index), metadata_filter=flt)
        expected = sorted(
            (-cosine(e.vector, query), key) for key, e in rows.items() if flt.matches(e.metadata)
        )
        assert [(-h.score, h.key) for h in hits] == expected
        assert index.keys(flt) == [key for key, e in rows.items() if flt.matches(e.metadata)]


# JSON reads every NaN as one float object. A set tests membership by
# identity first, so rows and filters hold that object: a row's nan then
# matches a set holding nan both before a save and after a load.
JSON_NAN = json.loads("NaN")
EDIT = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 11), ROW_METADATA, GRID_VECTOR),
    st.tuples(st.just("drop"), st.sets(st.integers(0, 11), max_size=3)),
)


def as_read(value):
    """``value``, and each value of a set or dict, with nan as ``JSON_NAN``."""
    if isinstance(value, (set, frozenset)):
        return {as_read(v) for v in value}
    if isinstance(value, dict):
        return {k: as_read(v) for k, v in value.items()}
    return JSON_NAN if isinstance(value, float) and math.isnan(value) else value


def typed(value):
    """``value`` with each scalar tagged by its type, so that 1, 1.0 and True
    differ, and with nan equal to nan."""
    if isinstance(value, list):
        return ("list", [typed(v) for v in value])
    if isinstance(value, dict):
        return ("dict", {k: typed(v) for k, v in value.items()})
    if isinstance(value, float) and math.isnan(value):
        return ("nan",)
    return (type(value).__name__, value)


def apply_edits(index, edits):
    for edit in edits:
        if edit[0] == "insert":
            _, n, metadata, vector = edit
            index.insert(entry(f"k{n:02d}", vector, as_read(metadata), text=f"t{n}"))
        else:
            index.drop([f"k{n:02d}" for n in edit[1]])


def snapshot(index, filters):
    """What an index answers: each entry, typed, and each filter's search
    hits and keys, the keys sorted (``keys`` lists insertion order)."""
    entries = {
        key: (typed(got.metadata), got.text, got.vector.tobytes())
        for key, got in ((key, index.get(key)) for key in index.keys())
    }
    query = np.array([1.0, 0.5, -0.25])
    searches = [
        (
            [(h.key, repr(h.score)) for h in index.search(query, k=max(1, len(index)), metadata_filter=flt)],
            sorted(index.keys(flt)),
        )
        for flt in filters
    ]
    return entries, searches


@settings(max_examples=200, deadline=None)
@given(
    st.lists(EDIT, max_size=25),
    st.lists(FILTER, min_size=1, max_size=4),
    st.lists(EDIT, max_size=10),
)
@example(
    [("insert", 0, {"shard": NAN}, np.ones(3)), ("insert", 1, {"shard": None}, np.ones(3))],
    [MetadataFilter({"shard": {NAN}}), MetadataFilter({"shard": None})],
    [("insert", 2, {"shard": NAN}, np.ones(3))],
)
@example(
    [("insert", n, {"shard": v}, np.ones(3)) for n, v in enumerate([1, 1.0, True, ["1"], ["1"]])]
    + [("insert", 5, {}, np.ones(3)), ("drop", {1})],
    [MetadataFilter({"shard": True}), MetadataFilter({"shard": 1.0})],
    [("insert", 6, {"shard": ["1"]}, np.ones(3)), ("insert", 1, {"shard": 1.0}, np.ones(3))],
)
def test_save_and_load_keep_every_entry_and_filter(before, filters, after):
    """After ``save`` and ``load``, every ``get`` equals the entry as it was
    (an absent field against a null one, 1 against 1.0 and True, lists and
    nan included), every filter returns the same keys in the same order,
    and further inserts and drops leave an index that answers, and saves,
    as one that was never saved."""
    filters = [MetadataFilter(as_read(f.equality), f.version_in, f.valid_at) for f in filters]
    index = VectorIndex(dimension=3)
    apply_edits(index, before)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "vectors.json"
        index.save(path)
        loaded = VectorIndex.load(path)
        assert snapshot(loaded, filters) == snapshot(index, filters)
        apply_edits(loaded, after)
        never_saved = VectorIndex(dimension=3)
        apply_edits(never_saved, before + after)
        assert snapshot(loaded, filters) == snapshot(never_saved, filters)
        saved = {}
        for name, edited in (("loaded", loaded), ("never-saved", never_saved)):
            edited.save(Path(scratch) / f"{name}.json")
            saved[name] = [(Path(scratch) / f"{name}{suffix}").read_bytes() for suffix in (".json", ".npy")]
        assert saved["loaded"] == saved["never-saved"]


def test_upserts_of_changing_values_answer_and_save_as_the_last_upsert(tmp_path):
    """After 1000 upserts of one key, each with a new ``n`` and a new
    unhashable ``tags`` list, the index answers and saves as one that
    received only the last upsert."""
    others = [entry(f"o{j}", [1.0, -j], {"tags": ["b"], "n": -j}) for j in range(10)]
    index, last = VectorIndex(dimension=2), VectorIndex(dimension=2)
    for other in others:
        index.insert(other)
        last.insert(other)
    for i in range(1000):
        index.insert(entry("k", [1.0, 1.0], {"tags": ["a"], "n": i}))
    last.insert(entry("k", [1.0, 1.0], {"tags": ["a"], "n": 999}))

    def answers(idx, name):
        filters = [
            MetadataFilter({"n": 999}),
            MetadataFilter({"n": 5}),
            MetadataFilter({"n": {-3, 999}}),
            MetadataFilter({"tags": ["a"]}),
            MetadataFilter({"tags": ["b"]}),
        ]
        hits = [[(h.key, h.score, h.entry.metadata) for h in idx.search([1.0, 0.5], k=20, metadata_filter=f)] for f in filters]
        idx.save(tmp_path / f"{name}.json")
        saved = [(tmp_path / f"{name}{suffix}").read_bytes() for suffix in (".json", ".npy")]
        return [idx.get(key).metadata for key in sorted(idx.keys())], hits, saved

    assert answers(index, "upserted") == answers(last, "last")


@pytest.mark.parametrize("source", ["inserted", "loaded"])
def test_writes_into_handed_out_vectors_change_no_row(tmp_path, source):
    """After an insert, writing into the caller's array, a ``get`` vector or a
    hit's vector changes no stored row: searches, ``get`` and the saved bytes
    stay as they were."""
    caller = np.array([1.0, 0.0])
    index = VectorIndex(dimension=2)
    index.insert(IndexEntry(key="a", vector=caller, metadata={}, text="x"))
    index.insert(entry("b", [0.5, 0.5]))
    if source == "loaded":
        index.save(tmp_path / "first.json")
        index = VectorIndex.load(tmp_path / "first.json")
    query = np.array([1.0, 0.0])

    def observed(name):
        index.save(tmp_path / f"{name}.json")
        return (
            [(h.key, h.score, h.entry.vector.tobytes()) for h in index.search(query, k=2)],
            index.get("a").vector.tobytes(),
            (tmp_path / f"{name}.json").read_bytes(),
            (tmp_path / f"{name}.npy").read_bytes(),
        )

    before = observed("before")
    assert before[0][0][:2] == ("a", 1.0)
    caller[:] = [0.0, 1.0]
    index.get("a").vector[:] = [0.0, 1.0]
    for hit in index.search(query, k=2):
        hit.entry.vector[:] = [0.0, 1.0]
    assert observed("after") == before


def test_drop_deletes_rows_and_the_caches_built_over_them(tmp_path):
    index = VectorIndex(dimension=2)
    for key, vector, origin in [
        ("c", [1.0, 0.0], "content"),
        ("a", [0.9, 0.1], "implicit"),
        ("b", [0.0, 1.0], "content"),
        ("d", [0.8, 0.2], "content"),
    ]:
        index.insert(entry(key, vector, {"origin": origin}, text=key))
    content = MetadataFilter({"origin": "content"})
    assert [h.key for h in index.search(np.array([1.0, 0.0]), k=4, metadata_filter=content)] == [
        "c",
        "d",
        "b",
    ]
    index.drop(["c", "a", "missing"])
    assert index.keys() == ["b", "d"] and "c" not in index and index.get("a") is None
    hits = index.search(np.array([1.0, 0.0]), k=4, metadata_filter=content)
    assert [(h.key, h.entry.text) for h in hits] == [("d", "d"), ("b", "b")]
    index.insert(entry("e", [1.0, 0.0], {"origin": "content"}, text="e"))
    assert [h.key for h in index.search(np.array([1.0, 0.0]), k=1)] == ["e"]
    index.save(tmp_path / "dropped.json")
    fresh = VectorIndex(dimension=2)
    for key, vector in [("b", [0.0, 1.0]), ("d", [0.8, 0.2]), ("e", [1.0, 0.0])]:
        fresh.insert(entry(key, vector, {"origin": "content"}, text=key))
    fresh.save(tmp_path / "fresh.json")
    for suffix in (".json", ".npy"):
        dropped = (tmp_path / "dropped").with_suffix(suffix).read_bytes()
        assert dropped == (tmp_path / "fresh").with_suffix(suffix).read_bytes()


class TestPersistence:
    def build(self):
        rng = np.random.default_rng(9)
        index = VectorIndex(dimension=8)
        for i in range(50):
            index.insert(
                entry(
                    f"k{i:02d}",
                    quantized(rng, 8),
                    {"version": f"{i % 3}.0", "origin": "content"},
                    text=f"text {i}",
                )
            )
        return index

    def test_round_trip_preserves_search_results(self, tmp_path):
        index = self.build()
        path = tmp_path / "vectors.json"
        index.save(path)
        loaded = VectorIndex.load(path)
        assert len(loaded) == len(index)
        rng = np.random.default_rng(77)
        for _ in range(5):
            query = rng.normal(size=8)
            before = [(h.key, h.score) for h in index.search(query, k=7)]
            after = [(h.key, h.score) for h in loaded.search(query, k=7)]
            assert before == after

    def test_round_trip_matches_brute_force_bit_for_bit(self, tmp_path):
        index = self.build()
        entries = [index.get(key) for key in index.keys()]
        path = tmp_path / "vectors.json"
        index.save(path)
        loaded = VectorIndex.load(path)
        assert [loaded.get(e.key).vector.tobytes() for e in entries] == [
            e.vector.tobytes() for e in entries
        ]
        rng = np.random.default_rng(78)
        flt = MetadataFilter(equality={"version": "1.0"})
        for metadata_filter in (None, flt):
            query = quantized(rng, 8)
            hits = loaded.search(query, k=len(entries), metadata_filter=metadata_filter)
            expected = sorted(
                (-cosine(e.vector, query), e.key)
                for e in entries
                if metadata_filter is None or metadata_filter.matches(e.metadata)
            )
            assert [(-h.score, h.key) for h in hits] == expected

    def test_loaded_index_takes_upserts(self, tmp_path):
        path = tmp_path / "vectors.json"
        self.build().save(path)
        loaded = VectorIndex.load(path)
        loaded.insert(entry("k00", np.ones(8), {"version": "9.0"}, text="new"))
        loaded.insert(entry("k99", -np.ones(8), {}, text="appended"))
        assert loaded.get("k00").text == "new"
        assert [h.key for h in loaded.search(np.ones(8), k=1)] == ["k00"]
        assert [h.key for h in loaded.search(-np.ones(8), k=1)] == ["k99"]

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.build().save(a)
        self.build().save(b)
        assert a.read_bytes() == b.read_bytes()
        assert vectors_path(a).read_bytes() == vectors_path(b).read_bytes()

    def test_file_layout(self, tmp_path):
        index = self.build()
        path = tmp_path / "vectors.json"
        index.save(path)
        sidecar = json.loads(path.read_text())
        raw = (tmp_path / "vectors.npy").read_bytes()
        assert set(sidecar) == {"format_version", "dimension", "vectors_sha256", "keys", "texts", "metadata"}
        assert sidecar["format_version"] == 6
        assert sidecar["dimension"] == 8
        assert sidecar["vectors_sha256"] == hashlib.sha256(raw).hexdigest()
        keys = sidecar["keys"]
        assert keys == sorted(index.keys())
        assert sidecar["texts"] == [index.get(k).text for k in keys]
        # each field's values in the order the key-sorted rows first use them
        assert sidecar["metadata"] == {
            "origin": {"values": ["content"], "codes": [0] * 50},
            "version": {"values": ["0.0", "1.0", "2.0"], "codes": [i % 3 for i in range(50)]},
        }
        matrix = np.load(io.BytesIO(raw), allow_pickle=False)
        assert matrix.dtype == np.dtype("<f4") and matrix.flags.c_contiguous
        assert [row.tobytes() for row in matrix] == [index.get(k).vector.tobytes() for k in keys]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vectors.json", "vectors.npy"]

    def test_empty_index_round_trips(self, tmp_path):
        path = tmp_path / "vectors.json"
        VectorIndex(dimension=4).save(path)
        loaded = VectorIndex.load(path)
        assert len(loaded) == 0 and loaded.dimension == 4
        assert loaded.search(np.ones(4)) == []

    def test_missing_vectors_file_is_corrupt(self, tmp_path):
        path = tmp_path / "vectors.json"
        self.build().save(path)
        vectors_path(path).unlink()
        with pytest.raises(CorruptFileError):
            VectorIndex.load(path)

    @staticmethod
    def replace_vectors(path, raw, rehash):
        """Write ``raw`` as the index's .npy; with ``rehash`` the sidecar's
        sha256 is updated to match, so the checks after the hash run."""
        vectors_path(path).write_bytes(raw)
        if rehash:
            sidecar = json.loads(path.read_text())
            sidecar["vectors_sha256"] = hashlib.sha256(raw).hexdigest()
            path.write_text(json.dumps(sidecar))

    @staticmethod
    def npy_bytes(array, allow_pickle=False):
        buffer = io.BytesIO()
        np.save(buffer, array, allow_pickle=allow_pickle)
        return buffer.getvalue()

    @pytest.mark.parametrize(
        "tamper,rehash",
        [("flipped-byte", False)]
        + [
            (tamper, rehash)
            for tamper in ("truncated", "float64", "big-endian", "short", "wide", "object", "zip")
            for rehash in (False, True)
        ],
    )
    def test_damaged_vectors_file_is_corrupt(self, tmp_path, tamper, rehash):
        path = tmp_path / "vectors.json"
        self.build().save(path)
        raw = vectors_path(path).read_bytes()
        matrix = np.load(io.BytesIO(raw))
        damaged = {
            "truncated": lambda: raw[: len(raw) - 8],
            "flipped-byte": lambda: raw[:-1] + bytes([raw[-1] ^ 1]),
            "float64": lambda: self.npy_bytes(matrix.astype(np.float64)),
            "big-endian": lambda: self.npy_bytes(matrix.astype(">f4")),
            "short": lambda: self.npy_bytes(matrix[:-1]),
            "wide": lambda: self.npy_bytes(np.hstack([matrix, matrix])),
            "object": lambda: self.npy_bytes(matrix.astype(object), allow_pickle=True),
            "zip": lambda: zip_bytes(matrix),
        }[tamper]()
        self.replace_vectors(path, damaged, rehash)
        with pytest.raises(CorruptFileError):
            VectorIndex.load(path)

    @staticmethod
    def rewrite(path, change):
        """Apply ``change`` to the sidecar at ``path`` and write it back."""
        sidecar = json.loads(path.read_text())
        change(sidecar)
        path.write_text(json.dumps(sidecar))

    @pytest.mark.parametrize(
        "keys",
        [["b", "a"], ["a", "a"], [1, "b"], "nope", None],
        ids=["unsorted", "duplicate", "non-string", "not-a-list", "no-key"],
    )
    def test_malformed_entries_are_corrupt(self, tmp_path, keys):
        """Keys that are not a list of unique strings in ascending order, or
        no keys at all, are corrupt; so are keys and texts of two lengths."""
        path = tmp_path / "vectors.json"
        index = VectorIndex(dimension=2)
        for key in ("a", "b"):
            index.insert(entry(key, [1, 0]))
        index.save(path)
        if keys is None:
            self.rewrite(path, lambda sidecar: sidecar.pop("keys"))
        else:
            self.rewrite(path, lambda sidecar: sidecar.update(keys=keys))
        with pytest.raises(CorruptFileError):
            VectorIndex.load(path)
        self.rewrite(path, lambda sidecar: sidecar.update(keys=["a", "b"], texts=[""]))
        with pytest.raises(CorruptFileError, match="length"):
            VectorIndex.load(path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("metadata", [["document", "x"]]),
            ("metadata", []),
            ("metadata", "document"),
            ("metadata", None),
            ("text", None),
            ("text", 5),
            ("text", ["x"]),
            ("metadata-object", [["version", {}]]),
            ("texts", "text"),
        ],
        ids=[
            "pairs",
            "empty-list",
            "string",
            "null",
            "null-text",
            "number-text",
            "list-text",
            "metadata-pairs",
            "texts-not-a-list",
        ],
    )
    def test_non_object_metadata_or_non_string_text_is_corrupt(self, tmp_path, field, value):
        """A column that is not an object, metadata that is not an object of
        columns, a text that is not a string (the error names its key) and
        texts that are not a list are corrupt."""
        path = tmp_path / "vectors.json"
        self.build().save(path)

        def damage(sidecar):
            if field == "metadata":
                sidecar["metadata"]["version"] = value
            elif field == "text":
                sidecar["texts"][7] = value
            else:
                sidecar[field.removesuffix("-object")] = value

        self.rewrite(path, damage)
        with pytest.raises(CorruptFileError, match="k07" if field == "text" else None):
            VectorIndex.load(path)

    @pytest.mark.parametrize(
        "column",
        [
            {"values": ["0.0", "1.0", "2.0"], "codes": [3] + [0] * 49},
            {"values": ["0.0", "1.0", "2.0"], "codes": [-2] + [0] * 49},
            {"values": ["0.0"], "codes": [0] * 49},
            {"values": ["0.0"], "codes": [0] * 51},
            {"values": ["0.0"], "codes": [[0]] * 50},
            {"values": ["0.0"], "codes": [0.0] * 50},
            {"values": ["0.0"], "codes": ["0"] * 50},
            {"values": ["0.0"], "codes": [None] * 50},
            {"values": ["0.0"], "codes": "0" * 50},
            {"values": "0.0", "codes": [0] * 50},
            {"values": {"0": "0.0"}, "codes": [0] * 50},
            {"values": ["0.0"]},
            {"codes": [0] * 50},
        ],
        ids=[
            "code-past-the-values",
            "code-below-minus-one",
            "short-codes",
            "long-codes",
            "nested-codes",
            "float-codes",
            "string-codes",
            "null-codes",
            "codes-not-a-list",
            "values-a-string",
            "values-an-object",
            "no-codes",
            "no-values",
        ],
    )
    def test_malformed_column_is_corrupt(self, tmp_path, column):
        """A column needs a list of values and one integer code per row, each
        -1 or the position of a value."""
        path = tmp_path / "vectors.json"
        self.build().save(path)
        self.rewrite(path, lambda sidecar: sidecar["metadata"].update(version=column))
        with pytest.raises(CorruptFileError, match="version"):
            VectorIndex.load(path)

    def test_column_codes_of_minus_one_mark_rows_without_the_field(self, tmp_path):
        """Code -1 is a row without the field, which ``get`` leaves out and a
        filter reads as None."""
        path = tmp_path / "vectors.json"
        self.build().save(path)
        column = {"values": [None, "x"], "codes": [-1, 0, 1] * 16 + [-1, -1]}
        self.rewrite(path, lambda sidecar: sidecar["metadata"].update(extra=column))
        loaded = VectorIndex.load(path)
        assert "extra" not in loaded.get("k00").metadata
        assert loaded.get("k01").metadata["extra"] is None
        assert loaded.get("k02").metadata["extra"] == "x"
        assert loaded.keys(MetadataFilter({"extra": "x"})) == [f"k{i:02d}" for i in range(2, 48, 3)]
        none = [key for key in loaded.keys() if int(key[1:]) % 3 != 2]
        assert loaded.keys(MetadataFilter({"extra": None})) == none

    @pytest.mark.parametrize(
        "dimension", [2.9, 2.0, "2", 0, -2, True, None, [2]], ids=repr
    )
    def test_dimension_must_be_a_positive_integer(self, tmp_path, dimension):
        """``dimension`` must be a JSON integer of at least 1; a fraction, a
        string or a boolean is not read as one, and 0 is corrupt, not a
        dimension mismatch."""
        path = tmp_path / "vectors.json"
        index = VectorIndex(dimension=2)
        index.insert(entry("a", [1, 0]))
        index.save(path)
        self.rewrite(path, lambda sidecar: sidecar.update(dimension=dimension))
        with pytest.raises(CorruptFileError, match="dimension"):
            VectorIndex.load(path)

    def test_truncated_file_is_corrupt(self, tmp_path):
        index = self.build()
        path = tmp_path / "vectors.json"
        index.save(path)
        payload = path.read_text()
        path.write_text(payload[: len(payload) // 3])
        with pytest.raises(CorruptFileError):
            VectorIndex.load(path)

    def test_format_version_checked(self, tmp_path):
        path = tmp_path / "vectors.json"
        path.write_text('{"format_version": 7, "dimension": 2, "entries": []}')
        with pytest.raises(VersionMismatchError):
            VectorIndex.load(path)

    def test_loaded_index_takes_an_upsert_of_an_existing_key_in_place(self, tmp_path):
        path = tmp_path / "vectors.json"
        self.build().save(path)
        loaded = VectorIndex.load(path)
        loaded.insert(entry("k07", np.full(8, 0.5), {"version": "9.0"}, text="new"))
        assert len(loaded) == 50
        assert loaded.get("k07").vector.tolist() == [0.5] * 8
        assert [h.key for h in loaded.search(np.ones(8), k=1)] == ["k07"]
        loaded.save(path)
        again = VectorIndex.load(path)
        assert again.get("k07").vector.tolist() == [0.5] * 8
        assert again.get("k08").vector.tobytes() == self.build().get("k08").vector.tobytes()

    @pytest.mark.parametrize("tamper", ["fortran-order", "trailing-bytes", "header-only", "empty"])
    def test_npy_that_does_not_hold_exactly_the_matrix_is_corrupt(self, tmp_path, tamper):
        path = tmp_path / "vectors.json"
        self.build().save(path)
        raw = vectors_path(path).read_bytes()
        matrix = np.load(io.BytesIO(raw))
        damaged = {
            "fortran-order": lambda: self.npy_bytes(np.asfortranarray(matrix)),
            "trailing-bytes": lambda: raw + bytes(8),
            "header-only": lambda: raw[:128],
            "empty": lambda: b"",
        }[tamper]()
        self.replace_vectors(path, damaged, rehash=True)
        with pytest.raises(CorruptFileError):
            VectorIndex.load(path)

    def test_npy_with_a_version_2_0_header_is_corrupt(self, tmp_path):
        """``save`` writes a version 1.0 header for every matrix, so a 2.0
        header is corrupt, even over the same matrix and with its sha256
        recorded in the sidecar."""
        path = tmp_path / "vectors.json"
        self.build().save(path)
        matrix = np.load(vectors_path(path))
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, matrix, version=(2, 0))
        self.replace_vectors(path, buffer.getvalue(), rehash=True)
        with pytest.raises(CorruptFileError, match="version 1.0"):
            VectorIndex.load(path)


def test_loaded_index_matches_the_inserted_one_bit_for_bit(tmp_path):
    """``load`` recomputes each row's norm exactly as ``insert`` did, so every
    search of the loaded index returns the in-memory index's keys and scores
    to the last bit, filtered or not."""
    rng = np.random.default_rng(14)
    matrix = rng.normal(size=(400, 64)) * rng.uniform(1e-3, 1e3, size=(400, 1))
    matrix[::37] = 0.0
    # rows where a float32 self-dot summed in another order differs in the
    # last bit from the per-row dot, so the comparison below can tell them apart
    stored = matrix.astype(np.float32)
    per_row = np.array([math.sqrt(float(np.dot(row, row))) for row in stored])
    assert np.any(np.sqrt(np.einsum("ij,ij->i", stored, stored).astype(np.float64)) != per_row)
    documents, labels = ["alpha", "beta", "gamma"], ["1.0", "1.2", "1.2.0", "2.0", "v2.1"]
    index = VectorIndex(dimension=64)
    # rows go in by key, the order ``save`` writes
    for i in range(len(matrix)):
        metadata = {"document": documents[i % 3], "version": labels[i % 5]}
        index.insert(entry(f"k{i:03d}", matrix[i], metadata, text=f"t{i}"))
    path = tmp_path / "vectors.json"
    index.save(path)
    loaded = VectorIndex.load(path)
    assert loaded._norms.tobytes() == per_row.tobytes()
    filters = [None, *(MetadataFilter({"document": d}) for d in documents)]
    filters += [MetadataFilter(version_in={"1.2"}), MetadataFilter({"document": "beta"}, {"2"})]
    k = len(matrix)
    for _ in range(5):
        query = rng.normal(size=64)
        for flt in filters:
            want = [(h.key, repr(h.score)) for h in index.search(query, k, flt)]
            assert [(h.key, repr(h.score)) for h in loaded.search(query, k, flt)] == want


def test_a_rows_score_does_not_depend_on_its_neighbours(tmp_path):
    """Rows inserted in random key order score the same, to the last bit, in
    an unfiltered search, in searches whose filters keep other rows beside
    them, and in the saved and loaded copy, whose rows are in key order."""
    rng = np.random.default_rng(21)
    matrix = rng.normal(size=(400, 64))
    index = VectorIndex(dimension=64)
    for i in rng.permutation(len(matrix)).tolist():
        metadata = {"shard": str(i % 3), "parity": str(i % 2)}
        index.insert(entry(f"k{i:03d}", matrix[i], metadata))
    path = tmp_path / "vectors.json"
    index.save(path)
    loaded = VectorIndex.load(path)
    filters = [None, MetadataFilter({"shard": {"0", "1"}})]
    filters += [MetadataFilter({"shard": shard}) for shard in "012"]
    filters += [MetadataFilter({"parity": parity}) for parity in "01"]
    for _ in range(5):
        query = rng.normal(size=64)
        scores = {}
        for searched in (index, loaded):
            for flt in filters:
                for hit in searched.search(query, k=len(matrix), metadata_filter=flt):
                    scores.setdefault(hit.key, set()).add(repr(hit.score))
        assert len(scores) == len(matrix)
        assert {key: held for key, held in scores.items() if len(held) > 1} == {}


def test_nan_scores_come_last_in_key_order():
    """A finite row whose float32 dot with the query and with itself
    overflows scores nan (an infinite dot over an infinite norm); nan hits
    follow every other hit in ascending key order, the order ``np.lexsort``
    gives by descending score and then key, in an unfiltered and in a
    filtered search."""
    big = 3e38
    rows = {"g": [big, big], "e": [1, 1], "a": [big, 2e38], "d": [0, -1]}
    rows.update({"c": [-big, -big], "b": [1, 0], "f": [1, 1]})
    index = VectorIndex(dimension=2)
    query = np.array([1.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        for key, vector in rows.items():
            index.insert(entry(key, vector, {"shard": "b" if key in "bg" else "a"}))
        hits = index.search(query, k=len(rows))
        assert [h.key for h in hits] == ["e", "f", "b", "d", "a", "c", "g"]
        assert [math.isnan(h.score) for h in hits] == [False] * 4 + [True] * 3
        keys = np.array([h.key for h in hits], dtype=object)
        order = np.lexsort((keys, -np.array([h.score for h in hits])))
        assert order.tolist() == list(range(len(rows)))
        for k, want in [(1, ["e"]), (2, ["e", "f"]), (5, ["e", "f", "b", "d", "a"])]:
            assert [h.key for h in index.search(query, k=k)] == want
        for k in (2, 5):
            hits = index.search(query, k=k, metadata_filter=MetadataFilter({"shard": "a"}))
            assert [h.key for h in hits] == ["e", "f", "d", "a", "c"][:k]


def zip_bytes(matrix):
    buffer = io.BytesIO()
    np.savez(buffer, matrix=matrix)
    return buffer.getvalue()


def test_concurrent_inserts_and_searches():
    """A writer upserting while readers search must never corrupt results,
    also while the readers build a fresh snapshot's filter columns."""
    import sys
    import threading

    rng = np.random.default_rng(17)
    index = VectorIndex(dimension=8)

    def metadata(i):
        return {"shard": str(i % 3), "version": LABELS[i % len(LABELS)]}

    for i in range(50):
        index.insert(entry(f"seed{i:02d}", rng.normal(size=8), metadata(i)))
    stop = threading.Event()
    errors = []

    def writer():
        try:
            for i in range(300):
                index.insert(entry(f"new{i:03d}", rng.normal(size=8), metadata(i)))
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            stop.set()

    def reader(flt):
        try:
            query = np.ones(8)
            while not stop.is_set():
                hits = index.search(query, k=5, metadata_filter=flt)
                assert len(hits) <= 5
                assert all(flt is None or flt.matches(h.entry.metadata) for h in hits)
                for prev, nxt in zip(hits, hits[1:]):
                    assert (-prev.score, prev.key) < (-nxt.score, nxt.key)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(flt,)) for flt in FILTERS.values()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(index) == 350


def test_concurrent_searches():
    import threading

    rng = np.random.default_rng(2)
    index = VectorIndex(dimension=8)
    for i in range(100):
        index.insert(entry(f"k{i}", rng.normal(size=8)))
    query = rng.normal(size=8)
    expected = [h.key for h in index.search(query, k=5)]
    errors = []

    def worker():
        try:
            for _ in range(50):
                assert [h.key for h in index.search(query, k=5)] == expected
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
