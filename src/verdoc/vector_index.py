"""Exact top-k cosine search over embedded entries with metadata filters.

Search is an exact scan (desk-scale corpora; determinism matters more than
speed here): the filter picks the candidate rows, and each is scored by its
own float32 dot product with the query, so a row's score does not depend
on which other rows the filter kept. Results are ordered by descending
score with ties broken by ascending key, which makes search results
reproducible and directly comparable against a brute-force oracle. Only
the rows scoring at least the k-th score, found by one partition, are
sorted by (score, key).

Metadata is stored in dictionary-encoded columns, one per field, and
nowhere else: each column lists the field's distinct values and holds one
integer code per row, -1 where the row lacks the field. ``insert`` and
``drop`` write the rows' codes, and ``get`` and search hits rebuild a row's
metadata dict from them. In memory a column's values are append-only: they
list every value written since load, also one that no row uses any more.
``save`` writes each column with only the values in use, and ``load``
builds its codes with one numpy conversion. A filter tests each listed
value once and keeps the rows whose code passed, so no Python code runs
per row. A version test (``version`` for ``version_in``;
``first`` and ``last`` for ``valid_at``) compares the version sort keys of
the values, which each column parses once per value, when a test first
reads it.
"""

from __future__ import annotations

import hashlib
import io
import math
import operator
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .errors import CorruptFileError, DimensionMismatchError, VersionMismatchError
from .fileio import json_bytes, read_json, write_atomic
from .versions import parse_version

FORMAT_VERSION = 6
# the largest magnitude a vector component may have: the index stores float32 rows
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass
class IndexEntry:
    key: str
    vector: np.ndarray
    metadata: dict
    text: str


@dataclass
class MetadataFilter:
    """Equality constraints plus an optional version whitelist and an
    optional validity test.

    An empty filter matches everything. An ``equality`` value that is a set
    means "any of": the entry's value must be a member, so an unhashable
    value matches no set. ``version_in`` compares the entry's ``version``
    metadata under the version comparator, so "1.2" matches an entry
    tagged "1.2.0". ``valid_at`` is a version label that must lie in the
    entry's validity interval, from its ``first`` to its ``last`` metadata
    label, both ends included, under the same comparator.
    """

    equality: dict = field(default_factory=dict)
    version_in: Optional[set] = None
    valid_at: Optional[str] = None

    def matches(self, metadata: dict) -> bool:
        wanted = self.version_keys()
        at = self.valid_at_key()
        for key, value in self.equality.items():
            if not _equality_test(value)(metadata.get(key)):
                return False
        if wanted is not None:
            raw = metadata.get("version")
            if raw is None or parse_version(raw).sort_key() not in wanted:
                return False
        if at is not None:
            first, last = metadata.get("first"), metadata.get("last")
            if first is None or last is None:
                return False
            if not parse_version(first).sort_key() <= at <= parse_version(last).sort_key():
                return False
        return True

    def version_keys(self) -> Optional[set]:
        """Sort keys of the ``version_in`` whitelist, or None without one."""
        if self.version_in is None:
            return None
        return {parse_version(str(v)).sort_key() for v in self.version_in}

    def valid_at_key(self) -> Optional[tuple]:
        """The sort key of ``valid_at``, or None without one."""
        return None if self.valid_at is None else parse_version(str(self.valid_at)).sort_key()


def _equality_test(value):
    """The test an equality constraint with ``value`` makes of a held value.

    A scalar is compared row value first, ``not held != value``, so nan
    matches nothing; a set tests membership.
    """
    if not isinstance(value, (set, frozenset)):
        return lambda held: not held != value

    def member(held) -> bool:
        try:
            return held in value
        except TypeError:  # unhashable
            return False

    return member


class SearchHit(NamedTuple):
    key: str
    score: float
    entry: IndexEntry


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"cosine over shapes {a.shape} and {b.shape}")
    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)


def finite_float32(vector: np.ndarray) -> bool:
    """Whether every component of ``vector`` is a finite number within
    float32's range, the rows an index can store and score."""
    return bool(np.abs(vector).max() <= _FLOAT32_MAX)  # a nan fails too


class _Column:
    """One metadata field, dictionary-encoded: ``values[codes[row]]`` is the
    row's value, and code -1 marks a row without the field.

    ``codes`` has one entry per row of the index's matrix, capacity
    included. Values must also share a type to share a code (so 1, 1.0 and
    True stay apart), and an unhashable value gets a code of its own; every
    row of a code then compares alike against any value.

    ``values`` is append-only, so a code never changes its value: it lists
    every value written since the column was built, and a value stays
    listed when its last row goes. ``save`` writes only the values in use.
    """

    __slots__ = ("codes", "values", "_code_of", "_sort_keys")

    def __init__(self, codes: np.ndarray, values: list):
        self.codes = codes
        self.values = values
        self._code_of: dict = {}
        for code, value in enumerate(values):
            try:
                self._code_of.setdefault((type(value), value), code)
            except TypeError:  # unhashable
                pass
        self._sort_keys: list = []  # of values[: len(_sort_keys)]

    def code(self, value) -> int:
        """The code of ``value``, which is added to ``values`` when new."""
        code = len(self.values)
        try:
            code = self._code_of.setdefault((type(value), value), code)
        except TypeError:  # unhashable
            pass
        if code == len(self.values):
            self.values.append(value)
        return code

    def sort_keys(self) -> list:
        """The version sort key of each value, None for a None value; the
        values added since the last call are parsed now."""
        for raw in self.values[len(self._sort_keys) :]:
            self._sort_keys.append(None if raw is None else parse_version(raw).sort_key())
        return self._sort_keys


_NO_COLUMN = _Column(np.zeros(0, dtype=np.intp), [])  # of a field that no row holds


def _keep(rows: np.ndarray, column: _Column, verdicts: list, absent: bool) -> np.ndarray:
    """The ``rows`` whose value passes: ``verdicts`` holds one per value of
    ``column``, and ``absent`` is the verdict on a row without the field,
    which is every row of ``_NO_COLUMN``."""
    if column is _NO_COLUMN:
        return rows if absent else rows[:0]
    # code -1 reads the verdict appended last
    return rows[np.array([*verdicts, absent], dtype=np.bool_)[column.codes[rows]]]


def _column_of(name: str, data, rows: int) -> _Column:
    """The column that sidecar ``data`` stores for field ``name`` over ``rows``
    rows; raises ``ValueError`` unless it holds a list of values and one
    integer code per row, each -1 or a value's position."""
    if not (isinstance(data, dict) and set(data) == {"values", "codes"}):
        raise ValueError(f"metadata field {name!r} is not an object of values and codes")
    values, codes = data["values"], np.asarray(data["codes"])
    if not isinstance(values, list):
        raise ValueError(f"metadata field {name!r}: values are not a list")
    if codes.shape != (rows,) or (rows and codes.dtype.kind != "i"):
        raise ValueError(f"metadata field {name!r}: codes are not {rows} integers")
    codes = codes.astype(np.intp, copy=False)
    if rows and not (codes.min() >= -1 and codes.max() < len(values)):
        raise ValueError(f"metadata field {name!r}: a code is out of range")
    return _Column(codes, values)


def _dots(rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Each float32 row's dot product with the float32 ``vector``.

    A stack of (1, n) @ (n, 1) products makes one BLAS dot call per row in
    one numpy loop, so a row's result does not depend on the rows beside
    it. A matvec rounds the rows at a block's tail differently, and
    ``einsum`` or ``(rows * vector).sum(1)`` sum in another order.
    """
    return np.matmul(rows[:, None, :], vector[:, None])[:, 0, 0]


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """Each float32 row's norm in float64: the root of the row's float32
    dot with itself, the same dot call ``_dots`` makes."""
    return np.sqrt(np.matmul(matrix[:, None, :], matrix[:, :, None])[:, 0, 0].astype(np.float64))


def _norm(vector: np.ndarray) -> float:
    """``_row_norms`` of one float32 vector: ``dot`` of two 1-d arrays makes
    the same BLAS call, without the stacking. ``insert`` and the query of
    ``search`` take their norm here and ``load`` from ``_row_norms``, so a
    stored vector scores 1 against itself up to the last bits."""
    return math.sqrt(float(vector.dot(vector)))


class VectorIndex:
    """In-memory vector store with upsert semantics, saved as ``.npy`` plus a JSON sidecar.

    Each row is stored once: its vector, rounded to float32, in one matrix
    whose capacity doubles as rows arrive, its float64 norm in an array
    beside it, its key and text in lists, and its metadata in the columns'
    codes, which grow with the matrix. Rows are stored as given, not
    normalized, so re-inserting a vector that ``get`` handed out stores the
    same bits. Every read and write of the rows runs under one lock.
    ``insert`` copies the caller's vector in, and ``get`` and search hits
    hand out float32 copies, so no caller can change a stored row.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise DimensionMismatchError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._keys: list = []
        self._row_of: dict = {}
        self._matrix = np.zeros((0, dimension), dtype=np.float32)
        self._norms = np.zeros(0, dtype=np.float64)
        self._texts: list = []
        self._columns: dict = {}  # metadata field -> _Column
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._row_of

    def keys(self, metadata_filter: Optional[MetadataFilter] = None) -> list:
        """The keys of the entries ``metadata_filter`` matches, in insertion
        order; every key without a filter."""
        with self._lock:
            if metadata_filter is None:
                return list(self._keys)
            return [self._keys[row] for row in self._candidates(metadata_filter).tolist()]

    def insert(self, entry: IndexEntry) -> None:
        """Store ``entry``, replacing the entry of its key; raises
        ``ValueError`` for a vector with a component that is nan, infinite
        or beyond float32's range."""
        vector = np.asarray(entry.vector)
        if vector.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"entry {entry.key!r} has shape {vector.shape}, index dimension is {self.dimension}"
            )
        if not finite_float32(vector):
            raise ValueError(
                f"entry {entry.key!r} has a component that is nan, infinite or beyond float32's range"
            )
        vector = vector.astype(np.float32)
        with self._lock:
            row = self._row_of.get(entry.key)
            if row is None:
                row = len(self._keys)
                if row == len(self._matrix):  # full: double the capacity
                    capacity = max(1, 2 * row)
                    # np.resize fills the new rows with repeats; rows past len(self) are never read
                    self._matrix = np.resize(self._matrix, (capacity, self.dimension))
                    self._norms = np.resize(self._norms, capacity)
                    for column in self._columns.values():
                        column.codes = np.resize(column.codes, capacity)
                self._row_of[entry.key] = row
                self._keys.append(entry.key)
                self._texts.append(entry.text)
            else:
                self._texts[row] = entry.text
            self._matrix[row] = vector
            self._norms[row] = _norm(vector)
            for column in self._columns.values():
                column.codes[row] = -1
            for field_name, value in entry.metadata.items():
                column = self._columns.get(field_name)
                if column is None:
                    codes = np.full(len(self._matrix), -1, dtype=np.intp)
                    column = self._columns[field_name] = _Column(codes, [])
                column.codes[row] = column.code(value)

    def get(self, key: str) -> Optional[IndexEntry]:
        with self._lock:
            row = self._row_of.get(key)
            if row is None:
                return None
            return self._entry(row)

    def drop(self, keys) -> None:
        """Delete the entries of ``keys``; a key the index lacks is skipped."""
        with self._lock:
            gone = {self._row_of[key] for key in keys if key in self._row_of}
            if not gone:
                return
            kept = [row for row in range(len(self._keys)) if row not in gone]
            self._keys = [self._keys[row] for row in kept]
            self._row_of = {key: row for row, key in enumerate(self._keys)}
            self._matrix = self._matrix[kept]
            self._norms = self._norms[kept]
            self._texts = [self._texts[row] for row in kept]
            for column in self._columns.values():
                column.codes = column.codes[kept]

    def _entry(self, row: int) -> IndexEntry:
        metadata = {}
        for field_name, column in self._columns.items():
            code = column.codes.item(row)  # a Python int: cheaper than a numpy scalar
            if code >= 0:
                metadata[field_name] = column.values[code]
        return IndexEntry(
            key=self._keys[row],
            vector=self._matrix[row].copy(),
            metadata=metadata,
            text=self._texts[row],
        )

    def _candidates(self, metadata_filter: MetadataFilter) -> np.ndarray:
        """The rows ``metadata_filter.matches`` passes, in ascending order.

        Each constraint narrows the rows the last one kept, so only the
        first touches every row. A row without a field reads it as None.
        """
        rows = np.arange(len(self._keys))
        for key, value in metadata_filter.equality.items():
            column = self._columns.get(key, _NO_COLUMN)
            test = _equality_test(value)
            rows = _keep(rows, column, [test(held) for held in column.values], test(None))
        wanted = metadata_filter.version_keys()
        if wanted is not None:
            column = self._columns.get("version", _NO_COLUMN)
            rows = _keep(rows, column, [key in wanted for key in column.sort_keys()], False)
        at = metadata_filter.valid_at_key()
        if at is not None:
            first = self._columns.get("first", _NO_COLUMN)
            rows = _keep(rows, first, [key is not None and key <= at for key in first.sort_keys()], False)
            last = self._columns.get("last", _NO_COLUMN)
            rows = _keep(rows, last, [key is not None and at <= key for key in last.sort_keys()], False)
        return rows

    def search(
        self,
        query: np.ndarray,
        k: int = 5,
        metadata_filter: Optional[MetadataFilter] = None,
    ) -> list:
        """The k best-scoring entries matching the filter.

        A row scores its cosine with the query rounded to float32: the
        float32 dot of the two over their float64 norms (``_norm``).
        A zero-norm row or query scores 0. Hits are ordered by descending
        score, ties by ascending key, and a nan score last; fewer than k
        hits are returned when fewer entries match.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query = np.asarray(query, dtype=np.float32)
        if query.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"query has shape {query.shape}, index dimension is {self.dimension}"
            )
        with self._lock:
            candidates = self._candidates(metadata_filter or MetadataFilter())
            if candidates.size == 0:
                return []
            if len(candidates) == len(self._keys):  # every row passed: score them in place
                rows, norms = self._matrix[: len(candidates)], self._norms[: len(candidates)]
            else:
                rows, norms = self._matrix[candidates], self._norms[candidates]
            dots = _dots(rows, query).astype(np.float64)
            denom = norms * _norm(query)
            scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
            if len(scores) > k:
                # the rows not below the k-th score: ties across it and nan stay in
                pool = np.flatnonzero(~(-scores > np.partition(-scores, k - 1)[k - 1]))
                candidates, scores = candidates[pool], scores[pool]
            ranked = sorted(
                # nan last, then descending score, then ascending key (keys are unique)
                (score != score, 0.0 if score != score else -score, self._keys[row], row, score)
                for row, score in zip(candidates.tolist(), scores.tolist())
            )
            return [
                SearchHit(key=key, score=score, entry=self._entry(row))
                for _, _, key, row, score in ranked[:k]
            ]

    # --- persistence -------------------------------------------------------

    def save(self, path) -> dict:
        """Write the vectors to ``vectors_path(path)`` and then the sidecar ``path``.

        The ``.npy`` holds the stored rows as a little-endian float32
        matrix whose row i is the row of the sidecar's key i; rows are
        sorted by key, and the sidecar records the ``.npy``'s sha256. The
        sidecar stores each metadata field held by some row as a column:
        its values, in the order the rows first use them, and one code per
        row. So the bytes depend only on the rows held, not on the inserts
        and drops that led to them. Each file is replaced atomically, the
        ``.npy`` first, so a crash between the two leaves a sidecar whose
        hash no longer matches and ``load`` reports the index as corrupt.
        Returns the sha256 of each file written, by file name.
        """
        with self._lock:
            rows = np.array(sorted(range(len(self._keys)), key=self._keys.__getitem__), dtype=np.intp)
            matrix = np.asarray(self._matrix[rows], dtype="<f4")
            keys = [self._keys[row] for row in rows.tolist()]
            texts = [self._texts[row] for row in rows.tolist()]
            metadata = {}
            for field_name, column in self._columns.items():
                codes = column.codes[rows]
                held = codes >= 0
                if not held.any():
                    continue
                used, first = np.unique(codes[held], return_index=True)
                used = used[np.argsort(first)]  # in the order of first use
                renumbered = np.empty(len(column.values), dtype=np.intp)
                renumbered[used] = np.arange(len(used))
                codes[held] = renumbered[codes[held]]
                metadata[field_name] = {
                    "values": [column.values[code] for code in used.tolist()],
                    "codes": codes.tolist(),
                }
        buffer = io.BytesIO()
        np.save(buffer, matrix, allow_pickle=False)
        vectors = buffer.getvalue()
        npy = vectors_path(path)
        digests = {npy.name: hashlib.sha256(vectors).hexdigest()}
        sidecar = {
            "format_version": FORMAT_VERSION,
            "dimension": self.dimension,
            "vectors_sha256": digests[npy.name],
            "keys": keys,
            "texts": texts,
            "metadata": metadata,
        }
        payload = json_bytes(sidecar)
        write_atomic(npy, vectors)
        write_atomic(path, payload)
        digests[Path(path).name] = hashlib.sha256(payload).hexdigest()
        return digests

    @classmethod
    def load(cls, path) -> "VectorIndex":
        """Read an index that ``save`` wrote; raises ``CorruptFileError`` when
        either file is unreadable, malformed or does not match the other."""
        path = Path(path)
        data = read_json(path, "index file", CorruptFileError)
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise VersionMismatchError(
                f"unsupported index format_version {version!r} (expected {FORMAT_VERSION})"
            )
        try:
            dimension = data["dimension"]
            if type(dimension) is not int or dimension < 1:
                raise ValueError(f"dimension {dimension!r} is not a positive integer")
            digest = data["vectors_sha256"]
            keys, texts, fields = data["keys"], data["texts"], data["metadata"]
            if not (isinstance(keys, list) and isinstance(texts, list) and len(keys) == len(texts)):
                raise ValueError("keys and texts are not two lists of one length")
            if not (set(map(type, keys)) <= {str} and set(map(type, texts)) <= {str}):
                bad = next(k for k, t in zip(keys, texts) if not (type(k) is str and type(t) is str))
                raise ValueError(f"entry {bad!r} needs a string key and text")
            if not isinstance(fields, dict):
                raise ValueError("metadata is not an object")
            columns = {name: _column_of(name, column, len(keys)) for name, column in fields.items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFileError(f"malformed index payload: {exc}") from exc
        if not all(map(operator.lt, keys, keys[1:])):
            raise CorruptFileError(f"entries of {path} are not sorted by unique keys")

        matrix = _read_matrix(vectors_path(path), digest, (len(keys), dimension))
        index = cls(dimension=dimension)
        index._keys = keys
        index._row_of = {key: row for row, key in enumerate(keys)}
        index._matrix = matrix
        index._norms = _row_norms(matrix)
        index._texts = texts
        index._columns = columns
        return index


def _read_matrix(npy: Path, digest: str, shape: tuple) -> np.ndarray:
    """The float32 (``<f4``) matrix of ``shape`` that ``npy`` holds, raising
    ``CorruptFileError`` unless the file's sha256 is ``digest`` and its
    header describes that matrix and nothing more.

    The file is read once, into a writable buffer, and the matrix is built
    over that buffer, so loading copies no vector twice.
    """
    try:
        with open(npy, "rb") as handle:
            # np.save writes 1.0 for every (n, d) <f4 matrix, and the digest pins save's bytes
            if np.lib.format.read_magic(handle) != (1, 0):
                raise ValueError("its .npy header is not version 1.0")
            stored, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
            offset = handle.tell()
            raw = bytearray(os.fstat(handle.fileno()).st_size)
            handle.seek(0)
            size = handle.readinto(raw)
    except (OSError, ValueError) as exc:
        raise CorruptFileError(f"cannot read vector file {npy}: {exc}") from exc
    if size != len(raw) or hashlib.sha256(raw).hexdigest() != digest:
        raise CorruptFileError(f"vector file {npy} does not match the sha256 of its sidecar")
    count = shape[0] * shape[1]
    if dtype != np.dtype("<f4") or fortran_order or stored != shape or len(raw) - offset != 4 * count:
        raise CorruptFileError(
            f"vector file {npy} holds {dtype} {stored} in {len(raw) - offset} bytes,"
            f" expected C-order <f4 {shape}"
        )
    return np.frombuffer(raw, dtype="<f4", count=count, offset=offset).reshape(shape)


def vectors_path(path) -> Path:
    """The ``.npy`` file that holds the vectors of the index sidecar at ``path``."""
    return Path(path).with_suffix(".npy")
