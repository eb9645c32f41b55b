"""Exact top-k cosine search over embedded entries with metadata filters.

Search is an exact scan (desk-scale corpora; determinism matters more than
speed here): the filter picks the candidate rows, and one numpy matvec
scores them. Results are ordered by descending score with ties broken by
ascending key, which makes search results reproducible and directly
comparable against a brute-force oracle.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CorruptFileError, DimensionMismatchError, VersionMismatchError
from .versions import parse_version

FORMAT_VERSION = 1


@dataclass
class IndexEntry:
    key: str
    vector: np.ndarray
    metadata: dict
    text: str


@dataclass
class MetadataFilter:
    """Equality constraints plus an optional version whitelist.

    An empty filter matches everything. ``version_in`` compares the entry's
    ``version`` metadata under the version comparator, so "1.2" matches an
    entry tagged "1.2.0".
    """

    equality: dict = field(default_factory=dict)
    version_in: Optional[set] = None

    def matches(self, metadata: dict) -> bool:
        return self.matcher()(metadata)

    def matcher(self) -> Callable[[dict], bool]:
        """``matches`` as a one-argument function that parses the version
        whitelist once, for testing many entries against one filter."""
        equality = self.equality
        wanted = (
            None
            if self.version_in is None
            else {parse_version(str(v)).sort_key() for v in self.version_in}
        )

        def match(metadata: dict) -> bool:
            for key, value in equality.items():
                if metadata.get(key) != value:
                    return False
            if wanted is not None:
                raw = metadata.get("version")
                if raw is None or parse_version(raw).sort_key() not in wanted:
                    return False
            return True

        return match


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


class _Snapshot(NamedTuple):
    """Immutable view used by searches; inserts publish a fresh one."""

    keys: tuple
    matrix: np.ndarray
    norms: np.ndarray
    key_rank: np.ndarray
    metadata: tuple
    texts: tuple


class VectorIndex:
    """In-memory vector store with upsert semantics and JSON persistence.

    Inserts run under a lock and invalidate the search snapshot; searches
    build or reuse the snapshot and then run lock-free, so any number of
    concurrent searches may overlap while writers stay serialized.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise DimensionMismatchError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._keys: list = []
        self._row_of: dict = {}
        self._vectors: list = []
        self._norms: list = []
        self._metadata: list = []
        self._texts: list = []
        self._snapshot: Optional[_Snapshot] = None
        self._lock = threading.RLock()
        self.search_count = 0  # instrumentation; lets callers assert routing

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._row_of

    def keys(self) -> list:
        with self._lock:
            return list(self._keys)

    def insert(self, entry: IndexEntry) -> None:
        vector = np.asarray(entry.vector, dtype=np.float64)
        if vector.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"entry {entry.key!r} has shape {vector.shape}, index dimension is {self.dimension}"
            )
        with self._lock:
            row = self._row_of.get(entry.key)
            norm = float(np.linalg.norm(vector))
            if row is None:
                self._row_of[entry.key] = len(self._keys)
                self._keys.append(entry.key)
                self._vectors.append(vector)
                self._norms.append(norm)
                self._metadata.append(dict(entry.metadata))
                self._texts.append(entry.text)
            else:
                self._vectors[row] = vector
                self._norms[row] = norm
                self._metadata[row] = dict(entry.metadata)
                self._texts[row] = entry.text
            self._snapshot = None

    def get(self, key: str) -> Optional[IndexEntry]:
        with self._lock:
            row = self._row_of.get(key)
            if row is None:
                return None
            return IndexEntry(
                key=key,
                vector=self._vectors[row],
                metadata=dict(self._metadata[row]),
                text=self._texts[row],
            )

    def _current_snapshot(self) -> _Snapshot:
        snapshot = self._snapshot
        if snapshot is not None:
            return snapshot
        with self._lock:
            if self._snapshot is None:
                count = len(self._keys)
                matrix = (
                    np.vstack(self._vectors)
                    if count
                    else np.zeros((0, self.dimension), dtype=np.float64)
                )
                order = sorted(range(count), key=lambda i: self._keys[i])
                key_rank = np.empty(count, dtype=np.int64)
                for rank, row in enumerate(order):
                    key_rank[row] = rank
                self._snapshot = _Snapshot(
                    keys=tuple(self._keys),
                    matrix=matrix,
                    norms=np.asarray(self._norms, dtype=np.float64),
                    key_rank=key_rank,
                    metadata=tuple(self._metadata),
                    texts=tuple(self._texts),
                )
            return self._snapshot

    def search(
        self,
        query: np.ndarray,
        k: int = 5,
        metadata_filter: Optional[MetadataFilter] = None,
    ) -> list:
        """The k best-scoring entries matching the filter.

        Ordered by descending cosine score, ties by ascending key; fewer
        than k hits are returned when fewer entries match.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"query has shape {query.shape}, index dimension is {self.dimension}"
            )
        self.search_count += 1
        snap = self._current_snapshot()
        if not snap.keys:
            return []
        match = (metadata_filter or MetadataFilter()).matcher()
        mask = np.fromiter(
            (match(md) for md in snap.metadata), dtype=np.bool_, count=len(snap.metadata)
        )
        candidates = np.flatnonzero(mask)
        if candidates.size == 0:
            return []
        # cosine of the candidate rows; a zero-norm row or query scores 0
        dots = snap.matrix[candidates] @ query
        denom = snap.norms[candidates] * float(np.linalg.norm(query))
        scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
        order = np.lexsort((snap.key_rank[candidates], -scores))
        hits = []
        for position in order[:k]:
            row = int(candidates[position])
            hits.append(
                SearchHit(
                    key=snap.keys[row],
                    score=float(scores[position]),
                    entry=IndexEntry(
                        key=snap.keys[row],
                        vector=snap.matrix[row],
                        metadata=dict(snap.metadata[row]),
                        text=snap.texts[row],
                    ),
                )
            )
        return hits

    # --- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        with self._lock:
            rows = sorted(range(len(self._keys)), key=lambda i: self._keys[i])
            return {
                "format_version": FORMAT_VERSION,
                "dimension": self.dimension,
                "entries": [
                    {
                        "key": self._keys[i],
                        "vector": [float(x) for x in self._vectors[i]],
                        "metadata": dict(sorted(self._metadata[i].items())),
                        "text": self._texts[i],
                    }
                    for i in rows
                ],
            }

    def save(self, path) -> None:
        payload = json.dumps(self.to_dict(), indent=None, sort_keys=True, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")

    @classmethod
    def load(cls, path) -> "VectorIndex":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptFileError(f"cannot read index file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise CorruptFileError(f"index file {path} does not hold an object")
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise VersionMismatchError(
                f"unsupported index format_version {version!r} (expected {FORMAT_VERSION})"
            )
        try:
            index = cls(dimension=int(data["dimension"]))
            for item in data["entries"]:
                index.insert(
                    IndexEntry(
                        key=item["key"],
                        vector=np.asarray(item["vector"], dtype=np.float64),
                        metadata=dict(item["metadata"]),
                        text=item["text"],
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFileError(f"malformed index payload: {exc}") from exc
        return index
