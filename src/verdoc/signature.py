"""The stat signature of an index: one sha256 over a row of (path, size,
mtime, ctime, inode, device) per corpus file and per index file, which
lets a re-index that finds every row unchanged skip reading the corpus and
hashing the index.

A row of a file only vouches for the file's content while the file has
not changed since the row was taken without changing the row. A change in
the same tick of the file system's clock as the stat can keep the mtime,
the "racy clean" case of git (``Documentation/technical/racy-git.txt``).
So a row is recorded only when the file's mtime and ctime are older than
a reading of that clock taken before the stat, and the signature vouches
for nothing while a row is not older than the signature file's own mtime.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Optional

from .fileio import json_bytes, write_atomic

SIGNATURE_FILE = "stat.json"
# how long a full run waits for the clock to pass the index files it wrote:
# a few ticks at any kernel HZ; on a file system with coarser timestamps the
# run writes no signature, and the next run hashes
_SETTLE_TRIES, _SETTLE_SLEEP_S = 40, 0.0005


def _row(name: str, stat: os.stat_result) -> list:
    return [name, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns, stat.st_ino, stat.st_dev]


def _digest(corpus_rows: list, index_rows: list) -> str:
    payload = json.dumps([corpus_rows, index_rows], separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _older(rows: list, since: int) -> bool:
    """Whether every row's mtime and ctime are older than ``since``."""
    return all(row[2] < since and row[3] < since for row in rows)


def clock(directory: Path) -> int:
    """The file system's clock in ``directory``: the mtime of a nameless
    file created there now."""
    with tempfile.TemporaryFile(dir=directory) as probe:
        return os.fstat(probe.fileno()).st_mtime_ns


def index_rows(directory: Path, names: tuple) -> Optional[list]:
    """The row of each of ``names`` in ``directory``; None when one cannot be stat-ed."""
    try:
        return [_row(name, os.stat(directory / name)) for name in names]
    except OSError:
        return None


def _corpus_rows(files: list) -> Optional[list]:
    """The row of each ``CorpusFile`` from its ``stat``; None when one has none."""
    if any(file.stat is None for file in files):
        return None
    return [_row(file.source_path, file.stat) for file in files]


def vouched(directory: Path, files: list, names: tuple) -> Optional[int]:
    """The signature file's mtime when the signature in ``directory``
    vouches for the corpus ``files`` and the index files ``names``: its
    digest matches their rows, and no row is as new as the signature file.
    Each file's ``stat`` is taken, by path, when the signature file exists."""
    try:
        with open(directory / SIGNATURE_FILE, "rb") as handle:
            since = os.fstat(handle.fileno()).st_mtime_ns
            recorded = json.loads(handle.read())
    except (OSError, ValueError):
        return None
    if not isinstance(recorded, dict):
        return None
    try:
        for file in files:
            file.stat = os.stat(file.path)
    except OSError:
        return None
    rows = index_rows(directory, names)
    corpus = _corpus_rows(files)
    if rows is None or recorded.get("digest") != _digest(corpus, rows):
        return None
    return since if _older(corpus + rows, since) else None


def _settled_rows(directory: Path, names: tuple) -> Optional[tuple]:
    """``(since, rows)``: the rows of ``names``, stat-ed once the clock has
    passed their mtimes and ctimes, and that clock reading; None when it
    does not pass them within the tries."""
    for _ in range(_SETTLE_TRIES):
        since = clock(directory)
        rows = index_rows(directory, names)
        if rows is None:
            return None
        if _older(rows, since):
            return since, rows
        time.sleep(_SETTLE_SLEEP_S)
    return None


def write(directory: Path, files: list, since: int, names: tuple, rows: Optional[list] = None) -> None:
    """Record the signature of the corpus ``files`` and the index files ``names``.

    ``since`` is a clock reading taken before every file's ``stat``.
    ``rows`` are the index files' rows, taken after ``since`` and before
    their content was checked; without them the index files were just
    written, and their rows are taken once the clock has passed them. A
    row that is not older than its clock reading could hide a change made
    in the same tick, so then no signature is written.
    """
    corpus = _corpus_rows(files)
    if rows is None:
        settled = _settled_rows(directory, names)
        if settled is None:
            return
        rows_since, rows = settled
    else:
        rows_since = since
    if corpus is None or not (_older(corpus, since) and _older(rows, rows_since)):
        return
    write_atomic(directory / SIGNATURE_FILE, json_bytes({"digest": _digest(corpus, rows)}))
