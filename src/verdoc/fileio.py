"""Crash-safe replacement of the files an index run writes, their JSON text,
and a reader for the JSON files that must parse to be of use."""

from __future__ import annotations

import json
import os
from pathlib import Path


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` so that a crash leaves the old file or the new one.

    The bytes go to a temporary file in the same directory, which is synced
    to disk before ``os.replace`` renames it over ``path`` (the order that
    Pillai et al., "All File Systems Are Not Created Equal", OSDI 2014, show
    a crash-safe update needs). The temporary file is removed when any step
    fails, so a failed write leaves nothing behind.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def json_bytes(value) -> bytes:
    """``json.dumps(value, sort_keys=True, separators=(",", ":")) + "\\n"``, encoded."""
    return (json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def read_json(path, what: str, error: type, kind: type = dict):
    """The value of the UTF-8 JSON file at ``path``, which must be a ``kind``.

    A file that cannot be read, is not UTF-8, is not JSON or holds another
    top-level type raises ``error``, with a message naming ``what`` and the path.
    """
    try:
        with open(path, "rb") as handle:
            value = json.loads(handle.read().decode("utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(value, kind):
        raise error(f"{what} {path} does not hold a JSON {'object' if kind is dict else 'array'}")
    return value
