"""Crash-safe replacement of the files an index run writes, and their JSON text."""

from __future__ import annotations

import math
import os
from json.encoder import encode_basestring_ascii as _quote
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
    """``json.dumps(value, indent=2, sort_keys=True) + "\\n"``, encoded.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder. This writer
    makes the same text by appending the pieces to one list, with strings
    quoted by the C escaper. Object keys must be strings.
    """
    parts: list = []
    _encode(value, parts.append, "\n")
    parts.append("\n")
    return "".join(parts).encode("ascii")


def _encode(value, out, newline: str) -> None:
    """Append ``value`` to ``out``; ``newline`` is the line break plus the indent
    of the line ``value`` starts on."""
    if isinstance(value, str):
        out(_quote(value))
        return
    if isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out(separator)
            out(_quote(key))
            out(": ")
            if type(item) is str:
                out(_quote(item))
            else:
                _encode(item, out, inner)
            separator = "," + inner
        out(newline + "}")
        return
    if isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out(separator)
            _encode(item, out, inner)
            separator = "," + inner
        out(newline + "]")
        return
    out(_scalar(value))


def _scalar(value) -> str:
    """The JSON text of a number, a bool or None, as ``json.dumps`` writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
