"""Version label parsing and ordering.

Labels are parsed into segments split on ``. - _ +``. A segment of decimal
digits becomes an integer, everything else stays a string, so every string
parses. A run that ``int`` refuses is a string too: one with a digit that
is not decimal (``"²"``), or one longer than Python's limit on converting
a string to an int (4,300 digits by default). Ordering rules:

* numeric segments compare numerically ("5.3.2" < "5.3.10"),
* a missing trailing segment counts as 0 ("1.2" == "1.2.0"),
* string segments sort after numeric ones at the same position
  ("5.3.0" < "5.3.0-rc1"), lexicographically among themselves,
* a string with no recognizable segments is a single string segment.

The result is a total order on equivalence classes of labels.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import total_ordering

_SPLIT = re.compile(r"[.\-_+]")
_LEADING_V = re.compile(r"^[vV](?=\d)")
# most labels: ASCII digit runs joined by single dots, nothing around them
_DOTTED = re.compile(r"[0-9]+(?:\.[0-9]+)*")


def _int_fits(digits: int) -> bool:
    """Whether ``int`` converts a run of ``digits`` decimal digits: at most
    the interpreter's limit, where 0 means none, as on Python before 3.10.7,
    which has no such limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return not limit or digits <= limit


def _segments(raw: str) -> tuple:
    if _DOTTED.fullmatch(raw) and _int_fits(len(raw)):
        return tuple(map(int, raw.split(".")))
    return _general_segments(raw)


def _general_segments(raw: str) -> tuple:
    text = _LEADING_V.sub("", raw.strip())
    parts = [p for p in _SPLIT.split(text) if p]
    if not parts:
        return ()
    return tuple(int(p) if p.isdecimal() and _int_fits(len(p)) else p for p in parts)


@total_ordering
@dataclass(frozen=True)
class VersionLabel:
    """A version string plus its parsed segments. ``raw`` is kept verbatim."""

    raw: str
    components: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if not self.components:
            object.__setattr__(self, "components", _segments(self.raw))
        key = [(0, s) if isinstance(s, int) else (1, s) for s in self.components]
        while key and key[-1] == (0, 0):
            key.pop()
        object.__setattr__(self, "_key", tuple(key))

    def sort_key(self) -> tuple:
        """Comparison key: (0, int) / (1, str) pairs, trailing zeros stripped.

        Stripping trailing zero segments makes "1.2" and "1.2.0" compare
        equal; tagging segments by kind puts every numeric segment before
        every string segment at the same position. Computed once, at
        construction.
        """
        return self._key

    def __eq__(self, other):
        if not isinstance(other, VersionLabel):
            return NotImplemented
        return self._key == other._key

    def __lt__(self, other):
        if not isinstance(other, VersionLabel):
            return NotImplemented
        return self._key < other._key

    def __hash__(self):
        return hash(self._key)

    def __str__(self):
        return self.raw


def parse_version(raw: str) -> VersionLabel:
    return VersionLabel(raw=raw)


def compare_versions(a: VersionLabel | str, b: VersionLabel | str) -> int:
    """Return -1, 0 or 1. Accepts labels or raw strings. Never raises."""
    ka = (a if isinstance(a, VersionLabel) else parse_version(a))._key
    kb = (b if isinstance(b, VersionLabel) else parse_version(b))._key
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0
