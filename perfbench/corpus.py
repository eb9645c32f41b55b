"""Seeded synthetic corpora of versioned documentation and changelogs.

A corpus is a directory of Markdown files, one file per document version,
plus the gold facts a question generator needs. Everything derives from a
``random.Random(seed)``, so one seed always writes the same bytes.

Inputs are shaped like real versioned documentation:

* documentation groups: a ``# Title`` heading, a ``Version:`` line and a
  body that changes by a few line edits per release;
* changelog groups: ``## Version`` headings with bullet items, where some
  entries name versions that have no file of their own;
* labels in mixed forms: ``v2.1``, ``2.10`` after ``2.9``, ``4.0-rc1``;
* a few documentation files without any version line.

Words come from a syllable alphabet chosen so that no generated word is a
changelog marker, a change verb or a version-listing cue. Bodies hold no
dotted numbers, so the only version labels are the ones written on
purpose. No document holds two labels of one equality class, even after
the ``v`` prefix and ``-rc`` suffix are dropped.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

_SYLLABLES = (
    "ka", "lo", "mi", "tas", "vo", "pel", "qui", "dar", "nes", "bo",
    "ith", "um", "sol", "fe", "wex", "ja", "zor", "ple", "cu", "ny",
    "os", "tri", "bal", "ez", "ru", "sim", "ov", "hal", "py", "mek",
)
_DOC_KINDS = ("Guide", "Reference", "Manual", "Handbook")
_VERSION_TOKEN = re.compile(r"v?(\d+(?:\.\d+)+)")


@dataclass(frozen=True)
class Shape:
    """Size of one generated corpus."""

    groups: int
    versions: int  # files per group
    body_lines: int  # documentation lines per file
    words_per_line: int
    edits: int  # line edits between adjacent versions
    changelog_share: float  # share of groups that are changelogs
    changelog_items: int  # bullets per changelog release
    unversioned_files: int  # documentation groups whose oldest file has no version line


@dataclass
class Release:
    """One file of a group; ``label`` is None for an unversioned file."""

    path: str
    label: str | None  # label as verdoc reads it: dotted numeric part
    rendered: str = ""  # label as written in the file
    pinned_value: str = ""  # value of the group's pinned fact in this release
    edits: list = field(default_factory=list)  # (subject, value) of edit lines introduced here


@dataclass
class Group:
    title: str
    changelog: bool
    releases: list = field(default_factory=list)
    listing: list = field(default_factory=list)  # expected version listing; None = synthetic
    pinned_subject: str = ""  # fact whose value differs in every release
    stable_subject: str = ""  # fact whose value all releases share
    stable_value: str = ""
    bullets: list = field(default_factory=list)  # (subject, version) of changelog items


@dataclass
class Corpus:
    root: Path
    groups: list
    files: int
    tokens: int
    bytes: int


def numeric_label(rendered: str) -> str:
    """The label verdoc extracts from a rendered one: ``v2.1-rc1`` -> ``2.1``."""
    match = _VERSION_TOKEN.search(rendered)
    if match is None:
        raise ValueError(f"label {rendered!r} has no dotted number")
    return match.group(1)


class _Words:
    """Pseudo-words drawn without replacement, so each one is unique."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used: set = set()

    def take(self) -> str:
        while True:
            word = "".join(self._rng.choice(_SYLLABLES) for _ in range(self._rng.randint(2, 3)))
            if word not in self._used:
                self._used.add(word)
                return word


def _release_tuples(rng: random.Random, count: int) -> list:
    """Strictly ascending (major, minor, patch) triples.

    Minors start high enough that most documents cross ``x.9`` -> ``x.10``;
    patches stay below 9 so that ``x.y.9`` is free for changelog-only
    versions.
    """
    major, minor, patch = rng.randint(1, 4), rng.randint(5, 8), 0
    out = [(major, minor, patch)]
    while len(out) < count:
        roll = rng.random()
        if roll < 0.7:
            minor, patch = minor + 1, 0
        elif roll < 0.85 and patch < 7:
            patch += 1
        else:
            major, minor, patch = major + 1, 0, 0
        out.append((major, minor, patch))
    return out


def _render(rng: random.Random, triple: tuple, last: bool) -> str:
    major, minor, patch = triple
    text = f"{major}.{minor}" if patch == 0 and rng.random() < 0.5 else f"{major}.{minor}.{patch}"
    if rng.random() < 0.2:
        text = "v" + text
    if last and rng.random() < 0.3:
        text += "-rc1"
    return text


def _filler(rng: random.Random, pool: list, words: int) -> str:
    return " ".join(rng.choice(pool) for _ in range(words)).capitalize() + "."


def _doc_group(rng, words, shape, index, pool, unversioned: bool) -> tuple:
    title = f"{words.take().capitalize()} {words.take().capitalize()} {_DOC_KINDS[index % 4]}"
    group = Group(
        title=title,
        changelog=False,
        pinned_subject=f"{words.take()} {words.take()}",
        stable_subject=f"{words.take()} {words.take()}",
        stable_value=str(rng.randint(1000, 9999)),
    )
    triples = _release_tuples(rng, shape.versions)
    rendered = [_render(rng, t, i == len(triples) - 1) for i, t in enumerate(triples)]
    body = [_filler(rng, pool, shape.words_per_line) for _ in range(shape.body_lines)]
    body[1] = f"The {title} {group.stable_subject} default is {group.stable_value}."
    texts = []
    for v, label in enumerate(rendered):
        previous = group.releases[-1].pinned_value if group.releases else ""
        pinned = previous
        while pinned == previous:
            pinned = str(rng.randint(1000, 9999))
        release = Release(
            path=f"g{index:03d}/r{v:02d}.md",
            # the oldest release lacks its version line, so every corpus diffs the same pairs
            label=None if unversioned and v == 0 else numeric_label(label),
            rendered=label,
            pinned_value=pinned,
        )
        if v > 0:
            # edits land on odd lines after the two facts, so each is its own hunk
            slots = rng.sample(range(3, shape.body_lines, 2), shape.edits)
            for slot in slots:
                subject = f"{words.take()} {words.take()}"
                value = str(rng.randint(1000, 9999))
                body[slot] = f"The {subject} option defaults to {value} in this build."
                release.edits.append((subject, value))
        body[0] = f"The {title} {group.pinned_subject} limit for this build is {release.pinned_value}."
        head = [f"# {title}", ""]
        if release.label is not None:
            head += [f"Version: {label}", ""]
        head += [f"{title} reference documentation.", ""]
        texts.append("\n".join(head + ["## Settings", ""] + body) + "\n")
        group.releases.append(release)
    # None marks the synthetic label, which verdoc orders before every real one
    group.listing = [r.label for r in group.releases]
    return group, texts


def _changelog_group(rng, words, shape, index) -> tuple:
    product = f"{words.take().capitalize()} {words.take().capitalize()}"
    group = Group(title=f"{product} Changelog", changelog=True)
    triples = _release_tuples(rng, shape.versions)
    versions = {}  # (major, minor, patch) -> numeric label, for every version the group names
    texts = []
    for v, triple in enumerate(triples):
        label = _render(rng, triple, v == len(triples) - 1)
        sections = [(label, shape.changelog_items)]
        if v % 3 == 1:
            # an entry for a patch release that has no file of its own
            sections.append((f"{triple[0]}.{triple[1]}.9", 2))
        lines = [f"# {group.title}", "", f"Release notes for {product}.", ""]
        for section_label, items in sections:
            lines += [f"## Version {section_label}", ""]
            for _ in range(items):
                subject = f"{words.take()} {words.take()}"
                lines.append(f"- Added the {subject} switch.")
                group.bullets.append((subject, numeric_label(section_label)))
            lines.append("")
            versions[_triple(section_label)] = numeric_label(section_label)
        group.releases.append(
            Release(path=f"g{index:03d}/r{v:02d}.md", label=numeric_label(label), rendered=label)
        )
        texts.append("\n".join(lines) + "\n")
    group.listing = [versions[key] for key in sorted(versions)]
    return group, texts


def _triple(label: str) -> tuple:
    parts = [int(p) for p in numeric_label(label).split(".")]
    return tuple((parts + [0, 0])[:3])


def generate(root, shape: Shape, seed: int) -> Corpus:
    """Write a corpus under ``root`` (which must not exist) and return its gold."""
    rng = random.Random(seed)
    words = _Words(rng)
    pool = [words.take() for _ in range(400)]
    root = Path(root)
    root.mkdir(parents=True)
    changelogs = round(shape.groups * shape.changelog_share)
    changelog_at = set(rng.sample(range(shape.groups), changelogs))
    documentation = [g for g in range(shape.groups) if g not in changelog_at]
    unversioned = set(rng.sample(documentation, min(shape.unversioned_files, len(documentation))))
    groups = []
    files = tokens = size = 0
    for g in range(shape.groups):
        if g in changelog_at:
            group, texts = _changelog_group(rng, words, shape, g)
        else:
            group, texts = _doc_group(rng, words, shape, g, pool, g in unversioned)
        for release, text in zip(group.releases, texts):
            path = root / release.path
            path.parent.mkdir(exist_ok=True)
            data = text.encode("utf-8")
            path.write_bytes(data)
            files += 1
            tokens += len(text.split())
            size += len(data)
        groups.append(group)
    return Corpus(root=root, groups=groups, files=files, tokens=tokens, bytes=size)
