"""The traced benchmark run wraps verdoc functions by name; they must exist.

``perfbench/workloads.py:install`` replaces each layer's public functions
with span-recording wrappers. Renaming one of them breaks the traced run,
so install on a fresh tracer here and put every original back.
"""

import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def test_install_wraps_and_restore_puts_originals_back():
    tracer = Tracer()
    workloads.install(tracer, {})
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, original in patches:
            assert inspect.getattr_static(owner, attr) is not original, attr
    finally:
        tracer.restore()
    for owner, attr, original in patches:
        assert inspect.getattr_static(owner, attr) is original, attr
