"""Host speed correction for wall-clock timings.

The benchmark shares a 2-vCPU virtual machine with other tenants. The same
single-threaded work runs up to 2.5x slower while a neighbour is busy, and
such slow stretches last from a second to over a minute, so medians of raw
wall times moved by 30-45% between processes. CPU time moves with wall
time, so it is no remedy.

While a run measures, an interval timer interrupts the main thread every
``PROBE_EVERY_S`` and runs a fixed reference task, the probe. A measured
operation's time is then

    corrected = (end - start - probe time inside)
                * (REFERENCE_PROBE_S / local probe time) ** elasticity

where the local probe time is the median of the probes that started
within ``WINDOW_S`` of the operation. The probe is timed as it runs, on
whatever caches the interrupted code left, and tracks the host's slow
stretches closely (its log correlates 0.94-0.96 with the log of the
operations' times), but it slows more than they do: over ten minutes in
which the host's speed ranged 2.5-fold, the logs of re-index, index and
question times rose 0.64, 0.76 and 0.82 times as fast as the log of the
probe time, and those rates held in both halves of the ten minutes. In
slower stretches later (probes 1.7-2x their idle time), questions slowed
as much as the probe and re-indexing 0.5-0.8 times as fast. So timings
of ``index_corpus`` are corrected with ``INDEX_ELASTICITY`` and all
others, questions included, in full (elasticity 1). With it the standard
deviation of the logs of corrected re-index and index times fell to
0.062 and 0.065, from 0.110 and 0.091 with full correction and 0.17 and
0.21 uncorrected.
``REFERENCE_PROBE_S`` is about the probe's time on an idle vCPU of the
host the benchmark was calibrated on; with ``INDEX_ELASTICITY`` it
defines the unit of every corrected time, and neither may change between
commits that are compared.
"""

from __future__ import annotations

import bisect
import hashlib
import signal
import statistics
import time

REFERENCE_PROBE_S = 1.5e-4
PROBE_EVERY_S = 0.01
WINDOW_S = 0.1
INDEX_ELASTICITY = 0.7


def _reference_task() -> int:
    """A fixed mix of hashing and dict work in Python."""
    total = 0
    table: dict = {}
    for i in range(120):
        key = hashlib.md5(str(i).encode("ascii")).digest()
        table[key[:4]] = i
        total += key[0] + len(table)
    return total


class HostSpeed:
    """Probe samples taken on a timer, and the corrections they imply."""

    def __init__(self):
        self.starts: list = []  # ascending
        self.ends: list = []
        self._previous = None

    @property
    def seconds(self) -> list:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def probe(self, *_signal_args) -> None:
        started = time.perf_counter()
        _reference_task()
        self.starts.append(started)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        """Probe now and then every ``PROBE_EVERY_S`` until :meth:`stop`."""
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def correct(self, start: float, end: float, elasticity: float = 1.0) -> float:
        """The corrected duration of an operation that ran from start to end."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)
        inside = sum(min(self.ends[k], end) - self.starts[k] for k in range(first, last))
        low = bisect.bisect_left(self.starts, start - WINDOW_S)
        high = bisect.bisect_right(self.starts, end + WINDOW_S)
        if low == high:
            raise RuntimeError("no probe ran near the operation; was the timer started?")
        local = statistics.median(self.ends[k] - self.starts[k] for k in range(low, high))
        return (end - start - inside) * (REFERENCE_PROBE_S / local) ** elasticity
