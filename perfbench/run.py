"""verdoc's end-to-end benchmark: index and query seeded synthetic corpora.

Run from the repository root:

    python3 perfbench/run.py --workload index-docs --seed 1 --seconds 34 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
wraps each layer's public functions and reports per-layer metrics and the
tracing overhead instead. The report is printed first and the last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

The program is imported from ``src/`` next to this directory, never from
an installed copy. Exit codes: 0 when every check passed, 1 when a check
failed (the JSON line is still printed), 2 when the program is missing.
Scratch files live under ``.perfbench/`` in the repository root; the span
file of the traced run is kept there, everything else is removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_verdoc():
    """Put ``src/`` first on the path and import verdoc from there."""
    if not (SRC / "verdoc" / "__init__.py").is_file():
        raise ImportError(f"no verdoc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import verdoc

    if Path(verdoc.__file__).resolve().parent != (SRC / "verdoc").resolve():
        raise ImportError(f"verdoc was imported from {verdoc.__file__}, not from {SRC}")
    return verdoc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_verdoc()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out = ROOT / ".perfbench"
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
            run, metrics = workloads.measure_traced(
                args.workload, args.seed, args.seconds, work, spans_path
            )
        else:
            run, metrics = workloads.measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(args, run, metrics)
    correct = not run.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def report(args, run, metrics: dict) -> None:
    import hostspeed
    import stats

    mode = "traced, per traced unit" if args.trace else "untraced"
    print(f"# verdoc benchmark: workload={args.workload} seed={args.seed} ({mode})")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print(f"{'error_rate':40s} {run.failed / max(run.attempted, 1):16.6f} failed/attempted")
    if not args.trace:
        n = len(run.asks)
        print(f"# warm asks: {n}; highest admissible percentile: p{stats.highest_percentile(n)}")
        raw = [end - start for _, start, end in run.asks]
        print(f"# uncorrected ask p50: {stats.median(raw) * 1000:.6f} ms")
        raw = [end - start for start, end in run.reindex_spans]
        print(f"# uncorrected re-index median: {stats.median(raw):.6f} s of {len(raw)}")
    probes = run.speed.seconds
    print(f"# probes: {len(probes)}; median host speed factor: "
          f"{hostspeed.REFERENCE_PROBE_S / stats.median(probes):.4f}")
    for name, value in run.fallbacks.counts.items():
        print(f"# fallback {name}: {value} in the whole run")
    for problem in run.problems[:10]:
        print(f"CHECK FAILED: {problem}")
    if len(run.problems) > 10:
        print(f"CHECK FAILED: ... and {len(run.problems) - 10} more")


if __name__ == "__main__":
    sys.exit(main())
