#!/usr/bin/env python3
"""Benchmark the numba masked-scoring kernel against its pure-numpy fallback.

Runs both implementations in one process and prints a timing table. The
package itself selects the path at import time: set VERDOC_NO_NUMBA=1 to
force the fallback everywhere.

Usage:
    python benchmarks/bench_kernels.py [--entries N] [--dimension N] [--repeat N]
"""

import argparse
import time

import numpy as np

from verdoc import _kernels


def time_call(fn, *args, repeat=5):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_scores(entries, dimension, repeat):
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(entries, dimension))
    norms = np.linalg.norm(matrix, axis=1)
    query = rng.normal(size=dimension)
    qnorm = float(np.linalg.norm(query))
    mask = rng.random(entries) > 0.3
    rows = []
    numpy_time, numpy_scores = time_call(
        _kernels._masked_scores_numpy, matrix, norms, query, qnorm, mask, repeat=repeat
    )
    rows.append(("masked_scores", "numpy", numpy_time))
    if _kernels.HAS_NUMBA:
        _kernels._masked_scores_numba(matrix[:4], norms[:4], query, qnorm, mask[:4])
        numba_time, numba_scores = time_call(
            _kernels._masked_scores_numba, matrix, norms, query, qnorm, mask, repeat=repeat
        )
        rows.append(("masked_scores", "numba", numba_time))
        assert np.allclose(numpy_scores, numba_scores, atol=1e-12), "paths disagree"
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--entries", type=int, default=200_000, help="vector index rows")
    parser.add_argument("--dimension", type=int, default=256)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"numba available: {_kernels.HAS_NUMBA}")
    rows = bench_scores(args.entries, args.dimension, args.repeat)

    print(f"\n{'kernel':<16} {'path':<7} {'best time':>12}")
    by_kernel = {}
    for kernel, path, seconds in rows:
        print(f"{kernel:<16} {path:<7} {seconds * 1000:>10.2f}ms")
        by_kernel.setdefault(kernel, {})[path] = seconds
    for kernel, times in by_kernel.items():
        if "numba" in times:
            print(f"{kernel}: numba speedup {times['numpy'] / times['numba']:.1f}x")


if __name__ == "__main__":
    main()
