"""Masked cosine scoring, the vector index's inner loop.

The kernel has a numba ``@njit`` implementation and a pure-numpy
fallback. The fallback is selected when numba is missing or when the
``VERDOC_NO_NUMBA`` environment variable is set (checked at import time).
The two paths agree to float rounding; ``benchmarks/bench_kernels.py``
compares their speed. The line diff's LCS kernel is numpy only and lives
in :mod:`verdoc.changes`; it fills a diagonal band of the table, not the
whole table, so its memory is O(N*D) for N lines and D edits.
"""

from __future__ import annotations

import os

import numpy as np

if os.environ.get("VERDOC_NO_NUMBA"):
    HAS_NUMBA = False
else:
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:
        HAS_NUMBA = False


def _masked_scores_numpy(
    matrix: np.ndarray, norms: np.ndarray, query: np.ndarray, qnorm: float, mask: np.ndarray
) -> np.ndarray:
    """Cosine of ``query`` against every unmasked row; masked rows get -2."""
    out = np.full(matrix.shape[0], -2.0)
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return out
    if qnorm == 0.0:
        out[idx] = 0.0
        return out
    dots = matrix[idx] @ query
    denom = norms[idx] * qnorm
    scores = np.zeros(idx.size)
    safe = denom > 0.0
    scores[safe] = dots[safe] / denom[safe]
    out[idx] = scores
    return out


if HAS_NUMBA:

    @njit(cache=True)
    def _masked_scores_numba(matrix, norms, query, qnorm, mask):  # pragma: no cover
        n = matrix.shape[0]
        d = matrix.shape[1]
        out = np.full(n, -2.0)
        for i in range(n):
            if not mask[i]:
                continue
            s = 0.0
            for j in range(d):
                s += matrix[i, j] * query[j]
            denom = norms[i] * qnorm
            out[i] = s / denom if denom > 0.0 else 0.0
        return out


def masked_scores(
    matrix: np.ndarray, norms: np.ndarray, query: np.ndarray, qnorm: float, mask: np.ndarray
) -> np.ndarray:
    """Cosine scores of ``query`` against unmasked rows (-2.0 elsewhere)."""
    if HAS_NUMBA:
        return _masked_scores_numba(matrix, norms, query, qnorm, mask)
    return _masked_scores_numpy(matrix, norms, query, qnorm, mask)
