"""Shared numeric helpers."""

from __future__ import annotations

import numpy as np


def entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy -sum(p * log2 p) in bits, with 0*log(0) = 0."""
    p = np.asarray(p, dtype=float)
    nz = p > 0.0
    return float(-(p[nz] * np.log2(p[nz])).sum())


def row_entropies_bits(rows: np.ndarray) -> np.ndarray:
    """Entropy in bits of every row of a 2-D array of distributions."""
    rows = np.asarray(rows, dtype=float)
    nz = rows > 0.0
    # log2 runs over the whole array, 1.0 standing in for non-positive
    # entries, and the product is taken on positive entries only. Masking in
    # place avoids gathering and scattering rows[nz]; contrib keeps the
    # layout of rows, on which the summation order of the row sums depends.
    contrib = np.ones_like(rows)
    np.copyto(contrib, rows, where=nz)
    np.log2(contrib, out=contrib)
    np.multiply(contrib, rows, out=contrib, where=nz)
    return -contrib.sum(axis=1)
