"""Shared numeric helpers."""

from __future__ import annotations

import numpy as np


def row_entropies_bits(rows: np.ndarray) -> np.ndarray:
    """Entropy in bits of every row of a 2-D array of distributions, in any layout.

    Each row is summed left to right (fold_planes), so its bits depend on
    neither the array's layout nor the other rows.
    """
    rows = np.asarray(rows, dtype=float)
    return plane_entropies_bits(rows.T.copy())


def segment_dots(x: np.ndarray, y: np.ndarray, bounds) -> np.ndarray:
    """x[a:b] @ y[a:b] for each pair of consecutive bounds a, b, bitwise.

    x and y are contiguous 1-D arrays. Each run of segments of one length
    k is one stacked matmul, (n, 1, k) @ (n, k, 1): numpy's matmul loop
    makes, for every stack item, the BLAS dot call that `@` makes on the
    two vectors alone, so every dot keeps its bits. A single gemm or
    einsum over the run would not: BLAS sums those in another order.
    """
    bounds = np.asarray(bounds)
    sizes = bounds[1:] - bounds[:-1]
    out = np.empty(len(sizes))
    if not len(sizes):
        return out
    edges = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), len(sizes)]
    for a, b in zip(edges, edges[1:]):
        lo, hi, k = bounds[a], bounds[b], sizes[a]
        out[a:b] = (x[lo:hi].reshape(b - a, 1, k) @ y[lo:hi].reshape(b - a, k, 1)).ravel()
    return out


def fold_planes(planes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.0 + planes[0] + planes[1] + ..., added left to right, for the planes (rows) of a 2-D array in any layout.

    np.add.reduce over axis 0 of a C-contiguous array adds the planes in
    order where a plane holds two or more entries: its inner loop runs
    along each plane. It would sum a single column as one contiguous
    vector, in its own order, so a lone column is added plane by plane;
    its fold is the one it gets beside other columns.
    """
    if planes.shape[1:] != (1,):
        return np.add.reduce(np.ascontiguousarray(planes), axis=0, out=out)
    if out is None:
        out = np.empty(1)
    out[...] = 0.0
    for plane in planes:
        out += plane
    return out


def plane_entropies_bits(planes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Entropy in bits, with 0*log(0) = 0, of each column of planes, summed left to right (fold_planes).

    The planes are overwritten by the entropy terms. Every entry that is
    not positive, NaN and -0.0 included, becomes 1.0, whose term is 0.0;
    when the only such entries are zeros, adding (planes == 0) replaces
    them without a masked copy.
    """
    low = planes.min(initial=1.0)
    if low == 0.0:
        np.add(planes, planes == 0.0, out=planes)
    elif not low > 0.0:
        np.copyto(planes, 1.0, where=~(planes > 0.0))
    planes *= np.log2(planes)
    out = fold_planes(planes, out)
    return np.negative(out, out=out)
