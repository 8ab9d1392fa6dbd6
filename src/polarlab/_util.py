"""Shared numeric helpers."""

from __future__ import annotations

import numpy as np


def row_entropies_bits(rows: np.ndarray) -> np.ndarray:
    """Entropy in bits of every row of a C- or F-contiguous 2-D array of distributions.

    Rows of at most 128 entries are summed in the order of numpy's
    rows.sum(axis=1) on their layout (fold_planes); a one-row array counts
    as C layout.
    """
    rows = np.asarray(rows, dtype=float)
    if not (rows.flags.c_contiguous or rows.flags.f_contiguous):
        raise ValueError("rows must be C- or F-contiguous")
    return plane_entropies_bits(rows.T.copy(), rows.flags.c_contiguous)


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


def fold_planes(planes: np.ndarray, c_layout: bool, out: np.ndarray | None = None) -> np.ndarray:
    """planes[0] + planes[1] + ..., bitwise rows.sum(axis=1) for the rows of planes.T.

    numpy sums each row of rows = planes.T in an order set by the layout
    of rows, and this fold reproduces it for rows of at most 128 entries:
    left to right in F layout (c_layout False), and likewise in C layout
    for rows shorter than 8; longer C rows are summed into 8 accumulators,
    entry v into accumulator v mod 8, which are then added pairwise and
    followed by the entries left over, and the sum is added to 0.0 (which
    turns -0.0 into 0.0). A one-row array sums as C layout. The C fold
    accumulates in planes, which it overwrites.
    """
    size = len(planes)
    if not c_layout or size < 8:
        return np.add.reduce(planes, axis=0, out=out)
    acc = planes[:8]
    for v in range(8, size - size % 8, 8):
        acc += planes[v : v + 8]
    acc[0::2] += acc[1::2]
    acc[0::4] += acc[2::4]
    out = np.add(acc[0], acc[4], out=out)
    for v in range(size - size % 8, size):
        out += planes[v]
    out += 0.0
    return out


def plane_entropies_bits(planes: np.ndarray, c_layout: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Entropy in bits, with 0*log(0) = 0, of each column of planes, the rows of planes.T.

    Each is summed as numpy sums the rows of planes.T laid out as c_layout
    says (fold_planes). The planes are overwritten by the entropy terms.
    Every entry that is not positive, NaN and -0.0 included, becomes 1.0,
    whose term is 0.0; when the only such entries are zeros, adding
    (planes == 0) replaces them without a masked copy.
    """
    low = planes.min(initial=1.0)
    if low == 0.0:
        np.add(planes, planes == 0.0, out=planes)
    elif not low > 0.0:
        np.copyto(planes, 1.0, where=~(planes > 0.0))
    planes *= np.log2(planes)
    out = fold_planes(planes, c_layout, out)
    return np.negative(out, out=out)
