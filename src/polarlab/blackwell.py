"""Blackwell measures: canonical finitely-supported meta-probability measures.

The Blackwell measure of a group-bound channel places, on each output with
positive probability under uniform input, an atom at the input posterior of
that output. It is balanced (its mean is the uniform distribution) and it
determines the channel's equivalence class, so equality of canonical forms
is the package's channel-equivalence test.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._util import row_entropies_bits
from .channels import Channel
from .groups import Group, make_group

DEFAULT_MERGE_TAU = 1e-9
# The least positive merge tolerance. The grid keys floor(q / tau) of
# posterior entries up to 1 then stay below 1e18, well inside int64; at a
# smaller tau they overflow, and far-apart atoms would share a key.
MERGE_TAU_MIN = 1e-18
BALANCE_TOL = 1e-9
MASS_TOL = 1e-12
# How far an atom's posterior row, or a measure's weights, may sum from 1.
SUM_TOL = 1e-9
# Candidate atom pairs tested at once by the merge sweep; bounds its memory.
_PAIR_CHUNK = 1 << 13


def entropy(p: np.ndarray) -> float:
    """Entropy of a probability vector, in bits."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("expected a 1-D probability vector")
    if p.min() < -MASS_TOL or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("vector is not a probability distribution")
    return float(row_entropies_bits(np.ascontiguousarray(p)[None])[0])


def _aggregate(weights: np.ndarray, posteriors: np.ndarray, labels: np.ndarray, k: int):
    """Merge atoms sharing a label: weights add, posteriors weight-average.

    A cluster whose member posteriors are bitwise identical keeps that row
    and is not averaged, so duplicate outputs merge without rounding noise.
    The other clusters average over weights scaled by the power of two that
    brings the cluster's total weight into [0.5, 1): subnormal weights would
    otherwise underflow w * q to zero and leave a 0/0 posterior. The scaling
    is exact, so it changes no result that did not underflow. Sums run in
    atom order, one posterior column at a time, over every atom; only the
    averaged clusters' sums are kept, each over its own members, so no
    member is gathered. The merged posteriors come back column-major.
    """
    cols = posteriors.T
    first = np.full(k, len(labels), dtype=np.int64)
    np.minimum.at(first, labels, np.arange(len(labels)))
    merged = cols.take(first, axis=1)
    averaged = np.zeros(k, dtype=bool)
    averaged[labels[(cols != merged.take(labels, axis=1)).any(axis=0)]] = True
    w_new = np.bincount(labels, weights, minlength=k)
    if averaged.any():
        _, exponent = np.frexp(w_new)
        scaled = np.ldexp(weights, -exponent[labels])
        total = np.ldexp(w_new[averaged], -exponent[averaged])
        for row, col in zip(merged, cols):
            row[averaged] = np.bincount(labels, scaled * col, minlength=k)[averaged] / total
    return w_new, merged.T


def _grid_keys(cols: np.ndarray, tau: float) -> np.ndarray:
    """Cells floor(q / tau) of the tau-wide grid as int64, for posterior columns `cols`."""
    keys = np.divide(cols, tau, out=np.empty(cols.shape))
    np.floor(keys, out=keys)
    return keys.astype(np.int64)


def _packed_keys(keys: np.ndarray) -> np.ndarray:
    """int64 key rows in the same lexicographic order as the int64 key rows `keys`.

    Each row of keys, offset by its minimum, takes as many bits as its
    largest offset needs; constant rows take none. Consecutive rows share
    one packed row while their bits fit in 63, the earlier row in the higher
    bits, so the packed columns, read as int64, are non-negative and compare
    as the columns of keys do (numpy sorts int64 faster than uint64). The
    grid keys of posterior entries in [-1, 2] at tau >= MERGE_TAU_MIN lie
    within 2**62 of each other, so each row fits in one word. The offsets
    overwrite keys.
    """
    offsets = keys.view(np.uint64)
    # modular uint64 arithmetic gives the true offsets, all below 2**64
    offsets -= keys.min(axis=1).view(np.uint64)[:, None]
    packed: list[np.ndarray] = []
    used = 0
    for row, top in zip(offsets, offsets.max(axis=1).tolist()):
        bits = top.bit_length()
        if not packed or used + bits > 63:
            packed.append(row)
            used = bits
        elif bits:
            packed[-1] <<= np.uint64(bits)
            packed[-1] |= row
            used += bits
    return np.array(packed).view(np.int64)


def _bucket_labels(
    posteriors: np.ndarray, tau: float, seg: np.ndarray | None = None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Cluster labels from a tau-wide grid (exact duplicates when tau is 0).

    Labels number the distinct keys in lexicographic order, as
    np.unique(axis=0, return_inverse=True) would, from one sort of the
    packed grid keys (of the rows when tau is 0). Given `seg`, the rows'
    non-decreasing segment ids, the id is the leading key, so no two
    segments share a label and labels keep the segments in order.
    Returns (labels, None), or (None, order) when the keys are distinct;
    order is then the keys' lexicographic order (the rows' when tau is 0).
    Keys packed into one row are sorted by argsort, which need not be
    stable: equal keys get one label whatever their order, and distinct
    keys have one order.
    """
    if tau > 0:
        keys = _grid_keys(posteriors.T, tau)
        keys = _packed_keys(keys if seg is None else np.vstack([seg, keys]))
    else:
        keys = posteriors.T if seg is None else np.vstack([seg, posteriors.T])
    starts = np.empty(keys.shape[1], dtype=bool)
    starts[0] = True
    if len(keys) == 1:
        order = np.argsort(keys[0])
        sorted_keys = keys[0].take(order)
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    else:
        order = np.lexsort(keys[::-1])
        sorted_keys = keys.take(order, axis=1)
        np.any(sorted_keys[:, 1:] != sorted_keys[:, :-1], axis=0, out=starts[1:])
    if starts.all():
        return None, order
    labels = np.empty(len(order), dtype=np.int64)
    labels[order] = starts.cumsum() - 1
    return labels, None


def _window_pairs(ends: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """All index pairs i < j < ends[i], in chunks of at most _PAIR_CHUNK.

    Pairs come in order of i, then j.
    """
    counts = ends - np.arange(1, len(ends) + 1)
    np.maximum(counts, 0, out=counts)
    stop = counts.cumsum()
    start = stop - counts
    for lo in range(0, int(stop[-1]), _PAIR_CHUNK):
        pair = np.arange(lo, min(lo + _PAIR_CHUNK, int(stop[-1])))
        i = stop.searchsorted(pair, side="right")
        yield i, pair - start[i] + i + 1


def _roots(parent: np.ndarray) -> np.ndarray:
    """Compress the forest `parent` in place until every entry is a root."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent[:] = grand


def _union(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the pairs (a, b) in the forest `parent`, rooting each tree at its least index."""
    while True:
        ra, rb = _roots(parent)[a], parent[b]
        split = ra != rb
        if not split.any():
            return
        ra, rb = ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))


def _window_ends(first: np.ndarray, tau: float, seg: np.ndarray | None) -> np.ndarray:
    """ends[i]: one past the last atom of i's segment whose first coordinate is within tau.

    `first` is sorted within each segment. Across segments it is not, so
    each value is replaced by its rank among all values: q <= t exactly
    when fewer values lie below q than lie at or below t. The keys
    seg * (n + 1) + rank then sort globally, and one search per atom finds
    its window without leaving its segment.
    """
    limit = first + tau
    if seg is None:
        return first.searchsorted(limit, side="right")
    values = np.sort(first)
    stride = len(first) + 1
    keys = seg * stride + values.searchsorted(first, side="left")
    return keys.searchsorted(seg * stride + values.searchsorted(limit, side="right"))


def _sweep_labels(
    posteriors: np.ndarray, tau: float, seg: np.ndarray | None = None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Connected-component labels joining every atom pair within tau in L-infinity.

    Candidate pairs are the atoms within tau of each other in the first
    coordinate of the lexicographic order; they are tested in chunks, and
    only the close ones are joined. Given `seg`, the rows' non-decreasing
    segment ids, the id leads the order and windows end at segment ends.
    Components are numbered by their first atom in that order. Returns
    (labels, None), or (None, order) when no pair joins; order is then the
    rows' lexicographic order.
    """
    cols = posteriors.T
    order = np.lexsort((cols if seg is None else np.vstack([seg, cols]))[::-1])
    q = cols.take(order, axis=1)
    ends = _window_ends(q[0], tau, seg)
    parent = np.arange(len(order))
    joined = False
    for i, j in _window_pairs(ends):
        close = np.abs(q.take(j, axis=1) - q.take(i, axis=1)).max(axis=0) <= tau
        if close.any():
            _union(parent, i[close], j[close])
            joined = True
    if not joined:
        return None, order
    roots = _roots(parent)
    rank = (roots == np.arange(len(order))).cumsum() - 1
    labels = np.empty(len(order), dtype=np.int64)
    labels[order] = rank[roots]
    return labels, None


def _unmerged_in_row_order(labels: np.ndarray, seg: np.ndarray, count: int) -> np.ndarray:
    """The labels, renumbered so that each segment of which they merge no rows keeps its rows' order.

    A pass numbers each segment's labels after the earlier segments', in
    the order it sorted the rows. Alone, a segment of which a pass merges
    nothing is not merged, so its rows stay in their order, and a later
    merge sums its members in that order. Overwrites labels.
    """
    rows = np.bincount(seg, minlength=count)
    label_seg = np.empty(labels.max() + 1, dtype=seg.dtype)
    label_seg[labels] = seg
    clusters = np.bincount(label_seg, minlength=count)
    kept = clusters == rows
    if kept.any():
        # a segment's first label less its first row
        shift = (clusters.cumsum() - clusters) - (rows.cumsum() - rows)
        at = np.flatnonzero(kept[seg])
        labels[at] = at + shift[seg[at]]
    return labels


def _canonical_atoms(weights, posteriors, tau: float):
    """Prune, merge, lex-sort and normalize atoms.

    Returns (weights, posteriors, origin) where origin[i] is the final atom
    index of input atom i, or -1 if it was pruned for non-positive weight.
    """
    return _canonical_segments(weights, posteriors, tau, track_origin=True)[:3]


def _canonical_segments(
    weights, posteriors, tau: float, seg=None, count: int = 1,
    track_origin: bool = False, check_rows: bool = False,
):
    """Canonicalize `count` atom sets laid end to end, segment ids in `seg`.

    `seg` gives each row's segment, 0 to count - 1, non-decreasing; None
    means one segment. Every pass keeps the segments apart and acts on each
    as it would on that segment alone, so each segment's atoms come out
    bitwise as _canonical_atoms makes them. With check_rows, a posterior
    row of positive weight must sum to 1 within SUM_TOL.
    Returns (weights, posteriors, origin, seg), segments in order.
    """
    if not (tau == 0 or tau >= MERGE_TAU_MIN):
        raise ValueError(f"merge_tau must be 0 or at least {MERGE_TAU_MIN!r}, got {tau!r}")
    weights = np.asarray(weights, dtype=float).ravel()
    posteriors = np.asarray(posteriors, dtype=float)
    if posteriors.ndim != 2 or len(weights) != posteriors.shape[0]:
        raise ValueError("atom arrays have mismatched shapes")
    keep = weights > 0.0
    if not keep.all():
        weights = weights[keep]
        # along the rows of the layout the posteriors are stored in: a
        # column-major array compressed by rows reads across its columns
        if posteriors.flags.f_contiguous and not posteriors.flags.c_contiguous:
            posteriors = posteriors.T.compress(keep, axis=1).T
        else:
            posteriors = posteriors.compress(keep, axis=0)
        if seg is not None:
            seg = seg[keep]
    if check_rows and (np.abs(posteriors.sum(axis=1) - 1.0) > SUM_TOL).any():
        raise ValueError("posterior rows must sum to 1")
    # A copy laid out column by column, as the passes below read the
    # posteriors; adding 0.0 turns -0.0 into 0.0.
    posteriors = np.add(posteriors.T, 0.0, out=np.empty(posteriors.shape[::-1])).T
    sizes = np.array([len(weights)]) if seg is None else np.bincount(seg, minlength=count)
    if not sizes.all():
        raise ValueError("measure has no atoms with positive weight")
    origin = None
    if track_origin:
        origin = np.full(len(keep), -1, dtype=np.int64)
        origin[keep] = np.arange(len(weights))

    def apply(labels: np.ndarray) -> None:
        if origin is not None:
            live = origin >= 0
            origin[live] = labels[origin[live]]

    def by_segment() -> tuple:
        # the helpers take no segment ids when there is one segment
        return () if seg is None else (seg,)

    def in_order(labels: np.ndarray) -> np.ndarray:
        # at tau = 0 the bucket pass's key order is the output's order
        return labels if seg is None or tau == 0 else _unmerged_in_row_order(labels, seg, count)

    def merge(labels: np.ndarray) -> None:
        nonlocal weights, posteriors, seg
        k = labels.max() + 1
        weights, posteriors = _aggregate(weights, posteriors, labels, k)
        if seg is not None:
            merged = np.empty(k, dtype=seg.dtype)
            merged[labels] = seg
            seg = merged
        apply(labels)

    # Merge until a pass merges nothing; the order in which that pass sorted
    # the rows orders the output, so they are not sorted again. A merging
    # bucket pass ends the loop only at tau = 0, where the rows it leaves are
    # the distinct rows numbered in lexicographic order, or on a single row.
    # After a merging bucket pass and a sweep that joins nothing, another
    # bucket pass could merge only if a merged row left its members' cell:
    # the rows are otherwise one per distinct cell. A segment whose own loop
    # would have stopped is one row per distinct cell with no pair within
    # tau, so the passes that other segments still need leave it as it is.
    while True:
        labels, order = _bucket_labels(posteriors, tau, *by_segment())
        bucketed = labels is not None
        if bucketed:
            labels = in_order(labels)
            # one member's row for each merged atom, all in its grid cell
            member = np.empty(labels.max() + 1, dtype=np.int64)
            member[labels] = np.arange(len(labels))
            cells = posteriors.T.take(member, axis=1)
            merge(labels)
        if tau == 0 or len(weights) == len(sizes):
            break
        labels, order = _sweep_labels(posteriors, tau, *by_segment())
        if labels is not None:
            merge(in_order(labels))
        elif not bucketed or np.array_equal(
            _grid_keys(posteriors.T, tau), _grid_keys(cells, tau)
        ):
            break
    if order is None:
        order = np.arange(len(weights))

    # row-major again, as the row sums below and every reader expect
    weights, posteriors = weights[order], posteriors[order]
    if origin is not None:
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))
        apply(position)
    # Dividing by a sum of exactly 1 changes nothing, so every segment is
    # divided. Each total is summed on its own slice, in the order a
    # segment alone would sum it.
    if seg is None:
        totals = weights.sum()
    else:
        bounds = np.searchsorted(seg, np.arange(count + 1)).tolist()
        totals = np.array([weights[a:b].sum() for a, b in zip(bounds, bounds[1:])])
        totals = np.repeat(totals, np.diff(bounds))
    weights = weights / totals
    posteriors = posteriors / posteriors.sum(axis=1)[:, None]
    return weights, posteriors, origin, seg


class BlackwellMeasure:
    """Canonical balanced measure: positive weights on lex-sorted posteriors.

    Construction canonicalizes: zero-weight atoms are pruned, posteriors
    within merge_tau in L-infinity are merged (weights summed, posteriors
    weight-averaged), and atoms are sorted lexicographically by posterior.
    merge_tau is 0, which merges exact duplicates only, or at least
    MERGE_TAU_MIN. Every remaining posterior row must sum to 1 within
    SUM_TOL: merging and sorting read the rows as given.
    """

    def __init__(self, group: Group, weights, posteriors, merge_tau: float = DEFAULT_MERGE_TAU):
        ((weights, posteriors),), _ = _canonical_measures(group, weights, posteriors, merge_tau)
        self.group = group
        self.weights = weights
        self.posteriors = posteriors

    @classmethod
    def _canonical(cls, group: Group, weights: np.ndarray, posteriors: np.ndarray) -> "BlackwellMeasure":
        """The measure of atoms that are already canonical, validated and read-only."""
        m = cls.__new__(cls)
        m.group, m.weights, m.posteriors = group, weights, posteriors
        return m

    @property
    def atom_count(self) -> int:
        return len(self.weights)

    def equals(self, other: "BlackwellMeasure", w_tol: float = 1e-10, q_tol: float = 1e-9) -> bool:
        """Atom-wise equality up to tolerances.

        Atoms are matched greedily within a tolerance window rather than by
        index: distinct atoms may share their leading coordinates exactly
        (e.g. a posterior and its input reflection), so float dust can swap
        their canonical order between two otherwise equal measures.
        """
        if self.group != other.group or self.atom_count != other.atom_count:
            return False
        starts = other.posteriors[:, 0]
        used = np.zeros(other.atom_count, dtype=bool)
        for w, q in zip(self.weights, self.posteriors):
            lo = int(np.searchsorted(starts, q[0] - q_tol, side="left"))
            hi = int(np.searchsorted(starts, q[0] + q_tol, side="right"))
            for j in range(lo, hi):
                if used[j] or abs(other.weights[j] - w) > w_tol:
                    continue
                if np.abs(other.posteriors[j] - q).max() <= q_tol:
                    used[j] = True
                    break
            else:
                return False
        return True

    def identical(self, other: "BlackwellMeasure") -> bool:
        return (
            self.group == other.group
            and self.atom_count == other.atom_count
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.posteriors, other.posteriors)
        )

    def realized_kernel(self) -> np.ndarray:
        """Kernel W(y_i|x) = |G| w_i q_i(x), one column per atom, rows renormalized.

        Each input's entries are summed in atom order.
        """
        columns = self.posteriors * self.weights[:, None] * self.group.size
        return (columns / columns.sum(axis=0)).T

    def realize(self) -> Channel:
        """Canonical channel realization: one output per atom, labeled a0, a1, ..."""
        outputs = tuple(f"a{i}" for i in range(self.atom_count))
        return Channel(self.realized_kernel(), outputs, self.group)

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "atoms": [
                {"w": float(w), "q": [float(v) for v in q]}
                for w, q in zip(self.weights, self.posteriors)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BlackwellMeasure":
        group = make_group(obj["group"])
        weights = [a["w"] for a in obj["atoms"]]
        posteriors = [a["q"] for a in obj["atoms"]]
        return cls(group, np.array(weights), np.array(posteriors))

    def __repr__(self) -> str:
        return f"BlackwellMeasure({self.atom_count} atoms on {self.group!r})"


def _canonical_measures(
    group: Group, weights, posteriors, merge_tau: float, seg=None, count=1, track_origin=False
):
    """Validated canonical (weights, posteriors) of each segment, read-only, and the origin.

    The origin is as _canonical_segments gives it with track_origin, else None.
    """
    weights = np.asarray(weights, dtype=float)
    posteriors = np.asarray(posteriors, dtype=float)
    # NaN passes every later check and would become an INT64_MIN grid key
    if not (np.isfinite(weights).all() and np.isfinite(posteriors).all()):
        raise ValueError("atom weights and posteriors must be finite")
    weights, posteriors, origin, seg = _canonical_segments(
        weights, posteriors, merge_tau, seg, count, track_origin, check_rows=True
    )
    if posteriors.shape[1] != group.size:
        raise ValueError("posterior length does not match group size")
    if posteriors.min() < -MASS_TOL:
        raise ValueError("posterior entries must be non-negative")
    if seg is None:
        bounds = [0, len(weights)]
        _check_weights(weights, posteriors, group.size)
    else:
        bounds = np.searchsorted(seg, np.arange(count + 1))
        _check_segments(weights, posteriors, bounds[:-1], group.size)
        bounds = bounds.tolist()
    # the segments are views, read-only with their arrays
    weights.setflags(write=False)
    posteriors.setflags(write=False)
    return [(weights[a:b], posteriors[a:b]) for a, b in zip(bounds, bounds[1:])], origin


def _check_weights(weights: np.ndarray, posteriors: np.ndarray, size: int) -> None:
    """Canonical weights must sum to 1 and put the mean posterior at uniform.

    `weights` is one measure's weight vector, or a block whose rows are the
    weights of measures on the same posteriors. NaN weights fail both.
    """
    if not (np.abs(weights.sum(axis=-1) - 1.0) <= SUM_TOL).all():
        raise ValueError("atom weights do not sum to 1")
    mean = weights @ posteriors
    if not np.abs(mean - 1.0 / size).max() <= BALANCE_TOL:
        raise ValueError("measure is not balanced: mean posterior is not uniform")


def _check_segments(weights: np.ndarray, posteriors: np.ndarray, starts: np.ndarray, size: int) -> None:
    """_check_weights on measures laid end to end, each from its start on, by one segmented sum per check.

    The first measure that fails raises, with the message of the first
    check it fails, as _check_weights on each measure in turn would.
    """
    summed = np.abs(np.add.reduceat(weights, starts) - 1.0) <= SUM_TOL
    means = np.add.reduceat(weights[:, None] * posteriors, starts)
    good = summed & (np.abs(means - 1.0 / size).max(axis=1) <= BALANCE_TOL)
    if good.all():
        return
    if not summed[np.argmin(good)]:
        raise ValueError("atom weights do not sum to 1")
    raise ValueError("measure is not balanced: mean posterior is not uniform")


def _exact_merge(posteriors: np.ndarray, origin: np.ndarray) -> bool:
    """Whether each canonical atom in `origin` gathered bitwise-equal posterior rows only.

    `origin` records the canonicalization of atoms with these posterior
    rows (_canonical_segments with track_origin). Equal rows share a grid
    cell, so such a run merged in its first bucket pass alone: each atom's
    weight is its members' sum in atom order, no posterior was averaged,
    and the sweep joined nothing. Atoms of other weights on the same rows,
    pruned alike, merge into the same canonical atoms with the same sums
    (_replayed_weights).
    """
    keep = origin >= 0
    target = origin[keep]
    first = np.full(target.max() + 1, len(target), dtype=np.int64)
    np.minimum.at(first, target, np.arange(len(target)))
    # by columns, in which the raw posteriors of a step are laid out
    kept = posteriors.T.compress(keep, axis=1)
    return bool((kept == kept.take(first[target], axis=1)).all())


def _replayed_weights(group: Group, raw: np.ndarray, target: np.ndarray, posteriors: np.ndarray) -> np.ndarray:
    """The canonical weights of atom sets that merge as a recorded exact canonicalization did, as one block.

    Row r of `raw` holds one set's atom weights, all positive, on the rows
    that the record canonicalized (_exact_merge): atom a joins canonical
    atom target[a], and `posteriors` are the canonical posteriors. Row r of
    the returned read-only block is bitwise the weights of the measure that
    set's atoms construct: the same per-atom sums in atom order, divided by
    their own total (numpy sums each row of the C-contiguous block in the
    order it sums the row alone). The block passes the measure's weight
    checks, once for all its rows.
    """
    if not np.isfinite(raw).all():
        raise ValueError("atom weights and posteriors must be finite")
    count = len(posteriors)
    labels = (target + count * np.arange(len(raw))[:, None]).ravel()
    sums = np.bincount(labels, raw.ravel(), minlength=count * len(raw)).reshape(len(raw), count)
    weights = sums / sums.sum(axis=1, keepdims=True)
    _check_weights(weights, posteriors, group.size)
    weights.setflags(write=False)
    return weights


def blackwell_measure(w: Channel, merge_tau: float = DEFAULT_MERGE_TAU) -> BlackwellMeasure:
    """Blackwell measure of a group-bound channel under uniform input."""
    group = w.require_group()
    col_mass = w.kernel.sum(axis=0)
    live = col_mass > 0.0
    weights = col_mass[live] / group.size
    posteriors = (w.kernel[:, live] / col_mass[live]).T
    return BlackwellMeasure(group, weights, posteriors, merge_tau)


def canonicalize(m: BlackwellMeasure, merge_tau: float = DEFAULT_MERGE_TAU) -> BlackwellMeasure:
    """Re-canonicalize a measure at a (possibly coarser) merge tolerance."""
    return BlackwellMeasure(m.group, m.weights, m.posteriors, merge_tau)


def capacity_of_measure(m: BlackwellMeasure) -> float:
    """Symmetric capacity in bits: log2|G| minus the mean posterior entropy."""
    return float(np.log2(m.group.size) - m.weights @ row_entropies_bits(m.posteriors))


def merge_outputs(w: Channel, merge_tau: float = DEFAULT_MERGE_TAU) -> Channel:
    """Equivalent channel with same-posterior outputs combined, zero outputs pruned.

    Output columns are summed within each posterior cluster; a merged column
    keeps the label of its first member (lowest original column index).
    Columns end up in canonical order (lexicographic by posterior).
    """
    group = w.require_group()
    col_mass = w.kernel.sum(axis=0)
    weights = col_mass / group.size
    safe = np.where(col_mass > 0.0, col_mass, 1.0)
    posteriors = (w.kernel / safe).T
    merged_w, _, origin = _canonical_atoms(weights, posteriors, merge_tau)
    kernel = np.zeros((group.size, len(merged_w)))
    labels: list[str | None] = [None] * len(merged_w)
    for col in range(w.n_outputs):
        target = origin[col]
        if target < 0:
            continue
        kernel[:, target] += w.kernel[:, col]
        if labels[target] is None:
            labels[target] = w.outputs[col]
    return Channel(kernel, tuple(labels), group)


@dataclass(frozen=True, eq=False)
class JointSource:
    """Joint distribution p(u, x) of a guessing target U and a channel input X."""

    probs: np.ndarray
    group: Group

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2 or probs.shape[0] < 1:
            raise ValueError("joint source must be a 2-D matrix with at least one row")
        if probs.shape[1] != self.group.size:
            raise ValueError("joint source column count must match group size")
        if probs.min() < -MASS_TOL:
            raise ValueError("joint source entries must be non-negative")
        if abs(probs.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"joint source mass is {probs.sum()!r}, expected 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def m(self) -> int:
        return self.probs.shape[0]


def pc_probability(source: JointSource, target: Channel | BlackwellMeasure) -> float:
    """Optimal probability of guessing U from the channel output.

    For a channel: sum_y max_u sum_x p(u,x) W(y|x) (a deterministic decoder
    attains the optimum). For a measure: |G| * sum_i w_i * max_u <p(u,.), q_i>.
    Both forms agree on any channel realizing the measure.
    """
    if isinstance(target, Channel):
        if target.n_inputs != source.group.size:
            raise ValueError("channel input alphabet does not match source")
        scores = source.probs @ target.kernel
        return float(scores.max(axis=0).sum())
    if isinstance(target, BlackwellMeasure):
        if target.group != source.group:
            raise ValueError("measure group does not match source")
        scores = source.probs @ target.posteriors.T
        return float(target.group.size * (target.weights @ scores.max(axis=0)))
    raise TypeError(f"unsupported target type {type(target).__name__}")
