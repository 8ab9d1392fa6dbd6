"""Arikan-style minus/plus transforms built from the group operation.

Channel-side transforms implement the kernels

    W-(y1,y2|u1)    = (1/|G|) sum_{u2} W(y1|u1+u2) W(y2|u2)
    W+(y1,y2,u1|u2) = (1/|G|) W(y1|u1+u2) W(y2|u2)

exactly. Measure-side transforms act directly on Blackwell atoms (pairwise
group convolutions of posteriors) and are the cheap path for deep
recursions; the channel-side transforms double as their cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._util import plane_entropies_bits, row_entropies_bits
from .blackwell import (
    DEFAULT_MERGE_TAU,
    BlackwellMeasure,
    _canonical_measures,
    _capacities,
    _exact_merge,
    _realized_columns,
    _replayed_measures,
    blackwell_measure,
)
from .channels import Channel, block_capacities, kernel_capacities
from .groups import Group

DEFAULT_ATOM_BUDGET = 20000
GAP_ROUTE_TOL = 1e-8

MINUS = "-"
PLUS = "+"


class AtomBudgetError(RuntimeError):
    """A transform would materialize more outputs/atoms than the budget allows."""


def normalize_path(path: str | Iterable[str]) -> str:
    steps = "".join(path)
    for ch in steps:
        if ch not in (MINUS, PLUS):
            raise ValueError(f"path step must be '-' or '+', got {ch!r}")
    return steps


def convolve_dist(group: Group, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Group convolution (p (*) q)(u1) = sum_{u2} p(u1+u2) q(u2)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (group.size,) or q.shape != (group.size,):
        raise ValueError("distributions must live on the given group")
    return p[group.add_table] @ q


def translate_dist(group: Group, p: np.ndarray, u: int) -> np.ndarray:
    """Shifted distribution p_u(x) = p(x + u)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (group.size,):
        raise ValueError("distribution must live on the given group")
    if not 0 <= int(u) < group.size:
        raise ValueError(f"element index {u} out of range")
    return p[group.add_table[:, int(u)]]


def _minus_kernel(group: Group, kern: np.ndarray) -> np.ndarray:
    """W-(y1,y2|u1) as a (|G|, n*n) array, column y1*n + y2 for output pair (y1, y2)."""
    shifted = kern[group.add_table]  # [u1, u2, y] = W(y | u1 + u2)
    out = np.einsum("uvy,vz->uyz", shifted, kern) / group.size
    return out.reshape(group.size, -1)


def minus_transform(w: Channel) -> Channel:
    """First synthetic channel: guess u1 from the output pair (y1, y2)."""
    group = w.require_group()
    labels = tuple(f"({a}|{b})" for a in w.outputs for b in w.outputs)
    return Channel(_minus_kernel(group, w.kernel), labels, group)


def plus_transform(w: Channel) -> Channel:
    """Second synthetic channel: guess u2 from (y1, y2) plus the revealed u1."""
    group = w.require_group()
    kern = w.kernel
    shifted = kern[group.add_table]  # [u1, u2, y] = W(y | u1 + u2)
    out = np.einsum("uvy,vz->vyzu", shifted, kern) / group.size
    labels = tuple(
        f"({a}|{b}|{group.element_label(g)})"
        for a in w.outputs
        for b in w.outputs
        for g in range(group.size)
    )
    return Channel(out.reshape(group.size, -1), labels, group)


class Chunk:
    """Measures of one group laid end to end as one segmented atom set.

    Atoms are rows and each measure is a segment; measures of equal atom
    count k sit side by side, in a block, so a block's atom pairs (i, j)
    form an (n, k, k) array and no pair is gathered by index. Pairs are
    ordered by segment, then row-major. Every kernel below runs once per
    block and gives each measure bitwise the result it gets alone: products
    are elementwise, sums run per row or in the order a lone measure sums
    them, and dots run per block as stacked matmuls, which make one BLAS
    call per measure, as a measure alone makes. Results come back in the
    order of `measures`, as lists or as float64 arrays.

    What a posterior matrix alone decides is computed once for the
    measures that share it, and kept in the table `plans` (see _step and
    _pair_entropies); chunks given one table share what it keeps. A matrix
    is keyed by its bytes (_matrix_key).
    """

    def __init__(self, measures: Sequence[BlackwellMeasure], plans: dict | None = None):
        self.measures = list(measures)
        self.group = self.measures[0].group
        # whether the table is a walk's, which outlives the chunk
        self.walk = plans is not None
        self.plans = {} if plans is None else plans
        # measure steps replayed from a plan
        self.replayed = 0
        counts = [m.atom_count for m in self.measures]
        self.order = sorted(range(len(counts)), key=counts.__getitem__)
        self.in_order = self.order == list(range(len(counts)))
        self.by_size = [self.measures[i] for i in self.order]
        self.weights = np.concatenate([m.weights for m in self.by_size])
        self.posteriors = np.concatenate([m.posteriors for m in self.by_size])
        k = np.array([counts[i] for i in self.order])
        self.starts = np.concatenate([[0], k.cumsum()])
        self.pair_starts = np.concatenate([[0], (k * k).cumsum()])
        edges = [0, *(np.flatnonzero(np.diff(k)) + 1).tolist(), len(k)]
        # (k, first segment, end segment) of each block
        self.blocks = [(int(k[a]), a, b) for a, b in zip(edges, edges[1:])]
        self._conv = None
        self._realized = None
        self._supports = None

    def __len__(self) -> int:
        return len(self.measures)

    def block(self, rows: np.ndarray, k: int, a: int, b: int) -> np.ndarray:
        """The rows of segments a to b, each of k atoms, as an (n, k, ...) array."""
        return rows[self.starts[a] : self.starts[b]].reshape(b - a, k, *rows.shape[1:])

    def unsort(self, results):
        """Per-segment results, a list or an array, back in the order of `measures`; `results` itself where that is its order."""
        if self.in_order:
            return results
        if isinstance(results, np.ndarray):
            out = np.empty_like(results)
            out[self.order] = results
            return out
        out = [None] * len(results)
        for position, index in enumerate(self.order):
            out[index] = results[position]
        return out

    @property
    def conv(self) -> np.ndarray:
        """(P, |G|) pair convolutions, shared by the minus and plus steps."""
        if self._conv is None:
            self._conv = _pair_convolutions(self)
        return self._conv

    @property
    def supports(self) -> dict[bytes, list[int]]:
        """The measures of each distinct posterior matrix, by its key (_matrix_key), in order of `measures`."""
        if self._supports is None:
            self._supports = {}
            for i, m in enumerate(self.measures):
                self._supports.setdefault(_matrix_key(self.plans, m.posteriors), []).append(i)
        return self._supports

    def capacities(self) -> np.ndarray:
        """capacity_of_measure of every measure."""
        bounds = self.starts.tolist()
        return self.unsort(_capacities(self.group.size, self.weights, self.posteriors, bounds))

    def realized_columns(self) -> np.ndarray:
        """The columns of the realized kernels as rows, laid out like the atoms; read-only, computed once.

        Each measure's rows are bitwise its realized_kernel().T.
        """
        if self._realized is None:
            out = []
            for k, a, b in self.blocks:
                lo, hi = self.starts[a], self.starts[b]
                weights, posteriors = self.weights[lo:hi], self.posteriors[lo:hi]
                out.append(_realized_columns(self.group.size, weights, posteriors, k))
            self._realized = np.concatenate(out)
            self._realized.setflags(write=False)
        return self._realized

    def pair_weights(self) -> np.ndarray:
        """w_i w_j of every atom pair."""
        w = self.weights
        return np.concatenate([
            (self.block(w, k, a, b)[:, :, None] * self.block(w, k, a, b)[:, None, :]).ravel()
            for k, a, b in self.blocks
        ])

    def children(self, weights, posteriors, merge_tau: float) -> list[BlackwellMeasure]:
        """The measures of raw atoms laid out like the pairs, len(weights) / P atoms per pair."""
        seg = None  # one measure needs no segment ids
        if len(self) > 1:
            per_pair = len(weights) // self.pair_starts[-1]
            seg = np.repeat(np.arange(len(self)), np.diff(self.pair_starts) * per_pair)
        measures = BlackwellMeasure.segmented(self.group, weights, posteriors, seg, len(self), merge_tau)
        return self.unsort(measures)

    def minus(self, merge_tau: float = DEFAULT_MERGE_TAU) -> list[BlackwellMeasure]:
        """Minus transform on atoms: weight w_i w_j at posterior p_i (*) p_j."""
        return self._step(MINUS, merge_tau)

    def plus(self, merge_tau: float = DEFAULT_MERGE_TAU) -> list[BlackwellMeasure]:
        """Plus transform on atoms.

        For each atom pair (i, j) and each revealed first input u1, the atom
        has weight w_i w_j (p_i (*) p_j)(u1) and posterior
        x -> p_i(u1 + x) p_j(x) / (p_i (*) p_j)(u1); zero-probability u1 are
        skipped.
        """
        return self._step(PLUS, merge_tau)

    def raw(self, sign: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(weights, posteriors, factor) of the raw children, laid out like the pairs.

        Pair p = (i, j) has one child c per column of factor, of weight
        w_i w_j factor[p, c]: a minus step gives it one, of factor 1, and a
        plus step |G|, child u1 of factor (p_i (*) p_j)(u1).
        """
        pair_weights = self.pair_weights()
        if sign == MINUS:
            # w_i w_j * 1.0 is w_i w_j
            return pair_weights, self.conv, np.ones((len(pair_weights), 1))
        size = self.group.size
        numer = np.empty((self.pair_starts[-1], size, size))
        for k, a, b in self.blocks:
            q = self.block(self.posteriors, k, a, b)
            # [n, i, j, u1, x] = p_i(u1 + x) p_j(x)
            out = numer[self.pair_starts[a] : self.pair_starts[b]].reshape(b - a, k, k, size, size)
            np.multiply(q[:, :, None, self.group.add_table], q[:, None, :, None, :], out=out)
        # the pair convolutions sum numer in order of x, as the einsum layout
        # of a measure alone does; a one-atom measure's layout sums its rows
        # pairwise instead
        conv = self.conv
        lone = [slice(self.pair_starts[a], self.pair_starts[b]) for k, a, b in self.blocks if k == 1]
        if lone:
            conv = conv.copy()
            for rows in lone:
                conv[rows] = numer[rows].sum(axis=2)
        # a row of zero convolution is zero and divides by 1; a NaN row stays
        # NaN, for the finite check
        numer /= np.where(conv > 0.0, conv, 1.0)[..., None]
        return (pair_weights[:, None] * conv).ravel(), numer.reshape(-1, size), conv

    def _step(self, sign: str, merge_tau: float) -> list[BlackwellMeasure]:
        """The children of every measure for one sign.

        Merging and sorting read only the raw posteriors, which a measure's
        posterior matrix alone decides; weights are summed over each merged
        atom's members. So when a step merges only bitwise-equal raw
        posteriors and prunes only atoms no weights can keep, a plan
        recorded from one measure (_record) gives every measure on the same
        posterior matrix its children by summing its own raw weights
        (_replay), bitwise as its own step would. Plans are recorded for a
        matrix that two measures of the chunk share, and for the first step
        of each sign that a walk's table sees, the root's, whose matrix the
        level below may share. They are kept in the table under
        ((sign, merge_tau), the matrix's bytes), with None where no plan is
        valid. The other measures, and any whose raw weight underflows to
        zero, take the general path together.
        """
        out: list = [None] * len(self)
        rest = []
        step = (sign, merge_tau)
        first = self.walk and all(key[0] != step for key in self.plans)
        for support, members in self.supports.items():
            key = (step, support)
            if key not in self.plans and (len(members) > 1 or first):
                first = False
                head, *members = members
                out[head], self.plans[key] = _record(self.measures[head], sign, merge_tau)
                _keep_matrix(self.plans, self.plans[key])
            plan = self.plans.get(key)
            if plan is None or not members:
                rest += members
                continue
            for i, child in zip(members, _replay(plan, [self.measures[i] for i in members])):
                if child is None:
                    rest.append(i)
                else:
                    out[i] = child
                    self.replayed += 1
        if rest:
            rest.sort()
            chunk = self if len(rest) == len(self) else Chunk([self.measures[i] for i in rest])
            for i, child in zip(rest, chunk._general(sign, merge_tau)):
                out[i] = child
        return out

    def _general(self, sign: str, merge_tau: float) -> list[BlackwellMeasure]:
        """The children of every measure, canonicalized from their raw atoms."""
        weights, posteriors, _ = self.raw(sign)
        return self.children(weights, posteriors, merge_tau)

    def gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """I(M) - I(M-) of every measure via both routes, as (via_transform, via_pairs) arrays; see capacity_gap.

        The routes are checked against each other measure by measure.
        """
        columns = self.realized_columns()
        via_transform = kernel_capacities(columns.T, self.starts) - _minus_capacities(self, columns)
        via_pairs = self._pair_gaps()
        off = np.abs(via_transform - via_pairs) > GAP_ROUTE_TOL
        if off.any():
            s = int(off.argmax())
            raise RuntimeError(
                "capacity-gap routes disagree "
                f"({float(via_transform[s])!r} vs {float(via_pairs[s])!r}): implementation fault"
            )
        return self.unsort(via_transform), self.unsort(via_pairs)

    def _pair_gaps(self) -> np.ndarray:
        """via_pairs, w h_conv w - w h, of every measure in order of by_size.

        One stacked matmul per block: on the shared (k, k) pair entropies
        when all its measures sit on one matrix, on their stack otherwise.
        """
        entropies = self._pair_entropies()
        out = np.empty(len(self))
        for k, a, b in self.blocks:
            entries = [entropies[i] for i in self.order[a:b]]
            h_conv, h = entries[0]
            if any(entry is not entries[0] for entry in entries):
                h_conv = np.stack([entry[0] for entry in entries])
                h = np.stack([entry[1] for entry in entries])
            w = self.block(self.weights, k, a, b)
            rows = w[:, None, :]
            out[a:b] = (rows @ h_conv @ w[:, :, None] - rows @ h[..., None]).ravel()
        return out

    def _pair_entropies(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(H(p_i (*) p_j) as a k x k array, H(p_i)) of every measure, in order of `measures`.

        They read the posteriors alone, so they are computed once per
        distinct posterior matrix, and kept in the table, under ("gap", the
        matrix's bytes), for a matrix that two measures of the chunk share.
        """
        supports = [(("gap", support), members) for support, members in self.supports.items()]
        todo = [members[0] for key, members in supports if key not in self.plans]
        fresh = {}
        if todo:
            chunk = self if len(todo) == len(self) else Chunk([self.measures[i] for i in todo])
            h_conv = _convolution_entropies(chunk)
            h_atoms = row_entropies_bits(chunk.posteriors)
            for s, index in enumerate(chunk.order):
                k = chunk.by_size[s].atom_count
                pairs = h_conv[chunk.pair_starts[s] : chunk.pair_starts[s + 1]].reshape(k, k)
                fresh[todo[index]] = (pairs, h_atoms[chunk.starts[s] : chunk.starts[s + 1]])
        out: list = [None] * len(self)
        for key, members in supports:
            entry = self.plans.get(key) or fresh[members[0]]
            if len(members) > 1:
                self.plans[key] = entry
            for i in members:
                out[i] = entry
        return out


class PlanTable(dict):
    """A walk's table of plans (see Chunk), which also keys its plans' children's matrices by identity.

    A plan's children all hold its `posteriors` array, which the table
    keeps alive as long as the walk, so `matrices` maps that array's id to
    its bytes (_keep_matrix), and _matrix_key reads the bytes of no such
    matrix again.
    """

    def __init__(self):
        super().__init__()
        self.matrices: dict[int, bytes] = {}


def _matrix_key(plans: dict, posteriors: np.ndarray) -> bytes:
    """The key of a posterior matrix in a table of plans: its bytes, looked up by id where a PlanTable keeps them."""
    key = plans.matrices.get(id(posteriors)) if isinstance(plans, PlanTable) else None
    return posteriors.tobytes() if key is None else key


def _keep_matrix(plans: dict, plan: "_Plan | None") -> None:
    """Key the posterior matrix of a plan's children by its array's id, in a PlanTable that keeps the plan."""
    if plan is not None and isinstance(plans, PlanTable):
        plans.matrices[id(plan.posteriors)] = plan.posteriors.tobytes()


class _Plan(NamedTuple):
    """How the raw children of any measure on one posterior matrix canonicalize.

    Kept raw child a has weight w_i w_j factor[a] for its atom pair
    pairs[a] = i k + j and joins child atom target[a]; `posteriors` are the
    children's canonical posteriors. factor is None where every factor is
    1, as on a minus step. Every other raw child has weight 0 whatever the
    weights.
    """

    pairs: np.ndarray
    factor: np.ndarray | None
    target: np.ndarray
    posteriors: np.ndarray


def _record(m: BlackwellMeasure, sign: str, merge_tau: float) -> tuple[BlackwellMeasure, _Plan | None]:
    """m's child by the general path, and the plan its canonicalization leaves, or None.

    A plan is valid when m's run pruned exactly the raw children of zero
    factor, so no weight of m underflowed, and merged only bitwise-equal
    posteriors (blackwell._exact_merge).
    """
    weights, posteriors, factor = Chunk([m]).raw(sign)
    ((w, q),), origin = _canonical_measures(m.group, weights, posteriors, merge_tau, track_origin=True)
    child = BlackwellMeasure._canonical(m.group, w, q)
    keep = origin >= 0
    if not (np.array_equal(keep, factor.ravel() > 0.0) and _exact_merge(posteriors, origin)):
        return child, None
    kept = np.flatnonzero(keep)
    pairs = kept // factor.shape[1]
    # the minus step's factors are all 1, and w_i w_j * 1.0 is w_i w_j
    return child, _Plan(pairs, None if sign == MINUS else factor.ravel()[kept], origin[kept], q)


def _replay(plan: _Plan, measures: list[BlackwellMeasure]) -> list[BlackwellMeasure | None]:
    """The children of measures on the plan's posterior matrix; None where a kept raw weight is 0.

    Raw weights are the products the general path forms. A NaN weight is
    not positive either, and the general path rejects it.
    """
    w = np.stack([m.weights for m in measures])
    raw = (w[:, :, None] * w[:, None, :]).reshape(len(w), -1)[:, plan.pairs]
    if plan.factor is not None:
        raw *= plan.factor
    live = (raw > 0.0).all(axis=1)
    out: list = [None] * len(measures)
    if live.any():
        group = measures[0].group
        children = _replayed_measures(group, raw if live.all() else raw[live], plan.target, plan.posteriors)
        for i, child in zip(np.flatnonzero(live), children):
            out[i] = child
    return out


def _convolve_block(r: np.ndarray, table: np.ndarray) -> np.ndarray:
    """out[n, i, j, u] = sum_v r[n, i, u + v] r[n, j, v] for a block r of n measures of k atoms.

    One einsum. For two or more atoms it sums in order of v, whether it
    runs on one measure or on a stack of them; a one-atom measure's einsum
    sums in another order, so each runs alone.
    """
    if r.shape[1] > 1:
        # [n, i, u, v] = r[n, i, u + v]
        return np.einsum("niuv,njv->niju", r[:, :, table], r)
    return np.stack([np.einsum("iuv,jv->iju", row[:, table], row) for row in r])


def _pair_convolutions(chunk: Chunk) -> np.ndarray:
    """(P, |G|) posteriors p_i (*) p_j of every measure's ordered atom pairs."""
    table = chunk.group.add_table
    out = np.empty((chunk.pair_starts[-1], chunk.group.size))
    for k, a, b in chunk.blocks:
        block = out[chunk.pair_starts[a] : chunk.pair_starts[b]]
        block.reshape(b - a, k, k, -1)[...] = _convolve_block(chunk.block(chunk.posteriors, k, a, b), table)
    return out


# Floats of one tile's planes (see _planes): the gap kernels run over tiles
# of first-atom rows whose |G| planes fit in this many floats, so that each
# of their elementwise passes stays in cache.
_TILE_FLOATS = 1 << 16


def _planes(chunk: Chunk, rows: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """(pairs, planes) of tiles that cover the atom pairs of the chunk.

    planes[u] of a tile holds sum_v rows[i, u + v] rows[j, v] for its
    pairs, laid out as the chunk lays out its pairs and summed as
    _convolve_block sums them; `pairs` are their indices. A tile is a run
    of first atoms i of one block: whole measures, or rows of one measure
    when a measure does not fit; a block of one-atom measures is one tile.
    Its planes live in a buffer that the next tile reuses, so a tile is
    read before the next is asked for.
    """
    size = chunk.group.size
    table = chunk.group.add_table
    for k, a, b in chunk.blocks:
        if k == 1:
            conv = _convolve_block(chunk.block(rows, k, a, b), table)
            yield slice(chunk.pair_starts[a], chunk.pair_starts[b]), conv.reshape(b - a, size).T.copy()
            continue
        # [v, n, i] = rows[n, i, v] and [u, v, n, i] = rows[n, i, u + v]
        r = np.ascontiguousarray(chunk.block(rows, k, a, b).transpose(2, 0, 1))
        shifted = r[table]
        firsts = max(1, _TILE_FLOATS // (size * k))
        if firsts >= k:
            step = firsts // k
            tiles = [(n, min(n + step, b - a), 0, k) for n in range(0, b - a, step)]
        else:
            tiles = [(n, n + 1, i, min(i + firsts, k)) for n in range(b - a) for i in range(0, k, firsts)]
        n0, n1, i0, i1 = tiles[0]
        buffer = np.empty(size * (n1 - n0) * (i1 - i0) * k)
        for n0, n1, i0, i1 in tiles:
            shape = (n1 - n0, i1 - i0, k)
            count = shape[0] * shape[1] * k
            planes = buffer[: size * count].reshape(size, *shape)
            for u in range(size):
                # the second atoms' axis j is the einsum's innermost loop,
                # not v, so every pair sums in order of v
                np.einsum("vni,vnj->nij", shifted[u, :, n0:n1, i0:i1], r[:, n0:n1], out=planes[u])
            start = chunk.pair_starts[a] + (n0 * k + i0) * k
            yield slice(start, start + count), planes.reshape(size, count)


def _convolution_entropies(chunk: Chunk) -> np.ndarray:
    """H(p_i (*) p_j) of every atom pair of the chunk, laid out like the pairs; via_pairs' convolutions.

    Bitwise row_entropies_bits(_pair_convolutions(chunk)), whose rows are
    C-layout: the planes of a tile are folded in the order of its row sums.
    """
    out = np.empty(chunk.pair_starts[-1])
    for pairs, planes in _planes(chunk, chunk.posteriors):
        plane_entropies_bits(planes, True, out=out[pairs])
    return out


def _minus_capacities(chunk: Chunk, columns: np.ndarray) -> np.ndarray:
    """kernel_capacity of every measure's channel-side minus kernel, in order of chunk.by_size; via_transform's.

    The minus kernel of the realized kernel whose columns are `columns`
    (laid out like the atoms) has column (i, j) equal to the convolution of
    columns i and j over |G|, the plane u of each tile divided by |G|.
    Bitwise what kernel_capacities gives on the (|G|, P) kernel of all the
    chunk's pairs: a tile's planes are its rows, so the output marginal
    p_y is their left fold, and the posterior entropies, from the kernel's
    F-layout transpose, fold left too. A one-atom measure's capacity runs
    alone (block_capacities) on its column of the one-atom tile, kept
    before the tile is divided in place.
    """
    size = chunk.group.size
    count = chunk.pair_starts[-1]
    p_y, entropies = np.empty(count), np.empty(count)
    # one-atom measures sort first, so their tile holds pairs 0 to `ones`
    ones = chunk.blocks[0][2] if chunk.blocks[0][0] == 1 else 0
    lone = None
    for pairs, planes in _planes(chunk, columns):
        planes /= size
        if pairs.start < ones:
            lone = planes.copy()
        marginal = np.add.reduce(planes, axis=0, out=p_y[pairs])
        marginal /= size
        with np.errstate(divide="ignore", invalid="ignore"):
            planes /= size * marginal
        plane_entropies_bits(planes, False, out=entropies[pairs])

    def lone_minus_kernel(s: int) -> np.ndarray:
        if s < ones:
            return np.ascontiguousarray(lone[:, s : s + 1])
        k = chunk.by_size[s].atom_count
        conv = _convolve_block(chunk.block(columns, k, s, s + 1), chunk.group.add_table)
        return np.ascontiguousarray((conv.reshape(-1, size) / size).T)

    return block_capacities(size, p_y, entropies, chunk.pair_starts.tolist(), lone_minus_kernel)


def minus_on_measure(m: BlackwellMeasure, merge_tau: float = DEFAULT_MERGE_TAU) -> BlackwellMeasure:
    """Minus transform on atoms: weight w_i w_j at posterior p_i (*) p_j."""
    return Chunk([m]).minus(merge_tau)[0]


def plus_on_measure(m: BlackwellMeasure, merge_tau: float = DEFAULT_MERGE_TAU) -> BlackwellMeasure:
    """Plus transform on atoms; see Chunk.plus."""
    return Chunk([m]).plus(merge_tau)[0]


@dataclass(frozen=True)
class CapacityGap:
    """Capacity loss of the minus transform, computed two independent ways.

    via_transform: I(W) - I(W-) on the measure's realized kernel W, with W-
        from the channel-side minus formula; no measure is built.
    via_pairs: pairwise-atom form sum_ij w_i w_j (H(p_i (*) p_j) - H(p_i)).
    """

    via_transform: float
    via_pairs: float

    @property
    def value(self) -> float:
        return self.via_pairs


def capacity_gap(m: BlackwellMeasure) -> CapacityGap:
    """I(M) - I(M-) via both routes; they must agree to 1e-8.

    via_transform reads both capacities off kernels (the realized kernel and
    its channel-side minus transform) and shares no code with the atom-pair
    convolutions behind via_pairs but their summation kernel, so a fault in
    either shows as a disagreement. Both are exact functionals of the
    measure and otherwise differ only by floating-point noise. The route
    through the canonical measure minus_on_measure(m, 0.0) builds and sorts
    k^2 atoms; it moved to verify.lemma_gap_suite, which checks it against
    .value.
    """
    via_transform, via_pairs = Chunk([m]).gaps()
    return CapacityGap(float(via_transform[0]), float(via_pairs[0]))


def step_refusal(m: BlackwellMeasure, sign: str, atom_budget: int) -> str | None:
    """Why the budget refuses a step of `m`, or None.

    The budget caps the materialized (pre-merge) atom set: k^2 for a minus
    step and k^2 |G| for a plus step.
    """
    k = m.atom_count
    raw = k * k if sign == MINUS else k * k * m.group.size
    if raw > atom_budget:
        return (
            f"step '{sign}' would materialize {raw} atoms from {k}, "
            f"exceeding the budget of {atom_budget}"
        )
    return None


def polar_step(
    m: BlackwellMeasure,
    sign: str,
    merge_tau: float = DEFAULT_MERGE_TAU,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> BlackwellMeasure:
    """One minus/plus step on a measure, guarded by the atom budget.

    A step the budget refuses (see step_refusal) raises; nothing is ever
    silently truncated.
    """
    sign = normalize_path(sign)
    if len(sign) != 1:
        raise ValueError("polar_step takes a single step")
    refusal = step_refusal(m, sign, atom_budget)
    if refusal is not None:
        raise AtomBudgetError(refusal)
    if sign == MINUS:
        return minus_on_measure(m, merge_tau)
    return plus_on_measure(m, merge_tau)


def synthetic(
    w: Channel, path: str | Iterable[str], atom_budget: int = DEFAULT_ATOM_BUDGET
) -> Channel:
    """Iterated transforms along a path, canonically merged after each step.

    An empty path returns the channel unchanged. A non-empty path returns
    the canonical realization of the synthetic channel's Blackwell measure
    (outputs labeled a0, a1, ... in canonical atom order).
    """
    steps = normalize_path(path)
    if not steps:
        return w
    m = blackwell_measure(w)
    for sign in steps:
        m = polar_step(m, sign, atom_budget=atom_budget)
    return m.realize()
