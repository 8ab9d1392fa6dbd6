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
from functools import partial
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._util import fold_planes, plane_entropies_bits, row_entropies_bits, segment_dots
from .blackwell import (
    DEFAULT_MERGE_TAU,
    BlackwellMeasure,
    _canonical_measures,
    _exact_merge,
    _replayed_weights,
    blackwell_measure,
)
from .channels import Channel
from .groups import Group, Subgroup, enumerate_subgroups, quotient

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


class Block(NamedTuple):
    """Nodes on one posterior matrix, as one weight block.

    `posteriors` is the nodes' canonical, read-only (k, |G|) posterior
    matrix and `key` its bytes, computed once; row r of the read-only
    (n, k) array `weights` holds the canonical weights of the node at
    position rows[r]. Rows ascend. A node whose matrix it shares with no
    other is a one-row block.
    """

    posteriors: np.ndarray
    key: bytes
    weights: np.ndarray
    rows: np.ndarray

    def take(self, which) -> "Block":
        """The block of the rows that `which`, a slice or a boolean mask, selects."""
        weights = self.weights[which]
        weights.setflags(write=False)
        return self._replace(weights=weights, rows=self.rows[which])


def _joined(blocks: list[Block]) -> Block | None:
    """One block of the rows of blocks on equal matrices, rows ascending; None when they have no rows."""
    blocks = [block for block in blocks if len(block.rows)]
    if len(blocks) < 2:
        return blocks[0] if blocks else None
    rows = np.concatenate([block.rows for block in blocks])
    order = np.argsort(rows)
    weights = np.concatenate([block.weights for block in blocks])[order]
    weights.setflags(write=False)
    return Block(blocks[0].posteriors, blocks[0].key, weights, rows[order])


class Chunk:
    """Nodes of one group, given as weight blocks, laid end to end as one segmented atom set.

    A chunk is built from blocks (`supports`, see Block) whose rows are
    the nodes' positions; its results come in order of position
    (`positions`), as lists or as float64 arrays. Chunk(measures) is the
    library's form: each measure becomes a one-row block, at its index.

    Atoms are rows and each node is a segment. Blocks are laid out in
    order of atom count k, each block's nodes side by side, so the nodes
    of one k (a size run, `blocks`) form an (n, k, ...) array and no pair is
    gathered by index. Pairs are ordered by segment, then row-major. Every
    kernel below gives each node bitwise the result its measure gets
    alone: products are elementwise, sums run per row or in the order a
    lone measure sums them, and dots run per block as stacked matmuls,
    which make one BLAS call per node, as a measure alone makes.

    What a posterior matrix alone decides is computed once for the blocks
    whose matrices have one key (`by_key`), and kept in the table `plans`
    (see _planned, _pair_entropies and _weighted); chunks given one table
    share what it keeps.
    """

    def __init__(
        self,
        measures: Sequence[BlackwellMeasure] | None = None,
        plans: dict | None = None,
        *,
        group: Group | None = None,
        supports: list[Block] | None = None,
    ):
        self._measures = None
        if supports is None:
            self._measures = list(measures)
            group = self._measures[0].group
            supports = [
                Block(m.posteriors, m.posteriors.tobytes(), m.weights[None], np.array([i]))
                for i, m in enumerate(self._measures)
            ]
        self.group = group
        self.supports = supports
        # whether the table is a walk's, which outlives the chunk
        self.walk = plans is not None
        self.plans = {} if plans is None else plans
        # node steps replayed from a plan
        self.replayed = 0
        ks = [len(block.posteriors) for block in supports]
        # the supports in order of atom count; the segments of each, and
        # (k, first segment, end segment) of each size run
        self.layout = sorted(range(len(supports)), key=ks.__getitem__)
        self.spans: list = [None] * len(supports)
        self.blocks: list[tuple[int, int, int]] = []
        sizes = []
        end = 0
        for j in self.layout:
            k, n = ks[j], len(supports[j].rows)
            self.spans[j] = (end, end + n)
            if self.blocks and self.blocks[-1][0] == k:
                self.blocks[-1] = (k, self.blocks[-1][1], end + n)
            else:
                self.blocks.append((k, end, end + n))
            sizes.append(n)
            end += n
        laid = [supports[j] for j in self.layout]
        # the position and the weights of each segment
        if len(laid) == 1:
            self.rows = laid[0].rows
            self.weights = laid[0].weights.reshape(-1)
        else:
            self.rows = np.concatenate([block.rows for block in laid])
            self.weights = np.concatenate([block.weights.reshape(-1) for block in laid])
        # the atom count of each segment, and where its atoms and pairs start
        if len(self.blocks) == 1:
            k = self.blocks[0][0]
            self.counts = np.full(end, k)
            self.starts = np.arange(end + 1) * k
            self.pair_starts = np.arange(end + 1) * (k * k)
        else:
            self.counts = k = np.repeat([ks[j] for j in self.layout], sizes)
            self.starts = np.zeros(end + 1, dtype=np.int64)
            np.cumsum(k, out=self.starts[1:])
            self.pair_starts = np.zeros(end + 1, dtype=np.int64)
            np.cumsum(k * k, out=self.pair_starts[1:])
        # the chunk's order: the nodes' positions, ascending, and the index
        # in it of each segment
        self.in_order = len(laid) == 1 or bool((self.rows[1:] > self.rows[:-1]).all())
        if self.in_order:
            self.positions = self.rows
            self.order = np.arange(len(self.rows))
        else:
            by_position = np.argsort(self.rows)
            self.positions = self.rows[by_position]
            self.order = np.empty_like(by_position)
            self.order[by_position] = np.arange(len(by_position))
        # the indices of the supports on each distinct posterior matrix, by its key
        self.by_key: dict[bytes, list[int]] = {}
        for j, block in enumerate(supports):
            self.by_key.setdefault(block.key, []).append(j)
        self._conv = None
        self._posteriors = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def posteriors(self) -> np.ndarray:
        """Every atom's posterior, laid out like the atoms, row-major: the row entropies' fold order depends on it."""
        if self._posteriors is None:
            if len(self.rows) == 1:
                self._posteriors = self.supports[0].posteriors
            else:
                self._posteriors = np.empty((self.starts[-1], self.group.size))
                for j in self.layout:
                    (a, b), block = self.spans[j], self.supports[j]
                    out = self._posteriors[self.starts[a] : self.starts[b]]
                    out.reshape(b - a, *block.posteriors.shape)[...] = block.posteriors
        return self._posteriors

    @property
    def measures(self) -> list[BlackwellMeasure]:
        """The nodes as measures, in the chunk's order; built on first use where the chunk was given blocks."""
        if self._measures is None:
            self._measures = self._measures_of(self.supports)
        return self._measures

    def _measures_of(self, blocks: list[Block]) -> list[BlackwellMeasure]:
        """The measures of blocks whose rows are this chunk's positions, in the chunk's order."""
        out: list = [None] * len(self)
        for block in blocks:
            for i, weights in zip(np.searchsorted(self.positions, block.rows).tolist(), block.weights):
                out[i] = BlackwellMeasure._canonical(self.group, weights, block.posteriors)
        return out

    def index(self, j: int) -> np.ndarray:
        """The chunk-order indices of the rows of support j."""
        a, b = self.spans[j]
        return self.order[a:b]

    def block(self, rows: np.ndarray, k: int, a: int, b: int) -> np.ndarray:
        """The rows of segments a to b, each of k atoms, as an (n, k, ...) array."""
        return rows[self.starts[a] : self.starts[b]].reshape(b - a, k, *rows.shape[1:])

    def unsort(self, results: np.ndarray) -> np.ndarray:
        """Per-segment results back in the chunk's order; `results` itself where that is its order."""
        if self.in_order:
            return results
        out = np.empty_like(results)
        out[self.order] = results
        return out

    @property
    def conv(self) -> np.ndarray:
        """(P, |G|) pair convolutions p_i (*) p_j, shared by the minus and plus steps; computed once.

        The transpose of the (|G|, P) array that the tiles of _planes fill
        in place, so column-major.
        """
        if self._conv is None:
            whole = np.empty((self.group.size, self.pair_starts[-1]))
            for _ in _planes(self, whole):
                pass
            self._conv = whole.T
        return self._conv

    def capacities(self) -> np.ndarray:
        """capacity_of_measure of every node: log2|G| - w . H(p), H(p) the row entropies of its matrix."""
        return self.unsort(np.log2(self.group.size) - self._weighted("entropies", row_entropies_bits))

    def quotient_capacities(self, sub: Subgroup) -> np.ndarray:
        """I(M[H]) of every node for the subgroup H, the capacity of its realized kernel's coset average.

        Column i of the coset average is |G:H| w_i Q_i, Q_i(c) the sum of
        p_i over the coset c: its output marginal is w_i s_i, s_i the sum
        of Q_i, and its posterior is Q_i / s_i, of entropy C_i. So
        I(M[H]) = log2|G:H| - w . (s o C), and s o C is the posterior
        matrix's alone (_coset_entropies). For H = {0} it is I(M).
        """
        return self.unsort(self._quotient_capacities(sub))

    def _quotient_capacities(self, sub: Subgroup) -> np.ndarray:
        """quotient_capacities in layout order."""
        members = quotient(self.group, sub).members
        entropies = partial(_coset_entropies, members)
        return np.log2(len(members)) - self._weighted(("cosets", sub.members), entropies)

    def _weighted(self, name, rowwise) -> np.ndarray:
        """w . rowwise(p) of every node, in layout order: its weights dotted with a vector its matrix alone decides.

        rowwise maps a C-layout (rows, |G|) array of posteriors to one
        value per row, each row's bits its own, so it runs once on the
        matrices that no table entry holds, stacked, and a chunk whose nodes
        each have their own matrix maps its atoms in place. The values are
        kept in the table under (name, the matrix's key) for a matrix that
        two nodes of the chunk share, as _pair_entropies keeps its entries.
        The dots run one stacked matmul per size run (segment_dots), so
        each node's dot is the BLAS call its measure makes alone.
        """
        entries = {key: self.plans.get((name, key)) for key in self.by_key}
        todo = [key for key, entry in entries.items() if entry is None]
        if len(todo) == len(self):
            # every node on its own matrix, none kept: the atoms in place
            return segment_dots(self.weights, rowwise(self.posteriors), self.starts)
        if todo:
            matrices = [self.supports[self.by_key[key][0]].posteriors for key in todo]
            values = rowwise(matrices[0] if len(matrices) == 1 else np.concatenate(matrices))
            cuts = np.cumsum([len(matrix) for matrix in matrices[:-1]])
            entries.update(zip(todo, np.split(values, cuts)))
        for key, members in self.by_key.items():
            if len(members) > 1 or len(self.supports[members[0]].rows) > 1:
                self.plans[name, key] = entries[key]
        values = np.empty(self.starts[-1])
        for j in self.layout:
            (a, b), block = self.spans[j], self.supports[j]
            values[self.starts[a] : self.starts[b]].reshape(b - a, -1)[...] = entries[block.key]
        return segment_dots(self.weights, values, self.starts)

    def pair_weights(self) -> np.ndarray:
        """w_i w_j of every atom pair."""
        w = self.weights
        return np.concatenate([
            (self.block(w, k, a, b)[:, :, None] * self.block(w, k, a, b)[:, None, :]).ravel()
            for k, a, b in self.blocks
        ])

    def minus(self, merge_tau: float = DEFAULT_MERGE_TAU) -> list[BlackwellMeasure]:
        """Minus transform on atoms: weight w_i w_j at posterior p_i (*) p_j; the children as measures."""
        return self._measures_of(self.step(MINUS, merge_tau))

    def plus(self, merge_tau: float = DEFAULT_MERGE_TAU) -> list[BlackwellMeasure]:
        """Plus transform on atoms; the children as measures.

        For each atom pair (i, j) and each revealed first input u1, the atom
        has weight w_i w_j (p_i (*) p_j)(u1) and posterior
        x -> p_i(u1 + x) p_j(x) / (p_i (*) p_j)(u1); zero-probability u1 are
        skipped.
        """
        return self._measures_of(self.step(PLUS, merge_tau))

    def raw(self, sign: str, out: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, ...]:
        """(weights, posteriors, factor) of the raw children, laid out like the pairs.

        Pair p = (i, j) has one child c per column of factor, of weight
        w_i w_j factor[p, c]: a minus step gives it one, of factor 1, and a
        plus step |G|, child u1 of factor (p_i (*) p_j)(u1). The weights and
        the transposed posteriors are written to `out`, a (children,) array
        and a (|G|, children) array, allocated when not given; so the
        posteriors are column-major, as canonicalization reads them, and a
        minus step's are a copy of `conv`.

        A plus step's numerators p_i(u1 + x) p_j(x), their division by the
        convolution and their weights are elementwise, so their bits do not
        depend on how they are built. A size run whose atom count passes
        _by_planes builds them one (u1, x) plane at a time, whose innermost
        loop runs over the atoms j, reading the columns of the column-major
        `conv`; a smaller one broadcasts over (u1, x), whose innermost loop
        is only |G| long, on a C-layout copy of its convolutions. Both write
        the column-major posteriors in place. The rule grows with k and
        size runs ascend in k, so the broadcast runs come first.
        """
        pair_weights = self.pair_weights()
        size = self.group.size
        count = self.pair_starts[-1]
        if out is None:
            children = count if sign == MINUS else count * size
            out = np.empty(children), np.empty((size, children))
        if sign == MINUS:
            # w_i w_j * 1.0 is w_i w_j
            out[0][...] = pair_weights
            out[1][...] = self.conv.T
            return out[0], out[1].T, np.ones((count, 1))
        table = self.group.add_table
        weights = out[0].reshape(count, size)
        # [x, p, u1]: the posterior entry x of pair p's child u1
        cols = out[1].reshape(size, count, size)
        cut = next((a for k, a, _ in self.blocks if _by_planes(k, size)), len(self))
        split = self.pair_starts[cut]
        factor = self.conv
        if split:
            for k, a, b in self.blocks:
                if a == cut:
                    break
                q = self.block(self.posteriors, k, a, b)
                pairs = slice(self.pair_starts[a], self.pair_starts[b])
                if k > 1:
                    # [x, n, i, j, u1] = p_i(u1 + x) p_j(x)
                    shifted = q[:, :, table.T].transpose(2, 0, 1, 3)
                    products = cols[:, pairs].reshape(size, b - a, k, k, size)
                    np.multiply(shifted[:, :, :, None, :], q.transpose(2, 0, 1)[:, :, None, :, None], out=products)
                    continue
                # _planes sums each pair's numerators in order of x, as a
                # measure of two or more atoms alone sums its einsum's; a
                # one-atom measure sums its C-layout rows [n, u1, x] in
                # numpy's order, which the one-atom einsum of _planes does
                # not follow. One-atom measures sort first.
                numer = (q[:, :, None, table] * q[:, None, :, None, :]).reshape(b - a, size, size)
                factor = factor.copy(order="K")
                factor[pairs] = numer.sum(axis=2)
                cols[:, pairs] = numer.transpose(2, 0, 1)
            conv = np.ascontiguousarray(factor[:split])
            # a row of zero convolution is zero and divides by 1; a NaN row
            # stays NaN, for the finite check
            cols[:, :split] /= np.where(conv > 0.0, conv, 1.0)
            np.multiply(pair_weights[:split, None], conv, out=weights[:split])
        if split < count:
            for k, a, b in self.blocks:
                if a < cut:
                    continue
                # [x, n, i] = p_i(x) of measure n
                r = np.ascontiguousarray(self.block(self.posteriors, k, a, b).transpose(2, 0, 1))
                pairs = slice(self.pair_starts[a], self.pair_starts[b])
                for u in range(size):
                    for x in range(size):
                        plane = cols[x, pairs, u].reshape(b - a, k, k)
                        np.multiply(r[table[u, x], :, :, None], r[x, :, None, :], out=plane)
            conv = factor[split:]
            denominators = np.where(conv > 0.0, conv, 1.0)
            for u in range(size):
                for x in range(size):
                    cols[x, split:, u] /= denominators[:, u]
                np.multiply(pair_weights[split:], conv[:, u], out=weights[split:, u])
        return out[0], out[1].T, factor

    def step(self, sign: str, merge_tau: float) -> list[Block]:
        """The children of every node for one sign, as blocks whose rows are their parents' positions.

        Nodes whose posterior matrix has a plan replay it (_planned); the
        others are canonicalized from their raw children (_general). The
        chunk is the one part of a `steps` call, so a lone step and a
        walk's joint step of both signs share one general path.
        """
        return steps([(self, sign)], merge_tau)[0]

    def _planned(self, sign: str, merge_tau: float) -> tuple[list[Block], "Chunk | None"]:
        """The children of the nodes that a plan serves, and the chunk of the nodes left to the general path, or None.

        Merging and sorting read only the raw posteriors, which a node's
        posterior matrix alone decides; weights are summed over each merged
        atom's members. So when a step merges only bitwise-equal raw
        posteriors and prunes only atoms no weights can keep, a plan
        recorded from one node (_record) gives every node on the same
        posterior matrix its children by summing its own raw weights
        (_replay), bitwise as its own step would: one weight block for all
        the nodes of a key. Plans are recorded, from the node of least
        position, for a matrix that two nodes of the chunk share, and for
        the first step of each sign that a walk's table sees, the root's,
        whose matrix the level below may share. They are kept in the table
        under ((sign, merge_tau), the matrix's key), with None where no
        plan is valid. The other nodes, and any whose raw weight underflows
        to zero, are left to the general path, as one chunk.
        """
        out: list[Block] = []
        rest: list[Block] = []
        step = (sign, merge_tau)
        first = self.walk and all(key[0] != step for key in self.plans)
        for key, members in self.by_key.items():
            blocks = [self.supports[j] for j in members]
            if (step, key) not in self.plans and (first or len(blocks) > 1 or len(blocks[0].rows) > 1):
                first = False
                head = min(range(len(blocks)), key=lambda h: blocks[h].rows[0])
                child, self.plans[step, key] = _record(self.group, blocks[head].take(slice(0, 1)), sign, merge_tau)
                out.append(child)
                blocks[head] = blocks[head].take(slice(1, None))
            block = _joined(blocks)
            if block is None:
                continue
            plan = self.plans.get((step, key))
            if plan is None:
                rest.append(block)
                continue
            weights, live = _replay(self.group, plan, block.weights)
            if weights is not None:
                out.append(Block(plan.posteriors, plan.key, weights, block.rows[live]))
                self.replayed += len(weights)
            if not live.all():
                rest.append(block.take(~live))
        if not rest:
            return out, None
        whole = sum(len(block.rows) for block in rest) == len(self)
        return out, (self if whole else Chunk(group=self.group, supports=rest))

    def gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """I(M) - I(M-) of every node via both routes, as (via_transform, via_pairs) arrays; see capacity_gap.

        The routes are checked against each other node by node, to
        GAP_ROUTE_TOL; a NaN on either fails. They convolve apart, each once
        per distinct posterior matrix: via_pairs through the einsum tiles of
        _planes, on the pair entropies it shares per matrix, via_transform
        through BLAS products (_column_products) of the matrix's posterior
        columns, folded tile by tile into each of its nodes' minus
        capacities by the node's own weights (_minus_capacities); they
        share only the entropy fold. via_transform's I(M) is the realized
        kernel's capacity, log2|G| - w . (s o C) with s o C of the matrix's
        rows (_quotient_capacities at H = {0}), where via_pairs reads the
        row entropies H(p) unnormalized, in the other fold order.
        """
        trivial = enumerate_subgroups(self.group)[0]
        via_transform = self._quotient_capacities(trivial) - _minus_capacities(self, self.posteriors)
        via_pairs = self._pair_gaps()
        # NaN on either route fails the check too
        off = ~(np.abs(via_transform - via_pairs) <= GAP_ROUTE_TOL)
        if off.any():
            s = int(off.argmax())
            raise RuntimeError(
                "capacity-gap routes disagree "
                f"({float(via_transform[s])!r} vs {float(via_pairs[s])!r}): implementation fault"
            )
        return self.unsort(via_transform), self.unsort(via_pairs)

    def _pair_gaps(self) -> np.ndarray:
        """via_pairs, w h_conv w - w h, of every node in layout order.

        One stacked matmul per block, on its matrix's (k, k) pair entropies.
        """
        out = np.empty(len(self))
        for (a, b), (h_conv, h), block in zip(self.spans, self._pair_entropies(), self.supports):
            w = block.weights
            rows = w[:, None, :]
            out[a:b] = (rows @ h_conv @ w[:, :, None] - rows @ h[..., None]).ravel()
        return out

    def _pair_entropies(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(H(p_i (*) p_j) as a k x k array, H(p_i)) of each block's matrix, in order of `supports`.

        They read the posteriors alone, so they are computed once per key,
        and kept in the table, under ("gap", the key), for a matrix that two
        nodes of the chunk share.
        """
        groups = self.by_key
        entries = {key: self.plans.get(("gap", key)) for key in groups}
        todo = [members[0] for key, members in groups.items() if entries[key] is None]
        if todo:
            chunk = self if len(todo) == len(self) else Chunk(
                group=self.group, supports=[self.supports[j].take(slice(0, 1)) for j in todo]
            )
            h_conv = _convolution_entropies(chunk)
            h_atoms = row_entropies_bits(chunk.posteriors)
            # each support of that chunk has one row, so one segment
            for s, j in enumerate(chunk.layout):
                k = int(chunk.counts[s])
                pairs = h_conv[chunk.pair_starts[s] : chunk.pair_starts[s + 1]].reshape(k, k)
                entries[chunk.supports[j].key] = (pairs, h_atoms[chunk.starts[s] : chunk.starts[s + 1]])
        for key, members in groups.items():
            if len(members) > 1 or len(self.supports[members[0]].rows) > 1:
                self.plans["gap", key] = entries[key]
        return [entries[block.key] for block in self.supports]


class _Plan(NamedTuple):
    """How the raw children of any node on one posterior matrix canonicalize.

    Kept raw child a has weight w_i w_j factor[a] for its atom pair
    pairs[a] = i k + j and joins child atom target[a]; `posteriors` are the
    children's canonical posteriors, and `key` their bytes. factor is None
    where every factor is 1, as on a minus step. Every other raw child has
    weight 0 whatever the weights.
    """

    pairs: np.ndarray
    factor: np.ndarray | None
    target: np.ndarray
    posteriors: np.ndarray
    key: bytes


def _record(group: Group, block: Block, sign: str, merge_tau: float) -> tuple[Block, _Plan | None]:
    """The child of a one-row block by the general path, and the plan its canonicalization leaves, or None.

    A plan is valid when the node's run pruned exactly the raw children of
    zero factor, so no weight underflowed, and merged only bitwise-equal
    posteriors (blackwell._exact_merge).
    """
    weights, posteriors, factor = Chunk(group=group, supports=[block]).raw(sign)
    ((w, q),), origin = _canonical_measures(group, weights, posteriors, merge_tau, track_origin=True)
    keep = origin >= 0
    if not (np.array_equal(keep, factor.ravel() > 0.0) and _exact_merge(posteriors, origin)):
        return Block(q, q.tobytes(), w[None], block.rows), None
    kept = np.flatnonzero(keep)
    pairs = kept // factor.shape[1]
    # the minus step's factors are all 1, and w_i w_j * 1.0 is w_i w_j
    plan = _Plan(pairs, None if sign == MINUS else factor.ravel()[kept], origin[kept], q, q.tobytes())
    return Block(q, plan.key, w[None], block.rows), plan


def _replay(group: Group, plan: _Plan, weights: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """The children's weight block of the nodes whose weights are the rows of `weights`, on the plan's matrix.

    Returns the block of the live rows, those whose kept raw weights are
    all positive, or None when no row is, and the live mask. Raw weights
    are the products the general path forms. A NaN weight is not positive
    either, and the general path rejects it.
    """
    raw = (weights[:, :, None] * weights[:, None, :]).reshape(len(weights), -1)[:, plan.pairs]
    if plan.factor is not None:
        raw *= plan.factor
    live = (raw > 0.0).all(axis=1)
    if not live.any():
        return None, live
    return _replayed_weights(group, raw if live.all() else raw[live], plan.target, plan.posteriors), live


def steps(parts: list[tuple[Chunk, str]], merge_tau: float) -> list[list[Block]]:
    """The children of every node of each part, a (chunk, sign) pair, as blocks whose rows are their parents' positions.

    Each part records and replays its plans apart (Chunk._planned); the
    nodes that every part leaves to the general path are stepped together,
    in one call of _general. Each part's children are those its chunk's
    step gives it alone, bitwise.
    """
    planned = [chunk._planned(sign, merge_tau) for chunk, sign in parts]
    rest = [(chunk, sign) for (_, chunk), (_, sign) in zip(planned, parts) if chunk is not None]
    general = iter(_general(rest, merge_tau) if rest else ())
    return [out if chunk is None else out + next(general) for out, chunk in planned]


def _general(parts: list[tuple[Chunk, str]], merge_tau: float) -> list[list[Block]]:
    """The children of every node of each (chunk, sign) part, canonicalized from their raw atoms, as one-row blocks.

    The raw children (Chunk.raw) of all parts are laid end to end, one
    segment per node, and canonicalized in one call, in which each segment
    gets the bits it gets alone (blackwell._canonical_segments); each child
    is a one-row block at its parent's position.
    """
    group = parts[0][0].group
    widths = [1 if sign == MINUS else group.size for _, sign in parts]
    ends = [0, *accumulate(chunk.pair_starts[-1] * width for (chunk, _), width in zip(parts, widths))]
    weights, cols = np.empty(ends[-1]), np.empty((group.size, ends[-1]))
    for (chunk, sign), a, b in zip(parts, ends, ends[1:]):
        chunk.raw(sign, (weights[a:b], cols[:, a:b]))
    posteriors = cols.T
    count = sum(len(chunk) for chunk, _ in parts)
    seg = None  # one node needs no segment ids
    if count > 1:
        sizes = np.concatenate([np.diff(chunk.pair_starts) * width for (chunk, _), width in zip(parts, widths)])
        seg = np.repeat(np.arange(count), sizes)
    measures, _ = _canonical_measures(group, weights, posteriors, merge_tau, seg, count)
    out, start = [], 0
    for chunk, _ in parts:
        out.append([
            Block(q, q.tobytes(), w[None], chunk.rows[s : s + 1])
            for s, (w, q) in enumerate(measures[start : start + len(chunk)])
        ])
        start += len(chunk)
    return out


# Floats of one tile of the tiled kernels (_planes, _column_products): a
# first atom of a measure of k atoms costs |G| (k + |G|) floats, its rows of
# the planes and of the products' shifted operand.
_PRODUCT_FLOATS = 1 << 16


def _product_rows(k: int, size: int) -> int:
    """First atoms per tile of the tiled kernels, for a measure of k atoms on a group of `size` elements.

    At least k means whole measures; fewer cuts each measure's first atoms
    into runs of this many, the last run shorter. A gemm's bits depend on
    its shape, so the rule reads k and |G| alone, never the chunk.
    """
    return max(1, _PRODUCT_FLOATS // (size * (k + size)))


def _by_planes(k: int, size: int) -> bool:
    """Whether a plus step builds the numerators of measures of k atoms on a group of `size` elements plane by plane.

    A (u1, x) plane is one pass over the k^2 pairs of each measure, which
    writes every |G|-th float; the broadcast's innermost loop is only |G|
    long. Planes pay only on groups of order 2, where that loop is
    shortest, and from about 24 atoms: per raw("+") call (one BLAS thread,
    2-core host), one measure of 16 atoms took 36 us by planes against 29
    us broadcast, 24 atoms 44 against 43 us and 32 atoms 50 against 57 us,
    and three measures of 16, 24 and 32 atoms 46 against 48, 65 against 82
    and 88 against 120 us. On Z3 planes were not faster at k = 20 to 48,
    and on Z4 and Z2 x Z4 they were slower.
    """
    return size == 2 and k >= 24


def _tiles(n: int, k: int, size: int) -> tuple[list[tuple[int, int, int, int]], np.ndarray]:
    """Tiles (n0, n1, i0, i1) of n measures of k atoms, and a buffer for the |G| planes of the largest.

    A tile is the first atoms i0:i1 of measures n0:n1: runs of whole
    measures when _product_rows(k, |G|) is at least k, else runs of that
    many first atoms of one measure, the last run shorter.
    """
    firsts = _product_rows(k, size)
    if firsts >= k:
        step = firsts // k
        tiles = [(m, min(m + step, n), 0, k) for m in range(0, n, step)]
    else:
        tiles = [(m, m + 1, i, min(i + firsts, k)) for m in range(n) for i in range(0, k, firsts)]
    n0, n1, i0, i1 = tiles[0]
    return tiles, np.empty(size * (n1 - n0) * (i1 - i0) * k)


def _planes(chunk: Chunk, whole: np.ndarray | None = None) -> Iterator[tuple[slice, np.ndarray]]:
    """(pairs, planes) of tiles that cover the atom pairs of the chunk: every pair convolution p_i (*) p_j.

    planes[u] of a tile holds sum_v p_i(u + v) p_j(v) of the chunk's
    posteriors p for its pairs, laid out as the chunk lays out its pairs;
    `pairs` are their indices. The steps (Chunk.conv) and via_pairs'
    entropies take their convolutions from here. A pair of a measure of
    two or more atoms sums in order of v. A tile is a run of first atoms i
    of one size run (_tiles): whole measures, or runs of first atoms of one
    measure; a run of one-atom measures is one tile, each measure convolved
    by its own einsum, as it is alone. The planes are whole[:, pairs] where
    `whole`, a (|G|, P) array, is given; else they live in a buffer that
    the next tile reuses, so a tile is read before the next is asked for.
    """
    size = chunk.group.size
    table = chunk.group.add_table
    for k, a, b in chunk.blocks:
        block = chunk.block(chunk.posteriors, k, a, b)
        if k == 1:
            pairs = slice(chunk.pair_starts[a], chunk.pair_starts[b])
            planes = np.empty((size, b - a)) if whole is None else whole[:, pairs]
            # a stacked einsum would sum one-atom measures in another order
            for n, row in enumerate(block):
                planes[:, n] = np.einsum("iuv,jv->iju", row[:, table], row).ravel()
            yield pairs, planes
            continue
        # [v, n, i] = p_i(v) of measure n and [u, v, n, i] = p_i(u + v)
        r = np.ascontiguousarray(block.transpose(2, 0, 1))
        shifted = r[table]
        tiles, buffer = _tiles(b - a, k, size)
        for n0, n1, i0, i1 in tiles:
            shape = (n1 - n0, i1 - i0, k)
            count = shape[0] * shape[1] * k
            start = chunk.pair_starts[a] + (n0 * k + i0) * k
            pairs = slice(start, start + count)
            planes = (buffer[: size * count] if whole is None else whole[:, pairs]).reshape(size, *shape)
            for u in range(size):
                # the second atoms' axis j is the einsum's innermost loop,
                # not v, so every pair sums in order of v
                np.einsum("vni,vnj->nij", shifted[u, :, n0:n1, i0:i1], r[:, n0:n1], out=planes[u])
            yield pairs, planes.reshape(size, count)


def _convolution_entropies(chunk: Chunk) -> np.ndarray:
    """H(p_i (*) p_j) of every atom pair of the chunk, laid out like the pairs; via_pairs' convolutions.

    Bitwise row_entropies_bits(np.ascontiguousarray(chunk.conv)), whose
    rows are C-layout: the planes of a tile are folded in the order of its
    row sums.
    """
    out = np.empty(chunk.pair_starts[-1])
    for pairs, planes in _planes(chunk):
        plane_entropies_bits(planes, True, out=out[pairs])
    return out


def _column_products(r: np.ndarray, table: np.ndarray) -> Iterator[tuple[int, int, int, int, np.ndarray]]:
    """(m0, m1, i0, i1, planes) of tiles that cover the atom pairs of a stack r of n matrices of k atoms.

    planes[u] of a tile holds sum_v r[n, i, u + v] r[n, j, v] for the first
    atoms i0:i1 of its matrices m0:m1 and every second atom j, laid out
    (n, i, j), as the product r[n, i0:i1, u + v] @ r[n].T. Each tile is one
    stacked matmul, (|G|, n, rows, |G|) @ (n, |G|, k), whose loop makes for
    every u and matrix the BLAS call that its product alone makes. A tile
    is a run of whole matrices, or of _product_rows(k, |G|) first atoms of
    one matrix, in order. Its planes live in a buffer that the next tile
    reuses, so a tile is read before the next is asked for.
    """
    n, k, size = r.shape
    tiles, buffer = _tiles(n, k, size)
    # [n, v, j] = r[n, j, v]
    transposed = r.transpose(0, 2, 1)
    for m0, m1, i0, i1 in tiles:
        shape = (size, m1 - m0, i1 - i0, k)
        planes = buffer[: size * shape[1] * shape[2] * k].reshape(shape)
        # [u, n, i, v] = r[n, i, u + v], a view of take's C-layout copy, so
        # each item's rows keep unit stride and every item is a BLAS call;
        # r[..., table] lays its copy out otherwise, and a one-row item
        # without unit stride falls back to numpy's own loop
        shifted = np.take(r[m0:m1, i0:i1], table, axis=2).transpose(2, 0, 1, 3)
        np.matmul(shifted, transposed[m0:m1], out=planes)
        yield m0, m1, i0, i1, planes.reshape(size, -1)


def _minus_capacities(chunk: Chunk, posteriors: np.ndarray) -> np.ndarray:
    """Capacity of every node's channel-side minus kernel, in layout order; via_transform's.

    The minus kernel of a node's realized kernel has column (i, j) equal to
    |G| w_i w_j (p_i (*) p_j): its output marginal is w_i w_j s_ij, with
    s_ij the sum of p_i (*) p_j over |G|, and its posterior is
    (p_i (*) p_j) / s_ij, whose entropy C_ij the weights do not touch. So
    its capacity is log2|G| - w (s o C) w, and s o C is the posterior
    matrix's alone. The distinct matrices of each size run (chunk.by_key),
    read from `posteriors` (laid out like the atoms) at the first node of
    each, are convolved once, as BLAS products of their posterior columns
    (_column_products) that share nothing with the einsum tiles of
    via_pairs. Each tile is reduced as it comes, so no array spans a
    matrix's pairs: s o C of its columns (_marginal_entropies), where s
    folds left to right and a dead pair (s not > 0) counts 0, and one
    stacked matmul adds w[i0:i1] @ (s o C)[i0:i1] @ w of every node of
    the tile's matrices to that node's sum, in tile order. Tiles are cut by
    a rule of k and |G| alone and each node's dots are its own BLAS calls,
    so a node gets the same bits in a chunk as alone.
    """
    size = chunk.group.size
    table = chunk.group.add_table
    sums = np.zeros(len(chunk))
    # the index of each segment's matrix, numbered in layout order, so that
    # those of a size run count up from its first segment's
    ids: dict[bytes, int] = {}
    owner = np.repeat(
        [ids.setdefault(chunk.supports[j].key, len(ids)) for j in chunk.layout],
        [len(chunk.supports[j].rows) for j in chunk.layout],
    )
    # s and s o C of the largest tile so far
    spare = np.empty(0)
    for k, a, b in chunk.blocks:
        # the run's segments matrix by matrix, where each matrix's start,
        # and each matrix's posteriors, at its first segment
        order = np.argsort(owner[a:b], kind="stable")
        matrix = owner[a:b][order] - owner[a]
        bounds = np.searchsorted(matrix, np.arange(matrix[-1] + 2))
        r = chunk.block(posteriors, k, a, b)[order[bounds[:-1]]]
        weights = chunk.block(chunk.weights, k, a, b)[order]
        nodes = a + order
        for m0, m1, i0, i1, planes in _column_products(r, table):
            count = planes.shape[1]
            if len(spare) < 2 * count:
                spare = np.empty(2 * count)
            products = _marginal_entropies(planes, spare).reshape(m1 - m0, i1 - i0, k)
            lo, hi = bounds[m0], bounds[m1]
            if m1 - m0 not in (1, hi - lo):
                products = products[matrix[lo:hi] - m0]
            w = weights[lo:hi]
            sums[nodes[lo:hi]] += (w[:, None, i0:i1] @ products @ w[:, :, None]).ravel()
    return np.log2(size) - sums


def _marginal_entropies(planes: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    """s o C of every column of planes: its sum s, folded left to right, times the entropy C of the column over s.

    A dead column (s not > 0) counts 0. The fold of a lone column is the
    one it gets beside other columns (fold_planes), so a column's bits
    are its own. The planes are overwritten; s and the result are written
    to `spare`, of at least twice the columns, where it is given.
    """
    count = planes.shape[1]
    if spare is None:
        spare = np.empty(2 * count)
    marginal = fold_planes(planes, False, out=spare[:count])
    with np.errstate(divide="ignore", invalid="ignore"):
        planes /= marginal
        products = plane_entropies_bits(planes, False, out=spare[count : 2 * count])
        products *= marginal
    # a dead column's entropy can be infinite, its marginal NaN
    products[~(marginal > 0.0)] = 0.0
    return products


def _coset_entropies(members: np.ndarray, posteriors: np.ndarray) -> np.ndarray:
    """s o C (_marginal_entropies) of each row's coset sums Q(c), for the cosets that are the rows of `members`.

    Each coset's entries are added to zero in element order, one member of
    every coset at a time, as channels._coset_average adds kernel rows.
    """
    columns = posteriors.T
    sums = np.zeros((len(members), len(posteriors)))
    for column in members.T:
        sums += columns[column]
    return _marginal_entropies(sums)


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
        from the channel-side minus formula, whose column (i, j) is
        |G| w_i w_j (p_i (*) p_j). Both capacities are entropies of its
        posterior matrix alone, reduced by the measure's weights; no
        kernel and no measure is built.
    via_pairs: pairwise-atom form sum_ij w_i w_j (H(p_i (*) p_j) - H(p_i)).
    """

    via_transform: float
    via_pairs: float

    @property
    def value(self) -> float:
        return self.via_pairs


def capacity_gap(m: BlackwellMeasure) -> CapacityGap:
    """I(M) - I(M-) via both routes; they must agree to 1e-8.

    via_transform reads both capacities off kernels: the realized kernel,
    whose column i is |G| w_i p_i, and its channel-side minus transform,
    whose column (i, j) is |G| w_i w_j (p_i (*) p_j). The weights factor
    out of each kernel's output marginal and cancel in its posteriors, so
    each capacity is log2|G| less the weights' reduction of s o C, the
    posterior matrix's column sums times the entropies of the normalized
    columns: for the realized kernel the rows p_i, for the minus kernel
    their convolutions, BLAS products of the posterior columns, made once
    per posterior matrix and reduced by the measure's weights tile by
    tile. The realized kernel's s o C reads the rows that via_pairs' H(p_i)
    reads, normalized and folded in the other order. The routes share no
    convolution with the atom-pair einsums behind via_pairs, only the
    entropy fold, so a fault in either convolution shows as a disagreement,
    and a NaN on either route fails the check. Both are exact functionals
    of the measure and otherwise differ only by floating-point noise. Each
    node's bits are its own: the products and the reduction follow numpy's
    per-item BLAS rule, as the chunk's dots do, and cut a large matrix's
    first atoms by a rule of its atom count and |G| alone. The route
    through the canonical measure minus_on_measure(m, 0.0) builds and sorts
    k^2 atoms; it moved to verify.lemma_gap_suite, which checks it against
    .value.
    """
    via_transform, via_pairs = Chunk([m]).gaps()
    return CapacityGap(float(via_transform[0]), float(via_pairs[0]))


def step_refusal(k: int, size: int, sign: str, atom_budget: int) -> str | None:
    """Why the budget refuses a step of a node of k atoms on a group of `size` elements, or None.

    The budget caps the materialized (pre-merge) atom set: k^2 for a minus
    step and k^2 |G| for a plus step.
    """
    raw = k * k if sign == MINUS else k * k * size
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
    refusal = step_refusal(m.atom_count, m.group.size, sign, atom_budget)
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
