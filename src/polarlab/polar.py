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
from typing import Iterable, Sequence

import numpy as np

from ._util import row_entropies_bits
from .blackwell import (
    DEFAULT_MERGE_TAU,
    BlackwellMeasure,
    _capacities,
    _realized_columns,
    blackwell_measure,
)
from .channels import Channel, kernel_capacities
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
    them, and only the BLAS dots stay per measure. Results come back in the
    order of `measures`.
    """

    def __init__(self, measures: Sequence[BlackwellMeasure]):
        self.measures = list(measures)
        self.group = self.measures[0].group
        counts = [m.atom_count for m in self.measures]
        self.order = sorted(range(len(counts)), key=counts.__getitem__)
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

    def __len__(self) -> int:
        return len(self.measures)

    def block(self, rows: np.ndarray, k: int, a: int, b: int) -> np.ndarray:
        """The rows of segments a to b, each of k atoms, as an (n, k, ...) array."""
        return rows[self.starts[a] : self.starts[b]].reshape(b - a, k, *rows.shape[1:])

    def unsort(self, results: list) -> list:
        """Per-segment results back in the order of `measures`."""
        out = [None] * len(results)
        for position, index in enumerate(self.order):
            out[index] = results[position]
        return out

    @property
    def conv(self) -> np.ndarray:
        """(P, |G|) pair convolutions, shared by the minus step and the gap."""
        if self._conv is None:
            self._conv = _pair_convolutions(self).reshape(-1, self.group.size)
        return self._conv

    def capacities(self) -> list[float]:
        """capacity_of_measure of every measure."""
        bounds = self.starts.tolist()
        return self.unsort(_capacities(self.group.size, self.weights, self.posteriors, bounds))

    def realized_columns(self) -> np.ndarray:
        """The columns of the realized kernels as rows, laid out like the atoms.

        Each measure's rows are bitwise its realized_kernel().T.
        """
        out = []
        for k, a, b in self.blocks:
            lo, hi = self.starts[a], self.starts[b]
            weights, posteriors = self.weights[lo:hi], self.posteriors[lo:hi]
            out.append(_realized_columns(self.group.size, weights, posteriors, k))
        return np.concatenate(out)

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
        return self.children(self.pair_weights(), self.conv, merge_tau)

    def plus(self, merge_tau: float = DEFAULT_MERGE_TAU) -> list[BlackwellMeasure]:
        """Plus transform on atoms.

        For each atom pair (i, j) and each revealed first input u1, the atom
        has weight w_i w_j (p_i (*) p_j)(u1) and posterior
        x -> p_i(u1 + x) p_j(x) / (p_i (*) p_j)(u1); zero-probability u1 are
        skipped.
        """
        size = self.group.size
        numer = np.empty((self.pair_starts[-1], size, size))
        for k, a, b in self.blocks:
            q = self.block(self.posteriors, k, a, b)
            # [n, i, j, u1, x] = p_i(u1 + x) p_j(x)
            out = numer[self.pair_starts[a] : self.pair_starts[b]].reshape(b - a, k, k, size, size)
            np.multiply(q[:, :, None, self.group.add_table], q[:, None, :, None, :], out=out)
        # summed in order of x, as the einsum layout of a measure alone sums
        # it; a one-atom measure's layout sums its rows contiguously
        conv = numer[:, :, 0].copy()
        for x in range(1, size):
            conv += numer[:, :, x]
        for k, a, b in self.blocks:
            if k == 1:
                lone = slice(self.pair_starts[a], self.pair_starts[b])
                conv[lone] = numer[lone].sum(axis=2)
        weights = self.pair_weights()[:, None] * conv
        posteriors = np.divide(
            numer, conv[..., None], out=np.zeros_like(numer), where=conv[..., None] > 0.0
        )
        return self.children(weights.ravel(), posteriors.reshape(-1, size), merge_tau)

    def gaps(self) -> list["CapacityGap"]:
        """I(M) - I(M-) of every measure via both routes; see capacity_gap."""
        size = self.group.size
        # the realized kernels side by side, and their channel-side minus
        # kernels, one column per atom pair
        columns = self.realized_columns()
        minus = np.ascontiguousarray((_convolve_pairs(self, columns) / size).T)
        capacities = kernel_capacities(columns.T, self.starts.tolist())
        minus_capacities = kernel_capacities(minus, self.pair_starts.tolist())
        h_conv = row_entropies_bits(self.conv)
        h_atoms = row_entropies_bits(self.posteriors)
        out = []
        for s, m in enumerate(self.by_size):
            a, b = self.pair_starts[s], self.pair_starts[s + 1]
            k = m.atom_count
            via_transform = capacities[s] - minus_capacities[s]
            w = m.weights
            h = h_atoms[self.starts[s] : self.starts[s + 1]]
            via_pairs = float(w @ h_conv[a:b].reshape(k, k) @ w - w @ h)
            if abs(via_transform - via_pairs) > GAP_ROUTE_TOL:
                raise RuntimeError(
                    "capacity-gap routes disagree "
                    f"({via_transform!r} vs {via_pairs!r}): implementation fault"
                )
            out.append(CapacityGap(via_transform, via_pairs))
        return self.unsort(out)


def _convolve_pairs(chunk: Chunk, rows: np.ndarray) -> np.ndarray:
    """out[p, u] = sum_v rows[i, u + v] rows[j, v] over the chunk's atom pairs p = (i, j).

    One einsum per block. For two or more atoms it sums in order of v,
    whether it runs on one measure or on a stack of them; a one-atom
    measure's einsum sums in another order, so each runs alone.
    """
    table = chunk.group.add_table
    out = np.empty((chunk.pair_starts[-1], chunk.group.size))
    for k, a, b in chunk.blocks:
        r = chunk.block(rows, k, a, b)
        block = out[chunk.pair_starts[a] : chunk.pair_starts[b]]
        if k == 1:
            for s, row in enumerate(r):
                block[s] = np.einsum("iuv,jv->iju", row[:, table], row).ravel()
        else:
            # [n, i, u, v] = rows[i, u + v]
            block.reshape(b - a, k, k, -1)[...] = np.einsum("niuv,njv->niju", r[:, :, table], r)
    return out


def _pair_convolutions(chunk: Chunk) -> np.ndarray:
    """(P, |G|) posteriors p_i (*) p_j of every measure's ordered atom pairs."""
    return _convolve_pairs(chunk, chunk.posteriors)


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
    return Chunk([m]).gaps()[0]


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
