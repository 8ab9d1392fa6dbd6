"""Discrete memoryless channels and operations on them.

A channel is a row-stochastic kernel W(y|x) over finite alphabets. Channels
whose input alphabet is a finite Abelian group (rows indexed by element
enumeration order) support the coset-structured operations below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from ._util import row_entropies_bits
from .groups import Group, Subgroup, enumerate_subgroups, make_group, quotient

ROW_SUM_TOL = 1e-12
DEGRADATION_TOL = 1e-7


class Channel:
    """Finite-input finite-output channel with an optional group binding."""

    def __init__(
        self,
        kernel: np.ndarray,
        outputs: Sequence[str] | None = None,
        group: Group | None = None,
    ):
        kernel = np.array(kernel, dtype=float)
        if kernel.ndim != 2 or kernel.size == 0:
            raise ValueError("kernel must be a non-empty 2-D matrix")
        # NaN fails every range and row-sum comparison below, so it would pass
        if not np.isfinite(kernel).all():
            bad = np.unravel_index(int(np.argmin(np.isfinite(kernel))), kernel.shape)
            raise ValueError(f"kernel entry at row {bad[0]}, column {bad[1]} is not finite")
        if kernel.min() < -ROW_SUM_TOL or kernel.max() > 1.0 + 1e-9:
            bad = np.unravel_index(
                int(np.argmax(np.maximum(-kernel, kernel - 1.0))), kernel.shape
            )
            raise ValueError(f"kernel entry at row {bad[0]}, column {bad[1]} outside [0, 1]")
        row_sums = kernel.sum(axis=1)
        off = np.abs(row_sums - 1.0)
        if off.max() > ROW_SUM_TOL:
            row = int(np.argmax(off))
            raise ValueError(f"row {row} sums to {row_sums[row]!r}, expected 1")
        if outputs is None:
            outputs = tuple(f"y{j}" for j in range(kernel.shape[1]))
        else:
            outputs = tuple(str(o) for o in outputs)
        if len(outputs) != kernel.shape[1]:
            raise ValueError("outputs length does not match kernel columns")
        if len(set(outputs)) != len(outputs):
            raise ValueError("output labels must be distinct")
        if group is not None and group.size != kernel.shape[0]:
            raise ValueError(
                f"kernel has {kernel.shape[0]} rows but group has {group.size} elements"
            )
        kernel.setflags(write=False)
        self.kernel = kernel
        self.outputs = outputs
        self.group = group

    @property
    def n_inputs(self) -> int:
        return self.kernel.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.kernel.shape[1]

    def require_group(self) -> Group:
        if self.group is None:
            raise ValueError("channel is not bound to a group")
        return self.group

    def __repr__(self) -> str:
        g = f", group={self.group!r}" if self.group is not None else ""
        return f"Channel({self.n_inputs}x{self.n_outputs}{g})"


@dataclass(frozen=True)
class DeterminednessWitness:
    subgroup: Subgroup
    gap_capacity: float
    gap_quotient: float

    def to_dict(self) -> dict:
        return {
            "subgroup": self.subgroup.to_json(),
            "gap_capacity": self.gap_capacity,
            "gap_quotient": self.gap_quotient,
        }


@dataclass(frozen=True)
class DeterminednessResult:
    """Outcome of testing a channel against every subgroup at threshold delta.

    A subgroup qualifies when both the capacity gap |I(W) - log2|G/H|| and
    the quotient gap |I(W[H]) - log2|G/H|| are strictly below delta.
    Witnesses are sorted best-first by their larger gap.
    """

    determined: bool
    delta: float
    witnesses: tuple[DeterminednessWitness, ...]

    @property
    def best(self) -> DeterminednessWitness | None:
        return self.witnesses[0] if self.witnesses else None


def compose(v: Channel, w: Channel) -> Channel:
    """Channel (V o W)(z|x) = sum_y V(z|y) W(y|x); W feeds into V."""
    if v.n_inputs != w.n_outputs:
        raise ValueError(
            f"composition mismatch: V has {v.n_inputs} inputs, W has {w.n_outputs} outputs"
        )
    return Channel(w.kernel @ v.kernel, v.outputs, w.group)


def kernel_capacity(kernel: np.ndarray) -> float:
    """Mutual information in bits between a uniform input and the output of a kernel.

    Dead outputs, whose marginal is not positive (it may underflow to 0),
    are dropped.
    """
    p_y = kernel.sum(axis=0) / kernel.shape[0]
    live = p_y > 0.0
    if not live.all():
        kernel, p_y = kernel[:, live], p_y[live]
    with np.errstate(divide="ignore", invalid="ignore"):
        entropies = row_entropies_bits((kernel / (kernel.shape[0] * p_y)).T)
    return float(np.log2(kernel.shape[0]) - p_y @ entropies)


def symmetric_capacity(w: Channel) -> float:
    """Mutual information in bits between a uniform input and the output."""
    return kernel_capacity(w.kernel)


def deterministic_hom(group: Group, sub: Subgroup) -> Channel:
    """Deterministic channel mapping each element to its coset modulo the subgroup."""
    q = quotient(group, sub)
    kernel = np.zeros((group.size, q.count))
    kernel[np.arange(group.size), q.coset_of] = 1.0
    outputs = tuple(q.coset_label(j) for j in range(q.count))
    return Channel(kernel, outputs, group)


def _coset_average(group: Group, kernel: np.ndarray, sub: Subgroup) -> np.ndarray:
    """Kernel rows averaged over each coset of the subgroup, one row per coset.

    Each coset's rows are added to zero in element order, one member of
    every coset at a time.
    """
    members = quotient(group, sub).members
    out = np.zeros((len(members), kernel.shape[1]))
    for column in members.T:
        out += kernel[column]
    out /= sub.size
    return out


def conditional_channel(w: Channel, sub: Subgroup) -> Channel:
    """Coset-input channel: rows of W averaged over each coset of the subgroup."""
    return Channel(_coset_average(w.require_group(), w.kernel, sub), w.outputs)


def degradation_residual(w: Channel, other: Channel) -> float:
    """Smallest max-abs residual ||W - V o W'||_inf over row-stochastic V.

    Solved as a linear program: variables are the entries of V plus the
    residual bound t; zero residual means W is exactly a degradation of W'.
    """
    # scipy is imported here, its only use, so importing polarlab stays light
    import scipy.sparse as sp
    from scipy.optimize import linprog

    if w.n_inputs != other.n_inputs:
        raise ValueError(
            f"input alphabet mismatch: {w.n_inputs} vs {other.n_inputs}"
        )
    m, n = w.kernel.shape
    n_src = other.n_outputs
    n_vars = n_src * n + 1
    mix = sp.kron(sp.csr_matrix(other.kernel), sp.eye(n, format="csr"))
    minus_t = sp.csr_matrix(-np.ones((m * n, 1)))
    a_ub = sp.vstack(
        [sp.hstack([mix, minus_t]), sp.hstack([-mix, minus_t])], format="csr"
    )
    b_ub = np.concatenate([w.kernel.ravel(), -w.kernel.ravel()])
    a_eq = sp.hstack(
        [sp.kron(sp.eye(n_src, format="csr"), np.ones((1, n))), sp.csr_matrix((n_src, 1))],
        format="csr",
    )
    b_eq = np.ones(n_src)
    c = np.zeros(n_vars)
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"degradation LP failed: {res.message}")
    return float(res.fun)


def is_degraded(w: Channel, other: Channel) -> bool:
    """Whether W equals V o W' for some channel V, up to DEGRADATION_TOL."""
    return degradation_residual(w, other) <= DEGRADATION_TOL


def _check_delta(delta: float) -> None:
    # NaN fails every comparison, and an infinite delta would admit every subgroup
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be finite and positive, got {delta}")


class Classes(NamedTuple):
    """delta-classification of channels as columns: row s is channel s, column t subgroup t.

    Subgroups are indexed in enumeration order. `gap_capacity` is
    |I(W) - log2|G/H||; `gap_quotient` is |I(W[H]) - log2|G/H||, NaN where it
    was not needed (no channel of the column is within delta on capacity);
    `witness` marks the qualifying subgroups. Each row of `order` lists the
    subgroups with its witnesses first, best first by (larger gap, members),
    so row s's witnesses are order[s, :witness[s].sum()].
    """

    gap_capacity: np.ndarray
    gap_quotient: np.ndarray
    witness: np.ndarray
    order: np.ndarray

    def results(self, subgroups: Sequence[Subgroup], delta: float) -> list[DeterminednessResult]:
        """The DeterminednessResult of each row; `subgroups` in enumeration order."""
        out = []
        for s, count in enumerate(self.witness.sum(axis=1).tolist()):
            found = self.order[s, :count].tolist()
            gaps = zip(found, self.gap_capacity[s, found].tolist(), self.gap_quotient[s, found].tolist())
            witnesses = tuple(DeterminednessWitness(subgroups[t], *pair) for t, *pair in gaps)
            out.append(DeterminednessResult(bool(count), float(delta), witnesses))
        return out


@lru_cache(maxsize=None)
def _class_constants(group: Group) -> tuple[np.ndarray, np.ndarray]:
    """Each subgroup's target log2|G/H| and its rank by members, which breaks ties of the larger gap; read-only.

    Subgroups in enumeration order.
    """
    subgroups = enumerate_subgroups(group)
    targets = np.array([float(np.log2(group.size // sub.size)) for sub in subgroups])
    members = np.argsort(sorted(range(len(subgroups)), key=lambda t: subgroups[t].members))
    targets.setflags(write=False)
    members.setflags(write=False)
    return targets, members


def _classify(group: Group, capacities, quotient_capacities, delta: float) -> Classes:
    """delta-classification of channels on the group, given their capacities and quotient capacities.

    Channel s has capacity capacities[s], and quotient_capacities(H)
    returns I(W[H]) of every channel, in the same order, for the subgroup
    H; it is asked only for the subgroups that some channel is within
    delta of on capacity, in enumeration order. A Channel's come from its
    coset averages (delta_determining_subgroup), a walk's from the nodes'
    posterior matrices (polar.Chunk.quotient_capacities). delta is taken
    as checked (_check_delta).
    """
    subgroups = enumerate_subgroups(group)
    targets, members = _class_constants(group)
    gap_capacity = np.abs(np.asarray(capacities, dtype=float)[:, None] - targets)
    near = gap_capacity < delta
    gap_quotient = np.full(gap_capacity.shape, np.nan)
    for t in np.flatnonzero(near.any(axis=0)).tolist():
        gap_quotient[:, t] = np.abs(quotient_capacities(subgroups[t]) - targets[t])
    witness = near & (gap_quotient < delta)
    larger = np.where(witness, np.maximum(gap_capacity, gap_quotient), np.inf)
    order = np.lexsort((np.broadcast_to(members, witness.shape), larger))
    return Classes(gap_capacity, gap_quotient, witness, order)


def delta_determining_subgroup(w: Channel, delta: float) -> DeterminednessResult:
    """Find all subgroups whose quotient structure explains the channel at level delta."""
    _check_delta(delta)
    group = w.require_group()

    def quotient_capacities(sub: Subgroup) -> np.ndarray:
        return np.array([kernel_capacity(_coset_average(group, w.kernel, sub))])

    classes = _classify(group, [symmetric_capacity(w)], quotient_capacities, delta)
    return classes.results(enumerate_subgroups(group), delta)[0]


def channel_to_json(w: Channel) -> dict:
    return {
        "group": w.group.to_json() if w.group is not None else None,
        "outputs": list(w.outputs),
        "rows": [[float(v) for v in row] for row in w.kernel],
    }


def channel_from_json(obj: dict) -> Channel:
    if not isinstance(obj, dict):
        raise ValueError("channel JSON must be an object")
    for key in ("outputs", "rows"):
        if key not in obj:
            raise ValueError(f"channel JSON missing field {key!r}")
    if not isinstance(obj["outputs"], list):
        raise ValueError("field 'outputs' must be a list of labels")
    group = None
    if obj.get("group") is not None:
        if not isinstance(obj["group"], list):
            raise ValueError("field 'group' must be a list of cyclic orders")
        group = make_group(obj["group"])
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("field 'rows' must be a list of rows")
    if not rows:
        raise ValueError("field 'rows' must hold at least one row")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError("field 'rows' has ragged rows")
    return Channel(np.array(rows, dtype=float), obj["outputs"], group)
