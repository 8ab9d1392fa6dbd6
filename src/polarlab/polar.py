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
from typing import Iterable

import numpy as np

from ._util import row_entropies_bits
from .blackwell import (
    DEFAULT_MERGE_TAU,
    BlackwellMeasure,
    blackwell_measure,
    merge_outputs,
)
from .channels import Channel, kernel_capacity
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


def minus_transform(w: Channel, merge_tau: float | None = None) -> Channel:
    """First synthetic channel: guess u1 from the output pair (y1, y2)."""
    group = w.require_group()
    labels = tuple(f"({a}|{b})" for a in w.outputs for b in w.outputs)
    raw = Channel(_minus_kernel(group, w.kernel), labels, group)
    return raw if merge_tau is None else merge_outputs(raw, merge_tau)


def plus_transform(w: Channel, merge_tau: float | None = None) -> Channel:
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
    raw = Channel(out.reshape(group.size, -1), labels, group)
    return raw if merge_tau is None else merge_outputs(raw, merge_tau)


def _pair_convolutions(m: BlackwellMeasure) -> np.ndarray:
    """(k, k, |G|) array of posteriors p_i (*) p_j for all ordered atom pairs."""
    q = m.posteriors
    shifted = q[:, m.group.add_table]  # [i, u1, u2] = p_i(u1 + u2)
    return np.einsum("iuv,jv->iju", shifted, q)


def minus_on_measure(m: BlackwellMeasure, merge_tau: float = DEFAULT_MERGE_TAU) -> BlackwellMeasure:
    """Minus transform on atoms: weight w_i w_j at posterior p_i (*) p_j."""
    conv = _pair_convolutions(m)
    weights = np.outer(m.weights, m.weights).ravel()
    return BlackwellMeasure(
        m.group, weights, conv.reshape(-1, m.group.size), merge_tau
    )


def plus_on_measure(m: BlackwellMeasure, merge_tau: float = DEFAULT_MERGE_TAU) -> BlackwellMeasure:
    """Plus transform on atoms.

    For each atom pair (i, j) and each revealed first input u1, the atom has
    weight w_i w_j (p_i (*) p_j)(u1) and posterior
    x -> p_i(u1 + x) p_j(x) / (p_i (*) p_j)(u1); zero-probability u1 are skipped.
    """
    q = m.posteriors
    group = m.group
    shifted = q[:, group.add_table]  # [i, u1, x] = p_i(u1 + x)
    numer = np.einsum("iux,jx->ijux", shifted, q)
    conv = numer.sum(axis=3)
    weights = (m.weights[:, None, None] * m.weights[None, :, None]) * conv
    posteriors = np.divide(
        numer,
        conv[..., None],
        out=np.zeros_like(numer),
        where=conv[..., None] > 0.0,
    )
    return BlackwellMeasure(
        group, weights.ravel(), posteriors.reshape(-1, group.size), merge_tau
    )


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
    convolutions behind via_pairs, so a fault in either shows as a
    disagreement. Both are exact functionals of the measure and otherwise
    differ only by floating-point noise. The route through the canonical
    measure minus_on_measure(m, 0.0) builds and sorts k^2 atoms; it moved
    to verify.lemma_gap_suite, which checks it against .value.
    """
    kern = m.realized_kernel()
    via_transform = kernel_capacity(kern) - kernel_capacity(_minus_kernel(m.group, kern))
    conv = _pair_convolutions(m)
    h_conv = row_entropies_bits(conv.reshape(-1, m.group.size)).reshape(
        m.atom_count, m.atom_count
    )
    h_atoms = row_entropies_bits(m.posteriors)
    via_pairs = float(m.weights @ h_conv @ m.weights - m.weights @ h_atoms)
    if abs(via_transform - via_pairs) > GAP_ROUTE_TOL:
        raise RuntimeError(
            "capacity-gap routes disagree "
            f"({via_transform!r} vs {via_pairs!r}): implementation fault"
        )
    return CapacityGap(via_transform, via_pairs)


def polar_step(
    m: BlackwellMeasure,
    sign: str,
    merge_tau: float = DEFAULT_MERGE_TAU,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> BlackwellMeasure:
    """One minus/plus step on a measure, guarded by the atom budget.

    The budget caps the materialized (pre-merge) atom set: k^2 for a minus
    step and k^2 |G| for a plus step. Exceeding it raises; nothing is ever
    silently truncated.
    """
    sign = normalize_path(sign)
    if len(sign) != 1:
        raise ValueError("polar_step takes a single step")
    k = m.atom_count
    raw = k * k if sign == MINUS else k * k * m.group.size
    if raw > atom_budget:
        raise AtomBudgetError(
            f"step '{sign}' would materialize {raw} atoms from {k}, "
            f"exceeding the budget of {atom_budget}"
        )
    if sign == MINUS:
        return minus_on_measure(m, merge_tau)
    return plus_on_measure(m, merge_tau)


def synthetic(
    w: Channel,
    path: str | Iterable[str],
    merge_tau: float = DEFAULT_MERGE_TAU,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> Channel:
    """Iterated transforms along a path, canonically merged after each step.

    An empty path returns the channel unchanged. A non-empty path returns
    the canonical realization of the synthetic channel's Blackwell measure
    (outputs labeled a0, a1, ... in canonical atom order).
    """
    steps = normalize_path(path)
    if not steps:
        return w
    m = blackwell_measure(w, merge_tau)
    for sign in steps:
        m = polar_step(m, sign, merge_tau, atom_budget)
    return m.realize()
