"""Blackwell measures: canonical finitely-supported meta-probability measures.

The Blackwell measure of a group-bound channel places, on each output with
positive probability under uniform input, an atom at the input posterior of
that output. It is balanced (its mean is the uniform distribution) and it
determines the channel's equivalence class, so equality of canonical forms
is the package's channel-equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import entropy_bits, lex_order, row_entropies_bits
from .channels import Channel
from .groups import Group, make_group

DEFAULT_MERGE_TAU = 1e-9
BALANCE_TOL = 1e-9
MASS_TOL = 1e-12


def entropy(p: np.ndarray) -> float:
    """Entropy of a probability vector, in bits."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("expected a 1-D probability vector")
    if p.min() < -MASS_TOL or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("vector is not a probability distribution")
    return entropy_bits(p)


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _aggregate(weights: np.ndarray, posteriors: np.ndarray, labels: np.ndarray, k: int):
    """Merge atoms sharing a label: weights add, posteriors weight-average.

    A cluster whose member posteriors are bitwise identical keeps that row
    and is not averaged, so duplicate outputs merge without rounding noise.
    The other clusters average over weights scaled by the power of two that
    brings the cluster's total weight into [0.5, 1): subnormal weights would
    otherwise underflow w * q to zero and leave a 0/0 posterior. The scaling
    is exact, so it changes no result that did not underflow.
    """
    first = np.full(k, len(labels), dtype=np.int64)
    np.minimum.at(first, labels, np.arange(len(labels)))
    averaged = np.zeros(k, dtype=bool)
    averaged[labels[(posteriors != posteriors[first[labels]]).any(axis=1)]] = True
    w_new = np.zeros(k)
    np.add.at(w_new, labels, weights)
    q_new = posteriors[first]
    if averaged.any():
        members = np.flatnonzero(averaged[labels])
        member_labels = labels[members]
        _, exponent = np.frexp(w_new)
        acc = np.zeros((k, posteriors.shape[1]))
        np.add.at(
            acc,
            member_labels,
            np.ldexp(weights[members], -exponent[member_labels])[:, None] * posteriors[members],
        )
        q_new[averaged] = acc[averaged] / np.ldexp(w_new[averaged], -exponent[averaged])[:, None]
    return w_new, q_new


def _bucket_labels(posteriors: np.ndarray, tau: float) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Cluster labels from a tau-wide grid (exact duplicates when tau is 0).

    Labels number the distinct keys in lexicographic order, as
    np.unique(axis=0, return_inverse=True) would, from one stable sort.
    Returns (labels, None), or (None, order) when the keys are distinct;
    order is then the keys' lexicographic order (the rows' when tau is 0).
    """
    keys = np.floor(posteriors / tau).astype(np.int64) if tau > 0 else posteriors
    order = lex_order(keys)
    sorted_keys = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[0] = True
    np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=starts[1:])
    if starts.all():
        return None, order
    labels = np.empty(len(keys), dtype=np.int64)
    labels[order] = np.cumsum(starts) - 1
    return labels, None


def _sweep_labels(posteriors: np.ndarray, tau: float) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Union-find labels joining every atom pair within tau in L-infinity.

    Returns (labels, None), or (None, order) when no pair joins; order is
    then the rows' lexicographic order.
    """
    order = lex_order(posteriors)
    q = posteriors[order]
    k = len(q)
    # ends[i]: one past the last atom whose first coordinate is within tau
    ends = np.searchsorted(q[:, 0], q[:, 0] + tau, side="right")
    parent = list(range(k))
    changed = False
    for i in np.flatnonzero(ends > np.arange(1, k + 1)).tolist():
        hi = int(ends[i])
        close = np.abs(q[i + 1 : hi] - q[i]).max(axis=1) <= tau
        for off in np.flatnonzero(close):
            ri, rj = _find(parent, i), _find(parent, int(i + 1 + off))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
                changed = True
    if not changed:
        return None, order
    roots = np.array([_find(parent, i) for i in range(k)])
    _, labels_sorted = np.unique(roots, return_inverse=True)
    labels = np.empty(k, dtype=np.int64)
    labels[order] = labels_sorted.ravel()
    return labels, None


def _canonical_atoms(weights, posteriors, tau: float):
    """Prune, merge, lex-sort and normalize atoms.

    Returns (weights, posteriors, origin) where origin[i] is the final atom
    index of input atom i, or -1 if it was pruned for non-positive weight.
    """
    weights = np.asarray(weights, dtype=float).ravel()
    posteriors = np.asarray(posteriors, dtype=float) + 0.0  # normalizes -0.0
    if posteriors.ndim != 2 or len(weights) != posteriors.shape[0]:
        raise ValueError("atom arrays have mismatched shapes")
    origin = np.full(len(weights), -1, dtype=np.int64)
    keep = weights > 0.0
    origin[keep] = np.arange(int(keep.sum()))
    weights, posteriors = weights[keep], posteriors[keep]
    if len(weights) == 0:
        raise ValueError("measure has no atoms with positive weight")

    def apply(labels: np.ndarray) -> None:
        live = origin >= 0
        origin[live] = labels[origin[live]]

    def merge(labels: np.ndarray) -> None:
        nonlocal weights, posteriors
        weights, posteriors = _aggregate(weights, posteriors, labels, labels.max() + 1)
        apply(labels)

    # Merge until a pass merges nothing; the order in which that pass sorted
    # the rows orders the output, so they are not sorted again. A merging
    # bucket pass ends the loop only at tau = 0, where the rows it leaves are
    # the distinct rows numbered in lexicographic order, or on a single row.
    while True:
        labels, order = _bucket_labels(posteriors, tau)
        bucketed = labels is not None
        if bucketed:
            merge(labels)
        if tau == 0 or len(weights) == 1:
            break
        labels, order = _sweep_labels(posteriors, tau)
        if labels is not None:
            merge(labels)
        elif not bucketed:
            break
    if order is None:
        order = np.arange(len(weights))

    weights, posteriors = weights[order], posteriors[order]
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    apply(position)
    total = weights.sum()
    if total != 1.0:
        weights = weights / total
    row_sums = posteriors.sum(axis=1)
    if not np.all(row_sums == 1.0):
        posteriors = posteriors / row_sums[:, None]
    return weights, posteriors, origin


class BlackwellMeasure:
    """Canonical balanced measure: positive weights on lex-sorted posteriors.

    Construction canonicalizes: zero-weight atoms are pruned, posteriors
    within merge_tau in L-infinity are merged (weights summed, posteriors
    weight-averaged), and atoms are sorted lexicographically by posterior.
    """

    def __init__(self, group: Group, weights, posteriors, merge_tau: float = DEFAULT_MERGE_TAU):
        if merge_tau < 0:
            raise ValueError("merge_tau must be >= 0")
        weights = np.asarray(weights, dtype=float)
        posteriors = np.asarray(posteriors, dtype=float)
        # NaN passes every later check and would become an INT64_MIN grid key
        if not (np.isfinite(weights).all() and np.isfinite(posteriors).all()):
            raise ValueError("atom weights and posteriors must be finite")
        weights, posteriors, _ = _canonical_atoms(weights, posteriors, merge_tau)
        if posteriors.shape[1] != group.size:
            raise ValueError("posterior length does not match group size")
        if posteriors.min() < -MASS_TOL:
            raise ValueError("posterior entries must be non-negative")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("atom weights do not sum to 1")
        mean = weights @ posteriors
        if np.abs(mean - 1.0 / group.size).max() > BALANCE_TOL:
            raise ValueError("measure is not balanced: mean posterior is not uniform")
        weights.setflags(write=False)
        posteriors.setflags(write=False)
        self.group = group
        self.weights = weights
        self.posteriors = posteriors

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
        """Kernel W(y_i|x) = |G| w_i q_i(x), one column per atom, rows renormalized."""
        kernel = (self.posteriors * self.weights[:, None]).T * self.group.size
        return kernel / kernel.sum(axis=1, keepdims=True)

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
    def from_json(cls, obj: dict, merge_tau: float = DEFAULT_MERGE_TAU) -> "BlackwellMeasure":
        group = make_group(obj["group"])
        weights = [a["w"] for a in obj["atoms"]]
        posteriors = [a["q"] for a in obj["atoms"]]
        return cls(group, np.array(weights), np.array(posteriors), merge_tau)

    def __repr__(self) -> str:
        return f"BlackwellMeasure({self.atom_count} atoms on {self.group!r})"


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
