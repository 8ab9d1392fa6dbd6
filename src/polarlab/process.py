"""The random polarization process: path enumeration, sampling, and traces.

Every mode walks the binary transform tree with one preorder generator,
`_preorder`, so each child reuses its parent's merged measure and each
measure is computed once. Per-path resource failures (atom budget) are
recorded on the affected paths; the rest of the tree is still evaluated.
Any other error raised while a node is computed is an internal fault and
stops the run as a PathFault that names the node.
Evaluation is sequential, and all outputs are deterministic given the
configuration; the thread count is accepted and selects nothing.
"""

from __future__ import annotations

import json
import os
from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blackwell import (
    DEFAULT_MERGE_TAU,
    BlackwellMeasure,
    blackwell_measure,
    capacity_of_measure,
)
from .channels import (
    Channel,
    DeterminednessResult,
    delta_determining_subgroup,
    symmetric_capacity,
)
from .groups import Subgroup
from .metrics import distance_to_pol
from .polar import (
    DEFAULT_ATOM_BUDGET,
    MINUS,
    PLUS,
    AtomBudgetError,
    capacity_gap,
    minus_transform,
    normalize_path,
    plus_transform,
    polar_step,
)

MAX_DEPTH = 16
DEFAULT_DELTA = 0.1
CAPACITY_HIST_BINS = 16
THREADS_ENV_VAR = "POLARLAB_THREADS"


class PathFault(RuntimeError):
    """An internal or numeric fault while computing one node of the transform tree.

    The message names the node's sign path; the original error is the cause.
    Inputs are validated before the walk starts, so a RuntimeError or
    ValueError raised while a node is computed is the program's fault, not
    the user's. Budget refusals are per-path results, not faults.
    """

    def __init__(self, path: str, error: Exception):
        super().__init__(f"path '{path}': {error}")
        self.path = path


class MartingaleResidual(NamedTuple):
    """|I(W-) + I(W+) - 2 I(W)| and ||I(W-)-I(W)| - |I(W+)-I(W)||, in bits."""

    residual: float
    asymmetry: float


def martingale_residual(w: Channel) -> MartingaleResidual:
    """Conservation check of one polarization step, on raw (unmerged) transforms."""
    i_w = symmetric_capacity(w)
    i_minus = symmetric_capacity(minus_transform(w))
    i_plus = symmetric_capacity(plus_transform(w))
    return MartingaleResidual(
        residual=abs(i_minus + i_plus - 2.0 * i_w),
        asymmetry=abs(abs(i_minus - i_w) - abs(i_plus - i_w)),
    )


@dataclass(frozen=True)
class PathRecord:
    """Evaluation of one synthetic channel at the end of a path."""

    path: str
    capacity: float | None = None
    capacity_gap: float | None = None
    determinedness: DeterminednessResult | None = None
    distance_to_pol: float | None = None
    nearest_subgroup: Subgroup | None = None
    atom_count: int | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        if not self.ok:
            return {"path": self.path, "error": self.error}
        return {
            "path": self.path,
            "error": None,
            "capacity": self.capacity,
            "capacity_gap": self.capacity_gap,
            "determined": self.determinedness.determined,
            "witnesses": [w.to_dict() for w in self.determinedness.witnesses],
            "distance_to_pol": self.distance_to_pol,
            "nearest_subgroup": self.nearest_subgroup.to_json(),
            "atoms": self.atom_count,
        }


@dataclass(frozen=True)
class TraceRecord:
    """One prefix level of a convergence trace."""

    depth: int
    prefix: str
    capacity: float
    capacity_gap: float
    distance_to_pol: float
    nearest_subgroup: Subgroup

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "prefix": self.prefix,
            "capacity": self.capacity,
            "capacity_gap": self.capacity_gap,
            "distance_to_pol": self.distance_to_pol,
            "nearest_subgroup": self.nearest_subgroup.to_json(),
        }


@dataclass
class PolarizationReport:
    """Per-path records plus aggregates for one polarization experiment."""

    config: dict
    records: list[PathRecord]
    level_gaps: dict[int, list[float]] = field(default_factory=dict)

    @property
    def evaluated(self) -> list[PathRecord]:
        return [r for r in self.records if r.ok]

    @property
    def failed(self) -> list[PathRecord]:
        return [r for r in self.records if not r.ok]

    def fraction_determined(self) -> float:
        done = self.evaluated
        if not done:
            return 0.0
        return sum(1 for r in done if r.determinedness.determined) / len(done)

    def subgroup_histogram(self) -> list[tuple[Subgroup, int]]:
        """Determined-path counts keyed by the best witness subgroup."""
        counts: dict[Subgroup, int] = {}
        for r in self.evaluated:
            if r.determinedness.determined:
                sub = r.determinedness.best.subgroup
                counts[sub] = counts.get(sub, 0) + 1
        return sorted(counts.items(), key=lambda kv: (kv[0].size, kv[0].members))

    def to_dict(self) -> dict:
        group_size = 1
        for d in self.config.get("group", []):
            group_size *= d
        done = self.evaluated
        capacities = [r.capacity for r in done]
        edges = np.linspace(0.0, np.log2(group_size), CAPACITY_HIST_BINS + 1)
        hist = np.histogram(capacities, bins=edges)[0] if capacities else np.zeros(
            CAPACITY_HIST_BINS, dtype=int
        )
        n_eval = len(done)
        return {
            "schema": "polarlab-report/1",
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "levels": [
                {
                    "depth": depth,
                    "median_capacity_gap": float(np.median(gaps)) if gaps else None,
                }
                for depth, gaps in sorted(self.level_gaps.items())
            ],
            "aggregates": {
                "evaluated": n_eval,
                "failed": len(self.failed),
                "fraction_determined": self.fraction_determined(),
                "mean_capacity": float(np.mean(capacities)) if capacities else None,
                "subgroup_histogram": [
                    {
                        "subgroup": sub.to_json(),
                        "count": count,
                        "fraction": count / n_eval,
                    }
                    for sub, count in self.subgroup_histogram()
                ],
                "capacity_histogram": [
                    {
                        "lo": float(edges[i]),
                        "hi": float(edges[i + 1]),
                        "count": int(hist[i]),
                    }
                    for i in range(CAPACITY_HIST_BINS)
                ],
            },
        }


def report_json(report_dict: dict) -> str:
    """Canonical JSON text for a report; re-serializing a parse is identical."""
    return json.dumps(report_dict, indent=2) + "\n"


def report_csv(report_dict: dict) -> str:
    """Flat key,value CSV of the report aggregates."""
    agg = report_dict["aggregates"]
    lines = ["key,value"]
    for key in ("evaluated", "failed", "fraction_determined", "mean_capacity"):
        lines.append(f"{key},{agg[key]}")
    for level in report_dict["levels"]:
        lines.append(f"median_capacity_gap[{level['depth']}],{level['median_capacity_gap']}")
    for item in agg["subgroup_histogram"]:
        sub = "{" + " ".join(str(i) for i in item["subgroup"]) + "}"
        lines.append(f"fraction_determined_by[{sub}],{item['fraction']}")
    for item in agg["capacity_histogram"]:
        lines.append(f"capacity_bin[{item['lo']}:{item['hi']}],{item['count']}")
    return "\n".join(lines) + "\n"


def resolve_threads(threads: int | None) -> int:
    """The thread count asked for, by argument or POLARLAB_THREADS (default 1)."""
    if threads is None:
        threads = int(os.environ.get(THREADS_ENV_VAR, "1"))
    return max(1, threads)


def _guarded_gap(m: BlackwellMeasure, atom_budget: int) -> float:
    """Capacity gap of a node, treated as budgeted work like a transform step.

    The gap diagnostic materializes all atom pairs, so a node whose pair set
    exceeds the budget cannot be evaluated, like a blocked minus step.
    """
    k = m.atom_count
    if k * k > atom_budget:
        raise AtomBudgetError(
            f"capacity-gap evaluation would materialize {k * k} atom pairs, "
            f"exceeding the budget of {atom_budget}"
        )
    return capacity_gap(m).value


# A node of the transform tree: its merged measure, or the budget-refusal
# message that stopped its path.
Node = BlackwellMeasure | str


def _preorder(
    root: BlackwellMeasure,
    depth: int,
    merge_tau: float = DEFAULT_MERGE_TAU,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
    wanted: Iterable[str] | None = None,
    gap_depths: Container[int] = (),
) -> Iterator[tuple[str, Node, float | None]]:
    """Walk the transform tree below `root` to `depth`, in preorder, '-' first.

    Yields (path, node, gap) for every prefix, or, given `wanted`, only for
    the prefixes of the wanted paths. Each measure is stepped once from its
    parent's, and only the parents of the nodes still to come are held, so
    memory grows with the depth. At the depths in `gap_depths` the node's
    guarded capacity gap is computed before its children are stepped;
    elsewhere `gap` is None. A refused step or gap replaces the node by its
    message, which stands in for every descendant; nothing below is computed.
    A step or gap that raises RuntimeError or ValueError raises PathFault.
    """
    prefixes = None if wanted is None else {p[:k] for p in wanted for k in range(len(p) + 1)}
    stack: list[tuple[str, Node | None]] = [("", None)]
    while stack:
        path, parent = stack.pop()
        node, gap = parent, None
        try:
            if parent is None:
                node = root
            elif not isinstance(parent, str):
                node = polar_step(parent, path[-1], merge_tau, atom_budget)
            if isinstance(node, BlackwellMeasure) and len(path) in gap_depths:
                gap = _guarded_gap(node, atom_budget)
        except AtomBudgetError as exc:
            node = str(exc)
        except (RuntimeError, ValueError) as exc:
            raise PathFault(path, exc) from exc
        yield path, node, gap
        if len(path) < depth:
            for sign in (PLUS, MINUS):
                if prefixes is None or path + sign in prefixes:
                    stack.append((path + sign, node))


def _evaluate(m: Node, path: str, gap: float | None, delta: float) -> PathRecord:
    if isinstance(m, str):
        return PathRecord(path=path, error=m)
    try:
        dist, nearest = distance_to_pol(m)
        det = delta_determining_subgroup(m.realize(), delta)
        capacity = capacity_of_measure(m)
    except (RuntimeError, ValueError) as exc:
        raise PathFault(path, exc) from exc
    return PathRecord(
        path=path,
        capacity=capacity,
        capacity_gap=gap,
        determinedness=det,
        distance_to_pol=dist,
        nearest_subgroup=nearest,
        atom_count=m.atom_count,
    )


def enumerate_paths(
    w: Channel,
    depth: int,
    delta: float = DEFAULT_DELTA,
    merge_tau: float = DEFAULT_MERGE_TAU,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
    threads: int | None = None,
    max_depth: int = MAX_DEPTH,
) -> PolarizationReport:
    """Evaluate every sign path of the given depth (2^depth records).

    Records appear in path order with '-' before '+' at every position. The
    capacity gap of every node is checked before its children are stepped,
    so a node whose gap exceeds the atom budget fails its whole subtree.
    `threads` is validated but selects nothing: evaluation is sequential.
    """
    if not 0 <= depth <= max_depth:
        raise ValueError(f"depth must be in [0, {max_depth}]")
    if delta <= 0:
        raise ValueError("delta must be positive")
    resolve_threads(threads)
    config = _config_echo(w, depth, "exhaustive", None, None, delta, merge_tau, atom_budget)

    records: list[PathRecord] = []
    level_gaps: dict[int, list[float]] = {}
    root = blackwell_measure(w, merge_tau)
    walk = _preorder(root, depth, merge_tau, atom_budget, gap_depths=range(depth + 1))
    for path, node, gap in walk:
        if gap is not None:
            level_gaps.setdefault(len(path), []).append(gap)
        if len(path) == depth:
            records.append(_evaluate(node, path, gap, delta))
    return PolarizationReport(config, records, level_gaps)


def sample_paths(
    w: Channel,
    depth: int,
    count: int,
    seed: int,
    delta: float = DEFAULT_DELTA,
    merge_tau: float = DEFAULT_MERGE_TAU,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
    threads: int | None = None,
    max_depth: int = MAX_DEPTH,
) -> PolarizationReport:
    """Evaluate `count` uniform random paths; one record per sample.

    Path i is drawn from a generator seeded by (seed, i), so the sample set
    does not depend on evaluation order. Each distinct path is evaluated
    once and its record repeated wherever it was drawn. Only the leaf's
    capacity gap is checked, so a refusal names the first step or the leaf
    gap that exceeded the budget. `threads` is validated but selects nothing.
    """
    if not 0 <= depth <= max_depth:
        raise ValueError(f"depth must be in [0, {max_depth}]")
    if count < 1:
        raise ValueError("sample count must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    resolve_threads(threads)
    config = _config_echo(w, depth, "sample", count, seed, delta, merge_tau, atom_budget)

    paths = []
    for i in range(count):
        bits = np.random.default_rng([seed, i]).integers(0, 2, size=depth)
        paths.append("".join(PLUS if b else MINUS for b in bits))

    root = blackwell_measure(w, merge_tau)
    walk = _preorder(root, depth, merge_tau, atom_budget, paths, gap_depths=(depth,))
    leaves = {
        path: _evaluate(node, path, gap, delta) for path, node, gap in walk if len(path) == depth
    }
    return PolarizationReport(config, [leaves[path] for path in paths], {})


def convergence_trace(
    w: Channel,
    path: str,
    delta: float = DEFAULT_DELTA,
    merge_tau: float = DEFAULT_MERGE_TAU,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> list[TraceRecord]:
    """Capacity, capacity gap and distance-to-fixed-points along path prefixes.

    Raises AtomBudgetError when a step or a prefix's capacity gap exceeds
    the atom budget, and PathFault when computing a prefix fails otherwise.
    """
    steps = normalize_path(path)
    depth = len(steps)
    root = blackwell_measure(w, merge_tau)
    out = []
    walk = _preorder(root, depth, merge_tau, atom_budget, [steps], gap_depths=range(depth + 1))
    for prefix, m, gap in walk:
        if isinstance(m, str):
            raise AtomBudgetError(m)
        try:
            dist, nearest = distance_to_pol(m)
            capacity = capacity_of_measure(m)
        except (RuntimeError, ValueError) as exc:
            raise PathFault(prefix, exc) from exc
        out.append(
            TraceRecord(
                depth=len(prefix),
                prefix=prefix,
                capacity=capacity,
                capacity_gap=gap,
                distance_to_pol=dist,
                nearest_subgroup=nearest,
            )
        )
    return out


def _config_echo(w: Channel, depth, mode, count, seed, delta, merge_tau, atom_budget) -> dict:
    return {
        "group": w.require_group().to_json(),
        "depth": depth,
        "mode": mode,
        "samples": count,
        "seed": seed,
        "delta": delta,
        "merge_tau": merge_tau,
        "atom_budget": atom_budget,
    }
