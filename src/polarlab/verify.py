"""Built-in verification suites: oracle-backed checks runnable from the CLI.

Each suite returns CheckResult rows; a suite passes when every row passes.
The independent oracles (scalar erasure recursion, pairwise-entropy route)
are deliberately kept separate from the code paths they check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blackwell import blackwell_measure, capacity_of_measure
from .channels import (
    Channel,
    _coset_average,
    delta_determining_subgroup,
    deterministic_hom,
    kernel_capacity,
)
from .groups import enumerate_subgroups, make_group, subgroup_from_members
from .metrics import distance_to_pol, pol_set, wasserstein
from .polar import AtomBudgetError, Chunk, capacity_gap, minus_on_measure
from .presets import bec_channel, dh_mix_channel, random_channel, z4_multilevel_channel
from .process import (
    _evaluate_chunk,
    _walk_chunks,
    enumerate_paths,
    martingale_residual,
)

CORPUS_SEED = 20240810
CORPUS_GROUP_ORDERS = ([2], [3], [4], [2, 2], [6])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}: measured={self.measured:.3e} tolerance={self.tolerance:.3e}{extra}"


def random_corpus(count: int = 200) -> list[Channel]:
    """Random channels seeded by CORPUS_SEED, cycling over the small test groups, 2-6 outputs."""
    channels = []
    for i in range(count):
        group = make_group(CORPUS_GROUP_ORDERS[i % len(CORPUS_GROUP_ORDERS)])
        n_out = int(np.random.default_rng([CORPUS_SEED, i]).integers(2, 7))
        channels.append(random_channel(group, n_out, CORPUS_SEED + i))
    return channels


def bec_erasure_after(path: str, z0: float) -> float:
    """Scalar erasure-probability recursion: z -> 2z - z^2 (minus) or z^2 (plus)."""
    z = z0
    for sign in path:
        z = 2.0 * z - z * z if sign == "-" else z * z
    return z


def martingale_suite() -> list[CheckResult]:
    corpus = random_corpus()
    worst_residual = 0.0
    worst_asymmetry = 0.0
    for w in corpus:
        r = martingale_residual(w)
        worst_residual = max(worst_residual, r.residual)
        worst_asymmetry = max(worst_asymmetry, r.asymmetry)
    return [
        CheckResult("martingale.identity", worst_residual <= 1e-8, worst_residual, 1e-8,
                    f"{len(corpus)} random channels"),
        CheckResult("martingale.gap-symmetry", worst_asymmetry <= 1e-8, worst_asymmetry, 1e-8,
                    f"{len(corpus)} random channels"),
    ]


def lemma_gap_suite() -> list[CheckResult]:
    corpus = random_corpus()
    worst = 0.0
    worst_canonical = 0.0
    failures = 0
    for w in corpus:
        m = blackwell_measure(w)
        try:
            gap = capacity_gap(m)
        except RuntimeError:
            failures += 1
            continue
        # np.maximum keeps a NaN, which then fails the suite; max() would drop it
        worst = float(np.maximum(worst, abs(gap.via_transform - gap.via_pairs)))
        # the measure-side route: canonical minus transform, exact merging only
        canonical = capacity_of_measure(m) - capacity_of_measure(minus_on_measure(m, 0.0))
        worst_canonical = float(np.maximum(worst_canonical, abs(canonical - gap.value)))
    return [
        CheckResult(
            "capacity-gap.route-agreement",
            failures == 0 and worst <= 1e-8,
            worst,
            1e-8,
            f"{len(corpus)} random channels, {failures} route failures",
        ),
        CheckResult(
            "capacity-gap.canonical-route",
            failures == 0 and worst_canonical <= 1e-8,
            worst_canonical,
            1e-8,
            f"{len(corpus)} random channels, I(M) - I(M-) with M- canonical at tau 0",
        ),
    ]


def pol_set_suite() -> list[CheckResult]:
    results = []
    for orders in ([2], [3], [4], [2, 2], [6], [2, 4]):
        group = make_group(orders)
        worst_gap = 0.0
        fixed = True
        for sub in enumerate_subgroups(group):
            m = blackwell_measure(deterministic_hom(group, sub))
            worst_gap = max(worst_gap, abs(capacity_gap(m).value))
            dist, nearest = distance_to_pol(m)
            if dist != 0.0 or nearest != sub:
                fixed = False
        name = "x".join(f"Z{d}" for d in orders)
        results.append(
            CheckResult(f"pol-set.gap[{name}]", worst_gap <= 1e-10, worst_gap, 1e-10)
        )
        results.append(
            CheckResult(f"pol-set.fixed-point[{name}]", fixed, 0.0 if fixed else 1.0, 0.0)
        )
    results.append(pol_certificate_check())
    return results


def _acceptance_walks() -> list[tuple[Channel, int]]:
    """(channel, depth) of the walks of acceptance criteria 5-7 and of dh-mix:3 on Z2xZ4 at depth 5."""
    z4 = make_group([4])
    return [
        (bec_channel(0.5), 8),
        (z4_multilevel_channel(0.5), 12),
        *[(dh_mix_channel(z4, 3), depth) for depth in (4, 6, 8)],
        (dh_mix_channel(make_group([2, 4]), 3), 5),
    ]


def _walk_levels(w: Channel, depth: int):
    """The chunks of the walk below w, as process.Level; a failed node raises."""
    for level, _, _ in _walk_chunks(blackwell_measure(w), depth):
        for node in level.dead.values():
            if isinstance(node, str):
                raise AtomBudgetError(node)
            raise node
        yield level


def pol_certificate_check() -> CheckResult:
    """Leaf evaluation against the transport simplex and the channel route, on every leaf.

    The walks are _acceptance_walks(). Each leaf's distance must be within
    1e-12 of the enumeration-order minimum of exact transport solves, with
    the same subgroup, and its classification must name the same subgroups
    as that of the channel its measure realizes.
    """
    delta = 0.1
    walks = _acceptance_walks()
    leaves = solved = mismatches = 0
    worst = 0.0
    for w, depth in walks:
        targets = pol_set(w.require_group())
        for level in _walk_levels(w, depth):
            if len(level.paths[0]) < depth:
                continue
            nodes = level.nodes()
            got = _evaluate_chunk(Chunk(group=level.group, supports=level.supports), delta)
            classes = got.classes.results(enumerate_subgroups(w.require_group()), delta)
            for m, distance, nearest, solves, det in zip(
                nodes, got.distance.tolist(), got.subgroup.tolist(), got.solves.tolist(), classes
            ):
                dist, index = min((wasserstein(m, t), i) for i, (_, t) in enumerate(targets))
                channel = delta_determining_subgroup(m.realize(), delta)
                worst = max(worst, abs(distance - dist))
                leaves += 1
                solved += solves > 0
                mismatches += (
                    nearest != index
                    or det.determined != channel.determined
                    or [x.subgroup for x in det.witnesses] != [x.subgroup for x in channel.witnesses]
                )
    return CheckResult(
        "pol-set.certificate",
        worst <= 1e-12 and mismatches == 0,
        worst,
        1e-12,
        f"{leaves} leaves of {len(walks)} walks: {leaves - solved} certified, {solved} solved, "
        f"{mismatches} subgroup or class mismatches",
    )


def bec_oracle_suite() -> list[CheckResult]:
    depth, erasure = 8, 0.5
    report = enumerate_paths(bec_channel(erasure), depth)
    worst = 0.0
    max_atoms = 0
    for rec in report.records:
        expected = 1.0 - bec_erasure_after(rec.path, erasure)
        worst = max(worst, abs(rec.capacity - expected))
        max_atoms = max(max_atoms, rec.atom_count)
    return [
        CheckResult(f"bec-oracle.capacity[depth={depth}]", worst <= 1e-6, worst, 1e-6,
                    f"{len(report.records)} paths"),
        CheckResult(f"bec-oracle.atoms[depth={depth}]", max_atoms <= 3, float(max_atoms), 3.0),
    ]


def multilevel_quotient_floor(depth: int = 12) -> float:
    """Min of I(W_s[H]) over every node of the z4-multilevel:0.5 transform tree, H = {0,2}."""
    w = z4_multilevel_channel(0.5)
    group = w.require_group()
    sub = subgroup_from_members(group, [0, 2])
    floor = kernel_capacity(_coset_average(group, w.kernel, sub))

    for level in _walk_levels(w, depth):
        for path, m in zip(level.paths, level.nodes()):
            if path:
                floor = min(floor, kernel_capacity(_coset_average(group, m.realized_kernel(), sub)))
    return floor


def multilevel_oracle_class(z: float, delta: float) -> tuple[int, ...] | None:
    """Expected determining subgroup of a multilevel path, from the scalar oracle.

    The quotient level is always noiseless, so the channel is determined by
    the trivial subgroup when the refinement erasure z is below delta and by
    {0,2} when z is above 1 - delta.
    """
    if z < delta:
        return (0,)
    if 1.0 - z < delta:
        return (0, 2)
    return None


def multilevel_suite() -> list[CheckResult]:
    depth, erasure, delta = 12, 0.5, 0.1
    report = enumerate_paths(z4_multilevel_channel(erasure), depth, delta=delta)
    mismatches = 0
    oracle_counts: dict[tuple[int, ...] | None, int] = {}
    for rec in report.records:
        z = bec_erasure_after(rec.path, erasure)
        expected = multilevel_oracle_class(z, delta)
        oracle_counts[expected] = oracle_counts.get(expected, 0) + 1
        got = (
            rec.determinedness.best.subgroup.members
            if rec.determinedness.determined
            else None
        )
        if got != expected:
            mismatches += 1
    hist = {sub.members: count for sub, count in report.subgroup_histogram()}
    counts_match = (
        hist.get((0,), 0) == oracle_counts.get((0,), 0)
        and hist.get((0, 2), 0) == oracle_counts.get((0, 2), 0)
    )
    floor = multilevel_quotient_floor(depth)
    return [
        CheckResult(
            f"multilevel.classification[depth={depth}]",
            mismatches == 0,
            float(mismatches),
            0.0,
            f"{len(report.records)} paths vs scalar oracle",
        ),
        CheckResult(
            f"multilevel.split[depth={depth}]",
            counts_match,
            0.0 if counts_match else 1.0,
            0.0,
            f"oracle split {oracle_counts.get((0,), 0)}/{oracle_counts.get((0, 2), 0)}",
        ),
        CheckResult(
            f"multilevel.quotient-floor[depth={depth}]",
            floor >= 1.0 - 1e-6,
            1.0 - floor,
            1e-6,
        ),
    ]


def steps_suite() -> list[CheckResult]:
    """Every step of the walks of _acceptance_walks() against the general path.

    Each chunk of inner nodes is stepped as the walk steps it, on its
    weight blocks, with a plan table per walk, so that chunks on a shared
    posterior matrix replay a plan (polar.Chunk). Each child must be
    bitwise the one its measure's step alone gives, without a table.
    """
    walks = _acceptance_walks()
    steps = replayed = mismatches = 0
    for w, depth in walks:
        plans: dict = {}
        for level in _walk_levels(w, depth):
            if len(level.paths[0]) == depth:
                continue
            nodes = level.nodes()
            chunk = Chunk(group=level.group, supports=level.supports, plans=plans)
            for step in (Chunk.minus, Chunk.plus):
                for m, child in zip(nodes, step(chunk)):
                    mismatches += not child.identical(step(Chunk([m]))[0])
            steps += 2 * len(nodes)
            replayed += chunk.replayed
    return [
        CheckResult(
            "steps.shared-support",
            mismatches == 0,
            float(mismatches),
            0.0,
            f"{steps} steps of {len(walks)} walks: {replayed} replayed, {mismatches} mismatches",
        )
    ]


SUITES = {
    "martingale": martingale_suite,
    "lemma-gap": lemma_gap_suite,
    "pol-set": pol_set_suite,
    "bec-oracle": bec_oracle_suite,
    "multilevel": multilevel_suite,
    "steps": steps_suite,
}


def run_suites(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from all, {', '.join(SUITES)}")
    return SUITES[name]()
