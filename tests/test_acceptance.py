"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Oracles are independent of the code paths they check: scalar erasure
recursions, brute-force subset closures, and hand-solved transport values
are defined here or recomputed inline.
"""

import time

import numpy as np
import pytest

from polarlab import (
    Channel,
    blackwell_measure,
    capacity_gap,
    deterministic_hom,
    distance_to_pol,
    enumerate_paths,
    enumerate_subgroups,
    is_degraded,
    make_group,
    martingale_residual,
    minus_on_measure,
    minus_transform,
    pc_gap_lower_bound,
    plus_on_measure,
    plus_transform,
    wasserstein,
)
from polarlab.presets import (
    dh_mix_channel,
    bec_channel,
    identity_channel,
    useless_channel,
    z4_multilevel_channel,
)
from polarlab import process
from polarlab.process import report_json
from polarlab.verify import multilevel_quotient_floor, random_corpus

Z2 = make_group([2])
Z4 = make_group([4])

TEST_GROUP_ORDERS = ([2], [3], [4], [2, 2], [6], [2, 4])

# Criterion 7 experiment: seeded random mixture of the Z4 quotient
# projections (see the dh-mix preset), drawn with seed 3.
TREND_SEED = 3
TREND_DEPTHS = (4, 6, 8)


def scalar_erasure(path: str, z: float) -> float:
    """Independent oracle: z -> 2z - z^2 on '-', z -> z^2 on '+'."""
    for sign in path:
        z = 2.0 * z - z * z if sign == "-" else z * z
    return z


def accept(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPT-{num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(count=200)


@pytest.fixture(scope="module")
def bec_report_bytes():
    start = time.time()
    report = enumerate_paths(bec_channel(0.5), 8, delta=0.1)
    elapsed = time.time() - start
    return report, report_json(report.to_dict()), elapsed


@pytest.fixture(scope="module")
def multilevel_report_bytes():
    start = time.time()
    report = enumerate_paths(z4_multilevel_channel(0.5), 12, delta=0.1)
    elapsed = time.time() - start
    return report, report_json(report.to_dict()), elapsed


@pytest.fixture(scope="module")
def trend_reports_bytes():
    w = dh_mix_channel(Z4, seed=TREND_SEED)
    start = time.time()
    reports = {d: enumerate_paths(w, d, delta=0.1) for d in TREND_DEPTHS}
    elapsed = time.time() - start
    return reports, {d: report_json(r.to_dict()) for d, r in reports.items()}, elapsed


def test_criterion_01_martingale_identity(corpus):
    start = time.time()
    worst_residual = 0.0
    worst_asymmetry = 0.0
    for w in corpus:
        r = martingale_residual(w)
        worst_residual = max(worst_residual, r.residual)
        worst_asymmetry = max(worst_asymmetry, r.asymmetry)
    elapsed = time.time() - start
    ok = worst_residual <= 1e-8 and worst_asymmetry <= 1e-8 and elapsed <= 10.0
    accept(
        1,
        "martingale-identity",
        ok,
        f"max|I(W-)+I(W+)-2I(W)|={worst_residual:.2e} <= 1e-8, "
        f"max asymmetry={worst_asymmetry:.2e} <= 1e-8, {elapsed:.1f}s <= 10s",
    )


def test_criterion_02_capacity_gap_routes(corpus):
    worst = 0.0
    for w in corpus:
        gap = capacity_gap(blackwell_measure(w))
        worst = max(worst, abs(gap.via_transform - gap.via_pairs))
    accept(2, "capacity-gap-routes", worst <= 1e-8, f"max route gap={worst:.2e} <= 1e-8")


def test_criterion_03_pol_set_forward():
    worst_gap = 0.0
    exact = True
    checked = 0
    for orders in TEST_GROUP_ORDERS:
        group = make_group(orders)
        for sub in enumerate_subgroups(group):
            m = blackwell_measure(deterministic_hom(group, sub))
            worst_gap = max(worst_gap, abs(capacity_gap(m).value))
            dist, nearest = distance_to_pol(m)
            exact = exact and dist == 0.0 and nearest == sub
            checked += 1
    ok = worst_gap <= 1e-10 and exact
    accept(
        3,
        "pol-set-forward",
        ok,
        f"{checked} quotient projections: max gap={worst_gap:.2e} <= 1e-10, "
        f"distance==(0, H) exact={exact}",
    )


def test_criterion_04_measure_channel_commutation(corpus):
    ok = True
    for w in corpus:
        m = blackwell_measure(w)
        if not blackwell_measure(minus_transform(w)).equals(
            minus_on_measure(m), w_tol=1e-10, q_tol=1e-9
        ):
            ok = False
            break
        if not blackwell_measure(plus_transform(w)).equals(
            plus_on_measure(m), w_tol=1e-10, q_tol=1e-9
        ):
            ok = False
            break
    accept(4, "measure-channel-commutation", ok,
           "minus and plus commute with measure extraction on 200 channels "
           "(atom L-inf <= 1e-9, weights <= 1e-10)")


def test_criterion_05_bec_pipeline_oracle(bec_report_bytes):
    report, _, elapsed = bec_report_bytes
    worst = 0.0
    max_atoms = 0
    for rec in report.records:
        worst = max(worst, abs(rec.capacity - (1.0 - scalar_erasure(rec.path, 0.5))))
        max_atoms = max(max_atoms, rec.atom_count)
    ok = (
        len(report.records) == 256
        and not report.failed
        and worst <= 1e-6
        and max_atoms <= 3
        and elapsed <= 30.0
    )
    accept(
        5,
        "bec-pipeline-oracle",
        ok,
        f"256 paths at depth 8: max capacity error={worst:.2e} <= 1e-6, "
        f"max atoms={max_atoms} <= 3, {elapsed:.1f}s <= 30s",
    )


def test_criterion_06_multilevel_z4(multilevel_report_bytes):
    report, _, pipeline_elapsed = multilevel_report_bytes
    start = time.time()
    delta = 0.1
    mismatches = 0
    oracle_counts = {(0,): 0, (0, 2): 0, None: 0}
    for rec in report.records:
        z = scalar_erasure(rec.path, 0.5)
        if z < delta:
            expected = (0,)
        elif z > 1.0 - delta:
            expected = (0, 2)
        else:
            expected = None
        oracle_counts[expected] += 1
        got = (
            rec.determinedness.best.subgroup.members
            if rec.determinedness.determined
            else None
        )
        if got != expected:
            mismatches += 1
    hist = {sub.members: count for sub, count in report.subgroup_histogram()}
    fractions_match = (
        hist.get((0,), 0) == oracle_counts[(0,)]
        and hist.get((0, 2), 0) == oracle_counts[(0, 2)]
    )
    floor = multilevel_quotient_floor(depth=12)
    elapsed = pipeline_elapsed + (time.time() - start)
    ok = (
        len(report.records) == 4096
        and not report.failed
        and mismatches == 0
        and fractions_match
        and floor >= 1.0 - 1e-6
        and elapsed <= 120.0
    )
    accept(
        6,
        "multilevel-z4",
        ok,
        f"4096 paths at depth 12: {mismatches} oracle mismatches, split "
        f"{hist.get((0,), 0)}/{hist.get((0, 2), 0)} matches oracle "
        f"{oracle_counts[(0,)]}/{oracle_counts[(0, 2)]}, "
        f"min I(W_s[H])={floor:.9f} >= 1-1e-6, {elapsed:.1f}s <= 120s",
    )


def test_criterion_07_convergence_trend(trend_reports_bytes):
    reports, _, elapsed = trend_reports_bytes
    coverage_ok = all(
        len(r.evaluated) == 2**d and not r.failed for d, r in reports.items()
    )
    fracs = {d: r.fraction_determined() for d, r in reports.items()}
    medians = {
        d: float(np.median([rec.capacity_gap for rec in r.evaluated]))
        for d, r in reports.items()
    }
    ref = {rec.path: rec.distance_to_pol for rec in reports[4].evaluated}
    improved = total = 0
    for rec in reports[8].evaluated:
        total += 1
        if rec.distance_to_pol <= ref[rec.path[:4]]:
            improved += 1
    fraction_trend = fracs[6] >= fracs[4] - 0.02 and fracs[8] >= fracs[6] - 0.02
    median_halved = medians[8] <= 0.5 * medians[4]
    distance_trend = improved / total >= 0.75
    ok = coverage_ok and fraction_trend and median_halved and distance_trend and elapsed <= 120.0
    accept(
        7,
        "convergence-trend",
        ok,
        f"fractions {fracs[4]:.3f}->{fracs[6]:.3f}->{fracs[8]:.3f} non-decreasing(0.02), "
        f"median gap {medians[4]:.4f}->{medians[8]:.4f} halved, "
        f"distance improved {improved}/{total} >= 75%, full coverage={coverage_ok}, "
        f"{elapsed:.1f}s <= 120s",
    )


def test_gap_capacity_is_the_record_capacity_gap(multilevel_report_bytes, trend_reports_bytes):
    # a leaf's capacity is computed once: its witnesses' capacity gaps are
    # |capacity - log2|G/H|| of the record's own capacity, bit for bit
    reports = [multilevel_report_bytes[0], *trend_reports_bytes[0].values()]
    witnesses = 0
    for report in reports:
        for rec in report.evaluated:
            for wit in rec.determinedness.witnesses:
                target = float(np.log2(Z4.size // wit.subgroup.size))
                assert wit.gap_capacity == abs(rec.capacity - target), rec.path
                witnesses += 1
    assert witnesses > 2000


def test_criterion_08_equivalence_invariance(corpus):
    ok = True
    detail = ""
    for i, w in enumerate(corpus):
        rng = np.random.default_rng([8, i])
        perm = rng.permutation(w.n_outputs)
        kernel = w.kernel[:, perm]
        # split the first permuted output 50/50
        split_kernel = np.column_stack([kernel[:, 0] / 2, kernel[:, 0] / 2, kernel[:, 1:]])
        outputs = tuple(f"s{j}" for j in range(split_kernel.shape[1]))
        other = Channel(split_kernel, outputs, w.group)
        m1, m2 = blackwell_measure(w), blackwell_measure(other)
        if not m1.identical(m2):
            ok, detail = False, f"channel {i}: canonical measures differ"
            break
        if not (is_degraded(w, other) and is_degraded(other, w)):
            ok, detail = False, f"channel {i}: mutual degradation failed"
            break
        if wasserstein(m1, m2) != 0.0:
            ok, detail = False, f"channel {i}: wasserstein nonzero"
            break
        if pc_gap_lower_bound(m1, m2, trials=16, seed=i) != 0.0:
            ok, detail = False, f"channel {i}: pc gap nonzero"
            break
    accept(8, "equivalence-invariance", ok,
           detail or "permutation+split on 200 channels: identical canonical "
                     "measures, mutual degradation, wasserstein=0, pc-gap=0")


def test_criterion_09_metric_sanity(corpus):
    measures = [blackwell_measure(w) for w in corpus[:150]]
    symmetric = True
    triangle = True
    for t in range(50):
        # channels t, t+5, t+10 share a group by corpus construction
        base = (t * 5) % 140
        a, b, c = measures[base], measures[base + 5], measures[base + 10]
        dab, dba = wasserstein(a, b), wasserstein(b, a)
        symmetric = symmetric and dab == dba
        triangle = triangle and dab <= wasserstein(a, c) + wasserstein(b, c) + 1e-9
    witness = pc_gap_lower_bound(
        blackwell_measure(identity_channel(Z2)),
        blackwell_measure(useless_channel(Z2)),
        trials=8,
        seed=0,
    )
    ok = symmetric and triangle and witness >= 0.5 - 1e-9
    accept(
        9,
        "metric-sanity",
        ok,
        f"50 triples: symmetry exact={symmetric}, triangle within 1e-9={triangle}, "
        f"pc bound identity-vs-useless={witness:.6f} >= 0.5-1e-9",
    )


def test_criterion_10_evaluation_order_determinism(
    bec_report_bytes, multilevel_report_bytes, trend_reports_bytes, monkeypatch
):
    # a chunk cap of one atom steps, merges and gaps every node alone
    monkeypatch.setattr(process, "_CHUNK_ATOMS", 1)
    bec_again = report_json(enumerate_paths(bec_channel(0.5), 8, delta=0.1).to_dict())
    ml_again = report_json(enumerate_paths(z4_multilevel_channel(0.5), 12, delta=0.1).to_dict())
    w = dh_mix_channel(Z4, seed=TREND_SEED)
    trend_again = {
        d: report_json(enumerate_paths(w, d, delta=0.1).to_dict()) for d in TREND_DEPTHS
    }
    ok = (
        bec_again == bec_report_bytes[1]
        and ml_again == multilevel_report_bytes[1]
        and all(trend_again[d] == trend_reports_bytes[1][d] for d in TREND_DEPTHS)
    )
    accept(
        10,
        "evaluation-order-determinism",
        ok,
        "criteria 5-7 reports byte-identical with every node stepped alone",
    )
