from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from test_polar import _measure_chunks

from polarlab import (
    BlackwellMeasure,
    Channel,
    blackwell_measure,
    capacity_gap,
    deterministic_hom,
    distance_to_pol,
    enumerate_subgroups,
    make_group,
    pc_gap_lower_bound,
    subgroup_from_members,
    transport_plan,
    wasserstein,
)
from polarlab import metrics
from polarlab.metrics import MARGINAL_TOL, pol_set
from polarlab.polar import MINUS, PLUS, Chunk, polar_step
from polarlab.presets import (
    bsc_channel,
    dh_mix_channel,
    identity_channel,
    parse_preset,
    random_channel,
    useless_channel,
    z4_multilevel_channel,
)
from polarlab.verify import random_corpus

Z2 = make_group([2])
Z4 = make_group([4])


def test_wasserstein_self_distance_zero():
    m = blackwell_measure(bsc_channel(0.1))
    assert wasserstein(m, m) == 0.0


def test_wasserstein_dirac_pair():
    # two single-atom measures: cost is the TV distance of the posteriors,
    # but single balanced atoms must be uniform, so build two-atom ones
    m1 = blackwell_measure(bsc_channel(0.1))
    m2 = blackwell_measure(bsc_channel(0.3))
    # hand-solved: optimal plan matches like-ordered atoms, TV = 0.2 each
    assert wasserstein(m1, m2) == pytest.approx(0.2, abs=1e-12)


def test_wasserstein_identity_vs_useless():
    m1 = blackwell_measure(identity_channel(Z2))
    m2 = blackwell_measure(useless_channel(Z2))
    assert wasserstein(m1, m2) == pytest.approx(0.5, abs=1e-12)


def test_transport_plan_marginals():
    m1 = blackwell_measure(random_channel(Z4, 5, seed=1))
    m2 = blackwell_measure(random_channel(Z4, 3, seed=2))
    plan = transport_plan(m1, m2)
    row = np.zeros(m1.atom_count)
    col = np.zeros(m2.atom_count)
    np.add.at(row, plan.source_index, plan.mass)
    np.add.at(col, plan.target_index, plan.mass)
    assert np.abs(row - m1.weights).max() <= 1e-10
    assert np.abs(col - m2.weights).max() <= 1e-10
    assert plan.mass.min() >= 0.0


def test_wasserstein_metric_axioms_random():
    measures = [blackwell_measure(random_channel(Z4, 4, seed=s)) for s in range(9)]
    for i in range(0, 9, 3):
        a, b, c = measures[i], measures[i + 1], measures[i + 2]
        dab, dba = wasserstein(a, b), wasserstein(b, a)
        assert dab == dba  # symmetry is exact by canonical orientation
        dac, dbc = wasserstein(a, c), wasserstein(b, c)
        assert dab <= dac + dbc + 1e-9
        assert dab >= 0.0


def test_wasserstein_rejects_non_finite_posteriors():
    # a NaN posterior must not become a NaN distance in a report; the
    # constructor rejects one, so this measure is assembled around it
    bad = object.__new__(BlackwellMeasure)
    bad.group = Z2
    bad.weights = np.array([0.5, 0.5])
    bad.posteriors = np.array([[1.0, 0.0], [np.nan, np.nan]])
    with pytest.raises(ValueError):
        wasserstein(bad, blackwell_measure(bsc_channel(0.1)))


def test_wasserstein_group_mismatch():
    with pytest.raises(ValueError):
        wasserstein(
            blackwell_measure(identity_channel(Z2)),
            blackwell_measure(identity_channel(Z4)),
        )


def test_pc_gap_lower_bound_examples():
    ident = blackwell_measure(identity_channel(Z2))
    useless = blackwell_measure(useless_channel(Z2))
    assert pc_gap_lower_bound(ident, useless) >= 0.5 - 1e-9
    # equal canonical measures: zero gap for every source
    w = bsc_channel(0.1)
    split = Channel(
        np.column_stack([w.kernel[:, 0] / 2, w.kernel[:, 0] / 2, w.kernel[:, 1]]),
        ("a", "b", "c"),
        Z2,
    )
    assert pc_gap_lower_bound(blackwell_measure(w), blackwell_measure(split)) == 0.0


def test_pc_gap_lower_bound_rejects_a_negative_seed():
    m = blackwell_measure(bsc_channel(0.1))
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        pc_gap_lower_bound(m, m, seed=-1)


def test_pc_gap_lower_bound_monotone_in_trials():
    m1 = blackwell_measure(random_channel(Z4, 4, seed=4))
    m2 = blackwell_measure(random_channel(Z4, 4, seed=5))
    values = [pc_gap_lower_bound(m1, m2, trials=t, seed=0) for t in (1, 4, 16, 64)]
    assert values == sorted(values)


def test_pc_gap_never_exceeds_twice_wasserstein_scale():
    # sanity: the bound is a genuine distance lower bound, so it vanishes on
    # equal measures and is bounded by 1
    m1 = blackwell_measure(random_channel(Z4, 4, seed=6))
    assert pc_gap_lower_bound(m1, m1) == 0.0
    m2 = blackwell_measure(random_channel(Z4, 4, seed=7))
    assert 0.0 <= pc_gap_lower_bound(m1, m2) <= 1.0


def test_pol_set_and_distance_fixed_points():
    for orders in ([2], [4], [2, 2], [6]):
        g = make_group(orders)
        for sub in enumerate_subgroups(g):
            m = blackwell_measure(deterministic_hom(g, sub))
            dist, nearest = distance_to_pol(m)
            assert dist == 0.0
            assert nearest == sub


def test_distance_to_pol_uniform_atom():
    m = blackwell_measure(useless_channel(Z4))
    dist, nearest = distance_to_pol(m)
    assert dist == 0.0
    assert nearest.members == (0, 1, 2, 3)


def test_distance_to_pol_bsc():
    # derived with the transport oracle: nearest fixed point is the identity
    # projection at cost TV((0.9,0.1),(1,0)) = 0.1
    m = blackwell_measure(bsc_channel(0.1))
    dist, nearest = distance_to_pol(m)
    assert dist == pytest.approx(0.1, abs=1e-12)
    assert nearest.members == (0,)


def test_perturbation_family_monotone():
    h = subgroup_from_members(Z4, [0, 2])
    dh = deterministic_hom(Z4, h)
    uniform_rows = np.full((4, 2), 0.5)
    results = []
    for lam in (0.1, 0.05, 0.01):
        kernel = (1 - lam) * dh.kernel + lam * uniform_rows
        m = blackwell_measure(Channel(kernel, dh.outputs, Z4))
        dist, nearest = distance_to_pol(m)
        gap = capacity_gap(m).value
        assert nearest == h
        results.append((gap, dist))
    gaps, dists = zip(*results)
    assert gaps[0] > gaps[1] > gaps[2]
    assert dists[0] > dists[1] > dists[2]


def _dense_lp_cost(cost, supply, demand):
    """Reference transport cost from a dense HiGHS dual-simplex LP."""
    k1, k2 = cost.shape
    a_eq = np.zeros((k1 + k2, k1 * k2))
    for i in range(k1):
        a_eq[i, i * k2:(i + 1) * k2] = 1.0
    for j in range(k2):
        a_eq[k1 + j, j::k2] = 1.0
    # the last column constraint is implied by the others
    res = linprog(
        cost.ravel(),
        A_eq=a_eq[:-1],
        b_eq=np.concatenate([supply, demand])[:-1],
        bounds=(0, None),
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return res.fun


def _reference_wasserstein(m1, m2):
    if m1.identical(m2):
        return 0.0
    cost = 0.5 * np.abs(m1.posteriors[:, None, :] - m2.posteriors[None, :, :]).sum(axis=2)
    return _dense_lp_cost(cost, m1.weights, m2.weights)


def test_wasserstein_light_dirac_atoms_exact():
    # A z4-multilevel:0.5 leaf with four Dirac atoms of weight w ~ 2.9e-11,
    # below the 1e-10 feasibility tolerance of an LP solver. Against the {0}
    # fixed point (four Diracs of weight 1/4) each light Dirac stays put and
    # the other 1/4 - w of each target comes from a half-weight atom at TV
    # cost 1/2, so the exact distance is 0.5 - 2w.
    m = blackwell_measure(z4_multilevel_channel(0.5))
    for sign in "--+-++---":
        m = polar_step(m, sign)
    light = m.weights[m.weights < 1e-10]
    assert len(light) == 4 and np.all(light == light[0])
    target = blackwell_measure(deterministic_hom(Z4, subgroup_from_members(Z4, [0])))
    assert abs(wasserstein(m, target) - (0.5 - 2 * light[0])) <= 1e-14


def test_transport_matches_dense_lp_on_corpus():
    corpus = [blackwell_measure(w) for w in random_corpus()]
    for t in range(len(corpus) - 5):
        a, b = corpus[t], corpus[t + 5]
        assert a.group == b.group
        assert abs(wasserstein(a, b) - _reference_wasserstein(a, b)) <= 1e-12
    for m in corpus:
        ref = [(_reference_wasserstein(m, target), sub) for sub, target in pol_set(m.group)]
        ref_dist, ref_sub = ref[0]
        for d, sub in ref[1:]:
            if d < ref_dist:
                ref_dist, ref_sub = d, sub
        dist, nearest = distance_to_pol(m)
        assert abs(dist - ref_dist) <= 1e-12
        assert nearest == ref_sub
        simplex_dist, simplex_sub = _enumeration_order_nearest(m)
        assert abs(dist - simplex_dist) <= 1e-12 and nearest == simplex_sub


def _enumeration_order_nearest(m):
    """The first target in enumeration order at the least transport distance."""
    best = None
    for sub, target in pol_set(m.group):
        d = wasserstein(m, target)
        if best is None or d < best[0]:
            best = (d, sub)
    return best


_WALKS = {
    "z4-multilevel:0.5 d7": (z4_multilevel_channel(0.5), 7),
    "dh-mix:3 Z2xZ4 d5": (dh_mix_channel(make_group([2, 4]), 3), 5),
}


@lru_cache(maxsize=None)
def _leaf_measures(walk):
    channel, depth = _WALKS[walk]
    level = [blackwell_measure(channel)]
    for _ in range(depth):
        level = [polar_step(m, sign) for m in level for sign in (MINUS, PLUS)]
    return tuple(level)


@pytest.mark.parametrize("walk", _WALKS)
def test_distance_to_pol_matches_enumeration_order(walk):
    # the certified row term may differ from the simplex's cost by rounding
    for m in _leaf_measures(walk):
        dist, nearest = distance_to_pol(m)
        simplex_dist, simplex_sub = _enumeration_order_nearest(m)
        assert abs(dist - simplex_dist) <= 1e-12 and nearest == simplex_sub


@pytest.mark.parametrize("walk", _WALKS)
def test_distance_to_pol_solves_no_leaf(walk):
    # on these walks the nearest-coset plan certifies every target the
    # search visits, so no leaf needs the transport simplex
    leaves = _leaf_measures(walk)
    with mock.patch.object(metrics, "wasserstein", side_effect=wasserstein) as solve:
        for m in leaves:
            distance_to_pol(m)
        assert metrics._nearest_pol(Chunk(leaves))[2].tolist() == [0] * len(leaves)
    assert solve.call_count == 0


def test_uncertified_leaf_falls_back_to_the_simplex():
    # random:3 on Z4 at depth 2: on leaf '++' the nearest-coset plan for the
    # nearest target, {0}, misses its marginals by about 9e-3, so that leaf,
    # and only that one, is solved
    level = [blackwell_measure(parse_preset("random:3", Z4))]
    for _ in range(2):
        level = [polar_step(m, sign) for m in level for sign in (MINUS, PLUS)]
    with mock.patch.object(metrics, "wasserstein", side_effect=wasserstein) as solve:
        distances, nearest, solves = metrics._nearest_pol(Chunk(level))
    uncertified = [i for i, solved in enumerate(solves.tolist()) if solved]
    assert uncertified == [3]
    assert all(call.args[0] is level[3] for call in solve.call_args_list)
    _, _, eps = metrics._pol_bounds(Chunk([level[3]]))
    assert 5e-3 < eps[0, 0] < 1.5e-2
    subgroups = [sub for sub, _ in pol_set(Z4)]
    for m, dist, index in zip(level, distances.tolist(), nearest.tolist()):
        simplex_dist, simplex_sub = _enumeration_order_nearest(m)
        assert abs(dist - simplex_dist) <= 1e-12 and subgroups[index] == simplex_sub


_CORPUS = random_corpus()


@given(index=st.integers(0, len(_CORPUS) - 1), path=st.text("-+", max_size=2))
def test_certified_distance_is_the_row_term(index, path):
    # the nearest-coset plan costs the row term and misses the target
    # weights by eps in L1, so the optimum lies in [row term, row term + eps/2]
    m = blackwell_measure(_CORPUS[index])
    for sign in path:
        if m.atom_count ** 2 * m.group.size > 2000:
            break
        m = polar_step(m, sign)
    (rows,), _, (eps,) = metrics._pol_bounds(Chunk([m]))
    targets = pol_set(m.group)
    for (_, target), row, e in zip(targets, rows.tolist(), eps.tolist()):
        excess = wasserstein(m, target) - row
        assert -1e-15 <= excess <= e / 2 + 1e-15
    (dist,), (best,), _ = metrics._nearest_pol(Chunk([m]))
    if eps[best] <= metrics._CERTIFY_EPS or targets[best][1].atom_count == 1:
        assert dist == rows[best]
    assert abs(dist - _enumeration_order_nearest(m)[0]) <= 1e-12


def test_one_atom_target_needs_no_solve():
    # the only plan onto Pol(G) is certified however far the measure's
    # weights sum from 1 by rounding; this one's sum is 1e-13 off
    m = object.__new__(BlackwellMeasure)
    m.group = Z2
    m.weights = np.array([0.5 + 1e-13, 0.5])
    m.posteriors = np.array([[0.49, 0.51], [0.51, 0.49]])
    _, _, (eps,) = metrics._pol_bounds(Chunk([m]))
    assert eps[-1] > metrics._CERTIFY_EPS
    with mock.patch.object(metrics, "wasserstein", side_effect=wasserstein) as solve:
        (dist,), (nearest,), (solves,) = metrics._nearest_pol(Chunk([m]))
    assert solve.call_count == solves == 0
    assert pol_set(Z2)[nearest][0].members == (0, 1) and abs(dist - 0.01) <= 1e-14


def _reference_nearest_pol(chunk):
    """The per-measure search that _nearest_pol runs as one sweep: each measure's
    targets sorted by (bound, index) and visited until a bound exceeds the best
    value by more than MARGINAL_TOL, keeping a tuple minimum of (value, index).
    Returns lists (distance, subgroup index, solves)."""
    targets = pol_set(chunk.group)
    lone = np.array([target.atom_count == 1 for _, target in targets])
    rows, bounds, eps = metrics._pol_bounds(chunk)
    found, solved = [], []
    columns = zip(chunk.measures, rows.tolist(), bounds.tolist(), (lone | (eps <= metrics._CERTIFY_EPS)).tolist())
    for m, rows, bounds, certified in columns:
        best, solves = (np.inf, -1), 0
        for bound, index in sorted(zip(bounds, range(len(targets)))):
            if bound > best[0] + MARGINAL_TOL:
                break
            if certified[index]:
                value = rows[index]
            else:
                value = wasserstein(m, targets[index][1])
                solves += 1
            best = min(best, (value, index))
        found.append(best)
        solved.append(solves)
    return [value for value, _ in found], [index for _, index in found], solved


def _assert_sweep_is_the_reference(measures):
    """_nearest_pol on a chunk of the measures, and on each alone, gives the
    reference search's distance bits, subgroups and solves, solving no more."""
    for chunk in (Chunk(measures), *(Chunk([m]) for m in measures)):
        with mock.patch.object(metrics, "wasserstein", side_effect=wasserstein) as solve:
            distance, index, solves = metrics._nearest_pol(chunk)
        want_distance, want_index, want_solves = _reference_nearest_pol(chunk)
        assert [x.hex() for x in distance.tolist()] == [x.hex() for x in want_distance]
        assert index.tolist() == want_index
        assert solves.tolist() == want_solves
        assert solve.call_count == sum(want_solves)


@settings(max_examples=40)
@given(case=_measure_chunks())
def test_nearest_pol_sweep_is_the_per_measure_search(case):
    _assert_sweep_is_the_reference(case[0])


def test_nearest_pol_sweep_solves_what_the_per_measure_search_solves():
    # random:3 on Z4 at depth 2: leaf '++', and only it, has an uncertified
    # target that the search visits
    level = [blackwell_measure(parse_preset("random:3", Z4))]
    for _ in range(2):
        level = [polar_step(m, sign) for m in level for sign in (MINUS, PLUS)]
    assert _reference_nearest_pol(Chunk(level))[2] == [0, 0, 0, 1]
    _assert_sweep_is_the_reference(level)


def test_nearest_pol_sweep_on_tied_targets_and_the_one_atom_target():
    # exact ties of bound and value between targets, a target kept in the
    # search by the margin alone, the one-atom measure Pol(G) itself, and a
    # measure whose one-atom target is certified only as the one-atom target
    z2z2 = make_group([2, 2])
    measures = []
    for members, weights in [
        (((0, 1), (0, 2)), (0.5, 0.5)),
        (((0, 2), (0, 1)), (0.5, 0.5)),
        (((0, 1), (0, 2), (0, 3)), (1 / 3, 1 / 3, 1 / 3)),
        (((0,), (0, 1), (0, 2), (0, 3)), np.array([2, 1, 1, 2]) / 6),
    ]:
        subs = [subgroup_from_members(z2z2, m) for m in members]
        kernel = np.hstack([w * deterministic_hom(z2z2, sub).kernel for w, sub in zip(weights, subs)])
        measures.append(blackwell_measure(Channel(kernel, None, z2z2)))
    measures.append(blackwell_measure(useless_channel(z2z2)))
    measures.append(blackwell_measure(identity_channel(z2z2)))
    _assert_sweep_is_the_reference(measures)
    # both mixtures of {0,1} and {0,2} go to {0,1}, the first in enumeration order
    _, nearest, _ = metrics._nearest_pol(Chunk(measures[:2]))
    assert [pol_set(z2z2)[t][0].members for t in nearest.tolist()] == [(0, 1), (0, 1)]
    m = object.__new__(BlackwellMeasure)
    m.group = Z2
    m.weights = np.array([0.5 + 1e-13, 0.5])
    m.posteriors = np.array([[0.49, 0.51], [0.51, 0.49]])
    _assert_sweep_is_the_reference([m, blackwell_measure(useless_channel(Z2)), blackwell_measure(bsc_channel(0.1))])


def _per_target_bounds(m):
    bounds = []
    for _, target in pol_set(m.group):
        cost = metrics._tv_cost_matrix(m.posteriors, target.posteriors)
        bounds.append(max(m.weights @ cost.min(axis=1), cost.min(axis=0) @ target.weights))
    return np.array(bounds)


def test_stacked_pol_bounds_match_per_target_bounds():
    measures = [blackwell_measure(w) for w in random_corpus(count=60)]
    measures += [m for walk in _WALKS for m in _leaf_measures(walk)[:32]]
    for m in measures:
        _, (bounds,), _ = metrics._pol_bounds(Chunk([m]))
        assert np.abs(bounds - _per_target_bounds(m)).max() <= 1e-12


@pytest.mark.parametrize(
    "members, weights",
    [
        # the even mixture of the projections modulo {0,1} and {0,2} is at
        # 1/4 from both
        (((0, 1), (0, 2)), (0.5, 0.5)),
        # this mixture is at 1/3 from the projections modulo {0} and {0,3},
        # but the transport lower bound for {0} rounds one ulp above 1/3:
        # only the search's margin keeps that target in the search
        (((0,), (0, 1), (0, 2), (0, 3)), np.array([2, 1, 1, 2]) / 6),
    ],
)
def test_distance_to_pol_tie_goes_to_first_subgroup(members, weights):
    z2z2 = make_group([2, 2])
    subs = [subgroup_from_members(z2z2, m) for m in members]
    kernel = np.hstack([w * deterministic_hom(z2z2, sub).kernel for w, sub in zip(weights, subs)])
    m = blackwell_measure(Channel(kernel, None, z2z2))
    dist, nearest = _enumeration_order_nearest(m)
    tied = [sub for sub, target in pol_set(z2z2) if wasserstein(m, target) == dist]
    assert len(tied) == 2 and tied[0] == nearest == subs[0]
    assert distance_to_pol(m) == (dist, nearest)


_GROUPS = [make_group(orders) for orders in ([2], [3], [4], [2, 2], [2, 4])]
# Column scales: ordinary, far below any solver tolerance, and subnormal.
_SCALES = (1.0, 1e-300, 1e-310, 5e-324)


@st.composite
def _kernels(draw, group, max_outputs):
    """Channel kernels with integer-ratio columns, so posteriors repeat across
    channels and coincide with coset-uniform ones; some columns are copies
    perturbed at the 1e-13 level, some are scaled down to subnormal weight."""
    n = draw(st.integers(1, max_outputs))
    counts = draw(st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n),
                           min_size=group.size, max_size=group.size))
    kernel = np.array(counts, dtype=float)
    kernel[kernel.sum(axis=1) == 0.0, 0] = 1.0
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        if n > 1:
            kernel[:, (j + 1) % n] = kernel[:, j] * (1.0 + 1e-13 * np.arange(1, group.size + 1))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        kernel[:, j] *= draw(st.sampled_from(_SCALES))
    kernel[kernel.sum(axis=1) == 0.0, 0] = 1.0
    return kernel / kernel.sum(axis=1, keepdims=True)


def _measure(group, kernel):
    return blackwell_measure(Channel(kernel, None, group), merge_tau=0.0)


def _assert_plan_valid(m1, m2):
    plan = transport_plan(m1, m2)
    assert np.all(plan.mass >= 0.0)
    row = np.zeros(m1.atom_count)
    col = np.zeros(m2.atom_count)
    np.add.at(row, plan.source_index, plan.mass)
    np.add.at(col, plan.target_index, plan.mass)
    assert np.abs(row - m1.weights).max() <= MARGINAL_TOL
    assert np.abs(col - m2.weights).max() <= MARGINAL_TOL
    assert plan.cost >= 0.0
    assert wasserstein(m1, m2) == wasserstein(m2, m1)


@given(data=st.data())
def test_transport_degenerate_inputs(data):
    group = data.draw(st.sampled_from(_GROUPS))
    small = data.draw(_kernels(group, 8))
    large = data.draw(_kernels(group, 64))
    a, b = _measure(group, small), _measure(group, large)
    assert wasserstein(a, _measure(group, small.copy())) == 0.0
    _assert_plan_valid(a, b)
    # merging two outputs keeps every other posterior bit for bit
    if large.shape[1] > 1:
        merged = np.column_stack([large[:, 0] + large[:, 1], large[:, 2:]])
        _assert_plan_valid(b, _measure(group, merged))
    for _, target in pol_set(group):
        _assert_plan_valid(a, target)
        _assert_plan_valid(b, target)
