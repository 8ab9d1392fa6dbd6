import copy
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polarlab import (
    AtomBudgetError,
    BlackwellMeasure,
    Channel,
    blackwell_measure,
    capacity_gap,
    capacity_of_measure,
    convolve_dist,
    deterministic_hom,
    difference_span,
    enumerate_subgroups,
    make_group,
    merge_outputs,
    minus_on_measure,
    minus_transform,
    plus_on_measure,
    plus_transform,
    subgroup_from_members,
    symmetric_capacity,
    synthetic,
    translate_dist,
)
from polarlab import blackwell, metrics, polar, process, verify
from polarlab._util import row_entropies_bits
from polarlab.channels import Classes, kernel_capacity
from polarlab.groups import quotient
from polarlab.presets import (
    bec_channel,
    bsc_channel,
    dh_mix_channel,
    identity_channel,
    random_channel,
    useless_channel,
    z4_multilevel_channel,
)
from polarlab.verify import random_corpus

Z2 = make_group([2])
Z4 = make_group([4])


def brute_minus(w):
    """Transform kernel computed with explicit loops, straight from the sum."""
    g = w.group
    n = w.n_outputs
    out = np.zeros((g.size, n * n))
    for u1 in range(g.size):
        for y1 in range(n):
            for y2 in range(n):
                s = sum(
                    w.kernel[g.add(u1, u2), y1] * w.kernel[u2, y2]
                    for u2 in range(g.size)
                )
                out[u1, y1 * n + y2] = s / g.size
    return Channel(out, None, g)


def brute_plus(w):
    g = w.group
    n = w.n_outputs
    out = np.zeros((g.size, n * n * g.size))
    for u2 in range(g.size):
        for y1 in range(n):
            for y2 in range(n):
                for u1 in range(g.size):
                    out[u2, (y1 * n + y2) * g.size + u1] = (
                        w.kernel[g.add(u1, u2), y1] * w.kernel[u2, y2] / g.size
                    )
    return Channel(out, None, g)


def test_transforms_match_brute_force():
    for seed in range(5):
        w = random_channel(Z4, 3, seed=seed)
        assert np.allclose(minus_transform(w).kernel, brute_minus(w).kernel, atol=1e-14)
        assert np.allclose(plus_transform(w).kernel, brute_plus(w).kernel, atol=1e-14)


def test_minus_plus_identity_fixed_point():
    w = identity_channel(Z4)
    assert blackwell_measure(minus_transform(w)).identical(blackwell_measure(w))
    assert blackwell_measure(plus_transform(w)).identical(blackwell_measure(w))


def test_minus_plus_useless_fixed_point():
    w = useless_channel(Z4)
    assert blackwell_measure(minus_transform(w)).equals(blackwell_measure(w))
    assert blackwell_measure(plus_transform(w)).equals(blackwell_measure(w))


def test_bec_transforms_match_scalar_recursion():
    w = bec_channel(0.5)
    worse = blackwell_measure(brute_minus(w))
    assert worse.equals(blackwell_measure(bec_channel(0.75)), q_tol=1e-12)
    better = blackwell_measure(brute_plus(w))
    assert better.equals(blackwell_measure(bec_channel(0.25)), q_tol=1e-12)


def test_plus_capacity_never_below_minus():
    for seed in range(10):
        w = random_channel(Z4, 4, seed=seed)
        iw = symmetric_capacity(w)
        assert symmetric_capacity(plus_transform(w)) >= iw - 1e-9
        assert symmetric_capacity(minus_transform(w)) <= iw + 1e-9


def test_convolve_examples():
    p = np.array([0.9, 0.1])
    assert np.allclose(convolve_dist(Z2, p, p), [0.82, 0.18], atol=1e-15)
    uniform = np.full(2, 0.5)
    assert np.allclose(convolve_dist(Z2, uniform, p), uniform)
    point = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([0.2, 0.3, 0.4, 0.1])
    assert np.allclose(convolve_dist(Z4, q, point), q)


def test_translate_examples():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(translate_dist(Z4, p, 0), p)
    # point mass at x shifted by u lands at x - u
    point = np.zeros(4)
    point[3] = 1.0
    shifted = translate_dist(Z4, point, 1)
    assert shifted[2] == 1.0
    uniform = np.full(4, 0.25)
    assert np.allclose(translate_dist(Z4, uniform, 2), uniform)
    from polarlab import entropy

    assert entropy(translate_dist(Z4, p, 3)) == pytest.approx(entropy(p), abs=1e-12)


def test_measure_channel_commutation():
    for seed in range(10):
        w = random_channel(Z4, 4, seed=seed)
        m = blackwell_measure(w)
        lhs = blackwell_measure(minus_transform(w))
        rhs = minus_on_measure(m)
        assert lhs.equals(rhs, w_tol=1e-10, q_tol=1e-9)
        lhs = blackwell_measure(plus_transform(w))
        rhs = plus_on_measure(m)
        assert lhs.equals(rhs, w_tol=1e-10, q_tol=1e-9)


def test_plus_on_measure_weights_sum_to_one():
    m = blackwell_measure(random_channel(Z4, 5, seed=2))
    assert plus_on_measure(m).weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_transforms_with_inline_merge():
    w = bec_channel(0.5)
    merged = merge_outputs(minus_transform(w), 1e-9)
    raw = minus_transform(w)
    assert merged.n_outputs == 3  # erasure family: 9 raw outputs collapse
    assert raw.n_outputs == 9
    assert blackwell_measure(merged).identical(blackwell_measure(raw))
    merged_plus = merge_outputs(plus_transform(w), 1e-9)
    assert merged_plus.n_outputs <= 3
    assert blackwell_measure(merged_plus).identical(blackwell_measure(plus_transform(w)))


def test_capacity_gap_examples():
    h2 = lambda p: -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
    gap = capacity_gap(blackwell_measure(bsc_channel(0.1)))
    assert gap.value == pytest.approx(h2(0.18) - h2(0.1), abs=1e-12)
    assert abs(gap.via_transform - gap.via_pairs) <= 1e-9

    uniform_atom = blackwell_measure(useless_channel(Z4))
    assert capacity_gap(uniform_atom).value == pytest.approx(0.0, abs=1e-12)

    for sub in enumerate_subgroups(Z4):
        m = blackwell_measure(deterministic_hom(Z4, sub))
        assert abs(capacity_gap(m).value) <= 1e-10


def _reflected_convolutions(group, rows):
    """The wrong convolution r_i(u - v) r_j(v) in place of r_i(u + v) r_j(v), one row per pair."""
    shifted = rows[:, group.add_table[:, group.neg_table]]  # [i, u, v] = r_i(u - v)
    return np.einsum("iuv,jv->iju", shifted, rows).reshape(-1, group.size)


def test_capacity_gap_catches_wrong_pair_convolution():
    w = random_corpus(count=2)[1]
    assert w.group.orders == (3,)
    m = blackwell_measure(w)
    capacity_gap(m)
    # on Z3, u - v and u + v differ, and this channel's posteriors are not
    # symmetric under x -> -x, so the wrong convolution changes via_pairs
    def entropies(chunk):
        return row_entropies_bits(_reflected_convolutions(chunk.group, chunk.posteriors))

    with mock.patch.object(polar, "_convolution_entropies", entropies):
        with pytest.raises(RuntimeError, match="routes disagree"):
            capacity_gap(m)


def test_capacity_gap_catches_wrong_channel_side_convolution():
    # the mirror fault: the channel-side minus kernel from the wrong
    # convolution of the realized kernel's columns changes via_transform
    w = random_corpus(count=2)[1]
    m = blackwell_measure(w)

    def minus_capacities(chunk, posteriors):
        # column (i, j) is |G| w_i w_j (p_i (*) p_j), with the wrong convolution
        size = chunk.group.size
        minus = _reflected_convolutions(chunk.group, posteriors) * (size * chunk.pair_weights())[:, None]
        return [kernel_capacity(np.ascontiguousarray(minus.T))]

    with mock.patch.object(polar, "_minus_capacities", minus_capacities):
        with pytest.raises(RuntimeError, match="routes disagree"):
            capacity_gap(m)


def test_capacity_gap_catches_a_fault_in_the_pair_planes():
    # the routes share no convolution: the wrong convolution in the tiles
    # of via_pairs' pair entropies leaves the channel-side minus kernel as
    # it was, so the routes disagree
    w = random_corpus(count=2)[1]
    m = blackwell_measure(w)

    def planes(chunk, whole=None):
        yield slice(0, chunk.pair_starts[-1]), _reflected_convolutions(chunk.group, chunk.posteriors).T.copy()

    with mock.patch.object(polar, "_planes", planes):
        with pytest.raises(RuntimeError, match="routes disagree"):
            capacity_gap(m)


@pytest.mark.parametrize("route", ["_minus_capacities", "_convolution_entropies"])
def test_capacity_gap_catches_a_nan_route(route):
    # NaN compares false with any tolerance: a NaN on either route, from
    # the channel-side minus capacities or from the pair entropies, fails
    # the check instead of passing it
    m = blackwell_measure(random_channel(Z4, 5, seed=2))
    capacity_gap(m)

    def nan(chunk, *args):
        return np.full(len(chunk) if route == "_minus_capacities" else chunk.pair_starts[-1], np.nan)

    with mock.patch.object(polar, route, nan):
        with pytest.raises(RuntimeError, match="routes disagree"):
            capacity_gap(m)


def test_gap_suite_fails_on_a_nan_route():
    # verify's route-agreement check keeps a NaN route gap, which fails it
    gap = polar.CapacityGap(float("nan"), 0.5)
    with mock.patch.object(verify, "capacity_gap", lambda m: gap):
        agreement, _ = verify.lemma_gap_suite()
    assert not agreement.passed and np.isnan(agreement.measured)


def test_capacity_gap_nonnegative_random():
    for seed in range(20):
        m = blackwell_measure(random_channel(Z4, 5, seed=seed))
        assert capacity_gap(m).value >= -1e-12


def test_synthetic_paths():
    w = bec_channel(0.5)
    assert synthetic(w, "") is w
    twice_minus = synthetic(w, "--")
    assert symmetric_capacity(twice_minus) == pytest.approx(1 - 0.9375, abs=1e-9)
    # quotient projections are fixed points of any path
    h = subgroup_from_members(Z4, [0, 2])
    dh = deterministic_hom(Z4, h)
    target = blackwell_measure(dh)
    for path in ("-", "+", "-+", "+-+", "--++"):
        assert blackwell_measure(synthetic(dh, path)).equals(target, q_tol=1e-12)
    with pytest.raises(ValueError):
        synthetic(w, "-x")


def test_synthetic_budget_error_is_explicit():
    w = random_channel(Z4, 4, seed=0)
    with pytest.raises(AtomBudgetError, match="budget"):
        synthetic(w, "-+-+-+", atom_budget=100)


def test_convolution_entropy_equivalence():
    """Entropy is preserved by convolution iff the first argument is invariant
    under the subgroup spanned by the support differences of the second."""
    from polarlab import entropy

    rng = np.random.default_rng(23)
    h = subgroup_from_members(Z4, [0, 2])
    # invariant p: mixture of coset uniforms; q supported on one coset
    for _ in range(10):
        c = rng.dirichlet(np.ones(2))
        p = np.array([c[0] / 2, c[1] / 2, c[0] / 2, c[1] / 2])
        qmass = rng.dirichlet(np.ones(2))
        q = np.array([qmass[0], 0.0, qmass[1], 0.0])
        span = difference_span(Z4, np.flatnonzero(q > 0))
        assert span.members == (0, 2)
        shifted_ok = all(
            np.abs(translate_dist(Z4, p, u) - p).max() <= 1e-12 for u in span.members
        )
        assert shifted_ok
        assert entropy(convolve_dist(Z4, p, q)) == pytest.approx(entropy(p), abs=1e-10)
    # generic p: strict increase
    for _ in range(10):
        p = rng.dirichlet(np.ones(4))
        q = np.array([rng.uniform(0.2, 0.8), 0.0, 0.0, 0.0])
        q[2] = 1.0 - q[0]
        gap = entropy(convolve_dist(Z4, p, q)) - entropy(p)
        span = difference_span(Z4, [0, 2])
        invariant = all(
            np.abs(translate_dist(Z4, p, u) - p).max() <= 1e-10 for u in span.members
        )
        assert gap >= -1e-12
        assert invariant == (gap <= 1e-10)


def test_equivalence_respected_by_transforms():
    # same canonical measure before implies same canonical measure after
    w = bsc_channel(0.1)
    split = Channel(
        np.column_stack([w.kernel[:, 0] / 2, w.kernel[:, 0] / 2, w.kernel[:, 1]]),
        ("a", "b", "c"),
        Z2,
    )
    for transform in (minus_transform, plus_transform):
        a = blackwell_measure(transform(w))
        b = blackwell_measure(transform(split))
        assert a.equals(b, w_tol=1e-12, q_tol=1e-12)


# The per-measure transforms and capacity gap that polar.Chunk replaced,
# kept verbatim apart from canonicalization, which has its own reference:
# a chunk must reproduce their bits.


def _reference_minus(m, tau):
    conv = np.einsum("iuv,jv->iju", m.posteriors[:, m.group.add_table], m.posteriors)
    weights = np.outer(m.weights, m.weights).ravel()
    return BlackwellMeasure(m.group, weights, conv.reshape(-1, m.group.size), tau)


def _reference_plus(m, tau):
    q = m.posteriors
    shifted = q[:, m.group.add_table]  # [i, u1, x] = p_i(u1 + x)
    numer = np.einsum("iux,jx->ijux", shifted, q)
    conv = numer.sum(axis=3)
    weights = (m.weights[:, None, None] * m.weights[None, :, None]) * conv
    posteriors = np.divide(numer, conv[..., None], out=np.zeros_like(numer), where=conv[..., None] > 0.0)
    return BlackwellMeasure(m.group, weights.ravel(), posteriors.reshape(-1, m.group.size), tau)


def _reference_minus_capacity(m):
    # the minus kernel of the realized kernel has column (i, j) equal to
    # |G| w_i w_j (p_i (*) p_j): marginal w_i w_j s_ij, s_ij the sum of the
    # convolution, and posterior (p_i (*) p_j) / s_ij of entropy C_ij. Per
    # run of _product_rows first atoms, plane u of the convolutions is
    # posteriors[:, u + v] @ posteriors.T, whose shifted rows are a C-layout
    # copy (a gemm's bits depend on its shape); s o C, 0 at a dead pair, is
    # reduced by the weights, and the runs' sums added in order. A lone
    # column folds as a column of a wider tile does, left to right, as the
    # one-atom matrices of a chunk share a tile
    posteriors, w = m.posteriors, m.weights
    k, size = posteriors.shape
    rows = polar._product_rows(k, size)
    total = 0.0
    for i in range(0, k, rows):
        conv = np.stack([
            np.take(posteriors[i : i + rows], m.group.add_table[u], axis=1) @ posteriors.T for u in range(size)
        ])
        tile = conv.reshape(size, -1)
        wide = np.hstack([tile, tile]) if tile.shape[1] == 1 else tile
        s = wide.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            entropies = row_entropies_bits((wide / s).T)
        sc = np.where(s > 0.0, s * entropies, 0.0)[: tile.shape[1]].reshape(conv.shape[1:])
        total += w[i : i + rows] @ sc @ w
    return float(np.log2(size) - total)


def _left_fold(rows):
    """rows[0] + rows[1] + ..., added to zero left to right."""
    out = np.zeros(rows.shape[1:])
    for row in rows:
        out += row
    return out


def _reference_quotient_capacity(m, sub):
    # column i of the realized kernel's coset average is |G:H| w_i Q_i, Q_i
    # holding the coset sums of q_i, added to zero in element order: its
    # marginal is w_i s_i, s_i the sum of Q_i, and its posterior Q_i / s_i,
    # of entropy C_i; each sum folds left to right, and s o C counts 0
    # where s is not > 0. For H = {0} it is I(M)
    members = quotient(m.group, sub).members
    sums = _left_fold(m.posteriors.T[members.T])
    s = _left_fold(sums)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = sums / s
        terms = np.where(p > 0.0, p * np.log2(p), 0.0)
    sc = np.where(s > 0.0, s * -_left_fold(terms), 0.0)
    return float(np.log2(len(members)) - m.weights @ sc)


def _reference_gap(m):
    trivial = enumerate_subgroups(m.group)[0]
    via_transform = _reference_quotient_capacity(m, trivial) - _reference_minus_capacity(m)
    conv = np.einsum("iuv,jv->iju", m.posteriors[:, m.group.add_table], m.posteriors)
    h_conv = row_entropies_bits(conv.reshape(-1, m.group.size)).reshape(m.atom_count, m.atom_count)
    h_atoms = row_entropies_bits(m.posteriors)
    return polar.CapacityGap(via_transform, float(m.weights @ h_conv @ m.weights - m.weights @ h_atoms))


# Groups of every size class the summation kernels treat differently: rows
# shorter than 8 entries, exactly 8, longer, and the size cap of 64. On Z11
# and Z17 the row entropies of a one-atom measure's kernels sum to other
# bits in a chunk's layout than alone.
_CHUNK_GROUPS = ([2], [3], [4], [2, 2], [5], [6], [2, 4], [8], [3, 3], [11], [2, 2, 2, 2], [17], [4, 4, 4])


@st.composite
def _measure_chunks(draw):
    """Measures of mixed atom counts on one group, one-atom measures included."""
    group = make_group(draw(st.sampled_from(_CHUNK_GROUPS)))
    tau = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    measures = []
    for _ in range(draw(st.integers(1, 6))):
        # one output gives the one-atom measure
        n = draw(st.integers(1, 4 if group.size <= 16 else 2))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kernel = rng.dirichlet(np.full(n, draw(st.sampled_from([0.05, 0.5, 1.0]))), size=group.size)
        if draw(st.booleans()):  # split an output into two exact duplicates
            kernel = np.hstack([kernel, kernel[:, :1]])
            kernel[:, [0, -1]] /= 2.0
        m = blackwell_measure(Channel(kernel, None, group), tau)
        for sign in draw(st.text("-+", max_size=2 if group.size <= 8 else 0)):
            if m.atom_count ** 2 * group.size > 400:
                break
            m = polar.polar_step(m, sign, tau)
        measures.append(m)
    return measures, tau


@settings(max_examples=30)
@given(case=_measure_chunks())
def test_chunk_kernels_match_each_measure_alone(case):
    measures, tau = case
    chunk = polar.Chunk(measures)
    for got, m in zip(chunk.minus(tau), measures):
        assert got.identical(minus_on_measure(m, tau))
        assert got.identical(_reference_minus(m, tau))
        assert got.weights.flags.c_contiguous and got.posteriors.flags.c_contiguous
    for got, m in zip(chunk.plus(tau), measures):
        assert got.identical(plus_on_measure(m, tau))
        assert got.identical(_reference_plus(m, tau))
    gaps = _gap_list(chunk.gaps())
    assert gaps == [capacity_gap(m) for m in measures]
    assert gaps == [_reference_gap(m) for m in measures]


def test_a_segment_that_a_pass_leaves_keeps_its_row_order_in_a_joint_canonicalization():
    # at tau > 0 the first bucket pass of the joint call merges rows of the
    # other measure's plus children but none of this one-atom measure's,
    # whose five children lie in distinct cells; alone the pass leaves
    # them in their raw order, and the sweep that joins them averages them
    # in that order, so in the chunk they must not come back in key order
    group = make_group([5])
    row = [float.fromhex(x) for x in ("0x1.999999999999ap-3", "0x1.9999999999999p-3", "0x1.9999999999999p-3",
                                      "0x1.999999999999ap-3", "0x1.999999999999ap-3")]
    one = BlackwellMeasure(group, [1.0], [row], 1e-9)
    other = blackwell_measure(random_channel(group, 3, seed=1))
    for tau in (1e-9, 1e-3, 0.0):
        want = plus_on_measure(one, tau)
        assert want.identical(_reference_plus(one, tau))
        assert polar.Chunk([one, other]).plus(tau)[0].identical(want), tau
        assert polar.Chunk([other, one]).plus(tau)[1].identical(want), tau
        assert polar.Chunk([one, other]).plus(tau)[1].identical(plus_on_measure(other, tau)), tau


def _one_atom(group, seed):
    """A one-atom measure whose posterior is off uniform by far less than BALANCE_TOL."""
    noise = np.random.default_rng(seed).standard_normal(group.size) * 1e-12
    q = 1.0 / group.size + noise - noise.mean()
    return BlackwellMeasure(group, [1.0], [q / q.sum()])


def test_one_atom_measure_keeps_its_gap_in_a_chunk():
    # on Z11, beside other measures, a one-atom measure's kernel column
    # would sum its row entropies in another order than alone; and a block
    # of several one-atom measures would sum their pair convolutions in
    # another order than each alone, on every group but Z2
    for dims in ([11], [3], [12], [4, 4, 4]):
        group = make_group(dims)
        measures = [
            blackwell_measure(useless_channel(group)),
            blackwell_measure(random_channel(group, 3, seed=1)),
            _one_atom(group, 1),
            _one_atom(group, 2),
            blackwell_measure(random_channel(group, 2, seed=2)),
        ]
        got = _bits(_gap_list(polar.Chunk(measures).gaps()))
        assert got == _bits(_reference_gap(m) for m in measures), dims
        # alone, a one-atom measure's minus kernel is a tile of one column
        assert got == _bits(capacity_gap(m) for m in measures), dims


def test_one_atom_measures_are_convolved_once_for_their_minus_capacities(monkeypatch):
    # a one-atom measure's minus capacity is folded from its column of the
    # one-atom tiles: on useless Z11 at depth 3, where every node has one
    # atom on one matrix, each via_transform route forms the products of
    # its chunk's one distinct matrix once, not once per node, and every
    # gap keeps the reference's bits
    calls, routes, gapped = [], [], []
    real_products, real_minus, real_gaps = polar._column_products, polar._minus_capacities, polar.Chunk.gaps

    def products(r, table):
        calls.append(len(r))
        return real_products(r, table)

    def minus_capacities(chunk, posteriors):
        before = len(calls)
        out = real_minus(chunk, posteriors)
        routes.append((calls[before:], len(chunk.by_key), chunk.counts.tolist()))
        return out

    def gaps(chunk):
        out = real_gaps(chunk)
        gapped.append((list(chunk.measures), _gap_list(out)))
        return out

    monkeypatch.setattr(polar, "_column_products", products)
    monkeypatch.setattr(polar, "_minus_capacities", minus_capacities)
    monkeypatch.setattr(polar.Chunk, "gaps", gaps)
    process.enumerate_paths(useless_channel(make_group([11])), 3)
    assert sum(len(counts) for _, _, counts in routes) == 15
    assert all(formed == [matrices] == [1] and set(counts) == {1} for formed, matrices, counts in routes)
    for measures, got in gapped:
        assert _bits(got) == _bits(_reference_gap(m) for m in measures)


def _shared_blocks():
    """The measures of depth 3 of dh-mix:11 on Z2 x Z4, all on one 27-atom matrix, then three of their own
    matrices, two of 27 atoms; and blocks of them: two of the shared matrix, with interleaved positions,
    between which a chunk lays out a one-node matrix of 27 atoms, and one block per other measure."""
    group = make_group([2, 4])
    level = _level(blackwell_measure(dh_mix_channel(group, 11)), 3, polar.DEFAULT_MERGE_TAU)
    assert len({m.posteriors.tobytes() for m in level}) == 1
    others = [blackwell_measure(random_channel(group, outputs, seed=seed)) for seed, outputs in ((1, 27), (2, 27), (3, 5))]
    measures = [*level, *others]
    assert [m.atom_count for m in measures] == [27] * 10 + [5]

    def block(rows):
        weights = np.stack([measures[p].weights for p in rows])
        weights.setflags(write=False)
        q = measures[rows[0]].posteriors
        return polar.Block(q, q.tobytes(), weights, np.array(rows))

    return measures, [block([0, 2, 3, 5, 6]), block([8]), block([1, 4, 7]), block([9]), block([10])]


def test_nodes_on_a_shared_matrix_keep_their_own_gaps(monkeypatch):
    # several nodes on one matrix, with distinct weights, in two blocks and
    # beside one-node matrices of the same and of another atom count: the
    # shared matrix is convolved once, and each node's gap keeps the bits
    # of its measure alone, in both block orders, whether a tile holds
    # whole matrices or runs of three first atoms
    measures, blocks = _shared_blocks()
    for floats in (polar._PRODUCT_FLOATS, 1000):
        monkeypatch.setattr(polar, "_PRODUCT_FLOATS", floats)
        want = _bits(capacity_gap(m) for m in measures)
        assert want == _bits(_reference_gap(m) for m in measures)
        assert len({via_transform for via_transform, _ in want[:8]}) == 8
        for supports in (blocks, blocks[::-1]):
            chunk = polar.Chunk(group=measures[0].group, supports=supports)
            assert _bits(_gap_list(chunk.gaps())) == want
    assert polar._product_rows(27, 8) == 3


def test_the_route_reduces_each_node_by_its_own_weights():
    # injection: a reduction that reads the weights of the node before it
    # on the shared matrix changes via_transform alone, so the routes
    # disagree
    measures, blocks = _shared_blocks()
    chunk = polar.Chunk(group=measures[0].group, supports=blocks[:1])
    chunk.gaps()
    real_minus = polar._minus_capacities

    def neighbours(chunk, posteriors):
        shifted = copy.copy(chunk)
        shifted.weights = np.roll(chunk.weights, int(chunk.counts[0]))
        return real_minus(shifted, posteriors)

    with mock.patch.object(polar, "_minus_capacities", neighbours):
        with pytest.raises(RuntimeError, match="routes disagree"):
            chunk.gaps()


def _two_matrices():
    """Measures of depth 3 on Z4, eight of z4-multilevel:0.5 on one 6-atom matrix and eight of dh-mix:3 on
    one 7-atom matrix, then two of their own matrices, of 6 and of 3 atoms; and blocks of them: each shared
    matrix in one block, their positions interleaved, and one block per other measure."""
    levels = [_level(blackwell_measure(w), 3, polar.DEFAULT_MERGE_TAU) for w in (z4_multilevel_channel(0.5), dh_mix_channel(Z4, 3))]
    assert [len({m.posteriors.tobytes() for m in level}) for level in levels] == [1, 1]
    measures = [m for pair in zip(*levels) for m in pair]
    measures += [blackwell_measure(random_channel(Z4, outputs, seed=1)) for outputs in (6, 3)]
    assert [m.atom_count for m in measures] == [6, 7] * 8 + [6, 3]

    def block(rows):
        weights = np.stack([measures[p].weights for p in rows])
        weights.setflags(write=False)
        q = measures[rows[0]].posteriors
        return polar.Block(q, q.tobytes(), weights, np.array(rows))

    return measures, [block(list(range(0, 16, 2))), block([16]), block(list(range(1, 16, 2))), block([17])]


def _capacity_bits(values):
    return [float(value).hex() for value in values]


@pytest.mark.parametrize("case", [_shared_blocks, _two_matrices])
def test_per_matrix_reductions_match_each_node_alone(case):
    # each node's capacity and quotient capacities are its weights dotted
    # with vectors its posterior matrix decides once: bitwise its measure's
    # capacity alone and the per-matrix reference, in both block orders
    measures, blocks = case()
    group = measures[0].group
    for supports in (blocks, blocks[::-1]):
        chunk = polar.Chunk(group=group, supports=supports)
        assert _capacity_bits(chunk.capacities()) == _capacity_bits(capacity_of_measure(m) for m in measures)
        for sub in enumerate_subgroups(group):
            want = _capacity_bits(_reference_quotient_capacity(m, sub) for m in measures)
            assert _capacity_bits(chunk.quotient_capacities(sub)) == want, sub
            assert _capacity_bits(polar.Chunk([m]).quotient_capacities(sub)[0] for m in measures) == want, sub


def test_a_reused_table_entry_gives_the_fresh_bits(monkeypatch):
    # a chunk keeps the vectors of a matrix that two of its nodes share in
    # the table; a later chunk given the table reads them and computes
    # none, and gets the bits that a chunk without the table computes
    measures, blocks = _two_matrices()
    group = measures[0].group
    plans = {}
    first = polar.Chunk(group=group, supports=blocks[:2], plans=plans)
    first.capacities(), first.gaps()
    subgroups = enumerate_subgroups(group)
    for sub in subgroups:
        first.quotient_capacities(sub)
    assert {name for name, key in plans if key == blocks[0].key} == {
        "gap", "entropies", *(("cosets", sub.members) for sub in subgroups)
    }
    # the one-node matrix of the first chunk keeps nothing
    assert not any(key == blocks[1].key for _, key in plans)
    calls = []
    for name in ("row_entropies_bits", "_coset_entropies"):
        real = getattr(polar, name)
        monkeypatch.setattr(polar, name, lambda *args, real=real: calls.append(args) or real(*args))
    # two nodes of the matrix that the table holds, beside a node of the other
    supports = [blocks[0].take(slice(3, 5)), blocks[2].take(slice(0, 1))]

    def results(chunk):
        quotients = [_capacity_bits(chunk.quotient_capacities(sub)) for sub in subgroups]
        return _capacity_bits(chunk.capacities()), quotients, _bits(_gap_list(chunk.gaps()))

    got = results(polar.Chunk(group=group, supports=supports, plans=plans))
    # the chunk given the table mapped only the other matrix's 7 rows
    assert {len(args[-1]) for args in calls} == {7}
    assert got == results(polar.Chunk(group=group, supports=supports))


def test_nodes_on_their_own_matrices_keep_nothing_in_the_table():
    # a generic walk's table does not grow: a chunk whose nodes each have
    # their own matrix keeps no per-matrix vector
    plans = {}
    measures = [blackwell_measure(random_channel(Z4, outputs, seed=seed)) for seed, outputs in ((1, 6), (2, 6), (3, 3))]
    chunk = polar.Chunk(measures, plans)
    chunk.capacities(), chunk.gaps()
    for sub in enumerate_subgroups(Z4):
        chunk.quotient_capacities(sub)
    assert plans == {}


def test_the_capacity_reduces_each_node_by_its_own_weights(monkeypatch):
    # injection: an I(M) reduction that reads the weights of the node
    # before it on the shared matrix changes via_transform alone, so the
    # routes disagree
    measures, blocks = _shared_blocks()
    chunk = polar.Chunk(group=measures[0].group, supports=blocks[:1])
    chunk.gaps()
    real_weighted = polar.Chunk._weighted

    def neighbours(chunk, name, rowwise):
        shifted = copy.copy(chunk)
        shifted.weights = np.roll(chunk.weights, int(chunk.counts[0]))
        return real_weighted(shifted, name, rowwise)

    monkeypatch.setattr(polar.Chunk, "_weighted", neighbours)
    with pytest.raises(RuntimeError, match="routes disagree"):
        chunk.gaps()


def test_a_dhmix_walk_convolves_one_matrix_per_gaps_call(monkeypatch):
    # on the dhmix-z2z4 walk every gap node of a chunk sits on one 27-atom
    # matrix, which each gaps call convolves once
    stacks, calls = [], []
    real_products, real_gaps = polar._column_products, polar.Chunk.gaps

    def products(r, table):
        stacks[-1].append(r.shape)
        return real_products(r, table)

    def gaps(chunk):
        stacks.append([])
        calls.append(len(chunk))
        return real_gaps(chunk)

    monkeypatch.setattr(polar, "_column_products", products)
    monkeypatch.setattr(polar.Chunk, "gaps", gaps)
    process.enumerate_paths(dh_mix_channel(make_group([2, 4]), 11), 5)
    assert stacks == [[(1, 27, 8)]] * len(calls)
    assert sum(calls) == 63


def _gap_list(gaps):
    """A chunk's (via_transform, via_pairs) arrays as one CapacityGap per measure."""
    via_transform, via_pairs = gaps
    return [polar.CapacityGap(*pair) for pair in zip(via_transform.tolist(), via_pairs.tolist())]


def _bits(gaps):
    return [(gap.via_transform.hex(), gap.via_pairs.hex()) for gap in gaps]


@pytest.mark.parametrize("dims, outputs", [([2, 2], 160), ([2, 4], 120), ([3, 4], 100)])
def test_gaps_over_many_tiles_match_the_reference(monkeypatch, dims, outputs):
    # groups of order < 8, 8 and > 8, whose pair entropies fold their
    # planes in different orders. Beside a measure of several tiles: small
    # measures that share tiles, a one-atom measure, and a measure with a
    # dead output in its minus kernel, where the products of its light
    # atom's columns underflow
    group = make_group(dims)
    light = np.hstack([np.full((group.size, 1), 1e-300), random_channel(group, 3, seed=4).kernel])
    measures = [
        blackwell_measure(random_channel(group, outputs, seed=1)),
        *(blackwell_measure(random_channel(group, 5, seed=seed)) for seed in (2, 3, 4)),
        blackwell_measure(useless_channel(group)),
        blackwell_measure(Channel(light, None, group)),
    ]
    assert polar._product_rows(measures[0].atom_count, group.size) < measures[0].atom_count
    assert measures[-1].weights.min() < 1e-299
    # both tiled kernels cut the large measure by one rule: at the default
    # into a few runs, then into runs of two first atoms, and every measure
    # into runs of one, where each product is a gemv: the reference follows
    # the rule
    for floats in (polar._PRODUCT_FLOATS, 1000, 2 * group.size * (measures[0].atom_count + group.size), 1):
        monkeypatch.setattr(polar, "_PRODUCT_FLOATS", floats)
        want = _bits(_reference_gap(m) for m in measures)
        assert _bits(_gap_list(polar.Chunk(measures).gaps())) == want
        assert _bits(_gap_list(polar.Chunk(measures[::-1]).gaps())) == want[::-1]


def test_minus_capacities_hold_no_array_as_long_as_the_pairs():
    # the channel-side route folds each tile into its measures' sums as it
    # comes, so its peak memory is a few tiles' whatever the atom count:
    # doubling the atoms leaves it flat, below one float array over the
    # 360 000 pairs of the larger measure
    peaks = []
    for outputs in (300, 600):
        m = blackwell_measure(random_channel(Z2, outputs, seed=1))
        assert m.atom_count == outputs
        chunk = polar.Chunk([m])
        posteriors = chunk.posteriors
        tracemalloc.start()
        try:
            polar._minus_capacities(chunk, posteriors)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
    assert peaks[1] < 600 * 600 * 8, peaks


@pytest.mark.parametrize("dims, outputs", [([2, 2], 160), ([2, 4], 120), ([3, 4], 100)])
def test_steps_over_many_tiles_match_the_reference(monkeypatch, dims, outputs):
    # the steps take their pair convolutions from the tiles of _planes:
    # whatever the tiles, on groups of order < 8, 8 and > 8, the children of
    # a measure cut into first-atom runs, of small measures that share
    # tiles and of a one-atom measure keep the reference's bits
    group = make_group(dims)
    measures = [
        blackwell_measure(random_channel(group, outputs, seed=1)),
        *(blackwell_measure(random_channel(group, 4, seed=seed)) for seed in (2, 3)),
        blackwell_measure(useless_channel(group)),
    ]
    assert polar._product_rows(measures[0].atom_count, group.size) < measures[0].atom_count
    tau = polar.DEFAULT_MERGE_TAU
    minus = [_reference_minus(m, tau) for m in measures]
    plus = [_reference_plus(m, tau) for m in measures]
    for floats in (polar._PRODUCT_FLOATS, 1000, 1):
        monkeypatch.setattr(polar, "_PRODUCT_FLOATS", floats)
        for step in (1, -1):
            chunk = polar.Chunk(measures[::step])
            assert all(got.identical(want) for got, want in zip(chunk.minus(tau), minus[::step]))
            assert all(got.identical(want) for got, want in zip(chunk.plus(tau), plus[::step]))


@pytest.mark.parametrize("dims", _CHUNK_GROUPS)
def test_pair_planes_are_a_left_fold_over_v(monkeypatch, dims):
    # the kernel behind both the steps and via_pairs sums every pair of a
    # measure of two or more atoms left to right in v, whatever the tiles;
    # an einsum that reordered its sum would change reports, and fails here
    group = make_group(dims)
    # two measures of one atom count share their tiles
    measures = [blackwell_measure(random_channel(group, n, seed=seed)) for seed, n in enumerate((2, 3, 3, 5))]
    assert min(m.atom_count for m in measures) >= 2

    def left_fold(m):
        q = m.posteriors
        shifted = q[:, group.add_table]  # [i, u, v] = p_i(u + v)
        fold = shifted[:, None, :, 0] * q[None, :, None, 0]
        for v in range(1, group.size):
            fold = fold + shifted[:, None, :, v] * q[None, :, None, v]
        return fold.reshape(-1, group.size)

    for floats in (polar._PRODUCT_FLOATS, 1):
        monkeypatch.setattr(polar, "_PRODUCT_FLOATS", floats)
        chunk = polar.Chunk(measures)
        want = np.concatenate([left_fold(measures[j]) for j in chunk.layout])
        got = np.full((group.size, chunk.pair_starts[-1]), np.nan)
        for pairs, planes in polar._planes(chunk):
            got[:, pairs] = planes
        assert np.array_equal(got.T, want)
        assert np.array_equal(chunk.conv, want)


def test_one_atom_plus_step_matches_the_reference_on_every_group():
    # A one-atom measure's pair convolution, summed by its own einsum in
    # _planes, differs in its last bits from the reference's row sums on Z6
    # and Z14, among others, and so do its plus children; the plus step sums
    # such a measure's rows itself.
    for size in range(2, 65):
        group = make_group([size])
        lone = blackwell_measure(useless_channel(group))
        other = blackwell_measure(random_channel(group, 2, seed=1))
        assert plus_on_measure(lone).identical(_reference_plus(lone, polar.DEFAULT_MERGE_TAU))
        assert polar.Chunk([lone, other]).plus()[0].identical(plus_on_measure(lone))


def _broadcast_raw_plus(chunk):
    """Chunk.raw("+") with every size run's numerators, quotients and weights broadcast over (u1, x)."""
    size = chunk.group.size
    numer = np.empty((chunk.pair_starts[-1], size, size))
    for k, a, b in chunk.blocks:
        q = chunk.block(chunk.posteriors, k, a, b)
        out = numer[chunk.pair_starts[a] : chunk.pair_starts[b]].reshape(b - a, k, k, size, size)
        np.multiply(q[:, :, None, chunk.group.add_table], q[:, None, :, None, :], out=out)
    conv = np.array(chunk.conv, order="C")
    k, a, b = chunk.blocks[0]
    if k == 1:
        rows = slice(chunk.pair_starts[a], chunk.pair_starts[b])
        conv[rows] = numer[rows].sum(axis=2)
    numer /= np.where(conv > 0.0, conv, 1.0)[..., None]
    return (chunk.pair_weights()[:, None] * conv).ravel(), numer.reshape(-1, size), conv


@pytest.mark.parametrize("dims", [[2], [3], [4], [2, 4], [6]])
def test_plus_raw_children_match_the_broadcast_on_both_sides_of_the_rule(monkeypatch, dims):
    # the plus step builds a size run's numerators plane by plane or by
    # broadcasting, by its atom count: either way, alone or beside one-atom
    # measures and runs of the other form, each entry of the weights,
    # posteriors and factor has the broadcast's bits; the real rule puts
    # k >= 24 on Z2 alone on the planes, and the forced rules put every run
    # of two or more atoms on either side
    group = make_group(dims)
    lone = blackwell_measure(useless_channel(group))
    measures = [blackwell_measure(random_channel(group, k, seed=k)) for k in range(1, 41)]
    assert [m.atom_count for m in measures] == list(range(1, 41))
    chunks = [[m] for m in measures] + [
        [lone, measures[k - 1], lone, measures[(3 * k) % 40]] for k in range(2, 41, 3)
    ] + [[measures[k - 1], measures[40 - k]] for k in range(1, 21)]
    rule = polar._by_planes
    for by_planes in (rule, lambda k, size: k > 1, lambda k, size: False):
        monkeypatch.setattr(polar, "_by_planes", by_planes)
        for chunk_measures in chunks:
            chunk = polar.Chunk(chunk_measures)
            got = chunk.raw("+")
            want = _broadcast_raw_plus(chunk)
            for a, b in zip(got, want):
                assert a.shape == b.shape and np.ascontiguousarray(a).tobytes() == b.tobytes()
    assert rule(24, 2) and not rule(23, 2) and not rule(1000, 3) and not rule(1000, 4)


def test_joint_steps_give_each_part_its_own_children():
    # parts of several chunks and both signs, a node in more than one part,
    # stepped in one general-path call: every child is bitwise the one its
    # node's step gives it alone
    tau = 1e-3
    level = _level(blackwell_measure(bsc_channel(0.11), tau), 3, tau)
    assert len({m.posteriors.tobytes() for m in level}) == len(level)
    parts = [(level[:3], "-"), (level[2:6], "+"), (level[:1], "+"), (level[7:], "-")]
    got = polar.steps([(polar.Chunk(measures), sign) for measures, sign in parts], tau)
    assert len(got) == len(parts)
    for (measures, sign), blocks in zip(parts, got):
        step = minus_on_measure if sign == "-" else plus_on_measure
        blocks = sorted(blocks, key=lambda block: int(block.rows[0]))
        assert [block.rows.tolist() for block in blocks] == [[i] for i in range(len(measures))]
        for m, block in zip(measures, blocks):
            ((weights,),) = [block.weights]
            child = BlackwellMeasure._canonical(m.group, weights, block.posteriors)
            assert child.identical(step(m, tau)) and block.key == block.posteriors.tobytes()


def test_plus_step_rejects_a_nan_convolution():
    # a row of zero convolution is skipped, but a NaN one must not be
    m = object.__new__(BlackwellMeasure)
    m.group, m.weights = Z2, np.array([0.5, 0.5])
    m.posteriors = np.array([[0.2, 0.8], [np.nan, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        plus_on_measure(m)


# Presets whose nodes of one depth mostly share one posterior matrix, so
# the steps of a chunk of them replay one plan.
_SHARED_SUPPORTS = (
    *[("dh-mix", orders) for orders in ([2], [3], [4], [6], [2, 2], [2, 4], [2, 2, 2])],
    ("bec", [2]),
    ("bec", [4]),
    ("z4-multilevel", [4]),
)


def _level(m, depth, tau):
    """The 2**depth measures at `depth` below m, stepped by the general path."""
    level = [m]
    for _ in range(depth):
        level = [child for n in level for child in (minus_on_measure(n, tau), plus_on_measure(n, tau))]
    return level


@settings(max_examples=80)
@given(
    preset=st.sampled_from(_SHARED_SUPPORTS),
    seed=st.integers(0, 40),
    erasure=st.sampled_from([0.3, 0.5, 0.7]),
    depth=st.integers(1, 3),
    tau=st.sampled_from([0.0, 1e-9, 1e-3]),
    data=st.data(),
)
def test_replayed_children_are_the_general_paths(preset, seed, erasure, depth, tau, data):
    name, orders = preset
    group = make_group(orders)
    if name == "dh-mix":
        w = dh_mix_channel(group, seed)
    elif name == "bec":
        w = bec_channel(erasure, group)
    else:
        w = z4_multilevel_channel(erasure)
    level = _level(blackwell_measure(w, tau), depth, tau)
    level = [m for m in level if m.atom_count ** 2 * group.size <= 6000]
    assume(level)
    picks = data.draw(st.lists(st.sampled_from(range(len(level))), min_size=2, max_size=6))
    measures = [level[i] for i in picks]
    plans = {}
    chunk = polar.Chunk(measures, plans)
    minus, plus = chunk.minus(tau), chunk.plus(tau)
    for m, a, b in zip(measures, minus, plus):
        assert a.identical(minus_on_measure(m, tau))
        assert b.identical(plus_on_measure(m, tau))
    # a shared matrix's plan replays every measure on it but the recorder
    valid = [support for (_, support), plan in plans.items() if plan is not None]
    sharing = {key: len(members) for key, members in chunk.by_key.items()}
    assert chunk.replayed == sum(sharing[support] - 1 for support in valid)
    if tau == 0 or group.size & (group.size - 1) == 0:
        # exact merging only, or dyadic coset-uniform posteriors: no
        # cluster is averaged
        assert None not in plans.values()
    assert _gap_list(chunk.gaps()) == [capacity_gap(m) for m in measures]
    # the leaf kernels take what a posterior matrix decides once for all
    # its measures, and still give each measure its bits alone
    alone = [polar.Chunk([m]) for m in measures]
    bounds = metrics._pol_bounds(chunk)
    for i, single in enumerate(alone):
        want = metrics._pol_bounds(single)
        assert [a[i].tobytes() for a in bounds] == [a[0].tobytes() for a in want]
    assert _rows(metrics._nearest_pol(chunk)) == [
        row for single in alone for row in _rows(metrics._nearest_pol(single))
    ]
    evaluations = process._evaluate_chunk(chunk, process.DEFAULT_DELTA)
    assert _rows(evaluations) == [
        row for single in alone for row in _rows(process._evaluate_chunk(single, process.DEFAULT_DELTA))
    ]
    # a later chunk on a shared matrix replays from the table alone
    shared = [m for m in measures if sharing[m.posteriors.tobytes()] > 1]
    if shared:
        later = polar.Chunk(shared[:1], plans)
        assert later.minus(tau)[0].identical(minus_on_measure(shared[0], tau))
        assert later.plus(tau)[0].identical(plus_on_measure(shared[0], tau))
        assert later.replayed == valid.count(shared[0].posteriors.tobytes())
        assert _gap_list(later.gaps()) == [capacity_gap(shared[0])]


def _rows(columns):
    """Columns, arrays or lists, as one tuple per measure; floats as their bits.

    A classification (channels.Classes) gives each measure its witnesses,
    best first, as (subgroup index, gap_capacity, gap_quotient).
    """
    def entries(column):
        if isinstance(column, Classes):
            return [
                tuple((t, column.gap_capacity[s, t].hex(), column.gap_quotient[s, t].hex())
                      for t in column.order[s, : column.witness[s].sum()].tolist())
                for s in range(len(column.witness))
            ]
        if isinstance(column, np.ndarray):
            return [x.hex() if isinstance(x, float) else x for x in column.tolist()]
        return list(column)

    return list(zip(*(entries(column) for column in columns)))


_Q = [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]


def _replays(measures, tau=polar.DEFAULT_MERGE_TAU):
    """Steps of one chunk of measures with a fresh table, checked against the general path."""
    plans = {}
    chunk = polar.Chunk(measures, plans)
    for got, m in zip(chunk.minus(tau), measures):
        assert got.identical(minus_on_measure(m, tau))
    for got, m in zip(chunk.plus(tau), measures):
        assert got.identical(plus_on_measure(m, tau))
    return chunk.replayed, plans


def test_underflowing_pair_weight_takes_the_general_path():
    # 1e-200 squared underflows to 0, so that measure's minus step prunes
    # an atom the plan keeps
    normal = BlackwellMeasure(Z2, [0.25, 0.5, 0.25], _Q)
    tiny = BlackwellMeasure(Z2, [1e-200, 1.0 - 2e-200, 1e-200], _Q)
    assert np.array_equal(normal.posteriors, tiny.posteriors)
    replayed, plans = _replays([normal, tiny])
    assert replayed == 0
    assert len(plans) == 2 and None not in plans.values()
    # recorded from the underflowing measure, no plan is valid
    replayed, plans = _replays([tiny, normal])
    assert replayed == 0
    assert list(plans.values()) == [None, None]


def test_averaging_merge_leaves_no_plan():
    # at tau 1e-3 the pair convolutions of rows 1e-4 apart fall within tau
    # of each other but differ, so their clusters are averaged
    q = [[0.3, 0.7], [0.3001, 0.6999], [0.6999, 0.3001], [0.7, 0.3]]
    measures = [BlackwellMeasure(Z2, w, q, 0.0) for w in ([0.25] * 4, [0.1, 0.4, 0.4, 0.1])]
    assert np.array_equal(measures[0].posteriors, measures[1].posteriors)
    replayed, plans = _replays(measures, 1e-3)
    assert replayed == 0
    assert list(plans.values()) == [None, None]


def test_chunk_mixing_shared_and_unshared_matrices():
    a = BlackwellMeasure(Z2, [0.25, 0.5, 0.25], _Q)
    b = BlackwellMeasure(Z2, [0.1, 0.8, 0.1], _Q)
    other = blackwell_measure(bsc_channel(0.11))
    replayed, plans = _replays([a, other, b])
    assert replayed == 2
    supports = {support for _, support in plans}
    assert supports == {a.posteriors.tobytes()}


def test_replayed_children_weights_are_one_read_only_block():
    level = _level(blackwell_measure(dh_mix_channel(make_group([2, 4]), 11)), 2, polar.DEFAULT_MERGE_TAU)
    assert len({m.posteriors.tobytes() for m in level}) == 1
    plans = {}
    polar.Chunk(level[:1], plans).minus()
    plan = plans[((polar.MINUS, polar.DEFAULT_MERGE_TAU), level[0].posteriors.tobytes())]
    children = polar.Chunk(level, plans).minus()
    block = children[0].weights.base
    assert block is not None and not block.flags.writeable
    for m, child in zip(level, children):
        w = child.weights
        assert w.base is block and not w.flags.writeable and w.flags.c_contiguous
        # the sums of the general path, each divided by its own total
        raw = (m.weights[:, None] * m.weights[None, :]).ravel()[plan.pairs]
        row = np.bincount(plan.target, raw, minlength=len(plan.posteriors))
        assert w.tobytes() == (row / row.sum()).tobytes()
        assert child.identical(minus_on_measure(m))


def _replay_inputs():
    """(raw, target, posteriors) of three Z2 measures on the posteriors _Q."""
    raw = np.array([[0.1, 0.2, 0.4, 0.2, 0.1], [0.3, 0.1, 0.2, 0.1, 0.3], [0.2, 0.2, 0.2, 0.2, 0.2]])
    return raw, np.array([0, 1, 1, 1, 2]), np.array(_Q)


def test_replay_checks_every_child_of_the_block(monkeypatch):
    raw, target, posteriors = _replay_inputs()
    block = blackwell._replayed_weights(Z2, raw, target, posteriors)
    assert block.shape == (3, 3) and not block.flags.writeable
    for row, weights in zip(raw, block):
        sums = np.bincount(target, row)
        assert weights.tobytes() == (sums / sums.sum()).tobytes()
    # a plan whose posteriors are not the canonical ones: the measures'
    # mean posteriors are not uniform
    skewed = np.array([[0.0, 1.0], [0.5, 0.5], [0.9, 0.1]])
    with pytest.raises(ValueError, match="not balanced"):
        blackwell._replayed_weights(Z2, raw, target, skewed)
    nan = raw.copy()
    nan[2, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        blackwell._replayed_weights(Z2, nan, target, posteriors)
    # a normalization fault in one row of the block is caught by the one
    # check of the whole block
    check = blackwell._check_weights
    blocks = []

    def faulty(weights, q, size):
        blocks.append(weights.shape)
        weights = weights.copy()
        weights[1, 0] += 1e-8
        check(weights, q, size)

    monkeypatch.setattr(blackwell, "_check_weights", faulty)
    with pytest.raises(ValueError, match="do not sum to 1"):
        blackwell._replayed_weights(Z2, raw, target, posteriors)
    assert blocks == [(3, 3)]


def _step_counts(monkeypatch, w, depth, tau=polar.DEFAULT_MERGE_TAU):
    """(whether each recorded node is the root, nodes stepped by the general path, replayed steps) of a walk."""
    root = blackwell_measure(w, tau)
    recorded, counts = [], {"general": 0, "replayed": 0}
    record, general, replay = polar._record, polar._general, polar._replay

    def counting_record(group, block, sign, merge_tau):
        (weights,) = block.weights
        recorded.append(BlackwellMeasure._canonical(group, weights, block.posteriors).identical(root))
        return record(group, block, sign, merge_tau)

    def counting_general(parts, merge_tau):
        counts["general"] += sum(len(chunk) for chunk, _ in parts)
        return general(parts, merge_tau)

    def counting_replay(group, plan, weights):
        out, live = replay(group, plan, weights)
        counts["replayed"] += int(live.sum())
        return out, live

    monkeypatch.setattr(polar, "_record", counting_record)
    monkeypatch.setattr(polar, "_general", counting_general)
    monkeypatch.setattr(polar, "_replay", counting_replay)
    for _ in process._walk_chunks(root, depth, tau):
        pass
    return recorded, counts["general"], counts["replayed"]


@pytest.mark.parametrize("w, depth", [
    (dh_mix_channel(make_group([2, 4]), 11), 5),
    (z4_multilevel_channel(0.5), 7),
])
def test_walk_records_at_the_root_and_replays_below(monkeypatch, w, depth):
    # every node sits on the root's posterior matrix, so the root's two
    # recorded steps give every step below its plan
    recorded, general, replayed = _step_counts(monkeypatch, w, depth)
    assert recorded == [True, True]
    assert general == 0
    assert replayed == 2 * (2 ** depth - 2)


def test_walk_on_generic_matrices_steps_below_the_root_by_the_general_path(monkeypatch):
    # no two bsc nodes share a matrix: the root records a plan that nothing
    # replays, and every node below steps by the general path, as before
    for tau in (polar.DEFAULT_MERGE_TAU, 1e-3):
        recorded, general, replayed = _step_counts(monkeypatch, bsc_channel(0.11), 5, tau)
        assert recorded == [True, True]
        assert general == 2 * (2 ** 5 - 2)
        assert replayed == 0
        monkeypatch.undo()


def test_standalone_steps_record_no_plan():
    m = blackwell_measure(z4_multilevel_channel(0.5))
    chunk = polar.Chunk([m])
    chunk.minus(), chunk.plus()
    assert chunk.plans == {} and chunk.replayed == 0
