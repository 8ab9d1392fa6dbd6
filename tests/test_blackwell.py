import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polarlab import (
    BlackwellMeasure,
    Channel,
    JointSource,
    blackwell_measure,
    canonicalize,
    capacity_of_measure,
    deterministic_hom,
    entropy,
    make_group,
    merge_outputs,
    pc_probability,
    subgroup_from_members,
    symmetric_capacity,
)
from polarlab import blackwell
from polarlab._util import fold_planes, plane_entropies_bits, row_entropies_bits, segment_dots
from polarlab.blackwell import _bucket_labels, _canonical_atoms, _canonical_segments, _grid_keys, _sweep_labels
from polarlab.presets import bsc_channel, identity_channel, random_channel, useless_channel
from polarlab.process import sample_paths

Z2 = make_group([2])
Z4 = make_group([4])


def test_entropy_values():
    assert entropy(np.array([1.0, 0.0])) == 0.0
    assert entropy(np.full(4, 0.25)) == 2.0
    # a strided vector is read as its contiguous copy
    assert entropy(np.full(8, 0.25)[::2]) == 2.0
    expected = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
    assert entropy(np.array([0.9, 0.1])) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        entropy(np.array([0.9, 0.3]))


def _reference_row_entropies(rows):
    # the gather/scatter form row_entropies_bits replaced
    contrib = np.zeros_like(rows)
    nz = rows > 0.0
    contrib[nz] = rows[nz] * np.log2(rows[nz])
    return -contrib.sum(axis=1)


@given(
    shape=st.tuples(st.integers(1, 60), st.integers(1, 12)),
    data=st.data(),
    layout=st.sampled_from(["C", "F"]),
)
def test_row_entropies_match_reference(shape, data, layout):
    entry = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1e-310, -1e-13, 0.5, 1.0, float("nan")]), st.floats(0.0, 1.0)
    )
    flat = data.draw(st.lists(entry, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    rows = np.array(flat).reshape(shape)
    # the row sums' summation order depends on the memory layout of rows
    rows = rows if layout == "C" else np.asfortranarray(rows)
    got = row_entropies_bits(rows)
    assert got.tobytes() == _reference_row_entropies(rows).tobytes()
    # the same entropies from the columns of planes, whose rows the planes
    # overwrite; a one-row array sums as C layout
    c_layout = layout == "C" or len(rows) == 1
    assert plane_entropies_bits(rows.T.copy(), c_layout).tobytes() == got.tobytes()


def test_row_entropies_of_strided_and_empty_rows():
    rows = np.full((3, 8), 0.25)
    with pytest.raises(ValueError, match="contiguous"):
        row_entropies_bits(rows[:, ::2])
    with pytest.raises(ValueError, match="contiguous"):
        row_entropies_bits(rows[::2, ::2].T)
    assert row_entropies_bits(rows[:, :0]).tobytes() == _reference_row_entropies(rows[:, :0]).tobytes()
    assert row_entropies_bits(rows[:0]).shape == (0,)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_plane_fold_is_numpys_row_sum_order(layout):
    # pins the order in which numpy sums each row: the gap kernels fold
    # planes in that order to give reports their bits, so a numpy that
    # sums in another order fails here before it changes a report
    rng = np.random.default_rng(7)
    for length in range(1, 65):
        values = rng.standard_normal((40, length)) * np.exp2(rng.integers(-60, 60, (40, length)))
        values[0] = -0.0
        values[1, ::2] = -0.0
        values[2, 1::3] = 0.0
        values[3, -1] = np.nan
        for rows in (values, values[:1], values[5:6]):
            rows = np.ascontiguousarray(rows) if layout == "C" else np.asfortranarray(rows)
            c_layout = layout == "C" or len(rows) == 1
            want = rows.sum(axis=1)
            got = fold_planes(rows.T.copy(), c_layout)
            assert got.tobytes() == want.tobytes(), (length, len(rows))


@pytest.mark.parametrize("k", [1, 2, 3, 6, 16, 17, 36, 144])
def test_stacked_matmul_is_each_items_own_product(k):
    # pins the rule the chunk kernels' dots rest on: numpy's matmul loop
    # makes, per stack item, the BLAS call that `@` makes on the item
    # alone, so a stacked product has each item's bits. A numpy whose loop
    # differs fails here before it changes a report. The operands are laid
    # out as a chunk lays out a block: the weights of n measures end to end
    # after other measures' atoms, read as (n, 1, k) rows and (n, k, 1)
    # columns, against a shared (k, k) or (k, T) matrix, or a stack of them
    rng = np.random.default_rng(k)
    for n in (1, 2, 5, 33):
        for offset in (0, 1, 3):
            atoms = rng.random(offset + n * k) * np.exp2(rng.integers(-30, 30, offset + n * k))
            w = atoms[offset:].reshape(n, k)
            rows, cols = w[:, None, :], w[:, :, None]
            shared, vector = rng.standard_normal((k, k)), rng.standard_normal(k)
            stacked = np.stack([rng.standard_normal((k, k)) for _ in range(n)])
            targets = rng.random((k, 7))
            pairs = [
                (rows @ cols, [w[i] @ w[i] for i in range(n)]),
                (rows @ vector[:, None], [w[i] @ vector for i in range(n)]),
                (rows @ shared @ cols, [w[i] @ shared @ w[i] for i in range(n)]),
                (rows @ stacked @ cols, [w[i] @ stacked[i] @ w[i] for i in range(n)]),
                (rows @ targets, [w[i] @ targets for i in range(n)]),
            ]
            for got, want in pairs:
                assert got.reshape(n, -1).tobytes() == np.array(want).reshape(n, -1).tobytes(), (n, offset)
            # segment_dots: runs of this length between segments of others
            sizes = [2, *[k] * n, 1, k]
            bounds = np.concatenate([[0], np.cumsum(sizes)])
            x, y = rng.random(bounds[-1]), rng.standard_normal(bounds[-1])
            want = [x[a:b] @ y[a:b] for a, b in zip(bounds, bounds[1:])]
            assert segment_dots(x, y, bounds).tobytes() == np.array(want).tobytes()
    # the capacity-gap check's products (polar._column_products): a block of
    # n measures' realized columns after other atoms, read as (n, k, |G|);
    # the shifted operand is a non-contiguous view of a C-layout copy, whose
    # rows keep unit stride, broadcast against each measure's transposed
    # columns. Every item of a run of first atoms, one row (a gemv, or a
    # dot for k = 1) included, is the product of the measure's own copy
    for dims in ([2], [3], [2, 4]):
        table = make_group(dims).add_table
        size = len(table)
        for n in (1, 2, 5):
            atoms = rng.random((3 + n * k) * size) * np.exp2(rng.integers(-30, 30, (3 + n * k) * size))
            r = atoms[3 * size :].reshape(n, k, size)
            for i0, i1 in {(0, k), (0, 1), (0, min(2, k)), (k - 1, k)}:
                shifted = np.take(r[:, i0:i1], table, axis=2).transpose(2, 0, 1, 3)
                assert shifted.strides[-1] == shifted.itemsize
                got = np.matmul(shifted, r.transpose(0, 2, 1))
                want = [[np.take(r[m, i0:i1], table[u], axis=1) @ r[m].T for m in range(n)] for u in range(size)]
                assert got.tobytes() == np.array(want).tobytes(), (dims, n, i0, i1)


def test_bsc_measure_atoms():
    m = blackwell_measure(bsc_channel(0.1))
    assert m.atom_count == 2
    assert np.allclose(m.weights, [0.5, 0.5])
    # canonical order sorts by posterior lexicographically
    assert np.allclose(m.posteriors, [[0.1, 0.9], [0.9, 0.1]])


def test_identity_measure_point_masses():
    m = blackwell_measure(identity_channel(Z4))
    assert m.atom_count == 4
    assert np.allclose(m.weights, 0.25)
    assert np.allclose(sorted(m.posteriors.max(axis=1)), 1.0)


def test_quotient_projection_measure():
    h = subgroup_from_members(Z4, [0, 2])
    m = blackwell_measure(deterministic_hom(Z4, h))
    assert m.atom_count == 2
    assert np.allclose(m.weights, 0.5)
    assert np.allclose(m.posteriors, [[0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0]])


def test_measure_balance_enforced():
    with pytest.raises(ValueError, match="balanced"):
        BlackwellMeasure(Z2, np.array([1.0]), np.array([[0.9, 0.1]]))


def test_canonicalize_merges_split_outputs():
    w = bsc_channel(0.1)
    split = Channel(
        np.column_stack([w.kernel[:, 0] / 2, w.kernel[:, 0] / 2, w.kernel[:, 1]]),
        ("a", "b", "c"),
        Z2,
    )
    assert blackwell_measure(split).identical(blackwell_measure(w))


def test_canonicalize_idempotent():
    m = blackwell_measure(random_channel(Z4, 6, seed=5))
    again = canonicalize(m)
    assert again.atom_count == m.atom_count
    assert np.allclose(again.posteriors, m.posteriors, atol=1e-14)
    assert np.allclose(again.weights, m.weights, atol=1e-14)


def test_canonicalize_merges_within_tau():
    q = np.array([[0.3, 0.7], [0.3 + 1e-12, 0.7 - 1e-12], [0.7 - 1e-12, 0.3 + 1e-12], [0.7, 0.3]])
    m = BlackwellMeasure(Z2, np.full(4, 0.25), q, merge_tau=1e-9)
    assert m.atom_count == 2
    assert np.allclose(m.weights, 0.5)


def test_zero_probability_outputs_pruned():
    kernel = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    m = blackwell_measure(Channel(kernel, group=Z2))
    assert m.atom_count == 1


def test_capacity_of_measure_matches_channel():
    assert capacity_of_measure(blackwell_measure(identity_channel(Z4))) == pytest.approx(2.0)
    assert capacity_of_measure(blackwell_measure(useless_channel(Z4))) == pytest.approx(0.0)
    for seed in range(20):
        w = random_channel(Z4, 5, seed=seed)
        assert capacity_of_measure(blackwell_measure(w)) == pytest.approx(
            symmetric_capacity(w), abs=1e-9
        )


def test_measure_balanced_random():
    for seed in range(20):
        m = blackwell_measure(random_channel(Z4, 6, seed=seed))
        mean = m.weights @ m.posteriors
        assert np.abs(mean - 0.25).max() <= 1e-9


def test_pc_probability_examples():
    diag = JointSource(np.eye(2) / 2, Z2)
    assert pc_probability(diag, bsc_channel(0.1)) == pytest.approx(0.9, abs=1e-12)
    assert pc_probability(diag, identity_channel(Z2)) == pytest.approx(1.0, abs=1e-12)
    assert pc_probability(diag, useless_channel(Z2)) == pytest.approx(0.5, abs=1e-12)


def test_pc_probability_channel_vs_measure_agree():
    rng = np.random.default_rng(3)
    for seed in range(10):
        w = random_channel(Z4, 5, seed=seed)
        m = blackwell_measure(w)
        probs = rng.dirichlet(np.ones(12)).reshape(3, 4)
        src = JointSource(probs, Z4)
        assert pc_probability(src, w) == pytest.approx(pc_probability(src, m), abs=1e-10)


def test_pc_monotone_under_degradation():
    from polarlab import compose

    rng = np.random.default_rng(17)
    w = random_channel(Z4, 5, seed=1)
    v = Channel(rng.dirichlet(np.ones(3), size=5))
    degraded = compose(v, w)
    for t in range(20):
        src_rng = np.random.default_rng([99, t])
        m_u = int(src_rng.integers(1, 5))
        src = JointSource(src_rng.dirichlet(np.ones(m_u * 4)).reshape(m_u, 4), Z4)
        assert pc_probability(src, degraded) <= pc_probability(src, w) + 1e-9


def test_merge_outputs_preserves_equivalence():
    w = bsc_channel(0.1)
    split = Channel(
        np.column_stack([w.kernel[:, 0] / 2, w.kernel[:, 1], w.kernel[:, 0] / 2]),
        ("a", "b", "c"),
        Z2,
    )
    merged = merge_outputs(split)
    assert merged.n_outputs == 2
    assert blackwell_measure(merged).identical(blackwell_measure(w))


def test_realize_round_trips_measure():
    for seed in range(10):
        m = blackwell_measure(random_channel(Z4, 6, seed=seed))
        again = blackwell_measure(m.realize())
        assert again.atom_count == m.atom_count
        assert np.abs(again.posteriors - m.posteriors).max() <= 1e-12
        assert np.abs(again.weights - m.weights).max() <= 1e-12


def test_measure_json_round_trip():
    m = blackwell_measure(bsc_channel(0.1))
    back = BlackwellMeasure.from_json(m.to_json())
    assert back.identical(m)


def test_joint_source_validation():
    with pytest.raises(ValueError, match="mass"):
        JointSource(np.array([[0.5, 0.4]]), Z2)
    with pytest.raises(ValueError, match="column"):
        JointSource(np.array([[0.5, 0.25, 0.25]]), Z2)


def test_measure_rejects_non_finite_atoms():
    with pytest.raises(ValueError, match="finite"):
        BlackwellMeasure(Z2, [0.5, 0.5], [[1.0, 0.0], [np.nan, np.nan]], merge_tau=0.0)
    with pytest.raises(ValueError, match="finite"):
        BlackwellMeasure(Z2, [0.5, np.inf], [[1.0, 0.0], [0.0, 1.0]])


def test_measure_rejects_weights_whose_sums_overflow():
    # finite weights whose merged sums overflow to inf leave NaN weights
    posteriors = [[0.2, 0.8], [0.8, 0.2]] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="do not sum to 1"):
            BlackwellMeasure(Z2, [1e308] * 4, posteriors)
        obj = {"group": [2], "atoms": [{"w": 1e308, "q": q} for q in posteriors]}
        with pytest.raises(ValueError, match="do not sum to 1"):
            BlackwellMeasure.from_json(obj)


def test_segments_are_checked_together_and_the_first_bad_one_raises():
    # a joint canonicalization checks every segment's weight sum and mean
    # posterior in one pass; the first bad segment raises with the message
    # of the first check it fails, as a check of each segment in turn would
    good = ([0.5, 0.5], [[0.2, 0.8], [0.8, 0.2]])
    unbalanced = ([0.5, 0.5], [[0.9, 0.1], [0.8, 0.2]])
    # merged weights overflow to inf, so the normalized weights are NaN
    overflowing = ([1e308] * 4, [[0.2, 0.8], [0.8, 0.2]] * 2)

    def joint(*segments):
        weights = np.concatenate([w for w, _ in segments])
        posteriors = np.concatenate([q for _, q in segments])
        seg = np.repeat(np.arange(len(segments)), [len(w) for w, _ in segments])
        return blackwell._canonical_measures(Z2, weights, posteriors, 1e-9, seg, len(segments))[0]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="not balanced"):
            joint(good, unbalanced, overflowing)
        with pytest.raises(ValueError, match="do not sum to 1"):
            joint(good, overflowing, unbalanced)
    other = ([0.25, 0.5, 0.25], [[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])
    for (w, q), (weights, posteriors) in zip([good, other, good], joint(good, other, good)):
        alone = BlackwellMeasure(Z2, w, q)
        assert weights.tobytes() == alone.weights.tobytes() and posteriors.tobytes() == alone.posteriors.tobytes()
        assert not weights.flags.writeable and not posteriors.flags.writeable


def test_spiky_channel_merge_does_not_underflow():
    # Atom weights of this channel's minus descendants reach subnormals; an
    # unscaled weighted average then made a 0/0 posterior and the whole run
    # aborted on the NaN it left in the transport costs.
    rng = np.random.default_rng(31)
    n = int(rng.integers(2, 5))
    kernel = rng.dirichlet(np.full(n, 0.05), size=4)
    kernel[kernel < 1e-13] = 0.0
    kernel /= kernel.sum(axis=1, keepdims=True)
    w = Channel(kernel, None, make_group([2, 2]))
    report = sample_paths(w, 10, 8, seed=31, merge_tau=1e-3)
    assert "----------" in [r.path for r in report.evaluated]
    for r in report.failed:
        assert "exceeding the budget" in r.error
    for r in report.evaluated:
        assert np.isfinite(r.capacity) and 0.0 <= r.capacity <= 2.0
        assert np.isfinite(r.distance_to_pol)


# Reference grouping: np.unique over rows and the per-atom sweep loop that
# _bucket_labels and _sweep_labels replaced, with the aggregate that averaged
# every cluster before putting back the rows of bitwise-exact ones.


def _reference_bucket_labels(posteriors, tau):
    keys = np.floor(posteriors / tau).astype(np.int64) if tau > 0 else posteriors
    _, labels = np.unique(keys, axis=0, return_inverse=True)
    labels = labels.ravel()
    if labels.max() + 1 == len(posteriors):
        return None
    return labels


def _reference_sweep_labels(posteriors, tau):
    def find(parent, i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    order = np.lexsort(posteriors.T[::-1])
    q = posteriors[order]
    k = len(q)
    parent = list(range(k))
    changed = False
    for i in range(k - 1):
        hi = int(np.searchsorted(q[:, 0], q[i, 0] + tau, side="right"))
        if hi <= i + 1:
            continue
        close = np.abs(q[i + 1 : hi] - q[i]).max(axis=1) <= tau
        for off in np.flatnonzero(close):
            ri, rj = find(parent, i), find(parent, int(i + 1 + off))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
                changed = True
    if not changed:
        return None
    roots = np.array([find(parent, i) for i in range(k)])
    _, labels_sorted = np.unique(roots, return_inverse=True)
    labels = np.empty(k, dtype=np.int64)
    labels[order] = labels_sorted.ravel()
    return labels


def _with_order(reference, keys):
    """A reference labelling returned as the helper it stands in for returns
    it: (labels, None), or (None, the keys' lexicographic order)."""

    def labels_and_order(posteriors, tau):
        labels = reference(posteriors, tau)
        if labels is not None:
            return labels, None
        return None, np.lexsort(keys(posteriors, tau).T[::-1])

    return labels_and_order


_reference_bucket = _with_order(
    _reference_bucket_labels,
    lambda q, tau: np.floor(q / tau).astype(np.int64) if tau > 0 else q,
)
_reference_sweep = _with_order(_reference_sweep_labels, lambda q, tau: q)


def _reference_aggregate(weights, posteriors, labels, k):
    w_new = np.zeros(k)
    np.add.at(w_new, labels, weights)
    _, exponent = np.frexp(w_new)
    acc = np.zeros((k, posteriors.shape[1]))
    np.add.at(acc, labels, np.ldexp(weights, -exponent[labels])[:, None] * posteriors)
    q_new = acc / np.ldexp(w_new, -exponent)[:, None]
    first = np.full(k, len(labels), dtype=np.int64)
    np.minimum.at(first, labels, np.arange(len(labels)))
    rep_rows = posteriors[first[labels]]
    exact = np.ones(k, dtype=bool)
    np.logical_and.at(exact, labels, (posteriors == rep_rows).all(axis=1))
    q_new[exact] = posteriors[first[exact]]
    return w_new, q_new


# Coordinates drawn from a small pool repeat often, giving exact duplicates
# and ties in leading columns; the pool holds tau-grid points, their float
# neighbours and values just inside and outside a tau window.
_TAUS = (0.0, 1e-9, 1e-3)
_POOL = sorted(
    {0.0, 1.0, 0.5, 0.25, 0.1, 1 / 3}
    | {m * t for t in _TAUS[1:] for m in (1, 2, 7, 500, 999)}
    | {np.nextafter(m * 1e-3, s) for m in (2, 500) for s in (0.0, 1.0)}
    | {0.5 + d for d in (1e-9, 2e-9, 5e-10, 1e-3, 2e-3, 9.99e-4)}
)
_coord = st.one_of(st.sampled_from(_POOL), st.floats(0.0, 1.0))
# Whole-row shifts at and below the merge tolerances: rows picked from one
# base row then differ but still merge, so their clusters are averaged.
_SHIFTS = (0.0, 0.0, 5e-10, 1e-9, 4e-4, 1e-3)
# Weight scales that make w * q underflow unless the average is scaled first.
_WEIGHT_SCALES = (1.0, 1.0, 2.0**-1000, 2.0**-1060)


@st.composite
def _atoms(draw):
    width = draw(st.integers(2, 8))
    base = draw(st.lists(st.lists(_coord, min_size=width, max_size=width), min_size=1, max_size=12))
    size = draw(st.integers(1, 40))
    pick = draw(st.lists(st.integers(0, len(base) - 1), min_size=size, max_size=size))
    shifts = draw(st.lists(st.sampled_from(_SHIFTS), min_size=len(pick), max_size=len(pick)))
    posteriors = np.array([base[i] for i in pick], dtype=float) + np.array(shifts)[:, None]
    weights = np.array(
        draw(
            st.lists(
                st.one_of(st.sampled_from([0.0, 0.5, 0.125, 1e-3]), st.floats(1e-6, 1.0)),
                min_size=len(pick),
                max_size=len(pick),
            )
        )
    ) * draw(st.sampled_from(_WEIGHT_SCALES))
    return weights, posteriors


@given(atoms=_atoms(), tau=st.sampled_from(_TAUS))
def test_grouping_matches_reference(atoms, tau):
    weights, posteriors = atoms
    pairs = [(_bucket_labels, _reference_bucket)]
    if tau > 0:
        pairs.append((_sweep_labels, _reference_sweep))
    for fast, ref in pairs:
        for got, want in zip(fast(posteriors, tau), ref(posteriors, tau)):
            assert (got is None) == (want is None)
            if want is not None:
                assert got.dtype == want.dtype and np.array_equal(got, want)
    assume(weights.max() > 0.0 and (posteriors.sum(axis=1) > 0.0).all())
    got = _canonical_atoms(weights, posteriors, tau)
    with mock.patch.multiple(
        blackwell,
        _bucket_labels=_reference_bucket,
        _sweep_labels=_reference_sweep,
        _aggregate=_reference_aggregate,
    ):
        want = _canonical_atoms(weights, posteriors, tau)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if tau == 0:
        # exact merging: atom i lands on its row's rank among the distinct rows
        keep = weights > 0.0
        _, rank = np.unique(posteriors[keep] + 0.0, axis=0, return_inverse=True)
        assert np.array_equal(got[2][keep], rank.ravel())


def test_tiny_merge_tau_is_rejected():
    # floor(q / 1e-20) overflows int64, and the four atoms below fell into
    # one grid cell: one atom of capacity 0 instead of four of 0.198
    q = [[0.2, 0.8], [0.8, 0.2], [0.3, 0.7], [0.7, 0.3]]
    with pytest.raises(ValueError, match="merge_tau"):
        BlackwellMeasure(Z2, [0.25] * 4, q, merge_tau=1e-20)
    with pytest.raises(ValueError, match="merge_tau"):
        merge_outputs(bsc_channel(0.1), merge_tau=1e-20)
    for tau in (0.0, blackwell.MERGE_TAU_MIN):
        m = BlackwellMeasure(Z2, [0.25] * 4, q, merge_tau=tau)
        assert m.atom_count == 4
        assert capacity_of_measure(m) == pytest.approx(0.198, abs=1e-3)


# The canonicalization loop this module replaced, kept verbatim apart from
# its helpers, which are the references above: the new loop must give the
# same bytes, origin included.


def _reference_canonical_atoms(weights, posteriors, tau):
    weights = np.asarray(weights, dtype=float).ravel()
    posteriors = np.asarray(posteriors, dtype=float) + 0.0
    origin = np.full(len(weights), -1, dtype=np.int64)
    keep = weights > 0.0
    origin[keep] = np.arange(int(keep.sum()))
    weights, posteriors = weights[keep], posteriors[keep]

    def apply(labels):
        live = origin >= 0
        origin[live] = labels[origin[live]]

    def merge(labels):
        nonlocal weights, posteriors
        weights, posteriors = _reference_aggregate(weights, posteriors, labels, labels.max() + 1)
        apply(labels)

    while True:
        labels, order = _reference_bucket(posteriors, tau)
        bucketed = labels is not None
        if bucketed:
            merge(labels)
        if tau == 0 or len(weights) == 1:
            break
        labels, order = _reference_sweep(posteriors, tau)
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


def _assert_same_atoms(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    # readers sum the rows, and the summation order follows the layout
    assert got[1].flags.c_contiguous


@pytest.mark.parametrize("chunk", [blackwell._PAIR_CHUNK, 3])
@given(atoms=_atoms(), tau=st.sampled_from(_TAUS))
def test_canonical_atoms_match_reference_loop(chunk, atoms, tau):
    weights, posteriors = atoms
    assume(weights.max() > 0.0 and (posteriors.sum(axis=1) > 0.0).all())
    with mock.patch.object(blackwell, "_PAIR_CHUNK", chunk):
        got = _canonical_atoms(weights, posteriors, tau)
    _assert_same_atoms(got, _reference_canonical_atoms(weights, posteriors, tau))


@pytest.mark.parametrize("chunk", [blackwell._PAIR_CHUNK, 3])
@settings(max_examples=50)
@given(parts=st.lists(_atoms(), min_size=1, max_size=3), tau=st.sampled_from(_TAUS))
def test_segments_canonicalize_as_alone(chunk, parts, tau):
    # atom sets laid end to end come out, segment by segment, bitwise as
    # each comes out alone; their near-equal rows must not merge across
    width = min(q.shape[1] for _, q in parts)
    parts = [(w, q[:, :width]) for w, q in parts]
    for w, q in parts:
        assume(w.max() > 0.0 and (q.sum(axis=1) > 0.0).all())
    seg = np.repeat(np.arange(len(parts)), [len(w) for w, _ in parts])
    weights = np.concatenate([w for w, _ in parts])
    posteriors = np.concatenate([q for _, q in parts])
    with mock.patch.object(blackwell, "_PAIR_CHUNK", chunk):
        got_w, got_q, got_origin, got_seg = _canonical_segments(
            weights, posteriors, tau, seg, len(parts), track_origin=True
        )
    assert np.all(np.diff(got_seg) >= 0)
    first, offset = 0, 0
    for i, (w, q) in enumerate(parts):
        want = _canonical_atoms(w, q, tau)
        out = got_seg == i
        origin = got_origin[first : first + len(w)]
        origin = np.where(origin >= 0, origin - offset, origin)
        _assert_same_atoms((got_w[out], np.ascontiguousarray(got_q[out]), origin), want)
        first += len(w)
        offset += int(out.sum())


def test_rows_that_do_not_sum_to_one_are_rejected():
    # Merging and sorting read the rows as given and divided them by their
    # sums only at the end: an unnormalized twin of an atom stayed a second
    # atom, and a huge row overflowed its grid keys and broke the order.
    with pytest.raises(ValueError, match="rows must sum to 1"):
        BlackwellMeasure(Z2, [0.25, 0.25, 0.5], [[0.2, 0.8], [0.4, 1.6], [0.8, 0.2]], 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rows must sum to 1"):
            BlackwellMeasure(Z2, [0.5, 0.5], [[2e10, 8e10], [0.8, 0.2]], 1e-9)
    # a pruned atom's row is not checked
    m = BlackwellMeasure(Z2, [0.5, 0.5, 0.0], [[0.2, 0.8], [0.8, 0.2], [5.0, 5.0]])
    assert m.atom_count == 2


def test_sweep_joins_atoms_through_a_common_neighbour():
    # The first two atoms are 1.6 tau apart in the second coordinate and
    # the third is within tau of both, so the three form one cluster. No two
    # share a grid cell, so the sweep alone merges them.
    posteriors = np.array(
        [[0.1003, 0.2003, 0.5009], [0.1004, 0.2019, 0.5003], [0.1005, 0.2011, 0.5012]]
    )
    weights = np.full(3, 1 / 3)
    assert _bucket_labels(posteriors, 1e-3)[0] is None
    assert _sweep_labels(posteriors, 1e-3)[0].tolist() == [0, 0, 0]
    got = _canonical_atoms(weights, posteriors, 1e-3)
    assert len(got[0]) == 1
    _assert_same_atoms(got, _reference_canonical_atoms(weights, posteriors, 1e-3))


def test_merged_row_that_changes_cell_is_merged_again():
    # At tau = 1e-18 a grid cell near 0.9 can hold two adjacent floats, 111
    # tau apart. The first 14 atoms share one cell, and their average
    # rounds below all of them, into the cell of the last atom. The sweep
    # cannot join the two (they are more than tau apart); only a second
    # bucket pass merges them.
    a, b = 0.9000000000000193, 0.9000000000000195
    first = [a, b, b, a, a, b, b, a, b, b, a, b, b, b]
    weights = [
        1.6087728450560708e-302, 7.686384125596033e-302, 5.914819763617264e-302, 2.4e-302,
        3.680882732676975e-302, 7.092157707018503e-302, 5e-302, 8.173620831187037e-302,
        1e-302, 1.7098209562511e-302, 1.5929685390537734e-303, 5e-308, 2e-303, 2e-308, 1e-301,
    ]
    posteriors = np.column_stack([first + [0.9000000000000186], np.full(15, 0.25)])
    got = _canonical_atoms(weights, posteriors, 1e-18)
    assert len(got[0]) == 1
    _assert_same_atoms(got, _reference_canonical_atoms(weights, posteriors, 1e-18))


@pytest.mark.parametrize("tau", [1e-9, 1e-3])
def test_sweep_memory_is_bounded_by_the_chunk(tau):
    # 3000 distinct atoms sharing their first coordinate put every pair in
    # one sweep window: 4.5 million candidate pairs, 144 MB as one block of
    # Z4 row differences. In chunks the whole call peaks near 1.3 MB.
    rng = np.random.default_rng(7)
    posteriors = np.zeros((3000, 4))
    posteriors[:, 1:] = rng.dirichlet(np.ones(3), size=3000)
    weights = np.full(3000, 1 / 3000)
    tracemalloc.start()
    try:
        got = _canonical_atoms(weights, posteriors, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    _assert_same_atoms(got, _reference_canonical_atoms(weights, posteriors, tau))


_GROUPS = {"Z2": [2], "Z3": [3], "Z4": [4], "Z2xZ2": [2, 2], "Z2xZ4": [2, 4]}


@st.composite
def _merge_test_channels(draw):
    """Spiky, sparse and near-duplicate channels, rows over the group."""
    group = make_group(_GROUPS[draw(st.sampled_from(sorted(_GROUPS)))])
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.sampled_from([0.05, 0.3, 1.0]))  # 0.05 gives spiky rows
    kernel = rng.dirichlet(np.full(n, alpha), size=group.size)
    if draw(st.booleans()):  # sparse: drop small entries
        # a row's largest entry is at least 1/12, so every row keeps one
        kernel[kernel < draw(st.sampled_from([1e-13, 1e-3, 0.05]))] = 0.0
    copies = draw(st.integers(0, 6))  # near duplicates of some outputs
    if copies:
        noise = draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-6, 1e-4]))
        dup = kernel[:, rng.integers(0, n, size=copies)]
        kernel = np.hstack([kernel, dup * (1.0 + noise * rng.random(dup.shape))])
    kernel /= kernel.sum(axis=1, keepdims=True)
    return Channel(kernel, None, group)


@given(w=_merge_test_channels(), tau=st.sampled_from([1e-9, 1e-3]))
def test_merging_never_raises_capacity(w, tau):
    exact = blackwell_measure(w, merge_tau=0.0)
    merged = canonicalize(exact, tau)
    assert capacity_of_measure(merged) <= capacity_of_measure(exact) + 1e-12
    mean = merged.weights @ merged.posteriors
    assert np.abs(mean - 1.0 / w.group.size).max() <= blackwell.BALANCE_TOL


def _lexsorted_bucket_labels(monkeypatch, *args):
    """_bucket_labels with its keys sorted by lexsort: a zero key row appended changes no order."""
    packed = blackwell._packed_keys

    def two_rows(keys):
        rows = packed(keys)
        return np.vstack([rows, np.zeros_like(rows[:1])])

    with monkeypatch.context() as patch:
        patch.setattr(blackwell, "_packed_keys", two_rows)
        return _bucket_labels(*args)


@pytest.mark.parametrize("tau, segmented", [(0.05, False), (1e-9, False), (0.05, True), (1e-9, True)])
def test_one_row_keys_label_as_lexsort_does(monkeypatch, tau, segmented):
    rng = np.random.default_rng(3)
    q = rng.dirichlet([0.5, 0.5], 400)
    # exact twins in one segment, so that the fine grid also ties
    q[60:90] = q[:30]
    seg = np.repeat(np.arange(4), 100) if segmented else None
    args = (q, tau) if seg is None else (q, tau, seg)
    keys = _grid_keys(q.T, tau)
    assert len(blackwell._packed_keys(keys if seg is None else np.vstack([seg, keys]))) == 1
    labels, order = _bucket_labels(*args)
    want_labels, want_order = _lexsorted_bucket_labels(monkeypatch, *args)
    assert labels is not None and np.array_equal(labels, want_labels) and order is None
    # distinct keys: the order itself
    distinct = (q[100:], tau) if seg is None else (q[100:], tau, seg[100:])
    labels, order = _bucket_labels(*distinct)
    want_labels, want_order = _lexsorted_bucket_labels(monkeypatch, *distinct)
    if tau < 1e-3:
        assert labels is None
    assert (labels is None) == (want_labels is None)
    if labels is None:
        assert np.array_equal(order, want_order)
    else:
        assert np.array_equal(labels, want_labels)


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("size", [2, 4, 8, 11])
def test_row_check_bound_on_every_layout(layout, size):
    rows = np.full((5, size), 1.0 / size)
    for off, rejected in ((2e-9, True), (5e-10, False)):
        bad = rows.copy()
        bad[3, -1] += off
        bad = np.ascontiguousarray(bad) if layout == "C" else np.asfortranarray(bad)
        weights = np.full(5, 0.2)
        if rejected:
            with pytest.raises(ValueError, match="rows must sum to 1"):
                _canonical_segments(weights, bad, 0.0, check_rows=True)
        else:
            _canonical_segments(weights, bad, 0.0, check_rows=True)
