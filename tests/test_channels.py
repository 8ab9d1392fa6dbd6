import warnings

import numpy as np
import pytest

from polarlab import (
    Channel,
    blackwell_measure,
    channel_from_json,
    channel_to_json,
    compose,
    conditional_channel,
    degradation_residual,
    delta_determining_subgroup,
    deterministic_hom,
    enumerate_subgroups,
    is_degraded,
    make_group,
    subgroup_from_members,
    symmetric_capacity,
)
from polarlab.channels import kernel_capacity
from polarlab.presets import bsc_channel, dh_mix_channel, identity_channel, useless_channel

Z2 = make_group([2])
Z4 = make_group([4])

# Oracle: direct evaluation of the mutual-information double sum for BSC(0.1).
H2_01 = -(0.1 * np.log2(0.1) + 0.9 * np.log2(0.9))
BSC_01_CAPACITY = 1.0 - H2_01


def test_channel_validation():
    with pytest.raises(ValueError, match="row 1"):
        Channel([[1.0, 0.0], [0.3, 0.6]])
    with pytest.raises(ValueError, match="distinct"):
        Channel([[0.5, 0.5]], outputs=["a", "a"])
    with pytest.raises(ValueError, match="group"):
        Channel(np.eye(3), group=Z2)
    with pytest.raises(ValueError):
        Channel([[1.2, -0.2]])
    # NaN fails the range and row-sum comparisons, so it needs its own check
    with pytest.raises(ValueError, match="row 0, column 0 is not finite"):
        Channel([[np.nan, 1.0], [0.0, 1.0]], group=Z2)
    with pytest.raises(ValueError, match="row 1, column 1 is not finite"):
        Channel([[0.0, 1.0], [0.0, np.inf]])
    with pytest.raises(ValueError, match="not finite"):
        channel_from_json({"group": [2], "outputs": ["a", "b"], "rows": [[None, 1], [0, 1]]})


def test_compose_identity_and_collapse():
    w = bsc_channel(0.1)
    ident = Channel(np.eye(2), ("0", "1"))
    assert np.allclose(compose(ident, w).kernel, w.kernel)
    collapse = Channel(np.ones((2, 1)), ("*",))
    composed = compose(collapse, w)
    assert composed.n_outputs == 1
    assert np.allclose(composed.kernel, 1.0)


def test_compose_rows_stochastic_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        w = Channel(rng.dirichlet(np.ones(5), size=3))
        v = Channel(rng.dirichlet(np.ones(4), size=5))
        out = compose(v, w)
        assert np.allclose(out.kernel.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="mismatch"):
        compose(w, w)


def test_symmetric_capacity_examples():
    assert symmetric_capacity(identity_channel(Z4)) == pytest.approx(2.0, abs=1e-12)
    h = subgroup_from_members(Z4, [0, 2])
    assert symmetric_capacity(deterministic_hom(Z4, h)) == pytest.approx(1.0, abs=1e-12)
    assert symmetric_capacity(bsc_channel(0.1)) == pytest.approx(BSC_01_CAPACITY, abs=1e-12)


def test_deterministic_hom_kernels():
    h = subgroup_from_members(Z4, [0, 2])
    dh = deterministic_hom(Z4, h)
    assert dh.n_outputs == 2
    # x = 1 maps to the coset {1,3}
    assert dh.kernel[1].tolist() == [0.0, 1.0]
    ident = deterministic_hom(Z4, subgroup_from_members(Z4, [0]))
    assert np.array_equal(ident.kernel, np.eye(4))
    full = deterministic_hom(Z4, subgroup_from_members(Z4, range(4)))
    assert full.n_outputs == 1


@pytest.mark.parametrize("dims", [[2], [4], [2, 4], [6]])
def test_dh_mix_is_the_weighted_stack_of_deterministic_hom_channels(dims):
    # the preset is built from the quotient tables; its kernel bytes and
    # labels are those of each subgroup's deterministic_hom channel, scaled
    # by its Dirichlet weight, side by side in enumeration order
    group = make_group(dims)
    subs = enumerate_subgroups(group)
    for seed in range(3):
        lam = np.random.default_rng([seed, group.size, len(subs)]).dirichlet(np.ones(len(subs)))
        homs = [deterministic_hom(group, sub) for sub in subs]
        kernel = np.hstack([weight * dh.kernel for weight, dh in zip(lam, homs)])
        labels = tuple(f"{sub.label()}@{o}" for sub, dh in zip(subs, homs) for o in dh.outputs)
        w = dh_mix_channel(group, seed)
        assert w.kernel.tobytes() == kernel.tobytes()
        assert w.outputs == labels and w.group == group


def test_conditional_channel():
    h = subgroup_from_members(Z4, [0, 2])
    w = identity_channel(Z4)
    cond = conditional_channel(w, h)
    assert cond.n_inputs == 2
    assert np.allclose(cond.kernel[0], [0.5, 0, 0.5, 0])
    assert symmetric_capacity(cond) == pytest.approx(1.0, abs=1e-12)
    # trivial subgroup leaves the channel unchanged
    triv = conditional_channel(w, subgroup_from_members(Z4, [0]))
    assert np.allclose(triv.kernel, w.kernel)
    # full subgroup yields the output marginal
    full = conditional_channel(w, subgroup_from_members(Z4, range(4)))
    assert full.n_inputs == 1
    assert np.allclose(full.kernel, 0.25)


def test_is_degraded_examples():
    w = bsc_channel(0.1)
    assert is_degraded(w, w)
    assert is_degraded(useless_channel(Z2), w)
    assert not is_degraded(identity_channel(Z2), w)
    assert is_degraded(w, identity_channel(Z2))
    # BSC(0.2) is a composition of two BSC(0.1)-ish channels: degraded
    assert is_degraded(bsc_channel(0.2), bsc_channel(0.1))
    assert not is_degraded(bsc_channel(0.1), bsc_channel(0.2))


def test_degradation_capacity_monotone():
    rng = np.random.default_rng(11)
    for i in range(10):
        w = Channel(rng.dirichlet(np.ones(4), size=3))
        v = Channel(rng.dirichlet(np.ones(3), size=4))
        degraded = compose(v, w)
        assert degradation_residual(degraded, w) <= 1e-8
        assert symmetric_capacity(degraded) <= symmetric_capacity(w) + 1e-9


def test_conditional_capacity_bounds():
    rng = np.random.default_rng(13)
    for i in range(10):
        kernel = rng.dirichlet(np.ones(5), size=4)
        w = Channel(kernel, group=Z4)
        iw = symmetric_capacity(w)
        for sub in (subgroup_from_members(Z4, [0, 2]),):
            iwh = symmetric_capacity(conditional_channel(w, sub))
            assert iwh <= min(iw, 1.0) + 1e-9


def test_mutual_degradation_matches_equal_measures():
    w = bsc_channel(0.1)
    # split one output 50/50: equivalent channel
    split = Channel(
        np.column_stack([w.kernel[:, 0] / 2, w.kernel[:, 0] / 2, w.kernel[:, 1]]),
        ("a", "b", "c"),
        Z2,
    )
    assert is_degraded(w, split) and is_degraded(split, w)
    assert blackwell_measure(w).identical(blackwell_measure(split))


def test_delta_determining_examples():
    h = subgroup_from_members(Z4, [0, 2])
    res = delta_determining_subgroup(deterministic_hom(Z4, h), 0.01)
    assert res.determined
    assert res.best.subgroup == h
    assert res.best.gap_capacity == pytest.approx(0.0, abs=1e-12)

    res = delta_determining_subgroup(bsc_channel(0.1), 0.05)
    assert not res.determined

    res = delta_determining_subgroup(identity_channel(Z4), 0.01)
    assert res.determined
    assert [w.subgroup.members for w in res.witnesses] == [(0,)]

    for delta in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta"):
            delta_determining_subgroup(bsc_channel(0.1), delta)


def test_delta_determining_reports_all_witnesses_at_large_delta():
    # At a huge delta every subgroup of Z2 qualifies for a mid-capacity channel.
    res = delta_determining_subgroup(bsc_channel(0.1), 2.0)
    assert len(res.witnesses) == 2
    gaps = [max(w.gap_capacity, w.gap_quotient) for w in res.witnesses]
    assert gaps == sorted(gaps)


def test_channel_json_round_trip():
    w = bsc_channel(0.1)
    obj = channel_to_json(w)
    assert obj["group"] == [2]
    back = channel_from_json(obj)
    assert np.array_equal(back.kernel, w.kernel)
    assert back.outputs == w.outputs
    assert back.group == w.group


def test_channel_json_errors():
    with pytest.raises(ValueError, match="rows"):
        channel_from_json({"group": [2], "outputs": ["a"]})
    with pytest.raises(ValueError, match="ragged"):
        channel_from_json({"group": [2], "outputs": ["a", "b"], "rows": [[1.0, 0.0], [1.0]]})
    with pytest.raises(ValueError, match="field 'rows' must hold at least one row"):
        channel_from_json({"outputs": [], "rows": []})
    with pytest.raises(ValueError, match="group"):
        channel_from_json({"group": 2, "outputs": ["a"], "rows": [[1.0], [1.0]]})
    with pytest.raises(ValueError, match="outputs"):
        channel_from_json({"group": [2], "outputs": 5, "rows": [[1.0], [1.0]]})
    with pytest.raises(ValueError, match="integers"):
        channel_from_json({"group": [2.5], "outputs": ["a"], "rows": [[1.0], [1.0]]})


def test_block_capacities_keep_a_dead_outputs_block_out_of_the_dots():
    # an output whose one entry is the least subnormal has a marginal that
    # underflows to 0 and an infinite posterior entropy; the capacity drops
    # it without a warning, and so reads the other outputs alone
    kernel = np.array([[0.5, 5e-324, 0.2, 0.3], [0.5, 0.0, 0.3, 0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel_capacity(kernel)
    assert got.hex() == kernel_capacity(kernel[:, [0, 2, 3]]).hex()
    assert np.isfinite(got) and 0.0 < got < 1.0
