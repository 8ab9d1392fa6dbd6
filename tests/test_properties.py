"""Properties of the polarization process on adversarial channels.

The channels are the spiky, sparse and near-duplicate ones of
test_blackwell._merge_test_channels, over Z2, Z3, Z4, Z2xZ2 and Z2xZ4.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_blackwell import _merge_test_channels

from polarlab import (
    Channel,
    blackwell_measure,
    capacity_of_measure,
    minus_on_measure,
    minus_transform,
    plus_on_measure,
    plus_transform,
    polar_step,
    sample_paths,
    wasserstein,
)
from polarlab.blackwell import BALANCE_TOL, SUM_TOL

_TAUS = st.sampled_from([0.0, 1e-9, 1e-3])


def _coarsened(w: Channel, outputs: int = 4) -> Channel:
    """w with every output past the first outputs - 1 merged into one."""
    if w.n_outputs <= outputs:
        return w
    kernel = w.kernel
    kernel = np.column_stack([kernel[:, : outputs - 1], kernel[:, outputs - 1 :].sum(axis=1)])
    return Channel(kernel / kernel.sum(axis=1, keepdims=True), None, w.group)


def _steps(m, path, tau, raw_limit):
    """The measures along path, stopping before a step of more than raw_limit raw atoms."""
    for sign in path:
        if m.atom_count ** 2 * m.group.size > raw_limit:
            return
        m = polar_step(m, sign, tau)
        yield m


@given(w=_merge_test_channels(), tau=_TAUS, path=st.text("-+", min_size=1, max_size=3))
def test_every_step_keeps_balance(w, tau, path):
    for m in _steps(blackwell_measure(_coarsened(w, 6), tau), path, tau, 3000):
        assert abs(m.weights.sum() - 1.0) <= SUM_TOL
        mean = m.weights @ m.posteriors
        assert np.abs(mean - 1.0 / w.group.size).max() <= BALANCE_TOL
        assert np.abs(m.posteriors.sum(axis=1) - 1.0).max() <= SUM_TOL


@given(w=_merge_test_channels())
def test_martingale_identity(w):
    # exact merging only: I(M-) + I(M+) = 2 I(M)
    m = blackwell_measure(w, 0.0)
    total = capacity_of_measure(minus_on_measure(m, 0.0)) + capacity_of_measure(plus_on_measure(m, 0.0))
    assert abs(total - 2.0 * capacity_of_measure(m)) <= 1e-9


@given(w=_merge_test_channels())
def test_measure_and_channel_transforms_commute(w):
    # the measure of the transformed channel is the transformed measure
    w = _coarsened(w)
    m = blackwell_measure(w, 0.0)
    for channel_side, measure_side in ((minus_transform, minus_on_measure), (plus_transform, plus_on_measure)):
        a = blackwell_measure(channel_side(w), 0.0)
        b = measure_side(m, 0.0)
        assert wasserstein(a, b) <= 1e-9
        assert abs(capacity_of_measure(a) - capacity_of_measure(b)) <= 1e-9


@given(w=_merge_test_channels(), tau=_TAUS, paths=st.lists(st.text("-+", max_size=2), min_size=3, max_size=3))
def test_wasserstein_symmetry_and_triangle(w, tau, paths):
    root = blackwell_measure(_coarsened(w, 3), tau)
    a, b, c = ([root, *_steps(root, p, tau, 200)][-1] for p in paths)
    assert wasserstein(a, b) == wasserstein(b, a)
    assert wasserstein(a, c) <= wasserstein(a, b) + wasserstein(b, c) + 1e-12


@settings(max_examples=40)
@given(w=_merge_test_channels(), tau=_TAUS, seed=st.integers(0, 2**16))
def test_deep_sampled_paths_only_refuse(w, tau, seed):
    # depth 10: every path is evaluated or refused by the atom budget
    report = sample_paths(_coarsened(w, 3), 10, 4, seed, merge_tau=tau, atom_budget=4000)
    for r in report.records:
        assert r.ok or "exceeding the budget" in r.error
    for r in report.evaluated:
        assert np.isfinite(r.capacity) and np.isfinite(r.distance_to_pol)


