import itertools

import numpy as np
import pytest

from polarlab import (
    closure,
    difference_span,
    enumerate_subgroups,
    make_group,
    quotient,
    subgroup_from_members,
)


def brute_force_subgroups(group):
    """Independent oracle: close every subset of the group and deduplicate."""
    found = set()
    elements = range(group.size)
    for r in range(group.size + 1):
        for subset in itertools.combinations(elements, r):
            found.add(closure(group, subset))
    return sorted(found, key=lambda m: (len(m), m))


def test_make_group_basic():
    g = make_group([2])
    assert g.size == 2
    assert g.elements == ((0,), (1,))
    klein = make_group([2, 2])
    assert klein.size == 4
    z4 = make_group([4])
    assert z4.elements == ((0,), (1,), (2,), (3,))


def test_make_group_rejects_bad_orders():
    with pytest.raises(ValueError):
        make_group([1])
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([65])
    with pytest.raises(ValueError):
        make_group([8, 16])  # 128 > the size cap
    # int() would truncate these to Z2 and Z4
    with pytest.raises(ValueError, match="integers"):
        make_group([2.5])
    with pytest.raises(ValueError, match="integers"):
        make_group([2, 4.0])
    assert make_group(np.array([2, 4])).orders == (2, 4)


def test_addition_tables():
    g = make_group([2, 4])
    # (1,3) + (1,2) = (0,1)
    a = g.index((1, 3))
    b = g.index((1, 2))
    assert g.elements[g.add(a, b)] == (0, 1)
    assert g.add(a, g.neg(a)) == 0
    # identity and commutativity on the full table
    assert np.array_equal(g.add_table, g.add_table.T)
    assert np.array_equal(g.add_table[0], np.arange(g.size))


def test_subgroup_counts_against_oracle():
    for orders, expected in ([4], 3), ([2, 2], 5), ([6], 4), ([2, 4], 8):
        g = make_group(orders)
        subs = enumerate_subgroups(g)
        assert len(subs) == expected
        oracle = brute_force_subgroups(g)
        assert [s.members for s in subs] == oracle


def test_subgroups_closed_and_lagrange():
    g = make_group([2, 4])
    for sub in enumerate_subgroups(g):
        members = set(sub.members)
        assert 0 in members
        for a in members:
            assert g.neg(a) in members
            for b in members:
                assert g.add(a, b) in members
        assert g.size % sub.size == 0
        assert closure(g, sub.generators) == sub.members


def test_quotient_z4():
    g = make_group([4])
    h = subgroup_from_members(g, [0, 2])
    q = quotient(g, h)
    assert q.count == 2
    assert q.coset_members(0) == (0, 2)
    assert q.coset_members(1) == (1, 3)
    # coset(x) == coset(y) iff x - y in H
    for x in range(4):
        for y in range(4):
            same = q.coset_of[x] == q.coset_of[y]
            assert same == (g.add(x, g.neg(y)) in h.member_set)


def test_quotient_trivial_and_full():
    g = make_group([2, 2])
    trivial = subgroup_from_members(g, [0])
    assert quotient(g, trivial).count == g.size
    full = subgroup_from_members(g, range(g.size))
    assert quotient(g, full).count == 1


def test_quotient_rejects_non_subgroup():
    g = make_group([4])
    with pytest.raises(ValueError):
        subgroup_from_members(g, [0, 1])


def test_difference_span_examples():
    g = make_group([4])
    assert difference_span(g, [3]).members == (0,)
    assert difference_span(g, [0, 2]).members == (0, 2)
    assert difference_span(g, [0, 1]).members == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        difference_span(g, [])


def test_difference_span_of_cosets():
    # The difference span of any coset recovers the subgroup itself.
    for orders in ([4], [2, 2], [6], [2, 4]):
        g = make_group(orders)
        for sub in enumerate_subgroups(g):
            q = quotient(g, sub)
            for j in range(q.count):
                assert difference_span(g, q.coset_members(j)).members == sub.members


def test_group_serialization():
    g = make_group([2, 4])
    assert g.to_json() == [2, 4]
    sub = subgroup_from_members(g, [0, 2])
    assert sub.to_json() == [0, 2]
