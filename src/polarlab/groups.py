"""Finite Abelian groups given as explicit products of cyclic groups.

Elements are k-tuples with componentwise modular addition. They are
enumerated lexicographically, and everything downstream addresses them by
their enumeration index, so channel matrix rows stay stable across runs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

SIZE_CAP = 64


@dataclass(frozen=True)
class Group:
    """Z_{d1} x ... x Z_{dk} with elements indexed 0 .. size-1."""

    orders: tuple[int, ...]

    @cached_property
    def size(self) -> int:
        return math.prod(self.orders)

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All elements in lexicographic order."""
        digits = np.indices(self.orders).reshape(len(self.orders), -1).T
        return tuple(tuple(int(v) for v in row) for row in digits)

    @cached_property
    def _index_by_element(self) -> dict[tuple[int, ...], int]:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def add_table(self) -> np.ndarray:
        """(size, size) table of element-index sums."""
        digits = np.array(self.elements, dtype=np.int64)
        sums = (digits[:, None, :] + digits[None, :, :]) % np.array(self.orders)
        strides = np.cumprod((1,) + self.orders[::-1][:-1])[::-1]
        table = (sums * strides).sum(axis=2)
        table.setflags(write=False)
        return table

    @cached_property
    def neg_table(self) -> np.ndarray:
        """(size,) table of element-index negations."""
        digits = np.array(self.elements, dtype=np.int64)
        negs = (-digits) % np.array(self.orders)
        strides = np.cumprod((1,) + self.orders[::-1][:-1])[::-1]
        table = (negs * strides).sum(axis=1)
        table.setflags(write=False)
        return table

    @property
    def identity(self) -> int:
        return 0

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def index(self, element: Sequence[int]) -> int:
        return self._index_by_element[tuple(int(v) for v in element)]

    def element_label(self, a: int) -> str:
        return ",".join(str(v) for v in self.elements[a])

    def to_json(self) -> list[int]:
        return list(self.orders)

    def __repr__(self) -> str:
        return "Group(" + "x".join(f"Z{d}" for d in self.orders) + ")"


def make_group(orders: Sequence[int]) -> Group:
    """Build a group from cyclic factor orders, e.g. [2, 4] for Z2 x Z4."""
    try:
        orders = tuple(operator.index(d) for d in orders)
    except TypeError:
        raise ValueError(f"cyclic factor orders must be integers, got {orders!r}") from None
    if not orders:
        raise ValueError("group needs at least one cyclic factor")
    for d in orders:
        if d < 2:
            raise ValueError(f"cyclic factor order must be >= 2, got {d}")
    size = math.prod(orders)
    if size > SIZE_CAP:
        raise ValueError(f"group size {size} exceeds cap {SIZE_CAP}")
    return Group(orders)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup as a sorted tuple of member element indices."""

    group: Group
    members: tuple[int, ...]
    generators: tuple[int, ...] = field(default=(), compare=False)

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def label(self) -> str:
        return "{" + ",".join(str(i) for i in self.members) + "}"

    def to_json(self) -> list[int]:
        return list(self.members)

    def __repr__(self) -> str:
        return f"Subgroup({self.label()} of {self.group!r})"


@dataclass(frozen=True, eq=False)
class QuotientMap:
    """Partition of a group into cosets of a subgroup.

    Cosets are indexed by their smallest member (in enumeration order),
    sorted ascending, so the identity coset always has index 0.
    """

    group: Group
    subgroup: Subgroup
    coset_of: np.ndarray
    representatives: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.representatives)

    @cached_property
    def members(self) -> np.ndarray:
        """(cosets, |H|) element indices: row j lists coset j's members in ascending order."""
        members = np.argsort(self.coset_of, kind="stable").reshape(self.count, -1)
        members.setflags(write=False)
        return members

    def coset_members(self, j: int) -> tuple[int, ...]:
        return tuple(int(i) for i in self.members[j])

    def coset_label(self, j: int) -> str:
        return "{" + ",".join(str(i) for i in self.coset_members(j)) + "}"


def closure(group: Group, seeds: Iterable[int]) -> tuple[int, ...]:
    """Smallest subgroup containing the seed elements (always contains 0)."""
    mask = np.zeros(group.size, dtype=bool)
    mask[0] = True
    for s in seeds:
        if not 0 <= int(s) < group.size:
            raise ValueError(f"element index {s} out of range for {group!r}")
        mask[int(s)] = True
    while True:
        idx = np.flatnonzero(mask)
        grown = mask.copy()
        grown[group.add_table[np.ix_(idx, idx)].ravel()] = True
        grown[group.neg_table[idx]] = True
        if np.array_equal(grown, mask):
            return tuple(int(i) for i in idx)
        mask = grown


def _extend_subgroup(group: Group, members: tuple[int, ...], x: int) -> tuple[int, ...]:
    """Members of <H, x> for a verified subgroup H, via the coset orbit of x."""
    add = group.add_table
    member_arr = np.array(members, dtype=np.int64)
    base = np.zeros(group.size, dtype=bool)
    base[member_arr] = True
    out = base.copy()
    y = x
    while not base[y]:
        out[add[y, member_arr]] = True
        y = int(add[y, x])
    return tuple(int(i) for i in np.flatnonzero(out))


@lru_cache(maxsize=None)
def enumerate_subgroups(group: Group) -> tuple[Subgroup, ...]:
    """All subgroups, sorted by (size, member list).

    Breadth-first closure: every known subgroup is extended by every outside
    element; new closures join the frontier. Exhaustive but fine at the
    configured size cap.
    """
    seen: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}
    frontier = [(0,)]
    while frontier:
        members = frontier.pop()
        gens = seen[members]
        member_set = set(members)
        for x in range(group.size):
            if x in member_set:
                continue
            grown = _extend_subgroup(group, members, x)
            if grown not in seen:
                seen[grown] = tuple(sorted(set(gens) | {x}))
                frontier.append(grown)
    subs = [Subgroup(group, m, g) for m, g in seen.items()]
    subs.sort(key=lambda s: (s.size, s.members))
    return tuple(subs)


def subgroup_from_members(group: Group, members: Iterable[int]) -> Subgroup:
    """Validate an element-index set as a subgroup and wrap it."""
    members = tuple(sorted(int(i) for i in set(members)))
    sub = Subgroup(group, members, members)
    _check_subgroup(group, sub)
    return sub


def _check_subgroup(group: Group, sub: Subgroup) -> None:
    if sub.group != group:
        raise ValueError("subgroup belongs to a different group")
    members = sub.members
    if not members or members[0] != 0:
        raise ValueError("subgroup must contain the identity element (index 0)")
    for i in members:
        if not 0 <= i < group.size:
            raise ValueError(f"element index {i} out of range for {group!r}")
    member_set = sub.member_set
    for a in members:
        if int(group.neg_table[a]) not in member_set:
            raise ValueError(f"subgroup not closed under negation at element {a}")
        for b in members:
            if int(group.add_table[a, b]) not in member_set:
                raise ValueError(f"subgroup not closed under addition at ({a},{b})")
    if group.size % len(members) != 0:
        raise ValueError("subgroup size does not divide group size")


@lru_cache(maxsize=None)
def quotient(group: Group, sub: Subgroup) -> QuotientMap:
    """Coset partition of the group by a verified subgroup; cached per pair."""
    _check_subgroup(group, sub)
    member_arr = np.array(sub.members, dtype=np.int64)
    rep_per_element = group.add_table[:, member_arr].min(axis=1)
    representatives = tuple(int(r) for r in sorted(set(rep_per_element.tolist())))
    rep_index = {r: j for j, r in enumerate(representatives)}
    coset_of = np.array([rep_index[int(r)] for r in rep_per_element], dtype=np.int64)
    sizes = np.bincount(coset_of, minlength=len(representatives))
    if not np.all(sizes == sub.size):
        raise ValueError("cosets do not partition the group evenly")
    coset_of.setflags(write=False)
    return QuotientMap(group, sub, coset_of, representatives)


def difference_span(group: Group, support: Iterable[int]) -> Subgroup:
    """Subgroup generated by all pairwise differences of the support set."""
    support = sorted(int(i) for i in set(support))
    if not support:
        raise ValueError("support must be non-empty")
    sup = np.array(support, dtype=np.int64)
    diffs = group.add_table[np.ix_(sup, group.neg_table[sup])].ravel()
    gens = tuple(int(i) for i in sorted(set(diffs.tolist())))
    return Subgroup(group, closure(group, gens), gens)
