"""Convergence diagnostics on Blackwell measures.

An exact optimal-transport distance (ground metric: total variation between
posteriors) stands in for the weak-* topology; a sampled guessing-probability
gap gives a certified lower bound on the noisiness metric itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blackwell import BlackwellMeasure, JointSource, blackwell_measure, pc_probability
from .channels import deterministic_hom
from .groups import Group, Subgroup, enumerate_subgroups
from .polar import Chunk

MARGINAL_TOL = 1e-10
# The largest L1 error of a nearest-coset plan's marginals that certifies
# its cost as a Pol distance (see _pol_bounds): rounding level, 2**-48.
_CERTIFY_EPS = 2.0 ** -48
# Entering threshold on reduced costs, relative to the largest potential.
_PRICE_TOL = 1e-14
_PRICE_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Optimal transport plan between two measures' atom sets."""

    source_index: np.ndarray
    target_index: np.ndarray
    mass: np.ndarray
    cost: float

    def __post_init__(self):
        if np.any(self.mass < -MARGINAL_TOL):
            raise ValueError("transport masses must be non-negative")


def _tv_cost_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total-variation distances between the rows of p and the rows of q."""
    return 0.5 * np.abs(p[:, None, :] - q[None, :, :]).sum(axis=2)


def _check_marginals(plan: TransportPlan, m1: BlackwellMeasure, m2: BlackwellMeasure) -> None:
    row = np.zeros(m1.atom_count)
    col = np.zeros(m2.atom_count)
    np.add.at(row, plan.source_index, plan.mass)
    np.add.at(col, plan.target_index, plan.mass)
    if np.abs(row - m1.weights).max() > MARGINAL_TOL or np.abs(col - m2.weights).max() > MARGINAL_TOL:
        raise RuntimeError("transport plan marginals do not match the measures")


def transport_plan(m1: BlackwellMeasure, m2: BlackwellMeasure) -> TransportPlan:
    """Exact solution of the transportation problem between two measures.

    The problem is symmetric in its arguments; to make the reported cost
    bitwise symmetric it is always solved in a canonical orientation, which
    also puts the measure with fewer atoms on the rows.
    """
    if m1.group != m2.group:
        raise ValueError("measures live on different groups")
    if m1.identical(m2):
        idx = np.arange(m1.atom_count)
        return TransportPlan(idx, idx, m1.weights.copy(), 0.0)
    flip = _canonical_key(m2) < _canonical_key(m1)
    rows, cols = (m2, m1) if flip else (m1, m2)
    cost = _tv_cost_matrix(rows.posteriors, cols.posteriors)
    if not np.isfinite(cost).all():
        raise ValueError("transport costs must be finite")
    src, tgt, mass = _network_simplex(cost, rows.weights, cols.weights)
    if flip:
        src, tgt, cost = tgt, src, cost.T
    plan = TransportPlan(src, tgt, mass, float(mass @ cost[src, tgt]))
    _check_marginals(plan, m1, m2)
    return plan


def _network_simplex(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Network simplex for the transportation problem rows -> columns.

    Nodes 0..m-1 are the rows and m..m+n-1 the columns. The basis is a
    spanning tree rooted at row 0 in which every non-root node v holds its
    parent arc: `parent[v]`, with flow `flow[v]`. Flows are only ever added
    and subtracted, and the leaving arc's flow is subtracted from itself, so
    they stay exactly non-negative and match the marginals to rounding.

    The tree is kept strongly feasible (every zero-flow arc points to the
    root, i.e. hangs a row from a column) by taking as leaving arc the last
    blocking arc of the cycle walked from its apex along the entering arc.
    A degenerate pivot then cuts the subtree below the entering arc's row
    and lowers its node potentials (u on rows, -v on columns, where the
    reduced cost is c - u - v), so no basis repeats and the method
    terminates under any pricing rule (Cunningham 1976; Ahuja, Magnanti and
    Orlin, *Network Flows*, section 11.5). The pivot cap only guards against
    a bug.

    Returns the row indices, column indices and masses of the positive-flow
    arcs, in row-major order.
    """
    m, n = cost.shape
    size = m + n
    # North-west corner over the columns sorted by cheapest row, then by how
    # much cheaper the row before is than the row after. For two rows this
    # is the fractional-knapsack order, which is optimal outright; for one
    # row it is the product plan.
    cheapest = cost.argmin(axis=0)
    cols = np.arange(n)
    lean = cost[np.maximum(cheapest - 1, 0), cols] - cost[np.minimum(cheapest + 1, m - 1), cols]
    order = np.lexsort((lean, cheapest)).tolist()
    s = supply.tolist()
    d = demand.tolist()
    parent = [-1] * size
    flow = [0.0] * size
    pot = [0.0] * size
    depth = [0] * size
    children = [set() for _ in range(size)]
    i, k, j = 0, 0, order[0]
    node, up = m + j, 0
    while True:
        parent[node] = up
        children[up].add(node)
        depth[node] = depth[up] + 1
        pot[node] = cost.item(i, j) - pot[up]
        # Once one side is down to its last node, each new node puts its whole
        # weight on its arc, so float dust in the totals never leaves mass
        # unplaced or makes an arc negative. One row gives the product plan.
        if node >= m and i == m - 1:
            x = d[j]
        elif node < m and k == n - 1:
            x = s[i]
        else:
            x = min(s[i], d[j])
        flow[node] = x
        s[i] -= x
        d[j] -= x
        if i == m - 1 and k == n - 1:
            break
        if k == n - 1 or (i < m - 1 and s[i] == 0.0):
            # On a tie the row advances, so the zero-flow arc hangs a row
            # from a column and points to the root: the start is strongly
            # feasible.
            i += 1
            node, up = i, m + j
        else:
            k += 1
            j = order[k]
            node, up = m + j, i
    pi = np.array(pot)
    row_pi, col_pi = pi[:m, None], pi[m:]
    # Block pricing: each pivot enters the most negative reduced cost of the
    # first block of rows, in cyclic order from the last entering block, that
    # has one. Problems of up to _PRICE_BLOCK cells are priced whole.
    step = max(1, _PRICE_BLOCK // n)
    starts = range(0, m, step)
    first = 0
    for _ in range(50 * m * n + 1000):
        tol = -_PRICE_TOL * (1.0 + float(np.abs(pi).max()))
        for r0 in (*starts[first:], *starts[:first]):
            reduced = cost[r0 : r0 + step] - row_pi[r0 : r0 + step]
            reduced -= col_pi
            e = int(reduced.argmin())
            delta = float(reduced.flat[e])
            if delta < tol:
                first = r0 // step
                break
        else:
            break
        p, q = divmod(e, n)
        p += r0
        q += m
        # Tree paths from p and q up to their common ancestor, the apex.
        a, b = p, q
        up_p, up_q = [], []
        while depth[a] > depth[b]:
            up_p.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            up_q.append(b)
            b = parent[b]
        while a != b:
            up_p.append(a)
            a = parent[a]
            up_q.append(b)
            b = parent[b]
        # Walking the cycle from the apex down to p, across to q and back up,
        # an arc loses flow when it runs from a column to a row.
        theta = float("inf")
        out = -1
        for v in reversed(up_p):
            if v < m and flow[v] <= theta:
                theta, out = flow[v], v
        out_on_q = False
        for v in up_q:
            if v >= m and flow[v] <= theta:
                theta, out, out_on_q = flow[v], v, True
        if theta > 0.0:
            for v in up_p:
                flow[v] += -theta if v < m else theta
            for v in up_q:
                flow[v] += -theta if v >= m else theta
        # Re-hang the subtree cut off by the leaving arc from the entering
        # arc, reversing the tree path between the two.
        top, hook = (q, p) if out_on_q else (p, q)
        prev, v, carried = hook, top, theta
        while True:
            nxt, f = parent[v], flow[v]
            children[nxt].discard(v)
            parent[v], flow[v] = prev, carried
            children[prev].add(v)
            if v == out:
                break
            prev, v, carried = v, nxt, f
        depth[top] = depth[hook] + 1
        moved = [top]
        for v in moved:
            below = depth[v] + 1
            for w in children[v]:
                depth[w] = below
                moved.append(w)
        moved = np.array(moved)
        pi[moved] += np.where((moved >= m) == (top >= m), delta, -delta)
    else:
        raise RuntimeError("transport simplex exceeded its pivot cap")
    arcs = [v for v in range(1, size) if flow[v] > 0.0]
    rows = np.array([v if v < m else parent[v] for v in arcs], dtype=np.int64)
    cols = np.array([parent[v] - m if v < m else v - m for v in arcs], dtype=np.int64)
    mass = np.array([flow[v] for v in arcs])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], mass[order]


def _canonical_key(m: BlackwellMeasure) -> tuple:
    return (m.atom_count, m.posteriors.tobytes(), m.weights.tobytes())


def wasserstein(m1: BlackwellMeasure, m2: BlackwellMeasure) -> float:
    """Exact optimal-transport distance with total-variation ground metric."""
    return transport_plan(m1, m2).cost


def _atom_source(m: BlackwellMeasure) -> JointSource:
    """Atom-identification source: U is the atom index, X drawn from its posterior.

    U ranges over the |G| heaviest atoms, ties going to the first.
    """
    order = np.lexsort((np.arange(m.atom_count), -m.weights))[: m.group.size]
    probs = m.weights[order, None] * m.posteriors[order]
    return JointSource(probs / probs.sum(), m.group)


def pc_gap_lower_bound(
    m1: BlackwellMeasure,
    m2: BlackwellMeasure,
    trials: int = 64,
    seed: int = 0,
) -> float:
    """Certified lower bound on the noisiness distance between two measures.

    Runs structured sources (each measure's own atom-identification source
    and the diagonal source u = x) plus Dirichlet-random joint sources with
    1 to |G| values of u, and returns the largest observed
    guessing-probability gap. The bound is monotone in `trials` for a fixed
    seed.
    """
    if m1.group != m2.group:
        raise ValueError("measures live on different groups")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    size = m1.group.size
    sources = [_atom_source(m1), _atom_source(m2), JointSource(np.eye(size) / size, m1.group)]
    best = 0.0
    for src in sources:
        best = max(best, abs(pc_probability(src, m1) - pc_probability(src, m2)))
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        m_u = int(rng.integers(1, size + 1))
        probs = rng.dirichlet(np.ones(m_u * size)).reshape(m_u, size)
        src = JointSource(probs, m1.group)
        best = max(best, abs(pc_probability(src, m1) - pc_probability(src, m2)))
    return best


@lru_cache(maxsize=None)
def pol_set(group: Group) -> tuple[tuple[Subgroup, BlackwellMeasure], ...]:
    """The finite fixed-point set: Blackwell measures of all quotient projections."""
    return tuple(
        (sub, blackwell_measure(deterministic_hom(group, sub)))
        for sub in enumerate_subgroups(group)
    )


@lru_cache(maxsize=None)
def _pol_stack(group: Group) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Pol targets' atoms stacked: posteriors, weights, and each target's first row."""
    targets = [target for _, target in pol_set(group)]
    sizes = [target.atom_count for target in targets]
    return (
        np.concatenate([target.posteriors for target in targets]),
        np.concatenate([target.weights for target in targets]),
        np.concatenate([[0], np.cumsum(sizes)[:-1]]),
    )


def _pol_bounds(chunk: Chunk) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per measure of a chunk and per Pol target, in enumeration order: the
    row term, the transport lower bound, and the nearest-coset plan's error,
    as three (measures, targets) arrays.

    A target Pol(H) has one atom per coset c of H, the uniform coset
    posterior u_c, of weight v_c = 1/|G:H|. Every plan moving the weights w
    onto v costs at least the bound max(rows, cols), where
    rows = sum_i w_i min_c TV(q_i, u_c) and cols = sum_c v_c min_i TV(q_i, u_c).
    The plan that sends each atom to its nearest cosets, exact ties split
    evenly, costs exactly `rows`; its error is the L1 distance
    eps = sum_c |marginal_c - v_c| of its coset marginals from v. Rerouting
    its surplus, eps / 2, costs at most TV <= 1 per unit, so the optimum
    lies in [rows, rows + eps / 2].

    The terms that read the posteriors alone (the cost matrix against all
    targets' atoms, its row and column minima, the nearest cosets and their
    ties, and `cols`) are computed once per distinct posterior matrix of
    the chunk (Chunk.by_key). Minima are exact, and the sums over a node's
    atoms run on the (n, k, ...) stack of each weight block, in atom order,
    so each node gets the bits its measure gets alone; the row terms' dots,
    of each node's own weights, are one stacked matmul per block. Rows come
    in the chunk's order.
    """
    posteriors, weights, firsts = _pol_stack(chunk.group)
    sizes = np.diff(np.append(firsts, len(weights)))
    rows, cols, eps = (np.empty((len(chunk), len(firsts))) for _ in range(3))
    for members in chunk.by_key.values():
        cost = _tv_cost_matrix(chunk.supports[members[0]].posteriors, posteriors)
        if not np.isfinite(cost).all():
            raise ValueError("transport costs must be finite")
        row_min = np.minimum.reduceat(cost, firsts, axis=1)
        nearest = cost == np.repeat(row_min, sizes, axis=1)
        ties = np.add.reduceat(nearest, firsts, axis=1, dtype=np.int64)
        col_terms = np.add.reduceat(cost.min(axis=0) * weights, firsts)
        for j in members:
            index = chunk.index(j)
            # [n, i, atom of a target]: the weight atom i sends there
            w = chunk.supports[j].weights
            share = np.where(nearest, np.repeat(w[:, :, None] / ties, sizes, axis=2), 0.0)
            cols[index] = col_terms
            eps[index] = np.add.reduceat(np.abs(share.sum(axis=1) - weights), firsts, axis=1)
            rows[index] = (w[:, None, :] @ row_min)[:, 0]
    return rows, np.maximum(rows, cols), eps


def _nearest_pol(chunk: Chunk) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance to the nearest quotient-projection measure of each measure of
    a chunk, as columns: (distance, index of the subgroup in enumeration
    order, transport solves).

    The targets are visited in ascending order of their lower bounds
    (_pol_bounds), and a target whose bound exceeds the best distance found
    so far by more than MARGINAL_TOL (which absorbs rounding in the bound)
    is skipped: it can neither beat nor tie the best. A visited target's
    distance is its row term when the nearest-coset plan certifies it, that
    is, when the plan's error eps is at most _CERTIFY_EPS; the reported
    value is then within eps / 2 <= 2**-49 of the optimum. The one-atom
    target Pol(G) admits no other plan, so its eps is only the rounding of
    the measure's weight sum, and its row term is always its distance.
    Other targets are solved exactly (wasserstein). The value and subgroup
    are those of the enumeration-order minimum over the visited targets,
    ties going to the first subgroup in enumeration order. Results come
    back in the chunk's order, each bitwise the one its measure gets
    alone.

    The search runs once for the chunk, a target rank at a time: each
    measure's targets in (bound, index) order, an open mask that closes a
    measure for good at its first skipped target, and a running (value,
    index) minimum. Only the open, uncertified (measure, target) pairs of a
    rank are solved, one at a time.
    """
    targets = pol_set(chunk.group)
    lone = np.array([target.atom_count == 1 for _, target in targets])
    rows, bounds, eps = _pol_bounds(chunk)
    # each measure's targets in (bound, index) order: a stable sort keeps
    # tied bounds in index order
    ranked = np.argsort(bounds, axis=1, kind="stable")
    measure = np.arange(len(rows))[:, None]
    ranked_bounds, ranked_rows = bounds[measure, ranked], rows[measure, ranked]
    ranked_solved = ~(lone | (eps <= _CERTIFY_EPS))[measure, ranked]
    best = np.full(len(rows), np.inf)
    index = np.full(len(rows), -1, dtype=np.int64)
    solves = np.zeros(len(rows), dtype=np.int64)
    live = np.ones(len(rows), dtype=bool)
    for rank, target in enumerate(ranked.T):
        live &= ~(ranked_bounds[:, rank] > best + MARGINAL_TOL)
        if not live.any():
            break
        value = ranked_rows[:, rank].copy()
        for i in (live & ranked_solved[:, rank]).nonzero()[0].tolist():
            value[i] = wasserstein(chunk.measures[i], targets[target[i]][1])
            solves[i] += 1
        better = live & ((value < best) | ((value == best) & (target < index)))
        np.copyto(best, value, where=better)
        np.copyto(index, target, where=better)
    return best, index, solves


def distance_to_pol(m: BlackwellMeasure) -> tuple[float, Subgroup]:
    """Distance to the nearest quotient-projection measure, with its subgroup.

    The chunk kernel _nearest_pol on a chunk of one measure: a certified
    nearest-coset plan where one exists, the exact transport solve
    otherwise; ties go to the first subgroup in enumeration order.
    """
    dist, index, _ = _nearest_pol(Chunk([m]))
    return float(dist[0]), pol_set(m.group)[index[0]][0]
