from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_polar import _gap_list, _measure_chunks, _reference_quotient_capacity, _rows

from polarlab import (
    AtomBudgetError,
    BlackwellMeasure,
    Channel,
    DeterminednessResult,
    DeterminednessWitness,
    PathRecord,
    TraceRecord,
    blackwell_measure,
    capacity_of_measure,
    convergence_trace,
    delta_determining_subgroup,
    deterministic_hom,
    distance_to_pol,
    enumerate_paths,
    enumerate_subgroups,
    make_group,
    martingale_residual,
    sample_paths,
    subgroup_from_members,
    symmetric_capacity,
)
from polarlab import metrics, polar, process, verify
from polarlab.polar import Chunk
from polarlab.process import report_csv, report_json
from polarlab.presets import (
    bec_channel,
    bsc_channel,
    dh_mix_channel,
    identity_channel,
    random_channel,
    useless_channel,
    z4_multilevel_channel,
)

Z2 = make_group([2])
Z4 = make_group([4])


def bec_erasure(path, z):
    for sign in path:
        z = 2 * z - z * z if sign == "-" else z * z
    return z


def test_enumerate_depth_zero():
    w = bsc_channel(0.1)
    report = enumerate_paths(w, 0)
    assert len(report.records) == 1
    rec = report.records[0]
    assert rec.path == ""
    assert rec.capacity == pytest.approx(symmetric_capacity(w), abs=1e-9)


def test_enumerate_quotient_projection_all_determined():
    h = subgroup_from_members(Z4, [0, 2])
    report = enumerate_paths(deterministic_hom(Z4, h), 3, delta=0.01)
    assert len(report.records) == 8
    assert report.fraction_determined() == 1.0
    hist = report.subgroup_histogram()
    assert len(hist) == 1 and hist[0][0] == h and hist[0][1] == 8
    for rec in report.records:
        assert rec.distance_to_pol == 0.0
        assert rec.capacity_gap <= 1e-10


def test_enumerate_bec_matches_scalar_recursion():
    report = enumerate_paths(bec_channel(0.5), 4)
    assert len(report.records) == 16
    for rec in report.records:
        assert rec.capacity == pytest.approx(1 - bec_erasure(rec.path, 0.5), abs=1e-9)
        assert rec.atom_count <= 3


def test_enumerate_mean_capacity_conserved():
    cases = [
        (random_channel(Z4, 2, seed=3), 2, 2_000_000),
        (dh_mix_channel(Z4, seed=3), 6, 20000),
        (bec_channel(0.5), 6, 20000),
    ]
    for w, depth, budget in cases:
        report = enumerate_paths(w, depth, atom_budget=budget)
        capacities = [r.capacity for r in report.evaluated]
        assert len(capacities) == 2**depth
        assert np.mean(capacities) == pytest.approx(symmetric_capacity(w), abs=1e-8)


def test_record_order_is_path_order():
    report = enumerate_paths(bec_channel(0.5), 2)
    assert [r.path for r in report.records] == ["--", "-+", "+-", "++"]


def test_sampled_reports_deterministic():
    w = bec_channel(0.5)
    a = report_json(sample_paths(w, 6, 32, seed=9).to_dict())
    b = report_json(sample_paths(w, 6, 32, seed=9).to_dict())
    assert a == b
    c = report_json(sample_paths(w, 6, 32, seed=10).to_dict())
    assert a != c


def test_sample_paths_rejects_a_negative_seed():
    # numpy's own refusal of a negative seed would name no argument
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        sample_paths(bec_channel(0.5), 2, 1, seed=-1)


def test_sampled_record_matches_exhaustive_entry():
    w = bec_channel(0.5)
    exhaustive = {r.path: r for r in enumerate_paths(w, 4).records}
    sampled = sample_paths(w, 4, 16, seed=1)
    for rec in sampled.records:
        ref = exhaustive[rec.path]
        assert rec.capacity == pytest.approx(ref.capacity, abs=1e-12)
        assert rec.distance_to_pol == pytest.approx(ref.distance_to_pol, abs=1e-12)


def test_sampled_fraction_near_exhaustive_oracle():
    # scalar-recursion oracle over all 1024 depth-10 paths
    paths = [""]
    for _ in range(10):
        paths = [p + s for p in paths for s in "-+"]
    delta = 0.1
    determined = sum(
        1 for p in paths if bec_erasure(p, 0.5) < delta or bec_erasure(p, 0.5) > 1 - delta
    )
    oracle = determined / len(paths)
    report = sample_paths(bec_channel(0.5), 10, 1000, seed=7, delta=delta)
    assert abs(report.fraction_determined() - oracle) <= 0.05


def test_convergence_trace_examples():
    h = subgroup_from_members(Z4, [0, 2])
    trace = convergence_trace(deterministic_hom(Z4, h), "-+-")
    assert len(trace) == 4
    for level in trace:
        assert level.capacity_gap <= 1e-10
        assert level.distance_to_pol == 0.0
        assert level.nearest_subgroup == h

    trace = convergence_trace(identity_channel(Z4), "++-")
    for level in trace:
        assert level.nearest_subgroup.members == (0,)

    trace = convergence_trace(bec_channel(0.5), "------")
    z = 0.5
    for k, level in enumerate(trace):
        assert level.capacity == pytest.approx(1 - z, abs=1e-9)
        if k < 6:
            z = 2 * z - z * z


def test_martingale_residual_values():
    r = martingale_residual(bsc_channel(0.1))
    assert r.residual <= 1e-12
    assert r.asymmetry <= 1e-12
    h2 = lambda p: -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
    w = bsc_channel(0.1)
    i_w = symmetric_capacity(w)
    from polarlab import minus_transform

    assert abs(symmetric_capacity(minus_transform(w)) - i_w) == pytest.approx(
        h2(0.18) - h2(0.1), abs=1e-12
    )
    h = subgroup_from_members(Z4, [0, 2])
    r = martingale_residual(deterministic_hom(Z4, h))
    assert r.residual <= 1e-12


def test_dh_mix_two_level_erasure_oracle():
    """Capacities of the quotient-mixture channel follow two independent
    scalar erasure recursions, one per nontrivial quotient level."""
    w = dh_mix_channel(Z4, seed=3)
    rng = np.random.default_rng([3, 4, 3])
    lam = rng.dirichlet(np.ones(3))
    zq0, zr0 = lam[2], lam[1] + lam[2]
    report = enumerate_paths(w, 6)
    assert not report.failed
    for rec in report.records:
        expected = 2 - bec_erasure(rec.path, zq0) - bec_erasure(rec.path, zr0)
        assert rec.capacity == pytest.approx(expected, abs=1e-9)


def _refusal(what: str) -> str:
    return f"{what}, exceeding the budget of 300"


def test_failed_paths_recorded_not_fatal():
    w = random_channel(Z4, 4, seed=0)
    report = enumerate_paths(w, 3, atom_budget=300)
    assert len(report.records) == 8
    assert report.failed
    for rec in report.failed:
        assert "budget" in rec.error
    data = report.to_dict()
    assert data["aggregates"]["failed"] == len(report.failed)
    # A node's capacity gap is checked before its children are stepped, and
    # a refusal stands in for the whole subtree below the refused node.
    gap_100 = _refusal("capacity-gap evaluation would materialize 10000 atom pairs")
    plus_16 = _refusal("step '+' would materialize 1024 atoms from 16")
    gap_58 = _refusal("capacity-gap evaluation would materialize 3364 atom pairs")
    assert [(r.path, r.error) for r in report.records] == [
        ("---", gap_100), ("--+", gap_100), ("-+-", plus_16), ("-++", plus_16),
        ("+--", gap_58), ("+-+", gap_58), ("++-", gap_58), ("+++", gap_58),
    ]
    assert {d: len(gaps) for d, gaps in report.level_gaps.items()} == {0: 1, 1: 1}
    # Sample mode checks the gap on the leaf only, so a step refusal on the
    # way down names the path instead.
    sampled = sample_paths(w, 3, 6, seed=0, atom_budget=300)
    plus_58 = _refusal("step '+' would materialize 13456 atoms from 58")
    minus_58 = _refusal("step '-' would materialize 3364 atoms from 58")
    assert [(r.path, r.error) for r in sampled.records] == [
        ("+++", plus_58), ("+++", plus_58), ("+--", minus_58),
        ("+++", plus_58), ("-+-", plus_16), ("+-+", minus_58),
    ]
    assert sampled.level_gaps == {}


def test_convergence_trace_refusal_names_the_gap():
    w = random_channel(Z4, 4, seed=0)
    message = _refusal("capacity-gap evaluation would materialize 3364 atom pairs")
    with pytest.raises(AtomBudgetError) as info:
        convergence_trace(w, "+++", atom_budget=300)
    assert str(info.value) == message


def _count_stepped_nodes(monkeypatch, counter):
    # the walker steps a chunk of nodes per call, both signs together, as
    # one (chunk, sign) part each; count each part's nodes
    real = process.steps

    def steps(parts, merge_tau):
        for chunk, _ in parts:
            for _ in range(len(chunk)):
                counter()
        return real(parts, merge_tau)

    monkeypatch.setattr(process, "steps", steps)


def test_each_node_is_stepped_once(monkeypatch):
    counter = mock.Mock()
    _count_stepped_nodes(monkeypatch, counter)
    w = dh_mix_channel(Z4, seed=3)
    report = enumerate_paths(w, 5)
    assert not report.failed
    assert counter.call_count == 2 ** 6 - 2
    counter.reset_mock()
    report = sample_paths(w, 5, 20, seed=2)
    prefixes = {r.path[:k] for r in report.records for k in range(1, 6)}
    assert len(prefixes) < 20 * 5
    assert counter.call_count == len(prefixes)


def test_faults_name_the_node(monkeypatch):
    # a step, a gap or an evaluation that raises names its node's path;
    # budget refusals stay per-path results
    # a step call that holds a '+' part raises, so the joint call raises,
    # then the '+' part alone
    real_steps = process.steps

    def steps(parts, merge_tau):
        if any(sign == "+" for _, sign in parts):
            raise ValueError("posterior entries must be non-negative")
        return real_steps(parts, merge_tau)

    monkeypatch.setattr(process, "steps", steps)
    # preorder visits '-' before '+', so '-+' is the first plus step
    with pytest.raises(process.PathFault, match=r"^path '-\+': posterior entries") as info:
        enumerate_paths(bec_channel(0.5), 2)
    assert info.value.path == "-+" and isinstance(info.value.__cause__, ValueError)
    with pytest.raises(process.PathFault, match=r"^path '--\+': "):
        convergence_trace(bec_channel(0.5), "--+")
    monkeypatch.setattr(process, "steps", real_steps)

    def gap(chunk):
        raise RuntimeError("capacity-gap routes disagree")

    monkeypatch.setattr(process.Chunk, "gaps", gap)
    with pytest.raises(process.PathFault, match=r"^path '': capacity-gap routes disagree$"):
        enumerate_paths(bec_channel(0.5), 1)
    monkeypatch.undo()
    report = enumerate_paths(random_channel(Z4, 5, seed=0), 3, atom_budget=300)
    assert report.failed and all("budget" in r.error for r in report.failed)


def _chunking_cases():
    z2z2 = make_group([2, 2])
    return [
        (dh_mix_channel(Z4, seed=3), 5, {}),
        (random_channel(z2z2, 3, seed=3), 4, {"merge_tau": 1e-3}),
        (bsc_channel(0.11), 6, {"merge_tau": 1e-3}),
        (random_channel(Z4, 4, seed=0), 3, {"atom_budget": 300}),
        (identity_channel(Z4), 3, {"merge_tau": 0.0}),
        # every node has 7 atoms, so every '+' step is refused (7 * 7 * 4 = 196 > 100)
        (dh_mix_channel(Z4, seed=3), 5, {"atom_budget": 100}),
    ]


def _chunking_reports():
    out = []
    for w, depth, kw in _chunking_cases():
        out.append(report_json(enumerate_paths(w, depth, **kw).to_dict()))
        out.append(report_json(sample_paths(w, depth, 12, seed=5, **kw).to_dict()))
        out.append([r.to_dict() for r in convergence_trace(bec_channel(0.5), "-+--+", **kw)]
                   if "atom_budget" not in kw else None)
    return out


@pytest.mark.parametrize("cap", [1, 200, 1000])
def test_chunk_size_does_not_change_reports(monkeypatch, cap):
    # cap 1 steps every node alone; 200 cuts levels into uneven chunks, and
    # 1000 cuts the replayed levels of dh-mix:3 on Z4 (245 floats a node)
    # into chunks of 4 nodes, so a weight block is cut by rows
    want = _chunking_reports()
    monkeypatch.setattr(process, "_CHUNK_ATOMS", cap)
    assert _chunking_reports() == want


def _chunk_sizes(monkeypatch, w, depth):
    """Nodes per call of each chunk kernel over an exhaustive walk of w."""
    sizes = {"minus": [], "plus": [], "gaps": [], "evaluate": []}
    real_steps, real_gaps = process.steps, Chunk.gaps

    def steps(parts, merge_tau):
        for chunk, sign in parts:
            sizes["minus" if sign == "-" else "plus"].append(len(chunk))
        return real_steps(parts, merge_tau)

    def gaps(chunk):
        sizes["gaps"].append(len(chunk))
        return real_gaps(chunk)

    monkeypatch.setattr(process, "steps", steps)
    monkeypatch.setattr(Chunk, "gaps", gaps)
    real_evaluate = process._evaluate_chunk

    def evaluate(chunk, delta):
        sizes["evaluate"].append(len(chunk))
        return real_evaluate(chunk, delta)

    monkeypatch.setattr(process, "_evaluate_chunk", evaluate)
    enumerate_paths(w, depth)
    monkeypatch.undo()
    return sizes


def test_replaying_levels_run_in_a_few_chunks(monkeypatch):
    # every node of a dh-mix level sits on a matrix for which the root
    # recorded plans of both signs, so each is priced at its raw weights:
    # the 31 steps of a depth-5 walk on Z2xZ4 run in a few chunks, and its
    # 63 gaps and 32 leaves in a few; a cap of 1 still runs every node alone
    w = dh_mix_channel(make_group([2, 4]), seed=11)
    sizes = _chunk_sizes(monkeypatch, w, 5)
    assert sum(sizes["minus"]) == sum(sizes["plus"]) == 31
    assert len(sizes["minus"]) == len(sizes["plus"]) <= 5
    assert sum(sizes["evaluate"]) == 32 and len(sizes["evaluate"]) <= 2
    assert sum(sizes["gaps"]) == 63 and len(sizes["gaps"]) <= 7
    monkeypatch.setattr(process, "_CHUNK_ATOMS", 1)
    alone = _chunk_sizes(monkeypatch, w, 5)
    assert all(set(calls) == {1} for calls in alone.values())
    assert [len(alone[name]) for name in ("minus", "plus", "gaps", "evaluate")] == [31, 31, 63, 32]


def test_split_prices_a_matrix_with_plans_of_both_signs_at_replay_cost(monkeypatch):
    # two children on one matrix: the first takes the general path, priced
    # at |G| times its raw weights, unless the walk holds a plan of each
    # sign for the matrix; a None plan is no plan
    m = blackwell_measure(dh_mix_channel(make_group([2, 4]), seed=11))
    monkeypatch.setattr(process, "_CHUNK_ATOMS", 2 * m.atom_count ** 2 * (1 + m.group.size))
    support = m.posteriors.tobytes()
    block = polar.Block(m.posteriors, support, np.stack([m.weights, m.weights]), np.arange(2))
    children = process.Level(m.group, ["-", "+"], [block], {})
    both = {(("-", 0.0), support): object(), (("+", 0.0), support): object()}
    assert [run.paths for run in process._split(children, both, 0.0)] == [["-", "+"]]
    assert [run.paths for run in process._split(children, both, 1e-9)] == [["-"], ["+"]]
    assert [run.paths for run in process._split(children, {}, 0.0)] == [["-"], ["+"]]
    # the block is cut by rows, each run's positions counted from its first
    runs = process._split(children, {}, 0.0)
    assert [run.supports[0].rows.tolist() for run in runs] == [[0], [0]]
    assert all(run.supports[0].key == support for run in runs)
    both[("+", 0.0), support] = None
    assert [len(run.paths) for run in process._split(children, both, 0.0)] == [1, 1]


def test_general_steps_stay_under_the_chunk_cap(monkeypatch):
    # each sign of a node without a plan in the walk's table is priced at
    # its raw posteriors, even where a plan that its chunk records will
    # serve it, so a general-path call, which holds the raw children of
    # both signs of a walker chunk, materializes more than _CHUNK_ATOMS
    # floats only for one sign of a node that does alone, whose signs are
    # stepped apart: each part counts the raw posterior floats of its own
    # sign, k^2 |G| for a minus step and k^2 |G|^2 for a plus step
    calls = []
    real = polar._general

    def general(parts, merge_tau):
        floats, positions = 0, set()
        for chunk, sign in parts:
            size = chunk.group.size
            raw = 1 if sign == "-" else size
            floats += sum(k ** 2 * raw * size for k in chunk.counts.tolist())
            positions.update(chunk.positions.tolist())
        calls.append((len(positions), len(parts), floats, parts[0][0].counts.tolist()))
        return real(parts, merge_tau)

    monkeypatch.setattr(polar, "_general", general)
    # dh-mix on Z6 steps only '-' by the general path; bsc steps both signs
    # there, the deeper levels in chunks that the cap of 20000 cuts
    for w, depth, cap in ((dh_mix_channel(make_group([6]), seed=5), 8, None), (bsc_channel(0.11), 6, None),
                          (bsc_channel(0.11), 6, 20000)):
        if cap is not None:
            monkeypatch.setattr(process, "_CHUNK_ATOMS", cap)
        calls.clear()
        enumerate_paths(w, depth)
        assert len(calls) > 1
        assert all(floats <= process._CHUNK_ATOMS or (nodes, parts) == (1, 1) for nodes, parts, floats, _ in calls)
    # calls that hold both signs of several nodes, up to the cap
    assert any(nodes > 1 and parts == 2 and floats > cap // 2 for nodes, parts, floats, _ in calls)
    # a node of 71 atoms, priced at 6 * 71^2 floats, over the cap, steps
    # its minus children, 2 * 71^2 floats, and then its plus children,
    # 4 * 71^2, in calls of their own
    alone = [(floats, counts) for nodes, parts, floats, counts in calls if nodes == 1 and counts == [71]]
    assert alone == [(2 * 71 ** 2, [71]), (4 * 71 ** 2, [71])]


def test_the_walk_evaluates_on_the_chunks_of_its_gaps(monkeypatch):
    # each reader's nodes are evaluated on the polar.Chunk that computed
    # their gaps, and evaluation builds no chunk of its own
    built, gapped, evaluated = [], [], []
    real_init, real_gaps, real_evaluate = Chunk.__init__, Chunk.gaps, process._evaluate_chunk

    def init(chunk, *args, **kwargs):
        built.append(chunk)
        real_init(chunk, *args, **kwargs)

    def gaps(chunk):
        gapped.append(chunk)
        return real_gaps(chunk)

    def evaluate(chunk, delta):
        before = len(built)
        out = real_evaluate(chunk, delta)
        evaluated.append((chunk, len(built) - before))
        return out

    monkeypatch.setattr(Chunk, "__init__", init)
    monkeypatch.setattr(Chunk, "gaps", gaps)
    monkeypatch.setattr(process, "_evaluate_chunk", evaluate)
    w = dh_mix_channel(make_group([2, 4]), seed=11)
    calls = [
        lambda: enumerate_paths(w, 5),
        lambda: sample_paths(w, 5, 12, seed=5),
        lambda: convergence_trace(w, "-+-+"),
    ]
    for call in calls:
        built.clear(), gapped.clear(), evaluated.clear()
        call()
        assert evaluated
        for chunk, new in evaluated:
            assert new == 0 and any(chunk is other for other in gapped)


def test_gap_tiles_give_the_whole_chunks_gaps(monkeypatch):
    # a chunk's gaps run over tiles of first-atom rows: whatever their size,
    # down to one row, every node gets the gap of the default tiles; and the
    # gaps of the levels above the leaves run in batches of several levels,
    # which give every node the gap it gets in a batch of one node (a cap
    # of 1 runs every node alone)
    def walk_gaps():
        walk = process._walk_chunks(blackwell_measure(w), 4, gap_depths=range(5))
        chunks = [(level, gaps.tolist()) for level, gaps, _ in walk]
        # every node is still live, and had its gap computed
        assert all(not level.dead and level.atoms().all() for level, _ in chunks)
        return [(path, gap.hex()) for level, gaps in chunks for path, gap in zip(level.paths, gaps)]

    w = dh_mix_channel(make_group([2, 4]), seed=11)
    want = walk_gaps()
    assert len(want) == 31
    for floats in (1, 200):
        monkeypatch.setattr(polar, "_PRODUCT_FLOATS", floats)
        assert walk_gaps() == want
    monkeypatch.undo()
    monkeypatch.setattr(process, "_CHUNK_ATOMS", 1)
    alone = walk_gaps()
    assert len(alone) == 31 and dict(alone) == dict(want)
    monkeypatch.undo()
    # the levels above the leaves take one batch on z4-multilevel, and on
    # dh-mix the cap flushes the batch once, before the leaves' two chunks
    for w, depth, batches in ((z4_multilevel_channel(0.5), 7, 2), (dh_mix_channel(make_group([2, 4]), 3), 5, 3)):
        sizes = _chunk_sizes(monkeypatch, w, depth)
        assert sum(sizes["gaps"]) == 2 ** (depth + 1) - 1 and len(sizes["gaps"]) == batches


def test_a_gap_fault_in_a_batch_stops_its_subtree(monkeypatch):
    # the gap of node '-+' raises, and no other's: its level's gaps run in a
    # batch after its descendants were stepped, yet the walk yields what it
    # yields when each level's gaps run before its children are stepped (a
    # cap of 1), every descendant holding the node's own PathFault
    w = z4_multilevel_channel(0.5)
    root = blackwell_measure(w)
    default = process._CHUNK_ATOMS
    nodes = [
        (path, block.key, weights.tobytes())
        for level, _, _ in process._walk_chunks(root, 5, gap_depths=range(6))
        for block in level.supports
        for position, weights in zip(block.rows.tolist(), block.weights)
        for path in [level.paths[position]]
    ]
    target = next(node[1:] for node in nodes if node[0] == "-+")
    assert [node[1:] for node in nodes].count(target) == 1
    real_gaps = Chunk.gaps
    raised = []

    def gaps(chunk):
        for block in chunk.supports:
            if block.key == target[0] and any(weights.tobytes() == target[1] for weights in block.weights):
                raised.append(len(chunk))
                raise RuntimeError("capacity-gap routes disagree")
        return real_gaps(chunk)

    monkeypatch.setattr(Chunk, "gaps", gaps)

    def walk():
        seen = {}
        for level, level_gaps, _ in process._walk_chunks(root, 5, gap_depths=range(6)):
            for position, path in enumerate(level.paths):
                seen[path] = level.dead.get(position, level_gaps[position].hex())
        faults = {path: node for path, node in seen.items() if isinstance(node, process.PathFault)}
        assert set(faults) == {path for path in seen if path.startswith("-+")}
        fault = faults["-+"]
        assert all(node is fault for node in faults.values())
        assert fault.path == "-+" and isinstance(fault.__cause__, RuntimeError)
        return {path: "fault" if path in faults else node for path, node in seen.items()}

    batched = walk()
    # the batch of levels 0 to 4 raised, then '-+' alone
    assert raised == [31, 1]
    raised.clear()
    monkeypatch.setattr(process, "_CHUNK_ATOMS", 1)
    assert walk() == batched
    assert raised == [1, 1]
    for cap in (1, default):
        monkeypatch.setattr(process, "_CHUNK_ATOMS", cap)
        with pytest.raises(process.PathFault, match=r"^path '-\+': capacity-gap routes disagree$") as info:
            enumerate_paths(w, 5)
        assert info.value.path == "-+" and isinstance(info.value.__cause__, RuntimeError)


def _bsc_sample_walk():
    """The walk of the benchmark's bsc-merge-sample command: 4 paths of bsc:0.11 to depth 8 at tau 1e-3."""
    tau = 1e-3
    report = sample_paths(bsc_channel(0.11), 8, 4, seed=1, merge_tau=tau, atom_budget=10 ** 6)
    paths = [record.path for record in report.records]
    return process._walk_chunks(blackwell_measure(bsc_channel(0.11), tau), 8, tau, 10 ** 6, paths)


def test_a_sampled_generic_walk_canonicalizes_once_per_chunk(monkeypatch):
    # no two bsc nodes share a matrix, so below the root every node steps
    # by the general path; each walker chunk canonicalizes the children of
    # both signs, where its nodes want both, in one call
    walk = _bsc_sample_walk()
    calls = []
    real_steps, real_general, real_canonical = process.steps, polar._general, polar._canonical_measures

    def steps(parts, merge_tau):
        calls.append("".join(sign for _, sign in parts))
        return real_steps(parts, merge_tau)

    def general(parts, merge_tau):
        calls.append("general")
        return real_general(parts, merge_tau)

    def canonical(*args, **kwargs):
        calls.append("canonical")
        return real_canonical(*args, **kwargs)

    monkeypatch.setattr(process, "steps", steps)
    monkeypatch.setattr(polar, "_general", general)
    monkeypatch.setattr(polar, "_canonical_measures", canonical)
    for _ in walk:
        pass
    # the root records a plan of each sign, which nothing replays
    assert calls[:3] == ["-+", "canonical", "canonical"]
    chunks = calls[3::3]
    assert calls[3:] == [call for signs in chunks for call in (signs, "general", "canonical")]
    assert chunks == ["-+"] * 6 + ["+", "+", "-"]


def test_joint_steps_give_each_child_its_own_step():
    # every child of a walk, where one general-path call steps a chunk's
    # nodes for both signs, is bitwise its parent's own minus or plus step
    tau = 1e-3
    walks = [
        process._walk_chunks(blackwell_measure(bsc_channel(0.11), tau), 5, tau),
        _bsc_sample_walk(),
    ]
    for walk in walks:
        nodes = {}
        for level, _, _ in walk:
            assert not level.dead
            nodes.update(zip(level.paths, level.nodes()))
        for path, node in nodes.items():
            if path:
                step = polar.minus_on_measure if path[-1] == "-" else polar.plus_on_measure
                assert node.identical(step(nodes[path[:-1]], tau)), path


def test_a_faulting_plus_step_stops_only_its_node(monkeypatch):
    # one node's plus children are made non-finite: the joint step raises,
    # each sign is stepped again apart, and the node's plus child alone
    # holds a PathFault named by its path and '+', whose cause is the
    # canonicalization's finite check; every other child is what the
    # walk gives without the fault
    tau = 1e-3
    root = blackwell_measure(bsc_channel(0.11), tau)

    def walk():
        nodes = {}
        for level, _, _ in process._walk_chunks(root, 3, tau):
            nodes.update(zip(level.paths, level.nodes()))
        return nodes

    want = walk()
    target = want["-+"]
    real_raw = Chunk.raw

    def raw(chunk, sign, out=None):
        weights, posteriors, factor = real_raw(chunk, sign, out)
        if sign == "+":
            for j, block in enumerate(chunk.supports):
                for r, row in enumerate(block.weights):
                    if block.key == target.posteriors.tobytes() and row.tobytes() == target.weights.tobytes():
                        s = chunk.spans[j][0] + r
                        size = chunk.group.size
                        posteriors[chunk.pair_starts[s] * size : chunk.pair_starts[s + 1] * size] = np.nan
        return weights, posteriors, factor

    monkeypatch.setattr(Chunk, "raw", raw)
    got = walk()
    assert set(got) == set(want)
    fault = got.pop("-++")
    assert isinstance(fault, process.PathFault) and fault.path == "-++"
    assert isinstance(fault.__cause__, ValueError)
    assert str(fault.__cause__) == "atom weights and posteriors must be finite"
    assert all(node.identical(want[path]) for path, node in got.items())


def test_repeated_sample_paths_evaluated_once(monkeypatch):
    # leaves are evaluated a chunk at a time; count the measures
    counter = mock.Mock()
    real = process._evaluate_chunk

    def evaluate(chunk, delta):
        for _ in chunk.measures:
            counter()
        return real(chunk, delta)

    monkeypatch.setattr(process, "_evaluate_chunk", evaluate)
    report = sample_paths(bec_channel(0.5), 4, 40, seed=1)
    paths = [r.path for r in report.records]
    assert len(paths) == 40
    assert counter.call_count == len(set(paths)) < 40
    # repeated draws keep their place in sample order and equal records
    drawn = [np.random.default_rng([1, i]).integers(0, 2, size=4) for i in range(40)]
    assert paths == ["".join("+" if b else "-" for b in bits) for bits in drawn]
    by_path = {}
    for rec in report.records:
        assert by_path.setdefault(rec.path, rec) == rec


def test_each_walk_starts_with_an_empty_plan_table(monkeypatch):
    # plans recorded in one call must not serve the next
    tables = []
    real = Chunk.__init__

    def init(chunk, measures=None, plans=None, **kwargs):
        if plans is not None and not any(plans is t for t, _ in tables):
            tables.append((plans, len(plans)))
        real(chunk, measures, plans, **kwargs)

    monkeypatch.setattr(Chunk, "__init__", init)
    w = dh_mix_channel(make_group([2, 4]), seed=11)
    first, second = (report_json(enumerate_paths(w, 3).to_dict()) for _ in range(2))
    assert first == second
    assert [size for _, size in tables] == [0, 0]
    assert all(table for table, _ in tables)


def test_replayed_children_are_keyed_by_their_plans_matrix(monkeypatch):
    # a replayed level's nodes are rows of one weight block, which holds a
    # plan's posterior array and its key, computed once when the plan was
    # recorded: both signs' plans leave the root's matrix, so each level
    # has one block, and every key is its matrix's bytes
    tables = []
    real = Chunk.__init__

    def init(chunk, *args, **kwargs):
        tables.append(chunk)
        real(chunk, *args, **kwargs)

    monkeypatch.setattr(Chunk, "__init__", init)
    for w, depth in ((z4_multilevel_channel(0.5), 5), (dh_mix_channel(make_group([2, 4]), 11), 4)):
        tables.clear()
        levels = [level for level, _, _ in process._walk_chunks(blackwell_measure(w), depth)]
        (table,) = {id(chunk.plans): chunk.plans for chunk in tables if chunk.walk}.values()
        plans = [plan for key, plan in table.items() if key[0] != "gap"]
        assert plans and None not in plans
        for level in levels[1:]:
            assert len(level.supports) == 1
            for block in level.supports:
                assert block.key == block.posteriors.tobytes()
                assert any(block.posteriors is plan.posteriors and block.key is plan.key for plan in plans)
        assert sum(len(block.rows) for level in levels for block in level.supports) == 2 ** (depth + 1) - 1


@pytest.mark.parametrize("w, depth", [
    (useless_channel(make_group([11])), 3),
    (z4_multilevel_channel(0.5), 5),
    (dh_mix_channel(make_group([2, 4]), 11), 3),
    (bsc_channel(0.11), 4),
])
def test_a_levels_blocks_give_the_bits_of_its_measures(w, depth):
    # every kernel gives the walk's weight blocks, many rows to a matrix on
    # replaying channels, the bits it gives the one-row blocks of the same
    # measures; on Z11 one-atom measures sum their entropies in the layout
    # of their posteriors, which must stay row-major
    for level, _, _ in process._walk_chunks(blackwell_measure(w), depth):
        nodes = level.nodes()
        blocks, alone = Chunk(group=level.group, supports=level.supports), Chunk(nodes)
        assert _gap_list(blocks.gaps()) == _gap_list(alone.gaps())
        assert blocks.capacities().tobytes() == alone.capacities().tobytes()
        delta = process.DEFAULT_DELTA
        assert _rows(process._evaluate_chunk(blocks, delta)) == _rows(process._evaluate_chunk(alone, delta))
        for step in (Chunk.minus, Chunk.plus):
            assert all(a.identical(b) for a, b in zip(step(blocks), step(alone)))


def test_the_walk_builds_a_measure_for_no_replayed_node(monkeypatch):
    # on a replayed level the walk and the report run on weight blocks:
    # measure objects are built for the root and, at most, the child each
    # recorded plan was recorded from, never one per node
    w = z4_multilevel_channel(0.5)
    metrics.pol_set(w.require_group())
    recorded = []
    real_record = polar._record

    def record(*args):
        recorded.append(args[2])
        return real_record(*args)

    monkeypatch.setattr(polar, "_record", record)
    with mock.patch.object(BlackwellMeasure, "__init__", autospec=True,
                           side_effect=BlackwellMeasure.__init__) as init, \
            mock.patch.object(BlackwellMeasure, "_canonical", wraps=BlackwellMeasure._canonical) as canonical:
        report = enumerate_paths(w, 7)
        text = report_json(report)
        built = init.call_count + canonical.call_count
    assert recorded == ["-", "+"]
    assert 1 <= built <= 1 + len(recorded)
    assert len(report.leaves.paths) == 2 ** 7 and not report.failed_count
    assert text == report_json(report.to_dict())


def test_report_schema_and_round_trip(tmp_path):
    import json

    report = enumerate_paths(bec_channel(0.5), 3)
    data = report.to_dict()
    assert data["schema"] == "polarlab-report/1"
    text = report_json(data)
    path = tmp_path / "report.json"
    path.write_text(text)
    again = report_json(json.loads(path.read_text()))
    assert again == text

    csv_text = report_csv(data)
    assert csv_text.startswith("key,value\n")
    assert "fraction_determined" in csv_text


class _Count(int):
    def __repr__(self):
        return "not json"


class _Share(float):
    def __repr__(self):
        return "not json"


@pytest.mark.parametrize("data", [
    {},
    [],
    {"empty": {}, "none": [], "nested": [[], {}, [[]], {"a": []}]},
    [None, True, False, 0, -1, 2**70, 0.0, -0.0, 1.5, 1e-320, 1e300, "x"],
    {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "values": [float("nan"), -1e-5]},
    {"text": "µ ∈ G, \"quoted\"\n\ttab \\ \u0007 \U0001f600", "é": ["ü", ""]},
    {"np": [np.float64(0.1), np.float64("nan"), np.float64(-np.inf)], "sub": [_Count(3), _Share(0.25)]},
    {True: 1, False: 2, None: 3, 4: 5, 1.5: 6, _Count(7): 8, "tuple": (1, (2, 3), ())},
    {"path": "-+", "error": "step '-' would materialize 400 atoms", "records": [{"error": None}]},
])
def test_report_json_writes_json_dumps_bytes(data):
    import json

    assert report_json(data) == json.dumps(data, indent=2) + "\n"


def test_report_json_of_reports_with_failed_paths():
    import json

    w = random_channel(Z4, 5, seed=0)
    for report in (enumerate_paths(w, 3, atom_budget=300), sample_paths(w, 3, 6, seed=0, atom_budget=300)):
        data = report.to_dict()
        assert data["aggregates"]["failed"] > 0
        assert report_json(data) == json.dumps(data, indent=2) + "\n"


def test_report_json_rejects_what_json_dumps_rejects():
    import json

    for data in ({"x": np.int64(3)}, [object()], {(1, 2): 3}):
        with pytest.raises(TypeError):
            json.dumps(data, indent=2)
        with pytest.raises(TypeError):
            report_json(data)


def test_histogram_masses_sum_to_fraction_determined():
    w = dh_mix_channel(Z4, seed=3)
    report = enumerate_paths(w, 6)
    data = report.to_dict()
    total = sum(item["fraction"] for item in data["aggregates"]["subgroup_histogram"])
    assert total == pytest.approx(report.fraction_determined(), abs=1e-12)


def test_depth_validation():
    w = bec_channel(0.5)
    with pytest.raises(ValueError):
        enumerate_paths(w, 17)
    with pytest.raises(ValueError):
        enumerate_paths(w, -1)
    with pytest.raises(ValueError):
        sample_paths(w, 4, 0, seed=0)
    with pytest.raises(ValueError):
        enumerate_paths(w, 4, delta=0.0)


def _assert_the_channel_route_agrees(result, m, delta):
    # the labeled, validated channel that realize() builds gives the same
    # subgroups in the same order, capacity gaps that differ by the
    # rounding of its own capacity at most, and quotient gaps that differ by
    # the rounding of its renormalized rows at most; the node's quotient
    # gaps are the per-matrix reference's bits
    channel = delta_determining_subgroup(m.realize(), delta)
    assert result.determined == channel.determined
    assert [x.subgroup for x in result.witnesses] == [x.subgroup for x in channel.witnesses]
    for x, y in zip(result.witnesses, channel.witnesses):
        assert abs(x.gap_capacity - y.gap_capacity) <= 1e-15
        assert abs(x.gap_quotient - y.gap_quotient) <= 1e-15
        target = np.log2(m.group.size // x.subgroup.size)
        assert x.gap_quotient == abs(_reference_quotient_capacity(m, x.subgroup) - target)


@pytest.mark.parametrize("delta", [0.1, 0.5, 2.0])
def test_leaf_classification_matches_the_channel_route(delta):
    # the walk classifies each leaf on the record's capacity and on its
    # posterior matrix's quotient capacities, reduced by its weights
    for w, depth in ((z4_multilevel_channel(0.5), 7), (dh_mix_channel(make_group([2, 4]), 3), 5)):
        leaves = [m for level, _, _ in process._walk_chunks(blackwell_measure(w), depth)
                  if len(level.paths[0]) == depth for m in level.nodes()]
        records = enumerate_paths(w, depth, delta=delta).records
        assert len(leaves) == len(records) == 2 ** depth
        for rec, m in zip(records, leaves):
            _assert_the_channel_route_agrees(rec.determinedness, m, delta)
    for w in verify.random_corpus():
        m = blackwell_measure(w)
        classes = process._evaluate_chunk(Chunk([m]), delta).classes
        _assert_the_channel_route_agrees(classes.results(enumerate_subgroups(m.group), delta)[0], m, delta)


@settings(max_examples=30)
@given(case=_measure_chunks(), delta=st.sampled_from([0.1, 0.5, 2.0]))
def test_chunk_evaluation_matches_each_measure_alone(case, delta):
    measures, _ = case
    together = process._evaluate_chunk(Chunk(measures), delta)
    assert all(len(column) == len(measures) for column in (*together[:-1], *together.classes))
    assert _rows(together) == [_rows(process._evaluate_chunk(Chunk([m]), delta))[0] for m in measures]
    subgroups = enumerate_subgroups(measures[0].group)
    for capacity, distance, sub, det, m in zip(
        together.capacity.tolist(), together.distance.tolist(), together.subgroup.tolist(),
        together.classes.results(subgroups, delta), measures,
    ):
        assert capacity == capacity_of_measure(m)
        assert (distance, subgroups[sub]) == distance_to_pol(m)
        for wit in det.witnesses:
            size = m.group.size // wit.subgroup.size
            assert wit.gap_capacity == abs(capacity - np.log2(size))



def _reference_classify(group, capacities, quotient_capacities, delta):
    """The per-subgroup search that _classify runs as columns: each channel's
    witnesses as objects, sorted by (larger gap, members)."""
    witnesses = [[] for _ in capacities]
    for sub in enumerate_subgroups(group):
        target = float(np.log2(group.size // sub.size))
        gaps = [abs(capacity - target) for capacity in capacities]
        near = [s for s, gap in enumerate(gaps) if gap < delta]
        if not near:
            continue
        quotient = quotient_capacities(sub)
        for s in near:
            gap_quotient = abs(quotient[s] - target)
            if gap_quotient < delta:
                witnesses[s].append(DeterminednessWitness(sub, gaps[s], gap_quotient))
    out = []
    for found in witnesses:
        found.sort(key=lambda wit: (max(wit.gap_capacity, wit.gap_quotient), wit.subgroup.members))
        out.append(DeterminednessResult(bool(found), float(delta), tuple(found)))
    return out


def _assert_classes_are_the_reference(measures, delta):
    # on the chunk's capacities and quotient capacities, and on each
    # measure's own capacity and per-matrix reference quotient capacities
    chunk = Chunk(measures)
    classes = process._classify(chunk.group, chunk.capacities(), chunk.quotient_capacities, delta)
    capacities = [capacity_of_measure(m) for m in measures]

    def quotient_capacities(sub):
        return [_reference_quotient_capacity(m, sub) for m in measures]

    want = _reference_classify(chunk.group, capacities, quotient_capacities, delta)
    assert classes.results(enumerate_subgroups(chunk.group), delta) == want


@settings(max_examples=30)
@given(case=_measure_chunks(), delta=st.sampled_from([0.1, 0.5, 2.0, 10.0]))
def test_classification_columns_are_the_per_subgroup_search(case, delta):
    _assert_classes_are_the_reference(case[0], delta)


def test_classification_orders_tied_witnesses_by_members():
    # at delta 10 every subgroup is a witness of every channel; the useless
    # channel's three subgroups of order 2 tie on both gaps
    z2z2 = make_group([2, 2])
    measures = [blackwell_measure(w) for w in (useless_channel(z2z2), identity_channel(z2z2))]
    measures += [blackwell_measure(w) for w in verify.random_corpus() if w.group == z2z2][:3]
    _assert_classes_are_the_reference(measures, 10.0)
    useless = process._classify(z2z2, [0.0], Chunk(measures[:1]).quotient_capacities, 10.0)
    order = [enumerate_subgroups(z2z2)[t].members for t in useless.order[0].tolist()]
    assert order == [(0, 1, 2, 3), (0, 1), (0, 2), (0, 3), (0,)]


def test_the_walk_builds_no_channel():
    w = z4_multilevel_channel(0.5)
    with mock.patch.object(Channel, "__init__", autospec=True,
                           side_effect=Channel.__init__) as init:
        enumerate_paths(w, 5)
        sample_paths(w, 6, 8, seed=1)
        convergence_trace(w, "-+-+-+")
        assert init.call_count == 0
        z4_multilevel_channel(0.5)
        built_for_input = init.call_count
        init.reset_mock()
        verify.multilevel_quotient_floor(6)
        # the floor builds its input channel and nothing else
        assert init.call_count == built_for_input


def test_polarize_builds_no_classification_objects():
    # a report's classifications stay columns from the walk to its JSON and
    # CSV text; the library's records build the objects on demand
    w = z4_multilevel_channel(0.5)
    with mock.patch.object(DeterminednessResult, "__init__", autospec=True,
                           side_effect=DeterminednessResult.__init__) as results, \
            mock.patch.object(DeterminednessWitness, "__init__", autospec=True,
                              side_effect=DeterminednessWitness.__init__) as witnesses:
        reports = [enumerate_paths(w, 5), sample_paths(w, 6, 8, seed=1)]
        texts = [(report_json(report), report_csv(report)) for report in reports]
        assert results.call_count == witnesses.call_count == 0
        assert not any("records" in report.__dict__ for report in reports)
        records = reports[-1].records
        assert results.call_count == len(set(rec.path for rec in records))
        assert witnesses.call_count > 0
    # the texts are those of the report's dict, records and all
    assert texts == [(report_json(report.to_dict()), report_csv(report.to_dict())) for report in reports]


def _fixture_channel(name):
    return {
        "z4-multilevel:0.5": lambda: z4_multilevel_channel(0.5),
        "dh-mix:3 Z4": lambda: dh_mix_channel(Z4, 3),
        "random:0 Z4 5 outputs": lambda: random_channel(Z4, 5, seed=0),
        "random:0 Z4 2 outputs": lambda: random_channel(Z4, 2, seed=0),
    }[name]()


def _fixture_path_record(group, fields):
    if "error" in fields:
        return PathRecord(path=fields["path"], error=fields["error"])
    witnesses = tuple(
        DeterminednessWitness(subgroup_from_members(group, members), gap_capacity, gap_quotient)
        for members, gap_capacity, gap_quotient in fields["witnesses"]
    )
    return PathRecord(
        path=fields["path"],
        capacity=fields["capacity"],
        capacity_gap=fields["capacity_gap"],
        determinedness=DeterminednessResult(fields["determined"], fields["delta"], witnesses),
        distance_to_pol=fields["distance_to_pol"],
        nearest_subgroup=subgroup_from_members(group, fields["nearest_subgroup"]),
        atom_count=fields["atom_count"],
    )


def test_library_records_equal_the_frozen_per_node_records():
    # the records a report builds from its columns, and a trace's records,
    # equal with == those that the per-node record code built, frozen in
    # fixtures/library_records.json (JSON floats read back bit for bit):
    # exhaustive walks that replay, a walk whose budget fails 6 of 8
    # paths, and a sample of failed paths drawn more than once. Their
    # numbers are Python floats and ints, as they were.
    import json
    from pathlib import Path

    frozen = json.loads((Path(__file__).parent / "fixtures" / "library_records.json").read_text())
    for case in frozen["reports"]:
        w = _fixture_channel(case["channel"])
        call = enumerate_paths if case["call"] == "enumerate" else sample_paths
        records = call(w, **case["kwargs"]).records
        assert records == [_fixture_path_record(w.group, fields) for fields in case["records"]], case["channel"]
        for rec in records:
            if rec.ok:
                numbers = (rec.capacity, rec.capacity_gap, rec.distance_to_pol)
                assert [type(x) for x in numbers] == [float] * 3 and type(rec.atom_count) is int
    for case in frozen["traces"]:
        w = _fixture_channel(case["channel"])
        records = convergence_trace(w, case["path"])
        want = [
            TraceRecord(**{**fields, "nearest_subgroup": subgroup_from_members(w.group, fields["nearest_subgroup"])})
            for fields in case["records"]
        ]
        assert records == want, case["channel"]
        for rec in records:
            assert [type(x) for x in (rec.capacity, rec.capacity_gap, rec.distance_to_pol)] == [float] * 3


def _with_source(report, source):
    report.config["source"] = source
    return report


@pytest.mark.parametrize("make", [
    lambda: enumerate_paths(z4_multilevel_channel(0.5), 6),
    lambda: enumerate_paths(dh_mix_channel(make_group([2, 4]), 11), 4),
    lambda: enumerate_paths(random_channel(Z4, 2, seed=0), 3),
    lambda: sample_paths(random_channel(Z4, 5, seed=0), 3, 6, seed=0, atom_budget=300),
    lambda: sample_paths(bec_channel(0.5), 4, 40, seed=1),
    lambda: enumerate_paths(random_channel(Z4, 3, seed=2), 0),
    # the bsc-merge-sample benchmark command's report
    lambda: sample_paths(bsc_channel(0.11), 8, 4, seed=1, merge_tau=1e-3, atom_budget=1_000_000),
    # a field's text is re-indented at its newlines: those of a string
    # are escaped, so they stay as they are
    lambda: _with_source(enumerate_paths(z4_multilevel_channel(0.5), 2), 'a\nb "c"\t\u00e9\u03c0\U0001d53c'),
])
def test_report_json_writes_a_report_from_its_columns(make):
    # a report's columns give the bytes of json.dumps of its dict
    import json

    report = make()
    report.config.setdefault("source", "preset:x")
    data = report.to_dict()
    assert report_json(report) == report_json(data) == json.dumps(data, indent=2) + "\n"


_SPECIAL_FLOATS = [0.0, -0.0, 1.0, 0.1, 1e-300, 5e-324, np.nan, np.inf, -np.inf]


@settings(max_examples=60)
@given(values=st.lists(st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()), max_size=40))
@example(values=[0.0, -0.0, 0.1, -0.0, np.nan, 0.1])
def test_floats_text_is_each_floats_json_text(values):
    # one text per distinct float by its bits: signed zeros stay apart
    import json

    assert process._floats_text(np.array(values, dtype=float)) == [json.dumps(x) for x in values]
