"""The random polarization process: path enumeration, sampling, and traces.

Every mode walks the binary transform tree with one generator,
`_walk_chunks`, so each child reuses its parent's merged measure and each
measure is computed once. The walk takes consecutive nodes of one depth
together, as a chunk (a Level): its transforms, merging, capacity gaps and
evaluation run once for all its nodes, on one polar.Chunk, and each node
gets bitwise the result it gets alone, so the chunking never shows in a
report; the gaps of chunks that are stepped but not evaluated wait, and
run in batches of several chunks (_walk_chunks). A level holds its live
nodes as weight blocks, one per distinct posterior matrix (polar.Block):
the matrix, its bytes, one row of weights per node, and the nodes'
positions; the children of the node at position
p sit at 2p ('-') and 2p + 1 ('+'), so leaves keep path order, and no node
is a measure object. A chunk's gaps and evaluations come back as columns,
float64 arrays with one entry per node, and a report keeps its leaves as
columns: records are objects only for the library API, and report_json
writes them from the columns. Nodes that share a posterior matrix are
stepped by replaying a plan that the first of them, or the root,
records, again bitwise as alone; each walk keeps its own table of plans,
which ends with the walk. A chunk's size counts the floats its nodes
materialize, up to _CHUNK_ATOMS: only a node's raw weights when the table
holds plans of both signs for its matrix, its raw posteriors otherwise,
so a level that replays runs in a few chunks. Per-path resource failures
(atom budget) are checked once per block and recorded on the affected
paths; the rest of the tree is still evaluated. Any other error raised
while a node is computed is an internal fault and stops the run as a
PathFault that names the node: the first one a preorder walk would meet.
Evaluation is sequential, and all outputs are deterministic given the
configuration.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .blackwell import DEFAULT_MERGE_TAU, BlackwellMeasure, blackwell_measure
from .channels import Channel, Classes, DeterminednessResult, _check_delta, _classify, symmetric_capacity
from .groups import Group, Subgroup, enumerate_subgroups
from .metrics import _nearest_pol
from .polar import (
    DEFAULT_ATOM_BUDGET,
    MINUS,
    PLUS,
    AtomBudgetError,
    Block,
    Chunk,
    _joined,
    minus_transform,
    normalize_path,
    plus_transform,
    step_refusal,
    steps,
)

MAX_DEPTH = 16
DEFAULT_DELTA = 0.1
CAPACITY_HIST_BINS = 16


class PathFault(RuntimeError):
    """An internal or numeric fault while computing one node of the transform tree.

    The message names the node's sign path; the original error is the cause.
    Inputs are validated before the walk starts, so a RuntimeError or
    ValueError raised while a node is computed is the program's fault, not
    the user's. Budget refusals are per-path results, not faults.
    """

    def __init__(self, path: str, error: Exception):
        super().__init__(f"path '{path}': {error}")
        self.path = path
        self.__cause__ = error


class MartingaleResidual(NamedTuple):
    """|I(W-) + I(W+) - 2 I(W)| and ||I(W-)-I(W)| - |I(W+)-I(W)||, in bits."""

    residual: float
    asymmetry: float


def martingale_residual(w: Channel) -> MartingaleResidual:
    """Conservation check of one polarization step, on raw (unmerged) transforms."""
    i_w = symmetric_capacity(w)
    i_minus = symmetric_capacity(minus_transform(w))
    i_plus = symmetric_capacity(plus_transform(w))
    return MartingaleResidual(
        residual=abs(i_minus + i_plus - 2.0 * i_w),
        asymmetry=abs(abs(i_minus - i_w) - abs(i_plus - i_w)),
    )


@dataclass(frozen=True)
class PathRecord:
    """Evaluation of one synthetic channel at the end of a path."""

    path: str
    capacity: float | None = None
    capacity_gap: float | None = None
    determinedness: DeterminednessResult | None = None
    distance_to_pol: float | None = None
    nearest_subgroup: Subgroup | None = None
    atom_count: int | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        if not self.ok:
            return {"path": self.path, "error": self.error}
        return {
            "path": self.path,
            "error": None,
            "capacity": self.capacity,
            "capacity_gap": self.capacity_gap,
            "determined": self.determinedness.determined,
            "witnesses": [w.to_dict() for w in self.determinedness.witnesses],
            "distance_to_pol": self.distance_to_pol,
            "nearest_subgroup": self.nearest_subgroup.to_json(),
            "atoms": self.atom_count,
        }


@dataclass(frozen=True)
class TraceRecord:
    """One prefix level of a convergence trace."""

    depth: int
    prefix: str
    capacity: float
    capacity_gap: float
    distance_to_pol: float
    nearest_subgroup: Subgroup

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "prefix": self.prefix,
            "capacity": self.capacity,
            "capacity_gap": self.capacity_gap,
            "distance_to_pol": self.distance_to_pol,
            "nearest_subgroup": self.nearest_subgroup.to_json(),
        }


class Evaluations(NamedTuple):
    """What a report says about the measures of a chunk, as columns in the order of its measures.

    `subgroup` indexes the group's subgroups in enumeration order (the
    nearest Pol target), and `classes` holds the delta-classification
    (channels.Classes), or is None where the chunk was not classified.
    """

    capacity: np.ndarray
    distance: np.ndarray
    subgroup: np.ndarray
    solves: np.ndarray
    classes: Classes | None


class Leaves(NamedTuple):
    """The leaves of a walk as columns, one row per leaf, in walk order.

    A failed leaf's row holds its error; its other entries are blanks.
    """

    paths: list[str]
    errors: list[str | None]
    atoms: np.ndarray
    gaps: np.ndarray
    evaluations: Evaluations


@dataclass
class PolarizationReport:
    """Per-path records plus aggregates for one polarization experiment.

    The walk's leaves are kept as columns (`leaves`); record i is the leaf
    of row rows[i], and a leaf drawn twice is one row. `subgroups` are the
    group's subgroups in enumeration order, which the leaves' `subgroup`
    column indexes. `level_gaps` holds the capacity gaps of each depth's
    evaluated nodes.
    """

    config: dict
    leaves: Leaves
    rows: np.ndarray
    subgroups: tuple[Subgroup, ...]
    level_gaps: dict[int, np.ndarray]

    def __eq__(self, other) -> bool:
        """Reports are equal when their configs, records and capacity gaps per depth are."""
        if not isinstance(other, PolarizationReport):
            return NotImplemented

        def content(report):
            gaps = {depth: gaps.tolist() for depth, gaps in report.level_gaps.items()}
            return report.config, report.records, gaps

        return content(self) == content(other)

    @cached_property
    def records(self) -> list[PathRecord]:
        """One PathRecord per record, built from the columns on first use."""
        leaves, columns = self.leaves, self.leaves.evaluations
        built = []
        for path, error, atoms, gap, capacity, distance, sub, det in zip(
            leaves.paths, leaves.errors, leaves.atoms.tolist(), leaves.gaps.tolist(),
            columns.capacity.tolist(), columns.distance.tolist(), columns.subgroup.tolist(),
            columns.classes.results(self.subgroups, self.config["delta"]),
        ):
            if error is not None:
                built.append(PathRecord(path=path, error=error))
            else:
                built.append(PathRecord(path, capacity, gap, det, distance, self.subgroups[sub], atoms))
        return [built[row] for row in self.rows.tolist()]

    @property
    def evaluated(self) -> list[PathRecord]:
        return [r for r in self.records if r.ok]

    @property
    def failed(self) -> list[PathRecord]:
        return [r for r in self.records if not r.ok]

    @property
    def failed_count(self) -> int:
        """len(failed), from the columns."""
        return len(self.rows) - len(self._evaluated_rows)

    @cached_property
    def _evaluated_rows(self) -> np.ndarray:
        """The leaf row of each evaluated record, in record order."""
        ok = np.array([error is None for error in self.leaves.errors], dtype=bool)
        return self.rows[ok[self.rows]]

    @cached_property
    def _best(self) -> np.ndarray:
        """The best witness's subgroup index of each evaluated record, -1 where it is not determined."""
        classes = self.leaves.evaluations.classes
        best = np.where(classes.witness.any(axis=1), classes.order[:, 0], -1)
        return best[self._evaluated_rows]

    def fraction_determined(self) -> float:
        if not len(self._best):
            return 0.0
        return int((self._best >= 0).sum()) / len(self._best)

    def subgroup_histogram(self) -> list[tuple[Subgroup, int]]:
        """Determined-path counts keyed by the best witness subgroup, in order of (size, members)."""
        # subgroups enumerate in order of (size, members)
        counts = np.bincount(self._best[self._best >= 0], minlength=len(self.subgroups))
        return [(sub, count) for sub, count in zip(self.subgroups, counts.tolist()) if count]

    def to_dict(self) -> dict:
        return self._fields([r.to_dict() for r in self.records])

    def _fields(self, records) -> dict:
        """The report's dict, with `records` as its records."""
        group_size = 1
        for d in self.config.get("group", []):
            group_size *= d
        capacities = self.leaves.evaluations.capacity[self._evaluated_rows]
        edges = np.linspace(0.0, np.log2(group_size), CAPACITY_HIST_BINS + 1)
        # a capacity rounded just outside [0, log2 |G|] counts in the end bin
        hist = np.histogram(np.clip(capacities, edges[0], edges[-1]), bins=edges)[0]
        n_eval = len(capacities)
        return {
            "schema": "polarlab-report/1",
            "config": self.config,
            "records": records,
            "levels": [
                {"depth": depth, "median_capacity_gap": float(np.median(self.level_gaps[depth]))}
                for depth in sorted(self.level_gaps)
            ],
            "aggregates": {
                "evaluated": n_eval,
                "failed": self.failed_count,
                "fraction_determined": self.fraction_determined(),
                "mean_capacity": float(np.mean(capacities)) if n_eval else None,
                "subgroup_histogram": [
                    {
                        "subgroup": sub.to_json(),
                        "count": count,
                        "fraction": count / n_eval,
                    }
                    for sub, count in self.subgroup_histogram()
                ],
                "capacity_histogram": [
                    {
                        "lo": float(edges[i]),
                        "hi": float(edges[i + 1]),
                        "count": int(hist[i]),
                    }
                    for i in range(CAPACITY_HIST_BINS)
                ],
            },
        }


def report_json(report: PolarizationReport | dict) -> str:
    """Canonical JSON text for a report; re-serializing a parse is identical.

    The bytes of json.dumps(report_dict, indent=2) + "\n". Given a
    PolarizationReport, the bytes for its to_dict(): the records written
    from its columns (_records_json), every other field by json.dumps, each
    newline of its text indented to the field's depth (a JSON string holds
    no raw newline).
    """
    if not isinstance(report, PolarizationReport):
        return json.dumps(report, indent=2) + "\n"
    texts = [
        _json_string(key) + ": "
        + (_records_json(report) if key == "records" else json.dumps(value, indent=2).replace("\n", "\n  "))
        for key, value in report._fields(None).items()
    ]
    return "{\n  " + ",\n  ".join(texts) + "\n}\n"


def _floats_text(values: np.ndarray) -> list[str]:
    """The text of each float of an array, as json.dumps writes it; each distinct float (by its bits) is written once."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(float)
    texts = list(map(float.__repr__, distinct.tolist()))
    if not np.isfinite(distinct).all():
        texts = [_JSON_FLOATS.get(text, text) for text in texts]
    return list(map(texts.__getitem__, inverse.tolist()))


# A record's text between its values (path, capacity, capacity gap,
# determined, witnesses, distance, nearest subgroup, atoms), each record led
# by the separator from the one before; a witness's text around its gaps.
_RECORD = (
    ',\n    {\n      "path": ', ',\n      "error": null,\n      "capacity": ', ',\n      "capacity_gap": ',
    ',\n      "determined": ', ',\n      "witnesses": ', ',\n      "distance_to_pol": ',
    ',\n      "nearest_subgroup": ', ',\n      "atoms": ', '\n    }',
)
_FAILED = ',\n    {{\n      "path": {},\n      "error": {}\n    }}'.format
_GAP_QUOTIENT = ',\n          "gap_quotient": '
# a witness's end, and the last one's, which closes its record's list
_WITNESS_ENDS = ("\n        }", "\n        }\n      ]")


def _interleave(columns: list) -> list[str]:
    """The texts of each item in turn, one per column: a str column is every item's, a list holds one per item."""
    count = next(len(column) for column in columns if not isinstance(column, str))
    width = len(columns)
    out = [""] * (width * count)
    for c, column in enumerate(columns):
        out[c::width] = [column] * count if isinstance(column, str) else column
    return out


def _records_json(report: PolarizationReport) -> str:
    """The text of report.to_dict()["records"] in report_json, from the report's columns.

    Each float column, the witnesses' gaps among them, is written in one
    pass (_floats_text), each subgroup's text once for each place it takes
    in a record, and each leaf's witnesses once, however many records
    repeat the leaf. The records' texts are laid out column by column and
    joined once (_interleave).
    """
    leaves, columns = report.leaves, report.leaves.evaluations
    classes = columns.classes
    count = len(leaves.paths)
    subgroups = [json.dumps(sub.to_json(), indent=2) for sub in report.subgroups]
    nearest = [text.replace("\n", "\n      ") for text in subgroups]
    # a witness's text up to its gap_capacity, the later witnesses' (by
    # subgroup), then the first's, which opens its record's list
    heads = [
        '{\n          "subgroup": ' + text.replace("\n", "\n          ") + ',\n          "gap_capacity": '
        for text in subgroups
    ]
    heads = [",\n        " + head for head in heads] + ["[\n        " + head for head in heads]
    # every witness, leaf by leaf, each leaf's best first
    leaf, rank = np.nonzero(np.take_along_axis(classes.witness, classes.order, axis=1))
    sub = classes.order[leaf, rank]
    counts = np.bincount(leaf, minlength=count)
    floats = _floats_text(np.concatenate([
        columns.capacity, leaves.gaps, columns.distance, classes.gap_capacity[leaf, sub], classes.gap_quotient[leaf, sub],
    ]))
    capacity, gap, distance = (floats[i * count : (i + 1) * count] for i in range(3))
    gap_capacity, gap_quotient = floats[3 * count : 3 * count + len(leaf)], floats[3 * count + len(leaf) :]
    pieces = _interleave([
        list(map(heads.__getitem__, (sub + len(report.subgroups) * (rank == 0)).tolist())),
        gap_capacity,
        _GAP_QUOTIENT,
        gap_quotient,
        list(map(_WITNESS_ENDS.__getitem__, (rank == counts[leaf] - 1).tolist())),
    ]) if len(leaf) else []
    witnesses = ["[]"] * count
    ends = 5 * np.cumsum(counts)
    determined = np.flatnonzero(counts)
    for i, a, b in zip(determined.tolist(), (ends - 5 * counts)[determined].tolist(), ends[determined].tolist()):
        witnesses[i] = "".join(pieces[a:b])
    fields = [
        list(map(_json_string, leaves.paths)), capacity, gap,
        list(map(("false", "true").__getitem__, (counts > 0).tolist())), witnesses,
        distance, list(map(nearest.__getitem__, columns.subgroup.tolist())),
        list(map(int.__repr__, leaves.atoms.tolist())),
    ]
    rows = report.rows.tolist()
    if rows != list(range(count)):
        fields = [list(map(field.__getitem__, rows)) for field in fields]
    texts = _interleave([piece for pair in zip(_RECORD, fields) for piece in pair] + [_RECORD[-1]])
    width = 2 * len(fields) + 1
    failed = np.array([error is not None for error in leaves.errors], dtype=bool)[report.rows]
    for p in np.flatnonzero(failed).tolist():
        row = rows[p]
        failure = _FAILED(_json_string(leaves.paths[row]), _json_string(leaves.errors[row]))
        texts[width * p : width * (p + 1)] = [failure] + [""] * (width - 1)
    texts[0] = texts[0][len(",\n    "):]
    return "[\n    " + "".join(texts) + "\n  ]"


_json_string = json.encoder.encode_basestring_ascii
# json.dumps's names of the non-finite floats
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def report_csv(report: PolarizationReport | dict) -> str:
    """Flat key,value CSV of the report aggregates, a null one (no path evaluated) as an empty value.

    Given a PolarizationReport, from its aggregates (_fields), which build
    no record.
    """
    report_dict = report._fields(None) if isinstance(report, PolarizationReport) else report
    agg = report_dict["aggregates"]
    lines = ["key,value"]
    for key in ("evaluated", "failed", "fraction_determined", "mean_capacity"):
        lines.append(f"{key},{'' if agg[key] is None else agg[key]}")
    for level in report_dict["levels"]:
        lines.append(f"median_capacity_gap[{level['depth']}],{level['median_capacity_gap']}")
    for item in agg["subgroup_histogram"]:
        sub = "{" + " ".join(str(i) for i in item["subgroup"]) + "}"
        lines.append(f"fraction_determined_by[{sub}],{item['fraction']}")
    for item in agg["capacity_histogram"]:
        lines.append(f"capacity_bin[{item['lo']}:{item['hi']}],{item['count']}")
    return "\n".join(lines) + "\n"


def _gap_refusal(k: int, atom_budget: int) -> str | None:
    """Why the budget refuses the capacity gap of a node of k atoms, or None.

    The gap diagnostic materializes all atom pairs, so a node whose pair set
    exceeds the budget cannot be evaluated, like a blocked minus step.
    """
    if k * k > atom_budget:
        return (
            f"capacity-gap evaluation would materialize {k * k} atom pairs, "
            f"exceeding the budget of {atom_budget}"
        )
    return None


# Floats that the nodes of a chunk materialize together. A node with k
# atoms steps to k^2 raw children by its minus step, the atom pairs, and
# k^2 |G| by its plus step: on the general path each carries |G| posterior
# floats, while a step that replays a plan (polar.Chunk.step) builds only
# their weights. Children are chunked up to this cap (_split), so a larger
# node runs alone, and the walk holds O(depth) chunks. _split prices each
# node at both signs' raw children, so the one general-path call that
# holds the raw children of both signs of a chunk (polar.steps) stays
# within the cap too; a node over the cap alone is stepped one sign at a
# time (_walk_chunks), as its raw children of both signs would pass it
# together. The cap also bounds
# a batch of gaps (_walk_chunks), priced at the k^2 |G| floats of a node's
# pair planes: a batch is computed once its price passes the cap, so it
# holds at most the cap plus one chunk's, and the walk holds O(depth)
# chunks awaiting their gaps.
_CHUNK_ATOMS = 1 << 17

# A node of the transform tree as the library reads it (Level.nodes): its
# merged measure, the budget-refusal message that stopped its path, or the
# fault that stopped the walk there. The walk itself holds the live nodes
# as rows of weight blocks and only the others one by one.
Node = BlackwellMeasure | str | PathFault


@dataclass
class Level:
    """Consecutive nodes of one depth of the transform tree, in path order.

    A node's position is its index in `paths`. The live nodes are the rows
    of weight blocks (`supports`, polar.Block), one per posterior matrix;
    `dead` holds, by position, every other node's budget-refusal message,
    which stands in for its descendants, or the PathFault that stopped the
    walk there.
    """

    group: Group
    paths: list[str]
    supports: list[Block]
    dead: dict[int, str | PathFault]

    def atoms(self) -> np.ndarray:
        """Each node's atom count, 0 where it is dead."""
        out = np.zeros(len(self.paths), dtype=np.int64)
        for block in self.supports:
            out[block.rows] = len(block.posteriors)
        return out

    def nodes(self) -> list[Node]:
        """Each node as the library reads it: a measure, or its message or fault."""
        out: list = [None] * len(self.paths)
        for block in self.supports:
            for position, weights in zip(block.rows.tolist(), block.weights):
                out[position] = BlackwellMeasure._canonical(self.group, weights, block.posteriors)
        for position, node in self.dead.items():
            out[position] = node
        return out


def _without(supports: list[Block], positions: Container[int]) -> list[Block]:
    """The blocks without the rows at `positions`."""
    if not positions:
        return supports
    out = []
    for block in supports:
        keep = np.array([row not in positions for row in block.rows.tolist()], dtype=bool)
        if keep.all():
            out.append(block)
        elif keep.any():
            out.append(block.take(keep))
    return out


def _per_chunk(kernel, chunk: Chunk, paths: list[str], sign: str = "") -> tuple[object, np.ndarray, dict]:
    """(kernel(chunk), its positions, {}): one result per node, a list or columns; if that raises, node by node.

    Run alone, as a one-row block, a node whose kernel raises RuntimeError
    or ValueError gets a PathFault naming its path plus `sign`, returned by
    its position; the other nodes' results are joined (_concat), or None
    when every node faulted, and their positions returned in order.
    """
    try:
        return kernel(chunk), chunk.positions, {}
    except (RuntimeError, ValueError):
        parts, done, faults = [], [], {}
        nodes = sorted(
            (position, r, block) for block in chunk.supports for r, position in enumerate(block.rows.tolist())
        )
        for position, r, block in nodes:
            try:
                parts.append(kernel(Chunk(group=chunk.group, supports=[block.take(slice(r, r + 1))])))
                done.append(position)
            except (RuntimeError, ValueError) as exc:
                faults[position] = PathFault(paths[position] + sign, exc)
        return (_concat(parts) if parts else None), np.array(done, dtype=np.int64), faults


def _concat(parts: list):
    """Results of consecutive runs of nodes joined: lists, arrays, or named tuples of them (or None), field by field."""
    first = parts[0]
    if first is None:
        return None
    if isinstance(first, tuple):
        return type(first)(*(_concat(list(column)) for column in zip(*parts)))
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    return [item for part in parts for item in part]


def _spread(columns: Evaluations | None, done: np.ndarray, count: int, subgroups: int | None) -> Evaluations:
    """Columns of the nodes at positions `done` of a level of `count` nodes, at their places; blank elsewhere.

    The blank classes have `subgroups` columns, or are None when it is.
    """
    if len(done) == count:
        return columns
    classes = None
    if subgroups is not None:
        shape = (count, subgroups)
        classes = Classes(np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool), np.zeros(shape, np.int64))
    out = Evaluations(np.zeros(count), np.zeros(count), np.zeros(count, np.int64), np.zeros(count, np.int64),
                      classes)

    def place(full, column):
        if isinstance(full, tuple):
            for pair in zip(full, column):
                place(*pair)
        elif full is not None:
            full[done] = column

    if columns is not None:
        place(out, columns)
    return out


def _costs(level: Level, plans: dict, merge_tau: float) -> np.ndarray:
    """The floats that each node of the level materializes when stepped for both signs, by _split's prices."""
    size = level.group.size
    cost = np.zeros(len(level.paths), dtype=np.int64)
    for block in level.supports:
        raw = len(block.posteriors) ** 2
        price = 0
        for sign, count in ((MINUS, raw), (PLUS, raw * size)):
            price += count if plans.get(((sign, merge_tau), block.key)) is not None else count * size
        cost[block.rows] = price
    return cost


def _split(level: Level, plans: dict, merge_tau: float) -> list[Level]:
    """Runs of consecutive nodes that materialize at most _CHUNK_ATOMS floats each; a larger node runs alone.

    A block's rows share one price, rows times the price of one, so a
    block is cut by rows. Each sign is priced apart. A sign whose plan the
    walk's `plans` holds for the block's matrix will replay it, and is
    priced at its raw children's weights: k^2 floats for the minus step and
    k^2 |G| for the plus step. A sign without one is priced at their
    posteriors, |G| times as many floats, as the general path builds them.
    A dead node costs nothing.
    """
    cost = _costs(level, plans, merge_tau)
    # a run from `start` takes each next node while its load stays within
    # the cap, and always its first node
    loads = np.cumsum(cost)
    cuts = [0]
    while cuts[-1] < len(cost):
        start = cuts[-1]
        base = loads[start - 1] if start else 0
        stop = int(np.searchsorted(loads, base + _CHUNK_ATOMS, side="right"))
        cuts.append(max(stop, start + 1))
    if len(cuts) == 2:
        return [level]
    # each run's nodes, positions counted from its first
    runs = [Level(level.group, level.paths[a:b], [], {}) for a, b in zip(cuts, cuts[1:])]
    for block in level.supports:
        first, last = (bisect_right(cuts, int(block.rows[r])) - 1 for r in (0, -1))
        for run in range(first, last + 1):
            a = cuts[run]
            part = block
            if first < last:
                part = block.take(slice(*np.searchsorted(block.rows, (a, cuts[run + 1])).tolist()))
            runs[run].supports.append(part._replace(rows=part.rows - a) if a else part)
    for position, node in level.dead.items():
        run = bisect_right(cuts, position) - 1
        runs[run].dead[position - cuts[run]] = node
    return runs


def _batch_gaps(levels: list[Level], chunk_of) -> tuple[list[np.ndarray], list[PathFault]]:
    """The capacity gaps (via_pairs) of the live nodes of `levels`, on one chunk; each level's as an array, one entry per node.

    The chunk, chunk_of(blocks), holds every level's blocks, the rows of
    each offset by the nodes of the levels before it. A node whose gap
    raises RuntimeError or ValueError is made dead with a PathFault that
    names it (_per_chunk); the faults are returned in position order. A
    dead node's entry is 0.
    """
    offsets = [0, *accumulate(len(level.paths) for level in levels)]
    supports = [
        block._replace(rows=block.rows + a) if a else block
        for level, a in zip(levels, offsets) for block in level.supports
    ]
    gaps = np.zeros(offsets[-1])
    faults: dict[int, PathFault] = {}
    if supports:
        paths = [path for level in levels for path in level.paths]
        via_pairs, done, faults = _per_chunk(lambda chunk: chunk.gaps()[1], chunk_of(supports), paths)
        if len(done):
            gaps[done] = via_pairs
    out = []
    for level, a, b in zip(levels, offsets, offsets[1:]):
        mine = {p - a: fault for p, fault in faults.items() if a <= p < b}
        level.dead.update(mine)
        level.supports = _without(level.supports, mine)
        out.append(gaps[a:b])
    return out, list(faults.values())


def _stop_below(faults: list[PathFault], levels: list[tuple[Level, np.ndarray | None]]) -> None:
    """Make every descendant of a faulted node in `levels` dead with its fault, as if it had never been stepped.

    A node below several faulted nodes takes the fault of the highest. Its
    gap, where the level has them, becomes 0.
    """
    by_path = {fault.path: fault for fault in faults}
    for level, gaps in levels:
        hit = {}
        for position, path in enumerate(level.paths):
            fault = next((by_path[path[:k]] for k in range(len(path)) if path[:k] in by_path), None)
            if fault is not None:
                hit[position] = fault
        if hit:
            level.dead.update(hit)
            level.supports = _without(level.supports, hit)
            if gaps is not None:
                gaps[list(hit)] = 0.0


def _walk_chunks(
    root: BlackwellMeasure,
    depth: int,
    merge_tau: float = DEFAULT_MERGE_TAU,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
    wanted: Iterable[str] | None = None,
    gap_depths: Container[int] = (),
    eval_depths: Container[int] = (),
    delta: float | None = DEFAULT_DELTA,
) -> Iterator[tuple[Level, np.ndarray | None, Evaluations | None]]:
    """Walk the transform tree below `root` to `depth`, a chunk of a level at a time.

    Yields the (level, gaps, results) of each chunk, a Level: every prefix,
    or, given `wanted`, only the prefixes of the wanted paths. The chunks of
    each depth, and so the leaves, come in path order, '-' first. A chunk
    is a run of consecutive nodes of one depth, its live nodes held as
    weight blocks on shared posterior matrices: its steps and its
    evaluation each run once for all its nodes, on one polar.Chunk of its
    blocks, and the budget is checked once per block. Both signs are
    stepped in one call of polar.steps, one (chunk, sign) part per sign
    that some node wants: each part replays or records its plans, and the
    nodes left to the general path, of both signs, are canonicalized
    together in one call; a chunk that is one node priced over
    _CHUNK_ATOMS steps its signs apart instead. The children of the node
    at position p are at 2p ('-') and 2p + 1 ('+'), before the unwanted
    ones are dropped; they are split into chunks again (_split) and walked
    depth first. Each node is stepped once from its parent.

    At the depths in `gap_depths` the nodes' guarded capacity gaps are
    computed, as a float64 array with one entry per node, and at the depths
    in `eval_depths` their Evaluations at `delta` (_evaluate_chunk),
    likewise one row per node; elsewhere gaps and results are None. Only
    the entries of live nodes are meaningful. A gap the budget refuses is
    refused before the node's children are stepped. The gaps of a chunk
    that is stepped but not evaluated are computed in batches: the chunk's
    children are stepped at once and its yield is held, and the gaps of
    all held chunks run on one polar.Chunk (_batch_gaps) before a chunk
    that is evaluated or at `depth` computes its own (on the chunk that
    its evaluation shares), when the held nodes' pair planes pass
    _CHUNK_ATOMS floats, and when the walk ends; the held chunks are then
    yielded in order. A refused step or gap makes the node dead with its
    message, which stands in for every descendant; nothing below is
    computed. A step, gap or evaluation that raises RuntimeError or
    ValueError makes the node dead with a PathFault that names it, which
    likewise stands in for its descendants: a joint step that raises is
    redone for each sign apart (_per_chunk), so the fault of a step names
    the node's child, its path plus the sign; a gap fault found in a batch
    replaces whatever its descendants, stepped meanwhile, hold (_stop_below),
    so faults still stop the subtree. At the depths in `eval_depths` the
    walk raises the first PathFault of the chunk in path order, so a reader
    meets no fault among the nodes it evaluates.
    """
    prefixes = None if wanted is None else {p[:k] for p in wanted for k in range(len(p) + 1)}
    group = root.group
    subgroups = None if delta is None else len(enumerate_subgroups(group))
    # what this walk's shared posterior matrices decide: step plans and
    # pair entropies (polar.Chunk)
    plans: dict = {}
    top = Block(root.posteriors, root.posteriors.tobytes(), root.weights[None], np.zeros(1, dtype=np.int64))
    stack = [Level(group, [""], [top], {})]
    # the chunks whose gaps wait for a batch, and the price of their nodes
    held: list[Level] = []
    price = 0

    def flush(current: Level | None):
        # the held chunks' gaps on one chunk, then their yields, in order;
        # a fault stops its subtree in every chunk stepped since (`current`,
        # popped and not held, is one)
        nonlocal price
        if not held:
            return
        batch = held[:]
        held.clear()
        price = 0
        gaps, faults = _batch_gaps(batch, lambda supports: Chunk(group=group, supports=supports, plans=plans))
        if faults:
            later = [lvl for lvl in (current, *stack) if lvl is not None]
            _stop_below(faults, [*zip(batch, gaps), *((lvl, None) for lvl in later)])
        for level, level_gaps in zip(batch, gaps):
            yield level, level_gaps, None

    while stack:
        level = stack.pop()
        at = len(level.paths[0])
        paths, dead = level.paths, level.dead
        chunks: dict[tuple[int, ...], Chunk] = {}

        def chunk_of(supports: list[Block]) -> Chunk:
            key = tuple(map(id, supports))
            if key not in chunks:
                chunks[key] = Chunk(group=group, supports=supports, plans=plans)
            return chunks[key]

        def run(kernel, supports: list[Block], sign: str = ""):
            # the kernel's result on the chunk of these blocks, the positions
            # it covers, and the PathFaults of the nodes whose kernel raised,
            # named after the node computed: the node's own path for its
            # evaluation, its child's for a step
            if not supports:
                return None, np.zeros(0, dtype=np.int64), {}
            return _per_chunk(kernel, chunk_of(supports), paths, sign)

        if at in gap_depths:
            supports = []
            for block in level.supports:
                refusal = _gap_refusal(len(block.posteriors), atom_budget)
                if refusal is None:
                    supports.append(block)
                else:
                    dead.update(dict.fromkeys(block.rows.tolist(), refusal))
            level.supports = supports
        deferred = at in gap_depths and at not in eval_depths and at != depth
        gaps = None
        if deferred:
            held.append(level)
            # the floats of the nodes' pair planes, k^2 |G| a node
            price += group.size * sum(len(block.posteriors) ** 2 * len(block.rows) for block in level.supports)
            if price > _CHUNK_ATOMS:
                yield from flush(None)
        else:
            yield from flush(level)
            if at in gap_depths:
                (gaps,), _ = _batch_gaps([level], chunk_of)
        results = None
        if at in eval_depths:
            evaluations, done, faults = run(lambda chunk: _evaluate_chunk(chunk, delta), level.supports)
            results = _spread(evaluations, done, len(paths), subgroups)
            dead.update(faults)
            level.supports = _without(level.supports, faults)
            faulted = [position for position, node in dead.items() if isinstance(node, PathFault)]
            if faulted:
                raise dead[min(faulted)]
        if not deferred:
            yield level, gaps, results
        if at == depth:
            continue
        # the children at 2p and 2p + 1, and, where the walk drops the ones it
        # does not want, the place of each among those it keeps (None if none)
        child_paths = [path + sign for path in paths for sign in (MINUS, PLUS)]
        place = None
        if prefixes is not None:
            want = [path in prefixes for path in child_paths]
            child_paths = [path for path, wanted in zip(child_paths, want) if wanted]
            place = [count - 1 if wanted else None for count, wanted in zip(accumulate(want), want)]

        def placed(rows: np.ndarray, s: int) -> np.ndarray:
            # the places of the sign-s children of the nodes at `rows`, all wanted
            if place is None:
                return 2 * rows + s
            return np.array([place[2 * row + s] for row in rows.tolist()], dtype=np.int64)

        children: list[Block] = []
        lost: dict[int, str | PathFault] = {}
        # (s, sign, blocks to step) of each sign that some live node wants
        parts = []
        for s, sign in enumerate((MINUS, PLUS)):
            todo = []
            for block in level.supports:
                if place is not None:
                    keep = [place[2 * row + s] is not None for row in block.rows.tolist()]
                    if not any(keep):
                        continue
                    if not all(keep):
                        block = block.take(np.array(keep))
                refusal = step_refusal(len(block.posteriors), group.size, sign, atom_budget)
                if refusal is None:
                    todo.append(block)
                else:
                    lost.update(dict.fromkeys(placed(block.rows, s).tolist(), refusal))
            if todo:
                parts.append((s, sign, todo))
        stepped = None
        # a chunk priced over the cap is one node (_split), whose signs are
        # stepped apart, so that it holds one sign's raw children at a time
        if _costs(level, plans, merge_tau).sum() <= _CHUNK_ATOMS:
            try:
                stepped = [(blocks, {}) for blocks in steps([(chunk_of(todo), sign) for _, sign, todo in parts], merge_tau)]
            except (RuntimeError, ValueError):
                # each sign is stepped again, apart, so a node that faults
                # is named by its child's path
                pass
        if stepped is None:
            stepped = []
            for _, sign, todo in parts:
                blocks, _, faults = run(lambda chunk: steps([(chunk, sign)], merge_tau)[0], todo, sign)
                stepped.append((blocks, faults))
        for (s, _, _), (blocks, faults) in zip(parts, stepped):
            if faults:
                lost.update(zip(placed(np.array(list(faults)), s).tolist(), faults.values()))
            children += [block._replace(rows=placed(block.rows, s)) for block in blocks or ()]
        for position, node in dead.items():
            for s in (0, 1):
                child = 2 * position + s if place is None else place[2 * position + s]
                if child is not None:
                    lost[child] = node
        # one block per key: the two signs' children of a replayed level
        # share their plans' matrix
        by_key: dict[bytes, list[Block]] = {}
        for block in children:
            by_key.setdefault(block.key, []).append(block)
        child = Level(group, child_paths, [_joined(blocks) for blocks in by_key.values()], lost)
        stack.extend(reversed(_split(child, plans, merge_tau)))
    yield from flush(None)


def _evaluate_chunk(chunk: Chunk, delta: float | None) -> Evaluations:
    """Evaluate every measure of a chunk, classifying at delta unless it is None.

    One batched kernel: the Pol distances (metrics._nearest_pol), the
    capacities, and the classification on those capacities and the
    quotient capacities (channels._classify), both the nodes' weights
    dotted with vectors that each posterior matrix decides once
    (polar.Chunk). Each measure gets bitwise the result it gets alone, in
    the chunk's order.
    """
    distance, subgroup, solves = _nearest_pol(chunk)
    capacities = chunk.capacities()
    classes = None
    if delta is not None:
        classes = _classify(chunk.group, capacities, chunk.quotient_capacities, delta)
    return Evaluations(capacities, distance, subgroup, solves, classes)


def _leaves(level: Level, gaps: np.ndarray, results: Evaluations) -> Leaves:
    """The Leaves of a walker chunk of evaluated leaves, a refused leaf's error in its row."""
    errors: list = [None] * len(level.paths)
    for position, node in level.dead.items():
        errors[position] = node
    return Leaves(level.paths, errors, level.atoms(), gaps, results)


def enumerate_paths(
    w: Channel,
    depth: int,
    delta: float = DEFAULT_DELTA,
    merge_tau: float = DEFAULT_MERGE_TAU,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> PolarizationReport:
    """Evaluate every sign path of the given depth (2^depth records).

    Records appear in path order with '-' before '+' at every position. The
    capacity gap of every node is checked against the atom budget before
    its children are stepped, so a node whose gap exceeds the budget fails
    its whole subtree. The gaps of the levels above the leaves are computed
    in batches of several levels, after their children are stepped; a gap
    that faults still stops its subtree, and the walk raises the PathFault
    that names the node.
    """
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [0, {MAX_DEPTH}], got {depth}")
    _check_delta(delta)
    config = _config_echo(w, depth, "exhaustive", None, None, delta, merge_tau, atom_budget)

    parts: list[Leaves] = []
    levels: dict[int, list[np.ndarray]] = {}
    root = blackwell_measure(w, merge_tau)
    walk = _walk_chunks(root, depth, merge_tau, atom_budget, gap_depths=range(depth + 1),
                        eval_depths=(depth,), delta=delta)
    for level, gaps, results in walk:
        live = level.atoms() > 0
        if live.any():
            levels.setdefault(len(level.paths[0]), []).append(gaps[live])
        if len(level.paths[0]) == depth:
            parts.append(_leaves(level, gaps, results))
    level_gaps = {level: np.concatenate(gaps) for level, gaps in levels.items()}
    leaves = _concat(parts)
    return PolarizationReport(config, leaves, np.arange(len(leaves.paths)), enumerate_subgroups(root.group),
                              level_gaps)


def sample_paths(
    w: Channel,
    depth: int,
    count: int,
    seed: int,
    delta: float = DEFAULT_DELTA,
    merge_tau: float = DEFAULT_MERGE_TAU,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> PolarizationReport:
    """Evaluate `count` uniform random paths; one record per sample.

    Path i is drawn from a generator seeded by (seed, i), so the sample set
    does not depend on evaluation order. Each distinct path is evaluated
    once and its record repeated wherever it was drawn. Only the leaf's
    capacity gap is checked, so a refusal names the first step or the leaf
    gap that exceeded the budget.
    """
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [0, {MAX_DEPTH}], got {depth}")
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    _check_delta(delta)
    config = _config_echo(w, depth, "sample", count, seed, delta, merge_tau, atom_budget)

    paths = []
    for i in range(count):
        bits = np.random.default_rng([seed, i]).integers(0, 2, size=depth)
        paths.append("".join(PLUS if b else MINUS for b in bits))

    root = blackwell_measure(w, merge_tau)
    walk = _walk_chunks(root, depth, merge_tau, atom_budget, paths, gap_depths=(depth,),
                        eval_depths=(depth,), delta=delta)
    leaves = _concat([_leaves(*chunk) for chunk in walk if len(chunk[0].paths[0]) == depth])
    row = {path: i for i, path in enumerate(leaves.paths)}
    rows = np.array([row[path] for path in paths], dtype=np.int64)
    return PolarizationReport(config, leaves, rows, enumerate_subgroups(root.group), {})


def convergence_trace(
    w: Channel,
    path: str,
    merge_tau: float = DEFAULT_MERGE_TAU,
    atom_budget: int = DEFAULT_ATOM_BUDGET,
) -> list[TraceRecord]:
    """Capacity, capacity gap and distance-to-fixed-points along path prefixes.

    Raises AtomBudgetError when a step or a prefix's capacity gap exceeds
    the atom budget, and PathFault when computing a prefix fails otherwise.
    """
    steps = normalize_path(path)
    depth = len(steps)
    root = blackwell_measure(w, merge_tau)
    subgroups = enumerate_subgroups(root.group)
    out = []
    levels = range(depth + 1)
    walk = _walk_chunks(root, depth, merge_tau, atom_budget, [steps], gap_depths=levels,
                        eval_depths=levels, delta=None)
    # each level's chunk is its one prefix
    for level, gaps, results in walk:
        (prefix,) = level.paths
        if level.dead:
            raise AtomBudgetError(level.dead[0])
        out.append(TraceRecord(
            depth=len(prefix),
            prefix=prefix,
            capacity=float(results.capacity[0]),
            capacity_gap=float(gaps[0]),
            distance_to_pol=float(results.distance[0]),
            nearest_subgroup=subgroups[results.subgroup[0]],
        ))
    return out


def _config_echo(w: Channel, depth, mode, count, seed, delta, merge_tau, atom_budget) -> dict:
    return {
        "group": w.require_group().to_json(),
        "depth": depth,
        "mode": mode,
        "samples": count,
        "seed": seed,
        "delta": delta,
        "merge_tau": merge_tau,
        "atom_budget": atom_budget,
    }
