"""polarlab benchmark: timed `polarlab polarize` experiments on fixed workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload multilevel-exh --seed 1 --seconds 30 --trace 0

`--trace 0` times calls into `polarlab.cli.main(["polarize", ...])` with no
instrumentation and prints the end-to-end metrics, whose times are scaled by
a fixed reference block timed between the calls (see `Reference`, and
README.md for why). `--trace 1` repeats the
untraced calls, then makes one more call with every layer's entry points
wrapped in spans (see spans.py) and prints the per-layer metrics. Both modes
check every report the program writes; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. attempted and
failed count polarize calls: a call fails when it raises, returns another
exit code than 0, or writes a report that fails its check.

The program is imported from `src/` next to this directory and nowhere else;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import Patches, SpanRecorder, install

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

# Every run makes at least two timed calls, so that each report can be
# compared byte for byte with another run of the same configuration.
MIN_CALLS = 2
SETUP_PROBES = 9
# Timed calls run on one thread. A call on the pool waits on both of the
# host's cores, and its time swings with the load on the second core, which
# the reference block (below) does not see. Every run also makes one
# untimed call on the pool, whose report must match the timed ones byte for
# byte, and the traced run reports its wall time.
POOL_THREADS = 2
# One BLAS thread per polarlab thread: no run may use more threads than the
# two cores of the reference machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CAPACITY_TOL = 1e-9
DELTA = 0.1
# Sampled paths differ widely in cost, and runs with different benchmark
# seeds are compared, so sample mode always draws the same paths.
SAMPLE_SEED = 1
# Median time of the reference block (below) on the reference machine; the
# scaled metrics read as seconds on a host that runs the block this fast.
REF_NOMINAL_S = 0.07


@dataclass(frozen=True)
class Workload:
    """One polarize configuration. `{seed}` in the preset takes the benchmark seed."""

    name: str
    preset: str
    depth: int
    check: str  # "multilevel" (scalar oracle), "martingale" or "basic"; all get the basic checks
    group: str | None = None
    threads: int = 1
    merge_tau: str | None = None
    atom_budget: int | None = None
    samples: int | None = None  # sample mode: this many paths, drawn with SAMPLE_SEED

    def channel_spec(self, seed: int) -> str:
        return self.preset.format(seed=seed)

    @property
    def leaves(self) -> int:
        return self.samples or 2 ** self.depth

    def argv(self, seed: int, output: str, threads: int | None = None) -> list[str]:
        args = ["polarize", "--preset", self.channel_spec(seed), "--depth", str(self.depth),
                "--delta", repr(DELTA), "--threads", str(threads or self.threads),
                "--output", output]
        if self.group:
            args += ["--group", self.group]
        if self.merge_tau:
            args += ["--merge-tau", self.merge_tau]
        if self.atom_budget:
            args += ["--atom-budget", str(self.atom_budget)]
        if self.samples:
            args += ["--mode", "sample", "--samples", str(self.samples),
                     "--seed", str(SAMPLE_SEED)]
        return args


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("multilevel-exh", "z4-multilevel:0.5", depth=7, check="multilevel"),
        Workload("bsc-merge-sample", "bsc:0.11", depth=8, check="basic", samples=4,
                 merge_tau="1e-3", atom_budget=1_000_000),
        Workload("dhmix-z2z4", "dh-mix:{seed}", depth=5, check="martingale", group="[2,4]"),
    )
}

END_TO_END = {
    "wall_norm_s": "s",
    "paths_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "paths_ok_frac": "ratio",
}


def pin_blas_threads() -> None:
    """Must run before numpy is first imported in this process."""
    os.environ.update(BLAS_ENV)


def load_polarlab():
    """Import polarlab from this checkout's src/, refusing any other copy."""
    if not (SRC / "polarlab" / "cli.py").is_file():
        raise FileNotFoundError(f"no polarlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polarlab.cli

    if Path(polarlab.cli.__file__).resolve().parent != (SRC / "polarlab").resolve():
        raise ImportError(f"polarlab imported from {polarlab.cli.__file__}, not {SRC}")
    return polarlab.cli


class Reference:
    """A fixed block of work timed between the polarize calls of a run.

    The host's speed drifts by up to 1.5x over minutes, and the drift is
    shared by all code in the process. The block runs the libraries polarlab
    spends its time in (scipy's HiGHS through `linprog` on small transport
    problems, `np.unique` over rows, interpreted dict updates) and no
    polarlab code, so the ratio of a call's time to the block's time moves
    with the program and not with the host.
    """

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sp
        from scipy.optimize import linprog

        self._np, self._linprog = np, linprog
        rng = np.random.default_rng(12345)
        self.lps = []
        for k1, k2 in ((3, 2), (4, 3), (6, 5), (12, 10)):
            a, b = rng.random(k1), rng.random(k2)
            a_eq = sp.vstack([sp.kron(sp.eye(k1, format="csr"), np.ones((1, k2))),
                              sp.kron(np.ones((1, k1)), sp.eye(k2), format="csr")[:-1]],
                             format="csr")
            self.lps.append((rng.random(k1 * k2), a_eq,
                             np.concatenate([a / a.sum(), (b / b.sum())[:-1]])))
        self.keys = np.round(rng.random((20000, 3)) * 40)

    def time(self) -> float:
        t0 = time.perf_counter()
        for cost, a_eq, b_eq in self.lps * 3:
            res = self._linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
            if res.status != 0:
                raise RuntimeError(f"reference LP failed: {res.message}")
        self._np.unique(self.keys, axis=0, return_inverse=True)
        table: dict[int, int] = {}
        for i in range(40_000):
            table[(i * 7) & 4095] = table.get(i & 4095, 0) + i
        return time.perf_counter() - t0


_PROBE = """
import json, sys, time
import polarlab.cli
from polarlab.metrics import pol_set
from polarlab.presets import parse_group_spec, parse_preset
channel = parse_preset(sys.argv[1], parse_group_spec(sys.argv[2]) if sys.argv[2] else None)
pol_set(channel.require_group())
print(json.dumps({"t": time.monotonic(), "file": polarlab.cli.__file__}))
"""


def setup_time(w: Workload, seed: int) -> float:
    """Seconds from launching a fresh interpreter until polarlab.cli is imported,
    the workload channel is built and its Pol set (group tables) is filled."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, w.channel_spec(seed), w.group or ""],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(out["file"]).resolve().parent != (SRC / "polarlab").resolve():
        raise ImportError(f"set-up probe imported {out['file']}")
    return out["t"] - t0


@dataclass
class Call:
    """One polarize call: its timing, exit code and the report bytes it wrote."""

    label: str
    wall_s: float
    cpu_s: float
    rc: int | None
    report: bytes | None
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def polarize(cli, argv: list[str], output: Path, label: str, rec=None) -> Call:
    """Call cli.main once; with a recorder, the call is the root span `cli.main`."""
    rc = None
    problems: list[str] = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    root = rec.open("cli.main") if rec is not None else None
    try:
        rc = cli.main(argv)
    except Exception:  # noqa: BLE001 - a raising call is a failed call, not a crashed benchmark
        problems.append(f"{label}: raised\n{traceback.format_exc()}")
    finally:
        if root is not None:
            rec.close(root)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    if rc is not None and rc != 0:
        problems.append(f"{label}: exit code {rc}, expected 0")
    report = output.read_bytes() if output.exists() else None
    if rc is not None and report is None:
        problems.append(f"{label}: no report written")
    return Call(label, wall, cpu, rc, report, problems)


def check_report(w: Workload, seed: int, data: dict) -> list[str]:
    """Oracle checks on one report; returns the problems found."""
    from polarlab.channels import symmetric_capacity
    from polarlab.presets import parse_group_spec, parse_preset
    from polarlab.verify import bec_erasure_after, multilevel_oracle_class

    problems = []
    records = data["records"]
    if len(records) != w.leaves:
        problems.append(f"{len(records)} leaf records, expected {w.leaves}")
    failed = [r for r in records if r["error"] is not None]
    if failed:
        problems.append(f"{len(failed)} failed leaf records; first {failed[0]['path']}: "
                        f"{failed[0]['error']}")
    done = [r for r in records if r["error"] is None]
    log_size = math.log2(math.prod(data["config"]["group"]))
    outside = [r["path"] for r in done if not 0.0 <= r["capacity"] <= log_size]
    if outside:
        problems.append(f"{len(outside)} capacities outside [0, {log_size}]; first {outside[0]}")
    if w.check == "multilevel":
        z0 = float(w.preset.split(":")[1])
        for r in done:
            z = bec_erasure_after(r["path"], z0)
            expected = multilevel_oracle_class(z, DELTA)
            got = tuple(r["witnesses"][0]["subgroup"]) if r["determined"] else None
            if got != expected:
                problems.append(f"{r['path']}: class {got}, oracle {expected}")
            if abs(r["capacity"] - (2.0 - z)) > CAPACITY_TOL:
                problems.append(f"{r['path']}: capacity {r['capacity']!r}, oracle {2.0 - z!r}")
            if len(problems) > 10:
                break
    elif w.check == "martingale" and not failed:
        channel = parse_preset(w.channel_spec(seed), parse_group_spec(w.group) if w.group else None)
        mean = math.fsum(r["capacity"] for r in done) / len(done)
        root = symmetric_capacity(channel)
        if abs(mean - root) > CAPACITY_TOL:
            problems.append(f"mean leaf capacity {mean!r} != root capacity {root!r}")
    return problems


def check_calls(w: Workload, seed: int, calls: list[Call]) -> None:
    """Check each report, and that every report is byte-identical to the first."""
    first = next((c.report for c in calls if c.report is not None), None)
    for call in calls:
        if call.report is None:
            continue
        if call.report != first:
            call.problems.append(f"{call.label}: report bytes differ from {calls[0].label}")
        try:
            data = json.loads(call.report)
        except ValueError as exc:
            call.problems.append(f"{call.label}: report is not JSON: {exc}")
            continue
        call.problems.extend(f"{call.label}: {p}" for p in check_report(w, seed, data))


def evaluated_leaves(call: Call) -> int:
    if call.report is None:
        return 0
    return sum(1 for r in json.loads(call.report)["records"] if r["error"] is None)


def layer_metrics(totals: dict, traced: Call, untraced: list[Call]) -> dict:
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    atoms_in = get("blackwell.canon", "atoms_in")
    atoms_out = get("blackwell.canon", "atoms_out")
    untraced_wall = statistics.median(c.wall_s for c in untraced)
    values = {
        "process.self_s": get("process.run", "self_s") + get("process.walk", "self_s"),
        "process.cpu_s": statistics.median(c.cpu_s for c in untraced),
        "process.leaves": get("process.run", "leaves"),
        "polar.step.calls": get("polar.step", "calls"),
        "polar.step.self_s": get("polar.step", "self_s"),
        "polar.step.raw_atoms": get("polar.step", "raw_atoms"),
        "polar.step.budget_refusals": get("polar.step", "error:AtomBudgetError"),
        "polar.gap.calls": get("polar.gap", "calls"),
        "polar.gap.self_s": get("polar.gap", "self_s"),
        "polar.gap.pairs": get("polar.gap", "pairs"),
        "blackwell.canon.calls": get("blackwell.canon", "calls"),
        "blackwell.canon.self_s": get("blackwell.canon", "self_s"),
        "blackwell.canon.atoms_in": atoms_in,
        "blackwell.canon.atoms_out": atoms_out,
        "blackwell.canon.merge_ratio": atoms_in / atoms_out if atoms_out else 0.0,
        "blackwell.realize.calls": get("blackwell.realize", "calls"),
        "blackwell.realize.self_s": get("blackwell.realize", "self_s"),
        "metrics.pol.calls": get("metrics.pol", "calls"),
        "metrics.pol.self_s": get("metrics.pol", "self_s"),
        "metrics.transport.calls": get("metrics.transport", "calls"),
        "metrics.transport.lp_solves": get("metrics.transport", "lp_solves"),
        "metrics.transport.flips": get("metrics.transport", "flips"),
        "metrics.transport.self_s": get("metrics.transport", "self_s"),
        "channels.classify.calls": get("channels.classify", "calls"),
        "channels.classify.self_s": get("channels.classify", "self_s"),
        "cli.report.self_s": get("cli.report", "self_s"),
        "cli.report.bytes": get("cli.report", "bytes"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced_wall,
    }
    return values


LAYER_UNITS = {"self_s": "s", "cpu_s": "s", "wall_s": "s", "overhead_s": "s", "ref_s": "s", "pool_wall_ratio": "s/s",
               "bytes": "B", "merge_ratio": "ratio"}


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    cli = load_polarlab()
    from polarlab.metrics import pol_set
    from polarlab.presets import parse_group_spec, parse_preset

    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        probes = 0 if trace else SETUP_PROBES
        # Fill the lazy state a user's process also fills before its first
        # transform (group tables, the Pol set, scipy's solver) outside the clock.
        channel = parse_preset(w.channel_spec(seed), parse_group_spec(w.group) if w.group else None)
        pol_set(channel.require_group())
        warm = workdir / "warm.json"
        warm_argv = w.argv(seed, str(warm))
        warm_argv[warm_argv.index("--depth") + 1] = "1"
        cli.main(warm_argv)
        reference = Reference()
        reference.time()

        calls: list[Call] = []
        refs = [reference.time()]
        setups: list[float] = []
        probe_s = 0.0  # time spent in set-up probes, kept off the run's clock
        start = time.perf_counter()

        def elapsed() -> float:
            return time.perf_counter() - start - probe_s

        while len(calls) < MIN_CALLS or elapsed() < seconds:
            # The probes are spread over the run between timed calls: the
            # host's speed drifts in spells, and probes made back to back
            # would all land in one of them.
            if len(setups) < probes and len(setups) * seconds <= probes * elapsed():
                t0 = time.perf_counter()
                setups.append(setup_time(w, seed))
                probe_s += time.perf_counter() - t0
            out = workdir / f"timed-{len(calls)}.json"
            calls.append(polarize(cli, w.argv(seed, str(out)), out, f"timed call {len(calls)}"))
            refs.append(reference.time())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setups) < probes:
            setups.append(setup_time(w, seed))
        timed = list(calls)

        traced = None
        if trace:
            rec = SpanRecorder()
            out = workdir / "traced.json"
            with Patches() as patches:
                install(rec, patches)
                traced = polarize(cli, w.argv(seed, str(out)), out, "traced call", rec)
            calls.append(traced)
            rec.write(BUILD / f"trace-{w.name}-seed{seed}.jsonl")
        out = workdir / "pool.json"
        pool = polarize(cli, w.argv(seed, str(out), threads=POOL_THREADS), out,
                        f"untimed {POOL_THREADS}-thread call")
        calls.append(pool)
        check_calls(w, seed, calls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [c for c in calls if not c.ok]
    for call in failed:
        for problem in call.problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
    ref_s = statistics.median(refs)
    scale = REF_NOMINAL_S / ref_s
    if trace:
        values = layer_metrics(rec.layer_totals(), traced, timed)
        values["process.pool_wall_ratio"] = pool.wall_s / statistics.median(c.wall_s for c in timed)
        values["host.ref_s"] = ref_s
        units = {k: LAYER_UNITS.get(k.rsplit(".", 1)[1], "count") for k in values}
    else:
        wall = statistics.median(c.wall_s for c in timed) * scale
        leaves_ok = sum(evaluated_leaves(c) for c in timed)
        values = {
            "wall_norm_s": wall,
            "paths_per_s": evaluated_leaves(timed[0]) / wall,
            "setup_s": statistics.median(setups) * scale,
            "peak_rss_mb": peak_rss_mb,
            "paths_ok_frac": leaves_ok / (w.leaves * len(timed)),
        }
        units = END_TO_END
    walls = sorted(c.wall_s for c in timed)
    print(f"workload {w.name} seed {seed}: {len(timed)} timed polarize calls "
          f"({w.leaves} leaves each; wall min {walls[0]:.4f} s, median "
          f"{statistics.median(walls):.4f} s, max {walls[-1]:.4f} s; reference block "
          f"median {ref_s:.4f} s over {len(refs)}, scale {scale:.4f})"
          f"{'' if trace else f', {len(setups)} set-up probes'}, "
          f"{len(calls)} calls checked, {len(failed)} failed")
    for name, value in values.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    return {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_blas_threads()
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
