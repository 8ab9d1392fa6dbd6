"""Self-test of the benchmark harness on tiny depths (kept out of the tier-1 suite).

    python3 benchmarks/selftest.py

It checks that:
- both modes emit exactly the metrics BENCHMARK.json names, with its units,
  and that every report passes its check;
- the per-layer counters (calls, atoms, LP solves, refusals, report bytes)
  repeat exactly across two traced runs, and on dhmix-z2z4 across
  threads 1 and 2;
- on single-thread workloads the layer self times add up to the traced
  wall time.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run

TINY = {
    "multilevel-exh": {"depth": 4},
    "bsc-merge-sample": {"depth": 4},
    "dhmix-z2z4": {"depth": 3},
}
COUNTER_UNITS = ("count", "B", "ratio")
SELF_TIME_TOL_S = 1e-3


def declared_units(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def units_of(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def counters(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNTER_UNITS}


def main() -> int:
    run.pin_blas_threads()
    problems = []
    for name, sizes in TINY.items():
        w = replace(run.WORKLOADS[name], **sizes)
        plain = run.measure(w, 3, 0.0, trace=False)
        traced = [run.measure(w, 3, 0.0, trace=True) for _ in range(2)]
        if name == "dhmix-z2z4":
            traced.append(run.measure(replace(w, threads=run.POOL_THREADS), 3, 0.0, trace=True))
        for result in [plain, *traced]:
            if not result["correct"]:
                problems.append(f"{name}: a report failed its check")
        if units_of(plain) != declared_units("end_to_end"):
            problems.append(f"{name}: end-to-end metrics {units_of(plain)} do not match BENCHMARK.json")
        if units_of(traced[0]) != declared_units("per_layer"):
            problems.append(f"{name}: per-layer metrics {units_of(traced[0])} do not match BENCHMARK.json")
        first = counters(traced[0])
        for other in traced[1:]:
            diff = {k: (v, counters(other).get(k)) for k, v in first.items()
                    if counters(other).get(k) != v}
            if diff:
                problems.append(f"{name}: counters differ between traced runs: {diff}")
        if w.threads == 1:
            m = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            total = sum(v for k, v in m.items() if k.endswith(".self_s"))
            if abs(total - m["trace.wall_s"]) > SELF_TIME_TOL_S:
                problems.append(f"{name}: layer self times sum to {total:.6f} s, "
                                f"traced wall is {m['trace.wall_s']:.6f} s")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
