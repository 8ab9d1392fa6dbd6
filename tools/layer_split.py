#!/usr/bin/env python3
"""Split the wall time of in-process `polarlab polarize` calls into the library's layers.

    python3 tools/layer_split.py [--calls N] [--warmup W] polarize ARGS...

For example:

    python3 tools/layer_split.py --calls 60 polarize --preset z4-multilevel:0.5 --depth 7 --delta 0.1

Imports polarlab from the `src/` next to `tools/`. The polarize command runs W
untimed warm-up calls, then N timed calls, in this process; without
`--output` it writes its report to a temporary file. For the timed calls
each layer's entry point (LAYERS) is wrapped, and a layer's exclusive time
is its wall time, a generator's over its resumptions, less that of the
wrapped layers called inside it, and its exclusive minor page faults
(resource.getrusage) likewise; `other` is the rest of the call; the
wrappers are removed when the timed calls end. Prints, per layer, the
median exclusive time per call, its share of the median call, the median
number of entries per call and the median exclusive minor page faults per
call, then the median minor page faults per call.

Informational only: the wrappers add their own cost to every entry, the
medians swing with the host, and nothing reads the output. Neither the
package nor the benchmark imports this file.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (layer, module, attribute path) of each wrapped entry point. A function
# is wrapped where its callers look it up: a module global, or a method on
# its class.
LAYERS = [
    ("planes", "polar", "_planes"),
    ("gap.via_pairs", "polar", "_convolution_entropies"),
    ("gap.products", "polar", "_column_products"),
    ("gap.via_transform", "polar", "_minus_capacities"),
    ("gap.pair_dots", "polar", "Chunk._pair_gaps"),
    ("gap.rest", "polar", "Chunk.gaps"),
    ("step.record", "polar", "_record"),
    ("step.replay", "polar", "_replay"),
    ("step.general", "polar", "_general"),
    ("canonicalize", "blackwell", "_canonical_segments"),
    ("chunk", "polar", "Chunk.__init__"),
    ("split", "process", "_split"),
    ("evaluate.pol", "process", "_nearest_pol"),
    ("evaluate.classify", "process", "_classify"),
    ("evaluate", "process", "_evaluate_chunk"),
    ("report.records", "process", "_records_json"),
    ("report_json", "cli", "report_json"),
    ("write", "cli", "_write_atomic"),
]


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Timer:
    """Exclusive wall time, entries and exclusive minor page faults per layer, over the wrapped calls open on one stack."""

    def __init__(self):
        self.stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        self.seconds = {name: 0.0 for name, _, _ in LAYERS}
        self.entries = {name: 0 for name, _, _ in LAYERS}
        self.faults = {name: 0 for name, _, _ in LAYERS}

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # a generator's time is that of its resumptions; a call is one entry
            def generator(*args, **kwargs):
                self.entries[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = self.enter()
                    try:
                        item = next(inner, frame)
                    finally:
                        self.leave(name, frame)
                    if item is frame:
                        return
                    yield item

            return generator

        def wrapper(*args, **kwargs):
            self.entries[name] += 1
            frame = self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(name, frame)

        return wrapper

    def enter(self) -> list[float]:
        # [start, time spent in wrapped layers called inside, faults at the
        # start, faults taken in wrapped layers called inside]
        frame = [time.perf_counter(), 0.0, minor_faults(), 0]
        self.stack.append(frame)
        return frame

    def leave(self, name: str, frame: list[float]) -> None:
        elapsed = time.perf_counter() - frame[0]
        faults = minor_faults() - frame[2]
        self.stack.pop()
        self.seconds[name] += elapsed - frame[1]
        self.faults[name] += faults - frame[3]
        if self.stack:
            self.stack[-1][1] += elapsed
            self.stack[-1][3] += faults


@contextlib.contextmanager
def patched(timer: Timer, modules: dict):
    """Every layer's entry point wrapped for the length of the block, then restored."""
    saved = []
    try:
        for name, module, attribute in LAYERS:
            owner = modules[module]
            *outer, leaf = attribute.split(".")
            for part in outer:
                owner = getattr(owner, part)
            saved.append((owner, leaf, getattr(owner, leaf)))
            setattr(owner, leaf, timer.wrap(name, getattr(owner, leaf)))
        yield
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


def median_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=20, help="timed calls (default 20)")
    parser.add_argument("--warmup", type=int, default=3, help="untimed calls first (default 3)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="polarize and its arguments")
    args = parser.parse_args(argv)
    if not args.command or args.command[0] != "polarize":
        parser.error("the command must start with polarize")
    if args.calls < 1 or args.warmup < 0:
        parser.error("--calls must be at least 1 and --warmup at least 0")
    sys.path.insert(0, str(ROOT / "src"))
    from polarlab import blackwell, cli, polar, process

    command = list(args.command)
    with tempfile.TemporaryDirectory(prefix="polarlab-layers-") as tmp:
        if "--output" not in command:
            command += ["--output", os.path.join(tmp, "report.json")]
        for _ in range(args.warmup):
            if cli.main(command) != 0:
                print("layer_split: the polarize command failed", file=sys.stderr)
                return 1
        timer = Timer()
        calls, faults = [], []
        per_layer = {name: [] for name, _, _ in LAYERS}
        entries = {name: [] for name, _, _ in LAYERS}
        layer_faults = {name: [] for name, _, _ in LAYERS}
        with patched(timer, {"blackwell": blackwell, "cli": cli, "polar": polar, "process": process}):
            for _ in range(args.calls):
                timer.reset()
                minflt = minor_faults()
                start = time.perf_counter()
                code = cli.main(command)
                calls.append(time.perf_counter() - start)
                faults.append(minor_faults() - minflt)
                if code != 0:
                    print("layer_split: the polarize command failed", file=sys.stderr)
                    return 1
                for name in per_layer:
                    per_layer[name].append(timer.seconds[name])
                    entries[name].append(timer.entries[name])
                    layer_faults[name].append(timer.faults[name])
    others = [call - sum(layers) for call, layers in zip(calls, zip(*per_layer.values()))]
    layer_faults["other"] = [call - sum(layers) for call, layers in zip(faults, zip(*layer_faults.values()))]
    call = median_ms(calls)
    print(f"{' '.join(args.command)}: {args.calls} calls after {args.warmup} warm-up, "
          f"median {call:.2f} ms a call")
    print(f"{'layer':<20}{'ms':>9}{'share':>8}{'entries':>9}{'faults':>9}")
    for name, values in [*per_layer.items(), ("other", others)]:
        ms = median_ms(values)
        count = f"{statistics.median(entries[name]):g}" if name in entries else "-"
        print(f"{name:<20}{ms:>9.2f}{ms / call:>8.1%}{count:>9}{statistics.median(layer_faults[name]):>9g}")
    print(f"minor page faults per call: {statistics.median(faults):g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
