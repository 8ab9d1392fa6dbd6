#!/usr/bin/env python3
"""Check that polarlab's reports at a git revision and in the working tree are byte-identical.

    python3 tools/compare_reports.py REV

REV is checked out with `git worktree` into a temporary directory, which is
removed afterwards. Each command of COMMANDS then runs once against REV's
`src/` and once against the working tree's, in a fresh interpreter with one
BLAS thread, and the two runs' stdout bytes, exit codes and stderr are
compared. Prints one line per command and exits 0 when every command
matches, 1 otherwise. When a command's stdout differs and parses as JSON on
both sides, the line is followed by the key paths that differ, list indices
collapsed to [*], each with the largest absolute difference of its numbers;
otherwise by the lines that differ, REV's marked '-' and the working tree's
'+', at most 10 a side.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cli(*args: str) -> list[str]:
    return ["-m", "polarlab.cli", *args]


def polarize(*args: str) -> list[str]:
    return cli("polarize", "--delta", "0.1", *args)


def library(code: str) -> list[str]:
    return ["-c", "import json, polarlab as pl\nfrom polarlab import presets, verify\n" + code]


def trace(preset: str, group: str | None, path: str, merge_tau: float) -> list[str]:
    channel = f"presets.parse_preset({preset!r}, {group_expr(group)})"
    return library(
        f"records = pl.convergence_trace({channel}, {path!r}, merge_tau={merge_tau!r})\n"
        "print(json.dumps([r.to_dict() for r in records], indent=1))"
    )


def group_expr(group: str | None) -> str:
    return "None" if group is None else f"presets.parse_group_spec({group!r})"


# (name, interpreter arguments). The three benchmark workloads first.
COMMANDS: list[tuple[str, list[str]]] = [
    ("multilevel-exh", polarize("--preset", "z4-multilevel:0.5", "--depth", "7")),
    ("multilevel-exh --threads 2", polarize(
        "--preset", "z4-multilevel:0.5", "--depth", "7", "--threads", "2")),
    ("dhmix-z2z4 seed 11", polarize("--preset", "dh-mix:11", "--group", "[2,4]", "--depth", "5")),
    ("dhmix-z2z4 seed 31", polarize("--preset", "dh-mix:31", "--group", "[2,4]", "--depth", "5")),
    *[
        (f"bsc-merge-sample seed {seed}", polarize(
            "--preset", "bsc:0.11", "--depth", "8", "--mode", "sample", "--samples", "4",
            "--seed", str(seed), "--merge-tau", "1e-3", "--atom-budget", "1000000"))
        for seed in (1, 2)
    ],
    # the root evaluated alone, no gap deferred to a batch
    ("z4-multilevel d0", polarize("--preset", "z4-multilevel:0.5", "--depth", "0")),
    *[
        (f"z4-multilevel d{depth}", polarize("--preset", "z4-multilevel:0.5", "--depth", str(depth)))
        for depth in (9, 10, 12, 14, 16)
    ],
    # a sample drops rows from the weight blocks of shared matrices
    ("z4-multilevel d10 sample", polarize(
        "--preset", "z4-multilevel:0.5", "--depth", "10", "--mode", "sample", "--samples", "500",
        "--seed", "4")),
    # levels of 128 replaying nodes, which span several chunks
    ("dh-mix:11 [2,4] d7", polarize("--preset", "dh-mix:11", "--group", "[2,4]", "--depth", "7")),
    ("bec d8", polarize("--preset", "bec:0.5", "--depth", "8")),
    ("bec d10 sample", polarize(
        "--preset", "bec:0.5", "--depth", "10", "--mode", "sample", "--samples", "1000",
        "--seed", "7")),
    *[
        (f"dh-mix:3 Z4 d{depth}", polarize("--preset", "dh-mix:3", "--group", "Z4", "--depth", str(depth)))
        for depth in (4, 6, 8)
    ],
    ("dh-mix:3 Z4 d6 csv", polarize(
        "--preset", "dh-mix:3", "--group", "Z4", "--depth", "6", "--format", "csv")),
    # every '+' step refused on a block of shared matrices (exit 2)
    ("dh-mix:3 Z4 d6 budget 100", polarize(
        "--preset", "dh-mix:3", "--group", "Z4", "--depth", "6", "--atom-budget", "100")),
    # steps replayed on a group whose order is not a power of two, a group
    # whose large nodes step alone, and erasures on Z4
    ("dh-mix:5 Z6 d6", polarize("--preset", "dh-mix:5", "--group", "Z6", "--depth", "6")),
    ("dh-mix:5 [2,2,2] d6", polarize("--preset", "dh-mix:5", "--group", "[2,2,2]", "--depth", "6")),
    # general-path chunks priced at their raw posteriors, up to the cap
    ("dh-mix:5 Z6 d8", polarize("--preset", "dh-mix:5", "--group", "Z6", "--depth", "8")),
    ("bec:0.3 Z4 d8", polarize("--preset", "bec:0.3", "--group", "Z4", "--depth", "8")),
    # gaps on groups of order above 8, whose pair entropies sum 8
    # accumulators, and a generic 64-atom leaf on a group of order 8 beside
    # a leaf whose gap the budget refuses (exit 2)
    *[
        (f"dh-mix:3 {group} d4", polarize("--preset", "dh-mix:3", "--group", group, "--depth", "4"))
        for group in ("Z12", "Z16")
    ],
    # one-atom measures on groups other than Z2, which the gap kernels
    # convolve apart from their tiles (the second exits 2)
    ("useless Z11 d3", polarize("--preset", "useless", "--group", "Z11", "--depth", "3")),
    ("random:1 Z3 d5 tau 1e-3", polarize(
        "--preset", "random:1", "--group", "Z3", "--depth", "5", "--merge-tau", "1e-3")),
    ("random:5 [2,4] d1", polarize("--preset", "random:5", "--group", "[2,4]", "--depth", "1")),
    ("random:0 Z4 budget 300", polarize(
        "--preset", "random:0", "--group", "Z4", "--depth", "3", "--atom-budget", "300")),
    ("random:0 Z4 budget 300 sample", polarize(
        "--preset", "random:0", "--group", "Z4", "--depth", "3", "--atom-budget", "300",
        "--mode", "sample", "--samples", "6", "--seed", "0")),
    ("bsc d7", polarize("--preset", "bsc:0.11", "--depth", "7")),
    ("bsc d7 sample", polarize(
        "--preset", "bsc:0.11", "--depth", "7", "--mode", "sample", "--samples", "16",
        "--seed", "3")),
    ("bsc d6 tau 1e-3", polarize("--preset", "bsc:0.11", "--depth", "6", "--merge-tau", "1e-3")),
    # levels that step nodes of hundreds of atoms by both signs in one
    # general-path call
    ("bsc d10 sample tau 1e-3", polarize(
        "--preset", "bsc:0.11", "--depth", "10", "--mode", "sample", "--samples", "16",
        "--seed", "3", "--merge-tau", "1e-3", "--atom-budget", "1000000")),
    ("random:3 Z2xZ2 tau 1e-3", polarize(
        "--preset", "random:3", "--group", "[2,2]", "--depth", "4", "--merge-tau", "1e-3")),
    ("trace z4-multilevel", trace("z4-multilevel:0.5", None, "-+-+-+-+-+", 1e-9)),
    ("trace dh-mix:3 Z4", trace("dh-mix:3", "Z4", "--++-+-", 1e-9)),
    ("trace bsc tau 1e-3", trace("bsc:0.11", None, "+-+--+", 1e-3)),
    ("quotient floor d10", library("print(repr(verify.multilevel_quotient_floor(10)))")),
    # a report's non-record fields re-indented around a source that holds
    # a newline, a quote and non-ASCII text
    ("report_json odd source", library(
        "from polarlab.process import report_json\n"
        "report = pl.enumerate_paths(presets.parse_preset('z4-multilevel:0.5'), 3, delta=0.1)\n"
        "report.config['source'] = 'a\\nb \"c\" \\u00e9\\u03c0'\n"
        "print(report_json(report), end='')")),
    ("classify dh:Z4:{0,2}", cli("classify", "--preset", "dh:Z4:{0,2}", "--delta", "0.01")),
    ("classify bsc delta 2", cli("classify", "--preset", "bsc:0.1", "--delta", "2")),
    ("classify random:5 Z2xZ4", cli(
        "classify", "--preset", "random:5", "--group", "[2,4]", "--outputs", "6",
        "--delta", "0.5")),
    ("distance pc-bound", cli(
        "distance", "--channel-a", "preset:bsc:0.11", "--channel-b", "preset:bec:0.3",
        "--metric", "pc-bound", "--trials", "32", "--seed", "5")),
    ("verify all", cli("verify", "--suite", "all")),
]


def run(src: Path, args: list[str], cwd: str) -> tuple[bytes, int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)
    return proc.stdout, proc.returncode, proc.stderr


def json_diff(a, b, path: str = "", out: dict | None = None) -> dict[str, float | None]:
    """Differing key paths of two parsed JSON values, list indices collapsed to [*].

    Maps each path to the largest absolute difference of the numbers found
    there, or to None where a value that is not a number differs, or the
    shapes do.
    """
    out = {} if out is None else out

    def number(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            child = f"{path}.{key}" if path else key
            if key in a and key in b:
                json_diff(a[key], b[key], child, out)
            else:
                out[child] = None
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out[f"{path}[*]"] = None
        for x, y in zip(a, b):
            json_diff(x, y, f"{path}[*]", out)
    elif number(a) and number(b):
        if a != b and out.get(path, 0.0) is not None:
            out[path] = max(out.get(path, 0.0), abs(a - b))
    elif a != b:
        out[path] = None
    return out


def changed_lines(want: bytes, got: bytes, limit: int = 10) -> list[str]:
    """The lines of two stdouts that differ, the first's marked '-' and the second's '+', at most `limit` a side."""
    a, b = (text.decode(errors="replace").splitlines() for text in (want, got))
    removed, added = [], []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            removed += a[i1:i2]
            added += b[j1:j2]
    return [f"    - {line}" for line in removed[:limit]] + [f"    + {line}" for line in added[:limit]]


def describe(want: bytes, got: bytes) -> list[str]:
    """One line per differing key path of two JSON stdouts, or the lines that differ where either is not JSON."""
    try:
        diff = json_diff(json.loads(want), json.loads(got))
    except ValueError:
        return changed_lines(want, got)
    return [f"    {path or '(root)'}: " + ("differs" if size is None else f"max |diff| {size:.3g}")
            for path, size in sorted(diff.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="polarlab-compare-") as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(base), args.rev], check=True)
        try:
            differ = []
            for name, command in COMMANDS:
                want = run(base / "src", command, tmp)
                got = run(ROOT / "src", command, tmp)
                fields = [f for f, a, b in zip(("stdout", "exit code", "stderr"), want, got) if a != b]
                print(f"{'DIFF' if fields else 'same'} {name}"
                      + (f": {', '.join(fields)}" if fields else f" (exit {got[1]})"), flush=True)
                if fields:
                    differ.append(name)
                if "stdout" in fields:
                    for line in describe(want[0], got[0]):
                        print(line, flush=True)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)],
                           check=True)
    print(f"{len(COMMANDS) - len(differ)} of {len(COMMANDS)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
