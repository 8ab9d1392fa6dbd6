"""Command-line front end: polarize, verify, classify, distance."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

from .blackwell import DEFAULT_MERGE_TAU, MERGE_TAU_MIN, blackwell_measure
from .channels import Channel, channel_from_json, delta_determining_subgroup, symmetric_capacity
from .metrics import pc_gap_lower_bound, wasserstein
from .presets import parse_group_spec, parse_preset
from .process import DEFAULT_DELTA, enumerate_paths, report_csv, report_json, sample_paths
from .polar import DEFAULT_ATOM_BUDGET

MERGE_TAU_MAX = 1e-3


def _load_channel_file(path: str) -> Channel:
    if not os.path.exists(path):
        raise ValueError(f"channel file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ValueError(f"cannot read channel file {path}: {exc.strerror or exc}") from exc
    return channel_from_json(obj)


def _resolve_channels(args, *specs: str | None) -> list[Channel]:
    """The channel of each spec, a channel file or 'preset:SPEC'.

    A --group other than the group of a channel, or --outputs with no
    random preset, would select nothing and is an input error.
    """
    group = parse_group_spec(args.group) if args.group else None
    if None in specs:
        raise ValueError("provide either --channel FILE or --preset SPEC")
    presets = {spec: spec[len("preset:"):] for spec in specs if spec.startswith("preset:")}
    channels = [
        parse_preset(presets[spec], group, args.outputs) if spec in presets else _load_channel_file(spec)
        for spec in specs
    ]
    for spec, channel in zip(specs, channels):
        if group is not None and channel.group != group:
            raise ValueError(f"--group {args.group} does not apply to {spec}, on {channel.group!r}")
    if args.outputs is not None and not any(p.split(":")[0].lower() == "random" for p in presets.values()):
        raise ValueError("--outputs applies only to the random preset")
    return channels


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".polarlab-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write report {path}: {exc.strerror or exc}") from exc


def cmd_polarize(args) -> int:
    (channel,) = _resolve_channels(args, args.channel)
    if not MERGE_TAU_MIN <= args.merge_tau <= MERGE_TAU_MAX:
        raise ValueError(
            f"merge tolerance must be in [{MERGE_TAU_MIN}, {MERGE_TAU_MAX}], got {args.merge_tau}"
        )
    if args.atom_budget < 1:
        raise ValueError(f"atom budget must be >= 1, got {args.atom_budget}")
    kw = dict(delta=args.delta, merge_tau=args.merge_tau, atom_budget=args.atom_budget)
    if args.mode == "exhaustive":
        if args.samples is not None or args.seed is not None:
            raise ValueError("--samples and --seed apply only with --mode sample")
        report = enumerate_paths(channel, args.depth, **kw)
    else:
        samples = 1 if args.samples is None else args.samples
        seed = 0 if args.seed is None else args.seed
        report = sample_paths(channel, args.depth, samples, seed, **kw)
    report.config["source"] = args.channel
    text = report_json(report) if args.format == "json" else report_csv(report)
    if args.output:
        _write_atomic(args.output, text)
    else:
        sys.stdout.write(text)
    return 2 if report.failed_count else 0


def cmd_verify(args) -> int:
    # imported here, so that the other commands never load the suites
    from .verify import run_suites

    results = run_suites(args.suite)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_classify(args) -> int:
    (channel,) = _resolve_channels(args, args.channel)
    channel.require_group()
    result = delta_determining_subgroup(channel, args.delta)
    print(f"capacity_bits={symmetric_capacity(channel)!r}")
    print(f"determined={str(result.determined).lower()} delta={result.delta!r}")
    for wit in result.witnesses:
        print(
            f"subgroup={wit.subgroup.label()} "
            f"gap_capacity={wit.gap_capacity!r} gap_quotient={wit.gap_quotient!r}"
        )
    return 0 if result.determined else 3


def cmd_distance(args) -> int:
    channel_a, channel_b = _resolve_channels(args, args.channel_a, args.channel_b)
    ga, gb = channel_a.require_group(), channel_b.require_group()
    if ga != gb:
        raise ValueError(f"input alphabets differ: {ga!r} vs {gb!r}")
    ma, mb = blackwell_measure(channel_a), blackwell_measure(channel_b)
    if args.metric == "wasserstein":
        if args.trials is not None or args.seed is not None:
            raise ValueError("--trials and --seed apply only with --metric pc-bound")
        value = wasserstein(ma, mb)
    else:
        trials = 64 if args.trials is None else args.trials
        seed = 0 if args.seed is None else args.seed
        value = pc_gap_lower_bound(ma, mb, trials=trials, seed=seed)
    print(repr(value))
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: main reports it as `error: …` and exits 1."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polarlab",
        description="Polarization experiments on channels over finite Abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_channel_args(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--channel", help="channel JSON file (or 'preset:SPEC')")
        source.add_argument("--preset", dest="channel", type=lambda spec: f"preset:{spec}", metavar="SPEC",
                            help="built-in channel, read as --channel preset:SPEC, e.g. bec:0.5, bsc:0.1, "
                                 "dh:Z4:{0,2}, z4-multilevel:0.5, random:7, dh-mix:3")
        p.add_argument("--group", help="group spec for presets, e.g. Z4 or [2,4]; must be the channel's")
        p.add_argument("--outputs", type=int, help="output count for the random preset")

    pol = sub.add_parser("polarize", help="run a polarization experiment")
    add_channel_args(pol)
    pol.add_argument("--depth", type=int, required=True)
    pol.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    pol.add_argument("--samples", type=int, help="sample mode: paths drawn (default 1)")
    pol.add_argument("--seed", type=int, help="sample mode: seed of the draws (default 0)")
    pol.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    pol.add_argument("--merge-tau", type=float, default=DEFAULT_MERGE_TAU)
    pol.add_argument("--atom-budget", type=int, default=DEFAULT_ATOM_BUDGET)
    pol.add_argument("--output", help="report file (stdout when omitted)")
    pol.add_argument("--format", choices=("json", "csv"), default="json")
    pol.add_argument("--threads", type=int,
                     help="ignored: evaluation runs on one thread; kept for existing scripts")
    pol.set_defaults(func=cmd_polarize)

    ver = sub.add_parser("verify", help="run built-in oracle verification suites")
    ver.add_argument("--suite", default="all",
                     choices=("all", "martingale", "lemma-gap", "pol-set", "bec-oracle", "multilevel",
                              "steps"))
    ver.set_defaults(func=cmd_verify)

    cls = sub.add_parser("classify", help="report the delta-determining subgroups")
    add_channel_args(cls)
    cls.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    cls.set_defaults(func=cmd_classify)

    dist = sub.add_parser("distance", help="distance between two channels' measures")
    dist.add_argument("--channel-a", required=True, help="channel file or 'preset:SPEC'")
    dist.add_argument("--channel-b", required=True, help="channel file or 'preset:SPEC'")
    dist.add_argument("--group", help="group spec for presets; must be both channels' group")
    dist.add_argument("--outputs", type=int, help="output count for the random preset")
    dist.add_argument("--metric", choices=("wasserstein", "pc-bound"), default="wasserstein")
    dist.add_argument("--trials", type=int, help="pc-bound: random sources tried (default 64)")
    dist.add_argument("--seed", type=int, help="pc-bound: seed of the sources (default 0)")
    dist.set_defaults(func=cmd_distance)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built on its first call and reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # an internal or numeric fault: a failed cross-check or solver; a
        # PathFault's message starts with the tree node it stopped at
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
