import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polarlab
from polarlab import blackwell_measure, channel_to_json, make_group, polar_step
from polarlab import cli
from polarlab.cli import main
from polarlab.metrics import _nearest_pol
from polarlab.presets import bsc_channel, parse_group_spec, parse_preset


def write_channel(tmp_path, channel, name="chan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(channel_to_json(channel)))
    return str(path)


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only the degradation LP; a CLI start should not pay for it
    src = str(Path(polarlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, polarlab.cli; print(polarlab.cli.__file__); print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert Path(out[0]).resolve().parent == Path(polarlab.__file__).resolve().parent
    assert out[1] == "False"


def test_polarize_leaves_the_verify_suites_unloaded(tmp_path):
    # only the verify command imports its suites
    src = str(Path(polarlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\nfrom polarlab.cli import main\n"
        f"code = main(['polarize', '--preset', 'bec:0.5', '--depth', '1', '--output', {str(tmp_path / 'r.json')!r}])\n"
        "print(code, 'polarlab.verify' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == ["0", "False"]


def test_the_parser_is_built_once(tmp_path, capsys, monkeypatch):
    # main reuses one parser; consecutive calls, a usage error among them,
    # give what calls on a fresh parser give
    report = tmp_path / "r.json"
    sample = ["polarize", "--preset", "bec:0.5", "--depth", "3", "--mode", "sample",
              "--output", str(report)]
    commands = [
        ["polarize", "--preset", "dh-mix:3", "--group", "Z4", "--depth", "2", "--output", str(report)],
        ["classify", "--preset", "dh:Z4:{0,2}", "--delta", "0.01"],
        sample + ["--samples", "5", "--seed", "2"],
        ["polarize", "--preset", "bec:0.5", "--depth", "two"],
        sample,
        ["distance", "--channel-a", "preset:bsc:0.11", "--channel-b", "preset:bec:0.3"],
        ["verify", "--suite", "nope"],
        ["classify", "--preset", "bsc:0.1", "--delta", "0.05"],
    ]

    def call(argv):
        code = main(argv)
        captured = capsys.readouterr()
        written = report.read_bytes() if report.exists() else None
        report.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    fresh = []
    for argv in commands:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    assert [outcome[0] for outcome in fresh] == [0, 0, 0, 1, 0, 0, 1, 3]
    assert "invalid int value: 'two'" in fresh[3][2] and "invalid choice" in fresh[6][2]
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    assert [call(argv) for argv in commands] == fresh
    assert len(built) == 1


def test_parse_group_spec():
    assert parse_group_spec("Z4").orders == (4,)
    assert parse_group_spec("z2xz2").orders == (2, 2)
    assert parse_group_spec("[2,4]").orders == (2, 4)
    with pytest.raises(ValueError):
        parse_group_spec("Q8")


def test_parse_preset_variants():
    assert parse_preset("bec:0.5").n_outputs == 3
    assert parse_preset("bsc:0.1").n_outputs == 2
    dh = parse_preset("dh:Z4:{0,2}")
    assert dh.n_outputs == 2
    ml = parse_preset("z4-multilevel:0.5")
    assert ml.n_outputs == 6
    rnd = parse_preset("random:7", group=make_group([4]), n_outputs=5)
    assert rnd.n_outputs == 5 and rnd.group.orders == (4,)
    mix = parse_preset("dh-mix:3", group=make_group([4]))
    assert mix.n_outputs == 7
    with pytest.raises(ValueError):
        parse_preset("nope:1")
    with pytest.raises(ValueError):
        parse_preset("bec:two")


def test_polarize_exhaustive_record_count(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "polarize", "--preset", "bec:0.5", "--depth", "8",
        "--mode", "exhaustive", "--delta", "0.1", "--output", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "polarlab-report/1"
    assert len(data["records"]) == 256
    assert data["config"]["source"] == "preset:bec:0.5"


def test_polarize_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["polarize", "--preset", "bec:0.5", "--depth", "6", "--output"]
    assert main(args + [str(out1)]) == 0
    # --threads, which scripts still pass, is accepted and changes nothing
    assert main(args + [str(out2), "--threads", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_polarize_depth_zero(tmp_path):
    out = tmp_path / "r.json"
    assert main(["polarize", "--preset", "bsc:0.1", "--depth", "0", "--output", str(out)]) == 0
    assert len(json.loads(out.read_text())["records"]) == 1


def test_polarize_written_report_round_trips(tmp_path):
    out = tmp_path / "r.json"
    main(["polarize", "--preset", "bec:0.5", "--depth", "4", "--output", str(out)])
    raw = out.read_text()
    assert json.dumps(json.loads(raw), indent=2) + "\n" == raw


@pytest.mark.parametrize("group, depth", [("Z11", 3), ("Z6", 2), ("Z12", 2)])
def test_capacity_histogram_counts_every_evaluated_leaf(tmp_path, group, depth):
    # useless leaves have capacity 0 up to rounding, on either side of the
    # first bin's edge
    out = tmp_path / "r.json"
    assert main(["polarize", "--preset", "useless", "--group", group, "--depth", str(depth),
                 "--output", str(out)]) == 0
    aggregates = json.loads(out.read_text())["aggregates"]
    assert aggregates["evaluated"] == 2 ** depth
    assert sum(item["count"] for item in aggregates["capacity_histogram"]) == 2 ** depth


def test_polarize_csv_aggregates(tmp_path):
    out = tmp_path / "r.csv"
    code = main([
        "polarize", "--preset", "bec:0.5", "--depth", "4",
        "--format", "csv", "--output", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert text.startswith("key,value\n")
    assert "fraction_determined," in text


def test_polarize_csv_writes_a_null_aggregate_as_an_empty_value(capsys):
    # every path fails the budget, so no capacity is averaged: the JSON
    # report's mean_capacity is null, and the CSV's value is empty
    argv = ["polarize", "--preset", "bec:0.5", "--depth", "2", "--atom-budget", "1", "--format", "csv"]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "evaluated,0\nfailed,4\nfraction_determined,0.0\nmean_capacity,\n" in out
    assert "None" not in out


def test_polarize_sample_mode(tmp_path):
    out = tmp_path / "r.json"
    code = main([
        "polarize", "--preset", "bec:0.5", "--depth", "6", "--mode", "sample",
        "--samples", "25", "--seed", "3", "--output", str(out),
    ])
    assert code == 0
    assert len(json.loads(out.read_text())["records"]) == 25


def test_polarize_resource_failures_exit_2(tmp_path):
    out = tmp_path / "r.json"
    code = main([
        "polarize", "--preset", "random:0", "--group", "Z4", "--depth", "4",
        "--atom-budget", "200", "--output", str(out),
    ])
    assert code == 2
    data = json.loads(out.read_text())
    assert data["aggregates"]["failed"] > 0


def test_internal_fault_exits_4(tmp_path, capsys, monkeypatch):
    def fault(chunk):
        raise RuntimeError("transport solver hit its pivot cap")

    monkeypatch.setattr(polarlab.process, "_nearest_pol", fault)
    out = tmp_path / "r.json"
    code = main(["polarize", "--preset", "bec:0.5", "--depth", "2", "--output", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "internal error: path '--': transport solver hit its pivot cap\n"
    assert not out.exists()


def test_value_error_inside_the_walk_is_an_internal_fault(tmp_path, capsys, monkeypatch):
    # the input was valid; a ValueError raised evaluating a node is the
    # program's. The leaves are evaluated together, and when that raises,
    # one at a time, so the fault names the first failing leaf in path order.
    second = polar_step(polar_step(blackwell_measure(parse_preset("bec:0.5")), "-"), "+")

    def fault(chunk):
        if any(m.identical(second) for m in chunk.measures):
            raise ValueError("transport costs must be finite")
        return _nearest_pol(chunk)

    monkeypatch.setattr(polarlab.process, "_nearest_pol", fault)
    out = tmp_path / "r.json"
    code = main(["polarize", "--preset", "bec:0.5", "--depth", "2", "--output", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "internal error: path '-+': transport costs must be finite\n"
    assert not out.exists()


def test_tiny_merge_tau_is_rejected(capsys):
    # q / tau overflows int64 below the floor, and unrelated atoms then merge
    argv = ["polarize", "--preset", "bsc:0.11", "--depth", "3", "--format", "csv"]
    assert main(argv + ["--merge-tau", "1e-20"]) == 1
    captured = capsys.readouterr()
    assert "tolerance" in captured.err and captured.out == ""
    assert main(argv + ["--merge-tau", "1e-18"]) == 0
    assert "fraction_determined,0.25\n" in capsys.readouterr().out


def test_polarize_invalid_inputs(tmp_path, capsys):
    assert main(["polarize", "--depth", "4"]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["polarize", "--channel", str(bad), "--depth", "2"]) == 1
    assert "malformed JSON" in capsys.readouterr().err

    nonstoch = tmp_path / "ns.json"
    nonstoch.write_text(json.dumps({"group": [2], "outputs": ["a", "b"],
                                    "rows": [[0.5, 0.4], [0.5, 0.5]]}))
    assert main(["polarize", "--channel", str(nonstoch), "--depth", "2"]) == 1
    err = capsys.readouterr().err
    assert "row 0" in err

    mismatch = tmp_path / "mm.json"
    mismatch.write_text(json.dumps({"group": [4], "outputs": ["a", "b"],
                                    "rows": [[0.5, 0.5], [0.5, 0.5]]}))
    assert main(["polarize", "--channel", str(mismatch), "--depth", "2"]) == 1
    assert "group" in capsys.readouterr().err

    assert main(["polarize", "--preset", "bec:0.5", "--depth", "4",
                 "--merge-tau", "0.1"]) == 1
    assert "tolerance" in capsys.readouterr().err

    # each of these exits 1 with a one-line error and writes no report
    report = tmp_path / "report.json"
    nan = tmp_path / "nan.json"
    nan.write_text('{"group": [2], "outputs": ["a", "b"], "rows": [[null, 1], [0, 1]]}')
    scalar_outputs = tmp_path / "outputs.json"
    scalar_outputs.write_text(json.dumps({"group": [2], "outputs": 5, "rows": [[1, 0], [0, 1]]}))
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"group": [2.5], "outputs": ["a", "b"],
                                      "rows": [[1, 0], [0, 1]]}))
    bsc = ["--preset", "bsc:0.1", "--depth", "2"]
    cases = [
        (["--channel", str(nan), "--depth", "2"], "not finite"),
        (["--channel", str(tmp_path), "--depth", "2"], str(tmp_path)),
        (["--channel", str(scalar_outputs), "--depth", "2"], "outputs"),
        (["--channel", str(fractional), "--depth", "2"], "integers"),
        (bsc + ["--group", "[2.5]"], "integers"),
        (["--preset", "bsc:0.1", "--depth", "17"], "depth"),
        (bsc + ["--delta", "0"], "delta"),
        *[
            (bsc + mode + ["--delta", delta], "delta")
            for mode in ([], ["--mode", "sample", "--samples", "4"])
            for delta in ("nan", "inf")
        ],
        # usage errors: argparse's own rejections are input errors too
        (["--preset", "bsc:0.1"], "--depth"),
        (["--preset", "bsc:0.1", "--depth", "x"], "--depth"),
        (bsc + ["--mode", "foo"], "--mode"),
        (bsc + ["--mode", "sample", "--samples", "0"], "sample count"),
        (bsc + ["--atom-budget", "0"], "atom budget"),
        # a preset field beyond its form would select nothing
        *[
            (["--preset", spec, "--depth", "2"], f"bad preset {spec!r}")
            for spec in ("bec:0.5:Z4", "random:7:5", "bsc:0.11:0.3", "identity:7", "useless:",
                         "dh-mix:3:oops", "dh:Z4:{0,2}:1", "z4-multilevel:0.5:0.5")
        ],
    ]
    for args, message in cases:
        assert main(["polarize", *args, "--output", str(report)]) == 1, args
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err, args
        assert captured.out == "" and not report.exists(), args
    missing = tmp_path / "missing" / "report.json"
    assert main(["polarize", *bsc, "--output", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(missing) in captured.err
    assert captured.out == "" and not missing.parent.exists()
    assert main(["classify", "--channel", str(nan)]) == 1
    captured = capsys.readouterr()
    assert "not finite" in captured.err and captured.out == ""
    assert main(["foo"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "foo" in captured.err and captured.out == ""
    with pytest.raises(SystemExit) as exit_info:
        main(["polarize", "--help"])
    assert exit_info.value.code == 0


def test_channel_and_preset_are_exclusive(tmp_path, capsys):
    # given both, neither silently wins
    report = tmp_path / "r.json"
    for command in (["classify"], ["polarize", "--depth", "2", "--output", str(report)]):
        assert main([*command, "--channel", "preset:bec:0.5", "--preset", "bsc:0.1"]) == 1, command
        captured = capsys.readouterr()
        assert captured.err.startswith("error:"), command
        assert "--preset: not allowed with argument --channel" in captured.err, command
        assert captured.out == "" and not report.exists(), command


def test_sample_flags_need_sample_mode(tmp_path, capsys):
    report = tmp_path / "r.json"
    base = ["polarize", "--preset", "bec:0.5", "--depth", "2", "--output", str(report)]
    for extra in (["--samples", "5"], ["--seed", "3"], ["--samples", "5", "--seed", "3"],
                  ["--mode", "exhaustive", "--seed", "0"]):
        assert main(base + extra) == 1, extra
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--mode sample" in captured.err, extra
        assert captured.out == "" and not report.exists(), extra
    # sample mode keeps its defaults: one path, seed 0
    assert main(base + ["--mode", "sample"]) == 0
    implicit = report.read_bytes()
    assert main(base + ["--mode", "sample", "--samples", "1", "--seed", "0"]) == 0
    assert report.read_bytes() == implicit
    config = json.loads(implicit)["config"]
    assert (config["samples"], config["seed"]) == (1, 0)


def test_pc_bound_flags_need_pc_bound_metric(capsys):
    base = ["distance", "--channel-a", "preset:bsc:0.11", "--channel-b", "preset:bec:0.3"]
    for extra in (["--trials", "0", "--seed", "7"], ["--trials", "64"], ["--seed", "0"],
                  ["--metric", "wasserstein", "--seed", "3"]):
        assert main(base + extra) == 1, extra
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--metric pc-bound" in captured.err, extra
        assert captured.out == "", extra
    # pc-bound keeps its defaults: 64 trials, seed 0
    pc = base + ["--metric", "pc-bound"]
    assert main(pc) == 0
    implicit = capsys.readouterr().out
    assert main(pc + ["--trials", "64", "--seed", "0"]) == 0
    assert capsys.readouterr().out == implicit


def test_a_negative_seed_is_named(tmp_path, capsys):
    report = tmp_path / "r.json"
    for args in (
        ["polarize", "--preset", "bec:0.5", "--depth", "2", "--mode", "sample", "--seed", "-1",
         "--output", str(report)],
        ["distance", "--channel-a", "preset:bsc:0.11", "--channel-b", "preset:bec:0.3",
         "--metric", "pc-bound", "--seed", "-1"],
    ):
        assert main(args) == 1, args
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -1\n", args
        assert captured.out == "" and not report.exists(), args


def test_a_negative_preset_seed_is_named(capsys):
    for spec in ("random:-1", "dh-mix:-3"):
        assert main(["classify", "--preset", spec, "--delta", "0.1"]) == 1, spec
        captured = capsys.readouterr()
        seed = spec.split(":")[1]
        assert captured.err == f"error: bad preset {spec!r}: seed must be >= 0, got {seed}\n", spec
        assert captured.out == "", spec


def test_a_channel_file_without_rows_is_named(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"outputs": [], "rows": []}))
    assert main(["polarize", "--channel", str(path), "--depth", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: field 'rows' must hold at least one row\n"
    assert captured.out == ""


def test_classify_exit_codes(tmp_path, capsys):
    assert main(["classify", "--preset", "dh:Z4:{0,2}", "--delta", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "determined=true" in out
    assert "subgroup={0,2}" in out

    assert main(["classify", "--preset", "bsc:0.1", "--delta", "0.05"]) == 3
    assert "determined=false" in capsys.readouterr().out

    assert main(["classify", "--preset", "identity", "--group", "Z4",
                 "--delta", "0.01"]) == 0
    assert "subgroup={0}" in capsys.readouterr().out

    for delta in ("nan", "inf"):
        assert main(["classify", "--preset", "bsc:0.1", "--delta", delta]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "delta" in captured.err
        assert captured.out == ""


def test_flags_that_select_nothing_are_rejected(tmp_path, capsys):
    # --group on a channel of another group, and --outputs with no random
    # preset, would be ignored: each exits 1 and writes nothing
    chan = write_channel(tmp_path, bsc_channel(0.1))
    depth = ["--depth", "0"]
    cases = [
        (["polarize", "--preset", "bsc:0.1", "--group", "Z4", "--outputs", "7", *depth], "--group"),
        (["polarize", "--preset", "z4-multilevel:0.5", "--group", "Z2", *depth], "--group"),
        (["classify", "--preset", "dh:Z4:{0,2}", "--group", "[2,2]"], "--group"),
        (["polarize", "--channel", chan, "--group", "Z4", *depth], "--group"),
        (["polarize", "--channel", "preset:bsc:0.1", "--group", "Z3", *depth], "--group"),
        (["polarize", "--preset", "bsc:0.1", "--outputs", "7", *depth], "--outputs"),
        (["polarize", "--preset", "dh-mix:3", "--group", "Z4", "--outputs", "3", *depth], "--outputs"),
        (["classify", "--channel", chan, "--outputs", "3"], "--outputs"),
        (["distance", "--channel-a", "preset:bsc:0.1", "--channel-b", "preset:bec:0.3",
          "--outputs", "3"], "--outputs"),
        (["distance", "--channel-a", "preset:random:1", "--channel-b", "preset:bsc:0.1",
          "--group", "Z4"], "--group"),
    ]
    for args, flag in cases:
        assert main(args) == 1, args
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and flag in captured.err, args
        assert captured.out == "", args
    # a flag that selects something is accepted: the group a preset carries
    # anyway, and --outputs beside one random channel
    assert main(["polarize", "--preset", "bsc:0.1", "--group", "Z2", *depth]) == 0
    assert main(["polarize", "--channel", chan, "--group", "[2]", *depth]) == 0
    capsys.readouterr()
    assert main(["distance", "--channel-a", "preset:random:1", "--channel-b", "preset:bsc:0.1",
                 "--outputs", "3"]) == 0
    assert float(capsys.readouterr().out) >= 0.0


def test_distance_identical_and_relabeled(tmp_path, capsys):
    w = bsc_channel(0.1)
    a = write_channel(tmp_path, w, "a.json")
    b = write_channel(tmp_path, w, "b.json")
    assert main(["distance", "--channel-a", a, "--channel-b", b]) == 0
    assert float(capsys.readouterr().out) == 0.0

    relabeled = {"group": [2], "outputs": ["x", "y"],
                 "rows": [row[::-1] for row in channel_to_json(w)["rows"]]}
    (tmp_path / "c.json").write_text(json.dumps(relabeled))
    assert main(["distance", "--channel-a", a, "--channel-b", str(tmp_path / "c.json")]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_distance_pc_bound(capsys):
    code = main([
        "distance", "--channel-a", "preset:identity", "--channel-b", "preset:useless",
        "--metric", "pc-bound",
    ])
    assert code == 0
    assert float(capsys.readouterr().out) >= 0.5 - 1e-9


def test_distance_alphabet_mismatch(tmp_path, capsys):
    a = write_channel(tmp_path, bsc_channel(0.1), "a.json")
    from polarlab.presets import identity_channel

    b = write_channel(tmp_path, identity_channel(make_group([4])), "b.json")
    assert main(["distance", "--channel-a", a, "--channel-b", b]) == 1
    assert "differ" in capsys.readouterr().err


def test_verify_pol_set_suite(capsys):
    assert main(["verify", "--suite", "pol-set"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_steps_suite(capsys):
    assert main(["verify", "--suite", "steps"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS steps.shared-support:") and " 0 mismatches" in out


def test_layer_split_tool_prints_every_layer(tmp_path):
    root = Path(__file__).resolve().parents[1]
    tool = root / "tools" / "layer_split.py"
    command = [sys.executable, str(tool), "--calls", "2", "--warmup", "1",
               "polarize", "--preset", "bec:0.5", "--depth", "2", "--delta", "0.1"]
    out = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert "2 calls after 1 warm-up" in lines[0]
    layers = {line.split()[0] for line in lines[2:-1]}
    assert layers == {
        "planes", "gap.via_pairs", "gap.products", "gap.via_transform", "gap.pair_dots", "gap.rest", "step.record", "step.replay",
        "step.general", "canonicalize", "chunk", "split", "evaluate.pol", "evaluate.classify", "evaluate", "report.records",
        "report_json", "write", "other",
    }
    assert lines[-1].startswith("minor page faults per call: ")
    # the report went to a temporary file, not to the working directory
    assert list(tmp_path.iterdir()) == []


def test_compare_reports_prints_the_lines_that_differ():
    # a stdout that is not JSON, such as verify's, shows its differing
    # lines, at most 10 a side; a JSON one its differing key paths
    import importlib.util

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("compare_reports", root / "tools" / "compare_reports.py")
    compare_reports = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_reports)
    want = b"PASS a: 1\nPASS b: 1.110e-15\nPASS c: 3\n"
    got = b"PASS a: 1\nPASS b: 8.882e-16\nPASS c: 3\n"
    assert compare_reports.describe(want, got) == ["    - PASS b: 1.110e-15", "    + PASS b: 8.882e-16"]
    many = compare_reports.describe(b"".join(b"%d\n" % i for i in range(30)), b"x\n")
    assert many == [f"    - {i}" for i in range(10)] + ["    + x"]
    assert compare_reports.describe(b'{"a": [1, 2]}', b'{"a": [1, 2.5]}') == ["    a[*]: max |diff| 0.5"]


def test_layer_split_wraps_entry_points_that_the_call_enters(capsys):
    # in process: every entry point that LAYERS names must exist, and those
    # of an exhaustive call on a replaying channel must be entered, so a
    # renamed or bypassed entry point fails here; the wrappers are removed
    # afterwards
    import importlib.util

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("layer_split", root / "tools" / "layer_split.py")
    layer_split = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_split)
    originals = (polarlab.process._records_json, polarlab.polar.Chunk.gaps, cli.report_json)
    argv = ["--calls", "1", "--warmup", "0", "polarize", "--preset", "z4-multilevel:0.5", "--depth", "2"]
    assert layer_split.main(argv) == 0
    assert (polarlab.process._records_json, polarlab.polar.Chunk.gaps, cli.report_json) == originals
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[2:-1]}
    assert set(rows) == {name for name, _, _ in layer_split.LAYERS} | {"other"}
    idle = {"step.general"}  # every step of this walk is recorded or replayed
    for name, _, _ in layer_split.LAYERS:
        entries = float(rows[name][2])
        assert entries == 0 if name in idle else entries >= 1, name
