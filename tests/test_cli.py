import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from rulewatch.cli import main
from rulewatch.config import load_config_file
from rulewatch.data import DataError
from rulewatch.detection import BaselineBundle, compute_fingerprint
from rulewatch.rules import parse_ruleset
from rulewatch.streaming import StreamMonitor
from rulewatch.synth import GaussianMixtureSource, RuleAlignedSource


@pytest.fixture
def source():
    return RuleAlignedSource(n_features=3)


@pytest.fixture
def workdir(tmp_path, source):
    rng = np.random.default_rng(99)
    source.sample(4000, rng).to_csv(tmp_path / "train.csv")
    source.sample(400, rng).to_csv(tmp_path / "op_in.csv")
    source.shifted({1: 0.8, 2: 0.8}).sample(400, rng).to_csv(tmp_path / "op_out.csv")
    (tmp_path / "rules.txt").write_text(
        "if x1 <= 0.5 and x2 <= 0.5 then 1\n"
        "if x1 <= 0.5 and x2 > 0.5 then 0\n"
        "if x1 > 0.5 then 0\n"
        "if x3 > 0.25 then 0\n"
    )
    return tmp_path


def _baseline_args(workdir, out="base.json", extra=()):
    return [
        "baseline", str(workdir / "train.csv"),
        "--rules", str(workdir / "rules.txt"),
        "-o", str(workdir / out),
        "--ns", "250", "--ntr", "12", "--seed", "5",
        *extra,
    ]


def test_induce_roundtrip(workdir, capsys):
    rc = main([
        "induce", str(workdir / "train.csv"),
        "-o", str(workdir / "induced.txt"),
        "--max-depth", "2", "--min-leaf", "20",
    ])
    assert rc == 0
    from rulewatch import parse_ruleset, format_ruleset

    rs = parse_ruleset((workdir / "induced.txt").read_text())
    assert rs.n_rules >= 2
    assert parse_ruleset(format_ruleset(rs)) == rs


def test_induce_relays_each_warning_as_one_stderr_line(workdir, capsys):
    assert main(["induce", str(workdir / "train.csv"), "--max-depth", "1"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: only 2 rules induced; hit histograms this short carry little "
        "distribution information",
        "induced 2 rules from 4000 samples",
    ]


def test_induce_missing_label_column(workdir):
    rc = main([
        "induce", str(workdir / "train.csv"),
        "--label-column", "nope",
    ])
    assert rc == 1


def test_baseline_writes_bundle_and_prints_table(workdir, capsys):
    rc = main(_baseline_args(workdir))
    assert rc == 0
    out = capsys.readouterr().out
    assert "wmi" in out and "l1" in out and "l2" in out
    doc = json.loads((workdir / "base.json").read_text())
    assert doc["intervals"]["wmi"] is not None
    assert doc["intervals"]["rbi"] is None
    assert len(doc["training_hits"]["columns"]) == 12


@pytest.mark.parametrize("mode_args", [(), ("--mode", "group", "--nop", "4")])
def test_baseline_to_stdout_writes_only_the_bundle(workdir, capsys, mode_args):
    assert main(_baseline_args(workdir, extra=mode_args)) == 0
    to_file = capsys.readouterr()
    assert to_file.out.startswith("metric ")  # the interval table goes to stdout
    args = _baseline_args(workdir, extra=mode_args)
    args[args.index("-o") + 1] = "-"
    assert main(args) == 0
    piped = capsys.readouterr()
    assert piped.out == (workdir / "base.json").read_text()
    assert piped.err == to_file.err  # the fingerprint line
    bundle = BaselineBundle.from_document(piped.out)
    ruleset = parse_ruleset((workdir / "rules.txt").read_text())
    assert bundle.fingerprint == compute_fingerprint(ruleset, bundle.baselines.config)
    assert piped.err == f"fingerprint {bundle.fingerprint[:16]}\n"


def test_baseline_determinism_byte_identical(workdir):
    assert main(_baseline_args(workdir, out="b1.json")) == 0
    assert main(_baseline_args(workdir, out="b2.json")) == 0
    assert (workdir / "b1.json").read_bytes() == (workdir / "b2.json").read_bytes()


def test_baseline_group_mode_and_k(workdir):
    rc = main(_baseline_args(workdir, out="group.json", extra=("--mode", "group", "--nop", "4")))
    assert rc == 0
    doc = json.loads((workdir / "group.json").read_text())
    assert doc["config"]["n_op"] == 4
    assert "k" not in doc["config"]  # detection derives k = 12 - 4 - 1
    assert doc["intervals"]["rbi"] is not None


def test_baseline_group_mode_rejects_nop_1(workdir):
    rc = main(_baseline_args(workdir, out="bad.json", extra=("--mode", "group", "--nop", "1")))
    assert rc == 1


@pytest.mark.parametrize("mode", ["single", "group"])
def test_baseline_empty_ruleset_exits_1(workdir, capsys, mode):
    (workdir / "rules.txt").write_text("# no rules\n")
    rc = main(_baseline_args(workdir, out="empty.json", extra=("--mode", mode, "--nop", "4")))
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: ruleset has no rules" in err
    assert "Traceback" not in err
    assert not (workdir / "empty.json").exists()


def test_baseline_insufficient_data(workdir):
    rc = main([
        "baseline", str(workdir / "op_in.csv"),
        "--rules", str(workdir / "rules.txt"),
        "-o", str(workdir / "never.json"),
        "--ns", "200", "--ntr", "10",
    ])
    assert rc == 1


def test_detect_in_distribution_exit_0(workdir, capsys):
    main(_baseline_args(workdir))
    capsys.readouterr()
    rc = main([
        "detect", str(workdir / "op_in.csv"),
        "--rules", str(workdir / "rules.txt"),
        "--baseline", str(workdir / "base.json"),
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "in-distribution"


def test_detect_shifted_exit_3(workdir, capsys):
    main(_baseline_args(workdir))
    capsys.readouterr()
    rc = main([
        "detect", str(workdir / "op_out.csv"),
        "--rules", str(workdir / "rules.txt"),
        "--baseline", str(workdir / "base.json"),
    ])
    assert rc == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "OoD"
    assert any(m["flag"] for m in doc["metrics"].values())


def test_detect_fingerprint_mismatch_exit_2(workdir, capsys):
    main(_baseline_args(workdir))
    (workdir / "other_rules.txt").write_text("if x1 <= 0.9 then 1\n")
    rc = main([
        "detect", str(workdir / "op_out.csv"),
        "--rules", str(workdir / "other_rules.txt"),
        "--baseline", str(workdir / "base.json"),
    ])
    assert rc == 2


@pytest.mark.parametrize("command", ["detect", "stream"])
def test_baseline_with_a_fractional_count_exits_1(workdir, capsys, command):
    main(_baseline_args(workdir))
    doc = json.loads((workdir / "base.json").read_text())
    doc["training_hits"]["columns"][0][0] += 0.9  # used to load truncated
    (workdir / "base.json").write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main([
        command, str(workdir / "op_in.csv"),
        "--rules", str(workdir / "rules.txt"),
        "--baseline", str(workdir / "base.json"),
    ])
    assert rc == 1
    assert "malformed baseline document" in capsys.readouterr().err


def test_detect_csv_format(workdir, capsys):
    main(_baseline_args(workdir))
    capsys.readouterr()
    rc = main([
        "detect", str(workdir / "op_in.csv"),
        "--rules", str(workdir / "rules.txt"),
        "--baseline", str(workdir / "base.json"),
        "--format", "csv",
    ])
    assert rc == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["metric", "value", "base_min", "base_max", "flag", "verdict"]
    assert len(rows) == 4


@pytest.mark.parametrize(
    "mode_args, scored", [((), 250), (("--mode", "group", "--nop", "3", "--ns", "100"), 300)]
)
def test_detect_warns_about_ignored_trailing_rows(workdir, capsys, mode_args, scored):
    assert main(_baseline_args(workdir, extra=mode_args)) == 0
    lines = (workdir / "op_in.csv").read_text().splitlines(keepends=True)
    assert len(lines) == 401
    (workdir / "op_head.csv").write_text("".join(lines[: scored + 1]))
    capsys.readouterr()

    def detect(name):
        rc = main(["detect", str(workdir / name), "--rules", str(workdir / "rules.txt"),
                   "--baseline", str(workdir / "base.json")])
        return rc, capsys.readouterr()

    rc, out = detect("op_in.csv")
    assert out.err == (f"warning: scored the first {scored} of 400 rows; "
                       f"{400 - scored} trailing rows ignored\n")
    head_rc, head_out = detect("op_head.csv")
    assert (rc, out.out) == (head_rc, head_out.out)
    assert head_out.err == ""


@pytest.mark.parametrize("mode_args", [(), ("--mode", "group", "--nop", "3", "--ns", "100")])
def test_detect_refuses_a_nan_in_a_scored_row_with_streams_one_line(workdir, capsys, mode_args):
    # Both baselines leave trailing rows unscored, yet detect refuses the
    # NaN of data row 99 before it warns of them.
    assert main(_baseline_args(workdir, extra=mode_args)) == 0
    (workdir / "op_nan.csv").write_text("".join(_op_in_with_x2(workdir, 101, "nan")))
    common = ["--rules", str(workdir / "rules.txt"), "--baseline", str(workdir / "base.json")]
    errors = []
    for command in ("detect", "stream"):
        capsys.readouterr()
        assert main([command, str(workdir / "op_nan.csv"), *common]) == 1
        errors.append(capsys.readouterr().err)
    assert errors == ["error: row 99: feature 'x2' is NaN\n"] * 2


def _op_in_with_x2(workdir, line_no, cell):
    """op_in.csv's lines, with x2 on file line ``line_no`` (the header is line 1) set to ``cell``."""
    lines = (workdir / "op_in.csv").read_text().splitlines(keepends=True)
    x2 = lines[0].strip().split(",").index("x2")
    cells = lines[line_no - 1].rstrip("\r\n").split(",")
    cells[x2] = cell
    lines[line_no - 1] = ",".join(cells) + "\r\n"
    return lines


def _detect_single(workdir, capsys, lines):
    (workdir / "op_edited.csv").write_text("".join(lines))
    capsys.readouterr()
    rc = main(["detect", str(workdir / "op_edited.csv"), "--rules", str(workdir / "rules.txt"),
               "--baseline", str(workdir / "base.json")])
    return rc, capsys.readouterr()


def test_detect_parses_every_row_of_the_operational_file(workdir, capsys):
    # Only the first 250 of 400 rows are scored, but the whole file must parse.
    assert main(_baseline_args(workdir)) == 0
    rc, out = _detect_single(workdir, capsys, _op_in_with_x2(workdir, 351, "abc"))
    assert rc == 1
    assert "row 351, column 'x2': not a number" in out.err


def test_detect_ignores_a_nan_in_a_trailing_row(workdir, capsys):
    # A nan parses; it sits in an ignored row, so no rule ever evaluates it.
    assert main(_baseline_args(workdir)) == 0
    with_nan = _op_in_with_x2(workdir, 351, "nan")
    rc, out = _detect_single(workdir, capsys, with_nan)
    rc_without, out_without = _detect_single(workdir, capsys, with_nan[:350] + with_nan[351:])
    assert (rc, out.out) == (rc_without, out_without.out)
    assert "399 rows" in out_without.err and "400 rows" in out.err


@pytest.mark.parametrize("command", ["baseline", "detect", "stream"])
def test_malformed_rule_line_exits_1_naming_line_and_column(workdir, capsys, command):
    assert main(_baseline_args(workdir)) == 0
    (workdir / "rules.txt").write_text("if x1 <= 0.5 then 1\nif x2 >> 1 then 2\n")
    capsys.readouterr()
    if command == "baseline":
        argv = _baseline_args(workdir, out="never.json")
    else:
        argv = [command, str(workdir / "op_in.csv"), "--rules", str(workdir / "rules.txt"),
                "--baseline", str(workdir / "base.json")]
    assert main(argv) == 1
    assert "line 2, column" in capsys.readouterr().err


def test_stream_emits_tick_csv(workdir, tmp_path):
    main(_baseline_args(workdir))
    rc = main([
        "stream", str(workdir / "op_in.csv"),
        "--rules", str(workdir / "rules.txt"),
        "--baseline", str(workdir / "base.json"),
        "-o", str(tmp_path / "ticks.csv"),
    ])
    assert rc == 0
    rows = list(csv.reader((tmp_path / "ticks.csv").read_text().splitlines()))
    assert rows[0] == list(
        ("sample_index", "metric", "value", "base_min", "base_max", "flag", "verdict")
    )
    # 400 rows, window 250 -> 151 ticks x 3 metrics
    assert len(rows) - 1 == 151 * 3


def test_stream_drift_raises_flags_at_finite_tick(workdir, tmp_path):
    main(_baseline_args(workdir))
    rc = main([
        "stream", str(workdir / "op_out.csv"),
        "--rules", str(workdir / "rules.txt"),
        "--baseline", str(workdir / "base.json"),
        "-o", str(tmp_path / "ticks.csv"),
    ])
    assert rc == 0
    rows = list(csv.reader((tmp_path / "ticks.csv").read_text().splitlines()))[1:]
    flagged_ticks = [int(r[0]) for r in rows if r[5] == "1"]
    assert flagged_ticks  # shifted stream must trip a flag at some finite tick


def test_stream_window_override_warns(workdir, tmp_path, capsys):
    main(_baseline_args(workdir))
    capsys.readouterr()
    rc = main([
        "stream", str(workdir / "op_in.csv"),
        "--rules", str(workdir / "rules.txt"),
        "--baseline", str(workdir / "base.json"),
        "--ns", "100",
        "-o", str(tmp_path / "ticks.csv"),
    ])
    assert rc == 0
    assert "differs from the baseline" in capsys.readouterr().err


def test_config_file_with_flag_override(workdir, capsys):
    cfg = workdir / "run.cfg"
    cfg.write_text("n_s = 100\nn_tr = 10\nseed = 5\n# comment\n")
    rc = main([
        "baseline", str(workdir / "train.csv"),
        "--rules", str(workdir / "rules.txt"),
        "-o", str(workdir / "cfged.json"),
        "--config", str(cfg),
        "--ns", "150",  # flag overrides file
    ])
    assert rc == 0
    doc = json.loads((workdir / "cfged.json").read_text())
    assert doc["config"]["n_s"] == 150
    assert doc["config"]["n_tr"] == 10


def test_unknown_config_key_rejected(workdir):
    cfg = workdir / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    rc = main(_baseline_args(workdir, extra=("--config", str(cfg))))
    assert rc == 1


def test_eval_synthetic_smoke(capsys):
    rc = main([
        "eval", "--synthetic", "rule-aligned", "--shift", "1:0.8,2:0.8",
        "--ns", "150", "--ntr", "6", "--repetitions", "3",
        "--max-depth", "2", "--min-leaf", "10", "--seed", "3",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["repetitions"] == 3
    assert doc["fnr"] == 0.0
    assert 0.0 <= doc["fpr"] <= 1.0


def test_eval_document_omits_settings_eval_does_not_read(tmp_path):
    (tmp_path / "run.cfg").write_text("metrics = wmi\nstride = 5\n")
    rc = main([
        "eval", "--synthetic", "rule-aligned", "--shift", "1:0.8,2:0.8",
        "--config", str(tmp_path / "run.cfg"), "-o", str(tmp_path / "eval.json"),
        "--ns", "150", "--ntr", "6", "--repetitions", "2",
        "--max-depth", "2", "--min-leaf", "10", "--seed", "3",
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "eval.json").read_text())
    assert not {"metrics", "stride", "snapshot_stride"} & set(doc["config"])
    assert doc["config"]["n_s"] == 150
    metrics = {"wmi", "l1", "l2"}
    assert set(doc["per_metric_fp_rates"]) == set(doc["per_metric_detect_rates"]) == metrics


def test_eval_csv_pair_smoke(tmp_path, capsys):
    rng = np.random.default_rng(17)
    src = RuleAlignedSource(n_features=3)
    src.sample(3000, rng).to_csv(tmp_path / "in.csv")
    src.shifted({1: 0.8}).sample(1500, rng).to_csv(tmp_path / "out.csv")
    rc = main([
        "eval", "--in-csv", str(tmp_path / "in.csv"), "--op-csv", str(tmp_path / "out.csv"),
        "--ns", "100", "--ntr", "5", "--repetitions", "2",
        "--max-depth", "2", "--min-leaf", "10", "--seed", "3",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["repetitions"] == 2


def test_featurize_rolling_moments(workdir, tmp_path, capsys):
    rc = main([
        "featurize", str(workdir / "op_in.csv"),
        "--window", "50", "--columns", "x1,x2",
        "-o", str(tmp_path / "features.csv"),
    ])
    assert rc == 0
    rows = list(csv.reader((tmp_path / "features.csv").read_text().splitlines()))
    assert rows[0][:4] == ["x1_mean", "x1_variance", "x1_skewness", "x1_kurtosis"]
    assert len(rows) - 1 == 400 - 50 + 1
    first = [float(v) for v in rows[1]]
    assert 0.3 < first[0] < 0.7  # uniform [0,1] mean


def test_featurize_output_feeds_induce_and_baseline(tmp_path, capsys):
    # Labelled demo-style data: featurize carries each window's label (that
    # of its last row) as the last column, so induce and baseline read the
    # moment table as they read raw data.
    source = GaussianMixtureSource(n_features=6, informative=(0, 1, 2, 3), class_sep=1.5)
    raw = source.sample(3000, np.random.default_rng(8))
    raw.to_csv(tmp_path / "train.csv")
    features = tmp_path / "features.csv"
    assert main(["featurize", str(tmp_path / "train.csv"), "--window", "20",
                 "--columns", "x1,x2", "-o", str(features)]) == 0
    rows = list(csv.reader(features.read_text().splitlines()))
    assert rows[0] == [f"{x}_{m}" for x in ("x1", "x2")
                       for m in ("mean", "variance", "skewness", "kurtosis")] + ["label"]
    assert [r[-1] for r in rows[1:]] == list(raw.labels[19:])
    rules = tmp_path / "rules.txt"
    assert main(["induce", str(features), "-o", str(rules),
                 "--max-depth", "3", "--min-leaf", "50"]) == 0
    assert "_mean" in rules.read_text() or "_variance" in rules.read_text()
    assert main(["baseline", str(features), "--rules", str(rules), "-o", str(tmp_path / "b.json"),
                 "--ns", "200", "--ntr", "10", "--seed", "1"]) == 0
    assert "error" not in capsys.readouterr().err


def test_featurize_unknown_column(workdir, capsys):
    rc = main([
        "featurize", str(workdir / "op_in.csv"),
        "--window", "10", "--columns", "zz",
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {workdir / 'op_in.csv'}: feature 'zz' not in columns ['x1', 'x2', 'x3']\n"
    )


def test_nan_input_exits_1(workdir, capsys):
    main(_baseline_args(workdir))
    nan_csv = workdir / "nan.csv"
    nan_csv.write_text("x1,x2,x3\n" + "nan,nan,nan\n" * 300)
    common = ["--rules", str(workdir / "rules.txt")]
    with_base = [*common, "--baseline", str(workdir / "base.json")]
    assert main(["detect", str(nan_csv), *with_base]) == 1
    assert main(["stream", str(nan_csv), *with_base, "-o", str(workdir / "t.csv")]) == 1
    assert main(["baseline", str(nan_csv), *common, "-o", str(workdir / "b.json"),
                 "--ns", "10", "--ntr", "12"]) == 1
    labelled = workdir / "nan_labelled.csv"
    labelled.write_text("x1,x2,x3,label\n" + "nan,nan,nan,0\nnan,nan,nan,1\n" * 150)
    assert main(["induce", str(labelled), "-o", str(workdir / "r.txt")]) == 1
    assert capsys.readouterr().err.count("is NaN") == 4


def test_nan_errors_name_the_data_row_that_holds_it(workdir, capsys):
    # baseline shuffles rows into splits, yet names the NaN by its 0-based
    # data row, as induce and featurize do; featurize writes nothing.
    lines = (workdir / "train.csv").read_text().splitlines(keepends=True)
    assert lines[0].startswith("x1,x2,")
    lines[100] = "nan," + lines[100].split(",", 1)[1]  # data row 99
    nan_csv = workdir / "nan_train.csv"
    nan_csv.write_text("".join(lines))
    features = workdir / "features.csv"
    capsys.readouterr()
    assert main(["baseline", str(nan_csv), "--rules", str(workdir / "rules.txt"),
                 "-o", str(workdir / "b.json"), "--ns", "250", "--ntr", "12", "--seed", "5"]) == 1
    assert main(["induce", str(nan_csv), "-o", str(workdir / "r.txt")]) == 1
    assert main(["featurize", str(nan_csv), "--window", "20", "-o", str(features)]) == 1
    assert capsys.readouterr().err == "error: row 99: feature 'x1' is NaN\n" * 3
    assert not features.exists() and not (workdir / "b.json").exists()
    # A NaN in a column featurize does not read is no error.
    assert main(["featurize", str(nan_csv), "--window", "20", "--columns", "x2,x3",
                 "-o", str(features)]) == 0
    assert len(features.read_text().splitlines()) == 1 + 4000 - 19


def _subparsers():
    from rulewatch.cli import build_parser

    parser = build_parser()
    return parser._subparsers._group_actions[0].choices


@pytest.mark.parametrize(
    "command, accepted",
    [
        ("induce", {"--config", "--label-column", "--max-depth", "--min-leaf"}),
        ("baseline", {"--config", "--seed", "--ns", "--ntr", "--nop", "--mode"}),
        ("detect", {"--config", "--metrics"}),
        ("stream", {"--config", "--ns", "--stride", "--metrics"}),
        ("eval", {"--config", "--seed", "--ns", "--ntr", "--nop", "--mode",
                  "--label-column", "--repetitions", "--max-depth", "--min-leaf"}),
        ("featurize", {"--config", "--label-column"}),
    ],
)
def test_each_subcommand_registers_only_the_run_flags_it_reads(command, accepted):
    run_flags = {"--config", "--seed", "--ns", "--ntr", "--nop", "--mode", "--stride",
                 "--sigma-floor", "--label-column", "--metrics", "--repetitions",
                 "--max-depth", "--min-leaf", "--full-scale"}
    options = {s for a in _subparsers()[command]._actions for s in a.option_strings}
    assert options & run_flags == accepted


_VALID_ARGS = {
    "induce": ["induce", "train.csv"],
    "baseline": ["baseline", "train.csv", "--rules", "rules.txt"],
    "detect": ["detect", "op.csv", "--rules", "rules.txt", "--baseline", "base.json"],
    "stream": ["stream", "op.csv", "--rules", "rules.txt", "--baseline", "base.json"],
    "eval": ["eval", "--synthetic", "gaussian", "--shift", "1:1.0"],
    "featurize": ["featurize", "op.csv", "--window", "5"],
}


@pytest.mark.parametrize(
    "command, flag",
    [
        (command, flag)
        for command, unread in [
            ("induce", ["--stride", "2"]),
            ("baseline", ["--repetitions", "5"]),
            ("detect", ["--repetitions", "5"]),
            ("stream", ["--nop", "3"]),
            ("eval", ["--stride", "2"]),
            ("featurize", ["--seed", "3"]),
        ]
        for flag in (["--bogus", "1"], unread)
    ],
)
def test_unknown_or_unread_flag_is_a_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*_VALID_ARGS[command], *flag])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["baseline", "eval"])
def test_sigma_floor_is_neither_a_flag_nor_a_config_key(tmp_path, capsys, command):
    # Every group bank is fitted with one fixed floor; baselines record it.
    with pytest.raises(SystemExit) as exc:
        main([*_VALID_ARGS[command], "--sigma-floor", "1e-3"])
    assert exc.value.code == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma_floor = 1e-6\n")
    capsys.readouterr()
    assert main([*_VALID_ARGS[command], "--config", str(cfg)]) == 1
    assert "unknown config key 'sigma_floor'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["detect", "--help"], ["eval", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_full_scale_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main([*_VALID_ARGS["eval"], "--full-scale"])
    assert exc.value.code == 1


def test_group_detect_ignores_k_and_fingerprints_n_op(workdir, source, capsys):
    assert main(_baseline_args(workdir, out="group.json", extra=("--mode", "group", "--nop", "4"))) == 0
    doc = json.loads((workdir / "group.json").read_text())
    source.sample(1000, np.random.default_rng(5)).to_csv(workdir / "op_group.csv")  # 4 x 250
    detect = ["detect", str(workdir / "op_group.csv"), "--rules", str(workdir / "rules.txt"),
              "--baseline", str(workdir / "edited.json")]

    def run(edited):
        (workdir / "edited.json").write_text(json.dumps(edited))
        capsys.readouterr()
        rc = main(detect)
        return rc, capsys.readouterr()

    rc, out = run(doc)
    assert rc in (0, 3) and json.loads(out.out)["metrics"]["rbi"]["votes_total"] == 1
    for k in (3, 5.7, 7):  # 7 is the derived 12 - 4 - 1
        assert run({**doc, "config": {**doc["config"], "k": k}}) == (rc, out)
    rc, out = run({**doc, "config": {**doc["config"], "n_op": 3}})
    assert rc == 2
    assert "fingerprint" in out.err


@pytest.mark.parametrize("command", ["detect", "stream"])
def test_baseline_whose_n_s_contradicts_its_split_size_exits_1(workdir, capsys, command):
    main(_baseline_args(workdir))
    doc = json.loads((workdir / "base.json").read_text())
    assert doc["training_hits"]["split_size"] == 250
    doc["config"]["n_s"] = 200
    (workdir / "base.json").write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main([
        command, str(workdir / "op_in.csv"),
        "--rules", str(workdir / "rules.txt"),
        "--baseline", str(workdir / "base.json"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "malformed baseline document" in err
    assert "config n_s 200 differs from the training split size 250" in err


# -- output columns -------------------------------------------------------------

_REPORT_COLUMNS = ["metric", "value", "base_min", "base_max", "flag", "verdict"]
_GROUP_ARGS = ("--mode", "group", "--nop", "3", "--ns", "100")


@pytest.mark.parametrize("mode_args, metrics", [((), "wmi l1 l2"), (_GROUP_ARGS, "rbi l1 l2")])
def test_detect_csv_rows_follow_the_json_report(workdir, capsys, mode_args, metrics):
    assert main(_baseline_args(workdir, extra=mode_args)) == 0
    argv = ["detect", str(workdir / "op_out.csv"), "--rules", str(workdir / "rules.txt"),
            "--baseline", str(workdir / "base.json")]
    capsys.readouterr()
    rc_json = main(argv)
    doc = json.loads(capsys.readouterr().out)
    rc_csv = main([*argv, "--format", "csv"])
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rc_csv == rc_json
    assert rows[0] == _REPORT_COLUMNS
    assert [r[0] for r in rows[1:]] == metrics.split()
    for name, value, lo, hi, flag, verdict in rows[1:]:
        m = doc["metrics"][name]
        assert [float(lo), float(hi)] == m["baseline"]
        assert (flag, verdict) == (str(int(m["flag"])), doc["verdict"])
        assert float(value) == statistics.median(float(v) for v in m["values"])


@pytest.mark.parametrize("mode_args", [(), _GROUP_ARGS])
def test_detect_checks_the_request_before_reading_and_once_to_score(workdir, capsys,
                                                                     request_checks, mode_args):
    assert main(_baseline_args(workdir, extra=mode_args)) == 0
    assert main(["detect", str(workdir / "op_out.csv"), "--rules", str(workdir / "rules.txt"),
                 "--baseline", str(workdir / "base.json")]) in (0, 3)
    assert len(request_checks) == 2


@pytest.mark.parametrize("mode_args, metrics", [((), 3), (_GROUP_ARGS, 3)])
def test_stream_tick_rows_keep_their_columns(workdir, tmp_path, mode_args, metrics):
    assert main(_baseline_args(workdir, extra=mode_args)) == 0
    rc = main(["stream", str(workdir / "op_in.csv"), "--rules", str(workdir / "rules.txt"),
               "--baseline", str(workdir / "base.json"), "-o", str(tmp_path / "ticks.csv")])
    assert rc == 0
    rows = list(csv.reader((tmp_path / "ticks.csv").read_text().splitlines()))
    assert rows[0] == ["sample_index", *_REPORT_COLUMNS]
    assert rows[1:] and all(len(r) == 7 for r in rows[1:])
    indices = [int(r[0]) for r in rows[1:]]
    assert indices == sorted(indices) and indices[-1] == 399  # the last of 400 rows
    assert len(rows) - 1 == len(set(indices)) * metrics


@pytest.mark.parametrize("mode_args, unit_rows", [((), 250), (_GROUP_ARGS, 300)])
def test_detect_csv_body_is_the_stream_tick_on_one_unit(workdir, tmp_path, capsys,
                                                         mode_args, unit_rows):
    # A file of exactly one unit (n_s rows, n_op * n_s in group mode) gives
    # stream a single tick, at its last row, on the unit detect scores.
    assert main(_baseline_args(workdir, extra=mode_args)) == 0
    lines = (workdir / "op_out.csv").read_text().splitlines(keepends=True)
    unit = workdir / "unit.csv"
    unit.write_text("".join(lines[: unit_rows + 1]))
    common = ["--rules", str(workdir / "rules.txt"), "--baseline", str(workdir / "base.json")]
    capsys.readouterr()
    assert main(["detect", str(unit), *common, "--format", "csv"]) in (0, 3)
    detected = capsys.readouterr().out.splitlines()
    assert main(["stream", str(unit), *common, "-o", str(tmp_path / "ticks.csv")]) == 0
    streamed = (tmp_path / "ticks.csv").read_text().splitlines()
    assert len(detected) == len(streamed) == 4
    assert streamed[1:] == [f"{unit_rows - 1},{line}" for line in detected[1:]]


# -- input policies ---------------------------------------------------------------

def _feed_fifo(tmp_path, data: bytes) -> str:
    """A named pipe that a background thread fills with ``data`` once."""
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(data)

    threading.Thread(target=feed, daemon=True).start()
    return str(fifo)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("command", ["featurize", "detect"])
def test_a_named_pipe_reads_like_its_file(workdir, tmp_path, capsys, command):
    assert main(_baseline_args(workdir)) == 0
    tail = (["--window", "20", "--columns", "x1,x3"] if command == "featurize" else
            ["--rules", str(workdir / "rules.txt"), "--baseline", str(workdir / "base.json")])
    capsys.readouterr()
    rc_file = main([command, str(workdir / "op_out.csv"), *tail])
    from_file = capsys.readouterr()
    rc_pipe = main([command, _feed_fifo(tmp_path, (workdir / "op_out.csv").read_bytes()), *tail])
    from_pipe = capsys.readouterr()
    assert (rc_pipe, from_pipe.out) == (rc_file, from_file.out)
    assert from_file.out and "error" not in from_pipe.err


def test_featurize_reads_dev_stdin_from_a_pipe(workdir):
    argv = ["featurize", "--window", "4", "--columns", "x1"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "rulewatch.cli", argv[0], "/dev/stdin", *argv[1:]],
        input=(workdir / "op_in.csv").read_bytes(), capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.decode().splitlines()) == 1 + 400 - 3


@pytest.mark.parametrize("command", ["induce", "eval"])
def test_a_missing_label_column_is_named(workdir, capsys, command):
    data = str(workdir / "train.csv")
    argv = (["induce", data] if command == "induce" else
            ["eval", "--in-csv", data, "--op-csv", data, "--repetitions", "1"])
    assert main([*argv, "--label-column", "nope"]) == 1
    assert "label column 'nope'" in capsys.readouterr().err


def test_a_cell_over_the_csv_field_limit_exits_1(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text("x1,x2\n1,2\n3," + "x" * 200_000 + "\n")
    assert main(["featurize", str(big), "--window", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 3" in err and "field larger than field limit" in err


@pytest.mark.parametrize("command", ["baseline", "detect", "stream"])
def test_an_all_digit_cell_over_the_csv_field_limit_exits_1(workdir, capsys, command):
    # numpy's reader would convert it, to inf; the csv module refuses it.
    assert main(_baseline_args(workdir)) == 0
    name = "train.csv" if command == "baseline" else "op_in.csv"
    lines = (workdir / name).read_text().splitlines(keepends=True)
    lines[2] = "1" * 200_000 + "," + lines[2].split(",", 1)[1]
    big = workdir / "big.csv"
    big.write_text("".join(lines))
    rules = ["--rules", str(workdir / "rules.txt")]
    argv = (_baseline_args(workdir, out="big.json") if command == "baseline" else
            [command, str(big), *rules, "--baseline", str(workdir / "base.json")])
    argv[1] = str(big)
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {big}: row 3: field larger than field limit (131072)\n"
    assert len(out.splitlines()) == (command == "stream")  # stream's header, no tick


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e400"])
def test_featurize_refuses_an_infinite_cell_before_writing(workdir, capsys, cell):
    lines = (workdir / "train.csv").read_text().splitlines(keepends=True)
    lines[100] = cell + "," + lines[100].split(",", 1)[1]  # data row 99
    inf_csv = workdir / "inf_train.csv"
    inf_csv.write_text("".join(lines))
    features = workdir / "features.csv"
    assert main(["featurize", str(inf_csv), "--window", "20", "-o", str(features)]) == 1
    assert capsys.readouterr().err == "error: row 99: feature 'x1' is infinite\n"
    assert not features.exists()


@pytest.mark.parametrize("cells", [("inf",), ("-inf", "inf")], ids=["inf", "-inf-and-inf"])
def test_induce_refuses_an_infinite_cell_before_writing(workdir, capsys, cells):
    # induce names the first, as featurize does: rules induced over an
    # infinite cell read "x1 <= inf", which baseline refuses, and cells of
    # both signs give a threshold of NaN.
    lines = (workdir / "train.csv").read_text().splitlines(keepends=True)
    for row, cell in zip((99, 199), cells):
        lines[row + 1] = cell + "," + lines[row + 1].split(",", 1)[1]
    inf_csv = workdir / "inf_train.csv"
    inf_csv.write_text("".join(lines))
    rules = workdir / "inf_rules.txt"
    assert main(["induce", str(inf_csv), "-o", str(rules)]) == 1
    assert capsys.readouterr().err == "error: row 99: feature 'x1' is infinite\n"
    assert not rules.exists()


def test_featurize_stops_before_a_window_whose_moments_overflow(workdir, capsys):
    # 1e80 is finite, but its fourth power is not: the window ending at
    # data row 10 is the first to hold it.
    lines = (workdir / "op_in.csv").read_text().splitlines(keepends=True)
    lines[11] = "1e80," + lines[11].split(",", 1)[1]
    big = workdir / "big.csv"
    big.write_text("".join(lines))
    features = workdir / "features.csv"
    assert main(["featurize", str(big), "--window", "5", "-o", str(features)]) == 1
    assert capsys.readouterr().err == (
        "error: row 10: feature 'x1': the moments of its window overflow\n"
    )
    rows = list(csv.reader(features.read_text().splitlines()))
    assert len(rows) == 1 + 6  # the windows ending at data rows 4 to 9
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row[:-1])


@pytest.mark.parametrize("step", [1e-85, 1e-70])
def test_featurize_stops_before_a_window_whose_kurtosis_underflows(tmp_path, capsys, step):
    # Offsets of 1e-85 have fourth powers below the smallest normal float;
    # at 1e-70 they are still exact enough. The true kurtosis is 1.64.
    (tmp_path / "tiny.csv").write_text(f"x1\n0\n{step}\n{2 * step}\n{3 * step}\n")
    capsys.readouterr()
    rc = main(["featurize", str(tmp_path / "tiny.csv"), "--window", "4"])
    out, err = capsys.readouterr()
    if step == 1e-85:
        assert rc == 1
        assert err == "error: row 3: feature 'x1': the moments of its window underflow\n"
        assert out.splitlines() == ["x1_mean,x1_variance,x1_skewness,x1_kurtosis"]
    else:
        assert (rc, err) == (0, "")
        assert float(out.splitlines()[1].split(",")[3]) == pytest.approx(1.64, abs=1e-9)


@pytest.mark.parametrize("window", ["0", "3"])
def test_featurize_rejects_a_window_below_4_before_reading(tmp_path, capsys, window):
    # Every row featurize writes is a full moment query, which needs 4
    # samples; the input does not exist, so the rejection comes first.
    with pytest.raises(SystemExit) as exc:
        main(["featurize", str(tmp_path / "missing.csv"), "--window", window])
    assert exc.value.code == 1
    assert f"argument --window: must be at least 4 (kurtosis needs 4), got {window}" in (
        capsys.readouterr().err
    )


def test_snapshot_stride_is_not_a_config_key(tmp_path):
    # The group stream takes a snapshot every capacity pushes, so its group
    # is the last n_op disjoint windows; no knob spaces them.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snapshot_stride = 4\n")
    with pytest.raises(DataError, match="unknown config key 'snapshot_stride'"):
        load_config_file(cfg)


@pytest.mark.parametrize("mode_args, stride", [((), 1), ((), 3), (_GROUP_ARGS, 1)])
def test_stream_writes_every_tick_as_its_report_rows(workdir, tmp_path, mode_args, stride):
    # stream renders a report's rows once and writes "{index}," before each
    # rendered row on every tick that returns that report again; the file
    # must equal csv.writer over (index, *row) for every tick's csv_rows(),
    # on ticks that scored a new report and on ticks that reused one,
    # across a verdict change.
    assert main(_baseline_args(workdir, extra=mode_args)) == 0
    shifted = (workdir / "op_out.csv").read_text().splitlines(keepends=True)[1:]
    (workdir / "drift.csv").write_text((workdir / "op_in.csv").read_text() + "".join(shifted))
    ticks = tmp_path / "ticks.csv"
    rc = main(["stream", str(workdir / "drift.csv"), "--rules", str(workdir / "rules.txt"),
               "--baseline", str(workdir / "base.json"), "--stride", str(stride),
               "-o", str(ticks)])
    assert rc == 0
    bundle = BaselineBundle.from_document((workdir / "base.json").read_text())
    monitor = StreamMonitor(parse_ruleset((workdir / "rules.txt").read_text()),
                            bundle.baselines, bundle.training, detect_stride=stride)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(("sample_index", *_REPORT_COLUMNS))
    report, scored, reused = None, 0, 0
    with open(workdir / "drift.csv", newline="") as fh:
        for index, record in enumerate(csv.DictReader(fh)):
            tick = monitor.push({name: float(cell) for name, cell in record.items()})
            if tick is not None:
                scored, reused = scored + (tick is not report), reused + (tick is report)
                report = tick
                writer.writerows((index, *row) for row in tick.csv_rows())
    got = ticks.read_bytes().decode().splitlines(keepends=True)
    want = expected.getvalue().splitlines(keepends=True)
    assert len(got) == len(want)
    assert next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None) is None
    assert scored > 1 and reused > 0
    assert {line.rstrip().rsplit(",", 1)[1] for line in want[1:]} == {"in-distribution", "OoD"}


@pytest.mark.parametrize("cells, count", [("0.1,0.2,0.3,1,extra", 5), ("0.1,0.2,0.3", 3)])
def test_stream_rejects_a_ragged_row(workdir, tmp_path, capsys, cells, count):
    assert main(_baseline_args(workdir)) == 0
    lines = (workdir / "op_in.csv").read_text().splitlines(keepends=True)
    lines[300] = cells + "\r\n"  # file row 301
    (workdir / "ragged.csv").write_text("".join(lines))
    capsys.readouterr()
    rc = main(["stream", str(workdir / "ragged.csv"), "--rules", str(workdir / "rules.txt"),
               "--baseline", str(workdir / "base.json"), "-o", str(tmp_path / "ticks.csv")])
    assert rc == 1
    assert f"row 301 has {count} cells, expected 4" in capsys.readouterr().err


def test_stream_skips_blank_lines_like_detect(workdir, tmp_path):
    assert main(_baseline_args(workdir)) == 0
    lines = (workdir / "op_in.csv").read_text().splitlines(keepends=True)
    lines.insert(5, "  \t \n")  # file row 6
    (workdir / "blank.csv").write_text("".join(lines))
    common = ["--rules", str(workdir / "rules.txt"), "--baseline", str(workdir / "base.json")]
    assert main(["detect", str(workdir / "blank.csv"), *common]) == 0
    for name in ("op_in", "blank"):
        ticks = str(tmp_path / f"{name}.ticks")
        assert main(["stream", str(workdir / f"{name}.csv"), *common, "-o", ticks]) == 0
    assert (tmp_path / "blank.ticks").read_bytes() == (tmp_path / "op_in.ticks").read_bytes()


_SMALL_EVAL = ["--ns", "100", "--ntr", "5", "--max-depth", "2", "--min-leaf", "10"]
_GAUSSIAN = ["--synthetic", "gaussian", "--shift", "2:1"]
_CSV_PAIR = ["--in-csv", "{w}/train.csv", "--op-csv", "{w}/op_in.csv"]
_ONE_SOURCE = "eval takes one source: --in-csv with --op-csv, or --synthetic with --shift"
# name: (the interval in the document, as the error message prints it)
_BAD_INTERVALS = {
    "l1-short": ([0.1], "(0.1,)"),
    "l1-long": ([0.1, 0.2, 0.3], "(0.1, 0.2, 0.3)"),
    "l1-text": ("ab", "('a', 'b')"),
    "wmi-strings": (["0.1", "0.2"], "('0.1', '0.2')"),
}


@pytest.mark.parametrize("argv, message", [
    pytest.param(["eval", *_GAUSSIAN, *_SMALL_EVAL, "--repetitions", "0"],
                 "repetitions must be at least 1, got 0", id="eval-repetitions-0"),
    pytest.param(["eval", *_GAUSSIAN, *_SMALL_EVAL, "--repetitions", "-1"],
                 "repetitions must be at least 1, got -1", id="eval-repetitions-negative"),
    pytest.param(["eval", *_GAUSSIAN, *_SMALL_EVAL, "--config", "{w}/reps.cfg"],
                 "repetitions must be at least 1, got 0", id="eval-repetitions-0-in-config"),
    pytest.param(["eval", "--synthetic", "gaussian", "--shift", "9:1", *_SMALL_EVAL,
                  "--repetitions", "1"],
                 "bad --shift entry '9:1'; positions run from 1 to 6", id="eval-shift-past-x6"),
    pytest.param(["eval", "--synthetic", "gaussian", "--shift", "2:1,0:1", *_SMALL_EVAL,
                  "--repetitions", "1"],
                 "bad --shift entry '0:1'; positions run from 1 to 6", id="eval-shift-position-0"),
    pytest.param(["eval", "--synthetic", "gaussian", "--shift", "2:1,3:1,2:3", *_SMALL_EVAL,
                  "--repetitions", "1"],
                 "position 2 is named twice in --shift", id="eval-shift-repeated-position"),
    pytest.param(["eval", "--in-csv", "{w}/train.csv", *_SMALL_EVAL, "--repetitions", "1"],
                 _ONE_SOURCE, id="eval-lone-in-csv"),
    pytest.param(["eval", "--op-csv", "{w}/op_in.csv", *_SMALL_EVAL, "--repetitions", "1"],
                 _ONE_SOURCE, id="eval-lone-op-csv"),
    pytest.param(["eval", "--op-csv", "{w}/op_in.csv", *_GAUSSIAN, *_SMALL_EVAL,
                  "--repetitions", "1"],
                 _ONE_SOURCE, id="eval-op-csv-with-synthetic"),
    pytest.param(["eval", *_CSV_PAIR, "--synthetic", "rule-aligned", *_SMALL_EVAL,
                  "--repetitions", "1"],
                 _ONE_SOURCE, id="eval-csv-pair-with-synthetic"),
    pytest.param(["eval", *_CSV_PAIR, "--shift", "1:1", *_SMALL_EVAL, "--repetitions", "1"],
                 _ONE_SOURCE, id="eval-csv-pair-with-shift"),
    pytest.param(["featurize", "{w}/op_in.csv", "--window", "4", "--columns", "x2,x1,x2"],
                 "column 'x2' is named twice in --columns", id="featurize-repeated-column"),
    # The source does not exist: the request is refused before any row is read.
    pytest.param(["stream", "{w}/missing.csv", "--rules", "{w}/rules.txt",
                  "--baseline", "{w}/base.json", "--metrics", "bogus", "-o", "{w}/ticks.csv"],
                 "unknown single-split metric 'bogus'", id="stream-unknown-metric"),
    pytest.param(["detect", "{w}/missing.csv", "--rules", "{w}/rules.txt",
                  "--baseline", "{w}/base.json", "--metrics", "bogus"],
                 "unknown single-split metric 'bogus'", id="detect-unknown-metric"),
    # An empty window is refused before the window-size warning could run.
    pytest.param(["stream", "{w}/op_in.csv", "--rules", "{w}/rules.txt",
                  "--baseline", "{w}/base.json", "--ns", "0", "-o", "{w}/ticks.csv"],
                 "capacity must be >= 1, got 0", id="stream-empty-window"),
    # An empty selection scores nothing, in either command.
    *(pytest.param([*command, "{w}/op_250.csv", "--rules", "{w}/rules.txt",
                    "--baseline", "{w}/base.json", *selection],
                   "no metric selected; single-split metrics are wmi, l1, l2",
                   id=f"{command[0]}-{name}")
      for command in (["stream", "-o", "{w}/ticks.csv"], ["detect"])
      for name, selection in (("empty-metrics", ["--metrics", ""]),
                              ("comma-metrics", ["--metrics", ","]),
                              ("empty-metrics-in-config", ["--config", "{w}/nometrics.cfg"]))),
    *(pytest.param(["detect", "{w}/op_250.csv", "--rules", "{w}/rules.txt",
                    "--baseline", f"{{w}}/{name}.json"],
                   f"malformed baseline document: {name.split('-')[0]} interval must be a pair "
                   f"of numbers, got {got}", id=f"detect-{name}-interval")
      for name, (_, got) in _BAD_INTERVALS.items()),
])
def test_bad_input_exits_1_with_an_error_line(workdir, capsys, argv, message):
    (workdir / "reps.cfg").write_text("repetitions = 0\n")
    (workdir / "nometrics.cfg").write_text("metrics =\n")
    if argv[0] in ("stream", "detect"):
        assert main(_baseline_args(workdir)) == 0
        # 250 rows: exactly one split, so detect warns of no trailing rows
        lines = (workdir / "op_in.csv").read_text().splitlines(keepends=True)
        (workdir / "op_250.csv").write_text("".join(lines[:251]))
        doc = json.loads((workdir / "base.json").read_text())
        for name, (interval, _) in _BAD_INTERVALS.items():
            metric = name.split("-")[0]
            bad = {**doc, "intervals": {**doc["intervals"], metric: interval}}
            (workdir / f"{name}.json").write_text(json.dumps(bad))
    capsys.readouterr()
    assert main([arg.format(w=workdir) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not (workdir / "ticks.csv").exists()


# -- the stream's record policy -------------------------------------------------
# stream builds each record from the columns the rules read; a cell no rule
# reads is never converted, and the output is what a record of every column
# gave.

def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _stream_stdout(workdir, capsys, name, rows):
    """(exit code, stdout, stderr) of ``stream`` over ``rows`` written as a CSV file."""
    (workdir / name).write_text(_csv_text(rows))
    capsys.readouterr()
    rc = main(["stream", str(workdir / name), "--rules", str(workdir / "rules.txt"),
               "--baseline", str(workdir / "base.json")])
    out, err = capsys.readouterr()
    return rc, out, err


_TICK_HEADER = "sample_index," + ",".join(_REPORT_COLUMNS) + "\r\n"


@pytest.mark.parametrize("case", [
    "text-in-unread-columns", "text-in-a-read-column", "nan-in-a-read-column",
    "repeated-name", "missing-read-feature", "missing-read-feature-header-only",
])
def test_stream_record_policy(workdir, capsys, case):
    # The rules read x1, x2 and x3; label and note are read by none.
    assert main(_baseline_args(workdir)) == 0
    rows = list(csv.reader((workdir / "op_in.csv").read_text().splitlines()))
    header, body = rows[0], rows[1:]
    assert header == ["x1", "x2", "x3", "label"]
    clean = _stream_stdout(workdir, capsys, "clean.csv", rows)
    assert clean[0] == 0 and clean[2] == "" and clean[1].count("\n") == 1 + 151 * 3
    if case == "text-in-unread-columns":
        edited = [header + ["note"]] + [[*r[:3], "n/a", "x y"] for r in body]
        expected = clean
    elif case in ("text-in-a-read-column", "nan-in-a-read-column"):
        # Sample 299 is file row 301 (the header is row 1).
        cell = "high" if case == "text-in-a-read-column" else "nan"
        edited = [header] + [[*r[:1], cell, *r[2:]] if i == 299 else r
                             for i, r in enumerate(body)]
        kept = [line for line in clean[1].splitlines(keepends=True)[1:]
                if int(line.split(",", 1)[0]) < 299]
        # A NaN is named by its data row, as detect names it.
        problem = (f"{workdir / 'edited.csv'}: row 301, column 'x2': not a number: 'high'"
                   if cell == "high" else "row 299: feature 'x2' is NaN")
        expected = (1, _TICK_HEADER + "".join(kept), f"error: {problem}\n")
    elif case == "repeated-name":
        # The last x2 column wins, as a dict built over the header would have it.
        edited = [header + ["x2"]] + [r + [r[0]] for r in body]
        expected = _stream_stdout(workdir, capsys, "last.csv",
                                  [header] + [[r[0], r[0], *r[2:]] for r in body])
        assert expected[0] == 0 and expected[1] != clean[1]
    else:
        # Refused at the header, with or without rows, as detect refuses it.
        edited = [["x1", "x2", "label"]]
        if case == "missing-read-feature":
            edited += [[r[0], r[1], r[3]] for r in body]
        expected = (1, "", f"error: {workdir / 'edited.csv'}: "
                           "feature 'x3' not in columns ['x1', 'x2', 'label']\n")
    assert _stream_stdout(workdir, capsys, "edited.csv", edited) == expected


@pytest.mark.parametrize("defect", [
    "text", "empty", "one-cell-too-many", "over-field-limit", "header-without-x2",
])
def test_detect_and_stream_refuse_bad_input_with_one_line(workdir, capsys, monkeypatch, defect):
    # A cell defect sits in rule-read column x2 of file row 301 (sample 299);
    # however the file is named, both commands name it as op.csv. A header
    # without x2 is refused before stream writes anything, -o file included.
    assert main(_baseline_args(workdir)) == 0
    lines = (workdir / "op_in.csv").read_text().splitlines(keepends=True)
    rows = [line.split(",") for line in lines]
    if defect == "header-without-x2":
        rows = [[r[0], *r[2:]] for r in rows]
    else:
        rows[300][1] = {"text": "high", "empty": "", "one-cell-too-many": "0.5,0.5",
                        "over-field-limit": "1" * 200_000}[defect]
    (workdir / "op.csv").write_text("".join(",".join(r) for r in rows))
    monkeypatch.chdir(workdir)
    common = ["--rules", "rules.txt", "--baseline", "base.json"]
    errors = set()
    for name in ("op.csv", "./op.csv"):
        for command in ("detect", "stream"):
            capsys.readouterr()
            assert main([command, name, *common]) == 1
            out, err = capsys.readouterr()
            errors.add(err)
            if command == "stream":
                assert (out == "") is (defect == "header-without-x2")
    assert len(errors) == 1
    assert errors.pop().startswith("error: op.csv: row 301" if defect != "header-without-x2"
                                   else "error: op.csv: feature 'x2' not in columns "
                                        "['x1', 'x3', 'label']")
    assert main(["stream", "op.csv", *common, "-o", "ticks.csv"]) == 1
    assert (workdir / "ticks.csv").exists() is (defect != "header-without-x2")


class _WriteLog:
    """Stand-in stdout that keeps the text of each ``write`` call."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("mode_args", [(), _GROUP_ARGS])
def test_stream_writes_each_tick_row_with_its_own_write(workdir, tmp_path, monkeypatch,
                                                        mode_args):
    # A reader that takes stdout write by write (a timing harness stamping
    # each write, say) parses every write as one CSV row, so a tick's rows
    # must not share a write.
    assert main(_baseline_args(workdir, extra=mode_args)) == 0
    common = ["--rules", str(workdir / "rules.txt"), "--baseline", str(workdir / "base.json")]
    ticks = tmp_path / "ticks.csv"
    assert main(["stream", str(workdir / "op_in.csv"), *common, "-o", str(ticks)]) == 0
    log = _WriteLog()
    monkeypatch.setattr(sys, "stdin", io.StringIO((workdir / "op_in.csv").read_text()))
    monkeypatch.setattr(sys, "stdout", log)
    assert main(["stream", "-", *common]) == 0
    monkeypatch.undo()
    assert len(log.writes) > 1
    assert all(text.endswith("\r\n") and text.count("\n") == 1 for text in log.writes)
    assert all(len(list(csv.reader([text]))) == 1 for text in log.writes)
    assert "".join(log.writes).encode() == ticks.read_bytes()


_MMAP_PROBE = """
import ctypes
import numpy as np
from rulewatch.cli import main

libc = ctypes.CDLL(None)
if not hasattr(libc, "mallinfo2"):
    raise SystemExit(print("no mallinfo2"))
class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]
libc.mallinfo2.restype = MallInfo2
main(["featurize", "missing.csv", "--window", "4"])
big = np.ones(2 << 20)  # 16 MB, over any threshold: its own mapping
del big  # glibc alone would now raise its threshold to 16 MB
before = libc.mallinfo2().hblks
table = np.ones(6 << 17)  # 6 MB
print(libc.mallinfo2().hblks - before)
small = [np.ones(1 << 13) for _ in range(64)]  # 4 MB of 64 KiB heap blocks
grown = libc.mallinfo2().arena
del small
print(libc.mallinfo2().arena == grown)  # the freed heap top is kept for reuse
"""


def test_a_freed_large_buffer_leaves_later_ones_their_own_mapping(tmp_path):
    # Under glibc's moving threshold the 6 MB table would go into the heap,
    # and where a table lands would depend on what the process freed before.
    # The heap's free top must still be kept: trimming it at glibc's 128 KiB
    # default made eval repetitions 25% slower.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _MMAP_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "no mallinfo2":
        pytest.skip("needs glibc 2.33 or later")
    assert proc.stdout.split() == ["1", "True"]


def _with_note_column(src, dst, note):
    """``src`` with a ``note`` column after the others; ``note(i)`` is data row i's cell."""
    lines = src.read_text().splitlines()
    rows = [lines[0] + ",note"] + [f"{line},{note(i)}" for i, line in enumerate(lines[1:])]
    dst.write_text("\n".join(rows) + "\n")
    return dst


@pytest.mark.parametrize("note", [
    lambda i: "",
    lambda i: f"text {i}",
    lambda i: 'say "hi"' if i % 2 else '"quoted, with a comma"',
])
def test_detect_and_baseline_never_convert_a_column_no_rule_reads(workdir, capsys, note):
    # Text, empty cells and quote characters in a column no rule reads are
    # never converted, so every output is byte for byte the plain file's.
    def run(train, op, fmt):
        base = workdir / f"base-{train.stem}.json"
        args = _baseline_args(workdir, out=base.name)
        args[1] = str(train)
        outputs = [main(args), capsys.readouterr(), base.read_bytes()]
        outputs += [main(["detect", str(op), "--rules", str(workdir / "rules.txt"),
                          "--baseline", str(base), "--format", fmt]), capsys.readouterr()]
        return outputs

    train = _with_note_column(workdir / "train.csv", workdir / "train_note.csv", note)
    for op_name in ("op_in.csv", "op_out.csv"):
        op = _with_note_column(workdir / op_name, workdir / f"note_{op_name}", note)
        for fmt in ("json-document", "csv"):
            assert run(train, op, fmt) == run(workdir / "train.csv", workdir / op_name, fmt)


def test_a_header_without_a_rule_read_feature_exits_1(workdir, capsys):
    (workdir / "rules9.txt").write_text("if x1 <= 0.5 then 1\nif x9 > 0.5 then 0\n")
    args = _baseline_args(workdir)
    args[3] = str(workdir / "rules9.txt")
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {workdir / 'train.csv'}: "
        "feature 'x9' not in columns ['x1', 'x2', 'x3', 'label']\n"
    )
    assert main(_baseline_args(workdir)) == 0
    lines = (workdir / "op_in.csv").read_text().splitlines()
    cut = [",".join(line.split(",")[:2] + line.split(",")[3:]) for line in lines]
    (workdir / "no_x3.csv").write_text("\n".join(cut) + "\n")
    capsys.readouterr()
    assert main(["detect", str(workdir / "no_x3.csv"), "--rules", str(workdir / "rules.txt"),
                 "--baseline", str(workdir / "base.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: {workdir / 'no_x3.csv'}: feature 'x3' not in columns ['x1', 'x2', 'label']\n"
    )


@pytest.mark.parametrize("command", ["baseline", "detect"])
def test_a_ragged_row_exits_1_even_in_columns_no_rule_reads(workdir, capsys, command):
    # A column no rule reads is still counted: a row one cell short is an error.
    assert main(_baseline_args(workdir)) == 0
    name = "train.csv" if command == "baseline" else "op_in.csv"
    lines = (workdir / name).read_text().splitlines(keepends=True)
    lines[300] = lines[300].rsplit(",", 1)[0] + "\r\n"  # drops the label cell
    (workdir / "ragged.csv").write_text("".join(lines))
    if command == "baseline":
        args = _baseline_args(workdir, out="never.json")
        args[1] = str(workdir / "ragged.csv")
    else:
        args = ["detect", str(workdir / "ragged.csv"), "--rules", str(workdir / "rules.txt"),
                "--baseline", str(workdir / "base.json")]
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {workdir / 'ragged.csv'}: row 301 has 3 cells, expected 4\n"
    )
