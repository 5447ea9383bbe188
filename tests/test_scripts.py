"""Smoke runs of the experiment scripts in ``scripts/`` at tiny sizes.

Each script runs as a subprocess against this checkout's ``src/``, so a
change to the library API the scripts import fails here.
"""
import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_make_demo_data(tmp_path):
    _run("make_demo_data.py", "out", "--rows", "500", "--op-rows", "100", cwd=tmp_path)
    for name, rows in (("train.csv", 500), ("op_in.csv", 100), ("op_shifted.csv", 100)):
        with open(tmp_path / "out" / name, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["x1", "x2", "x3", "x4", "x5", "x6", "label"]
        assert len(table) == rows + 1


def test_run_separation_experiment(tmp_path):
    out = _run(
        "run_separation_experiment.py",
        "--repetitions", "2", "--ns", "200", "--ntr", "14", "--nop", "4",
        cwd=tmp_path,
    )
    sections = out.split("== mode ")[1:]
    assert [s.split(" ==", 1)[0] for s in sections] == ["single", "group"]
    for section, mode in zip(sections, ("single", "group")):
        doc = json.loads(section.split("==\n", 1)[1])
        assert doc["mode"] == mode
        assert doc["repetitions"] == 2
        assert 0.0 <= doc["fpr"] <= 1.0 and 0.0 <= doc["fnr"] <= 1.0
        assert doc["config"]["n_op"] == (4 if mode == "group" else 1)
        metrics = {"rbi", "l1", "l2"} if mode == "group" else {"wmi", "l1", "l2"}
        assert set(doc["per_metric_detect_rates"]) == metrics


def test_run_drift_onset(tmp_path):
    out = _run(
        "run_drift_onset.py",
        "--design-ns", "100", "--windows", "100,150", "--ntr", "6", "--ticks", "50",
        cwd=tmp_path,
    )
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["window", "tick", "metric", "value", "base_min", "base_max", "flag"]
    body = rows[1:]
    assert [(int(r[0]), int(r[1])) for r in body] == [
        (w, t) for w in (100, 150) for t in range(50)
    ]
    for r in body:
        assert r[2] == "wmi"
        assert float(r[4]) <= float(r[5])
        assert r[6] in ("0", "1")


def test_readme_library_snippets_run(tmp_path):
    # The python blocks under "## Library" run as written, in order, in one process.
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_lines_parse():
    # Every documented rulewatch command line is accepted by the parser as written.
    from rulewatch.cli import build_parser

    text = (ROOT / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.findall(r"```\n(.*?)```", section, flags=re.S)[0]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines() if ln.startswith("rulewatch ")]
    assert len(lines) >= 8
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.fn), line


def test_readme_rule_syntax_block_parses():
    from rulewatch import parse_ruleset
    from rulewatch.rules import Interval

    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Rule syntax\n", 1)[1].split("\n## ", 1)[0]
    block = re.findall(r"```\n(.*?)```", section, flags=re.S)[0]
    rs = parse_ruleset(block)
    assert rs.n_rules == 2
    (cond,) = rs.rules[1].premise
    assert (cond.feature, cond.operator, cond.interval) == ("d", "in", Interval(0.0, 0.4))
