"""The benchmark in ``perfbench/`` reaches into the package by name; these
tests fail when a name it wraps or imports is gone, instead of the traced
benchmark run dying in ``Tracer.install``."""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from rulewatch import (
    HitHistogram,
    SlidingHitWindow,
    detect_group,
    group_baseline,
    parse_ruleset,
)
from tests.conftest import stack

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_every_tracer_target_resolves():
    tracer = _load("tracer")
    for mod_name, attr, *_ in tracer.TARGETS:
        owner = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # Tracer.install patches methods through the owning class's own __dict__.
            assert meth in vars(getattr(owner, cls_name)), attr
        else:
            assert callable(getattr(owner, attr, None)), attr


def test_window_push_is_traced_as_rule_evaluation():
    tracer = _load("tracer").Tracer()
    window = SlidingHitWindow(parse_ruleset("if x1 <= 0.5 then a\n"), capacity=2)
    tracer.install()
    try:
        window.push({"x1": 0.25})
    finally:
        tracer.uninstall()
    assert tracer.stats["rules.ruleset_hits"].calls == 1
    assert tracer.stats["streaming.window_push"].calls == 1


def test_detect_group_is_traced_as_bank_fits_and_rbi():
    tr = [HitHistogram((i, 10 - i, 3 + i % 2), 10) for i in range(1, 9)]
    training = stack(tr)
    base = group_baseline(training, 3)
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        detect_group(training, stack(tr[5:]), base)
    finally:
        tracer.uninstall()
    assert tracer.stats["metrics.fit_bank"].calls >= 1
    assert tracer.stats["metrics.rbi"].calls >= 1


def test_workloads_module_imports(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = _load("workloads")
    finally:
        sys.modules.pop("gen", None)
    assert callable(workloads.peak_rss_mb)


@pytest.mark.parametrize("workload", ["stream-single", "batch-single", "eval-group"])
def test_tiny_benchmark_run_passes_its_gates(workload):
    # Runs the workload's correctness gates, among them stream-equals-batch
    # on every sampled tick, at the benchmark's self-check size.
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--size", "tiny"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, run.stdout[-2000:]
    assert result["attempted"] > 0
