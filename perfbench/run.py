#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload stream-single --seed 1 --seconds 15 --trace 0

Run it from the root of a rulewatch checkout: the package is imported from
that checkout's ``src/`` and nothing needs installing. ``--trace 0`` reports
the end-to-end metrics, measured untraced; ``--trace 1`` reports per-layer
metrics from traced passes, and the tracing overhead against untraced
passes of the same length (the two take turns, half of ``--seconds`` each).
Lines before the result are for people: the inputs' description and the
metrics under the names the benchmark's rationale uses. Generated inputs
live in ``.perfbench_work/`` while the run lasts; the span file of a traced
run is left in ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One process, no worker threads: keep numpy's BLAS single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
# The gated latency is this low quantile of a run's requests: the shared
# host slows a varying share of them by a varying amount, and the fastest
# requests vary least from run to run.
FAST_Q = 0.01
TRACE_ROUNDS = 3
WORKLOAD_NAMES = ("stream-single", "batch-single", "eval-group")

# The end-to-end figures under the names the rationale uses, in print order.
NAMED = (
    ("stream_samples_per_s", "samples/s"), ("tick_latency_p50_ms", "ms"),
    ("tick_latency_p99_ms", "ms"), ("induce_s", "s"), ("baseline_s", "s"),
    ("detect_p50_ms", "ms"), ("detect_p90_ms", "ms"), ("eval_reps_per_s", "reps/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("error_rate", "ratio"),
)


def _import_package() -> None:
    package = ROOT / "src" / "rulewatch" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package.parent} is missing; run from a rulewatch checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import rulewatch

    if Path(rulewatch.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported rulewatch from {rulewatch.__file__}, not {package}")


def _untraced(wl, seconds: float) -> dict:
    from workloads import peak_rss_mb, quantile

    setup_s = []
    for _ in range(wl.setups):
        t0 = perf_counter()
        wl.setup()
        setup_s.append(perf_counter() - t0)
        # Timed requests follow each set-up, so one run samples the shared
        # host over its whole length rather than over one stretch of it.
        wl.run(seconds / wl.setups)
    timed = wl.summary()
    lat = timed.latencies
    metrics = {
        "latency_p1_ms": (quantile(lat, FAST_Q) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"requests: {len(lat)} x {timed.unit}; latency quantiles (ms):", json.dumps(
        {f"p{q}": quantile(lat, q / 100) * 1e3 for q in (1, 10, 25, 50, 75, 90, 99)}))
    named = dict(timed.named)
    named.update(wl.named_setup())
    named["setup_s"] = (metrics["setup_s"][0], "s", wl.setups)
    named["peak_rss_mb"] = (metrics["peak_rss_mb"][0], "MB", 1)
    named["error_rate"] = (wl.failed / max(wl.attempted, 1), "ratio", wl.attempted)
    for name, unit in NAMED:
        if name in named:
            value, _, count = named[name]
            print(f"  {name:<22} {value:>14.6g} {unit:<10} n={count}")
        else:
            print(f"  {name:<22} {'n/a':>14} {unit:<10} (not measured by {wl.name})")
    print(f"peak RSS after the first input generation {wl.rss_after_generate_mb:.1f} MB, "
          f"after the whole run {metrics['peak_rss_mb'][0]:.1f} MB")
    print("notes:", json.dumps(timed.notes))
    return metrics


def _layer_metrics(tr, requests: int, overhead_pct: float) -> dict:
    from tracer import LAYERS

    per = tr.per_call
    metrics = {
        "rules.ruleset_hits_us": (per("rules.ruleset_hits", 1e6), "us"),
        "rules.hit_mask_table_rows_per_s": (tr.rate("rules.hit_mask_table"), "rows/s"),
        "rules.parse_ruleset_ms": (per("rules.parse_ruleset", 1e3), "ms"),
        "streaming.window_push_us": (per("streaming.window_push", 1e6), "us"),
        "streaming.stream_detect_us": (per("streaming.stream_detect", 1e6), "us"),
        "metrics.wmi_us_per_pair": (per("metrics.wmi", 1e6), "us"),
        "metrics.wmi_calls": (tr.timed_calls("metrics.wmi", requests), "count"),
        "metrics.lp_norm_us_per_pair": (per("metrics.lp_norm", 1e6), "us"),
        "metrics.lp_norm_calls": (tr.timed_calls("metrics.lp_norm", requests), "count"),
        "metrics.fit_bank_us": (per("metrics.fit_bank", 1e6), "us"),
        "metrics.rbi_us": (per("metrics.rbi", 1e6), "us"),
        "metrics.rbi_calls": (tr.timed_calls("metrics.rbi", requests), "count"),
        "detection.detect_split_us": (per("detection.detect_split", 1e6), "us"),
        "detection.single_split_baseline_s": (per("detection.single_split_baseline", 1.0), "s"),
        "detection.group_baseline_ms": (per("detection.group_baseline", 1e3), "ms"),
        "detection.detect_group_ms": (per("detection.detect_group", 1e3), "ms"),
        "detection.bundle_to_document_ms": (per("detection.bundle_to_document", 1e3), "ms"),
        "detection.bundle_from_document_ms": (per("detection.bundle_from_document", 1e3), "ms"),
        "histogram.make_splits_ms": (per("histogram.make_splits", 1e3), "ms"),
        "histogram.hit_matrix_ms": (per("histogram.hit_matrix", 1e3), "ms"),
        "data.from_csv_rows_per_s": (tr.rate("data.from_csv"), "rows/s"),
        "inducer.induce_ruleset_s": (per("inducer.induce_ruleset", 1.0), "s"),
        "synth.sample_ms": (per("synth.sample", 1e3), "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (tr.self_time[(layer, "timed")] / requests * 1e3, "ms")
        if layer != "cli":
            metrics[f"{layer}.calls_per_req"] = (tr.layer_calls[(layer, "timed")] / requests, "count")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def _traced(wl, seconds: float, out_path: Path) -> dict:
    from tracer import Tracer
    from workloads import quantile

    tr = Tracer()

    def traced(step) -> None:
        wl.tracer = tr
        tr.install()
        try:
            step()
        finally:
            tr.uninstall()
            wl.tracer = None

    # One traced set-up, so layers only the set-up reaches (induce, baseline)
    # still get their per-call figures.
    traced(wl.setup)
    # Untraced and traced passes take turns, so drift in the shared host's
    # speed falls on both alike.
    plain: list[float] = []
    with_spans: list[float] = []
    for _ in range(TRACE_ROUNDS):
        tr.set_phase("idle")
        start = len(wl.latencies)
        wl.run(seconds / (2 * TRACE_ROUNDS))
        plain += wl.latencies[start:]
        start = len(wl.latencies)
        traced(lambda: wl.run(seconds / (2 * TRACE_ROUNDS)))
        with_spans += wl.latencies[start:]
    timed = wl.summary()
    requests = max(len(with_spans), 1)
    fast_untraced = quantile(plain, FAST_Q)
    fast_traced = quantile(with_spans, FAST_Q)
    overhead = (fast_traced / fast_untraced - 1.0) * 100.0
    metrics = _layer_metrics(tr, requests, overhead)

    timed_wall = sum(v for (_, phase), v in tr.self_time.items() if phase == "timed")
    print(f"traced {requests} x {timed.unit}; tracing overhead {overhead:.2f}% "
          f"(p1 latency untraced {fast_untraced * 1e3:.6g} ms, traced {fast_traced * 1e3:.6g} ms)")
    print("self time per request, timed phase (ms):",
          json.dumps({k: round(v[0], 4) for k, v in metrics.items() if k.endswith(".self_ms")}))
    if wl.name == "stream-single":
        stat = tr.stats.get("detection.detect_split")
        share = stat.timed_total / timed_wall if stat else 0.0
        print(f"detect_split share of a stream tick: {share:.1%}")
    if wl.name in ("stream-single", "batch-single"):
        base = tr.span_time("cli.main", "setup/baseline")
        csv_time = tr.span_time("data.from_csv", "setup/baseline")
        print(f"DataTable.from_csv share of the baseline command: {csv_time / base:.1%}"
              f" ({csv_time:.3f} s of {base:.3f} s)")
    tr.write(out_path)
    print(f"spans: {len(tr.spans)} written to {out_path.relative_to(ROOT)}"
          f" ({tr.dropped} dropped over the cap)")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("design", "tiny"), default="design",
                    help="input sizes; tiny is for a quick self-check of the benchmark")
    args = ap.parse_args(argv)
    _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import gen
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, gen.SIZES[args.size], workdir, ROOT)
    try:
        if args.trace:
            out_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = _traced(wl, args.seconds, out_path)
        else:
            metrics = _untraced(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("inputs:", json.dumps(wl.inputs.manifest if wl.inputs else {}))
    for err in wl.errors:
        print("failure:", err)
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
