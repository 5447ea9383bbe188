#!/usr/bin/env python3
"""Run every workload, check the results against BENCHMARK.json, and summarise.

    python3 perfbench/report.py --tiny            # quick self-check, tiny inputs
    python3 perfbench/report.py                   # every metric of every workload once
    python3 perfbench/report.py --runs 10         # run-to-run spread per metric

Each workload runs in its own process (``run.py``), so ``peak_rss_mb`` is
that workload's alone. A run passes when it exits 0, its last line lists
exactly the metrics BENCHMARK.json names for its trace mode, with their
units, and it reports no failed operation. With ``--runs N`` the workloads
take turns, seed after seed, and each end-to-end metric's spread (the
distance between the first and third quartile as a share of the median) is
compared with a third of the metric's bound. Exits 1 when a check fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import NAMED, ROOT, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd += ["--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return lines[:-1], json.loads(lines[-1])


def check(spec: dict, workload: str, trace: int, lines: list[str], result: dict) -> list[str]:
    problems = []
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics/units differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(wanted.items()))}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    if not trace:
        printed = {line.split()[0] for line in lines if line.startswith("  ")}
        if missing := [n for n, _ in NAMED if n not in printed]:
            problems.append(f"named metrics not printed: {missing}")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, 1-second runs, traced too")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = 1 if args.tiny else spec["run_seconds"]
    rationale = json.loads((HERE / "rationale.json").read_text())
    problems = [f"per-layer metric {m['name']} has no rationale" for m in spec["per_layer"]
                if m["name"] not in rationale["per_layer"]]

    values: dict[tuple[str, str], list[float]] = {}
    for i in range(args.runs):
        for w in WORKLOAD_NAMES:
            for trace in (0, 1) if args.tiny else (0,):
                lines, result = run(w, args.seed + i, seconds, trace, args.tiny)
                problems += check(spec, w, trace, lines, result)
                if args.runs == 1:
                    print(f"== {w} seed {args.seed + i} trace {trace}")
                    print("\n".join(lines))
                for k, v in result["metrics"].items():
                    values.setdefault((w, k), []).append(v["value"])
                if not trace:
                    print(f"{w} seed {args.seed + i}: " + ", ".join(
                        f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    if args.runs > 1:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        print(f"{'workload':<14} {'metric':<18} {'median':>12} {'spread':>8} {'bound/3':>8}")
        for (w, k), vals in values.items():
            s = spread(vals)
            ok = s < bounds[k] / 3
            print(f"{w:<14} {k:<18} {statistics.median(vals):>12.5g} {s:>8.3f} "
                  f"{bounds[k] / 3:>8.3f} {'' if ok else 'WIDE'}")
            if not ok:
                problems.append(f"{w} {k}: spread {s:.3f} is not below {bounds[k] / 3:.3f}")
    for p in problems:
        print("FAIL", p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
