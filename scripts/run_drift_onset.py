#!/usr/bin/env python3
"""Drift-onset tracking: stream metric curves for two window lengths.

Builds one design-time baseline, pre-fills windows with in-distribution
samples, injects drift at tick 0, and writes a long-format CSV of the
weighted-mutual-information curve per window length, with the baseline
bounds echoed on every row (directly plottable).
"""
import argparse
import csv
import itertools
import sys
import warnings

import numpy as np

from rulewatch import hit_matrix, make_splits, parse_ruleset, single_split_baseline
from rulewatch.streaming import StreamMonitor
from rulewatch.synth import RuleAlignedSource

RULES_TEXT = (
    "if x1 <= 0.5 and x2 <= 0.5 then 1\n"
    "if x1 <= 0.5 and x2 > 0.5 then 0\n"
    "if x1 > 0.5 and x2 <= 0.5 then 0\n"
    "if x1 > 0.5 and x2 > 0.5 then 0\n"
    "if x3 <= 0.25 then 0\n"
    "if x4 > 0.75 then 0\n"
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--design-ns", type=int, default=500)
    ap.add_argument("--windows", default="500,1000")
    ap.add_argument("--ntr", type=int, default=20)
    ap.add_argument("--shift", type=float, default=0.3)
    ap.add_argument("--ticks", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("-o", "--output", default="-")
    args = ap.parse_args()

    rules = parse_ruleset(RULES_TEXT)
    src = RuleAlignedSource(n_features=4)
    drift = src.shifted({0: args.shift, 1: args.shift})

    train = src.sample(args.ntr * args.design_ns, np.random.default_rng(args.seed))
    matrix = hit_matrix(rules, train, make_splits(train, args.design_ns, args.ntr, seed=args.seed))
    base = single_split_baseline(matrix, config={"n_s": args.design_ns})

    window_sizes = [int(w) for w in args.windows.split(",")]
    prefill = list(itertools.islice(
        src.stream(np.random.default_rng(args.seed + 1)), max(window_sizes)))
    drift_feed = list(itertools.islice(
        drift.stream(np.random.default_rng(args.seed + 2)), args.ticks))

    out = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(("window", "tick", "metric", "value", "base_min", "base_max", "flag"))
        for n_s in window_sizes:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                monitor = StreamMonitor(rules, base, matrix, capacity=n_s, metrics=("wmi",))
            for rec in prefill:
                monitor.push(rec)
            for tick, rec in enumerate(drift_feed):
                report = monitor.push(rec)
                if report is None:
                    continue
                wmi = report.per_metric["wmi"]
                writer.writerow(
                    (n_s, tick, "wmi", wmi.representative, *wmi.baseline, int(wmi.flag))
                )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
