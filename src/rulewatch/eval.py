"""Repeated baseline+detect experiments measuring FPR and FNR.

Each repetition draws fresh training data, induces a ruleset, builds the
baseline, then scores one held-out in-distribution unit (false positive if
flagged) and one out-of-distribution unit (false negative if not flagged).
Held-out units never enter baseline construction. Both modes share one
repetition runner: the configured mode picks the baseline builder, and the
baseline then sizes each unit (``base.n_op``) and scores it with
``detect``; in group mode ``group_baseline`` and ``detect`` own the
reference partition. All randomness descends from the single master seed;
repetitions are independent and aggregation is deterministic.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
import numpy as np

from .config import RunConfig
from .detection import DetectionReport, detect
from .histogram import hit_matrix, make_splits, operational_splits
from .inducer import induce_ruleset
from .rules import Ruleset


# Run settings no repetition reads: detection runs every metric of its mode.
_UNREAD = ("metrics", "stride")


@dataclass(frozen=True)
class EvalSummary:
    """Aggregated error rates of a repeated detection experiment."""

    scenario: str
    mode: str
    repetitions: int
    fpr: float
    fnr: float
    per_metric_fp_rates: dict[str, float]
    per_metric_detect_rates: dict[str, float]
    config: dict = field(default_factory=dict)

    def to_document(self) -> str:
        doc = {
            "scenario": self.scenario,
            "mode": self.mode,
            "repetitions": self.repetitions,
            "fpr": self.fpr,
            "fnr": self.fnr,
            "per_metric_fp_rates": self.per_metric_fp_rates,
            "per_metric_detect_rates": self.per_metric_detect_rates,
            "config": self.config,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        """``key,value`` lines: the rates, the repetitions and the mode."""
        lines = ["key,value", f"fpr,{self.fpr}", f"fnr,{self.fnr}",
                 f"repetitions,{self.repetitions}", f"mode,{self.mode}"]
        lines += [f"fp_rate_{k},{v}" for k, v in self.per_metric_fp_rates.items()]
        lines += [f"detect_rate_{k},{v}" for k, v in self.per_metric_detect_rates.items()]
        return "\n".join(lines) + "\n"


def _induce(in_source, cfg: RunConfig, rng: np.random.Generator) -> Ruleset:
    # Dedicated inducer sample: keeps tree adaptation noise out of the
    # baseline splits' hit statistics.
    inducer_table = in_source.sample(max(4 * cfg.n_s, 4000), rng)
    return induce_ruleset(
        inducer_table, max_depth=cfg.max_depth, min_leaf=cfg.min_leaf, warn=False
    )


def _run_repetition(
    in_source, ood_source, cfg: RunConfig, rng: np.random.Generator
) -> tuple[DetectionReport, DetectionReport]:
    """One repetition: the in-distribution report, then the OoD one.

    Draws, in order: the inducer sample, the training rows, the split seed,
    the in-distribution unit and the OoD unit. A unit is ``base.n_op``
    splits of ``n_s`` rows: one in single-split mode (whatever the
    configured ``n_op`` says), ``n_op`` in group mode.
    """
    ruleset = _induce(in_source, cfg, rng)
    train_table = in_source.sample(cfg.n_tr * cfg.n_s, rng)
    splits = make_splits(train_table, cfg.n_s, cfg.n_tr, seed=int(rng.integers(2**31)))
    training = hit_matrix(ruleset, train_table, splits)
    base = cfg.build_baseline(training)
    reports = []
    for source in (in_source, ood_source):
        op_table = source.sample(base.n_op * cfg.n_s, rng)
        unit = hit_matrix(ruleset, op_table, operational_splits(op_table, cfg.n_s, base.n_op))
        reports.append(detect(training, unit, base))
    return reports[0], reports[1]


def run_eval(
    in_source,
    ood_source,
    cfg: RunConfig,
    scenario: str = "synthetic",
) -> EvalSummary:
    """Measure FPR/FNR over ``cfg.repetitions`` independent repetitions."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.repetitions)
    fp = fn = 0
    metric_fp: dict[str, int] = {}
    metric_detect: dict[str, int] = {}
    for child in seeds:
        rng = np.random.default_rng(child)
        fp_report, fn_report = _run_repetition(in_source, ood_source, cfg, rng)
        fp += int(fp_report.is_ood)
        fn += int(not fn_report.is_ood)
        for name, m in fp_report.per_metric.items():
            metric_fp[name] = metric_fp.get(name, 0) + int(m.flag)
        for name, m in fn_report.per_metric.items():
            metric_detect[name] = metric_detect.get(name, 0) + int(m.flag)
    reps = cfg.repetitions
    return EvalSummary(
        scenario=scenario,
        mode=cfg.mode,
        repetitions=reps,
        fpr=fp / reps,
        fnr=fn / reps,
        per_metric_fp_rates={k: v / reps for k, v in sorted(metric_fp.items())},
        per_metric_detect_rates={k: v / reps for k, v in sorted(metric_detect.items())},
        config={k: v for k, v in cfg.echo().items() if k not in _UNREAD},
    )
