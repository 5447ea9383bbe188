"""Baseline envelopes and out-of-distribution verdicts.

Training-time metric values between split pairs define closed [min, max]
intervals per metric (the baseline). At detection time the same metrics are
computed between training columns and operational data; a metric flags when
a strict majority of its values falls outside its interval, and the final
verdict is OoD as soon as ANY metric flags (minority voting: one alarming
metric is enough, minimizing missed detections at some false-positive cost).
Each metric's report comes from one sort of its values: votes are counted
by bisection against the interval, only the values outside it get a
normalised distance, and the median is stored once as a Python float.

The baseline names the mode: ``Baselines.mode``, ``.n_op`` (operational
splits per unit) and ``.metrics`` follow from the interval it holds, and
``detect(training, unit, base)``, the one scoring body, checks the request
once and scores a unit of ``n_op`` rows in that mode; its report is also
the stream tick. ``detect_split`` and ``detect_group`` reject a baseline of
the other mode, then call ``detect``. A group stream calls ``detect`` once
per new window snapshot.

Two modes:

* single-split: weighted mutual information + l1/l2 norms against one
  operational histogram, scored by ``split_metrics`` (a fresh
  ``SplitScorer``);
* group: rule-based information over a group of operational histograms
  + l1/l2 norms over all column pairs. Both ``group_baseline`` and
  ``detect`` take the training ``HitMatrix``, and the group is a
  ``HitMatrix`` too, one row per member. ``group_baseline(training, n_op)``
  records ``n_op`` and ``n_tr`` in the baseline config; the reference part
  is the first ``k = n_tr - n_op - 1`` columns, and ``detect``
  derives ``k`` from those two recorded values and scores only groups of
  ``n_op`` rows, the size the envelope was calibrated for. The ``rbi``
  envelope is calibrated over the leave-one-out folds of the calibration
  part and over seeded rotations of the whole training set, so that it
  covers fresh in-distribution groups rather than one calibration draw.
  Folds, rotations and detection-time groups all go through
  ``rule_based_information_batch``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from .histogram import HitHistogram, HitMatrix
from .metrics import (
    SIGMA_FLOOR_DEFAULT,
    MetricError,
    lp_norms,
    rule_based_information_batch,
    split_metrics,
)
from .rules import Ruleset, format_ruleset

IN_DISTRIBUTION = "in-distribution"
OUT_OF_DISTRIBUTION = "OoD"

SINGLE_SPLIT = "single-split"
GROUP = "group"

SINGLE_METRICS = ("wmi", "l1", "l2")
GROUP_METRICS = ("rbi", "l1", "l2")

# Group-mode rbi calibration: number of seeded rotations of the training
# columns and the seed drawing them. Fixed so baselines are byte-identical.
ROTATIONS = 200
ROTATION_SEED = 20230303

# Version tag for the recorded tie-break / interval / logarithm conventions,
# the closed-form wmi (whose values differ from a per-value sum by rounding)
# and the group calibration; part of the fingerprint so baselines never
# silently cross conventions.
DECISIONS_TAG = (
    "closed-intervals.strict-majority.natural-log.value-frequency.closed-form-wmi."
    f"rbi-loo+rotations{ROTATIONS}-seed{ROTATION_SEED}+scaled.v4"
)

# Run configuration keys a baseline fingerprint covers, besides the ruleset.
FINGERPRINT_KEYS = ("n_s", "n_tr", "n_op", "seed", "sigma_floor", "mode")

# Upper bound on the hit frequencies gathered per calibration-kernel call.
_PARTITION_CHUNK_VALUES = 1 << 13


class DetectionError(ValueError):
    """Detection-stage failures other than fingerprint mismatches."""


class FingerprintMismatchError(DetectionError):
    """Baseline was built under a different ruleset or configuration."""


def _majority(votes_out: int, votes_total: int) -> bool:
    if votes_total == 0:
        raise DetectionError("majority of an empty flag list is undefined")
    return 2 * votes_out > votes_total


@dataclass(frozen=True)
class Baselines:
    """Per-metric closed [min, max] training envelopes, each a tuple of two numbers.

    Exactly one of ``wmi`` (single-split) and ``rbi`` (group) is present,
    and it decides ``mode``, ``n_op`` and ``metrics``; the norm intervals
    exist in both. ``config`` echoes the build parameters, and a group
    baseline's config records the ``n_op`` its reference partition was
    built for. ``config_fingerprint`` binds the baseline to the exact
    ruleset and conventions it was built under.
    """

    l1: tuple[float, float]
    l2: tuple[float, float]
    wmi: tuple[float, float] | None = None
    rbi: tuple[float, float] | None = None
    config_fingerprint: str = ""
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("l1", "l2", "wmi", "rbi"):
            iv = getattr(self, name)
            if iv is None:
                continue
            if not (isinstance(iv, tuple) and len(iv) == 2 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in iv
            )):
                raise DetectionError(f"{name} interval must be a pair of numbers, got {iv!r}")
            if not iv[0] <= iv[1]:
                raise DetectionError(f"{name} interval has min > max: {iv}")
        if (self.wmi is None) == (self.rbi is None):
            raise DetectionError("a baseline holds exactly one of a wmi and an rbi interval")
        if self.rbi is not None and not self.config.get("n_op", 0) >= 2:
            raise DetectionError("a group baseline must record n_op >= 2 in its config")

    @property
    def mode(self) -> str:
        """``GROUP`` for an ``rbi`` envelope, ``SINGLE_SPLIT`` for a ``wmi`` one."""
        return GROUP if self.rbi is not None else SINGLE_SPLIT

    @property
    def n_op(self) -> int:
        """Operational splits per detected unit: the recorded group size, or 1."""
        return int(self.config["n_op"]) if self.rbi is not None else 1

    @property
    def metrics(self) -> tuple[str, ...]:
        """The metrics this baseline has envelopes for, in report order."""
        return GROUP_METRICS if self.rbi is not None else SINGLE_METRICS

    def interval(self, metric: str) -> tuple[float, float]:
        iv = getattr(self, metric, None)
        if iv is None:
            raise DetectionError(f"baseline has no interval for metric {metric!r}")
        return iv


@dataclass(frozen=True)
class MetricReport:
    """Votes and envelope position of one metric at detection time."""

    name: str
    values: tuple[float, ...]
    flag: bool
    votes_out: int
    votes_total: int
    normalized_distance: float
    baseline: tuple[float, float]
    # Median value; the plottable per-tick summary of this metric.
    representative: float


@dataclass(frozen=True)
class DetectionReport:
    """Per-metric outcomes plus the final verdict of one detection or stream tick."""

    mode: str
    per_metric: dict[str, MetricReport]
    verdict: str = field(init=False)

    CSV_HEADER = ("metric", "value", "base_min", "base_max", "flag", "verdict")

    def __post_init__(self) -> None:
        any_flag = any(m.flag for m in self.per_metric.values())
        object.__setattr__(
            self, "verdict", OUT_OF_DISTRIBUTION if any_flag else IN_DISTRIBUTION
        )

    @property
    def is_ood(self) -> bool:
        return self.verdict == OUT_OF_DISTRIBUTION

    def csv_rows(self) -> list[tuple]:
        """One ``CSV_HEADER`` row per metric: median value, envelope, flag, verdict."""
        return [
            (name, m.representative, m.baseline[0], m.baseline[1], int(m.flag), self.verdict)
            for name, m in self.per_metric.items()
        ]

    @cached_property
    def csv_lines(self) -> tuple[str, ...]:
        """``csv_rows()`` as the lines ``csv.writer`` writes, rendered once per report."""
        lines: list[str] = []  # csv.writer writes each row with one write call
        csv.writer(SimpleNamespace(write=lines.append)).writerows(self.csv_rows())
        return tuple(lines)

    def to_document(self) -> str:
        doc = {
            "mode": self.mode,
            "verdict": self.verdict,
            "metrics": {
                name: {
                    "values": [_json_float(v) for v in m.values],
                    "flag": m.flag,
                    "votes_out": m.votes_out,
                    "votes_total": m.votes_total,
                    "normalized_distance": _json_float(m.normalized_distance),
                    "baseline": [m.baseline[0], m.baseline[1]],
                }
                for name, m in self.per_metric.items()
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _json_float(v: float) -> float | str:
    return "inf" if math.isinf(v) else v


def _sorted_median(ordered: Sequence[float]) -> float:
    """Median of an ascending sequence, by the arithmetic of ``statistics.median``."""
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _metric_report(
    name: str, values: list[float], interval: tuple[float, float]
) -> MetricReport:
    """Votes and envelope position of one metric's values, from one sort.

    A value votes out unless it lies in the closed interval. Its normalised
    distance is 0 inside, +inf for an infinite value, else its gap to the
    interval over the interval width (floored at machine epsilon); only the
    values outside are divided, as every inside one reads 0.

    Every value is >= 0, so one below the interval lies at most
    ``lo / width`` from it: ``rbi``, which falls toward 0 with the shift,
    saturates there (about 1.3 at ``n_s`` 1000, ``n_tr`` 20, ``n_op`` 10).
    """
    lo, hi = interval
    ordered = sorted(values)
    below, above = bisect_left(ordered, lo), bisect_right(ordered, hi)
    width = max(hi - lo, sys.float_info.epsilon)
    distances = sorted(
        [math.inf if math.isinf(v) else (lo - v) / width for v in ordered[:below]]
        + [math.inf if math.isinf(v) else (v - hi) / width for v in ordered[above:]]
    )
    votes_out, votes_total = len(distances), len(ordered)
    return MetricReport(
        name=name,
        values=tuple(values),
        flag=_majority(votes_out, votes_total),
        votes_out=votes_out,
        votes_total=votes_total,
        normalized_distance=_sorted_median([0.0] * (votes_total - votes_out) + distances),
        baseline=interval,
        representative=_sorted_median(ordered),
    )


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------

def compute_fingerprint(ruleset: Ruleset, config: Mapping[str, object]) -> str:
    """Hash binding a baseline to its ruleset, parameters and conventions."""
    payload = {
        "ruleset": format_ruleset(ruleset),
        "config": {k: config[k] for k in sorted(config)},
        "decisions": DECISIONS_TAG,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def check_request(
    training: HitMatrix,
    base: Baselines,
    n_rules: int,
    n_rows: int,
    metrics: Sequence[str] | None,
) -> Sequence[str]:
    """The metrics to score (``None``: ``base.metrics``) once the request checks out.

    Rejects a baseline recorded for another rule count or number of
    training splits (``FingerprintMismatchError``), a unit whose row count
    is not ``base.n_op`` (the group size the envelope was calibrated for),
    operational counts of another rule count, an empty metric selection and
    a metric name outside ``base.metrics``. The mode is ``base.mode``.
    """
    cfg, mode = base.config, base.mode
    if "n_rules" in cfg and cfg["n_rules"] != training.n_rules:
        raise FingerprintMismatchError(
            f"baseline built for {cfg['n_rules']} rules, matrix has {training.n_rules}"
        )
    if "n_tr" in cfg and cfg["n_tr"] != training.n_splits:
        raise FingerprintMismatchError(
            f"baseline built from {cfg['n_tr']} training splits, matrix has {training.n_splits}"
        )
    if n_rows != base.n_op:
        raise DetectionError(f"a {mode} unit has {base.n_op} operational split(s), got {n_rows}")
    if n_rules != training.n_rules:
        raise MetricError(f"operational counts have {n_rules} rules, training {training.n_rules}")
    if metrics is None:
        return base.metrics
    if not metrics:
        raise DetectionError(f"no metric selected; {mode} metrics are {', '.join(base.metrics)}")
    for name in metrics:
        if name not in base.metrics:
            raise DetectionError(f"unknown {mode} metric {name!r}")
    return metrics


def build_report(
    base: Baselines, values: Mapping[str, np.ndarray], metrics: Sequence[str]
) -> DetectionReport:
    """Each of ``metrics``' values (as Python floats) voted against ``base``."""
    reports = {
        name: _metric_report(name, values[name].tolist(), base.interval(name))
        for name in metrics
    }
    return DetectionReport(mode=base.mode, per_metric=reports)


# ---------------------------------------------------------------------------
# Single-split mode
# ---------------------------------------------------------------------------

def _envelope(values: np.ndarray) -> tuple[float, float]:
    return float(values.min()), float(values.max())


def single_split_baseline(
    training: HitMatrix,
    config: Mapping[str, object] | None = None,
    fingerprint: str = "",
) -> Baselines:
    """Envelope of weighted mutual information and norms over training pairs.

    All three metrics are symmetric, so row i scored against rows i+1...
    covers every pair once and gives the same min/max as ordered pairs.
    """
    if training.n_splits < 2:
        raise DetectionError(
            f"baseline needs at least 2 training splits, got {training.n_splits}"
        )
    counts, n_s = training.counts, training.split_size
    parts = [
        split_metrics(counts[i + 1 :], n_s, counts[i], n_s)
        for i in range(training.n_splits - 1)
    ]
    iv = {
        name: _envelope(np.concatenate([getattr(p, name) for p in parts]))
        for name in SINGLE_METRICS
    }
    cfg = {**(config or {}), "n_rules": training.n_rules, "n_tr": training.n_splits}
    return Baselines(
        l1=iv["l1"], l2=iv["l2"], wmi=iv["wmi"],
        config_fingerprint=fingerprint, config=cfg,
    )


def detect_split(
    training: HitMatrix,
    op: HitHistogram,
    base: Baselines,
    metrics: Sequence[str] | None = None,
) -> DetectionReport:
    """Compare one operational histogram against every training column.

    Each metric votes once per training column; a strict majority of
    out-of-envelope votes raises that metric's flag. A group baseline is
    rejected; ``detect`` scores the histogram as a unit of one row.
    """
    if base.mode != SINGLE_SPLIT:
        raise DetectionError("baseline is a group baseline; it scores groups, not single splits")
    return detect(training, HitMatrix(op.counts[None], op.split_size), base, metrics)


# ---------------------------------------------------------------------------
# Group mode
# ---------------------------------------------------------------------------

def _calibration_scores(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """rbi of the leave-one-out folds and of the seeded rotations.

    ``values`` is the (n_tr, n_rules) matrix of training hit frequencies.
    Every score is one partition of its rows into a reference of ``k`` and
    a group of ``n_tr - k - 1``, so all of them are rows of one index
    array, scored in chunks by ``rule_based_information_batch``:

    * LOO row m: the first ``k`` rows (TR1), then the calibration rows
      after them without member m, in order;
    * rotation r: the rows ordered by row r of
      ``default_rng(ROTATION_SEED).random((ROTATIONS, n_tr))`` (stable
      argsort), the first ``k`` the reference, all but the last row the
      group.

    Returns the LOO scores and the rotation scores.
    """
    n_folds = len(values) - k
    member = np.arange(n_folds - 1)
    loo = np.hstack([
        np.broadcast_to(np.arange(k), (n_folds, k)),
        k + member + (member >= np.arange(n_folds)[:, None]),
    ])
    draws = np.random.default_rng(ROTATION_SEED).random((ROTATIONS, len(values)))
    rotations = np.argsort(draws, axis=1, kind="stable")[:, :-1]
    parts = np.vstack([loo, rotations])
    step = max(1, _PARTITION_CHUNK_VALUES // (parts.shape[1] * values.shape[1]))
    scores = np.concatenate([
        rule_based_information_batch(
            values[parts[i : i + step, k:]], values[parts[i : i + step, :k]]
        )
        for i in range(0, len(parts), step)
    ])
    return scores[:n_folds], scores[n_folds:]


def calibrated_rbi_interval(
    loo_scores: Sequence[float], rotation_scores: np.ndarray
) -> tuple[float, float]:
    """[min, max] over the LOO scores, the rotation scores and the scaled set.

    The scaled set is the rotation scores times
    ``median(loo_scores) / median(rotation_scores)``: it carries the offset
    of this particular reference part, which rotations alone average away.
    It is skipped unless that ratio is finite and positive (a rotation
    median of 0, +inf or NaN, or a LOO median of 0 or +inf), so a degenerate
    ratio never scales the rotation scores to 0 (the most-OoD value) or +inf.
    """
    loo_scores = np.asarray(loo_scores, dtype=np.float64)
    rotation_scores = np.asarray(rotation_scores, dtype=np.float64)
    pools = [loo_scores, rotation_scores]
    rotation_median = _sorted_median(sorted(rotation_scores.tolist()))
    if 0.0 < rotation_median < math.inf:
        ratio = _sorted_median(sorted(loo_scores.tolist())) / rotation_median
        if 0.0 < ratio < math.inf:
            pools.append(rotation_scores * ratio)
    return (
        float(min(p.min() for p in pools)),
        float(max(p.max() for p in pools)),
    )


def group_baseline(
    training: HitMatrix,
    n_op: int,
    config: Mapping[str, object] | None = None,
    fingerprint: str = "",
) -> Baselines:
    """Rotation-calibrated rule-based-information envelope plus norm envelopes.

    The first ``k = n_tr - n_op - 1`` training columns form the reference
    part (TR1), the last ``n_op + 1`` the calibration part (TR2).
    ``n_op``, ``n_rules``, ``n_tr`` and ``sigma_floor`` are written into the
    config over any value the caller passed, so a baseline always records
    the partition its envelope was built on; ``detect_group`` derives ``k``
    from the recorded ``n_tr`` and ``n_op``, and group streaming sizes its
    operational group from ``n_op``; a ``k`` in the caller's config is not
    read. A config ``n_op`` other than ``n_op`` is rejected.

    The ``rbi`` envelope is the [min, max] over three score sets
    (``calibrated_rbi_interval``):

    * leave-one-out: for every held-out member of TR2, the remaining fold
      of ``n_op`` scored against TR1, so each fold lies inside;
    * rotations: ``ROTATIONS`` seeded random partitions of all ``n_tr``
      columns into a reference of ``k`` and a group of ``n_op``, each
      group scored against its reference;
    * scaled: the rotation scores times median(LOO) / median(rotations).

    The folds share all but one member, so LOO alone brackets one
    calibration draw and misses fresh in-distribution groups; rotations
    re-draw reference and group, and the scaled set keeps the offset of
    this TR1, which detection scores against. A LOO fold is one more
    (reference, group) partition of the same shape as a rotation, so both
    sets are rows of one batch through the rbi kernel
    (``_calibration_scores``), and ``detect_group`` on a fold reproduces its
    LOO score bit for bit. Norm envelopes use all training columns.
    """
    k = training.n_splits - n_op - 1
    if config is not None and config.get("n_op", n_op) != n_op:
        raise DetectionError(
            f"config records n_op {config['n_op']}, but the envelope is built for n_op {n_op}"
        )
    if n_op < 2:
        raise DetectionError(f"group mode needs n_op >= 2, got {n_op}")
    if k < 2:
        raise DetectionError(f"group mode needs k = n_tr - n_op - 1 >= 2, got {k}")
    counts, n_s = training.counts, training.split_size
    loo_scores, rotation_scores = _calibration_scores(counts / n_s, k)
    upper = np.triu_indices(training.n_splits, 1)
    norms = lp_norms(counts[:, None, :], n_s, counts[None, :, :], n_s)
    iv = {name: _envelope(v[upper]) for name, v in zip(("l1", "l2"), norms)}
    cfg = {
        **(config or {}),
        "n_rules": training.n_rules,
        "n_tr": training.n_splits,
        "n_op": n_op,
        "sigma_floor": SIGMA_FLOOR_DEFAULT,
    }
    return Baselines(
        l1=iv["l1"], l2=iv["l2"],
        rbi=calibrated_rbi_interval(loo_scores, rotation_scores),
        config_fingerprint=fingerprint, config=cfg,
    )


def detect_group(
    training: HitMatrix,
    op_group: HitMatrix,
    base: Baselines,
    metrics: Sequence[str] | None = None,
) -> DetectionReport:
    """Score an operational group against the reference part of training.

    ``op_group`` holds one row per group member, ``n_op`` rows as
    ``group_baseline`` recorded it, and ``detect`` scores it. The reference
    part is the first ``k = n_tr - n_op - 1`` training rows. Rule-based
    information casts a single vote; the norms vote once per (training row,
    group member) pair, over ALL training rows, matching the envelopes
    built by ``group_baseline``. A single-split baseline is rejected.
    """
    if base.mode != GROUP:
        raise DetectionError("baseline has no reference partition (single-split mode)")
    return detect(training, op_group, base, metrics)


def detect(
    training: HitMatrix,
    unit: HitMatrix,
    base: Baselines,
    metrics: Sequence[str] | None = None,
) -> DetectionReport:
    """Score one operational unit of ``base.n_op`` rows in ``base.mode``: the one scoring body.

    ``check_request`` checks the request once (``metrics`` defaults to
    ``base.metrics``). A single split is scored by ``split_metrics``
    against every training row. A group's ``rbi`` is one batch through
    ``rule_based_information_batch``, the kernel that calibrated the
    envelope, against the first ``k = n_tr - n_op - 1`` training rows; its
    norms vote per (training row, member) pair, in that order.
    """
    metrics = check_request(training, base, unit.n_rules, unit.n_splits, metrics)
    counts, n_s = training.counts, training.split_size
    if base.mode == SINGLE_SPLIT:
        scores = split_metrics(counts, n_s, unit.counts[0], unit.split_size)
        return build_report(base, scores._asdict(), metrics)
    values: dict[str, np.ndarray] = {}
    if "rbi" in metrics:
        k = training.n_splits - base.n_op - 1
        values["rbi"] = rule_based_information_batch(
            (unit.counts / unit.split_size)[None],
            (counts[:k] / n_s)[None],
            float(base.config.get("sigma_floor", SIGMA_FLOOR_DEFAULT)),
        )
    if "l1" in metrics or "l2" in metrics:
        norms = lp_norms(counts[:, None, :], n_s, unit.counts[None, :, :], unit.split_size)
        values["l1"], values["l2"] = (v.ravel() for v in norms)
    return build_report(base, values, metrics)


# ---------------------------------------------------------------------------
# Persistence: baseline bundle = baselines + training hit matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaselineBundle:
    """Everything detection needs later: envelopes plus training histograms.

    Detection recomputes metrics against the training columns, so the
    persisted artifact carries them alongside the intervals. The bundle is
    the one source of detection settings: the mode is ``baselines.mode``,
    the operational split size ``training.split_size`` and the unit size
    ``baselines.n_op``.
    """

    baselines: Baselines
    training: HitMatrix

    def to_document(self) -> str:
        base = self.baselines
        doc = {
            "fingerprint": base.config_fingerprint,
            "config": {k: base.config[k] for k in sorted(base.config)},
            "intervals": {
                name: (list(iv) if (iv := getattr(base, name)) is not None else None)
                for name in ("wmi", "rbi", "l1", "l2")
            },
            "training_hits": {
                "split_size": self.training.split_size,
                "columns": self.training.counts.tolist(),
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_document(cls, text: str) -> "BaselineBundle":
        try:
            doc = json.loads(text)
            intervals = doc["intervals"]
            hits = doc["training_hits"]
            columns = hits["columns"]
            # np.array reads [true, 1] as int64, so JSON booleans are refused here.
            if any(type(c) is bool for row in columns for c in row):
                raise ValueError("training hit counts must be integers, got a boolean")
            training = HitMatrix(columns, hits["split_size"])
            config = doc.get("config", {})
            if config.get("n_s", training.split_size) != training.split_size:
                raise ValueError(
                    f"config n_s {config['n_s']} differs from the training split size "
                    f"{training.split_size}"
                )
            base = Baselines(
                l1=tuple(intervals["l1"]),
                l2=tuple(intervals["l2"]),
                wmi=tuple(intervals["wmi"]) if intervals.get("wmi") else None,
                rbi=tuple(intervals["rbi"]) if intervals.get("rbi") else None,
                config_fingerprint=doc.get("fingerprint", ""),
                config=config,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DetectionError(f"malformed baseline document: {exc}") from exc
        return cls(baselines=base, training=training)

    def verify(self, ruleset: Ruleset) -> None:
        """Raise ``FingerprintMismatchError`` unless built for ``ruleset``.

        The fingerprint is recomputed from the ruleset and the
        ``FINGERPRINT_KEYS`` entries of the stored config.
        """
        cfg = self.baselines.config
        expected = compute_fingerprint(
            ruleset, {k: cfg[k] for k in FINGERPRINT_KEYS if k in cfg}
        )
        if expected != self.baselines.config_fingerprint:
            raise FingerprintMismatchError(
                "baseline fingerprint does not match the supplied ruleset/configuration; "
                "rebuild the baseline or supply the original rules"
            )
