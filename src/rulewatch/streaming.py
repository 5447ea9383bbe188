"""Incremental groupwise operation over sample streams.

The window stores one hit mask per retained sample (the int
``ruleset_hits`` returns), not the sample itself, so evicting the oldest
sample and admitting a new one both cost at most O(n_rules)
regardless of window length; the running counts are integer-exact equal to
a batch recount of the retained samples at every tick; the window keeps
counts and nothing else. ``stream_detect`` scores one full window by
``detect_split`` of its histogram. On top of that sits a monitor that
ticks every push (or every ``detect_stride`` pushes). A single-split
monitor owns one ``SplitScorer`` of its window's counts, which moves its
integer state only for the rules whose counts changed since the last tick
and equals batch ``detect_split`` bit for bit. For a group baseline the
monitor keeps a window snapshot every ``capacity`` pushes: its
group is the last ``n_op`` disjoint windows, the unit batch ``detect``
scores and the ``rbi`` envelope was calibrated on. The monitor scores only
a unit that changed: ``detect`` scores the group once per new snapshot, a
single-split window is scored at the first tick after a push that moved
its counts, and every other tick returns the last report. The mode,
``n_op`` and the default window length come from the baseline and its
training matrix. A tick is the ``DetectionReport`` batch detection
returns, not a copy of it; a caller that wants to key it by sample counts
its own pushes.

A separate accumulator provides rolling mean/variance/skewness/kurtosis for
time-series feature extraction.
"""
from __future__ import annotations

import math
import warnings
from collections import deque
from typing import Iterator, Mapping, Sequence

import numpy as np

from .detection import (
    GROUP,
    Baselines,
    DetectionReport,
    build_report,
    check_request,
    detect,
    detect_split,
)
from .histogram import HitHistogram, HitMatrix
from .metrics import SplitScorer
from .rules import Ruleset, ruleset_hits


class StreamStateError(RuntimeError):
    """Stream operation attempted in an invalid window state."""


class InsufficientSamplesError(ValueError):
    """A moment was queried with fewer samples than it needs."""


class WindowSizeMismatchWarning(UserWarning):
    """Stream window length differs from the baseline's split size."""


class SlidingHitWindow:
    """Ring buffer of per-sample hit masks with exact running counts.

    Each slot holds its sample's mask as the int ``ruleset_hits`` returns
    (bit ``j - 1`` for rule ``j``; 0 in a slot not yet filled), so a push
    that admits the mask it evicts costs one int comparison and leaves the
    counts alone; a push that moves them adds one to the count of each rule
    only the admitted mask holds and takes one from each rule only the
    evicted mask holds. ``counts`` shows the running counts without a
    copy, and ``histogram`` copies them.
    """

    def __init__(self, ruleset: Ruleset, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._ruleset = ruleset
        self._capacity = capacity
        self._n_rules = ruleset.n_rules
        self._masks: list[int] = [0] * capacity
        self._counts = np.zeros(self._n_rules, dtype=np.int64)
        self._view = self._counts.view()
        self._view.setflags(write=False)
        self._head = 0
        self._fill = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def fill(self) -> int:
        return self._fill

    @property
    def is_full(self) -> bool:
        return self._fill == self._capacity

    @property
    def n_rules(self) -> int:
        return self._n_rules

    @property
    def counts(self) -> np.ndarray:
        """The running counts, a read-only view: later pushes move what it shows."""
        return self._view

    def push(self, sample: Mapping[str, float]) -> bool:
        """Admit one sample, evicting the oldest when full; True if the counts or the fill moved.

        Evaluation happens before any mutation, so an evaluation error
        leaves the window unchanged. A full window whose evicted mask equals
        the admitted one keeps its counts and returns False.
        """
        mask = ruleset_hits(self._ruleset, sample)
        evicted = self._masks[self._head]
        if self._fill < self._capacity:
            self._fill += 1
            moved = True
        else:
            moved = evicted != mask
        if evicted != mask:
            counts = self._counts
            for j in _set_bits(mask & ~evicted):
                counts[j] += 1
            for j in _set_bits(evicted & ~mask):
                counts[j] -= 1
        self._masks[self._head] = mask
        self._head = (self._head + 1) % self._capacity
        return moved

    def histogram(self) -> HitHistogram:
        """The window's counts over its fill; a copy, so later pushes leave it as it is."""
        if self._fill == 0:
            raise StreamStateError("window is empty; no histogram yet")
        return HitHistogram(self._counts, self._fill)


def _set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a non-negative ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def stream_detect(
    window: SlidingHitWindow,
    base: Baselines,
    training: HitMatrix,
    metrics: Sequence[str] | None = None,
) -> DetectionReport:
    """Run one single-split detection tick on the current window state.

    The report is ``detect_split`` of the window's histogram: every call
    checks the request and scores through a fresh scorer, and a group
    baseline is rejected. ``StreamMonitor`` keeps its scorer across ticks
    instead.
    """
    if not window.is_full:
        raise StreamStateError(
            f"window holds {window.fill} of {window.capacity} samples; detection needs a full window"
        )
    return detect_split(training, window.histogram(), base, metrics)


class StreamMonitor:
    """Feed samples, get a ``DetectionReport`` per detection tick.

    Single-writer object: one stream pushes; reads happen between pushes.
    The baseline decides the mode (``base.mode``) and, for a group
    baseline, the group size (its config's ``n_op``); the window holds
    ``training.split_size`` samples unless ``capacity`` says otherwise. In
    group mode the group is the last ``n_op`` disjoint windows, as
    ``operational_splits`` cuts them for batch ``detect``: one snapshot
    every ``capacity`` pushes, and ticks from push ``n_op * capacity`` on.
    A tick scores its unit only if the unit changed since the last report,
    and otherwise returns that report object again: a group changes only
    when a snapshot is taken, a single-split window only on a push whose
    evicted hit mask differs from the admitted one (a push between two
    ticks counts too, so any ``detect_stride`` stays exact). The request
    (``check_request``: the training matrix, the rule count and the metric
    names) is checked once, when the monitor is built, before any sample is
    read; ``metrics`` holds the names it resolved. A single-split monitor
    scores its window through ``scorer``, built here once and moved by
    every scored tick (``None`` in group mode), and builds the report with
    no further check.
    """

    def __init__(
        self,
        ruleset: Ruleset,
        base: Baselines,
        training: HitMatrix,
        capacity: int | None = None,
        detect_stride: int = 1,
        metrics: Sequence[str] | None = None,
    ):
        if detect_stride < 1:
            raise ValueError("detect_stride must be >= 1")
        self.metrics = check_request(training, base, ruleset.n_rules, base.n_op, metrics)
        if capacity is None:
            capacity = training.split_size
        self.window = SlidingHitWindow(ruleset, capacity)
        if capacity != training.split_size:
            warnings.warn(
                f"stream window of {capacity} samples differs from the baseline split "
                f"size {training.split_size}; envelope calibration assumes matching sizes",
                WindowSizeMismatchWarning,
                stacklevel=2,
            )
        self.base = base
        self.training = training
        self.mode = base.mode
        self.n_op = base.n_op
        # The single-split scorer, built once: each tick moves its state
        # only for the rules whose counts changed since the last score.
        self.scorer = (
            None if self.mode == GROUP else SplitScorer(training.counts, training.split_size)
        )
        self.detect_stride = detect_stride
        self._pushes = 0
        self._snapshots: deque[np.ndarray] = deque(maxlen=self.n_op)
        # The last tick's report; None once the scored unit has changed.
        self._report: DetectionReport | None = None

    def push(self, sample: Mapping[str, float]) -> DetectionReport | None:
        """Push one sample; returns the tick's report when a detection tick fires."""
        moved = self.window.push(sample)
        self._pushes += 1
        if not self.window.is_full:
            return None
        if self.mode == GROUP:
            if self._pushes % self.window.capacity == 0:
                self._snapshots.append(self.window.histogram().counts)
                self._report = None
        elif moved:
            self._report = None
        if (self._pushes - self.window.capacity) % self.detect_stride != 0:
            return None
        if self._report is None:
            if self.scorer is not None:
                scores = self.scorer.score(self.window.counts, self.window.capacity)
                self._report = build_report(self.base, scores._asdict(), self.metrics)
            elif len(self._snapshots) == self.n_op:
                group = HitMatrix(list(self._snapshots), self.window.capacity)
                self._report = detect(self.training, group, self.base, self.metrics)
        return self._report


# ---------------------------------------------------------------------------
# Incremental moments
# ---------------------------------------------------------------------------

# A query recomputes the power sums from the retained values once an error
# bound passes this multiple of the central sum it bounds, so each central
# sum stays within a relative 2**20 unit roundoffs (2**-53 each), about
# 1.2e-10, of its value.
_ERROR_BUDGET = 2.0**20


class MomentAccumulator:
    """Rolling mean/variance/skewness/kurtosis over a value window.

    Keeps the sums ``s1..s4`` of the powers of the retained values' offsets
    from a center, moved by one term per push and per eviction. Recursive
    summation errs by at most the unit roundoff times the sum of its
    running sums' magnitudes (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, §4.2), so each update adds the new ``|s2|`` and
    ``|s4|`` to two error bounds. A query that finds a bound past
    ``_ERROR_BUDGET`` times the central sum it bounds (a NaN or infinite
    sum fails that comparison too) first recomputes the sums from the
    retained values, centered on the one nearest their mean, which meets
    the budget again. So every moment stays within about 1e-9 of a
    two-pass computation over the window, whatever values passed through
    it before. Variance is the population (divide-by-n) variant; skewness
    and kurtosis are the standardized third and fourth moments, 0 for a
    zero-variance window. A moment whose powers leave the float range
    (values about 1e77 apart) is inf or NaN; no method raises
    ``OverflowError``.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._values: deque[float] = deque()
        self._center = 0.0
        self._s1 = self._s2 = self._s3 = self._s4 = 0.0
        self._e2 = self._e4 = 0.0  # error bounds of s2 and s4, in unit roundoffs

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def capacity(self) -> int | None:
        return self._capacity

    def push(self, x: float) -> None:
        """Add a value; at capacity, the oldest value is evicted first."""
        if self._capacity is not None and len(self._values) == self._capacity:
            self.evict()
        x = float(x)
        if not self._values:
            self._center = x
            self._s1 = self._s2 = self._s3 = self._s4 = self._e2 = self._e4 = 0.0
        self._values.append(x)
        self._accumulate(x, +1.0)

    def evict(self) -> float:
        """Remove and return the oldest value."""
        if not self._values:
            raise InsufficientSamplesError("cannot evict from an empty accumulator")
        x = self._values.popleft()
        self._accumulate(x, -1.0)
        return x

    def _accumulate(self, x: float, sign: float) -> None:
        d = x - self._center
        d2 = d * d
        self._s1 += sign * d
        self._s2 += sign * d2
        self._s3 += sign * d2 * d
        self._s4 += sign * d2 * d2
        self._e2 += abs(self._s2)
        self._e4 += abs(self._s4)

    def _recompute(self) -> None:
        values = self._values
        mean = sum(values) / len(values)
        self._center = c = min(values, key=lambda v: abs(v - mean))
        ds = [v - c for v in values]
        self._s1 = sum(ds)
        self._s2 = self._e2 = sum([d * d for d in ds])
        self._s3 = sum([d * d * d for d in ds])
        self._s4 = self._e4 = sum([d * d * d * d for d in ds])

    def _central_sums(self, n: int) -> tuple[float, float, float, float]:
        """The mean offset from the center, and the central sums of powers 2, 3 and 4."""
        m, s2, s3, s4 = self._s1 / n, self._s2, self._s3, self._s4
        nm2 = n * m * m
        return (m, s2 - nm2, s3 - m * (3.0 * s2 - 2.0 * nm2),
                s4 - m * (4.0 * s3 - m * (6.0 * s2 - 3.0 * nm2)))

    def _query(self, need: int, what: str) -> tuple[float, float, float, float]:
        n = len(self._values)
        if n < need:
            raise InsufficientSamplesError(f"{what} needs at least {need} samples, have {n}")
        m, c2, c3, c4 = self._central_sums(n)
        if not (self._e2 <= _ERROR_BUDGET * c2 and self._e4 <= _ERROR_BUDGET * c4):
            self._recompute()
            m, c2, c3, c4 = self._central_sums(n)
        mean, var = self._center + m, max(c2, 0.0) / n
        if var == 0.0:
            return mean, 0.0, 0.0, 0.0
        # Divided in turn: var * var is 0 for a variance below about 1e-162.
        return mean, var, c3 / n / var / math.sqrt(var), c4 / n / var / var

    def mean(self) -> float:
        return self._query(1, "mean")[0]

    def variance(self) -> float:
        return self._query(2, "variance")[1]

    def skewness(self) -> float:
        return self._query(3, "skewness")[2]

    def kurtosis(self) -> float:
        return self._query(4, "kurtosis")[3]

    def query(self) -> tuple[float, float, float, float]:
        """(mean, variance, skewness, kurtosis) of the retained values."""
        return self._query(4, "full moment query")
