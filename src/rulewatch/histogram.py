"""Data splits and rule-hit histograms.

A split is ``n_s`` samples treated as one observation unit, held as a row
of indices into one table: ``make_splits`` and ``operational_splits`` return
a read-only ``(n_splits, n_s)`` index array, and ``hit_matrix`` counts each
row of it straight from the table. A split's hit histogram is the per-rule
count of samples satisfying each premise, scaled by ``n_s``. Counts are
stored exactly as integers so that histogram values compare exactly (they
are integer multiples of ``1/n_s``), which the value-frequency metrics rely
on. A ``HitHistogram`` is one (n_rules,) int64 count vector and a
``HitMatrix`` one (n, n_rules) int64 count matrix, row i holding split i;
the matrix serves training splits and operational groups alike and is the
array the metric kernels take. Both hold a read-only copy of their counts,
checked once on construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import DataTable, InsufficientDataError
from .rules import Ruleset

TRAINING = "training"
OPERATIONAL = "operational"


@dataclass(frozen=True)
class Split:
    """A fixed-size group of samples drawn from one origin."""

    table: DataTable
    origin: str = TRAINING

    @property
    def size(self) -> int:
        return self.table.n_rows


def _checked_counts(counts, split_size, ndim: int) -> np.ndarray:
    """A read-only int64 copy of ``counts``: ``ndim`` axes, rows, values in [0, split_size].

    ``split_size`` must be an integer (not a bool) of at least 1, and the
    counts an integer array; float, bool, string and object dtypes are
    rejected rather than rounded.
    """
    if isinstance(split_size, bool) or not isinstance(split_size, (int, np.integer)):
        raise ValueError(f"split_size must be an integer, got {split_size!r}")
    if split_size < 1:
        raise ValueError(f"split_size must be >= 1, got {split_size}")
    arr = np.array(counts)
    if arr.ndim != ndim:
        raise ValueError(f"counts must have {ndim} dimension(s), got shape {arr.shape}")
    if len(arr) == 0:
        raise ValueError("counts must have at least one row")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got dtype {arr.dtype}")
    outside = arr[(arr < 0) | (arr > split_size)]
    if outside.size:
        raise ValueError(f"count {outside[0]} outside [0, {split_size}]")
    arr = arr.astype(np.int64, copy=False)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class HitHistogram:
    """Per-rule hit counts of one split: a read-only (n_rules,) int64 vector.

    Its values are ``counts / split_size``, each in [0, 1]. Multi-hit is
    allowed: one sample may satisfy several premises, or none, so the values
    need not sum to 1.
    """

    counts: np.ndarray
    split_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _checked_counts(self.counts, self.split_size, 1))
        object.__setattr__(self, "split_size", int(self.split_size))

    @property
    def n_rules(self) -> int:
        return len(self.counts)

    @classmethod
    def from_values(cls, values: Sequence[float], split_size: int) -> "HitHistogram":
        """Build from real-valued frequencies that must be exact multiples of 1/split_size."""
        counts = []
        for v in values:
            c = round(v * split_size)
            if abs(v * split_size - c) > 1e-9:
                raise ValueError(
                    f"value {v} is not an integer multiple of 1/{split_size}"
                )
            counts.append(int(c))
        return cls(counts, split_size)


@dataclass(frozen=True, eq=False)
class HitMatrix:
    """Hit counts of splits sharing one split size: a read-only (n, n_rules) int64 matrix.

    Row i holds split i's counts. It holds the training splits of a
    baseline and the members of an operational group alike.
    """

    counts: np.ndarray
    split_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _checked_counts(self.counts, self.split_size, 2))
        object.__setattr__(self, "split_size", int(self.split_size))

    @property
    def n_rules(self) -> int:
        return self.counts.shape[1]

    @property
    def n_splits(self) -> int:
        return self.counts.shape[0]


def make_splits(table: DataTable, n_s: int, n_splits: int, seed: int) -> np.ndarray:
    """Row indices of ``n_splits`` pairwise-disjoint splits of exactly ``n_s`` rows.

    Rows are assigned by a seeded shuffle followed by partition, so splits
    never share samples and the draw is reproducible for a fixed seed.
    """
    if n_s < 1 or n_splits < 1:
        raise ValueError("n_s and n_splits must both be >= 1")
    needed = n_s * n_splits
    if table.n_rows < needed:
        raise InsufficientDataError(
            f"need {needed} rows ({n_splits} splits of {n_s}), have {table.n_rows}"
        )
    rows = np.random.default_rng(seed).permutation(table.n_rows)[:needed].reshape(n_splits, n_s)
    rows.setflags(write=False)
    return rows


def operational_splits(table: DataTable, n_s: int, count: int) -> np.ndarray:
    """Row indices of the first ``count * n_s`` rows of ``table`` as consecutive splits."""
    if table.n_rows < n_s * count:
        raise InsufficientDataError(
            f"operational data has {table.n_rows} rows; "
            f"need {n_s * count} ({count} splits of {n_s})"
        )
    rows = np.arange(count * n_s).reshape(count, n_s)
    rows.setflags(write=False)
    return rows


def hit_histogram(ruleset: Ruleset, split: Split) -> HitHistogram:
    """The hit histogram of one split."""
    rows = np.arange(split.size)[None]  # all rows, as one split
    counts = ruleset.hit_counts(split.table.X, split.table.columns, rows)[0]
    return HitHistogram(counts, split.size)


def hit_matrix(ruleset: Ruleset, table: DataTable, splits: np.ndarray) -> HitMatrix:
    """Hit counts per split, one per row of indices in ``splits``; other rows are never read.

    Every split is counted in one pass through the ruleset's lookup
    (``Ruleset.hit_counts``); a NaN a rule reads is an error naming the
    lowest table row (0-based) that holds one.
    """
    rows = np.asarray(splits)  # a ragged nested sequence raises ValueError here
    if rows.ndim != 2 or rows.size == 0 or rows.dtype.kind not in "iu":
        raise ValueError(f"splits must be a non-empty 2-D integer array, got {rows.shape}")
    return HitMatrix(ruleset.hit_counts(table.X, table.columns, rows), rows.shape[1])
