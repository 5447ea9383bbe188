"""Data splits and rule-hit histograms.

A split is a bunch of ``n_s`` samples treated as one observation unit. Its
hit histogram is the per-rule count of samples satisfying each premise,
scaled by ``n_s``. Counts are stored exactly as integers so that histogram
values compare exactly (they are integer multiples of ``1/n_s``), which the
value-frequency metrics rely on. ``HitMatrix.training_counts`` stacks the
training columns into the (n_tr, n_rules) int64 matrix the metric kernels
take.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    index: int = 0

    @property
    def size(self) -> int:
        return self.table.n_rows


@dataclass(frozen=True)
class HitHistogram:
    """Per-rule hit frequencies of one split, stored as exact counts.

    ``values`` are ``counts[i] / split_size``, each in [0, 1]. Multi-hit is
    allowed: one sample may satisfy several premises, or none, so the values
    need not sum to 1.
    """

    counts: tuple[int, ...]
    split_size: int
    origin: str = TRAINING

    def __post_init__(self) -> None:
        if self.split_size < 1:
            raise ValueError(f"split_size must be >= 1, got {self.split_size}")
        for i, c in enumerate(self.counts):
            if not (0 <= c <= self.split_size):
                raise ValueError(
                    f"count {c} for rule {i + 1} outside [0, {self.split_size}]"
                )

    @property
    def n_rules(self) -> int:
        return len(self.counts)

    @cached_property
    def values(self) -> np.ndarray:
        arr = np.asarray(self.counts, dtype=np.float64) / self.split_size
        arr.setflags(write=False)
        return arr

    @classmethod
    def from_values(
        cls, values: Sequence[float], split_size: int, origin: str = TRAINING
    ) -> "HitHistogram":
        """Build from real-valued frequencies that must be exact multiples of 1/split_size."""
        counts = []
        for v in values:
            c = round(v * split_size)
            if abs(v * split_size - c) > 1e-9:
                raise ValueError(
                    f"value {v} is not an integer multiple of 1/{split_size}"
                )
            counts.append(int(c))
        return cls(tuple(counts), split_size, origin)


@dataclass(frozen=True)
class HitMatrix:
    """Histogram columns of the training splits, sharing one split size."""

    training_columns: tuple[HitHistogram, ...]

    def __post_init__(self) -> None:
        if not self.training_columns:
            raise ValueError("hit matrix requires at least one training column")
        n_r = self.training_columns[0].n_rules
        for col in self.training_columns:
            if col.n_rules != n_r:
                raise ValueError(
                    f"histogram with {col.n_rules} rules in a matrix of {n_r}"
                )
        sizes = {col.split_size for col in self.training_columns}
        if len(sizes) > 1:
            raise ValueError(f"training columns have split sizes {sorted(sizes)}; need one")

    @property
    def n_rules(self) -> int:
        return self.training_columns[0].n_rules

    @property
    def n_training(self) -> int:
        return len(self.training_columns)

    @property
    def split_size(self) -> int:
        """The split size shared by every training column."""
        return self.training_columns[0].split_size

    @cached_property
    def training_counts(self) -> np.ndarray:
        """Read-only (n_tr, n_rules) int64 matrix of the training counts."""
        return count_matrix(self.training_columns)


def count_matrix(columns: Sequence[HitHistogram]) -> np.ndarray:
    """Read-only (n_cols, n_rules) int64 matrix of the histograms' counts."""
    counts = np.array([col.counts for col in columns], dtype=np.int64)
    counts.setflags(write=False)
    return counts


def make_splits(
    dataset: DataTable,
    n_s: int,
    n_splits: int,
    seed: int,
    origin: str = TRAINING,
) -> list[Split]:
    """Draw ``n_splits`` pairwise-disjoint splits of exactly ``n_s`` rows.

    Rows are assigned by a seeded shuffle followed by partition, so splits
    never share samples and the draw is reproducible for a fixed seed.
    """
    if n_s < 1 or n_splits < 1:
        raise ValueError("n_s and n_splits must both be >= 1")
    needed = n_s * n_splits
    if dataset.n_rows < needed:
        raise InsufficientDataError(
            f"need {needed} rows ({n_splits} splits of {n_s}), have {dataset.n_rows}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n_rows)
    splits = []
    for i in range(n_splits):
        idx = perm[i * n_s : (i + 1) * n_s]
        splits.append(Split(dataset.take(idx), origin=origin, index=i))
    return splits


def operational_splits(table: DataTable, n_s: int, count: int) -> list[Split]:
    """The first ``count * n_s`` rows of ``table`` as consecutive operational splits."""
    if table.n_rows < n_s * count:
        raise InsufficientDataError(
            f"operational data has {table.n_rows} rows; "
            f"need {n_s * count} ({count} splits of {n_s})"
        )
    return [
        Split(table.take(np.arange(i * n_s, (i + 1) * n_s)), origin=OPERATIONAL, index=i)
        for i in range(count)
    ]


def hit_histogram(ruleset: Ruleset, split: Split) -> HitHistogram:
    """Count, per rule, how many split samples satisfy the premise."""
    mask = ruleset.hit_mask_table(split.table.X, split.table.columns)
    counts = tuple(int(c) for c in mask.sum(axis=0))
    return HitHistogram(counts, split.size, origin=split.origin)


def hit_matrix(ruleset: Ruleset, training: Sequence[Split]) -> HitMatrix:
    """Histogram every training split, in order."""
    return HitMatrix(tuple(hit_histogram(ruleset, s) for s in training))
