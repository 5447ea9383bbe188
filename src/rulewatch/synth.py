"""Built-in synthetic data sources for experiments and self-contained tests."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .data import DataTable

_LABELS = np.array(("0", "1"), dtype=object)


def _feature_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


class _Source:
    """What both sources share; each dataclass defines ``sample``."""

    def shifted(self, shift: dict[int, float]):
        """Copy of this source with per-feature mean offsets applied."""
        full = list(self.mean_shift) if self.mean_shift else [0.0] * self.n_features
        for idx, delta in shift.items():
            full[idx] += delta
        return replace(self, mean_shift=tuple(full))

    def stream(self, rng: np.random.Generator, chunk: int = 256) -> Iterator[dict[str, float]]:
        while True:
            yield from self.sample(chunk, rng).iter_records()


@dataclass(frozen=True)
class GaussianMixtureSource(_Source):
    """Two-component Gaussian mixture with a drift knob.

    Component 0 is centered at the origin; component 1 is offset by
    ``class_sep`` on the ``informative`` features. ``mean_shift`` moves
    BOTH components (a distribution shift invisible to the labels), which
    is the out-of-distribution scenario.
    """

    n_features: int = 6
    informative: tuple[int, ...] = (0, 1, 2, 3)
    class_sep: float = 1.5
    sigma: float = 1.0
    weight: float = 0.5
    mean_shift: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.mean_shift and len(self.mean_shift) != self.n_features:
            raise ValueError("mean_shift must list one offset per feature")
        if any(i >= self.n_features for i in self.informative):
            raise ValueError("informative feature index out of range")

    def sample(self, n: int, rng: np.random.Generator) -> DataTable:
        comp = (rng.random(n) < self.weight).astype(np.int64)
        X = rng.normal(0.0, self.sigma, size=(n, self.n_features))
        for idx in self.informative:
            X[:, idx] += comp * self.class_sep
        if self.mean_shift:
            X += np.asarray(self.mean_shift)
        labels = tuple(_LABELS[comp].tolist())
        X.setflags(write=False)  # a fresh sample, handed over uncopied
        return DataTable(_feature_names(self.n_features), X, labels)


@dataclass(frozen=True)
class RuleAlignedSource(_Source):
    """Uniform features on [0, 1]^d labeled by axis-aligned thresholds.

    The label is decided by whether x1 and x2 fall below ``cut``, so a
    shallow tree recovers the generating rules exactly; ``mean_shift``
    translates the features to create out-of-distribution data.
    """

    n_features: int = 4
    cut: float = 0.5
    mean_shift: tuple[float, ...] = ()

    def sample(self, n: int, rng: np.random.Generator) -> DataTable:
        X = rng.random((n, self.n_features))
        below1 = X[:, 0] <= self.cut
        below2 = X[:, 1] <= self.cut if self.n_features > 1 else np.ones(n, bool)
        labels = tuple(_LABELS[(below1 & below2).astype(np.int64)].tolist())
        if self.mean_shift:
            X = X + np.asarray(self.mean_shift)
        X.setflags(write=False)  # a fresh sample, handed over uncopied
        return DataTable(_feature_names(self.n_features), X, labels)


SOURCES = {
    "gaussian": GaussianMixtureSource,
    "rule-aligned": RuleAlignedSource,
}


def make_source(kind: str, **kwargs):
    if kind not in SOURCES:
        raise ValueError(f"unknown source {kind!r}; choose from {sorted(SOURCES)}")
    return SOURCES[kind](**kwargs)
