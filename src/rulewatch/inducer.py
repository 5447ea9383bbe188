"""Depth-limited decision tree whose leaves become conjunctive rules.

Splits greedily minimize Gini impurity over midpoints of consecutive
distinct feature values. Each tree node scores every boundary of every
feature in one numpy pass over its (n, d) matrix: integer Gini numerators
and denominators as arrays, then a float prefilter. Those float scores are
correctly rounded exact fractions while n**3 / 4 < 2**53 (n below about
330k rows), so the prefilter's band always holds the exact best. Only the
near-ties it keeps are compared exactly, as fractions, with ties broken by
lowest feature index then lowest threshold, so induction is fully
deterministic. Root-to-leaf paths flatten into rules whose premises
partition the feature space: every sample satisfies exactly one induced
rule.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .data import DataTable
from .rules import Condition, Rule, Ruleset


class InducerError(ValueError):
    """Induction inputs or outputs unusable for rule generation."""


class RuleQualityWarning(UserWarning):
    """Induced ruleset likely to produce flat, uninformative hit histograms."""


@dataclass(frozen=True)
class TreeLeaf:
    label: str
    support: int


@dataclass(frozen=True)
class TreeSplit:
    feature: str
    threshold: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[TreeLeaf, TreeSplit]


def induce_tree(
    dataset: DataTable,
    max_depth: int = 4,
    min_leaf: int = 50,
) -> TreeNode:
    """Grow a binary classification tree on a labeled table.

    All tie-breaking is rule-based, so induction is deterministic. A NaN
    feature value is rejected with its 0-based row before anything grows.
    """
    if dataset.labels is None:
        raise InducerError("induction needs a labeled dataset")
    if dataset.n_rows == 0:
        raise InducerError("induction needs a nonempty dataset")
    if max_depth < 1:
        raise InducerError(f"max_depth must be >= 1, got {max_depth}")
    if min_leaf < 1:
        raise InducerError(f"min_leaf must be >= 1, got {min_leaf}")
    nan = np.isnan(dataset.X)
    if nan.any():
        row, f = np.argwhere(nan)[0]
        raise InducerError(f"row {row}: feature {dataset.columns[f]!r} is NaN")
    classes = tuple(sorted(set(dataset.labels)))
    if len(classes) < 2:
        raise InducerError(f"induction needs >= 2 classes, got {classes}")
    class_code = {c: i for i, c in enumerate(classes)}
    y = np.fromiter(
        map(class_code.__getitem__, dataset.labels), dtype=np.int64, count=dataset.n_rows
    )
    return _grow(dataset.X, y, dataset.columns, classes, depth_left=max_depth, min_leaf=min_leaf)


def _leaf(y: np.ndarray, classes: tuple[str, ...]) -> TreeLeaf:
    counts = np.bincount(y, minlength=len(classes))
    best = counts.max()
    # Lexicographically smallest label among ties; classes are sorted.
    label = classes[int(np.nonzero(counts == best)[0][0])]
    return TreeLeaf(label=label, support=int(len(y)))


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    columns: tuple[str, ...],
    classes: tuple[str, ...],
    depth_left: int,
    min_leaf: int,
) -> TreeNode:
    if depth_left == 0 or len(y) < 2 * min_leaf or np.all(y == y[0]):
        return _leaf(y, classes)
    split = _best_split(X, y, len(classes), min_leaf)
    if split is None:
        return _leaf(y, classes)
    f, threshold = split
    left_mask = X[:, f] <= threshold
    return TreeSplit(
        feature=columns[f],
        threshold=threshold,
        left=_grow(X[left_mask], y[left_mask], columns, classes, depth_left - 1, min_leaf),
        right=_grow(X[~left_mask], y[~left_mask], columns, classes, depth_left - 1, min_leaf),
    )


def _best_split(
    X: np.ndarray, y: np.ndarray, n_classes: int, min_leaf: int
) -> tuple[int, float] | None:
    """Exact Gini-optimal (feature, midpoint threshold), or None.

    Minimizing weighted Gini impurity is equivalent to maximizing
    sum_c nl_c^2 / nl + sum_c nr_c^2 / nr; that score is the fraction
    (A*nr + B*nl) / (nl*nr) with integer numerator and denominator, which
    permits exact comparison.

    One pass scores every boundary of every feature: an argsort of the
    node's (n, d) matrix along axis 0, per-class cumulative counts over the
    sorted rows, and the integer numerator and denominator of every
    boundary position as arrays. A position is a candidate when its two
    sorted neighbours differ and both sides keep ``min_leaf`` rows; the
    counts there do not depend on how the sort orders equal values, so the
    sort need not be stable. A float prefilter over that score array keeps
    the near-ties, and only those are compared exactly (``Fraction``), ties
    going to the lowest feature, then the lowest threshold
    ``(xs[i] + xs[i+1]) / 2``.
    """
    n, d = X.shape
    lo, hi = min_leaf - 1, n - min_leaf  # boundary rows with both sides >= min_leaf
    if lo >= hi:
        return None
    order = np.argsort(X, axis=0)
    xs = np.take_along_axis(X, order, axis=0)
    valid = xs[lo:hi] < xs[lo + 1 : hi + 1]
    if not valid.any():
        return None
    total = np.bincount(y, minlength=n_classes).astype(np.int64)
    ys = y[order]
    A = np.zeros((hi - lo, d), dtype=np.int64)
    B = np.zeros((hi - lo, d), dtype=np.int64)
    for c in range(n_classes):
        nl_c = np.cumsum(ys[:hi] == c, axis=0, dtype=np.int64)[lo:]
        nr_c = total[c] - nl_c
        A += nl_c * nl_c
        B += nr_c * nr_c
    nl = np.arange(lo + 1, hi + 1, dtype=np.int64)[:, None]
    nr = n - nl
    num = A * nr + B * nl
    den = nl * nr
    # num <= n**3 / 4 and den <= n**2 / 4, so while n**3 / 4 < 2**53 both
    # are exact doubles and each float score is the correctly rounded
    # fraction; a 1e-9 band then safely contains the exact best.
    fscore = np.where(valid, num / den, -np.inf)
    best_float = float(fscore.max())
    features, rows = np.nonzero(fscore.T >= best_float - 1e-9 * max(abs(best_float), 1.0))
    shortlist = [  # (num, den, feature, threshold)
        (int(num[i, f]), int(den[i, 0]), f, float((xs[lo + i, f] + xs[lo + i + 1, f]) / 2.0))
        for f, i in zip(features.tolist(), rows.tolist())
    ]
    best = max(shortlist, key=lambda c: (Fraction(c[0], c[1]), -c[2], -c[3]))
    parent_score = Fraction(int((total * total).sum()), n)
    if Fraction(best[0], best[1]) <= parent_score:
        return None  # no impurity decrease
    return best[2], best[3]


def _leaf_paths(
    node: TreeNode, path: tuple[Condition, ...] = ()
) -> Iterator[tuple[tuple[Condition, ...], TreeLeaf]]:
    """Each leaf, left to right, with its path: ``feature <= t`` left, ``feature > t`` right."""
    if isinstance(node, TreeLeaf):
        yield path, node
        return
    yield from _leaf_paths(node.left, path + (Condition(node.feature, "<=", node.threshold),))
    yield from _leaf_paths(node.right, path + (Condition(node.feature, ">", node.threshold),))


def tree_to_rules(tree: TreeNode) -> Ruleset:
    """One rule per leaf: the conjunction of path conditions, left to right.

    A tree with no split would yield an empty premise, which the rule model
    forbids, so it is rejected.
    """
    if isinstance(tree, TreeLeaf):
        raise InducerError(
            "tree has no splits; a single always-true rule cannot be expressed"
        )
    return Ruleset(tuple(
        Rule(id=j, premise=path, consequence=leaf.label)
        for j, (path, leaf) in enumerate(_leaf_paths(tree), start=1)
    ))


def induce_ruleset(
    dataset: DataTable,
    max_depth: int = 4,
    min_leaf: int = 50,
    warn: bool = True,
) -> Ruleset:
    """Induce a tree and flatten it to rules, warning on flat hit shapes.

    Few rules, or rules satisfied by nearly all training samples, flatten
    the hit histograms that downstream detection fingerprints, degrading
    its resolution.
    """
    tree = induce_tree(dataset, max_depth=max_depth, min_leaf=min_leaf)
    ruleset = tree_to_rules(tree)
    if warn:
        if ruleset.n_rules < 4:
            warnings.warn(
                f"only {ruleset.n_rules} rules induced; hit histograms this short "
                "carry little distribution information",
                RuleQualityWarning,
                stacklevel=2,
            )
        # A rule holds for exactly its leaf's training rows.
        supports = [leaf.support for _, leaf in _leaf_paths(tree)]
        near_universal = [j + 1 for j, s in enumerate(supports) if s / dataset.n_rows > 0.9]
        if near_universal:
            warnings.warn(
                f"rules {near_universal} are satisfied by >90% of training samples; "
                "near-universal rules flatten the hit histograms",
                RuleQualityWarning,
                stacklevel=2,
            )
    return ruleset
