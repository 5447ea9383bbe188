from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rulewatch import (
    DataTable,
    InducerError,
    RuleQualityWarning,
    Ruleset,
    induce_ruleset,
    parse_ruleset,
    ruleset_hits,
)
from rulewatch import inducer
from rulewatch.inducer import TreeLeaf, TreeNode, TreeSplit, induce_tree, tree_to_rules
from tests.conftest import hit_bits


def predict_tree(tree: TreeNode, sample: dict[str, float]) -> str:
    """Route one sample to its leaf label: the oracle of ``tree_to_rules``."""
    node = tree
    while isinstance(node, TreeSplit):
        node = node.left if sample[node.feature] <= node.threshold else node.right
    return node.label


def _table(X, labels, columns=None):
    X = np.asarray(X, dtype=float)
    if columns is None:
        columns = tuple(f"x{i + 1}" for i in range(X.shape[1]))
    return DataTable(columns, X, tuple(str(l) for l in labels))


def test_separable_1d_single_split():
    X = [[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]]
    y = [0, 0, 0, 1, 1, 1]
    tree = induce_tree(_table(X, y), max_depth=3, min_leaf=1)
    assert isinstance(tree, TreeSplit)
    assert tree.feature == "x1"
    assert tree.threshold == 0.0  # midpoint of -0.5 and 0.5
    assert isinstance(tree.left, TreeLeaf) and tree.left.label == "0"
    assert isinstance(tree.right, TreeLeaf) and tree.right.label == "1"


def test_constant_features_degenerate_leaf():
    X = [[1.0, 1.0]] * 10
    y = [0] * 6 + [1] * 4
    tree = induce_tree(_table(X, y), max_depth=3, min_leaf=1)
    assert isinstance(tree, TreeLeaf)
    assert tree.label == "0"
    assert tree.support == 10


def test_single_class_rejected():
    with pytest.raises(InducerError):
        induce_tree(_table([[1.0], [2.0]], [1, 1]), max_depth=2, min_leaf=1)


def test_unlabeled_rejected():
    table = DataTable(("x1",), np.array([[1.0], [2.0]]))
    with pytest.raises(InducerError):
        induce_tree(table, max_depth=2, min_leaf=1)


def test_nan_rejected_before_growing():
    X = [[-2.0, 0.1], [-1.0, 0.2], [-0.5, 0.3], [0.5, np.nan], [1.0, 0.5], [2.0, np.nan]]
    table = _table(X, [0, 0, 0, 1, 1, 1])
    with pytest.raises(InducerError, match=r"^row 3: feature 'x2' is NaN$"):
        induce_tree(table, max_depth=3, min_leaf=1)
    with pytest.raises(InducerError, match=r"^row 3: feature 'x2' is NaN$"):
        induce_ruleset(table, max_depth=3, min_leaf=1, warn=False)


def _exhaustive_best_split(X, y, min_leaf):
    """Independent oracle: try every midpoint with exact Fraction scores."""
    n, d = X.shape
    classes = sorted(set(y))
    best = None
    for f in range(d):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = [i for i in range(n) if X[i, f] <= thr]
            right = [i for i in range(n) if X[i, f] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            A = sum(sum(1 for i in left if y[i] == c) ** 2 for c in classes)
            B = sum(sum(1 for i in right if y[i] == c) ** 2 for c in classes)
            score = Fraction(A, len(left)) + Fraction(B, len(right))
            key = (score, -f, -thr)
            if best is None or key > best[0]:
                best = (key, f, thr)
    if best is None:
        return None
    parent = Fraction(sum(sum(1 for v in y if v == c) ** 2 for c in classes), n)
    if best[0][0] <= parent:
        return None
    return best[1], best[2]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_root_split_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 40
    X = np.round(rng.normal(0, 1, size=(n, 3)), 1)  # duplicates force ties
    y = [str(int(x0 + 0.3 * x1 > 0)) for x0, x1 in X[:, :2]]
    expected = _exhaustive_best_split(X, y, min_leaf=3)
    tree = induce_tree(_table(X, y), max_depth=1, min_leaf=3)
    if expected is None:
        assert isinstance(tree, TreeLeaf)
    else:
        f, thr = expected
        assert isinstance(tree, TreeSplit)
        assert tree.feature == f"x{f + 1}"
        assert tree.threshold == thr


def test_depth_one_tree_two_single_condition_rules():
    X = [[-1.0], [1.0]] * 5
    y = [0, 1] * 5
    tree = induce_tree(_table(X, y), max_depth=1, min_leaf=1)
    rs = tree_to_rules(tree)
    assert rs.n_rules == 2
    assert all(len(r.premise) == 1 for r in rs.rules)
    assert rs.rules[0].premise[0].operator == "<="
    assert rs.rules[1].premise[0].operator == ">"


def test_single_leaf_tree_cannot_become_rules():
    with pytest.raises(InducerError):
        tree_to_rules(TreeLeaf(label="0", support=10))


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_rules_partition_space_and_match_tree(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, size=(300, 4))
    y = [str(int(a > 0) + int(b > 0.5)) for a, b in X[:, :2]]
    table = _table(X, y)
    tree = induce_tree(table, max_depth=4, min_leaf=10)
    rs = tree_to_rules(tree)
    fresh = rng.normal(0, 1, size=(100, 4))
    for row in fresh:
        sample = {f"x{i + 1}": float(v) for i, v in enumerate(row)}
        mask = hit_bits(ruleset_hits(rs, sample), rs.n_rules)
        assert sum(mask) == 1  # leaves partition the space
        hit_rule = rs.rules[mask.index(True)]
        assert hit_rule.consequence == predict_tree(tree, sample)


def test_rule_order_is_depth_first_left_to_right():
    X = [[0.0], [1.0], [2.0], [3.0]] * 10
    y = [0, 0, 1, 2] * 10
    tree = induce_tree(_table(X, y), max_depth=3, min_leaf=1)
    rs = tree_to_rules(tree)
    # thresholds of the first condition must be non-decreasing left to right
    uppers = []
    for rule in rs.rules:
        bounds = [c.threshold for c in rule.premise if c.operator == "<="]
        uppers.append(min(bounds) if bounds else float("inf"))
    assert uppers == sorted(uppers)


def test_induced_text_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, size=(200, 3))
    y = [str(int(v > 0)) for v in X[:, 0]]
    rs = induce_ruleset(_table(X, y), max_depth=3, min_leaf=20, warn=False)
    from rulewatch import format_ruleset

    assert parse_ruleset(format_ruleset(rs)) == rs


def test_quality_warnings():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, size=(200, 2))
    y = [str(int(v > 0)) for v in X[:, 0]]
    with pytest.warns(RuleQualityWarning, match="rules"):
        induce_ruleset(_table(X, y), max_depth=1, min_leaf=5)


def test_near_universal_check_reads_leaf_supports():
    # Rule 1's leaf holds 95 of 100 rows; the check finds it without
    # evaluating a rule over the training table.
    table = _table([[float(i)] for i in range(100)], [0] * 95 + [1] * 5)
    with mock.patch.object(Ruleset, "hit_mask_table", side_effect=AssertionError("evaluated")):
        with pytest.warns(RuleQualityWarning) as record:
            rs = induce_ruleset(table, max_depth=1, min_leaf=1)
    assert any("rules [1] are satisfied by >90%" in str(w.message) for w in record)
    assert rs.hit_mask_table(table.X, table.columns).mean(axis=0).tolist() == [0.95, 0.05]


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_leaf_support_share_is_the_rule_hit_rate(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, size=(997, 4))
    y = [str(int(a > 0) + int(b > 0.5)) for a, b in X[:, :2]]
    table = _table(X, y)
    tree = induce_tree(table, max_depth=5, min_leaf=3)
    rates = tree_to_rules(tree).hit_mask_table(table.X, table.columns).mean(axis=0)
    assert [leaf.support / 997 for _, leaf in inducer._leaf_paths(tree)] == rates.tolist()


def test_min_leaf_respected():
    rng = np.random.default_rng(5)
    X = rng.normal(0, 1, size=(100, 2))
    y = [str(int(v > 0)) for v in X[:, 0]]
    tree = induce_tree(_table(X, y), max_depth=6, min_leaf=20)

    def check(node):
        if isinstance(node, TreeLeaf):
            assert node.support >= 20
        else:
            check(node.left)
            check(node.right)

    check(tree)


def _reference_best_split(X, y, n_classes, min_leaf):
    """The per-feature loop ``_best_split`` the one-pass version replaced."""
    n, d = X.shape
    total = np.bincount(y, minlength=n_classes).astype(np.int64)
    candidates: list[tuple[int, int, int, float]] = []  # (num, den, feature, threshold)
    best_float = -np.inf
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        boundaries = np.nonzero(xs[:-1] < xs[1:])[0]
        if boundaries.size == 0:
            continue
        onehot = np.zeros((n, n_classes), dtype=np.int64)
        onehot[np.arange(n), ys] = 1
        cum = np.cumsum(onehot, axis=0)
        nl = boundaries + 1
        keep = (nl >= min_leaf) & (n - nl >= min_leaf)
        if not np.any(keep):
            continue
        boundaries = boundaries[keep]
        nl = nl[keep]
        nr = n - nl
        nl_c = cum[boundaries]
        nr_c = total[None, :] - nl_c
        A = (nl_c * nl_c).sum(axis=1)
        B = (nr_c * nr_c).sum(axis=1)
        num = A * nr + B * nl
        den = nl * nr
        thresholds = (xs[boundaries] + xs[boundaries + 1]) / 2.0
        fscore = num / den
        best_float = max(best_float, float(fscore.max()))
        for i in range(len(boundaries)):
            candidates.append((int(num[i]), int(den[i]), f, float(thresholds[i])))
    if not candidates:
        return None
    shortlist = [
        c for c in candidates if c[0] / c[1] >= best_float - 1e-9 * max(abs(best_float), 1.0)
    ]
    best = max(
        shortlist,
        key=lambda c: (Fraction(c[0], c[1]), -c[2], -c[3]),
    )
    parent_score = Fraction(int((total * total).sum()), n)
    if Fraction(best[0], best[1]) <= parent_score:
        return None  # no impurity decrease
    return best[2], best[3]


@st.composite
def split_problems(draw, max_rows=40):
    """Small integer-valued features (heavy ties), 2-4 classes, min_leaf up to n/2."""
    n = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 4))
    levels = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, levels - 1), min_size=n * d, max_size=n * d))
    scale = draw(st.sampled_from([1.0, 0.1, -2.5]))
    X = np.array(cells, dtype=np.float64).reshape(n, d) * scale
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = 3.0  # a constant feature
    y = np.array(
        draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)), dtype=np.int64
    )
    min_leaf = draw(st.integers(1, max(1, n // 2)))
    return X, y, n_classes, min_leaf


@settings(max_examples=400, deadline=None)
@given(split_problems())
@example((np.array([[0.0], [1.0]]), np.array([0, 1]), 2, 1))
@example((np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0, 1]), 2, 1))
@example(  # -0.0 and 0.0 tie, so the sort may order them either way
    (np.array([[-0.0], [0.0], [1.0], [-0.0], [-1.0], [0.0]]), np.array([0, 1, 1, 0, 0, 1]), 2, 1)
)
def test_best_split_matches_reference(problem):
    X, y, n_classes, min_leaf = problem
    assert inducer._best_split(X, y, n_classes, min_leaf) == _reference_best_split(
        X, y, n_classes, min_leaf
    )


@settings(max_examples=150, deadline=None)
@given(split_problems(max_rows=60), st.integers(1, 4))
def test_induce_tree_matches_reference_split_search(problem, max_depth):
    X, y, n_classes, min_leaf = problem
    y[:2] = (0, 1)  # induction needs two classes
    table = _table(X, y)
    tree = induce_tree(table, max_depth=max_depth, min_leaf=min_leaf)
    with mock.patch.object(inducer, "_best_split", _reference_best_split):
        expected = induce_tree(table, max_depth=max_depth, min_leaf=min_leaf)
    assert tree == expected
