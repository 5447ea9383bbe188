import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulewatch import (
    HitHistogram,
    MetricError,
    alpha_weight,
    fit_bank,
    lp_norm,
    mutual_information,
    rule_based_information,
    weighted_mutual_information,
)
from rulewatch.metrics import (
    PROB_CLAMP,
    SplitScorer,
    _binary_entropy_array,
    _interval_mass_array,
    erfc_array,
    lp_norms,
    rule_based_information_batch,
    split_metrics,
    value_multiplicities,
)
from tests.conftest import scorer_updates

# Reference histograms whose exact information values are hand-derived:
# four distinct values each, B and C holding the same values in reversed
# positions, which plain mutual information cannot distinguish.
A = HitHistogram.from_values([0.166, 0.182, 0.438, 0.424], 1000)
B = HitHistogram.from_values([0.211, 0.214, 0.387, 0.399], 1000)
C = HitHistogram.from_values([0.399, 0.387, 0.214, 0.211], 1000)


def _values(h):
    """The hit frequencies of ``h``."""
    return h.counts / h.split_size


# -- norms and alpha ---------------------------------------------------------

def test_lp_identity():
    assert lp_norm(A, A, 1) == 0.0
    assert lp_norm(A, A, 2) == 0.0


def test_l1_hand_sum():
    # |0.045| + |0.032| + |0.051| + |0.025|
    assert lp_norm(A, B, 1) == pytest.approx(0.153, abs=1e-15)


def test_l2_hand_sum():
    assert lp_norm(A, B, 2) == pytest.approx(math.sqrt(0.006275), abs=1e-12)


def test_alpha_hand_values():
    assert alpha_weight(A, B) == 0.03825
    assert alpha_weight(B, C) == 0.1805
    assert alpha_weight(A, A) == 0.0


def test_lp_rejects_mismatched_lengths():
    with pytest.raises(MetricError):
        lp_norm(A, HitHistogram((1, 2), 4), 1)
    with pytest.raises(MetricError):
        lp_norm(A, B, 3)


def test_lp_different_split_sizes():
    a = HitHistogram((1, 2), 2)   # (0.5, 1.0)
    b = HitHistogram((2, 4), 4)   # (0.5, 1.0)
    assert lp_norm(a, b, 1) == 0.0
    c = HitHistogram((0, 4), 4)   # (0.0, 1.0)
    assert lp_norm(a, c, 1) == pytest.approx(0.5)


# -- value multiplicities ----------------------------------------------------

def test_value_distribution_counts_multiplicity():
    h = HitHistogram.from_values([0.25, 0.25, 0.5, 0.5], 4)
    # two distinct values (0.25, 0.5), each held by 2 of the 4 rules
    assert value_multiplicities(np.array([h.counts])).tolist() == [[0, 0, 2, 0, 0]]


def test_value_distribution_all_distinct_uniform():
    # four distinct values, each of multiplicity 1 (probability 1/4)
    assert value_multiplicities(np.array([A.counts])).tolist() == [[0, 4, 0, 0, 0]]


def test_joint_distribution_on_reference_pair():
    # joint key t * (max_o + 1) + o: four distinct (A, B) value pairs
    a, b = np.array(A.counts), np.array(B.counts)
    joint = a * (b.max() + 1) + b
    assert value_multiplicities(joint[None, :]).tolist() == [[0, 4, 0, 0, 0]]


# -- mutual information ------------------------------------------------------

def test_mi_reference_values():
    assert mutual_information(A, B) == pytest.approx(math.log(4), abs=1e-12)
    assert mutual_information(B, C) == pytest.approx(math.log(4), abs=1e-12)
    # the blindness this metric family corrects:
    assert mutual_information(A, B) == mutual_information(B, C)


def test_mi_constant_histogram_is_zero():
    const = HitHistogram((3, 3, 3, 3), 10)
    assert mutual_information(const, B) == 0.0
    assert mutual_information(B, const) == 0.0


def test_wmi_reference_values():
    wab = weighted_mutual_information(A, B)
    wbc = weighted_mutual_information(B, C)
    # hand derivation: all values distinct so each entropy is -a*ln(a/4)
    assert wab == pytest.approx(-0.03825 * math.log(0.03825 / 4), abs=1e-12)
    assert wbc == pytest.approx(-0.1805 * math.log(0.1805 / 4), abs=1e-12)
    assert wab == pytest.approx(0.1779, abs=1e-4)
    assert wbc == pytest.approx(0.5593, abs=1e-4)
    assert wab < wbc


def test_wmi_identity_is_zero():
    assert weighted_mutual_information(A, A) == 0.0
    assert weighted_mutual_information(C, C) == 0.0


def _mi_oracle(a, b, alpha):
    # independent per-rule re-derivation
    from collections import Counter

    n = a.n_rules
    ma, mb = Counter(a.counts), Counter(b.counts)
    mj = Counter(zip(a.counts, b.counts))

    def h(get_p, keys):
        out = 0.0
        for key in keys:
            p = alpha * get_p(key) / n
            if p > 0:
                out -= p * math.log(p)
        return out

    ha = h(lambda k: ma[k], list(a.counts))
    hb = h(lambda k: mb[k], list(b.counts))
    hab = h(lambda k: mj[k], list(zip(a.counts, b.counts)))
    return ha + hb - hab


@st.composite
def histogram_pairs(draw):
    n_r = draw(st.integers(2, 16))
    n_s = draw(st.integers(2, 40))
    mk = lambda: HitHistogram(
        tuple(draw(st.integers(0, n_s)) for _ in range(n_r)), n_s
    )
    return mk(), mk()


@settings(max_examples=120, deadline=None)
@given(histogram_pairs())
def test_wmi_matches_per_rule_oracle(pair):
    a, b = pair
    alpha = alpha_weight(a, b)
    expected = 0.0 if alpha == 0.0 else _mi_oracle(a, b, alpha)
    assert weighted_mutual_information(a, b) == pytest.approx(expected, abs=1e-12)
    assert mutual_information(a, b) == pytest.approx(_mi_oracle(a, b, 1.0), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(histogram_pairs())
def test_information_metric_properties(pair):
    a, b = pair
    w = weighted_mutual_information(a, b)
    assert w >= 0.0
    assert w == weighted_mutual_information(b, a)
    assert weighted_mutual_information(a, a) == 0.0
    assert alpha_weight(a, b) == lp_norm(a, b, 1) / a.n_rules
    m = mutual_information(a, b)
    assert m >= 0.0


@settings(max_examples=80, deadline=None)
@given(histogram_pairs(), st.randoms())
def test_mi_invariant_under_joint_permutation(pair, rand):
    a, b = pair
    order = list(range(a.n_rules))
    rand.shuffle(order)
    pa = HitHistogram(tuple(a.counts[i] for i in order), a.split_size)
    pb = HitHistogram(tuple(b.counts[i] for i in order), b.split_size)
    assert mutual_information(pa, pb) == mutual_information(a, b)
    assert weighted_mutual_information(pa, pb) == weighted_mutual_information(a, b)


def test_wmi_sensitive_to_pairing_where_mi_is_not():
    assert mutual_information(A, B) == mutual_information(B, C)
    assert weighted_mutual_information(A, B) != weighted_mutual_information(B, C)


@settings(max_examples=60, deadline=None)
@given(histogram_pairs(), st.data())
def test_lp_metric_axioms(pair, data):
    a, b = pair
    c = HitHistogram(
        tuple(data.draw(st.integers(0, a.split_size)) for _ in range(a.n_rules)),
        a.split_size,
    )
    for p in (1, 2):
        dab, dba = lp_norm(a, b, p), lp_norm(b, a, p)
        assert dab == dba
        assert dab >= 0.0
        assert (dab == 0.0) == (a.counts.tolist() == b.counts.tolist())
        assert lp_norm(a, c, p) <= lp_norm(a, b, p) + lp_norm(b, c, p) + 1e-12


# -- single-split kernel -----------------------------------------------------

@st.composite
def count_matrices(draw):
    """(training counts, operational counts, split size) with repeated values.

    Counts come from a small pool so that values and value pairs repeat and
    the multiplicity bookkeeping is exercised, not just the all-distinct case.
    """
    n_r = draw(st.integers(1, 64))
    n_s = draw(st.integers(1, 40))
    pool = draw(st.lists(st.integers(0, n_s), min_size=1, max_size=5))
    cell = st.sampled_from(pool)
    n_tr = draw(st.integers(1, 8))
    train = np.array([[draw(cell) for _ in range(n_r)] for _ in range(n_tr)], dtype=np.int64)
    op = np.array([draw(cell) for _ in range(n_r)], dtype=np.int64)
    return train, op, n_s


def _hist(counts, n_s):
    return HitHistogram(tuple(int(c) for c in counts), n_s)


@settings(max_examples=150, deadline=None)
@given(count_matrices())
def test_split_metrics_matches_per_rule_oracle(case):
    train, op, n_s = case
    got = split_metrics(train, n_s, op, n_s)
    b = _hist(op, n_s)
    for i, row in enumerate(train):
        a = _hist(row, n_s)
        alpha = got.l1[i] / len(op)
        expected = 0.0 if alpha == 0.0 else _mi_oracle(a, b, alpha)
        assert got.wmi[i] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(count_matrices())
def test_split_metrics_rows_equal_one_row_calls(case):
    train, op, n_s = case
    got = split_metrics(train, n_s, op, n_s)
    b = _hist(op, n_s)
    for i, row in enumerate(train):
        a = _hist(row, n_s)
        alone = split_metrics(train[i : i + 1], n_s, op, n_s)
        assert [v[0] for v in alone] == [v[i] for v in got]
        assert weighted_mutual_information(a, b) == got.wmi[i]
        assert lp_norm(a, b, 1) == got.l1[i]
        assert lp_norm(a, b, 2) == got.l2[i]


@settings(max_examples=150, deadline=None)
@given(count_matrices(), st.randoms())
def test_split_metrics_symmetry_identity_permutation(case, rand):
    train, op, n_s = case
    got = split_metrics(train, n_s, op, n_s)
    order = list(range(len(op)))
    rand.shuffle(order)
    permuted = split_metrics(train[:, order], n_s, op[order], n_s)
    for i, row in enumerate(train):
        swapped = split_metrics(op[None, :], n_s, row, n_s)
        assert [v[0] for v in swapped] == [v[i] for v in got]
        assert [v[i] for v in permuted] == [v[i] for v in got]
        same = split_metrics(row[None, :], n_s, row, n_s)
        assert [v[0] for v in same] == [0.0, 0.0, 0.0]
    assert (got.wmi >= 0.0).all()


@settings(max_examples=150, deadline=None)
@given(count_matrices())
def test_split_metrics_norms_are_integer_sums(case):
    train, op, n_s = case
    got = split_metrics(train, n_s, op, n_s)
    for i, row in enumerate(train):
        gaps = [int(x) - int(y) for x, y in zip(row, op)]
        assert got.l1[i] == sum(abs(g) for g in gaps) / n_s
        assert got.l2[i] == math.sqrt(sum(g * g for g in gaps)) / n_s


def test_split_metrics_mismatched_split_sizes():
    train = np.array([[1, 2, 0], [2, 1, 2]])  # over 2 samples
    op = np.array([2, 4, 1])  # over 4 samples: values 0.5, 1.0, 0.25
    got = split_metrics(train, 2, op, 4)
    assert got.l1.tolist() == [0.0 + 0.0 + 0.25, 0.5 + 0.5 + 0.75]
    assert got.l2.tolist() == [math.sqrt(1) / 4, math.sqrt(4 + 4 + 9) / 4]
    # multiplicities are taken over counts, as for equal split sizes
    a, b = _hist(train[1], 2), _hist(op, 4)
    assert got.wmi[1] == pytest.approx(_mi_oracle(a, b, got.l1[1] / 3), abs=1e-12)
    assert got.wmi[0] == pytest.approx(_mi_oracle(_hist(train[0], 2), b, 0.25 / 3), abs=1e-12)
    assert weighted_mutual_information(a, b) == got.wmi[1]
    assert lp_norm(b, a, 2) == got.l2[1]


def test_lp_norms_large_coprime_split_sizes_do_not_overflow():
    # lcm(n_t, n_o) is about 4.6e18 here: the squared gaps leave int64
    n_t, n_o = 2**31 - 1, 2**31 - 2
    train = np.array([[n_t, 0, n_t // 3]])
    op = np.array([0, n_o, n_o // 2])
    l1, l2 = lp_norms(train, n_t, op, n_o)
    gaps = [abs(t / n_t - o / n_o) for t, o in zip(train[0], op)]
    assert l1[0] == pytest.approx(sum(gaps), rel=1e-12)
    assert l2[0] == pytest.approx(math.sqrt(sum(g * g for g in gaps)), rel=1e-12)


def test_split_metrics_alpha_one_all_equal_is_zero():
    # every rule differs by the full split: alpha = 1, and a constant
    # histogram has one value of probability 1, whose p*ln(p) term is 0
    for n_r in (1, 2, 3, 7):
        zeros, ones = (0,) * n_r, (5,) * n_r
        got = split_metrics(np.array([zeros]), 5, np.array(ones), 5)
        assert got.l1.tolist() == [float(n_r)]
        assert got.wmi.tolist() == [0.0]
        const = HitHistogram((3,) * n_r, 10)
        assert mutual_information(const, const) == 0.0
        assert mutual_information(const, _hist(range(n_r), 10)) == 0.0
    # alpha = 1 with a non-constant side: only that side's entropy is left
    got = split_metrics(np.array([[0, 5, 0]]), 5, np.array([5, 0, 5]), 5)
    expected = _mi_oracle(_hist((0, 5, 0), 5), _hist((5, 0, 5), 5), 1.0)
    assert got.wmi[0] == pytest.approx(expected, abs=1e-12)


def test_split_metrics_validates_shapes():
    with pytest.raises(MetricError):
        split_metrics(np.zeros((2, 3)), 4, np.zeros(4), 4)
    with pytest.raises(MetricError):
        split_metrics(np.zeros(3), 4, np.zeros(3), 4)


@st.composite
def scorer_walks(draw):
    """(training counts, split sizes, a walk of operational count vectors).

    Counts come from a small pool plus values outside it, so values and
    value pairs repeat and op values no training row holds occur. Steps
    change one rule, a few rules or all of them, and one step repeats the
    vector before it unchanged. The first training row may
    be 0 or the full split at every rule, and the walk may end on its
    complement, an alpha == 1 row. Sizes are equal, unequal, or large and
    coprime, where the norms' integer sums could overflow int64.
    """
    n_r = draw(st.integers(1, 20))
    n_tr = draw(st.integers(1, 5))
    sizes = draw(st.sampled_from(["equal", "unequal", "coprime"]))
    train_size = draw(st.integers(1, 9))
    op_size = {"equal": train_size, "unequal": draw(st.integers(1, 9)),
               "coprime": 2**31 - 2}[sizes]
    if sizes == "coprime":
        train_size = 2**31 - 1
    top = min(train_size, op_size, 6)
    pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=3))
    cell = st.one_of(st.sampled_from(pool), st.integers(0, top))
    train = np.array([[draw(cell) for _ in range(n_r)] for _ in range(n_tr)], dtype=np.int64)
    full = draw(st.lists(st.booleans(), min_size=n_r, max_size=n_r))
    if draw(st.booleans()):
        train[0] = np.where(full, train_size, 0)
    op = np.array([draw(cell) for _ in range(n_r)], dtype=np.int64)
    walk = [op]
    for _ in range(draw(st.integers(1, 12))):
        op = op.copy()
        rules = draw(st.lists(st.integers(0, n_r - 1), min_size=1, max_size=n_r))
        for r in rules:
            op[r] = draw(cell)
        walk.append(op)
    at = draw(st.integers(1, len(walk)))
    walk.insert(at, walk[at - 1].copy())
    if draw(st.booleans()):
        walk.append(np.where(full, 0, op_size))
    return train, train_size, op_size, walk


@settings(max_examples=150, deadline=None)
@given(scorer_walks())
def test_split_scorer_equals_split_metrics_bit_for_bit(case):
    train, train_size, op_size, walk = case
    scorer = SplitScorer(train, train_size)
    previous = None
    for op in walk:
        with scorer_updates() as updated:
            got = scorer.score(op, op_size)
        expected = split_metrics(train, train_size, op, op_size)
        for name in ("wmi", "l1", "l2"):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name
        moved = len(op) if previous is None else np.count_nonzero(op != previous)
        assert sum(updated) == (moved if moved <= SplitScorer.MAX_UPDATES else len(op))
        previous = op


def test_split_scorer_rebuilds_on_a_new_op_size():
    train = np.array([[1, 2, 0], [2, 1, 2]])
    scorer = SplitScorer(train, 2)
    for op, op_size in (([2, 4, 1], 4), ([2, 4, 1], 5), ([2, 3, 1], 5), ([1, 2, 0], 2)):
        with scorer_updates() as updated:
            got = scorer.score(op, op_size)
        assert all(np.array_equal(g, e) for g, e in zip(got, split_metrics(train, 2, op, op_size)))
    assert updated == [3]
    with pytest.raises(MetricError):
        scorer.score([1, 2], 2)
    with pytest.raises(MetricError, match="no operational counts"):
        SplitScorer(train, 2).information(np.ones(2))


# -- reference oracle for the rbi kernel -------------------------------------
# The scalar, per-rule path (math.erfc, math.fsum) that the numpy kernel is
# checked against. Groups are lists of hit-frequency rows; a bank is a pair
# of per-rule (mu, sigma) lists.

def _mass(mu, sigma, center, halfwidth):
    """P(center - halfwidth <= X <= center + halfwidth) for X ~ N(mu, sigma), clamped."""
    z_lo = (center - halfwidth - mu) / sigma
    z_hi = (center + halfwidth - mu) / sigma
    p = 0.5 * (math.erfc(z_lo / math.sqrt(2)) - math.erfc(z_hi / math.sqrt(2)))
    return min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)


def _entropy(p):
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def oracle_fit(rows, sigma_floor=1e-6):
    n = len(rows)
    mu = [math.fsum(col) / n for col in zip(*rows)]
    var = [math.fsum((v - m) ** 2 for v in col) / n for col, m in zip(zip(*rows), mu)]
    return mu, [max(math.sqrt(v), sigma_floor) for v in var]


def oracle_rbi(group, own, ref):
    nums, dens = [], []
    for row in group:
        terms = [(_mass(om, os, v, os), _mass(rm, rs, v, rs))
                 for v, om, os, rm, rs in zip(row, *own, *ref)]
        nums.append(math.fsum(_entropy(po) for po, _ in terms))
        dens.append(math.fsum(po / pr * _entropy(pr) for po, pr in terms))
    num, den = math.fsum(nums) / len(group), math.fsum(dens) / len(group)
    if den == 0.0:
        return 1.0 if num == 0.0 else math.inf
    return num / den


def _bank(mu, sigma):
    return np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)


# -- gaussian banks ----------------------------------------------------------

def test_gaussian_fit_two_points():
    mu, sigma = fit_bank(np.array([[[0.2], [0.4]]]))
    assert mu.shape == sigma.shape == (1, 1, 1)
    assert mu[0, 0, 0] == pytest.approx(0.3)
    assert sigma[0, 0, 0] == pytest.approx(0.1)


def test_gaussian_fit_constant_hits_floor():
    mu, sigma = fit_bank(np.full((1, 5, 2), 0.7), sigma_floor=1e-6)
    assert mu.ravel().tolist() == pytest.approx([0.7, 0.7])
    assert sigma.ravel().tolist() == [1e-6, 1e-6]


def test_gaussian_fit_matches_two_pass(rng):
    stack = rng.random((2, 37, 3))
    mu, sigma = fit_bank(stack)
    for b in range(2):
        expected_mu, expected_sigma = oracle_fit(stack[b].tolist())
        assert mu[b, 0].tolist() == pytest.approx(expected_mu, rel=1e-12)
        assert sigma[b, 0].tolist() == pytest.approx(expected_sigma, rel=1e-12)


def test_gaussian_fit_needs_two_values():
    with pytest.raises(MetricError):
        fit_bank(np.array([[[0.5]]]))


def _simpson_normal_mass(mu, sigma, lo, hi, n=20001):
    xs = np.linspace(lo, hi, n)
    pdf = np.exp(-((xs - mu) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    h = (hi - lo) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4
    w[2:-1:2] = 2
    return float((pdf * w).sum() * h / 3)


def test_interval_mass_one_sigma():
    p = float(_interval_mass_array(np.array(0.3), np.array(0.07), np.array(0.3)))
    expected = _simpson_normal_mass(0.3, 0.07, 0.3 - 0.07, 0.3 + 0.07)
    assert p == pytest.approx(expected, abs=1e-9)
    assert p == pytest.approx(0.682689, abs=1e-6)


def test_interval_mass_far_tail():
    mu, sigma = np.array(0.0), np.array(1.0)
    # raw mass of [9s, 11s] straight from the upper-tail formula: clamped
    raw = 0.5 * (math.erfc(9 / math.sqrt(2)) - math.erfc(11 / math.sqrt(2)))
    assert 0 < raw < PROB_CLAMP
    assert float(_interval_mass_array(mu, sigma, np.array(10.0))) == PROB_CLAMP
    # [4s, 6s] is above the clamp and keeps its relative precision
    raw = 0.5 * (math.erfc(4 / math.sqrt(2)) - math.erfc(6 / math.sqrt(2)))
    got = float(_interval_mass_array(mu, sigma, np.array(5.0)))
    assert got == pytest.approx(raw, rel=1e-12)


def test_hits_entropy_symmetric_banks():
    # the oracle's mass of a 0.6745-sigma halfwidth is one half
    assert _mass(0.5, 0.1, 0.5, 0.1 * 0.6744897501960817) == pytest.approx(0.5, abs=1e-12)
    # the kernel's own entropy of a hit at both rules' means: 2 H(one-sigma mass)
    p = _interval_mass_array(np.full(2, 0.5), np.full(2, 0.1), np.array([0.5, 0.5]))
    expected = 2 * _entropy(_mass(0.5, 0.1, 0.5, 0.1))
    assert _binary_entropy_array(p).sum() == pytest.approx(expected, rel=1e-12)


def test_hits_entropy_random_oracle(rng):
    n_r = 5
    h = HitHistogram(tuple(int(c) for c in rng.integers(0, 11, n_r)), 10)
    mu, sigma = rng.random(n_r), rng.random(n_r) * 0.2 + 0.01
    expected = 0.0
    for v, m, s in zip(_values(h).tolist(), mu.tolist(), sigma.tolist()):
        z1 = (v - s - m) / s
        z2 = (v + s - m) / s
        p = 0.5 * (math.erf(z2 / math.sqrt(2)) - math.erf(z1 / math.sqrt(2)))
        expected += _entropy(min(max(p, PROB_CLAMP), 1 - PROB_CLAMP))
    got = _binary_entropy_array(_interval_mass_array(mu, sigma, _values(h))).sum()
    assert got == pytest.approx(expected, rel=1e-9)
    assert 0.0 <= got <= n_r * math.log(2)


def test_conditional_entropy_reduces_to_plain():
    # equal banks make the conditional entropy the own entropy: exactly 1
    bank = fit_bank(np.array([[[0.2, 0.7, 0.4], [0.4, 0.6, 0.6]]]))
    group = np.array([[_values(HitHistogram((3, 7, 5), 10))]])
    assert rule_based_information(group, bank, bank).tolist() == [1.0]


def test_conditional_entropy_clamped_ratio_is_finite():
    group = np.array([[_values(HitHistogram((10, 0), 10))]])
    ref = _bank([0.0, 1.0], [1e-6, 1e-6])
    own = _bank([1.0, 0.0], [0.05, 0.05])
    value = rule_based_information(group, own, ref)[0]
    assert 0.0 < value < math.inf
    assert value == pytest.approx(oracle_rbi(group[0].tolist(), own, ref), rel=1e-12)


def test_conditional_entropy_random_oracle(rng):
    n_r = 4
    h = HitHistogram(tuple(int(c) for c in rng.integers(0, 21, n_r)), 20)
    ref = _bank(rng.random(n_r), rng.random(n_r) * 0.1 + 0.02)
    own = _bank(rng.random(n_r), rng.random(n_r) * 0.1 + 0.02)
    got = rule_based_information(np.array([[_values(h)]]), own, ref)[0]
    assert got == pytest.approx(oracle_rbi([_values(h).tolist()], own, ref), rel=1e-12)


# -- rule-based information --------------------------------------------------

def test_rbi_identical_banks_is_one():
    group = np.array([[(0.3, 0.6), (0.4, 0.5), (0.3, 0.5)]])
    bank = fit_bank(group)
    assert rule_based_information(group, bank, bank).tolist() == [1.0]


def test_rbi_far_reference_drops_toward_zero():
    group = np.array([[(0.50, 0.60), (0.52, 0.58)]])
    mu, sigma = fit_bank(group)
    value = rule_based_information(group, (mu, sigma), (mu + 0.4, sigma))[0]
    assert value < 0.1


def test_rbi_two_rule_hand_instance():
    own = _bank([0.5, 0.3], [0.1, 0.05])
    ref = _bank([0.45, 0.35], [0.12, 0.06])
    group = [(0.5, 0.3), (0.6, 0.2)]

    def mass(mu, sigma, center, hw):
        z1 = (center - hw - mu) / sigma
        z2 = (center + hw - mu) / sigma
        p = 0.5 * (math.erf(z2 / math.sqrt(2)) - math.erf(z1 / math.sqrt(2)))
        return min(max(p, PROB_CLAMP), 1 - PROB_CLAMP)

    nums, dens = [], []
    for row in group:
        num = den = 0.0
        for v, om, os, rm, rs in zip(row, *own, *ref):
            po = mass(om, os, v, os)
            pr = mass(rm, rs, v, rs)
            num += _entropy(po)
            den += (po / pr) * _entropy(pr)
        nums.append(num)
        dens.append(den)
    expected = (sum(nums) / 2) / (sum(dens) / 2)
    got = rule_based_information(np.array([group]), own, ref)[0]
    assert got == pytest.approx(expected, rel=1e-9)


def test_rbi_rejects_empty_group():
    bank = _bank([0.0], [1.0])
    with pytest.raises(MetricError):
        rule_based_information(np.zeros((1, 0, 1)), bank, bank)
    with pytest.raises(MetricError):
        rule_based_information(np.zeros((2, 1)), bank, bank)
    with pytest.raises(MetricError):  # no rules: the entropy ratio would be 0/0
        rule_based_information(np.zeros((1, 3, 0)), bank, bank)


def test_fit_bank_checks_group():
    with pytest.raises(MetricError):
        fit_bank(np.zeros((1, 1, 3)))
    with pytest.raises(MetricError):
        fit_bank(np.zeros((4, 3)))
    with pytest.raises(MetricError):
        fit_bank(np.zeros((1, 4, 3)), sigma_floor=0.0)
    with pytest.raises(MetricError):
        fit_bank(np.zeros((1, 4, 0)))


# -- batched rule-based information -----------------------------------------

def test_erfc_array_matches_math_erfc():
    xs = np.linspace(-6.0, 6.0, 24001)
    expected = np.array([math.erfc(x) for x in xs])
    rel = np.abs(erfc_array(xs) - expected) / expected
    assert rel.max() <= 1e-13  # measured 3.1e-14
    tails = np.array([-40.0, -27.0, 27.0, 40.0])
    assert erfc_array(tails).tolist() == [math.erfc(x) for x in tails]


@st.composite
def rbi_groups(draw):
    """(group, reference) histogram lists, with optional degenerate shapes.

    ``const`` pins a rule to one count in both parts (sigma at the floor);
    ``far`` draws the reference from the tenth of [0, n_s] at the other end,
    so the group's values sit far in a tail of the reference Gaussians.
    """
    n_r = draw(st.integers(1, 8))
    n_s = draw(st.integers(2, 200))
    n = draw(st.integers(2, 6))
    k = draw(st.integers(2, 6))
    const = draw(st.sets(st.integers(0, n_r - 1), max_size=n_r))
    far = draw(st.booleans())
    centre = draw(st.integers(0, n_s))
    spread = draw(st.integers(0, n_s))

    def member(lo, hi):
        return HitHistogram(
            tuple(
                lo if j in const else draw(st.integers(lo, hi)) for j in range(n_r)
            ),
            n_s,
        )

    lo, hi = max(0, centre - spread), min(n_s, centre + spread)
    group = [member(lo, hi) for _ in range(n)]
    if far:
        lo, hi = (n_s - n_s // 10, n_s) if centre <= n_s // 2 else (0, n_s // 10)
    ref = [member(lo, hi) for _ in range(k)]
    return group, ref


@settings(max_examples=200, deadline=None)
@given(rbi_groups())
def test_rbi_batch_matches_scalar(pair):
    group, ref = pair
    rows = [_values(h).tolist() for h in group]
    expected = oracle_rbi(rows, oracle_fit(rows), oracle_fit([_values(h).tolist() for h in ref]))
    got = rule_based_information_batch(
        np.array([[_values(h) for h in group]]), np.array([[_values(h) for h in ref]])
    )
    assert got.shape == (1,)
    assert got[0] == pytest.approx(expected, rel=1e-12)


def test_rbi_batch_rows_are_independent(rng):
    groups = rng.integers(0, 51, (5, 3, 4)) / 50
    refs = rng.integers(0, 51, (5, 4, 4)) / 50
    together = rule_based_information_batch(groups, refs)
    for b in range(5):
        alone = rule_based_information_batch(groups[b : b + 1], refs[b : b + 1])
        assert alone[0] == together[b]


def test_rbi_batch_identical_banks_is_exactly_one():
    h = HitHistogram((3, 6), 10)
    stack = np.array([[_values(h)] * 3])
    assert rule_based_information_batch(stack, stack).tolist() == [1.0]


def test_rbi_batch_validates_shapes():
    ok = np.zeros((2, 3, 4))
    with pytest.raises(MetricError):
        rule_based_information_batch(ok[0], ok[0])
    with pytest.raises(MetricError):
        rule_based_information_batch(ok, np.zeros((3, 3, 4)))
    with pytest.raises(MetricError):
        rule_based_information_batch(ok, np.zeros((2, 3, 5)))
    with pytest.raises(MetricError):
        rule_based_information_batch(ok[:, :1], ok)
    with pytest.raises(MetricError):
        rule_based_information_batch(ok, ok, sigma_floor=0.0)
