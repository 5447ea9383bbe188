import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulewatch import (
    GaussianBank,
    GaussianParams,
    HitHistogram,
    MetricError,
    alpha_weight,
    conditional_hits_entropy,
    fit_bank,
    gaussian_fit,
    hits_entropy,
    interval_mass,
    lp_norm,
    mutual_information,
    rule_based_information,
    weighted_mutual_information,
)
from rulewatch.metrics import (
    PROB_CLAMP,
    erfc_array,
    lp_norms,
    rule_based_information_batch,
    split_metrics,
    value_multiplicities,
)

# Reference histograms whose exact information values are hand-derived:
# four distinct values each, B and C holding the same values in reversed
# positions, which plain mutual information cannot distinguish.
A = HitHistogram.from_values([0.166, 0.182, 0.438, 0.424], 1000)
B = HitHistogram.from_values([0.211, 0.214, 0.387, 0.399], 1000)
C = HitHistogram.from_values([0.399, 0.387, 0.214, 0.211], 1000)


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
        assert (dab == 0.0) == (a.counts == b.counts)
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


# -- gaussian machinery ------------------------------------------------------

def test_gaussian_fit_two_points():
    g = gaussian_fit([0.2, 0.4])
    assert g.mu == pytest.approx(0.3)
    assert g.sigma == pytest.approx(0.1)


def test_gaussian_fit_constant_hits_floor():
    g = gaussian_fit([0.7] * 5, sigma_floor=1e-6)
    assert g.mu == pytest.approx(0.7)
    assert g.sigma == 1e-6


def test_gaussian_fit_matches_two_pass(rng):
    values = list(rng.random(37))
    g = gaussian_fit(values)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert g.mu == pytest.approx(mean, rel=1e-12)
    assert g.sigma == pytest.approx(math.sqrt(var), rel=1e-12)


def test_gaussian_fit_needs_two_values():
    with pytest.raises(MetricError):
        gaussian_fit([0.5])


def _simpson_normal_mass(mu, sigma, lo, hi, n=20001):
    xs = np.linspace(lo, hi, n)
    pdf = np.exp(-((xs - mu) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    h = (hi - lo) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4
    w[2:-1:2] = 2
    return float((pdf * w).sum() * h / 3)


def test_interval_mass_one_sigma():
    g = GaussianParams(0.3, 0.07)
    expected = _simpson_normal_mass(0.3, 0.07, 0.3 - 0.07, 0.3 + 0.07)
    assert interval_mass(g, 0.3, 0.07) == pytest.approx(expected, abs=1e-9)
    assert interval_mass(g, 0.3, 0.07) == pytest.approx(0.682689, abs=1e-6)


def test_interval_mass_zero_width_clamps():
    g = GaussianParams(0.0, 1.0)
    assert interval_mass(g, 0.0, 0.0) == PROB_CLAMP


def test_interval_mass_far_tail():
    g = GaussianParams(0.0, 1.0)
    # raw mass of [9s, 11s] straight from the upper-tail formula
    raw = 0.5 * (math.erfc(9 / math.sqrt(2)) - math.erfc(11 / math.sqrt(2)))
    assert 0 < raw < 1e-9
    assert interval_mass(g, 10.0, 1.0) == max(raw, PROB_CLAMP)


def test_interval_mass_rejects_negative_halfwidth():
    with pytest.raises(MetricError):
        interval_mass(GaussianParams(0, 1), 0.0, -0.1)


def _entropy_oracle(p):
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def test_hits_entropy_symmetric_banks():
    # both rules give mass ~0.5 when the interval covers half the mass:
    # choose halfwidth so that P = 0.5 -> entropy = 2 ln 2
    g = GaussianParams(0.5, 0.1)
    hw = 0.1 * 0.6744897501960817  # z for central mass 0.5
    p = interval_mass(g, 0.5, hw)
    assert p == pytest.approx(0.5, abs=1e-12)
    # hits_entropy uses sigma as halfwidth, so check the formula directly
    h = HitHistogram((5, 5), 10)
    bank = GaussianBank((g, g))
    expected = 2 * _entropy_oracle(interval_mass(g, 0.5, 0.1))
    assert hits_entropy(h, bank) == pytest.approx(expected, rel=1e-12)


def test_hits_entropy_random_oracle(rng):
    n_r = 5
    h = HitHistogram(tuple(int(c) for c in rng.integers(0, 11, n_r)), 10)
    bank = GaussianBank(tuple(
        GaussianParams(float(rng.random()), float(rng.random() * 0.2 + 0.01))
        for _ in range(n_r)
    ))
    expected = 0.0
    for j in range(n_r):
        g = bank[j]
        z1 = (h.value(j) - g.sigma - g.mu) / g.sigma
        z2 = (h.value(j) + g.sigma - g.mu) / g.sigma
        p = 0.5 * (math.erf(z2 / math.sqrt(2)) - math.erf(z1 / math.sqrt(2)))
        p = min(max(p, PROB_CLAMP), 1 - PROB_CLAMP)
        expected += _entropy_oracle(p)
    assert hits_entropy(h, bank) == pytest.approx(expected, rel=1e-9)
    assert 0.0 <= hits_entropy(h, bank) <= n_r * math.log(2)


def test_conditional_entropy_reduces_to_plain():
    h = HitHistogram((3, 7, 5), 10)
    bank = fit_bank([HitHistogram((2, 7, 4), 10), HitHistogram((4, 6, 6), 10)])
    assert conditional_hits_entropy(h, bank, bank) == hits_entropy(h, bank)


def test_conditional_entropy_clamped_ratio_is_finite():
    h = HitHistogram((10, 0), 10)
    ref = GaussianBank((GaussianParams(0.0, 1e-6), GaussianParams(1.0, 1e-6)))
    own = GaussianBank((GaussianParams(1.0, 0.05), GaussianParams(0.0, 0.05)))
    value = conditional_hits_entropy(h, ref, own)
    assert math.isfinite(value)
    assert value >= 0.0


def test_conditional_entropy_random_oracle(rng):
    n_r = 4
    h = HitHistogram(tuple(int(c) for c in rng.integers(0, 21, n_r)), 20)
    mk = lambda: GaussianBank(tuple(
        GaussianParams(float(rng.random()), float(rng.random() * 0.1 + 0.02))
        for _ in range(n_r)
    ))
    ref, own = mk(), mk()
    expected = 0.0
    for j in range(n_r):
        v = h.value(j)
        pr = interval_mass(ref[j], v, ref[j].sigma)
        po = interval_mass(own[j], v, own[j].sigma)
        expected += (po / pr) * _entropy_oracle(pr)
    assert conditional_hits_entropy(h, ref, own) == pytest.approx(expected, rel=1e-12)


# -- rule-based information --------------------------------------------------

def test_rbi_identical_banks_is_one():
    group = [HitHistogram((3, 6), 10), HitHistogram((4, 5), 10), HitHistogram((3, 5), 10)]
    bank = fit_bank(group)
    assert rule_based_information(group, bank, bank) == 1.0


def test_rbi_far_reference_drops_toward_zero():
    group = [HitHistogram((50, 60), 100), HitHistogram((52, 58), 100)]
    own = fit_bank(group)
    far = GaussianBank(tuple(GaussianParams(g.mu + 0.4, g.sigma) for g in own.per_rule))
    value = rule_based_information(group, own, far)
    assert value < 0.1


def test_rbi_two_rule_hand_instance():
    own = GaussianBank((GaussianParams(0.5, 0.1), GaussianParams(0.3, 0.05)))
    ref = GaussianBank((GaussianParams(0.45, 0.12), GaussianParams(0.35, 0.06)))
    group = [HitHistogram((5, 3), 10), HitHistogram((6, 2), 10)]

    def mass(mu, sigma, center, hw):
        z1 = (center - hw - mu) / sigma
        z2 = (center + hw - mu) / sigma
        p = 0.5 * (math.erf(z2 / math.sqrt(2)) - math.erf(z1 / math.sqrt(2)))
        return min(max(p, PROB_CLAMP), 1 - PROB_CLAMP)

    nums, dens = [], []
    for h in group:
        num = den = 0.0
        for j, (og, rg) in enumerate(zip(own.per_rule, ref.per_rule)):
            v = h.value(j)
            po = mass(og.mu, og.sigma, v, og.sigma)
            pr = mass(rg.mu, rg.sigma, v, rg.sigma)
            num += _entropy_oracle(po)
            den += (po / pr) * _entropy_oracle(pr)
        nums.append(num)
        dens.append(den)
    expected = (sum(nums) / 2) / (sum(dens) / 2)
    assert rule_based_information(group, own, ref) == pytest.approx(expected, rel=1e-9)


def test_rbi_rejects_empty_group():
    bank = GaussianBank((GaussianParams(0, 1),))
    with pytest.raises(MetricError):
        rule_based_information([], bank, bank)


def test_fit_bank_checks_group():
    with pytest.raises(MetricError):
        fit_bank([HitHistogram((1,), 4)])
    with pytest.raises(MetricError):
        fit_bank([HitHistogram((1,), 4), HitHistogram((1, 2), 4)])


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
    expected = rule_based_information(group, fit_bank(group), fit_bank(ref))
    got = rule_based_information_batch(
        np.array([[h.values for h in group]]), np.array([[h.values for h in ref]])
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
    stack = np.array([[h.values] * 3])
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
