import itertools
import json
import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulewatch import (
    BaselineBundle,
    Baselines,
    DetectionError,
    FingerprintMismatchError,
    HitHistogram,
    compute_fingerprint,
    detect,
    detect_group,
    detect_split,
    group_baseline,
    parse_ruleset,
    single_split_baseline,
    weighted_mutual_information,
)
from rulewatch.detection import (
    GROUP,
    GROUP_METRICS,
    IN_DISTRIBUTION,
    OUT_OF_DISTRIBUTION,
    ROTATION_SEED,
    ROTATIONS,
    SINGLE_METRICS,
    SINGLE_SPLIT,
    _calibration_scores,
    _metric_report,
    calibrated_rbi_interval,
)
from rulewatch.metrics import lp_norm, rule_based_information_batch
from tests.conftest import histograms, random_histogram, stack
from tests.test_metrics import oracle_fit, oracle_rbi


def _matrix(rng, n_tr=6, n_rules=4, n_s=50):
    cols = tuple(random_histogram(rng, n_rules, n_s) for _ in range(n_tr))
    return stack(cols)


# -- scalar oracle of the report builder -------------------------------------
# A strict-majority vote over the flags, one membership test and one
# distance per value, then ``statistics.median``.

def strict_majority(flags):
    """True iff strictly more than half the flags are set; ties read false."""
    if not flags:
        raise DetectionError("majority of an empty flag list is undefined")
    return 2 * sum(bool(f) for f in flags) > len(flags)


def test_strict_majority():
    assert strict_majority([True, True, False]) is True
    assert strict_majority([True, False]) is False  # tie reads off
    assert strict_majority([False, False, False]) is False
    with pytest.raises(DetectionError):
        strict_majority([])


def interval_contains(interval, value):
    lo, hi = interval
    return lo <= value <= hi


def normalized_distance(interval, value):
    lo, hi = interval
    if lo <= value <= hi:
        return 0.0
    if math.isinf(value):
        return math.inf
    gap = lo - value if value < lo else value - hi
    return gap / max(hi - lo, sys.float_info.epsilon)


def oracle_report(values, interval):
    out = [not interval_contains(interval, v) for v in values]
    return (
        strict_majority(out),
        sum(out),
        statistics.median(sorted(normalized_distance(interval, v) for v in values)),
        statistics.median(values),
    )


def _distance(interval, value):
    return _metric_report("m", [value], interval).normalized_distance


def test_normalized_distance():
    assert _distance((1.0, 3.0), 2.0) == 0.0
    assert _distance((1.0, 3.0), 1.0) == 0.0  # closed boundary
    assert _distance((1.0, 3.0), 4.0) == pytest.approx(0.5)
    assert _distance((1.0, 3.0), 0.0) == pytest.approx(0.5)
    assert math.isinf(_distance((1.0, 3.0), math.inf))
    assert _distance((2.0, 2.0), 3.0) > 0  # zero-width floored


_BOUNDS = st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0])
_VALUES = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([-math.inf, math.inf, -1.5, 0.0, 0.25, 1.0, 3.0, 5e-324, 1e300]),
)


@settings(max_examples=300, deadline=None)
@given(bounds=st.tuples(_BOUNDS, _BOUNDS), values=st.lists(_VALUES, min_size=1, max_size=12))
def test_metric_report_matches_scalar_oracle(bounds, values):
    interval = (min(bounds), max(bounds))  # includes zero-width intervals
    report = _metric_report("m", values, interval)
    flag, votes_out, distance, representative = oracle_report(values, interval)
    assert report.flag is flag
    assert (report.votes_out, report.votes_total) == (votes_out, len(values))
    assert type(report.normalized_distance) is float and type(report.representative) is float
    assert report.normalized_distance == distance
    assert report.representative == representative or (
        math.isnan(report.representative) and math.isnan(representative)  # (-inf + inf) / 2
    )
    assert report.values == tuple(values) and report.baseline == interval


# -- single-split baseline ----------------------------------------------------

def test_baseline_identical_histograms_zero_intervals():
    h = HitHistogram((3, 5, 7), 10)
    base = single_split_baseline(stack((h, h, h)))
    assert base.wmi == (0.0, 0.0)
    assert base.l1 == (0.0, 0.0)
    assert base.l2 == (0.0, 0.0)


def test_baseline_matches_explicit_pair_loop(rng):
    m = _matrix(rng, n_tr=3)
    base = single_split_baseline(m)
    cols = histograms(m)
    for name, fn in (
        ("wmi", weighted_mutual_information),
        ("l1", lambda a, b: lp_norm(a, b, 1)),
        ("l2", lambda a, b: lp_norm(a, b, 2)),
    ):
        values = [fn(cols[i], cols[j]) for i, j in itertools.permutations(range(3), 2)]
        assert base.interval(name) == (min(values), max(values))


def test_detect_split_reports_python_floats(rng):
    m = _matrix(rng, n_tr=4)
    base = single_split_baseline(m)
    report = detect_split(m, random_histogram(rng, m.n_rules, m.split_size), base)
    for mr in report.per_metric.values():
        assert all(type(v) is float for v in mr.values)
        assert type(mr.representative) is float
    assert all(type(v) is float for v in base.wmi + base.l1 + base.l2)


def test_baseline_needs_two_columns():
    h = HitHistogram((1,), 4)
    with pytest.raises(DetectionError):
        single_split_baseline(stack((h,)))


# -- single-split detection ----------------------------------------------------

def test_detect_training_column_is_in_distribution(rng):
    m = _matrix(rng, n_tr=6)
    base = single_split_baseline(m)
    for col in histograms(m):
        report = detect_split(m, col, base)
        assert report.verdict == IN_DISTRIBUTION


def test_detect_far_shift_flags_everything(rng):
    n_s = 50
    cols = tuple(
        HitHistogram(tuple(int(c) for c in rng.integers(20, 26, 4)), n_s)
        for _ in range(6)
    )
    m = stack(cols)
    base = single_split_baseline(m)
    far = HitHistogram((0, 0, 50, 50), n_s)
    report = detect_split(m, far, base)
    assert report.verdict == OUT_OF_DISTRIBUTION
    assert all(mr.flag for mr in report.per_metric.values())
    assert all(mr.normalized_distance > 0 for mr in report.per_metric.values())


def test_detect_exact_tie_keeps_flag_off():
    # Two training columns; op inside the envelope for one of them and
    # outside for the other: 1 of 2 votes = no strict majority.
    t1 = HitHistogram((10, 10), 20)
    t2 = HitHistogram((12, 12), 20)
    m = stack((t1, t2))
    base = single_split_baseline(m)
    assert base.l1 == (0.2, 0.2)
    op = HitHistogram((14, 14), 20)  # l1: 0.4 from t1 (out), 0.2 from t2 (in)
    report = detect_split(m, op, base, metrics=("l1",))
    assert report.per_metric["l1"].votes_out == 1
    assert report.per_metric["l1"].votes_total == 2
    assert report.per_metric["l1"].flag is False
    assert report.verdict == IN_DISTRIBUTION


def test_detect_checks_structure(rng):
    m = _matrix(rng)
    base = single_split_baseline(m, config={"n_rules": m.n_rules, "n_tr": m.n_splits})
    other = _matrix(rng, n_rules=5)
    with pytest.raises(FingerprintMismatchError):
        detect_split(other, random_histogram(rng, 5, 50), base)


def test_verdict_monotone_under_extra_flag(rng):
    m = _matrix(rng)
    base = single_split_baseline(m)
    far = HitHistogram((0, 50, 0, 50), 50)
    with_all = detect_split(m, far, base, metrics=("wmi", "l1", "l2"))
    with_fewer = detect_split(m, far, base, metrics=("l1",))
    if with_fewer.is_ood:
        assert with_all.is_ood  # adding metrics can only add flags


# -- group baseline and detection ---------------------------------------------

def test_group_config_validation(rng):
    cols = tuple(random_histogram(rng, 2, 20) for _ in range(20))
    config = group_baseline(stack(cols), 10).config
    assert config["n_op"] == 10 and "k" not in config  # k = 20 - 10 - 1 is derived
    with pytest.raises(DetectionError, match=r"k = n_tr - n_op - 1 >= 2, got -6"):
        group_baseline(stack(cols[:5]), 10)
    with pytest.raises(DetectionError, match="n_op >= 2, got 1"):
        group_baseline(stack(cols), 1)


def test_builders_overwrite_a_conflicting_partition_in_config(rng):
    m9 = stack(tuple(random_histogram(rng, 4, 40) for _ in range(9)))
    single = single_split_baseline(m9, config={"n_s": 40, "n_tr": 3, "n_rules": 7})
    assert single.config == {"n_s": 40, "n_tr": 9, "n_rules": 4}
    detect_split(m9, histograms(m9)[0], single)  # its own matrix is compatible
    group = group_baseline(m9, 3, config={"n_s": 40, "k": 2, "n_tr": 5, "sigma_floor": 0.5})
    assert (group.config["n_op"], group.config["n_tr"], group.config["n_rules"]) == (3, 9, 4)
    assert group.config["sigma_floor"] == 1e-6  # the floor the envelope was fitted with
    fold = stack(histograms(m9)[6:])
    # the stray k is not read: detection derives k = 9 - 3 - 1 = 5
    assert detect_group(m9, fold, group) == detect_group(m9, fold, group_baseline(m9, 3))


def test_group_baseline_rejects_a_conflicting_n_op_in_config(rng):
    m9 = stack(tuple(random_histogram(rng, 4, 20) for _ in range(9)))
    with pytest.raises(DetectionError, match="n_op 5.*n_op 3"):
        group_baseline(m9, 3, config={"n_s": 20, "n_op": 5})
    assert group_baseline(m9, 3, config={"n_s": 20, "n_op": 3}).config["n_op"] == 3


def test_group_baseline_identical_histograms_is_unit_interval():
    h = HitHistogram((3, 6), 10)
    base = group_baseline(stack((h,) * 6), 2)
    assert base.rbi == (1.0, 1.0)
    assert base.l1 == (0.0, 0.0)


def test_group_baseline_matches_hand_loo_oracle(rng):
    # tiny instance: 2 rules, k=3 reference, 3 calibration folds of 2, and
    # ROTATIONS seeded partitions of all 6 columns into 3 reference + 2 group
    tr1 = [random_histogram(rng, 2, 30) for _ in range(3)]
    tr2 = [random_histogram(rng, 2, 30) for _ in range(3)]
    base = group_baseline(stack(tuple(tr1 + tr2)), 2)

    def rbi(group, ref):
        rows = [(h.counts / h.split_size).tolist() for h in group]
        return oracle_rbi(
            rows, oracle_fit(rows), oracle_fit([(h.counts / h.split_size).tolist() for h in ref])
        )

    loo = [rbi([tr2[i] for i in range(3) if i != m], tr1) for m in range(3)]
    columns = tr1 + tr2
    draws = np.random.default_rng(ROTATION_SEED).random((ROTATIONS, 6))
    rotations = []
    for row in draws:
        order = sorted(range(6), key=lambda i: row[i])
        rotations.append(rbi([columns[i] for i in order[3:5]], [columns[i] for i in order[:3]]))
    ratio = statistics.median(loo) / statistics.median(rotations)
    pool = loo + rotations + [r * ratio for r in rotations]
    lo, hi = base.rbi
    # kernel vs oracle scores: within 3.2e-14 relative (measured)
    assert (lo, hi) == pytest.approx((min(pool), max(pool)), rel=1e-13)
    assert lo < min(loo)  # the rotation sets do widen this instance


def test_detect_group_rbi_equals_loo_row_bit_for_bit(rng):
    tr1 = [random_histogram(rng, 4, 40) for _ in range(5)]
    tr2 = [random_histogram(rng, 4, 40) for _ in range(4)]
    training = stack(tuple(tr1 + tr2))
    base = group_baseline(training, 3)
    loo, _ = _calibration_scores(training.counts / 40, len(tr1))
    for m in range(len(tr2)):
        fold = [tr2[i] for i in range(len(tr2)) if i != m]
        report = detect_group(training, stack(fold), base)
        assert report.per_metric["rbi"].values[0] == loo[m]


def test_reloaded_bundle_scores_every_loo_fold_bit_for_bit(rng):
    training = stack(tuple(random_histogram(rng, 4, 40) for _ in range(9)))
    built = BaselineBundle(group_baseline(training, 3, config={"n_op": 3}), training)
    bundle = BaselineBundle.from_document(built.to_document())
    k = bundle.training.n_splits - bundle.baselines.config["n_op"] - 1
    assert k == 5
    loo, _ = _calibration_scores(training.counts / 40, k)
    tr2 = histograms(bundle.training)[k:]
    for m in range(len(tr2)):
        fold = [h for i, h in enumerate(tr2) if i != m]
        report = detect_group(bundle.training, stack(fold), bundle.baselines)
        assert report.per_metric["rbi"].values[0] == loo[m]
        assert not report.per_metric["rbi"].flag


def test_detect_group_rejects_single_split_baseline(rng):
    training = stack(tuple(random_histogram(rng, 3, 40) for _ in range(8)))
    base = single_split_baseline(training)
    with pytest.raises(DetectionError, match="reference partition"):
        detect_group(training, stack(histograms(training)[:3]), base)


def test_calibrated_rbi_interval_pools_three_sets():
    loo = [0.6, 0.7]
    rotations = np.array([0.8, 1.0, 1.2])  # median 1.0: ratio = LOO median
    ratio = statistics.median(loo)
    assert calibrated_rbi_interval(loo, rotations) == (0.8 * ratio, 1.2)


@pytest.mark.parametrize(
    "rotations",
    [[0.0, 0.0, 0.9], [math.inf, math.inf, 0.9], [0.0, math.inf, math.inf]],
    ids=["median-zero", "median-inf", "median-inf-with-zero"],
)
def test_calibrated_rbi_interval_skips_scaled_set_on_degenerate_median(rotations):
    # a rotation median of 0 or +inf gives no usable
    # ratio: the scaled set is skipped, the other two sets still count
    loo = [0.6, 0.7]
    expected = (min(loo + rotations), max(loo + rotations))
    assert calibrated_rbi_interval(loo, np.array(rotations)) == expected


def test_calibrated_rbi_interval_skips_scaled_set_on_degenerate_loo_median():
    rotations = np.array([0.8, 1.0, 1.2])
    assert calibrated_rbi_interval([0.0, 0.0, 0.5], rotations) == (0.0, 1.2)
    assert calibrated_rbi_interval([0.9, math.inf, math.inf], rotations) == (0.8, math.inf)


def test_group_baseline_size_guards(rng):
    h = [random_histogram(rng, 2, 20) for _ in range(6)]
    with pytest.raises(DetectionError):
        group_baseline(stack(tuple(h[:4])), 2)  # k = 1
    with pytest.raises(DetectionError):
        group_baseline(stack(tuple(h[:4])), 1)


def test_detect_group_identical_to_reference(rng):
    tr1 = [random_histogram(rng, 3, 40) for _ in range(4)]
    tr2 = [random_histogram(rng, 3, 40) for _ in range(5)]
    training = stack(tuple(tr1 + tr2))
    base = group_baseline(training, 4)  # k = 9 - 4 - 1 = 4: the reference is tr1
    report = detect_group(training, stack(tr1), base)
    assert report.per_metric["rbi"].values[0] == 1.0


def test_detect_group_rejects_a_group_of_another_size(rng):
    training = stack(tuple(random_histogram(rng, 3, 40) for _ in range(9)))
    base = group_baseline(training, 3)
    with pytest.raises(DetectionError, match="has 3 operational split.*got 4"):
        detect_group(training, stack(histograms(training)[:4]), base)


def test_detect_group_fold_membership_exact(rng):
    tr1 = [random_histogram(rng, 3, 40) for _ in range(5)]
    tr2 = [random_histogram(rng, 3, 40) for _ in range(4)]
    training = stack(tuple(tr1 + tr2))
    base = group_baseline(training, 3)
    # op group identical to the fold TR2 minus member 1
    fold = [tr2[i] for i in range(4) if i != 1]
    report = detect_group(training, stack(fold), base)
    value = report.per_metric["rbi"].values[0]
    assert base.rbi[0] <= value <= base.rbi[1]
    assert report.per_metric["rbi"].flag is False


def test_detect_group_far_shift_is_ood(rng):
    n_s = 100
    tr = [
        HitHistogram(tuple(int(c) for c in rng.integers(45, 56, 3)), n_s)
        for _ in range(9)
    ]
    training = stack(tuple(tr))
    base = group_baseline(training, 3)
    op = [HitHistogram((0, 99, 1), n_s), HitHistogram((1, 100, 0), n_s),
          HitHistogram((0, 100, 2), n_s)]
    report = detect_group(training, stack(op), base)
    assert report.verdict == OUT_OF_DISTRIBUTION
    rbi_value = report.per_metric["rbi"].values[0]
    assert rbi_value < base.rbi[0]
    assert report.per_metric["l1"].flag
    # rbi >= 0, so its distance below the envelope is at most lo / width
    lo, hi = base.rbi
    assert report.per_metric["rbi"].normalized_distance <= lo / max(hi - lo, sys.float_info.epsilon)


def test_a_baseline_recording_another_sigma_floor_scores_with_it(rng):
    # New baselines all record the fixed floor; detection reads the one a
    # baseline records, so a baseline built with another floor scores as built.
    m9 = stack(tuple(random_histogram(rng, 4, 40) for _ in range(9)))
    doc = json.loads(BaselineBundle(group_baseline(m9, 3), m9).to_document())
    assert doc["config"]["sigma_floor"] == 1e-6
    doc["config"]["sigma_floor"] = 0.5
    base = BaselineBundle.from_document(json.dumps(doc)).baselines
    group = stack(histograms(m9)[6:])
    rbi = detect_group(m9, group, base).per_metric["rbi"].values
    expected = rule_based_information_batch(
        (group.counts / 40)[None], (m9.counts[:5] / 40)[None], 0.5
    )
    assert rbi == tuple(expected.tolist())
    assert rbi != detect_group(m9, group, group_baseline(m9, 3)).per_metric["rbi"].values


def test_group_norms_match_explicit_pair_loops(rng):
    tr1 = [random_histogram(rng, 4, 30) for _ in range(4)]
    tr2 = [random_histogram(rng, 4, 30) for _ in range(4)]
    cols = tr1 + tr2
    base = group_baseline(stack(tuple(cols)), 3)
    op = [random_histogram(rng, 4, 30) for _ in range(3)]
    report = detect_group(stack(tuple(cols)), stack(op), base)
    for name, p in (("l1", 1), ("l2", 2)):
        pairs = [lp_norm(a, b, p) for a, b in itertools.combinations(cols, 2)]
        assert base.interval(name) == (min(pairs), max(pairs))
        votes = [lp_norm(tr, h, p) for tr in cols for h in op]
        assert list(report.per_metric[name].values) == votes
        assert all(type(v) is float for v in report.per_metric[name].values)


def test_detect_group_requires_two_members(rng):
    tr1 = [random_histogram(rng, 2, 20) for _ in range(3)]
    tr2 = [random_histogram(rng, 2, 20) for _ in range(3)]
    training = stack(tuple(tr1 + tr2))
    base = group_baseline(training, 2)
    with pytest.raises(DetectionError):
        detect_group(training, stack([tr2[0]]), base)


# -- reports and persistence ---------------------------------------------------

def test_report_document_shape(rng):
    m = _matrix(rng)
    base = single_split_baseline(m)
    report = detect_split(m, histograms(m)[0], base)
    doc = json.loads(report.to_document())
    assert doc["mode"] == "single-split"
    assert doc["verdict"] in (IN_DISTRIBUTION, OUT_OF_DISTRIBUTION)
    for name in ("wmi", "l1", "l2"):
        entry = doc["metrics"][name]
        assert set(entry) == {
            "values", "flag", "votes_out", "votes_total",
            "normalized_distance", "baseline",
        }
        assert len(entry["values"]) == m.n_splits


def test_bundle_round_trip(rng):
    m = _matrix(rng)
    rs = parse_ruleset("if x1 <= 1 then a\nif x1 > 1 then b\n")
    fp = compute_fingerprint(rs, {"n_s": 50})
    base = single_split_baseline(m, config={"n_s": 50}, fingerprint=fp)
    bundle = BaselineBundle(base, m)
    text = bundle.to_document()
    loaded = BaselineBundle.from_document(text)
    assert loaded.baselines == bundle.baselines
    assert loaded.training.counts.tolist() == m.counts.tolist()
    assert loaded.training.split_size == m.split_size
    assert loaded.to_document() == text  # byte-stable round trip


def test_bundle_verify_rejects_ruleset_one_threshold_apart(rng):
    m = _matrix(rng)
    rs = parse_ruleset("if x1 <= 1 then a\nif x1 > 1 then b\n")
    moved = parse_ruleset("if x1 <= 1 then a\nif x1 > 1.5 then b\n")
    cfg = {"n_s": 50, "n_tr": 6, "mode": "single"}
    base = single_split_baseline(m, config=cfg, fingerprint=compute_fingerprint(rs, cfg))
    bundle = BaselineBundle.from_document(BaselineBundle(base, m).to_document())
    bundle.verify(rs)
    with pytest.raises(FingerprintMismatchError):
        bundle.verify(moved)


def test_bundle_rejects_garbage():
    with pytest.raises(DetectionError):
        BaselineBundle.from_document("{}")
    with pytest.raises(DetectionError):
        BaselineBundle.from_document("not json")


def _set_count(value):
    def edit(hits):
        hits["columns"][0][0] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set_count(1.9),
        _set_count(True),
        _set_count("2"),
        lambda hits: hits.update(split_size=4.7),
        lambda hits: hits.update(columns=[[True, 1]]),
    ],
    ids=["float-count", "bool-count", "string-count", "float-split-size", "bool-in-int-row"],
)
def test_bundle_rejects_non_integer_counts(rng, edit):
    # Each of these used to load truncated (1.9 -> 1, true -> 1, "2" -> 2, 4.7 -> 4).
    m = _matrix(rng)
    doc = json.loads(BaselineBundle(single_split_baseline(m), m).to_document())
    edit(doc["training_hits"])
    with pytest.raises(DetectionError, match="malformed baseline document"):
        BaselineBundle.from_document(json.dumps(doc))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(config=[1, 2]), "has no attribute 'get'"),
        (lambda doc: doc["config"].update(n_s=41), "config n_s 41 differs"),
        (lambda doc: doc["config"].pop("n_op"), "n_op >= 2"),
        (lambda doc: doc["intervals"].update(wmi=[0.0, 1.0]), "exactly one of"),
    ],
    ids=["config-not-a-mapping", "n_s-not-the-split-size", "group-without-n_op", "both-intervals"],
)
def test_bundle_rejects_a_self_contradicting_config(rng, edit, message):
    training = stack(tuple(random_histogram(rng, 3, 40) for _ in range(8)))
    bundle = BaselineBundle(group_baseline(training, 3, config={"n_s": 40}), training)
    doc = json.loads(bundle.to_document())
    BaselineBundle.from_document(json.dumps(doc))  # loads unedited
    edit(doc)
    with pytest.raises(DetectionError, match=f"malformed baseline document: .*{message}"):
        BaselineBundle.from_document(json.dumps(doc))


def test_fingerprint_binds_ruleset_and_config():
    rs1 = parse_ruleset("if x1 <= 1 then a\n")
    rs2 = parse_ruleset("if x1 <= 2 then a\n")
    cfg = {"n_s": 100, "n_tr": 5}
    assert compute_fingerprint(rs1, cfg) != compute_fingerprint(rs2, cfg)
    assert compute_fingerprint(rs1, cfg) != compute_fingerprint(rs1, {**cfg, "n_s": 200})
    assert compute_fingerprint(rs1, cfg) == compute_fingerprint(rs1, dict(cfg))


def test_baselines_interval_validation():
    with pytest.raises(DetectionError):
        Baselines(l1=(1.0, 0.5), l2=(0.0, 1.0))
    # any int or float, numpy's included, is a bound
    assert Baselines(l1=(0, 1), l2=(0.0, 1.0), wmi=(np.float64(0.0), 1.0)).l1 == (0, 1)


@pytest.mark.parametrize("interval", [
    (0.1,), (0.1, 0.2, 0.3), ("a", "b"), ("0.1", "0.2"), (True, 1), [0.1, 0.2],
])
def test_baselines_reject_an_interval_that_is_not_a_pair_of_numbers(interval):
    with pytest.raises(DetectionError, match="l1 interval must be a pair of numbers"):
        Baselines(l1=interval, l2=(0.0, 1.0), wmi=(0.0, 1.0))


def test_baselines_mode_comes_from_its_interval(rng):
    training = stack(tuple(random_histogram(rng, 3, 40) for _ in range(8)))
    single, group = single_split_baseline(training), group_baseline(training, 3)
    assert (single.mode, group.mode) == (SINGLE_SPLIT, GROUP)
    with pytest.raises(DetectionError, match="exactly one of"):
        Baselines(l1=(0.0, 1.0), l2=(0.0, 1.0))
    with pytest.raises(DetectionError, match="n_op >= 2"):
        Baselines(l1=(0.0, 1.0), l2=(0.0, 1.0), rbi=(0.5, 1.0), config={"n_op": 1})


def test_baselines_name_their_unit_size_and_metrics(rng):
    training = stack(tuple(random_histogram(rng, 3, 40) for _ in range(8)))
    single, group = single_split_baseline(training), group_baseline(training, 3)
    assert (single.n_op, single.metrics) == (1, SINGLE_METRICS)
    assert (group.n_op, group.metrics) == (3, GROUP_METRICS)
    # a single-split baseline scores one split whatever its config says
    assert single_split_baseline(training, config={"n_op": 4}).n_op == 1


@pytest.mark.parametrize("metrics", [None, ("l1",), ("l2", "l1")])
def test_detect_equals_the_entry_point_of_the_baseline_mode(rng, metrics):
    training = stack(tuple(random_histogram(rng, 3, 40) for _ in range(8)))
    single, group = single_split_baseline(training), group_baseline(training, 3)
    members = [random_histogram(rng, 3, 40) for _ in range(3)]
    op, one = stack(members), stack(members[:1])
    by_split = detect(training, one, single, metrics)
    by_group = detect(training, op, group, metrics)
    assert by_split == detect_split(training, members[0], single, metrics)
    assert by_group == detect_group(training, op, group, metrics)
    assert tuple(by_split.per_metric) == (metrics or SINGLE_METRICS)
    assert tuple(by_group.per_metric) == (metrics or GROUP_METRICS)


def test_detect_rejects_a_unit_of_another_size(rng):
    training = stack(tuple(random_histogram(rng, 3, 40) for _ in range(8)))
    single, group = single_split_baseline(training), group_baseline(training, 3)
    members = [random_histogram(rng, 3, 40) for _ in range(4)]
    for base, size in ((single, 2), (group, 2), (group, 4)):
        unit = stack(members[:size])
        with pytest.raises(DetectionError, match=f"has {base.n_op} operational split"):
            detect(training, unit, base)


@pytest.mark.parametrize("entry", ["detect single-split", "detect group", "detect_split",
                                   "detect_group"])
def test_each_detection_checks_its_request_once(rng, request_checks, entry):
    training = stack(tuple(random_histogram(rng, 3, 40) for _ in range(8)))
    single, group = single_split_baseline(training), group_baseline(training, 3)
    members = [random_histogram(rng, 3, 40) for _ in range(3)]
    call = {
        "detect single-split": lambda: detect(training, stack(members[:1]), single),
        "detect group": lambda: detect(training, stack(members), group),
        "detect_split": lambda: detect_split(training, members[0], single),
        "detect_group": lambda: detect_group(training, stack(members), group),
    }[entry]
    call()
    assert len(request_checks) == 1


def test_detect_split_rejects_a_group_baseline(rng):
    training = stack(tuple(random_histogram(rng, 3, 40) for _ in range(8)))
    base = group_baseline(training, 3)
    with pytest.raises(DetectionError, match="group baseline"):
        detect_split(training, histograms(training)[0], base)


@pytest.mark.parametrize("mode", [SINGLE_SPLIT, GROUP])
def test_an_empty_metric_selection_is_rejected(rng, mode):
    training = stack(tuple(random_histogram(rng, 3, 40) for _ in range(8)))
    base = group_baseline(training, 3) if mode == GROUP else single_split_baseline(training)
    with pytest.raises(DetectionError, match=f"no metric selected; {mode} metrics are"):
        detect(training, stack(histograms(training)[: base.n_op]), base, ())


@pytest.mark.parametrize("mode", [SINGLE_SPLIT, GROUP])
def test_metric_names_are_checked_against_the_baseline(rng, mode):
    training = stack(tuple(random_histogram(rng, 3, 40) for _ in range(8)))
    base = group_baseline(training, 3) if mode == GROUP else single_split_baseline(training)
    other = "wmi" if mode == GROUP else "rbi"
    with pytest.raises(DetectionError, match=f"unknown {mode} metric '{other}'"):
        detect(training, stack(histograms(training)[: base.n_op]), base, ("l1", other))
