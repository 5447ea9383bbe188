import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulewatch import (
    DetectionError,
    InsufficientSamplesError,
    MissingFeatureError,
    MomentAccumulator,
    SlidingHitWindow,
    StreamMonitor,
    StreamStateError,
    WindowSizeMismatchWarning,
    detect,
    detect_group,
    detect_split,
    group_baseline,
    parse_ruleset,
    single_split_baseline,
    stream_detect,
)
from rulewatch.data import DataTable
from rulewatch.detection import build_report
from rulewatch.histogram import Split, hit_histogram, hit_matrix, make_splits
from rulewatch.inducer import induce_ruleset
from rulewatch.synth import GaussianMixtureSource, RuleAlignedSource
from tests.conftest import hit_bits, random_histogram, scorer_updates, stack
from tests.test_acceptance import STREAM_RULES

RULES = parse_ruleset(
    "if x1 <= 0.5 then a\n"
    "if x1 > 0.5 and x2 <= 0.5 then b\n"
    "if x2 > 0.25 then c\n"
)


def _record(rng):
    return {"x1": float(rng.random()), "x2": float(rng.random())}


def _table(samples):
    return DataTable(("x1", "x2"), np.array([[s["x1"], s["x2"]] for s in samples]))


def _batch_histogram(samples):
    return hit_histogram(RULES, Split(_table(samples)))


def _random_matrix(rng, n_splits, n_s, rules=RULES):
    """Hit counts of ``n_splits`` consecutive splits of ``n_s`` uniform samples."""
    table = DataTable(("x1", "x2"), rng.random((n_splits * n_s, 2)))
    return hit_matrix(rules, table, np.arange(n_splits * n_s).reshape(n_splits, n_s))


# -- sliding window -----------------------------------------------------------

def test_push_identical_samples_fills_with_mask():
    w = SlidingHitWindow(RULES, capacity=4)
    sample = {"x1": 0.2, "x2": 0.9}
    for _ in range(4):
        w.push(sample)
    h = w.histogram()
    assert h.counts.tolist() == [4, 0, 4]
    assert h.split_size == 4


def test_window_matches_batch_recount_every_push(rng):
    w = SlidingHitWindow(RULES, capacity=16)
    history = []
    for _ in range(200):
        s = _record(rng)
        history.append(s)
        w.push(s)
        h = w.histogram()
        expected = _batch_histogram(history[-16:])
        assert h.counts.tolist() == expected.counts.tolist()
        assert h.split_size == expected.split_size
        # the live counts, without a copy and read-only
        assert not w.counts.flags.writeable
        assert np.array_equal(w.counts, h.counts)
    with pytest.raises(ValueError):
        w.counts[0] = 0


def _overlapping_rules(n_rules):
    # Rule k reads x1 above one of 5 thresholds and x2 below one of 7, so a
    # sample hits many rules at once and masks span more than 64 bits.
    return parse_ruleset("".join(
        f"if x1 > {(k % 5) / 5} and x2 <= {(k % 7 + 1) / 7} then r\n" for k in range(n_rules)
    ))


_GRID = st.sampled_from([0.0, 0.1, 0.2, 0.5, 0.6, 0.9, 1.0])


@pytest.mark.parametrize("n_rules", [65, 130])
@settings(max_examples=60, deadline=None)
@given(capacity=st.integers(1, 9),
       points=st.lists(st.tuples(_GRID, _GRID), min_size=1, max_size=60))
def test_wide_overlapping_window_equals_batch_recount_after_every_push(n_rules, capacity, points):
    rules = _overlapping_rules(n_rules)
    w = SlidingHitWindow(rules, capacity)
    history = []
    for x1, x2 in points:
        before = w.histogram().counts.tolist() if w.fill else None
        history.append({"x1": x1, "x2": x2})
        moved = w.push(history[-1])
        retained = history[-capacity:]
        expected = hit_histogram(rules, Split(_table(retained)))
        counts = w.histogram().counts.tolist()
        assert counts == expected.counts.tolist()
        assert w.fill == len(retained)
        # A push moves the window iff it grew or its counts changed.
        assert moved == (before is None or len(history) <= capacity or counts != before)


def test_eviction_removes_exactly_oldest(rng):
    w = SlidingHitWindow(RULES, capacity=8)
    samples = [_record(rng) for _ in range(9)]
    for s in samples[:8]:
        w.push(s)
    before = w.histogram().counts.tolist()
    w.push(samples[8])
    after = w.histogram().counts.tolist()
    from rulewatch import ruleset_hits

    oldest = np.array(hit_bits(ruleset_hits(RULES, samples[0]), RULES.n_rules), dtype=int)
    newest = np.array(hit_bits(ruleset_hits(RULES, samples[8]), RULES.n_rules), dtype=int)
    assert (np.array(before) - oldest + newest).tolist() == after


def test_push_error_leaves_window_unchanged(rng):
    w = SlidingHitWindow(RULES, capacity=4)
    w.push(_record(rng))
    snapshot = (w.fill, w.histogram().counts.tolist())
    with pytest.raises(MissingFeatureError):
        w.push({"x1": 0.5})
    assert (w.fill, w.histogram().counts.tolist()) == snapshot


def test_empty_window_has_no_histogram():
    w = SlidingHitWindow(RULES, capacity=4)
    with pytest.raises(StreamStateError):
        w.histogram()


# -- stream detection ----------------------------------------------------------

def _training_setup(rng, n_tr=5, n_s=32):
    matrix = _random_matrix(rng, n_tr, n_s)
    base = single_split_baseline(matrix, config={"n_s": n_s})
    return matrix, base


def test_stream_detect_requires_full_window(rng):
    matrix, base = _training_setup(rng)
    w = SlidingHitWindow(RULES, capacity=32)
    w.push(_record(rng))
    with pytest.raises(StreamStateError):
        stream_detect(w, base, matrix)


def test_stream_detect_equals_batch_detection(rng):
    matrix, base = _training_setup(rng)
    w = SlidingHitWindow(RULES, capacity=32)
    history = []
    ticks = 0
    for i in range(120):
        s = _record(rng)
        history.append(s)
        w.push(s)
        if not w.is_full:
            continue
        tick = stream_detect(w, base, matrix)
        batch = detect_split(matrix, _batch_histogram(history[-32:]), base)
        assert tick.verdict == batch.verdict
        # values, votes, distances and bounds of every metric
        assert tick.per_metric == batch.per_metric
        ticks += 1
    assert ticks == 120 - 31


ONE_HIT_RULES = parse_ruleset(
    "if x1 <= 0.5 and x2 <= 0.5 then a\n"
    "if x1 <= 0.5 and x2 > 0.5 then b\n"
    "if x1 > 0.5 then c\n"
)


def test_tick_updates_only_the_rules_that_changed(rng):
    # Every sample hits one rule, so a push moves at most 2 counts: the
    # evicted sample's rule down, the admitted one's up.
    matrix = _random_matrix(rng, 5, 32, ONE_HIT_RULES)
    base = single_split_baseline(matrix, config={"n_s": 32})
    most = set()
    for capacity in (8, 64, 1024):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WindowSizeMismatchWarning)
            monitor = StreamMonitor(ONE_HIT_RULES, base, matrix, capacity=capacity)
        for _ in range(capacity):
            monitor.push(_record(rng))  # the first tick builds the scorer's state
        updated = []
        for _ in range(64):
            with scorer_updates() as moved:
                assert monitor.push(_record(rng)) is not None
            updated.append(sum(moved))
        most.add(max(updated))
    assert most == {2}  # same work at every capacity


def _uniform_stream(rng):
    # RULES overlap: rule 3 shares samples with rules 1 and 2, so the
    # window's masks do not partition it.
    matrix, base = _training_setup(rng, n_s=8)
    feed = [_record(rng) for _ in range(300)]
    for s in feed[150:]:  # drift: x1 collapses toward 0
        s["x1"] *= 0.2
    return RULES, matrix, base, feed


def _criterion_3_stream(rng):
    # Acceptance criterion 3's setting: its 6 overlapping rules over 4
    # uniform features, n_s 500 and n_tr 5, and one stream of 5000 samples
    # whose first two features shift by 0.5 at half stream.
    n_s, n_tr, length = 500, 5, 5000
    src = RuleAlignedSource(n_features=4)
    train = src.sample(n_tr * n_s, np.random.default_rng(42))
    matrix = hit_matrix(STREAM_RULES, train, make_splits(train, n_s, n_tr, seed=13))
    base = single_split_baseline(matrix, config={"n_s": n_s})
    feed_rng = np.random.default_rng(1001)
    feed = [
        *itertools.islice(src.stream(feed_rng), length // 2),
        *itertools.islice(src.shifted({0: 0.5, 1: 0.5}).stream(feed_rng), length - length // 2),
    ]
    return STREAM_RULES, matrix, base, feed


@pytest.mark.parametrize("setting, stride", [
    (_uniform_stream, 1), (_uniform_stream, 3), (_criterion_3_stream, 1),
], ids=["1", "3", "criterion-3"])  # a uniform input is named by its stride
def test_single_split_monitor_scores_only_a_moved_window(rng, monkeypatch, setting, stride):
    # A tick scores the window (one build_report) only if some push since
    # the last tick moved the counts or the fill, and otherwise returns the
    # last tick's report object; either way the tick equals detect_split on
    # a batch recount. The monitor's one scorer moves its state across the
    # whole stream, rule by rule where few counts changed.
    built = []

    def counted_build_report(*args, **kwargs):
        built.append(build_report(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr("rulewatch.streaming.build_report", counted_build_report)
    rules, matrix, base, feed = setting(rng)
    n_s, columns = matrix.split_size, rules.feature_names
    X = np.array([[s[c] for c in columns] for s in feed])
    monitor = StreamMonitor(rules, base, matrix, detect_stride=stride)
    last, state, moved = None, None, False
    outcomes, verdicts, updated = {"scored": 0, "reused": 0}, set(), []
    for i, s in enumerate(feed):
        recount = hit_histogram(rules, Split(DataTable(columns, X[max(0, i + 1 - n_s) : i + 1])))
        now = (recount.counts.tolist(), recount.split_size)
        moved |= now != state
        state = now
        n_built = len(built)
        with scorer_updates() as rules_moved:
            tick = monitor.push(s)
        if tick is None:
            continue
        if moved:
            assert len(built) == n_built + 1 and tick is built[-1]
            outcomes["scored"] += 1
            updated.append(sum(rules_moved))
        else:
            assert len(built) == n_built and tick is last
            outcomes["reused"] += 1
        batch = detect_split(matrix, recount, base)
        assert tick.per_metric == batch.per_metric
        assert tick.verdict == batch.verdict
        verdicts.add(tick.verdict)
        last, moved = tick, False
    assert sum(outcomes.values()) == len(range(n_s - 1, len(feed), stride))
    assert min(outcomes.values()) > 0 and len(verdicts) == 2
    assert min(updated) < rules.n_rules  # some tick moved its rules one at a time


def test_stream_checks_each_request_once(rng, request_checks):
    # stream_detect checks its request on every call; a monitor checks its
    # own once, when it is built, and a single-split tick checks nothing.
    matrix, base = _training_setup(rng, n_s=8)
    window = SlidingHitWindow(RULES, capacity=8)
    for _ in range(8):
        window.push(_record(rng))
    stream_detect(window, base, matrix)
    assert len(request_checks) == 1
    del request_checks[:]
    monitor = StreamMonitor(RULES, base, matrix)
    assert len(request_checks) == 1
    ticks = [monitor.push(_record(rng)) for _ in range(100)]
    assert sum(t is not None for t in ticks) == 100 - 7
    assert len(request_checks) == 1


def test_monitor_warns_on_window_size_mismatch(rng):
    matrix, base = _training_setup(rng, n_s=32)
    with pytest.warns(WindowSizeMismatchWarning):
        StreamMonitor(RULES, base, matrix, capacity=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        StreamMonitor(RULES, base, matrix)  # capacity from baseline: no warning


def test_monitor_window_defaults_to_the_training_split_size(rng):
    matrix = _random_matrix(rng, 8, 24)
    # neither config records n_s
    for base, n_op in ((single_split_baseline(matrix), 1), (group_baseline(matrix, 3), 3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monitor = StreamMonitor(RULES, base, matrix)
        assert (monitor.window.capacity, monitor.mode, monitor.n_op) == (24, base.mode, n_op)


def test_monitor_tick_cadence_and_stride(rng):
    matrix, base = _training_setup(rng, n_s=8)
    monitor = StreamMonitor(RULES, base, matrix, capacity=8, detect_stride=3)
    ticks = [i for i in range(40) if monitor.push(_record(rng)) is not None]
    # first tick when the window fills (push index 7), then every 3rd push
    assert ticks == [7, 10, 13, 16, 19, 22, 25, 28, 31, 34, 37]


def test_monitor_group_mode_snapshots(rng):
    n_s = 12
    cols = tuple(random_histogram(rng, RULES.n_rules, n_s) for _ in range(8))
    from rulewatch import group_baseline

    matrix = stack(cols)
    base = group_baseline(matrix, 3, config={"n_s": n_s, "n_op": 3})
    monitor = StreamMonitor(RULES, base, matrix, capacity=n_s)
    first_tick = first_index = None
    for i in range(60):
        tick = monitor.push(_record(rng))
        if tick is not None:
            first_tick, first_index = tick, i
            break
    assert first_tick is not None
    # a snapshot every capacity = 12 pushes: pushes 12, 24, 36 -> 3rd
    # snapshot, and so the first group of 3 disjoint windows, on push 36
    assert first_index == 35
    assert "rbi" in first_tick.per_metric


def test_group_stream_equals_batch_at_every_tick(rng):
    # Each tick's group is the last n_op snapshots, taken at every n_s-th
    # push: the last n_op disjoint windows. Recounting those windows in
    # batch must give the tick's values, flags and verdict exactly, before
    # and after drift.
    n_s, n_op = 12, 3
    training = _random_matrix(rng, 8, n_s)
    base = group_baseline(training, n_op, config={"n_s": n_s, "n_op": n_op})
    monitor = StreamMonitor(RULES, base, training, capacity=n_s)
    history, verdicts = [], set()
    for i in range(120):
        s = _record(rng)
        if i >= 60:  # drift: x1 collapses toward 0
            s["x1"] *= 0.2
        history.append(s)
        tick = monitor.push(s)
        if tick is None:
            continue
        ends = list(range(n_s, i + 2, n_s))[-n_op:]
        windows = np.array([np.arange(p - n_s, p) for p in ends])
        batch = detect_group(training, hit_matrix(RULES, _table(history), windows), base)
        # values, votes, distances and bounds of every metric
        assert tick.per_metric == batch.per_metric
        assert tick.verdict == batch.verdict
        verdicts.add(tick.verdict)
    assert len(verdicts) == 2  # both verdicts occur


def test_group_stream_scores_once_per_snapshot(rng, monkeypatch):
    # Snapshots land every capacity = 12 pushes (pushes 12, 24, ..., 120)
    # and ticks start with the 3rd one (push 36), so 120 pushes bring 8
    # groups and 85 ticks; the ticks between two snapshots return the
    # report of the group they share.
    calls = []

    def counted_detect(*args, **kwargs):
        calls.append(args)
        return detect(*args, **kwargs)

    monkeypatch.setattr("rulewatch.streaming.detect", counted_detect)
    training = _random_matrix(rng, 8, 12)
    monitor = StreamMonitor(RULES, group_baseline(training, 3), training)
    ticks = {}
    for i in range(120):
        tick = monitor.push(_record(rng))
        if tick is not None:
            ticks[i + 1] = tick
    assert sorted(ticks) == list(range(36, 121))
    assert len(calls) == 8
    for push, tick in ticks.items():
        if push % 12:
            assert tick is ticks[push - push % 12]


def test_in_distribution_group_stream_stays_quiet():
    # The rbi envelope is calibrated on groups of n_op disjoint splits, so
    # a group stream scored on such groups raises no more false alarms
    # than batch detection. Per seed: induced rules, a group baseline and
    # 7 windows of in-distribution feed. A monitor returns one report
    # object until its group changes; each distinct one is kept alive, so
    # that no two can share an id().
    n_s, n_tr, n_op = 500, 20, 4
    source = GaussianMixtureSource(n_features=6, informative=(0, 1, 2, 3), class_sep=1.5)
    reports = []  # (report, pushes so far, the seed's rules, baseline, training and feed)
    for seed in range(900, 910):
        rng = np.random.default_rng(seed)
        rules = induce_ruleset(source.sample(4000, rng), max_depth=4, min_leaf=50, warn=False)
        train = source.sample(n_tr * n_s, rng)
        splits = make_splits(train, n_s, n_tr, seed=int(rng.integers(2**31)))
        training = hit_matrix(rules, train, splits)
        base = group_baseline(training, n_op)
        feed = source.sample(7 * n_s, rng)
        monitor = StreamMonitor(rules, base, training)
        for push, record in enumerate(feed.iter_records(), 1):
            tick = monitor.push(record)
            if tick is not None and (not reports or tick is not reports[-1][0]):
                reports.append((tick, push, (rules, base, training, feed)))
    n_ood = sum(report.is_ood for report, *_ in reports)
    assert n_ood <= 0.05 * len(reports), f"{n_ood} of {len(reports)} distinct reports are OoD"
    # one group per window from the n_op-th on, each batch detect on the
    # last n_op disjoint windows of the feed
    assert len(reports) == 10 * (7 - n_op + 1)
    for report, push, (rules, base, training, feed) in reports:
        windows = np.arange(push - n_op * n_s, push).reshape(n_op, n_s)
        batch = detect_group(training, hit_matrix(rules, feed, windows), base)
        assert report.per_metric == batch.per_metric
        assert report.verdict == batch.verdict


def test_stream_detect_rejects_a_group_baseline(rng):
    training = _random_matrix(rng, 8, 12)
    w = SlidingHitWindow(RULES, capacity=12)
    for _ in range(12):
        w.push(_record(rng))
    with pytest.raises(DetectionError, match="group baseline"):
        stream_detect(w, group_baseline(training, 3), training)


def test_tick_record_csv_rows(rng):
    matrix, base = _training_setup(rng, n_s=8)
    monitor = StreamMonitor(RULES, base, matrix, capacity=8)
    tick = None
    i = 0
    while tick is None:
        tick = monitor.push(_record(rng))
        i += 1
    rows = tick.csv_rows()
    assert len(rows) == 3  # wmi, l1, l2
    for row, (name, m) in zip(rows, tick.per_metric.items()):
        assert len(row) == len(tick.CSV_HEADER)
        assert row == (name, m.representative, *m.baseline, int(m.flag), tick.verdict)


# -- moments -------------------------------------------------------------------

def test_moments_constant_stream():
    acc = MomentAccumulator()
    for _ in range(10):
        acc.push(3.25)
    assert acc.mean() == 3.25
    assert acc.variance() == 0.0
    assert acc.skewness() == 0.0
    assert acc.kurtosis() == 0.0


def test_moments_hand_example():
    acc = MomentAccumulator()
    for v in (1, 2, 3, 4):
        acc.push(v)
    assert acc.mean() == pytest.approx(2.5)
    assert acc.variance() == pytest.approx(1.25)


def test_moments_requirements_ladder():
    acc = MomentAccumulator()
    with pytest.raises(InsufficientSamplesError):
        acc.mean()
    acc.push(1.0)
    assert acc.mean() == 1.0
    with pytest.raises(InsufficientSamplesError):
        acc.variance()
    acc.push(2.0)
    acc.variance()
    with pytest.raises(InsufficientSamplesError):
        acc.skewness()
    acc.push(3.0)
    acc.skewness()
    with pytest.raises(InsufficientSamplesError):
        acc.kurtosis()
    acc.push(4.0)
    assert len(acc.query()) == 4


def _batch_moments(values):
    arr = np.asarray(values, dtype=float)
    mean = arr.mean()
    d = arr - mean
    var = (d**2).mean()
    if var == 0:
        return mean, 0.0, 0.0, 0.0
    return (
        float(mean),
        float(var),
        float((d**3).mean() / var**1.5),
        float((d**4).mean() / var**2),
    )


def test_moments_match_batch_on_random_window(rng):
    acc = MomentAccumulator(capacity=50)
    window = []
    for i in range(3000):
        x = float(rng.normal(3.0, 2.0))
        acc.push(x)
        window.append(x)
        window = window[-50:]
        if acc.count >= 4:
            expected = _batch_moments(window)
            got = acc.query()
            for g, e in zip(got, expected):
                assert g == pytest.approx(e, rel=1e-9, abs=1e-9)


def test_moments_explicit_evictions_match_batch(rng):
    acc = MomentAccumulator()
    window = []
    for _ in range(2000):
        if window and rng.random() < 0.4:
            evicted = acc.evict()
            assert evicted == window.pop(0)
        else:
            x = float(rng.random() * 10 - 5)
            acc.push(x)
            window.append(x)
        if len(window) >= 4:
            for g, e in zip(acc.query(), _batch_moments(window)):
                assert g == pytest.approx(e, rel=1e-9, abs=1e-9)


def test_moments_never_nan(rng):
    acc = MomentAccumulator(capacity=6)
    for _ in range(100):
        acc.push(float(rng.random()))
        if acc.count >= 4:
            assert all(not math.isnan(v) for v in acc.query())
    # A NaN, an infinity or a value whose powers overflow counts no more
    # once it has left the window.
    for bad in (math.nan, math.inf, 1e200):
        acc = MomentAccumulator(capacity=4)
        for v in (1, bad, 2, 3, 4, 5, 6, 7, 8, 9):
            acc.push(v)
        got = acc.query()
        assert all(not math.isnan(v) for v in got), (bad, got)
        assert got == pytest.approx(_batch_moments([6, 7, 8, 9]), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("big", [1e80, 1e103, 1e200, 1.7e308])
def test_moments_past_the_float_range_are_not_finite_and_raise_nothing(big):
    # 1e80's fourth power overflows, and a pair near +-1.7e308 overflows
    # the offsets themselves.
    for values in ([0, 1, big, 2, 3], [big, -big] * 4, [big * k for k in range(1, 9)]):
        acc = MomentAccumulator(capacity=4)
        for v in values:
            acc.push(v)
            if acc.count >= 4:
                assert not all(map(math.isfinite, acc.query())), (big, values)


def test_moments_of_a_variance_whose_square_underflows_raise_nothing():
    acc = MomentAccumulator()
    for v in (0.0, 1e-85, 2e-85, 3e-85):
        acc.push(v)
    mean, variance, _, _ = acc.query()
    assert mean == pytest.approx(1.5e-85) and variance == pytest.approx(1.25e-170)


def _two_pass_moments(values):
    """(mean, variance, skewness, kurtosis) of ``values``: a two-pass in exact arithmetic."""
    xs = [Fraction(v) for v in values]
    mean = sum(xs) / len(xs)
    m2, m3, m4 = (sum((x - mean) ** k for x in xs) / len(xs) for k in (2, 3, 4))
    if m2 == 0:
        return float(mean), 0.0, 0.0, 0.0
    skewness = math.copysign(math.sqrt(float(m3 * m3 / m2**3)), m3)
    return float(mean), float(m2), skewness, float(m4 / (m2 * m2))


def _agree(got, values):
    assert np.isclose(got, _two_pass_moments(values), rtol=1e-9, atol=1e-9).all(), (got, values)


@pytest.mark.parametrize("capacity, values", [
    (5, [0, 1, 2, 3, 1e20, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1]),
    (4, [0, 1, 2, 3, 1e75, 0, 1, 2, 3]),
    (4, [1e20, 1, 2, 3, 4]),
    (4, [1e20, *range(1, 10)]),
], ids=["1e20-left-a-window-of-5", "1e75-left", "1e20-first", "1e20-first-then-9"])
def test_moments_forget_a_large_value_that_left(capacity, values):
    # Summed powers of a large value swamp the small ones' digits; once it
    # has left, the moments are those of the retained values alone.
    acc = MomentAccumulator(capacity=capacity)
    for v in values:
        acc.push(v)
    _agree(acc.query(), values[-capacity:])


# Mixed scale: a mantissa in [1, 10) times 10**-3 .. 10**3, either sign, or 0.
# Nothing nearer 0, whose fourth power would leave float precision behind
# in any computation, the two-pass one included.
_MIXED = st.builds(
    lambda sign, m, e: sign * m * 10.0**e,
    st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0, exclude_max=True), st.integers(-3, 3),
) | st.just(0.0)
_EVICT = None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([4, 5, 6, 7, 8, None]),
    st.lists(_MIXED | st.sampled_from([1e20, math.nan, math.inf, -math.inf, _EVICT]),
             max_size=60),
)
def test_moments_match_a_two_pass_after_any_history(capacity, ops):
    # Every query whose two-pass moments are finite agrees with them,
    # whatever large, NaN or infinite values came and went before.
    acc = MomentAccumulator(capacity=capacity)
    window = []
    for op in ops:
        if op is _EVICT:
            if window:
                got, oldest = acc.evict(), window.pop(0)
                assert got == oldest or math.isnan(got) and math.isnan(oldest)
        else:
            acc.push(op)
            window = (window + [op])[-capacity:] if capacity else window + [op]
        if len(window) >= 4:
            got = acc.query()
            if all(map(math.isfinite, window)):
                _agree(got, window)


def test_evict_empty_accumulator():
    with pytest.raises(InsufficientSamplesError):
        MomentAccumulator().evict()
