"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite takes a few minutes, dominated by the separation
experiment (criterion 5).
"""
import itertools
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from rulewatch import (
    DataTable,
    HitHistogram,
    MomentAccumulator,
    SlidingHitWindow,
    alpha_weight,
    detect_split,
    group_baseline,
    hit_histogram,
    hit_matrix,
    lp_norm,
    make_splits,
    mutual_information,
    parse_ruleset,
    single_split_baseline,
    weighted_mutual_information,
)
from rulewatch.cli import main
from rulewatch.config import RunConfig
from rulewatch.detection import detect_group
from rulewatch.eval import run_eval
from rulewatch.histogram import Split
from rulewatch.streaming import StreamMonitor, stream_detect
from rulewatch.synth import GaussianMixtureSource, RuleAlignedSource
from tests.conftest import stack


@contextmanager
def criterion(num, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL  [{time.time() - start:.1f}s]")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS  [{time.time() - start:.1f}s]")


STREAM_RULES = parse_ruleset(
    "if x1 <= 0.5 and x2 <= 0.5 then 1\n"
    "if x1 <= 0.5 and x2 > 0.5 then 0\n"
    "if x1 > 0.5 and x2 <= 0.5 then 0\n"
    "if x1 > 0.5 and x2 > 0.5 then 0\n"
    "if x3 <= 0.25 then 0\n"
    "if x4 > 0.75 then 0\n"
)
STREAM_COLUMNS = ("x1", "x2", "x3", "x4")


def test_criterion_1_worked_information_example():
    with criterion(1, "worked information example"):
        A = HitHistogram.from_values([0.166, 0.182, 0.438, 0.424], 1000)
        B = HitHistogram.from_values([0.211, 0.214, 0.387, 0.399], 1000)
        C = HitHistogram.from_values([0.399, 0.387, 0.214, 0.211], 1000)

        assert alpha_weight(A, B) == 0.03825
        assert alpha_weight(B, C) == 0.1805

        assert abs(mutual_information(A, B) - math.log(4)) <= 1e-12
        assert abs(mutual_information(B, C) - math.log(4)) <= 1e-12

        wab = weighted_mutual_information(A, B)
        wbc = weighted_mutual_information(B, C)
        # hand derivation: four distinct values and four distinct pairs give
        # each weighted entropy = -a*ln(a/4), hence W = -a*ln(a/4) overall
        assert abs(wab - (-0.03825 * math.log(0.03825 / 4))) <= 1e-4
        assert abs(wbc - (-0.1805 * math.log(0.1805 / 4))) <= 1e-4
        assert abs(wab - 0.1779) <= 1e-4
        assert abs(wbc - 0.5593) <= 1e-4
        assert wab < wbc


def test_criterion_2_metric_axioms_randomized():
    with criterion(2, "metric axioms over 1000 random pairs"):
        rng = np.random.default_rng(20240801)
        for _ in range(1000):
            n_r = int(rng.integers(2, 65))
            n_s = int(rng.integers(10, 5001))
            draw = lambda: HitHistogram(
                tuple(int(c) for c in rng.integers(0, n_s + 1, n_r)), n_s
            )
            a, b, c = draw(), draw(), draw()

            for p in (1, 2):
                dab = lp_norm(a, b, p)
                assert dab == lp_norm(b, a, p)
                assert dab >= 0.0
                assert (dab == 0.0) == (a.counts.tolist() == b.counts.tolist())
                assert lp_norm(a, a, p) == 0.0
                assert lp_norm(a, c, p) <= dab + lp_norm(b, c, p) + 1e-12

            assert alpha_weight(a, b) == lp_norm(a, b, 1) / n_r
            assert weighted_mutual_information(a, a) == 0.0
            assert weighted_mutual_information(a, b) >= 0.0

            order = rng.permutation(n_r)
            pa = HitHistogram(tuple(a.counts[i] for i in order), n_s)
            pb = HitHistogram(tuple(b.counts[i] for i in order), n_s)
            assert mutual_information(pa, pb) == mutual_information(a, b)


def test_criterion_3_streaming_oracle_equivalence():
    with criterion(3, "streaming equals batch at every tick"):
        n_s, n_tr, length = 500, 5, 20 * 500
        src = RuleAlignedSource(n_features=4)
        drift = src.shifted({0: 0.5, 1: 0.5})
        setup_rng = np.random.default_rng(42)
        train = src.sample(n_tr * n_s, setup_rng)
        matrix = hit_matrix(STREAM_RULES, train, make_splits(train, n_s, n_tr, seed=13))
        base = single_split_baseline(matrix, config={"n_s": n_s})

        for stream_idx in range(10):
            rng = np.random.default_rng(1000 + stream_idx)
            if stream_idx % 2 == 0:
                feed = itertools.islice(src.stream(rng), length)
            else:  # drift switched on at half stream
                feed = itertools.chain(
                    itertools.islice(src.stream(rng), length // 2),
                    itertools.islice(drift.stream(rng), length - length // 2),
                )
            window = SlidingHitWindow(STREAM_RULES, n_s)
            ring = np.zeros((n_s, len(STREAM_COLUMNS)))
            pos = 0
            for rec in feed:
                window.push(rec)
                ring[pos] = [rec[c] for c in STREAM_COLUMNS]
                pos = (pos + 1) % n_s
                if not window.is_full:
                    continue
                batch_hist = hit_histogram(
                    STREAM_RULES, Split(DataTable(STREAM_COLUMNS, ring.copy()))
                )
                assert np.array_equal(window.histogram().counts, batch_hist.counts)  # integer-exact
                tick = stream_detect(window, base, matrix)
                batch = detect_split(matrix, batch_hist, base)
                assert tick.verdict == batch.verdict
                # values, votes, distances and bounds of every metric
                assert tick.per_metric == batch.per_metric


def test_criterion_4_rbi_identity_limits():
    with criterion(4, "group-information identity limits"):
        rng = np.random.default_rng(7)
        n_s = 40
        draw = lambda: HitHistogram(tuple(int(c) for c in rng.integers(10, 31, 3)), n_s)
        tr1 = [draw() for _ in range(5)]
        tr2 = [draw() for _ in range(4)]
        training = stack(tuple(tr1 + tr2))
        base = group_baseline(training, 3)
        for m in range(len(tr2)):
            fold = [tr2[i] for i in range(len(tr2)) if i != m]
            report = detect_group(training, stack(fold), base)
            value = report.per_metric["rbi"].values[0]
            assert base.rbi[0] <= value <= base.rbi[1]  # exact fold membership

        h = HitHistogram((12, 20, 5), n_s)
        degenerate = group_baseline(stack((h,) * 6), 2)
        assert degenerate.rbi == (1.0, 1.0)
        report = detect_group(stack((h,) * 6), stack([h, h]), degenerate)
        assert report.per_metric["rbi"].values[0] == 1.0
        assert not report.per_metric["rbi"].flag


def test_criterion_5_synthetic_separation_experiment():
    with criterion(5, "separation experiment, 200 repetitions"):
        src = GaussianMixtureSource(n_features=6, informative=(0, 1, 2, 3), class_sep=1.5)
        ood = src.shifted({1: 2.0, 2: 2.0, 3: 2.0})  # 2 sigma on 3 features

        single_cfg = RunConfig(n_s=1000, n_tr=20, repetitions=200, mode="single", seed=2024)
        single = run_eval(src, ood, single_cfg, scenario="separation")
        group_cfg = RunConfig(
            n_s=1000, n_tr=20, n_op=10, repetitions=200, mode="group", seed=2024
        )
        group = run_eval(src, ood, group_cfg, scenario="separation")

        print(
            f"\n  single-split: FPR={single.fpr:.4f} FNR={single.fnr:.4f} "
            f"per-metric FP {single.per_metric_fp_rates}"
            f"\n  group:        FPR={group.fpr:.4f} FNR={group.fnr:.4f} "
            f"per-metric FP {group.per_metric_fp_rates}"
        )
        assert single.fnr == 0.0
        assert group.fnr == 0.0
        assert single.fpr <= 0.05
        assert group.fpr <= 0.05
        assert group.fpr <= single.fpr


def test_criterion_6_drift_onset_shorter_window_faster():
    with criterion(6, "shorter window detects drift no later"):
        src = RuleAlignedSource(n_features=4)
        drift = src.shifted({0: 0.3, 1: 0.3})
        n_tr, design_ns = 20, 500
        ties = 0
        for run in range(20):
            seed = 6100 + run
            train = src.sample(n_tr * design_ns, np.random.default_rng(seed))
            matrix = hit_matrix(
                STREAM_RULES, train, make_splits(train, design_ns, n_tr, seed=seed)
            )
            base = single_split_baseline(matrix, config={"n_s": design_ns})
            prefill = list(itertools.islice(
                src.stream(np.random.default_rng(seed + 50_000)), 1000))
            drift_feed = list(itertools.islice(
                drift.stream(np.random.default_rng(seed + 90_000)), 6000))
            first_exit = {}
            for window_ns in (500, 1000):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    monitor = StreamMonitor(
                        STREAM_RULES, base, matrix,
                        capacity=window_ns, metrics=("wmi",),
                    )
                for rec in prefill:
                    monitor.push(rec)
                t = None
                for tick, rec in enumerate(drift_feed):
                    out = monitor.push(rec)
                    if out is not None and out.per_metric["wmi"].flag:
                        t = tick
                        break
                first_exit[window_ns] = t
            t500, t1000 = first_exit[500], first_exit[1000]
            assert t500 is not None and t1000 is not None, f"run {run}: no detection"
            assert t500 <= t1000, f"run {run}: t500={t500} > t1000={t1000}"
            ties += int(t500 == t1000)
        assert ties <= 5


def test_criterion_7_incremental_moments_match_batch():
    with criterion(7, "incremental moments vs two-pass batch, 1e6 pushes"):
        n, w = 1_000_000, 128
        rng = np.random.default_rng(77)
        xs = rng.uniform(-5.0, 5.0, n)
        acc = MomentAccumulator(capacity=w)
        got = np.empty((n - w + 1, 4))
        for i in range(w - 1):
            acc.push(xs[i])
        j = 0
        for i in range(w - 1, n):
            acc.push(xs[i])
            got[j] = acc.query()
            j += 1

        windows = sliding_window_view(xs, w)
        expected = np.empty_like(got)
        chunk = 100_000
        for start in range(0, windows.shape[0], chunk):
            wv = windows[start:start + chunk]
            mean = wv.mean(axis=1)
            d = wv - mean[:, None]
            d2 = d * d
            m2 = d2.mean(axis=1)
            m3 = (d2 * d).mean(axis=1)
            m4 = (d2 * d2).mean(axis=1)
            expected[start:start + chunk, 0] = mean
            expected[start:start + chunk, 1] = m2
            expected[start:start + chunk, 2] = m3 / m2**1.5
            expected[start:start + chunk, 3] = m4 / (m2 * m2)
        # 1e-9 relative, with the same absolute floor for near-zero skewness
        assert np.isclose(got, expected, rtol=1e-9, atol=1e-9).all()


def test_criterion_8_determinism_and_fingerprint(tmp_path, capsys):
    with criterion(8, "baseline determinism and fingerprint safety"):
        rng = np.random.default_rng(5)
        src = RuleAlignedSource(n_features=3)
        src.sample(3000, rng).to_csv(tmp_path / "train.csv")
        src.sample(300, rng).to_csv(tmp_path / "op.csv")
        (tmp_path / "rules.txt").write_text(
            "if x1 <= 0.5 and x2 <= 0.5 then 1\n"
            "if x1 > 0.5 then 0\n"
            "if x3 > 0.25 then 0\n"
        )
        args = [
            "baseline", str(tmp_path / "train.csv"),
            "--rules", str(tmp_path / "rules.txt"),
            "--ns", "250", "--ntr", "10", "--seed", "9",
        ]
        assert main(args + ["-o", str(tmp_path / "b1.json")]) == 0
        assert main(args + ["-o", str(tmp_path / "b2.json")]) == 0
        assert (tmp_path / "b1.json").read_bytes() == (tmp_path / "b2.json").read_bytes()

        (tmp_path / "other.txt").write_text("if x1 <= 0.4 then 1\n")
        capsys.readouterr()
        rc = main([
            "detect", str(tmp_path / "op.csv"),
            "--rules", str(tmp_path / "other.txt"),
            "--baseline", str(tmp_path / "b1.json"),
        ])
        out = capsys.readouterr().out
        assert rc == 2          # dedicated exit code,
        assert "verdict" not in out  # and never a verdict
