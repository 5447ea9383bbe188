import sys
from contextlib import contextmanager

import numpy as np
import pytest

from rulewatch import HitHistogram, HitMatrix, parse_ruleset
from rulewatch.detection import check_request
from rulewatch.metrics import SplitScorer


@pytest.fixture
def two_rule_set():
    return parse_ruleset(
        "if x1 <= 3.2 and x2 > 0.5 then 1\n"
        "if x1 > 3.2 then 0\n"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def request_checks(monkeypatch):
    """The arguments of every ``check_request`` call, through any module's reference to it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return check_request(*args, **kwargs)

    modules = [m for n, m in sys.modules.items() if n.partition(".")[0] == "rulewatch"]
    for module in modules:
        if getattr(module, "check_request", None) is check_request:
            monkeypatch.setattr(module, "check_request", counted)
    return calls


@contextmanager
def scorer_updates():
    """The rules each ``SplitScorer`` state change moves: 1 per ``_move``, all per ``_rebuild``."""
    moved = []
    move, rebuild = SplitScorer._move, SplitScorer._rebuild

    def counted_move(self, r, new):
        moved.append(1)
        return move(self, r, new)

    def counted_rebuild(self, op, op_size):
        moved.append(len(op))
        return rebuild(self, op, op_size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SplitScorer, "_move", counted_move)
        patch.setattr(SplitScorer, "_rebuild", counted_rebuild)
        yield moved


def random_histogram(rng, n_rules, split_size):
    counts = tuple(int(c) for c in rng.integers(0, split_size + 1, n_rules))
    return HitHistogram(counts, split_size)


def stack(histograms):
    """The ``HitMatrix`` whose rows are the counts of ``histograms``, in order."""
    sizes = {h.split_size for h in histograms}
    assert len(sizes) == 1, sizes
    return HitMatrix(np.array([h.counts for h in histograms]), sizes.pop())


def histograms(matrix):
    """The rows of ``matrix`` as histograms, in order."""
    return [HitHistogram(row, matrix.split_size) for row in matrix.counts]


def hit_bits(mask, n_rules):
    """``ruleset_hits``' bitmask as one bool per rule, rule 1 first; no bit beyond the rules."""
    assert type(mask) is int and 0 <= mask < 1 << n_rules, mask
    return [bool(mask >> j & 1) for j in range(n_rules)]
