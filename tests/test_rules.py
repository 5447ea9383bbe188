import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rulewatch import (
    Condition,
    MissingFeatureError,
    NonNumericValueError,
    Rule,
    RuleError,
    RuleSyntaxError,
    Ruleset,
    format_ruleset,
    parse_ruleset,
    ruleset_hits,
)
from rulewatch.data import DataTable
from rulewatch.histogram import hit_matrix
from rulewatch.rules import Interval
from tests.conftest import hit_bits


def test_parse_simple_rule():
    rs = parse_ruleset("if x1 <= 3.2 and x2 > 0.5 then 1\n")
    assert rs.n_rules == 1
    rule = rs.rules[0]
    assert rule.id == 1
    assert len(rule.premise) == 2
    assert rule.premise[0] == Condition("x1", "<=", 3.2)
    assert rule.premise[1] == Condition("x2", ">", 0.5)
    assert rule.consequence == "1"


def test_parse_interval_rule():
    rs = parse_ruleset("if d in [0, 0.4] then safe\n")
    cond = rs.rules[0].premise[0]
    assert cond.operator == "in"
    assert cond.interval == Interval(0.0, 0.4, True, True)
    assert rs.rules[0].consequence == "safe"


def test_parse_open_interval_endpoints():
    rs = parse_ruleset("if d in (0, 0.4] then a\nif e in [1, 2) then b\n")
    assert rs.rules[0].premise[0].interval == Interval(0.0, 0.4, False, True)
    assert rs.rules[1].premise[0].interval == Interval(1.0, 2.0, True, False)


def test_parse_empty_premise_is_syntax_error():
    with pytest.raises(RuleSyntaxError) as exc:
        parse_ruleset("if then 1\n")
    assert exc.value.line == 1


def test_parse_reports_line_and_column():
    with pytest.raises(RuleSyntaxError) as exc:
        parse_ruleset("if x1 <= 3.2 then 1\nif x2 >> 1 then 2\n")
    assert exc.value.line == 2


def test_parse_malformed_interval():
    with pytest.raises(RuleSyntaxError):
        parse_ruleset("if d in [5, 1] then bad\n")


def test_parse_case_insensitive_keywords_and_comments():
    rs = parse_ruleset("# header comment\nIF x1 < 1 AND x2 == 2 THEN yes  # trailing\n")
    assert rs.n_rules == 1
    assert rs.rules[0].consequence == "yes"


def test_rule_requires_nonempty_premise():
    with pytest.raises(RuleError):
        Rule(id=1, premise=(), consequence="1")


def test_condition_rejects_nan_threshold():
    with pytest.raises(RuleError):
        Condition("x1", "<", math.nan)


def test_ruleset_requires_contiguous_ids():
    c = Condition("x1", "<", 0.0)
    with pytest.raises(RuleError):
        Ruleset((Rule(1, (c,), "a"), Rule(3, (c,), "b")))


def test_ruleset_requires_a_rule():
    with pytest.raises(RuleError, match="ruleset has no rules"):
        Ruleset(())
    for text in ("", "# comments only\n\n   \n"):
        with pytest.raises(RuleError, match="ruleset has no rules"):
            parse_ruleset(text)


def test_ruleset_hits_boundaries(two_rule_set):
    def rule_1(sample):
        return hit_bits(ruleset_hits(two_rule_set, sample), 2)[0]

    assert rule_1({"x1": 3.0, "x2": 0.7}) is True
    assert rule_1({"x1": 3.0, "x2": 0.5}) is False  # strict >
    assert rule_1({"x1": 3.2, "x2": 0.7}) is True   # <= includes boundary


def test_ruleset_hits_missing_feature(two_rule_set):
    with pytest.raises(MissingFeatureError):
        ruleset_hits(two_rule_set, {"x1": 3.0})


def test_ruleset_hits_non_numeric(two_rule_set):
    with pytest.raises(NonNumericValueError):
        ruleset_hits(two_rule_set, {"x1": 3.0, "x2": "high"})


def test_missing_feature_raises_even_when_an_earlier_condition_fails(two_rule_set):
    # x1 <= 3.2 fails at 5.0, so rule 1 cannot hit whatever x2 is; the
    # sample is still rejected, as a table without an x2 column is.
    with pytest.raises(MissingFeatureError):
        ruleset_hits(two_rule_set, {"x1": 5.0})
    with pytest.raises(MissingFeatureError):
        two_rule_set.hit_mask_table(np.array([[5.0]]), ("x1",))


def test_nan_in_a_used_feature_is_rejected(two_rule_set):
    with pytest.raises(NonNumericValueError, match="'x2' is NaN"):
        ruleset_hits(two_rule_set, {"x1": 3.0, "x2": math.nan})
    X = np.array([[1.0, 1.0, math.nan], [1.0, math.nan, 0.0]])
    # a NaN in a column no rule uses is ignored
    assert two_rule_set.hit_mask_table(X[:1], ("x1", "x2", "x3")).tolist() == [[True, False]]
    with pytest.raises(NonNumericValueError, match="row 1: feature 'x2' is NaN"):
        two_rule_set.hit_mask_table(X, ("x1", "x2", "x3"))


def test_hits_ignore_consequence_and_extra_fields(two_rule_set):
    sample = {"x1": 3.0, "x2": 0.7, "label": 999.0}
    assert ruleset_hits(two_rule_set, sample) == 0b01  # rule 1 only


def test_mutually_exclusive_rules_hit_at_most_one():
    rs = parse_ruleset("if x1 <= 0 then a\nif x1 > 0 then b\n")
    for v in (-1.0, 0.0, 1.0):
        assert sum(hit_bits(ruleset_hits(rs, {"x1": v}), 2)) == 1


def test_duplicated_rule_gives_equal_bits():
    rs = parse_ruleset("if x1 <= 0.5 then a\nif x1 <= 0.5 then a\n")
    for v in (0.0, 1.0):
        mask = hit_bits(ruleset_hits(rs, {"x1": v}), 2)
        assert mask[0] == mask[1]


def test_format_round_trip_examples():
    text = (
        "if x1 <= 3.2 and x2 > 0.5 then 1\n"
        "if d in [0.0, 0.4] then safe\n"
        "if e in (1.0, 2.5] and x1 == 7.0 then 2\n"
    )
    rs = parse_ruleset(text)
    assert parse_ruleset(format_ruleset(rs)) == rs
    # parse . format . parse == parse
    assert format_ruleset(parse_ruleset(format_ruleset(rs))) == format_ruleset(rs)


def test_interval_syntax_preserved():
    rs = parse_ruleset("if d in [0, 0.4] then safe\n")
    assert "in [0.0, 0.4]" in format_ruleset(rs)


# -- randomized agreement with a brute-force evaluator ----------------------

_OPERATORS = ("<", "<=", ">", ">=", "==")
_MAX_FLOAT = 1.7976931348623157e308


@st.composite
def rulesets(draw, thresholds=st.integers(-4, 4).map(float), max_conds=3):
    n_rules = draw(st.integers(1, 6))
    features = [f"x{i}" for i in range(1, 5)]
    rules = []
    for rid in range(1, n_rules + 1):
        n_conds = draw(st.integers(1, max_conds))
        conds = []
        for _ in range(n_conds):
            feat = draw(st.sampled_from(features))
            if draw(st.booleans()):
                lo, hi = sorted((draw(thresholds), draw(thresholds)))
                conds.append(
                    Condition(feat, "in",
                              interval=Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
                )
            else:
                conds.append(Condition(feat, draw(st.sampled_from(_OPERATORS)), draw(thresholds)))
        rules.append(Rule(rid, tuple(conds), draw(st.sampled_from(("0", "1", "ok")))))
    return Ruleset(tuple(rules))


# Edge values of the closed-bound normalisation: non-integer thresholds, each
# threshold's float neighbours, signed zeros, infinities and the smallest
# subnormal.
_EDGES = [-4.0, -1.5, -0.0, 0.0, 5e-324, 0.1, 1.0, 2.5, 3.0, 1e300, math.inf, -math.inf]
_THRESHOLDS = sorted(
    {e for t in _EDGES for e in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf))}
)
_WIDE_THRESHOLDS = st.one_of(st.sampled_from(_THRESHOLDS), st.floats(allow_nan=False))
_WIDE_VALUES = st.one_of(st.sampled_from(_THRESHOLDS + [math.nan]), st.floats())


def _brute_force_condition(cond, value):
    if cond.operator == "in":
        iv = cond.interval
        above = value > iv.lo or (iv.lo_closed and value == iv.lo)
        below = value < iv.hi or (iv.hi_closed and value == iv.hi)
        return above and below
    return {
        "<": value < cond.threshold,
        "<=": value <= cond.threshold,
        ">": value > cond.threshold,
        ">=": value >= cond.threshold,
        "==": value == cond.threshold,
    }[cond.operator]


def _brute_force_hits(rs, sample):
    return [
        all(_brute_force_condition(c, sample[c.feature]) for c in rule.premise)
        for rule in rs.rules
    ]


@settings(max_examples=300, deadline=None)
@given(rulesets(_WIDE_THRESHOLDS, max_conds=4),
       st.lists(_WIDE_VALUES, min_size=4, max_size=4))
@example(
    parse_ruleset(
        "if x1 > 3 and x1 < 1 then a\n"
        "if x2 > 1e999 then b\n"
        "if x2 < -1e999 then c\n"
        "if x3 > 0 and x3 <= 5e-324 and x3 in [-0.0, 1) then d\n"
        "if x4 in (2.5, 2.5] then e\n"
    ),
    [2.0, math.inf, 5e-324, 2.5],
)
@example(
    parse_ruleset("if x1 < 0 then a\nif x1 >= -0.0 and x1 <= 0.0 then b\nif x2 == 0 then c\n"),
    [-0.0, 0.0, 0.0, 0.0],
)
def test_hits_match_per_condition_loop(rs, raw_values):
    sample = {f"x{i + 1}": float(v) for i, v in enumerate(raw_values)}
    if any(math.isnan(sample[name]) for name in rs.feature_names):
        with pytest.raises(NonNumericValueError):
            ruleset_hits(rs, sample)
        return
    assert hit_bits(ruleset_hits(rs, sample), rs.n_rules) == _brute_force_hits(rs, sample)


_SAMPLE_COLUMNS = ("x3", "x1", "x5", "x4", "x2")  # no rule reads x5


@settings(max_examples=300, deadline=None)
@given(rulesets(_WIDE_THRESHOLDS, max_conds=4),
       st.lists(st.lists(st.sampled_from(_EDGES + _THRESHOLDS + [math.nan]), min_size=5,
                         max_size=5), min_size=1, max_size=6))
@example(
    parse_ruleset("if x1 > 0 and x2 < 0 then a\nif x3 >= -0.0 and x4 <= 5e-324 then b\n"),
    [[-0.0, math.inf, math.nan, 5e-324, -math.inf], [0.0, -math.inf, 1.0, -0.0, math.inf]],
)
def test_sample_hits_equal_hit_mask_table_rows(rs, rows):
    # ruleset_hits bisects one sample and hit_mask_table searches whole
    # columns; both read the ruleset's one lookup and must agree row for
    # row, and a NaN in a feature some rule reads is an error on both paths.
    samples = [dict(zip(_SAMPLE_COLUMNS, row)) for row in rows]
    nan_rows = [
        i for i, sample in enumerate(samples)
        if any(math.isnan(sample[name]) for name in rs.feature_names)
    ]
    for i in nan_rows:
        with pytest.raises(NonNumericValueError, match="is NaN"):
            ruleset_hits(rs, samples[i])
    X = np.array(rows)
    if nan_rows:
        with pytest.raises(NonNumericValueError, match=f"row {nan_rows[0]}: .* is NaN"):
            rs.hit_mask_table(X, _SAMPLE_COLUMNS)
    keep = [i for i in range(len(rows)) if i not in nan_rows]
    table = rs.hit_mask_table(X[keep], _SAMPLE_COLUMNS)
    assert [hit_bits(ruleset_hits(rs, samples[i]), rs.n_rules) for i in keep] == table.tolist()


@settings(max_examples=60, deadline=None)
@given(rulesets())
def test_text_round_trip_random(rs):
    assert parse_ruleset(format_ruleset(rs)) == rs


@settings(max_examples=40, deadline=None)
@given(rulesets(), st.lists(st.integers(-5, 5), min_size=4, max_size=4), st.randoms())
def test_rule_permutation_permutes_mask(rs, raw_values, rand):
    sample = {f"x{i + 1}": float(v) for i, v in enumerate(raw_values)}
    order = list(range(rs.n_rules))
    rand.shuffle(order)
    permuted = Ruleset(tuple(
        Rule(i + 1, rs.rules[order[i]].premise, rs.rules[order[i]].consequence)
        for i in range(rs.n_rules)
    ))
    base = hit_bits(ruleset_hits(rs, sample), rs.n_rules)
    permuted_hits = hit_bits(ruleset_hits(permuted, sample), rs.n_rules)
    assert permuted_hits == [base[order[i]] for i in range(rs.n_rules)]


def test_mask_table_matches_per_sample_loop(rng, two_rule_set):
    X = rng.normal(2.5, 2.0, size=(40, 2))
    table_mask = two_rule_set.hit_mask_table(X, ("x1", "x2"))
    for i in range(40):
        sample = {"x1": X[i, 0], "x2": X[i, 1]}
        assert list(table_mask[i]) == hit_bits(ruleset_hits(two_rule_set, sample), 2)


# -- the table lookup against the bounds-compare kernel ---------------------
# Tables were once evaluated by comparing every row with each rule's
# compiled bounds, padded to one ``(K, n_rules)`` array each, in row blocks.
# That kernel is the reference the per-feature lookup must reproduce, bit
# for bit; its bounds are built here from ``Condition.bounds()``, apart
# from the lookup's own compile.

def _reference_bounds(rs):
    """``(idx, lo, hi)``, each ``(K, n_rules)``: rule ``j`` hits ``v`` iff every
    ``lo[k, j] <= v[idx[k, j]] <= hi[k, j]``, ``v`` in ``feature_names`` order.

    One merged pair per feature a rule reads, padded to ``K`` with its
    first pair (AND is idempotent).
    """
    position = {name: i for i, name in enumerate(rs.feature_names)}
    merged = []
    for rule in rs.rules:
        pairs = {}
        for cond in rule.premise:
            f, (lo, hi) = position[cond.feature], cond.bounds()
            old_lo, old_hi = pairs.get(f, (lo, hi))
            pairs[f] = (max(old_lo, lo), min(old_hi, hi))
        merged.append([(f, lo, hi) for f, (lo, hi) in pairs.items()])
    width = max(map(len, merged))
    padded = [m + m[:1] * (width - len(m)) for m in merged]
    idx, lo, hi = np.array(padded, dtype=np.float64).reshape(len(padded), width, 3).T
    return idx.astype(np.intp), lo, hi


def _reference_lookup(rs):
    """``Ruleset._lookup`` compiled from ``_reference_bounds``: ``(probes, masks)`` per feature."""
    idx, lo, hi = _reference_bounds(rs)
    lookup = []
    for f in range(len(rs.feature_names)):
        reads = idx == f
        edges = np.unique(np.concatenate([lo[reads], hi[reads], [-np.inf, np.inf]]))
        codes = np.arange(2 * len(edges) + 1)[:, None]
        holds = np.ones((len(codes), rs.n_rules), dtype=bool)
        for k in range(idx.shape[0]):  # a padded slot repeats a pair: AND is idempotent
            first = 2 * np.searchsorted(edges, lo[k]) + 1
            last = 2 * np.searchsorted(edges, hi[k]) + 1
            holds &= ~reads[k] | ((codes >= first) & (codes <= last))
        words = -(-rs.n_rules // 64)
        bits = np.zeros((len(codes), 64 * words), dtype=bool)
        bits[:, : rs.n_rules] = holds
        masks = np.packbits(bits, axis=1, bitorder="little").view("<u8")
        probes = np.empty(2 * len(edges) - 1)
        with np.errstate(over="ignore"):
            probes[0::2], probes[1::2] = edges, np.nextafter(edges[:-1], np.inf)
        lookup.append((probes, masks))
    return lookup


def _reference_hits(V, gather, lo, hi, block_values=1 << 16):
    """(n, n_rules) hits: ``lo[k, j] <= V[i, gather[k, j]] <= hi[k, j]`` for every ``k``.

    Row blocks gather at most ``block_values`` values, slot-major, so each
    comparison runs along a block of rows.
    """
    n, (k, n_rules) = V.shape[0], lo.shape
    out = np.empty((n_rules, n), dtype=bool)
    step = max(1, block_values // max(lo.size, 1))
    slots, lo, hi = gather.ravel(), lo.reshape(-1, 1), hi.reshape(-1, 1)
    for start in range(0, n, step):
        G = V.T[slots, start : start + step]
        hit = (G >= lo) & (G <= hi)
        hit.reshape(k, n_rules, G.shape[1]).all(axis=0, out=out[:, start : start + step])
    return out.T


def _reference_table(rs, X, columns, block_values=1 << 16):
    col_index = {name: i for i, name in enumerate(columns)}
    cols = np.asarray([col_index[name] for name in rs.feature_names], dtype=np.intp)
    idx, lo, hi = _reference_bounds(rs)
    return _reference_hits(X, cols[idx], lo, hi, block_values)


@settings(max_examples=40, deadline=None)
@given(rulesets(_WIDE_THRESHOLDS, max_conds=4), st.integers(1, 120), st.integers(1, 64),
       st.integers(0, 2**32 - 1))
def test_mask_table_of_random_rows_matches_brute_force(rs, n_rows, block_values, seed):
    # A small block cap makes the reference span many blocks, including
    # blocks of one row and a short last block.
    rng = np.random.default_rng(seed)
    pool = np.array(_THRESHOLDS)
    X = np.where(rng.random((n_rows, 4)) < 0.5, rng.choice(pool, (n_rows, 4)),
                 rng.normal(0.0, 3.0, (n_rows, 4)))
    columns = ("x4", "x2", "x1", "x3")
    table = rs.hit_mask_table(X, columns)
    assert table.tolist() == _reference_table(rs, X, columns, block_values).tolist()
    for i in range(n_rows):
        sample = dict(zip(columns, X[i].tolist()))
        assert table[i].tolist() == _brute_force_hits(rs, sample)


def test_mask_table_of_many_rows_matches_brute_force(rng, two_rule_set):
    idx, lo, hi = _reference_bounds(two_rule_set)
    n = 2 * ((1 << 16) // lo.size) + 7  # three reference blocks, the last one short
    X = rng.normal(2.5, 2.0, size=(n, 2))
    table = two_rule_set.hit_mask_table(X, ("x1", "x2"))
    assert table.tolist() == _reference_table(two_rule_set, X, ("x1", "x2")).tolist()
    for i in range(n):
        assert table[i].tolist() == _brute_force_hits(
            two_rule_set, {"x1": X[i, 0], "x2": X[i, 1]}
        )


# Ends shared by many rules, signed zeros, infinities, the largest finite
# floats and subnormals, each with its float neighbours.
_KERNEL_EDGES = sorted({
    e for t in (-_MAX_FLOAT, -2.5, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.0, _MAX_FLOAT,
                math.inf, -math.inf)
    for e in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf))
})


@st.composite
def wide_rulesets(draw):
    """Up to 140 rules over x1..x3, so masks span several bytes and words."""
    ends = st.sampled_from(_KERNEL_EDGES)
    rules = []
    for rid in range(1, draw(st.integers(1, 140)) + 1):
        conds = []
        for _ in range(draw(st.integers(1, 3))):
            feat = draw(st.sampled_from(("x1", "x2", "x3")))
            if draw(st.booleans()):
                lo, hi = sorted((draw(ends), draw(ends)))
                interval = Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))
                conds.append(Condition(feat, "in", interval=interval))
            else:
                conds.append(Condition(feat, draw(st.sampled_from(_OPERATORS)), draw(ends)))
        rules.append(Rule(rid, tuple(conds), "r"))
    return Ruleset(tuple(rules))


@settings(max_examples=150, deadline=None)
@given(wide_rulesets(), st.integers(2, 40), st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(parse_ruleset("".join(f"if x1 > {k} and x2 <= {70 - k} then r\n" for k in range(70))),
         30, 3, 0)
def test_table_lookup_equals_bounds_kernel_and_brute_force(rs, n_rows, n_splits, seed):
    rng = np.random.default_rng(seed)
    columns = ("x3", "x4", "x1", "x2")  # no rule reads x4
    pool = np.array(_KERNEL_EDGES)
    X = np.where(rng.random((n_rows, 4)) < 0.6, rng.choice(pool, (n_rows, 4)),
                 rng.normal(0.0, 40.0, (n_rows, 4)))
    nan_rows = rng.random(n_rows) < 0.2
    X[nan_rows, rng.integers(0, 4, n_rows)[nan_rows]] = math.nan
    read = [columns.index(name) for name in rs.feature_names]
    clean = ~np.isnan(X[:, read]).any(axis=1)
    expected = _reference_table(rs, X[clean], columns)
    table = rs.hit_mask_table(X[clean], columns)
    assert table.tolist() == expected.tolist()
    for row, hits in zip(X[clean], table.tolist()):
        assert hits == _brute_force_hits(rs, dict(zip(columns, row.tolist())))
    # Splits skip the rows holding a NaN a rule reads; those rows are never read.
    rows = rng.permutation(np.flatnonzero(clean))
    n_s = len(rows) // n_splits
    if n_s:
        splits = rows[: n_s * n_splits].reshape(n_splits, n_s)
        counts = hit_matrix(rs, DataTable(columns, X), splits).counts
        full = _reference_table(rs, np.where(np.isnan(X), 0.0, X), columns)
        assert counts.tolist() == full[splits].sum(axis=1).tolist()
    if not clean.all():
        # The error names the lowest table row holding a NaN, wherever the
        # shuffle put it.
        splits = rng.permutation(n_rows).reshape(1, n_rows)
        at = int(np.flatnonzero(~clean)[0])
        with pytest.raises(NonNumericValueError, match=f"^row {at}: feature "):
            hit_matrix(rs, DataTable(columns, X), splits)


@settings(max_examples=150, deadline=None)
@given(wide_rulesets())
@example(parse_ruleset("if x1 > 3 and x1 < 1 and x1 in [0, 5] then a\nif x2 > 1e999 then b\n"
                       "if x1 <= 2 and x1 >= -0.0 and x1 in (0.0, 2] then c\n"))
def test_lookup_equals_the_one_compiled_from_padded_bounds(rs):
    lookup = rs._lookup
    assert len(lookup) == len(rs.feature_names)
    for (probes, masks), (ref_probes, ref_masks) in zip(lookup, _reference_lookup(rs)):
        # Equal as floats: a zero end may carry either sign, which no
        # comparison sees.
        assert probes.tolist() == ref_probes.tolist()
        assert masks.dtype == ref_masks.dtype and masks.tobytes() == ref_masks.tobytes()


def test_table_lookup_repeats_the_sample_lookup():
    # One build serves both: the sample lookup is the table lookup as lists.
    rs = parse_ruleset("if x1 <= -1 and x2 in (1, 3] then a\nif x1 >= 0 then b\n"
                       "if x2 > 1e999 then c\nif x1 in [0, 0] then d\n")
    features, all_rules = rs._sample_lookup
    assert all_rules == 0b1111
    for (name, probes, masks), (table_probes, table_masks) in zip(features, rs._lookup):
        assert probes == table_probes.tolist()
        assert masks == [int.from_bytes(row.tobytes(), "little") for row in table_masks]
    _, x1_probes, x1_masks = features[0]
    assert x1_probes == [-math.inf, -_MAX_FLOAT, -1.0, math.nextafter(-1.0, 0.0), 0.0, 5e-324,
                         math.inf]
    # Code 2i + 1 is edges[i] (-inf, -1, 0, +inf), an even code lies between
    # edges; codes 0 and 8 never occur. Rule c does not read x1.
    assert x1_masks == [0b0100, 0b0101, 0b0101, 0b0101, 0b0100, 0b1110, 0b0110, 0b0110, 0b0100]


def test_lookup_of_the_largest_floats_warns_about_nothing():
    # The successor of the largest finite float is +inf: no overflow
    # warning may reach the CLI's warning relay.
    rs = parse_ruleset(f"if x1 >= {_MAX_FLOAT!r} then a\nif x1 < -{_MAX_FLOAT!r} then b\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = rs.hit_mask_table(np.array([[_MAX_FLOAT], [math.inf], [-_MAX_FLOAT]]), ("x1",))
    assert table.tolist() == [[True, False], [True, False], [False, False]]


def test_merged_pairs_hold_exactly_where_every_condition_holds():
    # Conditions on one feature merge into one pair: a contradiction and
    # x2 > +inf never hit, and x1 <= 2 and x1 >= 0 hits exactly [0, 2].
    rs = parse_ruleset(
        "if x1 > 3 and x1 < 1 then a\n"
        "if x2 > 1e999 then b\n"
        "if x1 <= 2 and x1 >= 0 then c\n"
    )
    (_, x1_masks), (_, x2_masks) = rs._lookup
    assert not (x1_masks & 0b001).any() and not (x2_masks & 0b010).any()
    values = sorted({e for t in (-math.inf, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0, _MAX_FLOAT, math.inf)
                     for e in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf))})
    X = np.array([(v, w) for v in values for w in values])
    table = rs.hit_mask_table(X, ("x1", "x2"))
    assert not table[:, :2].any()
    assert table[:, 2].tolist() == [0.0 <= v <= 2.0 for v in X[:, 0]]
    for row, hits in zip(X.tolist(), table.tolist()):
        assert hits == _brute_force_hits(rs, {"x1": row[0], "x2": row[1]})


# -- the per-feature lookup of ruleset_hits ------------------------------------
# ruleset_hits codes each value by where it falls among its feature's pair
# ends and ANDs one rule bitmask per feature. The examples pin the codes at
# the ends of the float range, on and between edges, at signed zeros and for
# pairs that hold for no value.

_FEATURES = ("x1", "x2", "x3", "x4")


@settings(max_examples=300, deadline=None)
@given(rulesets(_WIDE_THRESHOLDS, max_conds=4),
       st.lists(st.one_of(st.sampled_from(_THRESHOLDS), st.floats(allow_nan=False)),
                min_size=4, max_size=4))
@example(parse_ruleset(f"if x1 < -{_MAX_FLOAT!r} then a\n"), [-math.inf, 0.0, 0.0, 0.0])
@example(parse_ruleset(f"if x1 < -{_MAX_FLOAT!r} then a\n"), [-_MAX_FLOAT, 0.0, 0.0, 0.0])
@example(parse_ruleset(f"if x1 > {_MAX_FLOAT!r} then a\nif x1 >= {_MAX_FLOAT!r} then b\n"),
         [math.inf, 0.0, 0.0, 0.0])
@example(parse_ruleset(f"if x1 > {_MAX_FLOAT!r} then a\nif x1 >= {_MAX_FLOAT!r} then b\n"),
         [_MAX_FLOAT, 0.0, 0.0, 0.0])
@example(parse_ruleset("if x1 > 1e999 then a\nif x1 < -1e999 then b\nif x2 <= 1e999 then c\n"),
         [math.inf, -math.inf, math.inf, 0.0])
@example(parse_ruleset("if x1 > 1e999 then a\nif x1 < -1e999 then b\nif x2 <= 1e999 then c\n"),
         [-math.inf, math.inf, -math.inf, 0.0])
@example(parse_ruleset("if x1 > 3 and x1 < 1 then a\nif x1 in [1, 3] then b\n"),
         [2.0, 0.0, 0.0, 0.0])
@example(parse_ruleset("if x1 < 0 then a\nif x1 <= -0.0 then b\nif x1 > 0.0 then c\n"
                       "if x1 == -0.0 then d\n"), [-0.0, 0.0, 0.0, 0.0])
@example(parse_ruleset("if x1 < 0 then a\nif x1 <= -0.0 then b\nif x1 > 0.0 then c\n"
                       "if x1 == -0.0 then d\n"), [0.0, 0.0, 0.0, 0.0])
@example(parse_ruleset("if x1 < 0 then a\nif x1 <= -0.0 then b\nif x1 > 0.0 then c\n"
                       "if x1 == -0.0 then d\n"), [5e-324, 0.0, 0.0, 0.0])
@example(parse_ruleset("if x1 < 0 then a\nif x1 <= -0.0 then b\nif x1 > 0.0 then c\n"
                       "if x1 == -0.0 then d\n"), [-5e-324, 0.0, 0.0, 0.0])
@example(parse_ruleset("if x1 in (1, 2) then a\nif x1 in [1, 2] then b\nif x2 > 1 then c\n"),
         [1.0, 1.0, 0.0, 0.0])
@example(parse_ruleset("if x1 in (1, 2) then a\nif x1 in [1, 2] then b\nif x2 > 1 then c\n"),
         [1.5, math.nextafter(1.0, math.inf), 0.0, 0.0])
@example(parse_ruleset("if x1 in (1, 2) then a\nif x1 in [1, 2] then b\nif x2 > 1 then c\n"),
         [math.nextafter(2.0, math.inf), 2.0, 0.0, 0.0])
def test_sample_lookup_matches_oracle_and_table_row(rs, values):
    sample = dict(zip(_FEATURES, values))
    hits = hit_bits(ruleset_hits(rs, sample), rs.n_rules)
    assert hits == _brute_force_hits(rs, sample)
    assert hits == rs.hit_mask_table(np.array([values]), _FEATURES)[0].tolist()


@pytest.mark.parametrize("n_rules", [1, 7, 8, 9, 16, 17, 64, 65, 130])
def test_sample_lookup_spans_mask_bytes(n_rules):
    # Rule k reads x1 > k and x2 <= n_rules - k, so hits run across every
    # byte of the bitmask, including a short last byte.
    rs = parse_ruleset("".join(
        f"if x1 > {k} and x2 <= {n_rules - k} then r\n" for k in range(n_rules)
    ))
    for x1 in (-1.0, 0.0, 0.5, n_rules / 2, n_rules - 1.0, float(n_rules)):
        for x2 in (0.0, n_rules / 3, float(n_rules), math.inf):
            sample = {"x1": x1, "x2": x2}
            assert hit_bits(ruleset_hits(rs, sample), n_rules) == _brute_force_hits(rs, sample)


# Thresholds where float64 rounds integers above 2**53 and float32 values.
_ROUNDING_THRESHOLDS = st.one_of(
    st.sampled_from([float(2**53), float(2**53 + 2), 2.0**63, -(2.0**63), 2.0**64,
                     0.1, float(np.float32(0.1)), -1.5, 0.0]),
    st.integers(-(2**64), 2**64).map(float),
    st.floats(width=32, allow_nan=False).map(float),
)
_OTHER_NUMBERS = st.one_of(
    st.integers(2**53 - 4, 2**64 + 4),
    st.integers(-(2**64) - 4, -(2**53) + 4),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32, allow_nan=False).map(np.float32),
)


@settings(max_examples=300, deadline=None)
@given(rulesets(_ROUNDING_THRESHOLDS, max_conds=3),
       st.lists(_OTHER_NUMBERS, min_size=4, max_size=4))
@example(parse_ruleset("if x1 > 9007199254740992 then a\nif x1 == 9007199254740992 then b\n"),
         [2**53 + 1, 0, 0, 0])
@example(parse_ruleset("if x1 == 0.1 then a\nif x1 > 0.1 then b\n"),
         [np.float32(0.1), np.int64(0), 0, 0])
def test_sample_hits_of_ints_and_narrow_floats_equal_hits_of_their_float(rs, values):
    # Today's np.array(..., float64) conversion is float(); the lookup must
    # see the same values as the table kernel does.
    sample = dict(zip(_FEATURES, values))
    as_float = [float(v) for v in values]
    hits = ruleset_hits(rs, sample)
    assert hits == ruleset_hits(rs, dict(zip(_FEATURES, as_float)))
    table_row = rs.hit_mask_table(np.array([as_float]), _FEATURES)[0]
    assert hit_bits(hits, rs.n_rules) == table_row.tolist()


# A Python float skips the type checks; every other number is checked and
# compared as float(value), so each must hit exactly where its float does.
_NUMBERS_OF_EVERY_TYPE = st.one_of(
    st.floats(allow_nan=False),
    st.integers(-(2**64), 2**64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
)


@settings(max_examples=300, deadline=None)
@given(rulesets(_WIDE_THRESHOLDS, max_conds=4),
       st.lists(_NUMBERS_OF_EVERY_TYPE, min_size=4, max_size=4))
@example(parse_ruleset("if x1 <= 0 and x2 > 0.5 then a\nif x3 == 2 and x4 >= -1 then b\n"),
         [0, np.float32(0.5), np.float64(2.0), np.int64(-1)])
def test_float_fast_path_hits_like_every_other_number_type(rs, values):
    sample = dict(zip(_FEATURES, values))
    as_float = {name: float(v) for name, v in sample.items()}
    hits = ruleset_hits(rs, sample)
    assert hits == ruleset_hits(rs, as_float)
    assert hit_bits(hits, rs.n_rules) == _brute_force_hits(rs, as_float)


@pytest.mark.parametrize("x1, x2, error, message", [
    (3.0, True, NonNumericValueError, "feature 'x2' has non-numeric value True"),
    (3.0, False, NonNumericValueError, "feature 'x2' has non-numeric value False"),
    (3.0, "0.7", NonNumericValueError, "feature 'x2' has non-numeric value '0.7'"),
    (3.0, math.nan, NonNumericValueError, "feature 'x2' is NaN"),
    (3.0, np.float32("nan"), NonNumericValueError, "feature 'x2' is NaN"),
    (3.0, np.float64("nan"), NonNumericValueError, "feature 'x2' is NaN"),
    # A NaN is reported after every feature has been read, so a later
    # missing or non-numeric feature is the error; the first NaN is named.
    (math.nan, "high", NonNumericValueError, "feature 'x2' has non-numeric value 'high'"),
    (math.nan, None, MissingFeatureError, "sample is missing feature 'x2'"),
    (np.float32("nan"), math.nan, NonNumericValueError, "feature 'x1' is NaN"),
    ("high", math.nan, NonNumericValueError, "feature 'x1' has non-numeric value 'high'"),
    (True, None, NonNumericValueError, "feature 'x1' has non-numeric value True"),
])
def test_sample_checks_keep_their_order_and_messages(two_rule_set, x1, x2, error, message):
    sample = {"x1": x1} if x2 is None else {"x1": x1, "x2": x2}
    with pytest.raises(error) as exc:
        ruleset_hits(two_rule_set, sample)
    assert str(exc.value) == message


# -- agreement with the token-based parser -----------------------------------
# The tokenizer and recursive-descent line parser that the anchored patterns
# in rulewatch.rules replaced, kept verbatim as the reference.

_KEYWORDS = frozenset({"if", "and", "then", "in"})

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<cmp><=|>=|==|<|>)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)
      | (?P<lbracket>[\[\(])
      | (?P<rbracket>[\]\)])
      | (?P<comma>,)
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    text: str
    column: int


def _tokenize(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind = m.lastgroup
        if kind != "ws":
            tok_text = m.group()
            if kind == "ident" and tok_text.lower() in _KEYWORDS:
                kind = tok_text.lower()
            tokens.append(_Token(kind, tok_text, m.start() + 1))
        pos = m.end()
    return tokens


class _LineParser:
    def __init__(self, tokens: list[_Token], line_no: int, line_len: int):
        self.tokens = tokens
        self.line_no = line_no
        self.line_len = line_len
        self.pos = 0

    def _fail(self, message: str) -> None:
        col = self.tokens[self.pos].column if self.pos < len(self.tokens) else self.line_len + 1
        raise RuleSyntaxError(message, self.line_no, col)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            got = f"{tok.text!r}" if tok else "end of line"
            self._fail(f"expected {what}, got {got}")
        self.pos += 1
        return tok

    def parse_rule(self, rule_id: int) -> Rule:
        self.expect("if", "'if'")
        tok = self.peek()
        if tok is not None and tok.kind == "then":
            self._fail("empty premise: expected at least one condition")
        conditions = [self.parse_condition()]
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "and":
                self.pos += 1
                conditions.append(self.parse_condition())
            else:
                break
        self.expect("then", "'and' or 'then'")
        label = self.expect_label()
        if self.peek() is not None:
            self._fail(f"unexpected trailing token {self.peek().text!r}")
        return Rule(id=rule_id, premise=tuple(conditions), consequence=label)

    def expect_label(self) -> str:
        tok = self.peek()
        if tok is None:
            self._fail("expected class label after 'then'")
        if tok.kind not in ("ident", "number"):
            self._fail(f"expected class label, got {tok.text!r}")
        self.pos += 1
        return tok.text

    def parse_condition(self) -> Condition:
        feat = self.expect("ident", "feature name")
        tok = self.peek()
        if tok is None:
            self._fail("expected comparison or 'in' after feature name")
        if tok.kind == "cmp":
            self.pos += 1
            num = self.expect("number", "numeric threshold")
            return Condition(feature=feat.text, operator=tok.text, threshold=float(num.text))
        if tok.kind == "in":
            self.pos += 1
            lb = self.expect("lbracket", "'[' or '('")
            lo = self.expect("number", "interval lower bound")
            self.expect("comma", "','")
            hi = self.expect("number", "interval upper bound")
            rb = self.expect("rbracket", "']' or ')'")
            lo_v, hi_v = float(lo.text), float(hi.text)
            if lo_v > hi_v:
                raise RuleSyntaxError(
                    f"malformed interval: lower bound {lo.text} exceeds upper bound {hi.text}",
                    self.line_no,
                    lo.column,
                )
            interval = Interval(lo_v, hi_v, lb.text == "[", rb.text == "]")
            return Condition(feature=feat.text, operator="in", interval=interval)
        self._fail(f"expected comparison or 'in', got {tok.text!r}")


def _reference_parse_ruleset(text: str) -> Ruleset:
    rules: list[Rule] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = _tokenize(line, line_no)
        parser = _LineParser(tokens, line_no, len(line))
        rules.append(parser.parse_rule(len(rules) + 1))
    return Ruleset(tuple(rules))


def _cased(word):
    return st.sampled_from((word, word.upper(), word.capitalize(), word[:-1] + word[-1].upper()))


_NAMES = st.sampled_from((
    "x1", "d", "_z", "a.b", "f-1", "e", "E", "n9", "t_", "x.in", "and-1", "x1", "d", "e",
    "iff", "ifx", "inx", "index", "thenx", "andy", "in", "IF", "Then",
))
_NUMBERS = st.sampled_from((
    "0", "-1", "3.2", "+.5", "5.", "1e5", "-2E-3", "1e999", "-1e999", "-0.0", "12", ".25",
    "7.e+1", "+12.5e-2", "5e-324", "1.7976931348623157e+308", "-2.4010675246480174e-119",
))
# Mutation fragments: keywords glued to names and numbers, stray characters,
# letters that equal a keyword only under Unicode case folding and a
# non-ASCII digit.
_FRAGMENTS = ("dIN[0,1]", "xin(", "3.2and", "1e5then", "then1", "index", "+.5", "5.", "7.5e",
          "-", "=", "!", ",", "(", "]", "ın", "İf", "١")


@st.composite
def _condition_tokens(draw):
    name = draw(_NAMES)
    if draw(st.booleans()):
        return [name, draw(st.sampled_from(("<", "<=", ">", ">=", "=="))), draw(_NUMBERS)]
    return [name, draw(_cased("in")), draw(st.sampled_from("[(")), draw(_NUMBERS), ",",
            draw(_NUMBERS), draw(st.sampled_from("])"))]


@st.composite
def _rule_line(draw):
    tokens = [draw(_cased("if")), *draw(_condition_tokens())]
    for _ in range(draw(st.integers(0, 2))):
        tokens += [draw(_cased("and")), *draw(_condition_tokens())]
    tokens += [draw(_cased("then")), draw(st.one_of(_NAMES, _NUMBERS))]
    pool = st.one_of(st.sampled_from(_FRAGMENTS), _NAMES, _NUMBERS,
                     st.sampled_from(("if", "AND", "Then", "in", "<=", "[", ")")))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2, 3)))):
        i = draw(st.integers(0, len(tokens)))
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        if kind == "insert":
            tokens.insert(i, draw(pool))
        elif i < len(tokens):
            tokens[i : i + 1] = [] if kind == "delete" else [draw(pool)]
    separators = st.sampled_from(("", " ", " ", " ", " ", " ", " ", "  ", "\t"))
    return "".join(tok + draw(separators) for tok in tokens)


def _outcome(parse, text):
    try:
        return parse(text)
    except RuleError as exc:
        return type(exc), getattr(exc, "line", None)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.one_of(_rule_line(), st.sampled_from(("", "# note", "  "))),
                min_size=1, max_size=2).map("\n".join))
@example("if dIN[0,1] then a")
@example("if xin (0, 1] then a")
@example("if then 1")
@example("if d in [5, 1] then bad")
@example("if x ın [0, 1] then a\nİF x < 1 then b")
@example("IF x<1e5then+.5\nif x <= 1ethen a")
def test_parser_agrees_with_token_parser(text):
    assert _outcome(parse_ruleset, text) == _outcome(_reference_parse_ruleset, text)
