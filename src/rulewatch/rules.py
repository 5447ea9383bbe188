"""Conjunctive if-then rules over named numeric features.

A ruleset is an ordered list of rules; rule order is load-bearing because
downstream hit histograms are indexed by rule position. The text syntax is
one rule per line, ``if COND (and COND)* then LABEL``::

    # comment
    if x1 <= 3.2 and x2 > 0.5 then 1
    if d in [0, 0.4] then safe

Four anchored patterns read a line in turn: ``if``, one condition, ``and``
or ``then``, the label. Names are ``[A-Za-z_][A-Za-z0-9_.-]*``; numbers are
decimal with an optional sign and exponent; keywords (``if and then in``)
are ASCII case-insensitive and are never names or labels; a label is a name
or a number; whitespace between tokens is optional. Thresholds are compared
with exact binary floating-point semantics, so hit counts are deterministic
for a given ruleset text.

Tables (``Ruleset.hit_mask_table``, through the row-block kernel ``_hits``)
and single samples (``ruleset_hits``) are evaluated against the same closed
bounds ``lo <= v <= hi``, compiled once per ruleset (``Ruleset.bounds``);
``v > t`` becomes ``v >= nextafter(t, +inf)``, exact for every non-NaN
float64. A single sample goes through a per-feature lookup compiled from
those bounds on the first ``ruleset_hits`` call: each value is placed among
its feature's sorted pair ends by two bisections, which index a bitmask of
the rules that hold there, and the sample's hits are the AND of one
bitmask per feature, returned as that one int (bit ``j - 1`` for rule
``j``). Before any rule runs, the input must hold every feature some rule
uses (else ``MissingFeatureError``) as a non-NaN, non-bool number (else
``NonNumericValueError``); other fields are ignored. Each value is
compared as ``float(value)``, the float64 a table would hold.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np


class RuleError(ValueError):
    """Base class for ruleset construction and evaluation failures."""


class RuleSyntaxError(RuleError):
    """Rule text that does not conform to the grammar."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class MissingFeatureError(RuleError):
    """A premise references a feature absent from the evaluated sample."""


class NonNumericValueError(RuleError):
    """A premise feature resolved to a non-numeric value."""


_COMPARATORS = ("<=", "<", ">=", ">", "==")


@dataclass(frozen=True)
class Interval:
    """Numeric interval with independently open/closed endpoints."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise RuleError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")

    def to_text(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{_format_number(self.lo)}, {_format_number(self.hi)}{rb}"


@dataclass(frozen=True)
class Condition:
    """Single comparison on one feature.

    ``operator`` is one of ``<, <=, >, >=, ==, in``; ``interval`` is used
    only by ``in`` and ``threshold`` by everything else.
    """

    feature: str
    operator: str
    threshold: float = 0.0
    interval: Interval | None = None

    def __post_init__(self) -> None:
        if self.operator == "in":
            if self.interval is None:
                raise RuleError("'in' condition requires an interval")
        elif self.operator not in _COMPARATORS:
            raise RuleError(f"unknown operator {self.operator!r}")
        elif math.isnan(self.threshold):
            raise RuleError(f"condition on {self.feature!r} has a NaN threshold")

    def bounds(self) -> tuple[float, float]:
        """Closed ``(lo, hi)``: the condition holds on a non-NaN ``v`` iff ``lo <= v <= hi``."""
        op, t, iv = self.operator, self.threshold, self.interval
        if op == "in":
            lo, lo_open, hi, hi_open = iv.lo, not iv.lo_closed, iv.hi, not iv.hi_closed
        else:  # a comparison is an interval with an infinite end
            lo = -math.inf if op in ("<", "<=") else t
            hi = math.inf if op in (">", ">=") else t
            lo_open, hi_open = op == ">", op == "<"
        if (lo_open and lo == math.inf) or (hi_open and hi == -math.inf):
            return math.inf, -math.inf  # holds for no value
        return (math.nextafter(lo, math.inf) if lo_open else lo,
                math.nextafter(hi, -math.inf) if hi_open else hi)

    def to_text(self) -> str:
        if self.operator == "in":
            return f"{self.feature} in {self.interval.to_text()}"
        return f"{self.feature} {self.operator} {_format_number(self.threshold)}"


@dataclass(frozen=True)
class Rule:
    """One if-then rule: a non-empty conjunction of conditions and a label."""

    id: int
    premise: tuple[Condition, ...]
    consequence: str

    def __post_init__(self) -> None:
        if len(self.premise) == 0:
            raise RuleError(f"rule {self.id}: empty premise")

    def to_text(self) -> str:
        conds = " and ".join(c.to_text() for c in self.premise)
        return f"if {conds} then {self.consequence}"


@dataclass(frozen=True)
class Ruleset:
    """Ordered, immutable, nonempty collection of rules; ids must run 1..N."""

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise RuleError("ruleset has no rules")
        ids = [r.id for r in self.rules]
        if ids != list(range(1, len(ids) + 1)):
            raise RuleError(f"rule ids must be contiguous 1..{len(ids)}, got {ids}")

    @property
    def n_rules(self) -> int:
        return len(self.rules)

    @cached_property
    def feature_names(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for rule in self.rules:
            for cond in rule.premise:
                seen.setdefault(cond.feature, None)
        return tuple(seen)

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compiled premises: read-only ``(idx, lo, hi)``, each ``(K, n_rules)``.

        Rule ``j`` hits a row ``v`` (in ``feature_names`` order) iff
        ``lo[:, j] <= v[idx[:, j]] <= hi[:, j]``: one merged pair per feature
        it uses, padded to ``K`` with its first pair (AND is idempotent).
        """
        position = {name: i for i, name in enumerate(self.feature_names)}
        merged = []
        for rule in self.rules:
            pairs: dict[int, tuple[float, float]] = {}
            for cond in rule.premise:
                f, (lo, hi) = position[cond.feature], cond.bounds()
                old_lo, old_hi = pairs.get(f, (lo, hi))
                pairs[f] = (max(old_lo, lo), min(old_hi, hi))
            merged.append([(f, lo, hi) for f, (lo, hi) in pairs.items()])
        width = max(map(len, merged), default=0)
        padded = [m + m[:1] * (width - len(m)) for m in merged]
        idx, lo, hi = np.array(padded, dtype=np.float64).reshape(len(padded), width, 3).T
        arrays = (idx.astype(np.intp), lo.copy(), hi.copy())
        for a in arrays:
            a.setflags(write=False)
        return arrays

    @cached_property
    def _sample_lookup(self) -> tuple[tuple[tuple[str, list[float], list[int]], ...], int]:
        """``bounds`` compiled for one sample: ``(features, all_rules)``.

        Built on the first ``ruleset_hits`` call, in plain Python. Each
        feature gets ``(name, edges, masks)``: ``edges`` are the sorted
        distinct ends of its pairs with -inf and +inf, and a non-NaN ``v``
        gets the code ``bisect_left(edges, v) + bisect_right(edges, v)``,
        which is ``2i + 1`` when ``v == edges[i]`` and even between edges.
        So ``lo <= v <= hi`` iff the code lies in ``[2 index(lo) + 1,
        2 index(hi) + 1]`` (empty for the pair ``(inf, -inf)``), and
        ``masks[code]`` sets bit ``j`` for each rule ``j + 1`` whose pair
        holds there or that does not read the feature. A sample's hits are
        the AND of one mask per feature, starting from ``all_rules``.
        """
        idx, lo, hi = (a.T.tolist() for a in self.bounds)
        pairs: list[dict[int, tuple[float, float]]] = [{} for _ in self.feature_names]
        for j in range(self.n_rules):
            for f, rule_lo, rule_hi in zip(idx[j], lo[j], hi[j]):
                pairs[f][j] = (rule_lo, rule_hi)
        all_rules = (1 << self.n_rules) - 1
        features = []
        for name, rule_pairs in zip(self.feature_names, pairs):
            # A set holds one of -0.0 and 0.0, and a dict finds either by the other.
            ends = (end for pair in rule_pairs.values() for end in pair)
            edges = sorted({-math.inf, math.inf, *ends})
            position = {e: i for i, e in enumerate(edges)}
            unread = all_rules & ~sum(1 << j for j in rule_pairs)
            masks = [unread] * (2 * len(edges) + 1)
            for j, (rule_lo, rule_hi) in rule_pairs.items():
                for code in range(2 * position[rule_lo] + 1, 2 * position[rule_hi] + 2):
                    masks[code] |= 1 << j
            features.append((name, edges, masks))
        return tuple(features), all_rules

    def hit_mask_table(self, X: np.ndarray, columns: Sequence[str]) -> np.ndarray:
        """Boolean hit table of shape (n_samples, n_rules) for a feature matrix."""
        col_index = {name: i for i, name in enumerate(columns)}
        missing = [name for name in self.feature_names if name not in col_index]
        if missing:
            raise MissingFeatureError(f"feature {missing[0]!r} not in columns {list(columns)}")
        cols = [col_index[name] for name in self.feature_names]
        if np.isnan(X).any() and np.isnan(X[:, cols]).any():
            row, f = np.argwhere(np.isnan(X[:, cols]))[0]
            raise NonNumericValueError(f"row {row}: feature {self.feature_names[f]!r} is NaN")
        idx, lo, hi = self.bounds
        return _hits(X, np.asarray(cols, dtype=np.intp)[idx], lo, hi)


_BLOCK_VALUES = 1 << 16  # upper bound on the values gathered per kernel block


def _hits(V: np.ndarray, gather: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(n, n_rules) hits: ``lo[k, j] <= V[i, gather[k, j]] <= hi[k, j]`` for every ``k``.

    Row blocks gather at most ``_BLOCK_VALUES`` values, slot-major, so each
    comparison runs along a block of rows.
    """
    n, (k, n_rules) = V.shape[0], lo.shape
    out = np.empty((n_rules, n), dtype=bool)
    step = max(1, _BLOCK_VALUES // max(lo.size, 1))
    slots, lo, hi = gather.ravel(), lo.reshape(-1, 1), hi.reshape(-1, 1)
    for start in range(0, n, step):
        G = V.T[slots, start : start + step]
        hit = (G >= lo) & (G <= hi)
        hit.reshape(k, n_rules, G.shape[1]).all(axis=0, out=out[:, start : start + step])
    return out.T


# What a sample value may be; a bool is an int but no number here.
_NUMBERS = (int, float, np.integer, np.floating)


def ruleset_hits(ruleset: Ruleset, sample: Mapping[str, float]) -> int:
    """Per-rule premise hits of one sample as a bitmask: bit ``j - 1`` is set iff rule ``j`` hits.

    Consequences are ignored; any number of rules may hit.
    """
    features, hits = ruleset._sample_lookup
    nan = None
    for name, edges, masks in features:
        try:
            value = sample[name]
        except KeyError:
            raise MissingFeatureError(f"sample is missing feature {name!r}") from None
        if type(value) is not float:
            if isinstance(value, bool) or not isinstance(value, _NUMBERS):
                raise NonNumericValueError(f"feature {name!r} has non-numeric value {value!r}")
            value = float(value)
        if value != value:  # NaN, and only NaN, differs from itself
            if nan is None:
                nan = name
            continue
        hits &= masks[bisect_left(edges, value) + bisect_right(edges, value)]
    if nan is not None:
        raise NonNumericValueError(f"feature {nan!r} is NaN")
    return hits


# ---------------------------------------------------------------------------
# Text syntax
# ---------------------------------------------------------------------------

# Each name and keyword ends at _WORD_END, so backtracking cannot split one
# word in two (``dIN`` stays a name, not ``d in``); possessive quantifiers
# would need Python 3.11. Keywords fold ASCII case only: ``ın`` is no ``in``.
_WORD_END = r"(?![A-Za-z0-9_.\-])"
_KEYWORD = rf"(?ai:if|and|then|in){_WORD_END}"
_NAME = rf"(?!{_KEYWORD})[A-Za-z_][A-Za-z0-9_.\-]*{_WORD_END}"
_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"

_IF = re.compile(rf"\s*(?ai:if){_WORD_END}\s*")
_CONDITION = re.compile(
    rf"(?P<feature>{_NAME})\s*(?:(?P<op>{'|'.join(_COMPARATORS)})\s*(?P<threshold>{_NUMBER})"
    rf"|(?ai:in){_WORD_END}\s*(?P<lb>[\[(])\s*(?P<lo>{_NUMBER})\s*,"
    rf"\s*(?P<hi>{_NUMBER})\s*(?P<rb>[\])]))\s*"
)
_AND_OR_THEN = re.compile(rf"(?ai:(?P<and>and)|then){_WORD_END}\s*")
_LABEL = re.compile(rf"(?:{_NAME}|{_NUMBER})\Z")


def _expect(pattern: re.Pattern, line: str, pos: int, what: str, line_no: int) -> re.Match:
    """``pattern`` matched at ``pos``, else a syntax error naming ``what``."""
    m = pattern.match(line, pos)
    if m is None:
        rest = line[pos:].lstrip()
        got = repr(rest) if rest else "end of line"
        raise RuleSyntaxError(f"expected {what}, got {got}", line_no, len(line) - len(rest) + 1)
    return m


def _parse_rule(line: str, line_no: int, rule_id: int) -> Rule:
    """One ``if COND (and COND)* then LABEL`` line, matched left to right."""
    pos = _expect(_IF, line, 0, "'if'", line_no).end()
    conditions, more = [], True
    while more:
        cond = _expect(_CONDITION, line, pos, "a condition", line_no)
        conditions.append(_condition(cond, line_no))
        m = _expect(_AND_OR_THEN, line, cond.end(), "'and' or 'then'", line_no)
        pos, more = m.end(), m["and"] is not None
    label = _expect(_LABEL, line, pos, "a class label ending the line", line_no)
    return Rule(id=rule_id, premise=tuple(conditions), consequence=label.group())


def _condition(m: re.Match, line_no: int) -> Condition:
    if m["op"]:
        return Condition(m["feature"], m["op"], float(m["threshold"]))
    lo, hi = float(m["lo"]), float(m["hi"])
    if lo > hi:
        raise RuleSyntaxError(
            f"malformed interval: lower bound {m['lo']} exceeds upper bound {m['hi']}",
            line_no, m.start("lo") + 1,
        )
    interval = Interval(lo, hi, m["lb"] == "[", m["rb"] == "]")
    return Condition(m["feature"], "in", interval=interval)


def parse_ruleset(text: str) -> Ruleset:
    """Parse ruleset text; rules are numbered 1..N in textual order."""
    rules: list[Rule] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line:
            rules.append(_parse_rule(line, line_no, len(rules) + 1))
    return Ruleset(tuple(rules))


def format_ruleset(ruleset: Ruleset) -> str:
    """Canonical one-line-per-rule text; parse(format(r)) equals r."""
    return "\n".join(rule.to_text() for rule in ruleset.rules) + "\n"


def _format_number(x: float) -> str:
    return repr(float(x))
