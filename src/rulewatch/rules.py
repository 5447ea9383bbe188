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

Tables (``Ruleset.hit_mask_table``, ``Ruleset.hit_counts``) and single
samples (``ruleset_hits``) go through one per-feature lookup, compiled once
per ruleset from each rule's conditions on that feature, merged into one
closed pair ``lo <= v <= hi`` (``Condition.bounds()``); ``v > t`` becomes
``v >= nextafter(t, +inf)``, exact for every non-NaN float64. Each value is
coded by where it falls among its feature's sorted pair ends, and the code
indexes a bitmask of the rules that hold there: a row's hits are the AND of
one bitmask per feature. A table codes each feature column with one
``np.searchsorted`` and ANDs packed uint64 masks; a sample bisects Python
lists and ANDs Python ints, and its hits are that one int (bit ``j - 1``
for rule ``j``). Before any rule runs, the input must hold every feature
some rule uses (else ``MissingFeatureError``) as a non-NaN, non-bool number
(else ``NonNumericValueError``, naming a table's lowest such row, 0-based);
other fields are ignored. Each sample value is compared as
``float(value)``, the float64 a table would hold.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_right
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
    def _lookup(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The premises compiled per feature, in ``feature_names`` order: ``(probes, masks)``.

        Each rule reads a feature through one closed pair ``lo <= v <= hi``,
        its conditions' ``Condition.bounds()`` merged (the largest ``lo``,
        the smallest ``hi``). A feature's ``edges`` are the sorted distinct
        ends of its pairs with -inf and +inf. A non-NaN ``v`` gets the code
        ``bisect_left(edges, v) + bisect_right(edges, v)``, which is ``2i +
        1`` when ``v == edges[i]`` and even between edges; so ``lo <= v <=
        hi`` iff the code lies in ``[2 index(lo) + 1, 2 index(hi) + 1]``
        (empty for the pair ``(inf, -inf)``). ``probes`` puts
        ``nextafter(edge, +inf)`` after each edge but +inf, so the code is
        also the one search ``searchsorted(probes, v, side="right")``. Row
        ``code`` of ``masks`` holds one bit per rule, little-endian in
        uint64 words (rule ``j + 1`` is bit ``j % 64`` of word ``j // 64``),
        set where the rule's pair holds or where the rule does not read the
        feature.
        """
        pairs: dict[str, dict[int, tuple[float, float]]] = {}
        for j, rule in enumerate(self.rules):
            for cond in rule.premise:
                lo, hi = cond.bounds()
                merged = pairs.setdefault(cond.feature, {})
                old_lo, old_hi = merged.get(j, (lo, hi))
                merged[j] = (max(old_lo, lo), min(old_hi, hi))
        n_rules = self.n_rules
        lookup = []
        for name in self.feature_names:
            readers = np.fromiter(pairs[name], dtype=np.intp)
            lo, hi = np.array(list(pairs[name].values())).T
            edges = np.unique(np.concatenate([lo, hi, [-np.inf, np.inf]]))
            first = 2 * np.searchsorted(edges, lo) + 1
            last = 2 * np.searchsorted(edges, hi) + 1
            codes = np.arange(2 * len(edges) + 1)[:, None]
            holds = np.ones((len(codes), n_rules), dtype=bool)
            holds[:, readers] = (codes >= first) & (codes <= last)
            masks = np.zeros((len(codes), -(-n_rules // 64) * 8), dtype=np.uint8)
            masks[:, : -(-n_rules // 8)] = np.packbits(holds, axis=1, bitorder="little")
            probes = np.empty(2 * len(edges) - 1)
            with np.errstate(over="ignore"):  # the largest float's successor is +inf
                probes[0::2], probes[1::2] = edges, np.nextafter(edges[:-1], np.inf)
            masks = masks.view("<u8")
            probes.setflags(write=False)
            masks.setflags(write=False)
            lookup.append((probes, masks))
        return tuple(lookup)

    @cached_property
    def _sample_lookup(self) -> tuple[tuple[tuple[str, list[float], list[int]], ...], int]:
        """``_lookup`` as Python lists for one sample: ``(features, all_rules)``.

        Each feature gets ``(name, probes, masks)``, each mask one int; a
        sample's hits are ``all_rules`` ANDed with
        ``masks[bisect_right(probes, v)]`` for each feature.
        """
        features = tuple(
            (name, probes.tolist(), [int.from_bytes(row.tobytes(), "little") for row in masks])
            for name, (probes, masks) in zip(self.feature_names, self._lookup)
        )
        return features, (1 << self.n_rules) - 1

    def _packed_hits(self, X: np.ndarray, columns: Sequence[str], rows: np.ndarray) -> np.ndarray:
        """Hits of the rows of ``X`` that the index array ``rows`` lists, in its order.

        Returns ``(len(rows), words)`` packed as ``_lookup``'s masks are.
        Only the listed rows are read. A NaN in a feature some rule reads is
        an error naming the lowest such row of ``X`` and its feature.
        """
        col_index = {name: i for i, name in enumerate(columns)}
        missing = [name for name in self.feature_names if name not in col_index]
        if missing:
            raise MissingFeatureError(f"feature {missing[0]!r} not in columns {list(columns)}")
        hits, nan = None, None
        for name, (probes, masks) in zip(self.feature_names, self._lookup):
            values = X[rows, col_index[name]]
            is_nan = np.isnan(values)
            if is_nan.any():
                row = int(rows[is_nan].min())
                if nan is None or row < nan[0]:
                    nan = (row, name)
            if nan is None:
                found = masks.take(np.searchsorted(probes, values, side="right"), axis=0)
                if hits is None:
                    hits = found
                else:
                    hits &= found
        if nan is not None:
            raise NonNumericValueError(f"row {nan[0]}: feature {nan[1]!r} is NaN")
        return hits

    def hit_mask_table(self, X: np.ndarray, columns: Sequence[str]) -> np.ndarray:
        """Boolean hit table of shape (n_samples, n_rules) for a feature matrix."""
        hits = self._packed_hits(X, columns, np.arange(len(X))).view(np.uint8)
        return np.unpackbits(hits, axis=1, count=self.n_rules, bitorder="little").view(bool)

    def hit_counts(self, X: np.ndarray, columns: Sequence[str], splits: np.ndarray) -> np.ndarray:
        """Per-rule hit counts, int64 ``(n_splits, n_rules)``: one row per row of ``splits``.

        A row of ``splits`` lists row indices of ``X``; only those rows are
        read. Every split is counted in one pass: one ``np.bincount`` per
        mask byte, keyed by split, times the bits of each byte value.
        """
        hits = self._packed_hits(X, columns, splits.ravel()).view(np.uint8)
        n_splits, split_size = splits.shape
        n_bytes = -(-self.n_rules // 8)
        keys = np.repeat(np.arange(n_splits) * 256, split_size)
        hist = np.empty((n_splits, n_bytes, 256), dtype=np.int64)
        for b in range(n_bytes):
            hist[:, b] = np.bincount(keys + hits[:, b], minlength=256 * n_splits).reshape(-1, 256)
        return (hist @ _BYTE_BITS).reshape(n_splits, 8 * n_bytes)[:, : self.n_rules]


# Row ``b`` holds the bits of the byte value ``b``, lowest first.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int64)


# What a sample value may be; a bool is an int but no number here.
_NUMBERS = (int, float, np.integer, np.floating)


def ruleset_hits(ruleset: Ruleset, sample: Mapping[str, float]) -> int:
    """Per-rule premise hits of one sample as a bitmask: bit ``j - 1`` is set iff rule ``j`` hits.

    Consequences are ignored; any number of rules may hit.
    """
    features, hits = ruleset._sample_lookup
    nan = None
    for name, probes, masks in features:
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
        hits &= masks[bisect_right(probes, value)]
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
