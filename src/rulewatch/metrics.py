"""Histogram-comparison metrics.

Two families:

* Single-split metrics between hit-count vectors: the l1 and l2 norms and
  the value-frequency information metrics. ``SplitScorer`` scores one
  operational count vector against every row of a training count matrix
  and keeps the information kernel's integer state, so a changing vector
  moves only the rules that changed. ``split_metrics`` is a fresh scorer,
  and the scalar functions (``weighted_mutual_information``,
  ``mutual_information``) are one-row scorers, so batch, stream and scalar
  values agree bit for bit. Norms are integer sums over exact count gaps,
  divided once (``lp_norms``, which ``lp_norm`` and the scorer call). For
  the information metrics each histogram is read as a multiset of exact values
  whose probability is multiplicity / n_rules, and the joint multiset
  counts exact value pairs per rule. An entropy term of a value of
  multiplicity m is -p*ln(p) with p = a*m/n_rules, so a whole entropy is
  -(a/n_rules) * [sum m^2 ln m + ln(a/n_rules) * sum m^2] over the
  multiplicities; the kernel reads those sums off integer
  counts-of-multiplicities (``value_multiplicities``). Plain mutual
  information (a = 1) is blind to WHERE values sit, so two histograms
  holding the same values in different rule positions look identical; the
  weighted variant sets a to the mean absolute per-rule difference, which
  restores position sensitivity.

* Per-rule Gaussian surprise. Hit frequencies of each rule across a group
  of splits are modeled as independent Gaussians (one per rule, avoiding a
  joint covariance estimate); a bank is a ``(mu, sigma)`` pair of arrays.
  Entropies of interval masses around observed hits, and their ratio
  against a reference group, give the rule-based information score: ~1
  for groups resembling the reference, toward 0 for strongly diverging
  ones. Every score comes from one numpy kernel over a (batch, members,
  rules) stack of hit frequencies, so a single group is a batch of one.

All logarithms are natural.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .histogram import HitHistogram

SIGMA_FLOOR_DEFAULT = 1e-6
PROB_CLAMP = 1e-12

_SQRT2 = math.sqrt(2.0)
# Floating guard: analytically the weighted information is nonnegative, but
# the closed form's final subtraction may round to a tiny negative.
_NEG_EPS = -1e-12


class MetricError(ValueError):
    """Incompatible metric inputs (usually mismatched rule counts)."""


def _check_same_rules(a: HitHistogram, b: HitHistogram) -> None:
    if a.n_rules != b.n_rules:
        raise MetricError(f"histograms have {a.n_rules} and {b.n_rules} rules")


# ---------------------------------------------------------------------------
# Single-split kernel: norms and value-frequency information
# ---------------------------------------------------------------------------

class SplitMetrics(NamedTuple):
    """Per-training-row single-split metric values, one array each."""

    wmi: np.ndarray
    l1: np.ndarray
    l2: np.ndarray


def lp_norms(
    a: np.ndarray, a_size: int, b: np.ndarray, b_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """l1 and l2 distances between hit-count arrays, reduced over the last axis.

    ``a`` and ``b`` hold counts over split sizes ``a_size`` and ``b_size``
    and broadcast against each other. Both are put over the common
    denominator L = lcm(a_size, b_size), so every per-rule gap is an exact
    integer: l1 = sum|gap| / L and l2 = sqrt(sum gap^2) / L. With equal
    split sizes L is the split size, so equal inputs give exactly 0 and no
    value depends on the order of the rules or of the arguments. Only when
    the integer sums could overflow int64 (large coprime split sizes) are
    the gaps summed as floats.
    """
    scale = math.lcm(a_size, b_size)
    # A factor of 1 (the side whose split size is the lcm) skips a multiply.
    if scale != a_size:
        a = a * (scale // a_size)
    if scale != b_size:
        b = b * (scale // b_size)
    gap = np.abs(a - b)
    # Each gap is at most ``scale``, so n_rules squared gaps fit in int64 below this.
    if scale * scale * gap.shape[-1] >= 2**63:
        gap = gap.astype(np.float64)
    return gap.sum(axis=-1) / scale, np.sqrt((gap * gap).sum(axis=-1)) / scale


def value_multiplicities(keys: np.ndarray) -> np.ndarray:
    """Counts of multiplicities of the values in each row of ``keys``.

    For an (n_rows, n) integer array, entry [r, m] of the (n_rows, n + 1)
    result is the number of distinct values occurring exactly m times in
    row r; column 0 is always 0. It depends on the row only through its
    multiset of values, so permuting a row leaves it unchanged.
    """
    rows, n = keys.shape
    ordered = np.sort(keys, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    # Every row opens with a run, so each run ends where the next one starts.
    begin = np.flatnonzero(starts)
    lengths = np.append(begin[1:], rows * n) - begin
    cells = (begin // n) * (n + 1) + lengths
    return np.bincount(cells, minlength=rows * (n + 1)).reshape(rows, n + 1)


@lru_cache(maxsize=None)
def _square_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """m^2 (int64) and m^2 ln m (float64) for m = 0..n."""
    m = np.arange(n + 1)
    m2 = m * m
    m2_ln_m = m2 * np.log(np.maximum(m, 1))
    m2.setflags(write=False)
    m2_ln_m.setflags(write=False)
    return m2, m2_ln_m


def _joint_keys(train: np.ndarray, op: np.ndarray) -> np.ndarray:
    """One integer per value pair (train[i, r], op[r]), equal iff the pairs are."""
    return train * (int(op.max()) + 1) + op


def _reduce_information(d: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Weighted information of every row of ``d`` at weights ``alpha``.

    ``d = c_train + c_op - c_joint`` is the (n_tr, n + 1) integer difference
    of the three counts-of-multiplicities, and row i reduces to
    -(a/n) * [sum_m d_m m^2 ln m + ln(a/n) * sum_m d_m m^2]. Each row is
    reduced on its own, in the fixed order m = 0..n, so a row's value does
    not depend on the other rows, and the integer d makes the result exactly
    symmetric and invariant under joint rule permutations. The p = 1 term
    (a = 1 and all n values equal) is dropped: its p*ln(p) is 0, and ``d``
    is written to drop it. a = 0 gives exactly 0.
    """
    n = d.shape[1] - 1
    d[alpha == 1.0, n] = 0
    m2, m2_ln_m = _square_tables(n)
    weight = np.where(alpha > 0.0, alpha, 1.0) / n
    out = -weight * ((d * m2_ln_m).sum(axis=1) + np.log(weight) * (d * m2).sum(axis=1))
    out[(alpha == 0.0) | ((_NEG_EPS < out) & (out <= 0.0))] = 0.0
    return out


def split_metrics(
    train: np.ndarray, train_size: int, op: np.ndarray, op_size: int
) -> SplitMetrics:
    """``wmi``, ``l1`` and ``l2`` of one operational count vector against each training row.

    ``train`` is an (n_tr, n_rules) array of hit counts over splits of
    ``train_size`` samples, ``op`` an (n_rules,) array of counts over
    ``op_size`` samples. The pair weight of ``wmi`` is l1 / n_rules. Entry i
    of each result depends on row i alone. A fresh ``SplitScorer`` scores
    the vector, so the arrays are read-only.
    """
    return SplitScorer(train, train_size).score(op, op_size)


class SplitScorer:
    """``wmi``, ``l1`` and ``l2`` of a changing operational count vector against training counts.

    The scorer keeps the integer state of the last vector it scored:
    c_train, c_op and c_joint (the counts-of-multiplicities of the training
    rows, of the vector and of each row's value pairs with it). ``score``
    moves that state only for the rules whose count changed since the last
    call, at O(n_tr) per changed rule and per rule sharing its old or new
    count, then reduces it with ``information``; l1 and l2 come from
    ``lp_norms``. Equal integers go through the same float operations, so
    every result equals a fresh scorer's (``split_metrics``) on the same
    input bit for bit, and nothing drifts. A first call, a new ``op_size`` or
    more than ``MAX_UPDATES`` changed rules rebuild the state from scratch.
    Memory is O(n_tr * n_rules). Single-writer state: one caller scores.
    """

    # Past this many changed rules one rebuild (a sort of n_tr + 1 rows)
    # costs less than moving the rules one at a time (measured with 58
    # rules and 50 training rows).
    MAX_UPDATES = 4

    def __init__(self, train: np.ndarray, train_size: int):
        self.train = np.asarray(train, dtype=np.int64)
        if self.train.ndim != 2:
            raise MetricError(f"training counts must be a 2-d array, got {self.train.shape}")
        self.train_size = train_size
        n_tr, n = self.train.shape
        self._c_train = value_multiplicities(self.train)
        self._row_start = np.arange(n_tr) * (n + 1)  # row offsets into flat c_joint
        self._op: np.ndarray | None = None
        self._op_size = 0
        # Instrumentation: rules whose state the last ``score`` moved (all
        # of them on a rebuild), for asserting the per-tick work by count.
        self.last_updated_rules = 0

    def score(self, op: np.ndarray, op_size: int) -> SplitMetrics:
        """The metrics of ``op``, counts over ``op_size`` samples, against each training row."""
        op = np.asarray(op, dtype=np.int64)
        if op.shape != self.train.shape[1:]:
            raise MetricError(
                f"training counts {self.train.shape} and operational counts {op.shape} do not pair up"
            )
        changed = (
            None if self._op is None or op_size != self._op_size
            else np.flatnonzero(op != self._op).tolist()
        )
        if changed is None or len(changed) > self.MAX_UPDATES:
            self._rebuild(op, op_size)
            self.last_updated_rules = len(op)
        else:
            for r in changed:
                self._move(r, op[r])
            self.last_updated_rules = len(changed)
        l1, l2 = lp_norms(self.train, self.train_size, self._op, op_size)
        scores = SplitMetrics(self.information(l1 / len(op)), l1, l2)
        for values in scores:
            values.setflags(write=False)
        return scores

    def information(self, alpha: np.ndarray) -> np.ndarray:
        """Weighted information of every training row with the last scored vector at ``alpha``."""
        if self._op is None:
            raise MetricError("no operational counts scored yet")
        return _reduce_information(self._c_train + self._c_op - self._c_joint, alpha)

    def _rebuild(self, op: np.ndarray, op_size: int) -> None:
        self._op, self._op_size = op.copy(), op_size
        mult = value_multiplicities(np.vstack([op[None, :], _joint_keys(self.train, op)]))
        self._c_op, self._c_joint = mult[0], mult[1:]
        self._joint_flat = self._c_joint.reshape(-1)  # a view: mult is contiguous

    def _move(self, r: int, new: np.int64) -> None:
        """Set rule r's operational count to ``new`` and move every count it enters."""
        op, train = self._op, self.train
        old = op[r]
        # In each row, the pair (train[i, r], count) leaves the run of pairs
        # equal to (train[i, r], old), ``left`` long with it, and joins the
        # run equal to (train[i, r], new), ``joined`` long without it.
        holders_old = np.flatnonzero(op == old)
        holders_new = np.flatnonzero(op == new)
        op[r] = new
        # A count held by rule r alone, moving to a count no rule holds,
        # leaves every multiset of values and of value pairs as it was.
        if len(holders_old) > 1 or len(holders_new) > 0:
            left = (train[:, holders_old] == train[:, r, None]).sum(axis=1)
            joined = (train[:, holders_new] == train[:, r, None]).sum(axis=1)
            flat, start = self._joint_flat, self._row_start
            flat[start + left] -= 1
            flat[start + left - 1] += 1
            flat[start + joined] -= 1
            flat[start + joined + 1] += 1
            self._c_joint[:, 0] = 0  # column 0 counts nothing
            c_op, n_old, n_new = self._c_op, len(holders_old), len(holders_new)
            c_op[n_old] -= 1
            c_op[n_old - 1] += 1
            c_op[n_new] -= 1
            c_op[n_new + 1] += 1
            c_op[0] = 0


def lp_norm(a: HitHistogram, b: HitHistogram, p: int) -> float:
    """l1 or l2 distance between hit-frequency vectors (see ``lp_norms``)."""
    _check_same_rules(a, b)
    if p not in (1, 2):
        raise MetricError(f"p must be 1 or 2, got {p}")
    l1, l2 = lp_norms(a.counts, a.split_size, b.counts, b.split_size)
    return float(l1 if p == 1 else l2)


def alpha_weight(a: HitHistogram, b: HitHistogram) -> float:
    """Mean absolute per-rule hit difference; the pair weight in [0, 1]."""
    return lp_norm(a, b, 1) / a.n_rules


def mutual_information(a: HitHistogram, b: HitHistogram) -> float:
    """Mutual information between the value distributions of two histograms.

    Invariant under joint permutation of rule positions and under per-value
    relabeling, which is exactly why it cannot separate histograms holding
    the same values in shuffled positions.
    """
    _check_same_rules(a, b)
    scorer = SplitScorer(a.counts[None], a.split_size)
    scorer.score(b.counts, b.split_size)
    return float(scorer.information(np.ones(1))[0])


def weighted_mutual_information(a: HitHistogram, b: HitHistogram) -> float:
    """Mutual information with every term damped by the pair weight.

    The weight is the mean absolute per-rule difference, so identical and
    aligned histograms score exactly 0 (the p*log(p) -> 0 limit), while
    value-preserving position shuffles raise the score.
    """
    _check_same_rules(a, b)
    return float(split_metrics(a.counts[None], a.split_size, b.counts, b.split_size).wmi[0])


# ---------------------------------------------------------------------------
# Rule-based information: per-rule Gaussian banks
# ---------------------------------------------------------------------------

def _erfcx_series(n_terms: int) -> tuple[float, np.ndarray]:
    """Weideman's (1994) series for erfcx(x) = exp(x*x) * erfc(x), x >= 0.

    erfcx(x) = 2 P(Z) / (L + x)^2 + 1 / (sqrt(pi) (L + x)) with
    Z = (L - x) / (L + x) in (-1, 1]. The coefficients of the degree
    n_terms - 1 polynomial P are the cosine transform of a Gaussian sampled
    on the tangent grid t = L tan(theta / 2). Returns L and P's
    coefficients, highest degree first.
    """
    m = 2 * n_terms
    big_l = math.sqrt(n_terms / math.sqrt(2.0))
    theta = np.arange(-m + 1, m) * math.pi / m
    t = big_l * np.tan(theta / 2.0)
    f = np.exp(-t * t) * (big_l * big_l + t * t)
    a = np.cos(np.outer(np.arange(1, n_terms + 1), theta)) @ f / (2 * m)
    return big_l, a[::-1].copy()


# 32 terms: within 4e-14 relative of the standard library's erfc on [-6, 6]
# (tests check 1e-13).
_ERFCX_L, _ERFCX_COEFFS = _erfcx_series(32)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def erfc_array(x: np.ndarray) -> np.ndarray:
    """Elementwise complementary error function (numpy has none).

    Uses erfc(x) = exp(-x*x) erfcx(x) for x >= 0 and 2 - erfc(-x) below,
    so upper tails keep their relative precision like the standard library erfc.
    """
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    lx = _ERFCX_L + ax
    z = (_ERFCX_L - ax) / lx
    poly = np.full_like(z, _ERFCX_COEFFS[0])
    for c in _ERFCX_COEFFS[1:]:
        poly *= z
        poly += c
    upper = np.exp(-ax * ax) * (2.0 * poly / (lx * lx) + _INV_SQRT_PI / lx)
    return np.where(x < 0.0, 2.0 - upper, upper)


def _interval_mass_array(
    mu: np.ndarray, sigma: np.ndarray, center: np.ndarray
) -> np.ndarray:
    """P(center - sigma <= X <= center + sigma) for X ~ N(mu, sigma), elementwise.

    Clamped into [PROB_CLAMP, 1 - PROB_CLAMP] so the entropies and the
    mass ratios stay finite. The erfc difference keeps precision when the
    interval sits far in the upper tail.
    """
    z_lo = (center - sigma - mu) / sigma
    z_hi = (center + sigma - mu) / sigma
    p = 0.5 * (erfc_array(z_lo / _SQRT2) - erfc_array(z_hi / _SQRT2))
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def _binary_entropy_array(p: np.ndarray) -> np.ndarray:
    # p is clamped into (0, 1), so both logarithms are finite.
    q = 1.0 - p
    return -(p * np.log(p) + q * np.log(q))


def fit_bank(
    stack: np.ndarray, sigma_floor: float = SIGMA_FLOOR_DEFAULT
) -> tuple[np.ndarray, np.ndarray]:
    """One Gaussian per rule for each group of a (batch, members, rules) stack.

    Returns the bank as a ``(mu, sigma)`` pair of (batch, 1, rules) arrays:
    the maximum-likelihood mean and population (divide-by-n) standard
    deviation over the members, the latter floored so zero-variance rules
    (e.g. never-fired ones) stay usable.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise MetricError(
            f"bank fit needs a (batch, members, rules) array, got {stack.shape}"
        )
    if stack.shape[1] < 2:
        raise MetricError(f"bank fit needs at least 2 histograms, got {stack.shape[1]}")
    if stack.shape[2] == 0:
        raise MetricError("bank fit needs at least 1 rule")
    if not sigma_floor > 0.0:
        raise MetricError("sigma_floor must be positive")
    mu = stack.mean(axis=1, keepdims=True)
    sigma = np.sqrt(((stack - mu) ** 2).mean(axis=1, keepdims=True))
    return mu, np.maximum(sigma, sigma_floor)


def rule_based_information(
    group: np.ndarray,
    own_bank: tuple[np.ndarray, np.ndarray],
    ref_bank: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Rule-based information of each group of a (batch, members, rules) stack.

    ``own_bank`` and ``ref_bank`` are ``(mu, sigma)`` pairs that broadcast
    against the stack, as ``fit_bank`` returns them. The score is the mean
    own entropy over the mean conditional entropy, per group. Each member's
    own entropy sums, over the rules, the binary entropy of the own-bank
    interval mass around its hit (halfwidth = own sigma). Its conditional
    entropy sums the reference-bank entropies instead, each scaled by own
    mass / reference mass, so hits likely under their own group but
    unlikely under the reference are amplified; with equal banks the two
    coincide. Both masses are clamped into [PROB_CLAMP, 1 - PROB_CLAMP], so
    every conditional term is positive and the ratio is finite.

    Close to 1 when a group is statistically indistinguishable from the
    reference; toward 0 when its conditional entropy is inflated by
    surprise under the reference. A stack without members or without rules
    is rejected.
    """
    group = np.asarray(group, dtype=np.float64)
    if group.ndim != 3 or 0 in group.shape[1:]:
        raise MetricError(
            f"group must be a nonempty (batch, members, rules) array, got {group.shape}"
        )
    p_own = _interval_mass_array(*own_bank, group)
    p_ref = _interval_mass_array(*ref_bank, group)
    num = _binary_entropy_array(p_own).sum(axis=2).mean(axis=1)
    den = (p_own / p_ref * _binary_entropy_array(p_ref)).sum(axis=2).mean(axis=1)
    return num / den


def rule_based_information_batch(
    groups: np.ndarray,
    refs: np.ndarray,
    sigma_floor: float = SIGMA_FLOOR_DEFAULT,
) -> np.ndarray:
    """Rule-based information of a stack of (group, reference) pairs.

    ``groups[b]`` is an (n, n_rules) array of hit frequencies and
    ``refs[b]`` a (k, n_rules) one; entry b of the result scores group b,
    under its own bank, against the bank fitted from ``refs[b]``. Rows do
    not depend on each other.
    """
    groups = np.asarray(groups, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    if groups.ndim != 3 or refs.ndim != 3:
        raise MetricError("groups and refs must be (batch, members, rules) arrays")
    if groups.shape[0] != refs.shape[0] or groups.shape[2] != refs.shape[2]:
        raise MetricError(f"groups {groups.shape} and refs {refs.shape} do not pair up")
    return rule_based_information(
        groups, fit_bank(groups, sigma_floor), fit_bank(refs, sigma_floor)
    )
