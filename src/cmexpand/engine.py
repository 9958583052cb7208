"""Greedy signed expansion of a target value in powers of r/s.

The expansion writes a target in [0, 1] as x0 plus a series of corrections
whose n-th magnitude is r**(n-1) / s**n (the first correction is always 1/s
and each later one is r/s times the previous).  Each correction is signed
toward the target; the running partial sums are the successive estimates.

`expand` runs the ladder on integers.  The estimate after n steps is
X_n = A_n / s**n with A_n = A_{n-1} * s + sign * r**(n-1), and r**n, s**n
are carried alongside.  For n >= 1, A_n is congruent to +-r**(n-1) modulo
every prime of s, and gcd(r, s) = 1, so A_n is coprime to s and A_n / s**n
is already in lowest terms: partial sums, term magnitudes and tail bounds
are built as Fractions without a gcd.  A rational target p/q is compared
through p * s**n - q * A_n; a bracketed real target through its bracket
endpoints L/D and H/D, held as L * s**n and H * s**n and compared with
A_n * D.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm

from .errors import BudgetExceeded, InsufficientTerms, NonConvergent, PrecisionExhausted
from .numerics import check_ratio
from .realnum import Comparison, PrecisionReal, real_compare

Half = Fraction(1, 2)

# Limits on untrusted expand sizes (CLI flags, catalog entries); expand() itself is uncapped.
TERMS_LIMIT = 16384
BITS_LIMIT = 65536


@dataclass(frozen=True)
class ExpansionRatio:
    """A reduced ratio r/s with s > r >= 1."""

    r: int
    s: int

    def __post_init__(self):
        r, s = self.r, self.s
        check_ratio(r, s)
        g = gcd(r, s)
        object.__setattr__(self, "r", r // g)
        object.__setattr__(self, "s", s // g)

    @classmethod
    def from_text(cls, text: str) -> ExpansionRatio:
        num, sep, den = text.partition("/")
        if not sep:
            raise ValueError(f"ratio must look like r/s, got {text!r}")
        return cls(int(num), int(den))

    @property
    def value(self) -> Fraction:
        return Fraction(self.r, self.s)

    def __str__(self) -> str:
        return f"{self.r}/{self.s}"


class _LowestTerms:
    """A numerator/denominator pair already in lowest terms.

    It is registered as a numbers.Rational, and Fraction() copies the
    numerator and denominator of a Rational as they are, without a gcd.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator


numbers.Rational.register(_LowestTerms)


def _lowest(numerator: int, denominator: int) -> Fraction:
    """numerator/denominator as a Fraction; the caller knows they are coprime and denominator > 0."""
    return Fraction(_LowestTerms(numerator, denominator))


class X0Policy(str, Enum):
    AT_ZERO = "zero"
    AT_ONE = "one"
    LARGER_GROUP = "larger"


Target = Fraction | PrecisionReal


def term_magnitude(ratio: ExpansionRatio, n: int) -> Fraction:
    """Magnitude r**(n-1) / s**n of the n-th correction, n >= 1, in lowest terms."""
    if n < 1:
        raise ValueError("term index starts at 1")
    return _lowest(ratio.r ** (n - 1), ratio.s ** n)


def error_bound(ratio: ExpansionRatio, n: int) -> Fraction:
    """Exact sum r**n / (s**n * (s - r)) of all magnitudes beyond term n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # gcd(r, s - r) = gcd(r, s) = 1, so this is in lowest terms
    return _lowest(ratio.r ** n, ratio.s ** n * (ratio.s - ratio.r))


def closed_form_partial(ratio: ExpansionRatio, n: int) -> Fraction:
    """Partial sum (1 - (-r/s)**n) / (s + r) for the target 1/(r+s)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (1 - Fraction(-ratio.r, ratio.s) ** n) / (ratio.s + ratio.r)


@dataclass(frozen=True)
class Expansion:
    """A run of the greedy expansion: signs, partial sums, termination."""

    x0: Fraction
    ratio: ExpansionRatio
    signs: tuple[int, ...]
    partial_sums: tuple[Fraction, ...]
    terminated: bool
    terms_requested: int

    def __len__(self) -> int:
        return len(self.signs)

    @property
    def final_error_bound(self) -> Fraction:
        return error_bound(self.ratio, len(self.signs))


@dataclass(frozen=True)
class GroupedSeries:
    """A block-resummed expansion: coefficients of ((r/s)**block)**k.

    partial_sums[n] = x0 + sum(coefficients[k-1] * (r/s)**(block*k) for k <= n),
    and equals the original expansion's partial sum at index block*n.
    """

    base: ExpansionRatio
    block: int
    coefficients: tuple[Fraction, ...]
    partial_sums: tuple[Fraction, ...]

    @property
    def x0(self) -> Fraction:
        return self.partial_sums[0]


def _as_policy(policy) -> X0Policy:
    return policy if isinstance(policy, X0Policy) else X0Policy(policy)


def _is_exact(target) -> bool:
    return isinstance(target, (int, Fraction))


class _RationalGoal:
    """An exact target p/q, compared with X_n = a/sn through p*sn - q*a."""

    def __init__(self, target: Fraction):
        self.p, self.q = target.numerator, target.denominator

    def sign(self, a: int, sn: int) -> int:
        """Sign of target - a/sn; 0 for an exact hit."""
        diff = self.p * sn - self.q * a
        return (diff > 0) - (diff < 0)

    def hits(self, a: int, sn: int) -> bool:
        return self.p * sn == self.q * a

    def beyond(self, a: int, sn: int, rn: int, gap: int) -> bool:
        """|target - a/sn| > rn / (sn * gap)."""
        return abs(self.p * sn - self.q * a) * gap > self.q * rn

    def rescale(self, s: int) -> None:
        pass


class _BracketedGoal:
    """A PrecisionReal seen through its bracket (L/D, H/D), held as L*sn and H*sn.

    sn = s**n grows by a factor s each step (`rescale`).  Every order
    question replays real_compare's schedule (8 bits, doubling, capped at
    max_bits) and calls bracket(bits) exactly where real_compare would
    refine, so the PrecisionReal goes through the same refinements and an
    undecided sign raises PrecisionExhausted in the same cases.
    """

    def __init__(self, target: PrecisionReal, max_bits: int):
        self.target = target
        self.max_bits = max_bits
        self._load(target.bracket(8), 1)

    def _load(self, bracket, sn: int) -> None:
        lo, hi = bracket
        d = lcm(lo.denominator, hi.denominator)
        low, high = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        self.d, self.width = d, high - low
        self.shift = (d & -d).bit_length() - 1  # d = odd << shift; odd is 1 for dyadic brackets
        self.odd = d >> self.shift
        self.lo, self.hi = low * sn, high * sn

    def rescale(self, s: int) -> None:
        self.lo *= s
        self.hi *= s

    def _order(self, num: int, m: int, sn: int) -> int:
        """real_compare(target, num / (m * sn)) as -1, 1, or 0 for undecided."""
        bits = 8
        while True:
            if self.width << bits > self.d:  # wider than 2**-bits: bracket(bits) refines
                self._load(self.target.bracket(bits), sn)
            x = (num * self.odd) << self.shift
            if self.hi * m <= x:
                return -1
            if x <= self.lo * m:
                return 1
            if bits >= self.max_bits:
                return 0
            bits = min(bits * 2, self.max_bits)

    def sign(self, a: int, sn: int) -> int:
        sign = self._order(a, 1, sn)
        if sign == 0:
            raise PrecisionExhausted(
                f"cannot separate {self.target!r} from {_lowest(a, sn)} within {self.max_bits} bits"
            )
        return sign

    def hits(self, a: int, sn: int) -> bool:
        return False

    def beyond(self, a: int, sn: int, rn: int, gap: int) -> bool:
        """|target - a/sn| > rn / (sn * gap) is certain; undecidable counts as no."""
        return self._order(a * gap + rn, gap, sn) == 1 or self._order(a * gap - rn, gap, sn) == -1


def _resolve_x0(target, policy: X0Policy, max_bits: int) -> Fraction:
    if policy is X0Policy.AT_ZERO:
        return Fraction(0)
    if policy is X0Policy.AT_ONE:
        return Fraction(1)
    # start at the larger of the two initial mass groups
    if _is_exact(target):
        return Fraction(0) if target <= Half else Fraction(1)
    order = real_compare(target, Half, max_bits)
    if order is Comparison.UNDECIDED:
        raise PrecisionExhausted(f"cannot place {target!r} relative to 1/2")
    return Fraction(0) if order is Comparison.LESS else Fraction(1)


def _validate_target(target, max_bits: int):
    if _is_exact(target):
        target = Fraction(target)
        if not 0 <= target <= 1:
            raise ValueError(f"target {target} outside [0, 1]")
        return target
    if isinstance(target, PrecisionReal):
        lo, hi = target.bracket(8)
        if hi <= 0 or lo >= 1:
            raise ValueError(f"target {target!r} outside [0, 1]")
        return target
    raise TypeError(f"unsupported target type {type(target).__name__}")


def expand(
    target: Target,
    ratio: ExpansionRatio,
    x0_policy: X0Policy | str = X0Policy.LARGER_GROUP,
    max_terms: int = 16,
    max_bits: int = 256,
) -> Expansion:
    """Greedy signed expansion of `target` in powers of ratio.

    Every returned partial sum X_n satisfies |target - X_n| <= error_bound(n).
    Raises NonConvergent when the remaining ladder provably cannot reach the
    target, or when a step would leave the unit interval (no arrangement of
    masses on [0, 1] can realize it); raises PrecisionExhausted when a sign
    decision for a bracketed real target stays undecided at max_bits.
    """
    if max_terms < 0:
        raise ValueError("max_terms must be nonnegative")
    target = _validate_target(target, max_bits)
    policy = _as_policy(x0_policy)
    x0 = _resolve_x0(target, policy, max_bits)

    goal = _RationalGoal(target) if _is_exact(target) else _BracketedGoal(target, max_bits)
    r, s = ratio.r, ratio.s
    a, sn, rn = x0.numerator, 1, 1  # X_n = a / sn, sn = s**n, rn = r**n
    sums = [x0]
    signs: list[int] = []
    terminated = False
    if goal.beyond(a, sn, rn, s - r):
        raise NonConvergent(f"|{target} - {x0}| exceeds the total ladder sum")

    for n in range(1, max_terms + 1):
        sign = goal.sign(a, sn)
        if sign == 0:
            terminated = True
            break
        a = a * s + sign * rn
        sn *= s
        rn *= r
        goal.rescale(s)
        if not 0 <= a <= sn:
            raise NonConvergent(f"step {n} would leave the unit interval ({_lowest(a, sn)})")
        signs.append(sign)
        sums.append(_lowest(a, sn))
        if goal.beyond(a, sn, rn, s - r):
            raise NonConvergent(f"remaining terms after step {n} cannot reach {target}")
    else:
        terminated = goal.hits(a, sn)

    return Expansion(
        x0=x0,
        ratio=ratio,
        signs=tuple(signs),
        partial_sums=tuple(sums),
        terminated=terminated,
        terms_requested=max_terms,
    )


def check_budget(terms: int, bits: int) -> None:
    """Reject an untrusted request for more than TERMS_LIMIT terms or BITS_LIMIT bits."""
    if terms > TERMS_LIMIT:
        raise BudgetExceeded(f"{terms} terms exceeds the limit of {TERMS_LIMIT}")
    if bits > BITS_LIMIT:
        raise BudgetExceeded(f"{bits} bits exceeds the limit of {BITS_LIMIT}")


def regroup(expansion: Expansion, block: int) -> GroupedSeries:
    """Resum consecutive blocks of `block` signed terms.

    Block k collapses to one coefficient of (r/s)**(block*k); the grouped
    partial sums are exactly every block-th partial sum of the original run.
    """
    if block < 1:
        raise ValueError("block must be positive")
    full_blocks = len(expansion.signs) // block
    if full_blocks == 0:
        raise InsufficientTerms(
            f"expansion has {len(expansion.signs)} terms, need at least {block}"
        )
    step = expansion.ratio.value ** block
    sums = expansion.partial_sums
    coefficients = tuple(
        (sums[block * k] - sums[block * (k - 1)]) / step ** k
        for k in range(1, full_blocks + 1)
    )
    grouped = tuple(sums[block * k] for k in range(full_blocks + 1))
    return GroupedSeries(
        base=expansion.ratio,
        block=block,
        coefficients=coefficients,
        partial_sums=grouped,
    )
