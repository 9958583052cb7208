"""Greedy signed expansion of a target value in powers of r/s.

The expansion writes a target in [0, 1] as x0 plus a series of corrections
whose n-th magnitude is r**(n-1) / s**n (the first correction is always 1/s
and each later one is r/s times the previous).  Each correction is signed
toward the target; the running partial sums are the successive estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import InsufficientTerms, NonConvergent, PrecisionExhausted
from .numerics import check_ratio
from .realnum import Comparison, PrecisionReal, real_compare

Half = Fraction(1, 2)


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


class X0Policy(str, Enum):
    AT_ZERO = "zero"
    AT_ONE = "one"
    LARGER_GROUP = "larger"


Target = Fraction | PrecisionReal


def term_magnitude(ratio: ExpansionRatio, n: int) -> Fraction:
    """Magnitude r**(n-1) / s**n of the n-th correction, n >= 1."""
    if n < 1:
        raise ValueError("term index starts at 1")
    return Fraction(ratio.r ** (n - 1), ratio.s ** n)


def error_bound(ratio: ExpansionRatio, n: int) -> Fraction:
    """Exact sum r**n / (s**n * (s - r)) of all magnitudes beyond term n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Fraction(ratio.r ** n, ratio.s ** n * (ratio.s - ratio.r))


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


def _direction(target, current: Fraction, max_bits: int) -> int:
    """Greedy sign of (target - current); 0 only for an exact hit."""
    if _is_exact(target):
        diff = target - current
        return (diff > 0) - (diff < 0)
    order = real_compare(target, current, max_bits)
    if order is Comparison.UNDECIDED:
        raise PrecisionExhausted(
            f"cannot separate {target!r} from {current} within {max_bits} bits"
        )
    return 1 if order is Comparison.GREATER else -1


def _certainly_beyond(target, center: Fraction, bound: Fraction, max_bits: int) -> bool:
    """True when |target - center| > bound is certain; undecidable counts as no."""
    if _is_exact(target):
        return abs(target - center) > bound
    return (
        real_compare(target, center + bound, max_bits) is Comparison.GREATER
        or real_compare(target, center - bound, max_bits) is Comparison.LESS
    )


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

    sums = [x0]
    signs: list[int] = []
    terminated = False
    if _certainly_beyond(target, x0, error_bound(ratio, 0), max_bits):
        raise NonConvergent(f"|{target} - {x0}| exceeds the total ladder sum")

    for n in range(1, max_terms + 1):
        sign = _direction(target, sums[-1], max_bits)
        if sign == 0:
            terminated = True
            break
        nxt = sums[-1] + sign * term_magnitude(ratio, n)
        if nxt < 0 or nxt > 1:
            raise NonConvergent(f"step {n} would leave the unit interval ({nxt})")
        signs.append(sign)
        sums.append(nxt)
        if _certainly_beyond(target, nxt, error_bound(ratio, n), max_bits):
            raise NonConvergent(f"remaining terms after step {n} cannot reach {target}")
    else:
        if _is_exact(target) and sums[-1] == target:
            terminated = True

    return Expansion(
        x0=x0,
        ratio=ratio,
        signs=tuple(signs),
        partial_sums=tuple(sums),
        terminated=terminated,
        terms_requested=max_terms,
    )


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
