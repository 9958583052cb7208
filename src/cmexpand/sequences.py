"""The sequence families generated by signed r/s expansions.

One closed form in a signed parameter t carries everything here:

* ``gen_j_like(t, s, n)`` = (s**n - t**n) / (s - t)
* ``gen_j(r, s, n)``      = (s**n - (-r)**n) / (s + r) = gen_j_like(-r, s, n)

so the two families differ only by the sign of r: gen-j validates
s > r >= 1 and evaluates gen-jlike at t = -r, in every route.  Values are
exact for any integer n (negative indices give rationals), over the
integers, the rationals, or a quadratic surd field.  Classical Jacobsthal
numbers are gen_j(1, 2, n); Fibonacci and Pell arise from gen_j_like with
golden- and silver-ratio surd parameters.  Recurrence and
generating-function routes are provided separately so the three can be
checked against each other.

`FAMILIES` at the end of the module is the one family registry: each name
maps to its parameter names, how to read them from CLI text or catalog
JSON, and its evaluator.  The `*_SPELLINGS` maps list the names each front
end accepts.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import BranchUndefined, DegenerateParams
from .numerics import QuadraticSurd, check_ratio, finite_complex

FORWARD = "forward"
BACKWARD = "backward"

GEN_J = "gen-j"
GEN_J_LIKE = "gen-jlike"


def _lift(x, y):
    """Coerce a mixed rational/surd pair into a common ring."""
    if isinstance(x, QuadraticSurd) or isinstance(y, QuadraticSurd):
        return tuple(v if isinstance(v, QuadraticSurd) else QuadraticSurd(v) for v in (x, y))
    return Fraction(x), Fraction(y)


def _settle(value):
    """Drop a surd wrapper once the value is rational."""
    if isinstance(value, QuadraticSurd) and value.is_rational:
        return value.to_rational()
    return value


def jacobsthal(n: int) -> Fraction:
    """Classical Jacobsthal number (2**n - (-1)**n) / 3, any integer n."""
    return gen_j(1, 2, n)


def gen_j(r: int, s: int, n: int) -> Fraction:
    """(s**n - (-r)**n) / (s + r) = gen_j_like(-r, s, n), integers s > r >= 1, any integer n."""
    check_ratio(r, s)
    return gen_j_like(-r, s, n)


def gen_j_like(r, s, n: int):
    """(s**n - r**n) / (s - r) for distinct rational or surd r, s, any integer n.

    r may carry either sign; gen_j is this function at -r.  At negative n
    both must be nonzero (DegenerateParams otherwise).  Returns a
    Fraction whenever the value is rational (always, for rational
    parameters; also for conjugate surd pairs such as the Fibonacci and
    Pell parameterizations).
    """
    r, s = _lift(r, s)
    if r == s:
        raise DegenerateParams("r and s must differ")
    if n < 0 and not (r and s):
        raise DegenerateParams("r and s must be nonzero at negative indices")
    return _settle((s ** n - r ** n) / (s - r))


def _unroll(seed0, seed1, c1, c2, count: int) -> list:
    values = [seed0, seed1]
    while len(values) < count:
        values.append(c1 * values[-1] + c2 * values[-2])
    return [_settle(v) for v in values[:count]]


def gen_j_recurrence(r: int, s: int, count: int, direction: str = FORWARD) -> list[Fraction]:
    """gen_j values by recurrence unrolling: gen_j_like_recurrence at -r.

    Forward: J_n = (s-r) J_{n-1} + r s J_{n-2}, indices 0..count-1.
    Backward: seeds 0, 1/(rs), indices 0, -1, .., -(count-1).
    """
    check_ratio(r, s)
    return gen_j_like_recurrence(-r, s, count, direction)


def gen_j_like_recurrence(r, s, count: int, direction: str = FORWARD) -> list:
    """gen_j_like values by recurrence unrolling; r, s may be surds or of either sign.

    Forward: seeds 0, 1 and Jt_n = (s+r) Jt_{n-1} - r s Jt_{n-2}.  Backward:
    seeds 0, -1/(rs) and Jt_{-n} = ((s+r)/(rs)) Jt_{-(n-1)} - (1/(rs)) Jt_{-(n-2)}.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    r, s = _lift(r, s)
    if r == s:
        raise DegenerateParams("r and s must differ")
    one = r - r + 1  # unit of the common ring
    if direction == FORWARD:
        values = _unroll(one * 0, one, s + r, -(r * s), max(count, 2))
    elif direction == BACKWARD:
        if not (r and s):
            raise DegenerateParams("r and s must be nonzero at negative indices")
        inv_rs = one / (r * s)
        values = _unroll(one * 0, -inv_rs, (s + r) * inv_rs, -inv_rs, max(count, 2))
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return values[:count]


def lucas_u(p, q, n: int):
    """First-kind Lucas value U_n(P, Q): U_0 = 0, U_1 = 1, U_n = P U_{n-1} - Q U_{n-2}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p, q = _lift(p, q)
    prev, cur = p * 0, p * 0 + 1
    if n == 0:
        return _settle(prev)
    for _ in range(n - 1):
        prev, cur = cur, p * cur - q * prev
    return _settle(cur)


def _series_quotient(numerator: list[Fraction], denominator: list[Fraction], count: int) -> list[Fraction]:
    """Taylor coefficients of numerator/denominator about z = 0."""
    coeffs: list[Fraction] = []
    for n in range(count):
        acc = numerator[n] if n < len(numerator) else Fraction(0)
        for k in range(1, min(n, len(denominator) - 1) + 1):
            acc -= denominator[k] * coeffs[n - k]
        coeffs.append(acc / denominator[0])
    return coeffs


def gf_coefficients(kind: str, r: int, s: int, count: int) -> list[Fraction]:
    """Coefficients of z / (1 - (s+t) z + t s z**2), t the family's signed r.

    gen-jlike (t = r):  z / (1 - (s+r) z + r s z**2)
    gen-j     (t = -r): z / (1 - (s-r) z - r s z**2)
    """
    t = signed_r(kind, r, s)
    if count < 0:
        raise ValueError("count must be nonnegative")
    denominator = [Fraction(1), Fraction(-(s + t)), Fraction(t * s)]
    return _series_quotient([Fraction(0), Fraction(1)], denominator, count)


def a_number(a, b, s, t, n: int):
    """(a s**n + (-1)**n b t**n) / (s + t), n >= 0.

    Exact Fraction for rational parameters; complex otherwise.  Subsumes
    gen_j (a=1, b=-1, t=r) and gen_j_like (a=1, b=-1, t=-r).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    exact = not any(isinstance(v, complex) for v in (a, b, s, t))
    a, b, s, t = (Fraction(v) if exact else finite_complex(v) for v in (a, b, s, t))
    if s + t == 0:
        raise DegenerateParams("s + t must be nonzero")
    return (a * s ** n + (-1) ** n * b * t ** n) / (s + t)


def _principal_pow(base: complex, exponent: complex) -> complex:
    """Principal-branch power; zero base only for nonnegative integer exponents."""
    if base == 0:
        if exponent.imag == 0 and exponent.real == int(exponent.real) and exponent.real >= 0:
            return complex(1) if exponent.real == 0 else complex(0)
        raise BranchUndefined(f"0 ** {exponent} has no principal value")
    return base ** exponent


def j_continuous(mu, nu, lam) -> complex:
    """(nu**lam - mu**lam) / (nu - mu) over the complex plane (principal branch)."""
    mu, nu, lam = finite_complex(mu), finite_complex(nu), finite_complex(lam)
    if nu == mu:
        raise DegenerateParams("mu and nu must differ")
    return (_principal_pow(nu, lam) - _principal_pow(mu, lam)) / (nu - mu)


def a_continuous(a, b, nu, gamma, lam) -> complex:
    """(a nu**lam + (-1)**lam b gamma**lam) / (nu + gamma), with (-1)**lam = exp(i pi lam)."""
    a, b, nu, gamma, lam = (finite_complex(v) for v in (a, b, nu, gamma, lam))
    if nu + gamma == 0:
        raise DegenerateParams("nu + gamma must be nonzero")
    alternating = cmath.exp(1j * cmath.pi * lam)
    return (a * _principal_pow(nu, lam) + alternating * b * _principal_pow(gamma, lam)) / (nu + gamma)


def _integer(value, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _rational(value, name: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a rational, got {value!r}") from None


def _complex(value, name: str) -> complex:
    try:
        return complex(value.replace(" ", ""))
    except ValueError:
        pass
    try:
        return complex(float(Fraction(value)))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a complex number, got {value!r}") from None


@dataclass(frozen=True)
class Family:
    """A registry entry: the family's parameter names, how to read them, its evaluator."""

    params: tuple[str, ...]
    value: Callable  # value(*arguments, n) is the n-th term
    convert: Callable = _integer  # (raw value, parameter name) -> evaluator argument
    sign: int = 0  # gen-j is gen-jlike at t = sign * r; 0 outside that pair
    surds: bool = False  # catalog params may give each as {"a", "b"} of a + b*sqrt(d), one shared "d"
    complex_index: bool = False  # may also be evaluated at one complex index

    def arguments(self, raw) -> tuple:
        """The evaluator's arguments, read from a mapping of CLI text or catalog JSON."""
        if self.surds and "d" in raw:
            d = int(raw["d"])
            return tuple(QuadraticSurd(Fraction(raw[k]["a"]), Fraction(raw[k]["b"]), d) for k in self.params)
        return tuple(self.convert(raw[k], k) for k in self.params)


# The evaluators resolve the module's functions when called, so wrappers put
# on this module's names (the benchmark's per-layer tracer) see registry calls.
FAMILIES = {
    "jacobsthal": Family((), lambda n: jacobsthal(n)),
    GEN_J: Family(("r", "s"), lambda r, s, n: gen_j(r, s, n), sign=-1),
    GEN_J_LIKE: Family(("r", "s"), lambda r, s, n: gen_j_like(r, s, n), sign=1, surds=True),
    "lucas": Family(("p", "q"), lambda p, q, n: lucas_u(p, q, n), _rational),
    "a-number": Family(("a", "b", "s", "t"), lambda a, b, s, t, n: a_number(a, b, s, t, n), _rational),
    "j-complex": Family(
        ("mu", "nu"), lambda mu, nu, lam: j_continuous(mu, nu, lam), _complex, complex_index=True
    ),
}

# The public spellings of each front end, mapped to registry keys.
SEQ_SPELLINGS = {
    "jacobsthal": "jacobsthal",
    "gen-j": GEN_J,
    "gen-jlike": GEN_J_LIKE,
    "lucas": "lucas",
    "a-num": "a-number",
    "j-complex": "j-complex",
}
CATALOG_SPELLINGS = {name: name for name in (GEN_J, GEN_J_LIKE, "lucas", "a-number")}
IDENTITY_SPELLINGS = {"j": GEN_J, "jlike": GEN_J_LIKE}


def signed_r(family: str, r: int, s: int) -> int:
    """Check s > r >= 1 and return the family's signed r: r for gen-jlike, -r for gen-j."""
    entry = FAMILIES.get(family)
    if entry is None or not entry.sign:
        raise ValueError(f"unknown family {family!r}")
    check_ratio(r, s)
    return entry.sign * r
