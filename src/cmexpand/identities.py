"""Exact verification of the Catalan, convolution, and D'Ocagne identities.

Each identity is written once, for gen_j_like(t, s, .) with the family's
signed r: t = r for gen-jlike and t = -r for gen-j, so every sign and power
of (s r) that differs between the families comes from t alone.  With J_k
the k-th term:

* Catalan:     J_{n-m} J_{n+m} - J_n**2 = -(s t)**(n-m) J_m**2
* convolution: J_{n+m} = J_{n+1} J_m - s t J_n J_{m-1}
* D'Ocagne:    J_n J_{m+1} - J_{n+1} J_m = (s t)**m J_{n-m}

The Catalan identity is checked in its squared form, which is the one that
actually holds; the unsquared variant circulates in print and is provided
only so tests can pin down that it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidIndices
from .sequences import gen_j_like, signed_r

CATALAN = "catalan"
CONVOLUTION = "convolution"
DOCAGNE = "docagne"
IDENTITIES = (CATALAN, CONVOLUTION, DOCAGNE)


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    family: str
    r: int
    s: int
    n: int
    m: int
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def _catalan(term, st: Fraction, n: int, m: int, power: int = 2):
    lhs = term(n - m) * term(n + m) - term(n) ** power
    rhs = -(st ** (n - m)) * term(m) ** power
    return lhs, rhs


def _convolution(term, st: Fraction, n: int, m: int):
    return term(n + m), term(n + 1) * term(m) - st * term(n) * term(m - 1)


def _docagne(term, st: Fraction, n: int, m: int):
    return term(n) * term(m + 1) - term(n + 1) * term(m), st ** m * term(n - m)


_SIDES = {CATALAN: _catalan, CONVOLUTION: _convolution, DOCAGNE: _docagne}


def _closed_form(t: int, s: int):
    return lambda k: gen_j_like(t, s, k)


def catalan_sides(family: str, r: int, s: int, n: int, m: int, squared: bool = True):
    """Both sides of the Catalan identity; squared=False gives the broken variant."""
    t = signed_r(family, r, s)
    return _catalan(_closed_form(t, s), Fraction(s * t), n, m, 2 if squared else 1)


def _check_indices(identity: str, n: int, m: int):
    if identity in (CATALAN, DOCAGNE):
        if not n > m >= 0:
            raise InvalidIndices(f"{identity} needs n > m >= 0, got n={n}, m={m}")
    elif identity == CONVOLUTION:
        if n < 0 or m < 1:
            raise InvalidIndices(f"{identity} needs n >= 0 and m >= 1, got n={n}, m={m}")
    else:
        raise ValueError(f"unknown identity {identity!r}")


def identity_check(identity: str, family: str, r: int, s: int, n: int, m: int) -> IdentityReport:
    """Evaluate both sides of one identity exactly and report them."""
    t = signed_r(family, r, s)
    _check_indices(identity, n, m)
    lhs, rhs = _SIDES[identity](_closed_form(t, s), Fraction(s * t), n, m)
    return IdentityReport(identity, family, r, s, n, m, lhs, rhs)


@dataclass(frozen=True)
class SweepSummary:
    family: str
    checked: int
    skipped: int
    failures: tuple[IdentityReport, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def identity_sweep(family: str, r_max: int, s_max: int, n_max: int) -> SweepSummary:
    """Check all three identities over 1 <= r < s <= s_max (r <= r_max), indices up to n_max."""
    if min(r_max, s_max, n_max) < 1:
        raise ValueError("sweep bounds must be at least 1")
    checked = skipped = 0
    failures = []
    for r in range(1, r_max + 1):
        for s in range(r + 1, s_max + 1):
            t = signed_r(family, r, s)
            st = Fraction(s * t)
            # every index the identities touch lies in 0..2*n_max
            term = [gen_j_like(t, s, k) for k in range(2 * n_max + 1)].__getitem__
            for n in range(n_max + 1):
                for m in range(n_max + 1):
                    for identity in IDENTITIES:
                        try:
                            _check_indices(identity, n, m)
                        except InvalidIndices:
                            skipped += 1
                            continue
                        checked += 1
                        lhs, rhs = _SIDES[identity](term, st, n, m)
                        if lhs != rhs:
                            failures.append(IdentityReport(identity, family, r, s, n, m, lhs, rhs))
    return SweepSummary(family, checked, skipped, tuple(failures))
