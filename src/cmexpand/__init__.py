"""Exact signed expansions in powers of r/s and the sequence families they generate."""

from .engine import (
    Expansion,
    ExpansionRatio,
    GroupedSeries,
    X0Policy,
    closed_form_partial,
    error_bound,
    expand,
    regroup,
    term_magnitude,
)
from .errors import CmexpandError
from .numerics import QuadraticSurd, finite_complex
from .realnum import Comparison, PrecisionReal, inv_pi, pi, pi_multiple, real_compare
from .sequences import (
    a_continuous,
    a_number,
    gen_j,
    gen_j_like,
    gen_j_like_recurrence,
    gen_j_recurrence,
    gf_coefficients,
    j_continuous,
    jacobsthal,
    lucas_u,
)
from .simulator import MassLedger, ledger_init, ledger_step, simulate
from .targets import parse_target

__version__ = "0.1.0"

__all__ = [
    "CmexpandError",
    "Comparison",
    "Expansion",
    "ExpansionRatio",
    "GroupedSeries",
    "MassLedger",
    "PrecisionReal",
    "QuadraticSurd",
    "X0Policy",
    "a_continuous",
    "a_number",
    "closed_form_partial",
    "error_bound",
    "expand",
    "finite_complex",
    "gen_j",
    "gen_j_like",
    "gen_j_like_recurrence",
    "gen_j_recurrence",
    "gf_coefficients",
    "inv_pi",
    "j_continuous",
    "jacobsthal",
    "ledger_init",
    "ledger_step",
    "lucas_u",
    "parse_target",
    "pi",
    "pi_multiple",
    "real_compare",
    "regroup",
    "simulate",
    "term_magnitude",
]
