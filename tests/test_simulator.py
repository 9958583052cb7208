from fractions import Fraction as F

import pytest

from cmexpand.engine import ExpansionRatio, expand
from cmexpand.errors import EmptySystem, NoBracketCluster, NonConvergent
from cmexpand.simulator import ledger_init, ledger_step, simulate

HALF = ExpansionRatio(1, 2)
TWO_THIRDS = ExpansionRatio(2, 3)


def run_with_conservation_checks(m0, m1, ratio, steps):
    """Step a ledger by hand, asserting both conservation laws after every move."""
    ledger = ledger_init(m0, m1)
    estimates = []
    for _ in range(steps):
        if ledger.current_estimate == ledger.target_cm:
            break
        record = ledger_step(ledger, ratio)
        estimates.append(record.destination)
        assert ledger.cm() == ledger.target_cm
        assert sum(c.mass for c in ledger.clusters()) == ledger.total_mass
        assert all(c.mass > 0 for c in ledger.clusters())
    return estimates


class TestLedgerInit:
    def test_basic(self):
        ledger = ledger_init(2, 1)
        assert ledger.target_cm == F(1, 3)
        assert ledger.current_estimate == 0
        assert ledger.total_mass == 3

    def test_tie_starts_at_zero(self):
        ledger = ledger_init(1, 1)
        assert ledger.target_cm == F(1, 2)
        assert ledger.current_estimate == 0

    def test_empty_system(self):
        with pytest.raises(EmptySystem):
            ledger_init(0, 0)
        with pytest.raises(ValueError):
            ledger_init(-1, 2)

    def test_bracketed_real_masses_rejected(self):
        # the ledger is exact-rational only; bracketed constants don't coerce
        from cmexpand.realnum import pi

        with pytest.raises(TypeError):
            ledger_init(pi(), 1)

    def test_all_mass_on_one_side(self):
        result = simulate(0, 5, HALF, 4)
        assert result.terminated and result.estimates == ()


class TestLedgerCm:
    def test_initial(self):
        assert ledger_init(2, 1).cm() == F(1, 3)

    def test_after_first_move(self):
        ledger = ledger_init(2, 1)
        ledger_step(ledger, HALF)
        assert ledger.cm() == F(1, 3)

    def test_single_cluster(self):
        ledger = ledger_init(0, 3)
        assert ledger.cm() == 1


class TestLedgerStep:
    def test_one_third_trace(self):
        assert run_with_conservation_checks(2, 1, HALF, 4) == [F(1, 2), F(1, 4), F(3, 8), F(5, 16)]

    def test_two_thirds_trace(self):
        assert run_with_conservation_checks(4, 1, TWO_THIRDS, 3) == [F(1, 3), F(1, 9), F(7, 27)]

    def test_one_seventh_trace(self):
        expected = [F(1, 2), F(1, 4), F(1, 8), F(3, 16), F(5, 32), F(9, 64), F(19, 128)]
        assert run_with_conservation_checks(6, 1, HALF, 7) == expected

    def test_regular_steps_move_masses_in_weight_ratio(self):
        # once cluster gaps track the ladder (every step after the first),
        # the draw is r : (s - r); the first move spans the whole unit gap
        # and mixes 1 : (s - 1) instead
        ledger = ledger_init(4, 1)
        first = ledger_step(ledger, TWO_THIRDS)
        assert first.bracket_mass / first.estimate_mass == F(1, 2)
        for _ in range(3):
            record = ledger_step(ledger, TWO_THIRDS)
            assert record.bracket_mass / record.estimate_mass == F(2, 1)

    def test_no_bracket_cluster_on_corrupted_ledger(self):
        ledger = ledger_init(1, 1)
        ledger._masses.pop(F(1))
        with pytest.raises(NoBracketCluster):
            ledger_step(ledger, HALF)

    def test_draw_fraction_validation(self):
        ledger = ledger_init(2, 1)
        for bad in (F(0), F(1), F(3, 2)):
            with pytest.raises(ValueError):
                ledger_step(ledger, HALF, draw_fraction=bad)


class TestSimulate:
    def test_terminates_on_exact_hit(self):
        result = simulate(3, 1, HALF, 6)
        assert result.estimates == (F(1, 2), F(1, 4))
        assert result.terminated

    def test_termination_flag_when_steps_run_out(self):
        result = simulate(3, 1, HALF, 2)
        assert result.estimates == (F(1, 2), F(1, 4)) and result.terminated

    def test_zero_steps(self):
        result = simulate(2, 1, HALF, 0)
        assert result.estimates == () and not result.terminated

    def test_scale_invariance(self):
        base = simulate(6, 1, HALF, 7).estimates
        for k in (2, 3, F(7, 2)):
            assert simulate(6 * k, k, HALF, 7).estimates == base

    def test_draw_fraction_invariance(self):
        base = simulate(6, 1, HALF, 7).estimates
        for draw in (F(1, 3), F(2, 3), F(9, 10)):
            assert simulate(6, 1, HALF, 7, draw_fraction=draw).estimates == base

    def test_non_convergent_mirrors_engine(self):
        with pytest.raises(NonConvergent):
            simulate(6, 1, ExpansionRatio(1, 3), 12)
        with pytest.raises(NonConvergent):
            simulate(9, 1, TWO_THIRDS, 12)

    def test_engine_equivalence_spot_grid(self):
        for q in range(3, 13):
            for ratio in (HALF, ExpansionRatio(1, 3), TWO_THIRDS, ExpansionRatio(3, 4)):
                try:
                    run = expand(F(1, q), ratio, "larger", 12)
                    engine_failed = False
                except NonConvergent:
                    engine_failed = True
                try:
                    result = simulate(q - 1, 1, ratio, 12)
                    sim_failed = False
                except NonConvergent:
                    sim_failed = True
                assert engine_failed == sim_failed
                if not engine_failed:
                    assert result.estimates == run.partial_sums[1:]
                    assert result.terminated == run.terminated

    def test_irregular_gap_still_matches_engine(self):
        # 1/7 in powers of 2/3 needs a fractional draw at step 7, where the
        # nearest cluster sits closer than the previous term
        run = expand(F(1, 7), TWO_THIRDS, "larger", 12)
        result = simulate(6, 1, TWO_THIRDS, 12)
        assert result.estimates == run.partial_sums[1:]
