"""Mass-ledger oracle: the physical mass-moving procedure behind the engine.

Masses sit at exact rational positions on [0, 1].  One step draws mass from
the cluster at the current estimate and from a cluster on the target side,
in the unique proportion that puts their joint center of mass at the next
ladder estimate.  Total mass and the global center of mass are conserved
exactly, so the ledger is an independent check on the expansion engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import ExpansionRatio, error_bound, term_magnitude
from .errors import EmptySystem, NoBracketCluster, NonConvergent

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class MassCluster:
    position: Fraction
    mass: Fraction


@dataclass(frozen=True)
class StepRecord:
    """One move: masses drawn from the two source clusters and their landing point."""

    index: int
    bracket_position: Fraction
    bracket_mass: Fraction
    estimate_position: Fraction
    estimate_mass: Fraction
    destination: Fraction


class MassLedger:
    """Mutable arrangement of point masses with a conserved center of mass."""

    def __init__(self, masses: dict[Fraction, Fraction], target_cm: Fraction, estimate: Fraction):
        self._masses = dict(masses)
        self.total_mass = sum(masses.values(), Fraction(0))
        self.target_cm = target_cm
        self.current_estimate = estimate
        self.steps_taken = 0

    def clusters(self) -> tuple[MassCluster, ...]:
        return tuple(
            MassCluster(pos, mass) for pos, mass in sorted(self._masses.items())
        )

    def cm(self) -> Fraction:
        weighted = sum((pos * mass for pos, mass in self._masses.items()), Fraction(0))
        return weighted / self.total_mass

    def mass_at(self, position: Fraction) -> Fraction:
        return self._masses.get(position, Fraction(0))


def ledger_init(mass_at_zero, mass_at_one) -> MassLedger:
    """Two starting clusters at x=0 and x=1; estimate at the larger (ties at 0)."""
    m0, m1 = Fraction(mass_at_zero), Fraction(mass_at_one)
    if m0 < 0 or m1 < 0:
        raise ValueError("masses must be nonnegative")
    if m0 == 0 and m1 == 0:
        raise EmptySystem("no mass anywhere")
    masses = {}
    if m0:
        masses[Fraction(0)] = m0
    if m1:
        masses[Fraction(1)] = m1
    target = m1 / (m0 + m1)
    estimate = Fraction(0) if m0 >= m1 else Fraction(1)
    return MassLedger(masses, target, estimate)


def ledger_step(
    ledger: MassLedger,
    ratio: ExpansionRatio,
    draw_fraction: Fraction = HALF,
) -> StepRecord:
    """Move one ladder step: shift the estimate by the next term magnitude.

    Let b be the estimate's cluster and a the nearest cluster on the target
    side that is at least one term away.  Masses are drawn from a and b in
    the ratio f : (1 - f) with f = term/gap, so their joint CM lands exactly
    at the new estimate; for the regular spacing gap = previous term this is
    the r : (s - r) mix.  The landing point does not depend on how much mass
    is drawn, which is capped at `draw_fraction` of either source so every
    touched cluster stays strictly positive.
    """
    if not 0 < draw_fraction < 1:
        raise ValueError("draw_fraction must lie strictly between 0 and 1")
    b_pos = ledger.current_estimate
    b_mass = ledger.mass_at(b_pos)
    if b_mass <= 0:
        raise NoBracketCluster(f"no mass at the current estimate {b_pos}")
    diff = ledger.target_cm - b_pos
    if diff == 0:
        raise ValueError("estimate already equals the target")
    direction = 1 if diff > 0 else -1

    step_index = ledger.steps_taken + 1
    magnitude = term_magnitude(ratio, step_index)
    side = [
        pos
        for pos, mass in ledger._masses.items()
        if mass > 0 and (pos - b_pos) * direction > 0
    ]
    if not side:
        raise NoBracketCluster(f"no cluster on the target side of {b_pos}")
    reachable = [pos for pos in side if abs(pos - b_pos) >= magnitude]
    if not reachable:
        raise NonConvergent(
            f"step {step_index} of size {magnitude} overshoots every cluster"
        )
    a_pos = min(reachable, key=lambda pos: abs(pos - b_pos))
    a_mass = ledger.mass_at(a_pos)
    gap = abs(a_pos - b_pos)
    f = magnitude / gap
    if f == 1:
        moved_a = draw_fraction * a_mass
        moved_b = Fraction(0)
    else:
        total = draw_fraction * min(a_mass / f, b_mass / (1 - f))
        moved_a = f * total
        moved_b = (1 - f) * total
    destination = b_pos + direction * magnitude

    masses = ledger._masses
    masses[a_pos] = a_mass - moved_a
    masses[b_pos] = masses[b_pos] - moved_b
    masses[destination] = masses.get(destination, Fraction(0)) + moved_a + moved_b
    ledger.current_estimate = destination
    ledger.steps_taken = step_index
    return StepRecord(
        index=step_index,
        bracket_position=a_pos,
        bracket_mass=moved_a,
        estimate_position=b_pos,
        estimate_mass=moved_b,
        destination=destination,
    )


@dataclass(frozen=True)
class SimulationResult:
    estimates: tuple[Fraction, ...]
    terminated: bool
    records: tuple[StepRecord, ...]
    ledger: MassLedger


def simulate(
    mass_at_zero,
    mass_at_one,
    ratio: ExpansionRatio,
    steps: int,
    draw_fraction: Fraction = HALF,
) -> SimulationResult:
    """Run the ledger for up to `steps` moves, stopping early on an exact hit.

    Applies the same reachability bound as the engine, so configurations
    the ladder cannot serve fail with NonConvergent on both routes.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    ledger = ledger_init(mass_at_zero, mass_at_one)
    if abs(ledger.target_cm - ledger.current_estimate) > error_bound(ratio, 0):
        raise NonConvergent("initial gap exceeds the total ladder sum")
    estimates: list[Fraction] = []
    records: list[StepRecord] = []
    terminated = False
    for _ in range(steps):
        if ledger.current_estimate == ledger.target_cm:
            terminated = True
            break
        record = ledger_step(ledger, ratio, draw_fraction)
        estimates.append(record.destination)
        records.append(record)
        if abs(ledger.target_cm - record.destination) > error_bound(ratio, ledger.steps_taken):
            raise NonConvergent(
                f"remaining terms after step {ledger.steps_taken} cannot reach the target"
            )
    else:
        if ledger.current_estimate == ledger.target_cm:
            terminated = True
    return SimulationResult(tuple(estimates), terminated, tuple(records), ledger)
