"""Seeded property checks shared by the CLI verifier and the test suite.

Every check here is exact: violations compare Fractions, never floats. A
check group states its checks as a generator `check(seed, inst)` that yields
one item per check: None for a pass, or the failure's text. The driver
`_checked` builds each seed's family instance once, counts every item, and
writes each failure as a line with the seed and the instance JSON, to be
replayed directly. Trial bids are priced by `Bids.trials`, so no check reads
a standing: it scans a column's rivals once per call and decides each trial
bid in O(1). The equilibrium families keep their own loops: they count runs
and floor checks, and the single-bidder family skips seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .bestresponse import (best_response_against_bids, best_response_oracle,
                           quasilinear_best_bid_check)
from .equilibrium import EquilibriumReport, core_auctions, diagnostics, run_dynamics
from .instances import RandomFamilyParams, instance_to_json, random_instance
from .mechanisms import (Bids, GlobalCostMultiplier, MechanismSpec, SecondPrice,
                         compute_auction_params, compute_bidder_params,
                         calibrate_single_bidder, mechanism_from_label, mechanism_label,
                         min_winning_bid, run_all)
from .model import Instance, MultiplierProfile, ZERO, optimal_welfare, welfare

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
FAMILY_ZERO_COST = Fraction(1, 8)
SEED_LIMIT = 100000  # zero-optimum seeds single_bidder_family skips before giving up


def family_instance(seed: int, *, zero_cost_probability: Fraction = FAMILY_ZERO_COST,
                    num_bidders: int | None = None) -> Instance:
    """Small seeded quarter-grid instance; shape (1..4 x 1..4) is derived from the seed."""
    n = num_bidders if num_bidders is not None else 1 + seed % 4
    m = 1 + (seed // 4) % 4
    return random_instance(RandomFamilyParams(
        num_bidders=n, num_auctions=m, seed=seed,
        zero_cost_probability=zero_cost_probability))


def probe_profile(seed: int, num_bidders: int) -> MultiplierProfile:
    """Deterministic rival multipliers cycling through 1, 3/2, 2."""
    choices = (Fraction(1), Fraction(3, 2), Fraction(2))
    return MultiplierProfile(tuple(choices[(seed + i) % 3] for i in range(num_bidders)))


def standard_specs(inst: Instance) -> list[MechanismSpec]:
    specs: list[MechanismSpec] = [
        SecondPrice(),
        GlobalCostMultiplier(Fraction(1)),
        GlobalCostMultiplier(Fraction(1, 2)),
        compute_auction_params(inst),
        compute_bidder_params(inst),
    ]
    if inst.num_bidders == 1:
        specs.append(calibrate_single_bidder(inst))
    return specs


def _describe(seed: int, inst: Instance, detail: str) -> str:
    return f"seed={seed} {detail} instance={json.dumps(instance_to_json(inst))}"


@dataclass
class FamilyStats:
    runs: int = 0
    converged: int = 0
    verified: int = 0
    bound_checked: int = 0
    violations: list[str] = field(default_factory=list)

    def settled(self, report: EquilibriumReport) -> bool:
        """Count one run; True (and floor-checked) when it converged and verified."""
        self.runs += 1
        self.converged += report.converged
        self.verified += report.verified
        settled = report.converged and report.verified
        self.bound_checked += settled
        return settled


def equilibrium_family(kind: str, seeds: Iterable[int], *, welfare_floor: Fraction,
                       zero_cost_probability: Fraction = FAMILY_ZERO_COST) -> FamilyStats:
    """Run dynamics per seed; converged-and-verified runs must reach
    welfare >= welfare_floor * opt, exactly."""
    stats = FamilyStats()
    for seed in seeds:
        inst = family_instance(seed, zero_cost_probability=zero_cost_probability)
        spec = mechanism_from_label(kind, inst)
        report = run_dynamics(inst, spec)
        if stats.settled(report) and report.welfare < welfare_floor * report.opt:
            stats.violations.append(_describe(
                seed, inst,
                f"{kind}: welfare {report.welfare} < {welfare_floor} * opt {report.opt}"))
    return stats


def single_bidder_family(count: int, *, start_seed: int = 0) -> FamilyStats:
    """Calibrated single-bidder markets with positive optimum: dynamics must
    converge to a verified equilibrium with welfare exactly optimal."""
    stats = FamilyStats()
    seed = start_seed
    while stats.runs < count:
        if seed - start_seed - stats.runs >= SEED_LIMIT:
            raise RuntimeError("could not find enough positive-optimum seeds")
        inst = family_instance(seed, num_bidders=1)
        seed += 1
        if optimal_welfare(inst) <= 0:
            continue
        spec = calibrate_single_bidder(inst)
        report = run_dynamics(inst, spec)
        if not stats.settled(report):
            stats.violations.append(_describe(seed - 1, inst, "single-bidder: did not settle"))
        elif report.poa != 1:
            stats.violations.append(_describe(
                seed - 1, inst, f"single-bidder: poa {report.poa} != 1"))
    return stats


@dataclass
class CheckStats:
    checks: int = 0
    violations: list[str] = field(default_factory=list)


def _checked(seeds: Iterable[int], check: Callable[[int, Instance], Iterator[str | None]],
             *, num_bidders: int | None = None) -> CheckStats:
    """Count every item `check(seed, inst)` yields on each seed's family instance."""
    stats = CheckStats()
    for seed in seeds:
        inst = family_instance(seed, num_bidders=num_bidders)
        for failure in check(seed, inst):
            stats.checks += 1
            if failure is not None:
                stats.violations.append(_describe(seed, inst, failure))
    return stats


def accounting_checks(seeds: Iterable[int]) -> CheckStats:
    """Bidder-dependent welfare accounting on seeded instances.

    Per instance (bid-independent): each bidder's core auctions retain at
    least half the value-minus-cost of its rightful auctions. Per tested
    profile (truthful, plus the converged equilibrium when it is verified):
    max(core_welfare, payment_surplus) <= realized welfare. Both profiles are
    ROI-feasible: no truthful winner pays more than its value, and
    verification includes every bidder's ROI constraint.
    """
    def check(seed: int, inst: Instance) -> Iterator[str | None]:
        spec = compute_bidder_params(inst)

        for i, core in enumerate(core_auctions(inst, spec)):
            margins = {j: inst.values[i][j] - inst.costs[i][j]
                       for j in spec.rightful_auctions[i]}
            core_total = sum((margins[j] for j in core), ZERO)
            full_total = sum(margins.values(), ZERO)
            yield (f"bidder {i}: core value {core_total} < half of {full_total}"
                   if 2 * core_total < full_total else None)

        truthful = MultiplierProfile.uniform(inst.num_bidders)
        outcome = run_all(spec, inst, truthful)
        evaluated = [(truthful, diagnostics(inst, spec, truthful, outcome),
                      welfare(inst, outcome))]
        report = run_dynamics(inst, spec)
        if report.converged and report.verified:
            evaluated.append((report.profile, report.diagnostics, report.welfare))
        for profile, diag, realized in evaluated:
            yield (f"profile {[str(t) for t in profile.multipliers]}: "
                   f"bounds ({diag.core_welfare}, {diag.payment_surplus}) "
                   f"exceed welfare {realized}"
                   if diag.core_welfare > realized or diag.payment_surplus > realized
                   else None)
    return _checked(seeds, check)


def truthfulness_probes(seeds: Iterable[int], *, single_bidder: bool = False) -> CheckStats:
    """Bidding the true value must be a per-auction quasilinear best response
    against fixed rival bids, for every mechanism and every probe."""
    def check(seed: int, inst: Instance) -> Iterator[str | None]:
        profile = probe_profile(seed, inst.num_bidders)
        specs = ([calibrate_single_bidder(inst)] if single_bidder
                 else standard_specs(inst))
        for spec in specs:
            bids = Bids(spec, inst, profile)
            for j in range(inst.num_auctions):
                for i in range(inst.num_bidders):
                    yield (f"{mechanism_label(spec)}: auction {j} bidder {i} "
                           f"prefers deviating from its value"
                           if not quasilinear_best_bid_check(inst, spec, j, i, bids) else None)
    return _checked(seeds, check, num_bidders=1 if single_bidder else None)


def myerson_checks(seeds: Iterable[int]) -> CheckStats:
    """Winner's payment must equal the threshold value, the winning bid b must
    clear the threshold, and b + 1 and 2b + 1 must win, priced by `Bids.trials`."""
    def check(seed: int, inst: Instance) -> Iterator[str | None]:
        profiles = (MultiplierProfile.uniform(inst.num_bidders),
                    probe_profile(seed, inst.num_bidders))
        # Specs outside: an instance keeps only the last `Market` built on it.
        for spec in standard_specs(inst):
            for profile in profiles:
                bids = Bids(spec, inst, profile)
                mk, outcome = bids.market, bids.outcome()
                for j, winner in enumerate(outcome.winners):
                    if winner is None:
                        continue
                    p, q, d = bids.nums[j][winner], bids.dens[j][winner], mk.scale[j]
                    t = min_winning_bid(bids, j, winner)
                    if t.value != outcome.prices[j] or not t.admits(Fraction(p, q * d)):
                        yield (f"{mechanism_label(spec)}: auction {j} payment "
                               f"{outcome.prices[j]} vs threshold {t}")
                        continue
                    raised = [(p + q * d, q), (2 * p + q * d, q)]
                    for (bid, _), price in zip(raised, bids.trials(j, winner, raised)):
                        if price is None:
                            yield (f"{mechanism_label(spec)}: auction {j} winner {winner} "
                                   f"lost after raising its bid to {Fraction(bid, q * d)}")
                            break
                    else:
                        yield None
    return _checked(seeds, check)


def oracle_agreement(seeds: Iterable[int]) -> CheckStats:
    """The exact best response and the brute-force oracle must attain the
    same total value (the chosen multipliers may differ)."""
    def check(seed: int, inst: Instance) -> Iterator[str | None]:
        profile = probe_profile(seed, inst.num_bidders)
        bidder = seed % inst.num_bidders
        for spec in standard_specs(inst):
            bids = Bids(spec, inst, profile)
            exact = best_response_against_bids(inst, spec, bidder, bids)
            sampled = best_response_oracle(inst, spec, bidder, bids)
            yield (f"{mechanism_label(spec)}: bidder {bidder} exact value "
                   f"{exact.total_value} (theta {exact.multiplier}) vs sampled "
                   f"{sampled.total_value} (theta {sampled.multiplier})"
                   if exact.total_value != sampled.total_value else None)
    return _checked(seeds, check)


def welfare_cap_checks(seeds: Iterable[int]) -> CheckStats:
    """No outcome may exceed the optimal welfare."""
    def check(seed: int, inst: Instance) -> Iterator[str | None]:
        cap = optimal_welfare(inst)
        for spec in standard_specs(inst):
            for profile in (MultiplierProfile.uniform(inst.num_bidders),
                            probe_profile(seed, inst.num_bidders)):
                yield (f"{mechanism_label(spec)}: welfare exceeds optimum"
                       if welfare(inst, run_all(spec, inst, profile)) > cap else None)
    return _checked(seeds, check)


# Floored equilibrium families of `arena verify`: (label, kind, floor, zero-cost probability).
FAMILIES = (
    ("second-price (zero-cost family), floor 1/2", "second-price", HALF, Fraction(1)),
    ("auction-dep, floor 1/2", "auction-dep", HALF, FAMILY_ZERO_COST),
    ("bidder-dep, floor 1/4", "bidder-dep", QUARTER, FAMILY_ZERO_COST),
)


@dataclass
class VerifySummary:
    lines: list[str]
    violations: list[str]


def run_verify_suite(seed_count: int) -> VerifySummary:
    """The fixed property sweep behind `arena verify`: the floored
    families, the calibrated single-bidder family, then six check groups."""
    lines: list[str] = []
    violations: list[str] = []
    seeds = range(seed_count)
    probe = range(min(seed_count, 150))
    families = [(label, equilibrium_family(kind, seeds, welfare_floor=floor,
                                           zero_cost_probability=zero_cost))
                for label, kind, floor, zero_cost in FAMILIES]
    families.append(("single-bidder, exact optimum", single_bidder_family(seed_count)))
    for label, stats in families:
        lines.append(f"equilibria [{label}]: runs={stats.runs} converged={stats.converged} "
                     f"verified={stats.verified} floor-checked={stats.bound_checked} "
                     f"violations={len(stats.violations)}")
        violations.extend(stats.violations)

    for name, stats in (
        ("welfare accounting", accounting_checks(seeds)),
        ("truthfulness", truthfulness_probes(probe)),
        ("single-bidder truthfulness", truthfulness_probes(probe, single_bidder=True)),
        ("payment = threshold", myerson_checks(probe)),
        ("oracle agreement", oracle_agreement(range(min(seed_count, 120)))),
        ("welfare cap", welfare_cap_checks(seeds)),
    ):
        lines.append(f"{name}: checks={stats.checks} violations={len(stats.violations)}")
        violations.extend(stats.violations)

    return VerifySummary(lines, violations)
