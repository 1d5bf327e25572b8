"""The dynamics over kept standings against the from-scratch reference.

`reference_dynamics` runs the same round-robin loop on plain bid rows and
recomputes every threshold from the full column with the per-rule reference,
so each comparison covers the final multipliers, rounds, convergence,
verification, winners and prices. Runs cut off after one or two rounds end
mid-move, where a standing left stale by a move would decide the report.
"""

from fractions import Fraction

import pytest

import reference_dynamics as ref
from bidarena.cli import parse_gamma_grid, sweep_global
from bidarena.equilibrium import run_dynamics
from bidarena.instances import RandomFamilyParams, counterexample, random_instance
from bidarena.mechanisms import (GlobalCostMultiplier, compute_auction_params,
                                 mechanism_from_label)
from bidarena.verify import standard_specs

from conftest import off_grid_instance, seeded_market

F = Fraction


def same_report(inst, spec, max_rounds) -> bool:
    report = run_dynamics(inst, spec, max_rounds)
    expected = ref.run_dynamics(inst, spec, max_rounds)
    return (report.profile.multipliers, report.rounds_used, report.converged,
            report.verified, report.outcome.winners, report.outcome.prices) == \
        (expected.multipliers, expected.rounds_used, expected.converged,
         expected.verified, expected.winners, expected.prices)


def test_dynamics_match_reference_on_family_instances():
    # Seeds 74 and 95 are among those where the second place of a standing
    # is tied and its lowest index decides a best response.
    mismatches = [(seed, spec, rounds)
                  for seed in range(100)
                  for inst, _ in [seeded_market(seed)]
                  for spec in standard_specs(inst)
                  for rounds in (1, 2, 50)
                  if not same_report(inst, spec, rounds)]
    assert mismatches == []


@pytest.mark.parametrize("label", ["second-price", "global:1", "auction-dep", "bidder-dep"])
def test_dynamics_match_reference_on_a_seeded_market(label):
    inst = random_instance(RandomFamilyParams(num_bidders=6, num_auctions=30, seed=11))
    spec = mechanism_from_label(label, inst)
    for rounds in (1, 2, 6):
        assert same_report(inst, spec, rounds)


def test_dynamics_match_reference_across_the_sweep():
    delta = F(1, 8)
    inst = counterexample(delta)
    gammas = [row.gamma for row in sweep_global(delta, parse_gamma_grid("0:2:8"))]
    assert len(gammas) > 10
    for gamma in gammas:
        assert same_report(inst, GlobalCostMultiplier(gamma), 50), gamma


def test_dynamics_match_reference_off_the_grid():
    # Values and costs p/q for q <= 9. Every move gives the mover's bids a
    # new denominator, so the bids of one column soon differ in it, and the
    # kept standings compare them by cross-multiplying.
    mismatches = [(seed, spec, rounds)
                  for seed in range(40)
                  for inst in [off_grid_instance(seed)]
                  for spec in standard_specs(inst)
                  for rounds in (1, 2, 12)
                  if not same_report(inst, spec, rounds)]
    assert mismatches == []
    # Runs that end with two or more distinct multiplier denominators.
    mixed = sum(len({t.denominator for t in run_dynamics(inst, spec, 12).profile.multipliers}) > 1
                for seed in range(40) for inst in [off_grid_instance(seed)]
                for spec in standard_specs(inst))
    assert mixed > 35


def test_dynamics_match_reference_with_half_value_reserves():
    # Many zero costs give auction-dep infinite alphas, whose zero-cost
    # reserves are half the rightful winner's value, and auctions that
    # nobody may win.
    for seed in range(60):
        inst = off_grid_instance(seed, zero_share=0.45)
        for rounds in (1, 2, 12):
            assert same_report(inst, compute_auction_params(inst), rounds), (seed, rounds)


def test_dynamics_match_reference_on_a_sparse_market():
    # Each auction has one bidder with a nonzero value or cost; the other
    # eleven bid zero on the auction's zero-cost terms.
    delta = F(1, 12)
    inst = counterexample(delta)
    for gamma in (F(0), F(1, 2), 1 + delta, 1 + delta ** 3, 1 + delta ** 12, F(2)):
        for rounds in (1, 2, 50):
            assert same_report(inst, GlobalCostMultiplier(gamma), rounds), (gamma, rounds)
