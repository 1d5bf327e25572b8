"""The dynamics over kept standings against the from-scratch reference.

`reference_dynamics` runs the same round-robin loop on plain bid rows and
recomputes every threshold from the full column with the per-rule reference,
so each comparison covers the final multipliers, rounds, convergence,
verification, winners and prices, and the welfare, optimum, ratio and
bidder-dependent accounting that the package sums as ints. Runs cut off
after one or two rounds end mid-move, where a standing left stale by a move
would decide the report.
The reference replays every round up to the cap, where `run_dynamics`
jumps ahead once its profile repeats.
"""

import random
from fractions import Fraction

import pytest

import reference_dynamics as ref
from bidarena import bestresponse, equilibrium
from bidarena.bestresponse import best_response_against_bids
from bidarena.cli import parse_gamma_grid, sweep_global
from bidarena.equilibrium import run_dynamics
from bidarena.instances import RandomFamilyParams, counterexample, random_instance
from bidarena.mechanisms import (Bids, GlobalCostMultiplier, SecondPrice, compute_auction_params,
                                 market, mechanism_from_label)
from bidarena.model import Instance, MultiplierProfile
from bidarena.verify import FAMILY_ZERO_COST, family_instance, standard_specs

from conftest import off_grid_instance, row_bids, seeded_market

F = Fraction


def same_report(inst, spec, max_rounds) -> bool:
    return agree(run_dynamics(inst, spec, max_rounds), ref.run_dynamics(inst, spec, max_rounds))


def agree(report, expected) -> bool:
    diag = report.diagnostics
    return (report.profile.multipliers, report.rounds_used, report.converged,
            report.verified, report.outcome.winners, report.outcome.prices,
            report.welfare, report.opt, report.poa,
            diag and (diag.core_auctions, diag.aggressive, diag.conservative,
                      diag.core_welfare, diag.payment_surplus)) == \
        (expected.multipliers, expected.rounds_used, expected.converged,
         expected.verified, expected.winners, expected.prices,
         expected.welfare, expected.opt, expected.poa, expected.diagnostics)


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
    gammas = [gamma for gamma, _ in sweep_global(delta, parse_gamma_grid("0:2:8"))]
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


def two_block_market(seed: int) -> Instance:
    """Bidders 0-2 value only auctions 0-3, and bidders 3-5 only auctions
    4-7, on the quarter grid; auction 8, the last, couples the blocks:
    bidders 2 and 3 value it. Costs fall anywhere, a third of them zero."""
    rng = random.Random(seed)
    values = [[F(0)] * 9 for _ in range(6)]
    for i in range(6):
        for j in range(4 * (i // 3), 4 * (i // 3) + 4):
            values[i][j] = F(rng.randrange(0, 13), 4)
    values[2][8], values[3][8] = F(rng.randrange(1, 13), 4), F(rng.randrange(1, 13), 4)
    costs = [[F(0) if rng.random() < 1 / 3 else F(rng.randrange(1, 9), 4) for _ in range(9)]
             for _ in range(6)]
    return Instance(tuple(map(tuple, values)), tuple(map(tuple, costs)))


def test_dynamics_match_reference_when_bidders_share_some_auctions(monkeypatch):
    # A move keeps the replies of the bidders that value none of the mover's
    # auctions; each run computes exactly the replies the reference's replay
    # counts, and some kept replies outlive another bidder's move.
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return best_response(*args)

    best_response = equilibrium.best_response_against_bids
    monkeypatch.setattr(equilibrium, "best_response_against_bids", counted)
    mismatches, reused = [], 0
    for seed in range(12):
        inst = two_block_market(seed)
        assert inst.rivals[2] == (0, 1, 3) and inst.rivals[3] == (2, 4, 5)
        for spec in standard_specs(inst):
            for rounds in (1, 2, 50):
                calls = 0
                report = run_dynamics(inst, spec, rounds)
                expected = ref.run_dynamics(inst, spec, rounds)
                if not agree(report, expected) or report.converged and calls != expected.computed:
                    mismatches.append((seed, spec, rounds))
                reused += expected.reused_past_a_move
    assert mismatches == []
    assert reused > 0


def test_dynamics_match_reference_past_a_cycle():
    # Odd caps end a cycle at each of its phases. The zero-cost second-price
    # and auction-dep families hold many short exact cycles.
    compared = mismatches = 0
    for kind, zero_cost in (("second-price", F(1)), ("auction-dep", FAMILY_ZERO_COST)):
        for seed in range(200):
            inst = family_instance(seed, zero_cost_probability=zero_cost)
            spec = mechanism_from_label(kind, inst)
            for rounds in (3, 5, 7, 10, 11):
                mismatches += not same_report(inst, spec, rounds)
                compared += not run_dynamics(inst, spec, rounds).converged
    assert mismatches == 0
    assert compared >= 100


def test_a_cycle_is_fast_forwarded_to_the_cap(monkeypatch):
    # Round 1 reaches (1, 5/2), round 2 (5/4, 25/8), and round 3 (1, 5/2)
    # again, so the run stops after three rounds at the cap's profile.
    inst = family_instance(25, zero_cost_probability=F(1))
    calls = []

    def counted(*args):
        calls.append(args[2])
        return best_response(*args)

    best_response = equilibrium.best_response_against_bids
    monkeypatch.setattr(equilibrium, "best_response_against_bids", counted)
    report = run_dynamics(inst, SecondPrice(), 50)
    assert report.profile.multipliers == (F(5, 4), F(25, 8))
    assert (report.rounds_used, report.converged, report.verified) == (50, False, False)
    # Three rounds of two best responses, then verification stops at bidder 0.
    assert calls == [0, 1] * 3 + [0]
    for rounds in (3, 4, 50, 51):
        assert same_report(inst, SecondPrice(), rounds)


def test_an_auction_the_bidder_can_never_win_is_never_read(monkeypatch):
    # Auction 0's rightful winner, bidder 0, has zero cost, so auction-dep
    # gives the auction an infinite alpha, and bidder 1, whose cost there is
    # positive, an infinite reserve: it values auction 0 but can never win it.
    # (Bidder 0's reserve is half its own value.)
    inst = Instance.from_rows([[2, 1], [3, 2]], [[0, 0], [1, "1/2"]])
    spec = compute_auction_params(inst)
    assert market(spec, inst).reserves[0] == [1, None]
    reads = []

    def counted(bids, auction, bidder):
        reads.append((auction, bidder))
        return read(bids, auction, bidder)

    read = bestresponse.min_winning_bid
    monkeypatch.setattr(bestresponse, "min_winning_bid", counted)
    for rows in (inst.values, [[F(3), F(1)], [F(1), F(5)]]):
        reads.clear()
        reply = best_response_against_bids(inst, spec, 1, row_bids(spec, inst, rows))
        assert reads == [(1, 1)]
        assert reply == ref.best_response(inst, spec, 1, [list(row) for row in rows])
    # A move still stores the bid where the mover can never win, and leaves
    # every standing as a fresh scan of the moved rows finds it.
    bids = Bids(spec, inst, MultiplierProfile.uniform(2))
    bids.move(1, F(7, 3))
    moved = [inst.values[0], tuple(F(7, 3) * v for v in inst.values[1])]
    assert bids[1] == moved[1]
    assert bids.standings == row_bids(spec, inst, moved).standings
