"""The sorted-sweep best response against the candidate x auction loop.

`reference_bestresponse` rescores every candidate multiplier against the
whole threshold table. Every comparison here covers the multiplier, the won
set, the value and the payment, on random quarter-grid bids (where ratios
often tie) and again with every bid moved onto its own threshold (where
non-inclusive thresholds decide who wins a tie). Markets off the quarter
grid, under rivals whose multipliers have long coprime denominators, check
the sweep's integer scaling where every common denominator is large.

The integer brute-force oracle and truthfulness probe are checked against
their `Fraction` versions in `reference_bestresponse`, which resolve every
sample through `run_auction`.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings

import reference_bestresponse as ref
from bidarena.bestresponse import (ResponseResult, best_response_against_bids,
                                   best_response_oracle, quasilinear_best_bid_check,
                                   threshold_table)
from bidarena import mechanisms
from bidarena.mechanisms import (AuctionResult, Bids, GlobalCostMultiplier, SecondPrice,
                                 min_winning_bid)
from bidarena.model import Instance, MultiplierProfile, Outcome, bids_from
from bidarena.verify import probe_profile, standard_specs

from conftest import all_specs, instances_with_profiles, row_bids, seeded_market


def at_thresholds(spec, inst, bid_rows):
    """Each bid replaced by its bidder's threshold against the original
    column, where that threshold is finite."""
    moved = [list(row) for row in bid_rows]
    bids = row_bids(spec, inst, bid_rows)
    for j in range(inst.num_auctions):
        for i in range(inst.num_bidders):
            t = min_winning_bid(bids, j, i)
            if t.value is not None:
                moved[i][j] = t.value
    return moved


def stops_with_rows_left(table) -> bool:
    """Whether the sweep meets an infeasible candidate before it has added
    every row. The candidates' won sets grow, so this is whether the rows
    below the largest ratio, when that ratio is above 1, cost more than they
    are worth."""
    top = max((r for r, _, _, _ in table), default=None)
    if top is None or top <= 1:
        return False
    below = [(t.value, v) for r, _, t, v in table if r < top]
    return sum(t for t, _ in below) > sum(v for _, v in below)


def test_sweep_matches_reference_loop():
    problems = tied = non_inclusive = early = 0
    for seed in range(150):
        inst, bids = seeded_market(seed)
        for spec in standard_specs(inst):
            for rows in (bids, at_thresholds(spec, inst, bids)):
                bid_rows = row_bids(spec, inst, rows)
                for bidder in range(inst.num_bidders):
                    assert best_response_against_bids(inst, spec, bidder, bid_rows) == \
                        ref.best_response_against_bids(inst, spec, bidder, bid_rows)
                    problems += 1
                    table = threshold_table(inst, spec, bidder, bid_rows)
                    ratios = [r for r, _, _, _ in table]
                    tied += len(set(ratios)) < len(ratios)
                    non_inclusive += any(not t.inclusive for _, _, t, _ in table)
                    early += stops_with_rows_left(table)
    assert problems > 3000
    # The cases where the two routes could part: ratios shared by several
    # auctions, thresholds that an equal bid does not clear, and sweeps that
    # stop at an infeasible candidate with rows left.
    assert tied > 200
    assert non_inclusive > 1000
    assert early > 1000


def test_sweep_stops_at_the_first_infeasible_candidate():
    # Second price against a rival bidding 1, 3 and 7/2: bidder 0's ratios
    # are 1/2, 3 and 7/2. Multiplier 1 wins auction 0 (value 2, payment 1);
    # adding auction 1 costs 3 for value 1, which breaks ROI, so the sweep
    # stops there with auction 2 unread, and the reply wins auction 0 alone.
    inst = Instance.from_rows([[2, 1, 1], [1, 3, "7/2"]], [[0, 0, 0], [0, 0, 0]])
    spec = SecondPrice()
    bids = Bids(spec, inst, MultiplierProfile.uniform(2))
    table = threshold_table(inst, spec, 0, bids)
    assert [r for r, _, _, _ in table] == [Fraction(1, 2), 3, Fraction(7, 2)]
    assert stops_with_rows_left(table)
    got = best_response_against_bids(inst, spec, 0, bids)
    assert got == ResponseResult(Fraction(1), frozenset({0}), Fraction(2), Fraction(1))
    assert got == ref.best_response_against_bids(inst, spec, 0, bids)


def off_grid_market(seed):
    """Values and costs p/q with q <= 9 (about a fifth of them zero), and
    a profile whose multipliers have pairwise coprime denominators of 10 to
    20 digits."""
    rng = random.Random(seed)
    n, m = rng.randint(1, 5), rng.randint(1, 8)

    def entry():
        return Fraction(0) if rng.random() < 0.2 else \
            Fraction(rng.randint(1, 30), rng.randint(1, 9))

    inst = Instance(tuple(tuple(entry() for _ in range(m)) for _ in range(n)),
                    tuple(tuple(entry() for _ in range(m)) for _ in range(n)))
    dens = []
    while len(dens) < n:
        den = rng.randrange(10 ** 9, 10 ** rng.randint(10, 20))
        if all(gcd(den, other) == 1 for other in dens):
            dens.append(den)
    return inst, MultiplierProfile(tuple(1 + Fraction(rng.randrange(den), den) for den in dens))


def test_integer_sweep_matches_reference_off_the_grid():
    problems = long_b = scaled_d = scaled_w = tied = 0
    for seed in range(120):
        inst, profile = off_grid_market(seed)
        rows = bids_from(profile, inst)
        for spec in all_specs(inst):
            for bid_rows in (Bids(spec, inst, profile),
                             row_bids(spec, inst, at_thresholds(spec, inst, rows))):
                for bidder in range(inst.num_bidders):
                    got = best_response_against_bids(inst, spec, bidder, bid_rows)
                    want = ref.best_response_against_bids(inst, spec, bidder, bid_rows)
                    assert (got.multiplier, got.won_auctions, got.total_value,
                            got.total_payment) == \
                        (want.multiplier, want.won_auctions, want.total_value,
                         want.total_payment)
                    problems += 1
                    # The common denominators the sweep scales by.
                    table = threshold_table(inst, spec, bidder, bid_rows)
                    d = lcm(*[v.denominator for _, _, _, v in table])
                    w = lcm(*[(v * d).numerator for _, _, _, v in table])
                    long_b += lcm(*[t.value.denominator for _, _, t, _ in table]) > 10 ** 20
                    scaled_d += d > 1
                    scaled_w += w > 1 and len(table) > 1
                    ratios = [r for r, _, _, _ in table]
                    tied += len(set(ratios)) < len(ratios)
    assert problems > 4000
    # Cases where every scale is nontrivial: B past 20 digits, D above 1,
    # and W above 1 over two or more rows; and ratios that tie.
    assert long_b > 1500
    assert scaled_d > 3000
    assert scaled_w > 2500
    assert tied > 500



def oracle_cases(seeds):
    """(inst, spec, bidder, Bids) for every spec and bidder of each seeded
    market, under the `verify` probe profile and under random quarter-grid
    rows."""
    for seed in seeds:
        inst, random_rows = seeded_market(seed)
        for spec in all_specs(inst):
            for bids in (Bids(spec, inst, probe_profile(seed, inst.num_bidders)),
                         row_bids(spec, inst, random_rows)):
                for bidder in range(inst.num_bidders):
                    yield inst, spec, bidder, bids


def test_integer_oracle_matches_reference_oracle():
    problems = stretched = 0
    for inst, spec, bidder, bids in oracle_cases(range(50)):
        got = best_response_oracle(inst, spec, bidder, bids)
        want = ref.best_response_oracle(inst, spec, bidder, bids)
        assert (got.multiplier, got.won_auctions, got.total_value, got.total_payment) == \
            (want.multiplier, want.won_auctions, want.total_value, want.total_payment)
        problems += 1
        stretched += want.multiplier > 1 and want.total_payment > 0
    assert problems > 1400
    # Replies that bid above value and pay for what they win.
    assert stretched > 200


@settings(max_examples=25, deadline=None)
@given(instances_with_profiles())
def test_integer_oracle_matches_reference_on_small_instances(pair):
    inst, profile = pair
    for spec in all_specs(inst):
        bids = Bids(spec, inst, profile)
        for bidder in range(inst.num_bidders):
            got = best_response_oracle(inst, spec, bidder, bids)
            want = ref.best_response_oracle(inst, spec, bidder, bids)
            assert (got.multiplier, got.won_auctions, got.total_value, got.total_payment) == \
                (want.multiplier, want.won_auctions, want.total_value, want.total_payment)


@pytest.mark.parametrize("pricing", ["kernel", "first price"])
def test_integer_probe_matches_reference_probe(pricing, request):
    # The kernel's pricing is truthful, so every verdict is True. Under first
    # price (every winner pays its own bid) shading pays, and many are False.
    if pricing == "first price":
        request.getfixturevalue("first_price")
    columns = rejected = 0
    for seed in range(60):
        inst, random_rows = seeded_market(seed)
        probe = probe_profile(seed, inst.num_bidders)
        for spec in all_specs(inst):
            cases = [(Bids(spec, inst, probe), bids_from(probe, inst))]
            cases += [(row_bids(spec, inst, rows), rows)
                      for rows in (random_rows, at_thresholds(spec, inst, random_rows))]
            for bids, rows in cases:
                for j in range(inst.num_auctions):
                    column = [rows[i][j] for i in range(inst.num_bidders)]
                    columns += 1
                    for bidder in range(inst.num_bidders):
                        verdict = quasilinear_best_bid_check(inst, spec, j, bidder, bids)
                        assert verdict == \
                            ref.quasilinear_best_bid_check(inst, spec, j, bidder, column)
                        rejected += not verdict
    assert columns > 2500
    assert (rejected > 1000) if pricing == "first price" else rejected == 0


@pytest.mark.parametrize("values, winner, inclusive", [([3, 1], 0, True), ([1, 3], 1, False)])
def test_price_at_an_exact_reserve_tie(values, winner, inclusive):
    # Under global:1 with unit costs the winner's reserve 1 equals its cost
    # share 1 plus the rival's score 1 - 1 = 0: both sides of the price rule
    # max(r, s + rival score) are 1. A bid of exactly 1 ties the rival's
    # score, so it wins only for the lower index.
    inst = Instance.from_rows([[v] for v in values], [[1], [1]])
    spec = GlobalCostMultiplier(Fraction(1))
    bids = Bids(spec, inst, MultiplierProfile.uniform(2))
    t = min_winning_bid(bids, 0, winner)
    assert (t.value, t.inclusive) == (1, inclusive)
    assert bids.outcome() == Outcome((winner,), (Fraction(1),))
    column = [Fraction(v) for v in values]
    assert mechanisms.run_auction(spec, inst, 0, column) == AuctionResult(winner, t.value)
    # The integer oracle and probe price through the kernel's `_price`; their
    # Fraction references go through `run_auction`.
    got = best_response_oracle(inst, spec, winner, bids)
    want = ref.best_response_oracle(inst, spec, winner, bids)
    assert got == want and got.total_payment == t.value
    assert quasilinear_best_bid_check(inst, spec, 0, winner, bids) is True
    assert ref.quasilinear_best_bid_check(inst, spec, 0, winner, column) is True


def test_price_at_a_reserve_tie_against_a_rival_pair_over_two():
    # The rival's value 2/3 (scale 3) at multiplier 3/2 is the pair (6, 2): a
    # bid of 1 over a denominator that is not 1, with score 0 at its cost 1.
    # The winner's price still reads 1, now from the rival side of the rule.
    inst = Instance.from_rows([[3], ["2/3"]], [[1], [1]])
    spec = GlobalCostMultiplier(Fraction(1))
    bids = Bids(spec, inst, MultiplierProfile.uniform(2))
    bids.move(1, Fraction(3, 2))
    top = bids.standings[0]
    assert top[1] == (0, 2, 1)
    pay, q = mechanisms._price(bids.market, 0, top)
    assert Fraction(pay, q * bids.market.scale[0]) == 1
    t = min_winning_bid(bids, 0, 0)
    assert (t.value, t.inclusive) == (1, True)
    assert bids.outcome() == Outcome((0,), (Fraction(1),))
    assert best_response_oracle(inst, spec, 0, bids) == ref.best_response_oracle(inst, spec, 0, bids)
