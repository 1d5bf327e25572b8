"""The sorted-sweep best response against the candidate x auction loop.

`reference_bestresponse` rescores every candidate multiplier against the
whole threshold table. Every comparison here covers the multiplier, the won
set, the value and the payment, on random quarter-grid bids (where ratios
often tie) and again with every bid moved onto its own threshold (where
non-inclusive thresholds decide who wins a tie).
"""

from fractions import Fraction

import reference_bestresponse as ref
from bidarena.bestresponse import best_response_against_bids, threshold_table
from bidarena.mechanisms import Bids, min_winning_bid, standing
from bidarena.rationals import Infinity
from bidarena.verify import standard_specs

from conftest import seeded_market


def at_thresholds(spec, inst, bid_rows):
    """Each bid replaced by its bidder's threshold against the original
    column, where that threshold is finite."""
    n = inst.num_bidders
    moved = [list(row) for row in bid_rows]
    for j in range(inst.num_auctions):
        top = standing(spec, inst, j, [bid_rows[i][j] for i in range(n)])
        for i in range(n):
            t = min_winning_bid(spec, inst, j, i, top)
            if not isinstance(t.value, Infinity):
                moved[i][j] = t.value
    return moved


def test_sweep_matches_reference_loop():
    problems = tied = non_inclusive = 0
    for seed in range(150):
        inst, bids = seeded_market(seed)
        for spec in standard_specs(inst):
            for rows in (bids, at_thresholds(spec, inst, bids)):
                bid_rows = Bids(spec, inst, rows)
                for bidder in range(inst.num_bidders):
                    assert best_response_against_bids(inst, spec, bidder, bid_rows) == \
                        ref.best_response_against_bids(inst, spec, bidder, bid_rows)
                    problems += 1
                    table = threshold_table(inst, spec, bidder, bid_rows)
                    ratios = [r for r, _, _, _ in table]
                    tied += len(set(ratios)) < len(ratios)
                    non_inclusive += any(not t.inclusive for _, _, t, _ in table)
    assert problems > 3000
    # The cases where the two routes could part: ratios shared by several
    # auctions, and thresholds that an equal bid does not clear.
    assert tied > 200
    assert non_inclusive > 1000
