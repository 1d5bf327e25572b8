"""Slow references for `bidarena.bestresponse`.

`best_response_against_bids` is the candidate x auction loop: every
candidate multiplier (1, each threshold ratio of at least 1, the midpoints
between consecutive ones, and one past the largest) is rescored against the
whole threshold table. The tests compare the sorted sweep against it, and
`reference_dynamics` runs it on tables of its own. `best_response_oracle`
and `quasilinear_best_bid_check` sample on `Fraction`s and resolve each
sample through `run_auction`; the tests compare the integer versions against
them. The package never imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from bidarena.bestresponse import ORACLE_GRID, ResponseResult, threshold_table
from bidarena.mechanisms import (Bids, MechanismSpec, Threshold, min_winning_bid,
                                 run_auction)
from bidarena.model import Instance, ONE, ZERO
from conftest import column_bids


def best_response_against_bids(inst: Instance, spec: MechanismSpec, bidder: int,
                               bids: Bids) -> ResponseResult:
    """Exact best response to rival bids (row `bidder` is ignored): maximize
    won value subject to value >= payment, ties broken toward the smallest
    multiplier."""
    return best_response_from_table(threshold_table(inst, spec, bidder, bids))


def best_response_from_table(
        table: Sequence[tuple[Fraction, int, Threshold, Fraction]]) -> ResponseResult:
    """The best response given (ratio, auction, threshold, value) rows."""
    breakpoints = sorted({r for r, _, _, _ in table if r >= 1} | {ONE})
    candidates = list(breakpoints)
    for low, high in zip(breakpoints, breakpoints[1:]):
        candidates.append((low + high) / 2)
    candidates.append(breakpoints[-1] + 1)
    candidates.sort()

    best: ResponseResult | None = None
    for theta in candidates:
        value = payment = ZERO
        won = []
        for ratio, j, t, v in table:
            if theta > ratio or (theta == ratio and t.inclusive):
                value += v
                payment += t.value
                won.append(j)
        if payment > value:
            continue
        if best is None or value > best.total_value:
            best = ResponseResult(theta, frozenset(won), value, payment)
    assert best is not None  # theta = 1 always clears only thresholds <= value
    return best


def best_response_oracle(inst: Instance, spec: MechanismSpec, bidder: int,
                         bids: Bids) -> ResponseResult:
    """Samples multipliers on a grid of ORACLE_GRID steps over [1, largest
    ratio + 1], refined between consecutive threshold ratios so every
    constant-won-set interval gets a sample, and evaluates each sample by
    running every auction on the bid columns with row `bidder` replaced.
    Returns the best feasible sample (highest value, then smallest
    multiplier)."""
    ratios = sorted({r for r, _, _, _ in threshold_table(inst, spec, bidder, bids)
                     if r >= 1} | {ONE})
    top = ratios[-1] + 1
    points = set(ratios)
    points.add(top)
    step = (top - ONE) / ORACLE_GRID
    for k in range(1, ORACLE_GRID):
        points.add(ONE + step * k)
    marks = sorted(set(ratios) | {top})
    for low, high in zip(marks, marks[1:]):
        quarter = (high - low) / 4
        for k in range(1, 4):
            points.add(low + quarter * k)

    values = inst.values[bidder]
    columns = [list(column) for column in zip(*[bids[i] for i in range(inst.num_bidders)])]
    best: ResponseResult | None = None
    for theta in sorted(points):
        value = payment = ZERO
        won = []
        for j, column in enumerate(columns):
            column[bidder] = theta * values[j]
            result = run_auction(spec, inst, j, column)
            if result.winner == bidder:
                payment += result.payment
                if values[j]:
                    value += values[j]
                    won.append(j)
        if payment > value:
            continue
        if best is None or value > best.total_value:
            best = ResponseResult(theta, frozenset(won), value, payment)
    assert best is not None
    return best


def quasilinear_best_bid_check(inst: Instance, spec: MechanismSpec, auction: int,
                               bidder: int, bids: Sequence[Fraction]) -> bool:
    """True when bidding the true value maximizes value-minus-payment in one
    auction against fixed rival bids, over a canonical probe set (zero, half
    value, value, double value, and the win threshold plus/minus 1/1000)."""
    t = min_winning_bid(column_bids(spec, inst, auction, list(bids)), auction, bidder)
    value = inst.values[bidder][auction]
    probes = {ZERO, value / 2, value, 2 * value}
    if t.value is not None:
        probes.add(t.value)
        probes.add(t.value + Fraction(1, 1000))
        shaved = t.value - Fraction(1, 1000)
        probes.add(shaved if shaved > 0 else ZERO)

    column = list(bids)

    def utility(bid: Fraction) -> Fraction:
        column[bidder] = bid
        result = run_auction(spec, inst, auction, column)
        if result.winner != bidder:
            return ZERO
        return value - result.payment

    truthful = utility(value)
    return all(truthful >= utility(bid) for bid in probes)
