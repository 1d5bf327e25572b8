"""Exact best responses for ROI-constrained uniform bidders.

Fixing rival multipliers fixes, for each auction, the minimum bid that wins.
Dividing by the bidder's value turns each threshold into a multiplier ratio,
and the set of auctions won is a prefix of the ratio order: it only grows as
the multiplier climbs. The best response therefore lives on finitely many
candidates (each ratio, the midpoints between consecutive ratios, 1, and one
point past the largest ratio), and each candidate is scored exactly: value is
the sum of won values, payment the sum of won threshold values, and the
candidate is feasible when value covers payment.

`best_response_oracle` answers the same question by brute force, simulating
the full mechanism on a dense multiplier grid. It exists so tests can check
the two routes agree; it never feeds the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .mechanisms import MechanismSpec, Threshold, min_winning_bid, run_auction, run_all
from .model import Instance, MultiplierProfile, ONE, ZERO, bids_from
from .rationals import Infinity


@dataclass(frozen=True, slots=True)
class ResponseProblem:
    """One bidder's decision: instance, mechanism, and rival multipliers.

    `others` carries a full profile for convenience; entry `bidder` is ignored.
    """

    bidder: int
    inst: Instance
    spec: MechanismSpec
    others: MultiplierProfile

    def __post_init__(self) -> None:
        if not 0 <= self.bidder < self.inst.num_bidders:
            raise ValueError(f"bidder {self.bidder} out of range")
        if len(self.others.multipliers) != self.inst.num_bidders:
            raise ValueError("rival profile size does not match the instance")


@dataclass(frozen=True, slots=True)
class ResponseResult:
    multiplier: Fraction
    won_auctions: frozenset[int]
    total_value: Fraction
    total_payment: Fraction


def thresholds(problem: ResponseProblem) -> tuple[Threshold, ...]:
    """Per-auction minimum winning bids against the rival profile."""
    bids = bids_from(problem.others, problem.inst)
    n = problem.inst.num_bidders
    return tuple(
        min_winning_bid(problem.spec, problem.inst, j, problem.bidder,
                        [bids[i][j] for i in range(n)])
        for j in range(problem.inst.num_auctions)
    )


def best_response(problem: ResponseProblem) -> ResponseResult:
    """Exact best response: maximize won value subject to value >= payment,
    ties broken toward the smallest multiplier."""
    bid_rows = bids_from(problem.others, problem.inst)
    return best_response_against_bids(problem.inst, problem.spec, problem.bidder, bid_rows)


def best_response_against_bids(inst: Instance, spec: MechanismSpec, bidder: int,
                               bid_rows: Sequence[Sequence[Fraction]]) -> ResponseResult:
    """Best response given rival bids directly; row `bidder` is ignored.

    The dynamics loop uses this entry point so it can keep one bid matrix
    up to date instead of rebuilding it for every bidder in every round.
    """
    n = inst.num_bidders
    # (ratio, threshold, value, auction) for auctions worth contesting.
    contested: list[tuple[Fraction, Threshold, Fraction, int]] = []
    for j in range(inst.num_auctions):
        value = inst.values[bidder][j]
        if not value:
            continue  # winning adds no value and nonnegative payment
        t = min_winning_bid(spec, inst, j, bidder, [bid_rows[i][j] for i in range(n)])
        if isinstance(t.value, Infinity):
            continue
        contested.append((t.value / value, t, value, j))

    breakpoints = sorted({r for r, _, _, _ in contested if r >= 1} | {ONE})
    candidates = list(breakpoints)
    for low, high in zip(breakpoints, breakpoints[1:]):
        candidates.append((low + high) / 2)
    candidates.append(breakpoints[-1] + 1)
    candidates.sort()

    best: ResponseResult | None = None
    for theta in candidates:
        value = payment = ZERO
        won = []
        for ratio, t, v, j in contested:
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


def best_response_oracle(problem: ResponseProblem, grid_size: int = 50) -> ResponseResult:
    """Brute-force reference for `best_response`.

    Samples multipliers on a grid over [1, largest ratio + 1], refined between
    consecutive threshold ratios so every constant-won-set interval gets a
    sample, and evaluates each sample by running the actual mechanism on the
    full bid profile. Returns the best feasible sample (highest value, then
    smallest multiplier). Test-only: quadratically slower than the exact
    enumeration.
    """
    inst, spec, bidder = problem.inst, problem.spec, problem.bidder
    base = thresholds(problem)
    ratios = sorted({
        t.value / inst.values[bidder][j]
        for j, t in enumerate(base)
        if inst.values[bidder][j] and not isinstance(t.value, Infinity)
        and t.value / inst.values[bidder][j] >= 1
    } | {ONE})
    top = ratios[-1] + 1
    points = set(ratios)
    points.add(top)
    step = (top - ONE) / grid_size
    for k in range(1, grid_size):
        points.add(ONE + step * k)
    marks = sorted(set(ratios) | {top})
    for low, high in zip(marks, marks[1:]):
        quarter = (high - low) / 4
        for k in range(1, 4):
            points.add(low + quarter * k)

    rivals = list(problem.others.multipliers)
    best: ResponseResult | None = None
    for theta in sorted(points):
        rivals[bidder] = theta
        outcome = run_all(spec, inst, MultiplierProfile(tuple(rivals)))
        value = payment = ZERO
        won = []
        for j, (winner, price) in enumerate(zip(outcome.winners, outcome.prices)):
            if winner == bidder:
                payment += price
                if inst.values[bidder][j]:
                    value += inst.values[bidder][j]
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
    value = inst.values[bidder][auction]
    t = min_winning_bid(spec, inst, auction, bidder, bids)
    probes = {ZERO, value / 2, value, 2 * value}
    if not isinstance(t.value, Infinity):
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
