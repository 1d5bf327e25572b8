"""Per-rule reference for the auction kernel in `bidarena.mechanisms`.

Each rule's winner, payment and minimum winning bid, derived separately from
that rule's own definition rather than from reserves and shifts. The required
bids are written here too, so a wrong convention in the package cannot pass
by being shared: it imports no function from `bidarena`. The tests compare
the kernel against these functions; the package never imports them.

`market` is the slow reference for `mechanisms.market`: every reserve is the
`Fraction` product of a factor and a cost, read from the dense matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from bidarena.mechanisms import (NEVER, AuctionDependent, AuctionResult, BidderDependent,
                                 GlobalCostMultiplier, MechanismSpec, SecondPrice,
                                 SingleBidderCalibrated, Threshold)
from bidarena.model import ZERO, Instance


def threshold(value: Fraction | None, inclusive: bool) -> Threshold:
    """The `Threshold` of an exact value, or of an infinite one (None)."""
    if value is None:
        return Threshold(1, 0, inclusive)
    return Threshold(value.numerator, value.denominator, inclusive)


# Required bids. Auction-dep and bidder-dep require (1 + alpha) * cost and
# single-bidder alpha * cost. An infinite alpha (None; a zero calibration
# cost) shuts out every positive-cost bid, whose required bid is then None;
# a zero-cost bid then needs half the rightful winner's value under
# auction-dep and nothing under the others.

def auction_dep_required(alpha: Fraction | None, cost: Fraction,
                         rw_value: Fraction) -> Fraction | None:
    if alpha is None:
        return rw_value / 2 if cost == 0 else None
    return (1 + alpha) * cost


def bidder_dep_required(alpha: Fraction | None, cost: Fraction) -> Fraction | None:
    if alpha is None:
        return ZERO if cost == 0 else None
    return (1 + alpha) * cost


def single_required(alpha: Fraction | None, cost: Fraction) -> Fraction | None:
    if alpha is None:
        return ZERO if cost == 0 else None
    return alpha * cost


def run_auction(spec: MechanismSpec, inst: Instance, auction: int,
                bids: Sequence[Fraction]) -> AuctionResult:
    """Resolve auction `auction` under `spec` for the given bid column."""
    if len(bids) != inst.num_bidders:
        raise ValueError(f"expected {inst.num_bidders} bids, got {len(bids)}")

    if isinstance(spec, SecondPrice):
        best = 0
        runner: int | None = None
        for i in range(1, len(bids)):
            if bids[i] > bids[best]:
                runner = best
                best = i
            elif runner is None or bids[i] > bids[runner]:
                runner = i
        payment = bids[runner] if runner is not None else ZERO
        return AuctionResult(best, payment)

    if isinstance(spec, GlobalCostMultiplier):
        gamma = spec.gamma
        best = runner = None
        best_s = runner_s = ZERO
        for i, bid in enumerate(bids):
            cost = inst.costs[i][auction]
            score = bid - gamma * cost if cost else bid
            if score < 0:
                continue
            if best is None or score > best_s:
                runner, runner_s = best, best_s
                best, best_s = i, score
            elif runner is None or score > runner_s:
                runner, runner_s = i, score
        if best is None:
            return AuctionResult(None, ZERO)
        payment = spec.gamma * inst.costs[best][auction] + (runner_s if runner is not None else ZERO)
        return AuctionResult(best, payment)

    if isinstance(spec, SingleBidderCalibrated):
        required = single_required(spec.cost_multiplier, inst.costs[0][auction])
        if required is None or bids[0] < required:
            return AuctionResult(None, ZERO)
        return AuctionResult(0, required)

    if isinstance(spec, AuctionDependent):
        rw = spec.rightful_winner[auction]
        if rw is None:
            return AuctionResult(None, ZERO)
        alpha = spec.cost_multiplier[auction]
        rw_value = inst.values[rw][auction]
        best = runner = None
        best_s = runner_s = ZERO
        for i, bid in enumerate(bids):
            required = auction_dep_required(alpha, inst.costs[i][auction], rw_value)
            if required is None:
                continue
            score = bid - required
            if best is None or score > best_s:
                runner, runner_s = best, best_s
                best, best_s = i, score
            elif runner is None or score > runner_s:
                runner, runner_s = i, score
        if best is None or best_s < 0:
            return AuctionResult(None, ZERO)
        required = auction_dep_required(alpha, inst.costs[best][auction], rw_value)
        assert required is not None
        rival = runner_s if runner is not None and runner_s > 0 else ZERO
        return AuctionResult(best, required + rival)

    if isinstance(spec, BidderDependent):
        best = runner = None
        best_s = runner_s = ZERO
        for i, bid in enumerate(bids):
            required = bidder_dep_required(spec.cost_multiplier[i], inst.costs[i][auction])
            if required is None or bid < required:
                continue
            score = bid - inst.costs[i][auction]
            if best is None or score > best_s:
                runner, runner_s = best, best_s
                best, best_s = i, score
            elif runner is None or score > runner_s:
                runner, runner_s = i, score
        if best is None:
            return AuctionResult(None, ZERO)
        required = bidder_dep_required(spec.cost_multiplier[best], inst.costs[best][auction])
        assert required is not None
        if runner is not None:
            required = max(required, runner_s + inst.costs[best][auction])
        return AuctionResult(best, required)

    raise TypeError(f"unknown mechanism: {spec!r}")


def min_winning_bid(spec: MechanismSpec, inst: Instance, auction: int, bidder: int,
                    bids: Sequence[Fraction]) -> Threshold:
    """Smallest bid with which `bidder` wins `auction`, rivals' bids fixed.

    Entry `bidder` of `bids` is ignored. The value is None (infinite) when
    the bidder can never win; `inclusive` follows the lowest-index tie-break.
    """
    if isinstance(spec, SecondPrice):
        best: Fraction | None = None
        best_i = 0
        for i, bid in enumerate(bids):
            if i == bidder:
                continue
            if best is None or bid > best:
                best, best_i = bid, i
        if best is None:
            return threshold(ZERO, True)
        return threshold(best, bidder < best_i)

    if isinstance(spec, GlobalCostMultiplier):
        gamma = spec.gamma
        own = gamma * inst.costs[bidder][auction]
        best = None
        best_i = 0
        for i, bid in enumerate(bids):
            if i == bidder:
                continue
            cost = inst.costs[i][auction]
            score = bid - gamma * cost if cost else bid
            if score < 0:
                continue
            if best is None or score > best:
                best, best_i = score, i
        if best is None:
            return threshold(own, True)
        return threshold(own + best, bidder < best_i)

    if isinstance(spec, SingleBidderCalibrated):
        required = single_required(spec.cost_multiplier, inst.costs[0][auction])
        if required is None:
            return NEVER
        return threshold(required, True)

    if isinstance(spec, AuctionDependent):
        rw = spec.rightful_winner[auction]
        if rw is None:
            return NEVER
        alpha = spec.cost_multiplier[auction]
        rw_value = inst.values[rw][auction]
        own = auction_dep_required(alpha, inst.costs[bidder][auction], rw_value)
        if own is None:
            return NEVER
        best = None
        best_i = 0
        for i, bid in enumerate(bids):
            if i == bidder:
                continue
            required = auction_dep_required(alpha, inst.costs[i][auction], rw_value)
            if required is None:
                continue
            score = bid - required
            if best is None or score > best:
                best, best_i = score, i
        if best is None or best < 0:
            return threshold(own, True)
        return threshold(own + best, bidder < best_i)

    if isinstance(spec, BidderDependent):
        own = bidder_dep_required(spec.cost_multiplier[bidder], inst.costs[bidder][auction])
        if own is None:
            return NEVER
        best = None
        best_i = 0
        for i, bid in enumerate(bids):
            if i == bidder:
                continue
            required = bidder_dep_required(spec.cost_multiplier[i], inst.costs[i][auction])
            if required is None or bid < required:
                continue
            score = bid - inst.costs[i][auction]
            if best is None or score > best:
                best, best_i = score, i
        if best is None:
            return threshold(own, True)
        rival = best + inst.costs[bidder][auction]
        if own > rival:
            return threshold(own, True)
        return threshold(rival, bidder < best_i)

    raise TypeError(f"unknown mechanism: {spec!r}")


def market(spec: MechanismSpec, inst: Instance) -> tuple[tuple, tuple, tuple, tuple]:
    """(scale, values, reserves, shifts) as in `mechanisms.Market`, from
    Fraction products factor * cost over every entry. d_j is the lcm of the
    denominators of the auction's values, of its zero-cost reserve, and of
    every cost that counts and its reserve; no cost counts under second
    price and global:0."""
    n, m = inst.num_bidders, inst.num_auctions
    zero_reserves: list[Fraction | None] = [ZERO] * m
    if isinstance(spec, (SecondPrice, GlobalCostMultiplier)):
        gamma = spec.gamma if isinstance(spec, GlobalCostMultiplier) else ZERO
        factors = [(gamma,) * n] * m
    elif isinstance(spec, SingleBidderCalibrated):
        factors = [(spec.cost_multiplier,)] * m
    elif isinstance(spec, AuctionDependent):
        rules = list(enumerate(zip(spec.rightful_winner, spec.cost_multiplier)))
        factors = [(None if rw is None or a is None else 1 + a,) * n for _, (rw, a) in rules]
        zero_reserves = [None if rw is None else inst.values[rw][j] / 2 if a is None else ZERO
                         for j, (rw, a) in rules]
    elif isinstance(spec, BidderDependent):
        factors = [tuple(None if a is None else 1 + a for a in spec.cost_multiplier)] * m
    else:
        raise TypeError(f"unknown mechanism: {spec!r}")
    shift_is_cost = isinstance(spec, BidderDependent)
    shift_is_reserve = not shift_is_cost and not isinstance(spec, SingleBidderCalibrated)

    columns = []
    for j, (factor, zero) in enumerate(zip(factors, zero_reserves)):
        values = [inst.values[i][j] for i in range(n)]
        terms = [(i, inst.costs[i][j], None if factor[i] is None else factor[i] * inst.costs[i][j])
                 for i in range(n) if inst.costs[i][j] != 0 and factor[i] != 0]
        d = lcm(*[v.denominator for v in values], 1 if zero is None else zero.denominator,
                *[x.denominator for _, c, r in terms for x in (c, r) if x is not None])
        column_values = [int(v * d) for v in values]
        column_reserves = [None if zero is None else int(zero * d)] * n
        column_shifts = column_reserves if shift_is_reserve else [0] * n
        for i, c, r in terms:
            column_reserves[i] = None if r is None else int(r * d)
            if shift_is_cost:
                column_shifts[i] = int(c * d)
        columns.append((d, column_values, column_reserves, column_shifts))
    return tuple(map(tuple, zip(*columns)))
