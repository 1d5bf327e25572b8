"""Auction rules: scoring, winner selection, payments, and win thresholds.

Every rule is VCG with user costs plus a cost multiplier, and differs from
the others only in the reserve and the shift each bidder gets in each
auction (`auction_terms`, the only rule-specific step of an auction). One
kernel then runs them all: a bidder whose bid reaches its reserve competes
with score bid - shift, the highest score wins, and the winner pays the
smallest bid that still wins. All ties break toward the lowest bidder index,
so every outcome is deterministic.

One scan of a bid column (`standing`) keeps the auction's best and
second-best eligible (score, bidder); `run_auction` prices the winner from
it and `min_winning_bid` reads any bidder's threshold from it in O(1). A
`Bids` value keeps every auction's standing beside the bid rows, so a
best response reads each threshold without scanning a column, and a move
costs O(1) per auction the mover values (a scan of n bids only where the
mover held one of the top two places and fell). The tests check the kernel
against an independent per-rule derivation (`tests/reference_mechanisms.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import Instance, MultiplierProfile, Outcome, ZERO, bids_from
from .rationals import (INF, ExtRational, Infinity, format_ratio, format_rational,
                        parse_rational)


@dataclass(frozen=True, slots=True)
class SecondPrice:
    """Highest bid wins and pays the second-highest bid. Costs are ignored."""


@dataclass(frozen=True, slots=True)
class GlobalCostMultiplier:
    """Second-price over cost-adjusted scores bid - gamma * cost.

    Bidders with negative scores are discarded. The winner pays gamma times
    its own cost plus the best surviving rival score (floored at zero), which
    is exactly the smallest bid that still wins. gamma = 0 recovers plain
    second price.
    """

    gamma: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.gamma, Fraction):
            raise TypeError("gamma must be a Fraction")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True, slots=True)
class SingleBidderCalibrated:
    """One-bidder market with per-auction reserve alpha * cost.

    The multiplier alpha is calibrated on the instance so that, over the
    auctions where value covers cost, total value equals alpha times total
    cost. The bidder wins auction j iff its bid reaches alpha * cost, and
    pays exactly that reserve.
    """

    cost_multiplier: ExtRational

    def __post_init__(self) -> None:
        if isinstance(self.cost_multiplier, Infinity):
            return
        if self.cost_multiplier < 1:
            raise ValueError(f"cost multiplier must be >= 1, got {self.cost_multiplier}")


@dataclass(frozen=True, slots=True)
class AuctionDependent:
    """Cost-adjusted auction with a per-auction multiplier.

    Auction j is sized around its rightful winner (the lowest-index bidder
    maximizing value minus cost, absent when that maximum is negative): the
    multiplier solves value = (1 + 2 * alpha) * cost for that bidder, every
    score is bid - (1 + alpha) * cost, and the top score wins if nonnegative.
    A zero-cost rightful winner makes alpha infinite (see `auction_terms`).
    """

    rightful_winner: tuple[int | None, ...]
    cost_multiplier: tuple[ExtRational | None, ...]


@dataclass(frozen=True, slots=True)
class BidderDependent:
    """Cost-adjusted auction with per-bidder prescreening multipliers.

    Bidder i's multiplier is calibrated on the auctions where i is the
    rightful winner: total value = (1 + 2 * alpha_i) * total cost there.
    In every auction, bidders whose bid falls short of (1 + alpha_i) * cost
    are discarded; survivors compete on bid minus cost. A zero total cost
    makes alpha_i infinite (see `auction_terms`).
    """

    rightful_auctions: tuple[frozenset[int], ...]
    cost_multiplier: tuple[ExtRational, ...]


MechanismSpec = (SecondPrice | GlobalCostMultiplier | SingleBidderCalibrated
                 | AuctionDependent | BidderDependent)


@dataclass(frozen=True, slots=True)
class AuctionResult:
    """Winner (None when nobody clears) and its payment."""

    winner: int | None
    payment: Fraction


@dataclass(frozen=True, slots=True)
class Threshold:
    """Minimum bid that wins one auction, holding rival bids fixed.

    `inclusive` says whether bidding exactly `value` wins (it does not when a
    lower-index rival holds the same score). The winner's payment always
    equals `value`, inclusive or not.
    """

    value: ExtRational
    inclusive: bool

    def admits(self, bid: Fraction) -> bool:
        if isinstance(self.value, Infinity):
            return False
        return bid > self.value or (bid == self.value and self.inclusive)


NEVER = Threshold(INF, False)


# ---------------------------------------------------------------------------
# Parameter calibration


def rightful_winners(inst: Instance) -> tuple[int | None, ...]:
    """Per auction, the lowest-index maximizer of value minus cost, or None
    when even the best allocation would destroy welfare."""
    out: list[int | None] = []
    for j in range(inst.num_auctions):
        best: Fraction | None = None
        best_i = 0
        for i in range(inst.num_bidders):
            s = inst.values[i][j] - inst.costs[i][j]
            if best is None or s > best:
                best, best_i = s, i
        out.append(best_i if best is not None and best >= 0 else None)
    return tuple(out)


def _solve_alpha(value: Fraction, cost: Fraction) -> ExtRational:
    """The alpha with value = (1 + 2 * alpha) * cost; infinite on a zero cost."""
    return (value - cost) / (2 * cost) if cost else INF


def compute_auction_params(inst: Instance) -> AuctionDependent:
    rws = rightful_winners(inst)
    alphas = tuple(None if rw is None else _solve_alpha(inst.values[rw][j], inst.costs[rw][j])
                   for j, rw in enumerate(rws))
    return AuctionDependent(rws, alphas)


def compute_bidder_params(inst: Instance) -> BidderDependent:
    rws = rightful_winners(inst)
    sets: list[set[int]] = [set() for _ in range(inst.num_bidders)]
    for j, rw in enumerate(rws):
        if rw is not None:
            sets[rw].add(j)
    alphas: list[ExtRational] = []
    for i, owned in enumerate(sets):
        total_value = sum((inst.values[i][j] for j in owned), ZERO)
        total_cost = sum((inst.costs[i][j] for j in owned), ZERO)
        # Nothing to calibrate on; an all-zero set also means no slack.
        alphas.append(_solve_alpha(total_value, total_cost) if total_value else ZERO)
    return BidderDependent(tuple(frozenset(s) for s in sets), tuple(alphas))


def calibrate_single_bidder(inst: Instance) -> SingleBidderCalibrated:
    if inst.num_bidders != 1:
        raise ValueError(f"single-bidder calibration needs 1 bidder, got {inst.num_bidders}")
    good = [j for j in range(inst.num_auctions) if inst.values[0][j] >= inst.costs[0][j]]
    total_value = sum((inst.values[0][j] for j in good), ZERO)
    total_cost = sum((inst.costs[0][j] for j in good), ZERO)
    if not good or total_value == 0:
        alpha: ExtRational = Fraction(1)
    elif total_cost == 0:
        alpha = INF
    else:
        alpha = total_value / total_cost
    return SingleBidderCalibrated(alpha)


# ---------------------------------------------------------------------------
# Reserves and shifts: the only rule-specific step of an auction

# Per auction, the column of reserves and the column of shifts, one entry per bidder.
AuctionTerms = tuple[tuple[tuple[ExtRational, ...], tuple[ExtRational, ...]], ...]

# The last (spec, instance, terms) built. Specs and instances are frozen, and
# the entry keeps both alive, so an identity match can never be stale. It is
# read and replaced as one tuple, never updated field by field.
_last_terms: tuple[object, object, AuctionTerms] = (None, None, ())


def _scaled_cost(factor: ExtRational, cost: Fraction,
                 at_zero_cost: Fraction = ZERO) -> ExtRational:
    """factor * cost for a positive factor and a cost whose zero is the ZERO
    object: ZERO on a zero cost, except that an infinite factor gives
    `at_zero_cost` there and infinity on a positive cost."""
    if cost is ZERO:
        return at_zero_cost if isinstance(factor, Infinity) else ZERO
    return INF if isinstance(factor, Infinity) else factor * cost


def auction_terms(spec: MechanismSpec, inst: Instance) -> AuctionTerms:
    """Per auction, each bidder's reserve (the least bid it may win with;
    infinite when it can never win) and shift (what its score subtracts).

    | rule | reserve | shift |
    | second price | 0 | 0 |
    | global:g | g * cost | the reserve |
    | single-bidder | alpha * cost | 0 |
    | auction-dep | (1 + alpha_j) * cost, infinite without a rightful winner | the reserve |
    | bidder-dep | (1 + alpha_i) * cost | cost |

    An infinite alpha makes the reserve infinite on a positive cost. On a
    zero cost it makes the reserve half the rightful winner's value under
    auction-dep, and 0 under the other rules. A calibrated spec must fit the
    market: auction-dep needs one alpha per auction, bidder-dep one per
    bidder, and single-bidder a one-bidder market; otherwise ValueError.

    Every zero term of a calibrated spec is the ZERO object, which the kernel
    tests by identity to skip a comparison or a subtraction. The terms are
    built from `Instance.cost_columns`, whose zeros already are, so that
    needs no pass over the terms.
    """
    global _last_terms
    last = _last_terms
    if last[0] is spec and last[1] is inst:
        return last[2]
    n, m = inst.num_bidders, inst.num_auctions
    cost_columns = inst.cost_columns
    zeros = (ZERO,) * n
    if isinstance(spec, SecondPrice):
        terms = [(zeros, zeros)] * m
    elif isinstance(spec, GlobalCostMultiplier):
        gamma = spec.gamma
        terms = []
        for costs in cost_columns:
            # gamma = 0 would make each product a zero other than ZERO.
            reserves = zeros if not gamma else \
                tuple([c if c is ZERO else gamma * c for c in costs])
            terms.append((reserves, reserves))
    elif isinstance(spec, SingleBidderCalibrated):
        if n != 1:
            raise ValueError(f"single-bidder spec needs 1 bidder, market has {n}")
        terms = [((_scaled_cost(spec.cost_multiplier, costs[0]),), zeros)
                 for costs in cost_columns]
    elif isinstance(spec, AuctionDependent):
        if len(spec.rightful_winner) != m or len(spec.cost_multiplier) != m:
            raise ValueError(f"auction-dep spec covers {len(spec.cost_multiplier)} "
                             f"auctions, market has {m}")
        terms = []
        for j, (rw, alpha, costs) in enumerate(zip(spec.rightful_winner, spec.cost_multiplier,
                                                   cost_columns)):
            if rw is None:
                reserves: tuple[ExtRational, ...] = (INF,) * n
            else:
                factor = alpha if isinstance(alpha, Infinity) else 1 + alpha
                value = inst.values[rw][j]
                half_value = value / 2 if value else ZERO
                reserves = tuple([_scaled_cost(factor, c, half_value) for c in costs])
            terms.append((reserves, reserves))
    elif isinstance(spec, BidderDependent):
        if len(spec.cost_multiplier) != n:
            raise ValueError(f"bidder-dep spec covers {len(spec.cost_multiplier)} "
                             f"bidders, market has {n}")
        factors = [a if isinstance(a, Infinity) else 1 + a for a in spec.cost_multiplier]
        terms = []
        for costs in cost_columns:
            reserves = tuple([_scaled_cost(f, c) for f, c in zip(factors, costs)])
            terms.append((reserves, costs))
    else:
        raise TypeError(f"unknown mechanism: {spec!r}")
    result = tuple(terms)
    _last_terms = (spec, inst, result)
    return result


# ---------------------------------------------------------------------------
# The auction kernel
#
# Bidder i is eligible when its bid reaches its reserve r_i; its score is
# bid - s_i. The highest score wins, ties to the lowest index, and the winner
# pays max(r_w, s_w + best rival score): the least bid that still wins. Bids
# are nonnegative, so a zero reserve admits every bid without a comparison,
# and a zero shift is not subtracted; any other zero just takes the long way.
#
# Everything an auction decides depends on its top two eligible bidders in
# rank order (higher score first, ties to the lower index): the winner, its
# price, and every bidder's threshold, whose rival is the first of the two
# that is not the bidder itself.

# The best and second-best eligible (score, bidder) pairs of one auction in
# rank order; shorter when fewer than two bidders are eligible.
Standing = tuple[tuple[Fraction, int], ...]


def _scan(bids: Sequence[Fraction], reserves: Sequence[ExtRational],
          shifts: Sequence[ExtRational]) -> Standing:
    """The one loop over a bid column."""
    best = second = None
    best_i = second_i = 0
    for i, (bid, reserve, shift) in enumerate(zip(bids, reserves, shifts)):
        if reserve is not ZERO and bid < reserve:
            continue
        score = bid if shift is ZERO else bid - shift
        if best is None:
            best, best_i = score, i
        elif score is second:
            continue  # the same object at a lower index already holds second place
        elif score is not best and score > best:
            best, best_i, second, second_i = score, i, best, best_i
        elif second is None or score > second:
            second, second_i = score, i
    if best is None:
        return ()
    if second is None:
        return ((best, best_i),)
    return ((best, best_i), (second, second_i))


def standing(spec: MechanismSpec, inst: Instance, auction: int,
             bids: Sequence[Fraction]) -> Standing:
    """The top two eligible bidders of `auction` for the given bid column."""
    if len(bids) != inst.num_bidders:
        raise ValueError(f"expected {inst.num_bidders} bids, got {len(bids)}")
    reserves, shifts = auction_terms(spec, inst)[auction]
    return _scan(bids, reserves, shifts)


def _priced(reserves: Sequence[ExtRational], shifts: Sequence[ExtRational],
            top: Standing) -> AuctionResult:
    """The winner of a standing and the least bid with which it still wins."""
    if not top:
        return AuctionResult(None, ZERO)
    winner = top[0][1]
    reserve = reserves[winner]
    if len(top) == 1:
        return AuctionResult(winner, reserve)
    shift = shifts[winner]
    pay = top[1][0] if shift is ZERO else shift + top[1][0]
    return AuctionResult(winner, pay if reserve is ZERO else max(reserve, pay))


def run_auction(spec: MechanismSpec, inst: Instance, auction: int,
                bids: Sequence[Fraction]) -> AuctionResult:
    """Resolve auction `auction` under `spec` for the given bid column."""
    if len(bids) != inst.num_bidders:
        raise ValueError(f"expected {inst.num_bidders} bids, got {len(bids)}")
    reserves, shifts = auction_terms(spec, inst)[auction]
    return _priced(reserves, shifts, _scan(bids, reserves, shifts))


def min_winning_bid(spec: MechanismSpec, inst: Instance, auction: int, bidder: int,
                    top: Standing) -> Threshold:
    """Smallest bid with which `bidder` wins `auction`, rivals' bids fixed,
    read in O(1) from the auction's `standing`.

    The bidder's own entry in the standing is skipped. The value is infinite
    when the bidder can never win; `inclusive` follows the lowest-index
    tie-break.
    """
    if not 0 <= bidder < inst.num_bidders:
        raise ValueError(f"bidder {bidder} out of range")
    reserves, shifts = auction_terms(spec, inst)[auction]
    own = reserves[bidder]
    if isinstance(own, Infinity):
        return NEVER
    for score, rival in top:
        if rival != bidder:
            break
    else:
        return Threshold(own, True)
    shift = shifts[bidder]
    price = score if shift is ZERO else shift + score
    if own is not ZERO and own > price:
        return Threshold(own, True)
    return Threshold(price, bidder < rival)


def _moved(top: Standing, bidder: int, bid: Fraction, reserves: Sequence[ExtRational],
           shifts: Sequence[ExtRational], rows: Sequence[Sequence[Fraction]],
           auction: int) -> Standing:
    """`top` once `bidder` bids `bid` in `auction`.

    The bidder's new entry is placed against the kept rivals in O(1). Only
    when it held one of two places and fell, or is no longer eligible, is
    the column scanned again (`rows` already holds `bid`): the bidder that
    rises into the top two is not kept.
    """
    reserve, shift = reserves[bidder], shifts[bidder]
    entry = None if reserve is not ZERO and bid < reserve else \
        (bid if shift is ZERO else bid - shift, bidder)
    if top and top[0][1] == bidder:
        held, rest = top[0], top[1:]
    elif len(top) == 2 and top[1][1] == bidder:
        held, rest = top[1], top[:1]
    else:
        held, rest = None, top
    if entry is not None:
        score = entry[0]
        for k, (rival_score, rival) in enumerate(rest):
            if score > rival_score or (score == rival_score and bidder < rival):
                return (rest[:k] + (entry,) + rest[k:])[:2]
        if held is None:
            return rest if len(rest) == 2 else rest + (entry,)
        if len(top) < 2 or not score < held[0]:
            return rest + (entry,)
    elif held is None or len(top) < 2:
        return rest
    return _scan([row[auction] for row in rows], reserves, shifts)


class Bids:
    """Bid rows under one (spec, instance), with every auction's standing.

    `bids[i]` is bidder i's row. `move` sets a bidder to a new uniform
    multiplier: it walks only the auctions the bidder values
    (`Instance.valued`), since a zero-value bid stays zero, and updates each
    of their standings in O(1) unless the mover held one of the top two
    places and fell (`_moved`).
    """

    __slots__ = ("spec", "inst", "rows", "standings")

    def __init__(self, spec: MechanismSpec, inst: Instance,
                 rows: Sequence[Sequence[Fraction]]) -> None:
        n, m = inst.num_bidders, inst.num_auctions
        if len(rows) != n or any(len(row) != m for row in rows):
            raise ValueError(f"expected {n} bid rows of {m} entries")
        self.spec, self.inst = spec, inst
        self.rows = list(rows)
        self.standings = [_scan(column, reserves, shifts) for column, (reserves, shifts)
                          in zip(zip(*rows), auction_terms(spec, inst))]

    def __getitem__(self, bidder: int) -> Sequence[Fraction]:
        return self.rows[bidder]

    def move(self, bidder: int, theta: Fraction) -> None:
        """Bidder `bidder` bids `theta` times its value in every auction it
        values; its other entries are left as they are."""
        rows, standings = self.rows, self.standings
        rows[bidder] = row = list(rows[bidder])
        terms = auction_terms(self.spec, self.inst)
        for j, value in self.inst.valued[bidder]:
            row[j] = bid = theta * value
            reserves, shifts = terms[j]
            standings[j] = _moved(standings[j], bidder, bid, reserves, shifts, rows, j)

    def outcome(self) -> Outcome:
        """Every auction's winner and price, read from the standings."""
        results = [_priced(reserves, shifts, top) for (reserves, shifts), top
                   in zip(auction_terms(self.spec, self.inst), self.standings)]
        return Outcome(tuple(r.winner for r in results), tuple(r.payment for r in results))


# ---------------------------------------------------------------------------
# Running every auction


def run_all(spec: MechanismSpec, inst: Instance, profile: MultiplierProfile) -> Outcome:
    """Run every auction under uniform bids derived from `profile`."""
    bids = bids_from(profile, inst)
    results = [run_auction(spec, inst, j, column) for j, column in enumerate(zip(*bids))]
    return Outcome(tuple(r.winner for r in results), tuple(r.payment for r in results))


# ---------------------------------------------------------------------------
# Labels and serialization


def mechanism_label(spec: MechanismSpec) -> str:
    """The CLI spelling of `spec`: its JSON kind, with the multiplier for global."""
    kind = mechanism_to_json(spec)["kind"]
    return f"global:{format_rational(spec.gamma)}" if kind == "global" else kind


def mechanism_from_label(label: str, inst: Instance) -> MechanismSpec:
    """Build a mechanism from its CLI spelling, calibrating on the instance."""
    if label == "second-price":
        return SecondPrice()
    if label.startswith("global:"):
        return GlobalCostMultiplier(parse_rational(label.split(":", 1)[1]))
    if label == "single-bidder":
        return calibrate_single_bidder(inst)
    if label == "auction-dep":
        return compute_auction_params(inst)
    if label == "bidder-dep":
        return compute_bidder_params(inst)
    raise ValueError(f"unknown mechanism {label!r}; expected second-price, global:<gamma>, "
                     f"single-bidder, auction-dep, or bidder-dep")


def mechanism_to_json(spec: MechanismSpec) -> dict:
    if isinstance(spec, SecondPrice):
        return {"kind": "second-price"}
    if isinstance(spec, GlobalCostMultiplier):
        return {"kind": "global", "gamma": format_ratio(spec.gamma)}
    if isinstance(spec, SingleBidderCalibrated):
        return {"kind": "single-bidder", "alpha": format_ratio(spec.cost_multiplier)}
    if isinstance(spec, AuctionDependent):
        return {"kind": "auction-dep"}
    if isinstance(spec, BidderDependent):
        return {"kind": "bidder-dep"}
    raise TypeError(f"unknown mechanism: {spec!r}")
