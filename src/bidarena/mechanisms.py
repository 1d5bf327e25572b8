"""Auction rules: scoring, winner selection, payments, and win thresholds.

Every rule is VCG with user costs plus a cost multiplier, and differs from
the others only in the reserve and the shift each bidder gets in each
auction (`market`, the only rule-specific step of an auction). One kernel
then runs them all: a bidder whose bid reaches its reserve competes with
score bid - shift, the highest score wins, and the winner pays the smallest
bid that still wins. All ties break toward the lowest bidder index. Every
threshold is read from the `Bids` its standing lives in, and every `Bids`
is built from a multiplier profile. The tests check the kernel against an
independent per-rule derivation (`tests/reference_mechanisms.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .model import Instance, MultiplierProfile, Outcome, ZERO
from .rationals import format_ratio, format_rational, parse_rational


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
    pays exactly that reserve. An infinite alpha is None.
    """

    cost_multiplier: Fraction | None

    def __post_init__(self) -> None:
        if self.cost_multiplier is not None and self.cost_multiplier < 1:
            raise ValueError(f"cost multiplier must be >= 1, got {self.cost_multiplier}")


@dataclass(frozen=True, slots=True)
class AuctionDependent:
    """Cost-adjusted auction with a per-auction multiplier.

    Auction j is sized around its rightful winner (the lowest-index bidder
    maximizing value minus cost, absent when that maximum is negative): the
    multiplier solves value = (1 + 2 * alpha) * cost for that bidder, every
    score is bid - (1 + alpha) * cost, and the top score wins if nonnegative.
    A zero-cost rightful winner makes alpha infinite, written None, as is
    the alpha of an auction without a rightful winner (see `market`).
    """

    rightful_winner: tuple[int | None, ...]
    cost_multiplier: tuple[Fraction | None, ...]


@dataclass(frozen=True, slots=True)
class BidderDependent:
    """Cost-adjusted auction with per-bidder prescreening multipliers.

    Bidder i's multiplier is calibrated on the auctions where i is the
    rightful winner: total value = (1 + 2 * alpha_i) * total cost there.
    In every auction, bidders whose bid falls short of (1 + alpha_i) * cost
    are discarded; survivors compete on bid minus cost. A zero total cost
    makes alpha_i infinite, written None (see `market`).
    """

    rightful_auctions: tuple[frozenset[int], ...]
    cost_multiplier: tuple[Fraction | None, ...]


MechanismSpec = (SecondPrice | GlobalCostMultiplier | SingleBidderCalibrated
                 | AuctionDependent | BidderDependent)


@dataclass(frozen=True, slots=True)
class AuctionResult:
    """Winner (None when nobody clears) and its payment."""

    winner: int | None
    payment: Fraction


class Threshold:
    """Minimum bid that wins one auction, holding rival bids fixed.

    `inclusive` says whether bidding exactly `value` wins (it does not when a
    lower-index rival holds the same score). The winner's payment always
    equals `value`, inclusive or not.

    It keeps the kernel's ints: value = `num` / `den`, not necessarily in
    lowest terms, and `den` is 0 (with `num` 1) for an infinite threshold.
    `value` builds the normalised `Fraction`, or None, when read. Equality,
    hashing and repr go by (value, inclusive).
    """

    __slots__ = ("num", "den", "inclusive")

    def __init__(self, num: int, den: int, inclusive: bool) -> None:
        self.num, self.den, self.inclusive = num, den, inclusive

    @property
    def value(self) -> Fraction | None:
        return Fraction(self.num, self.den) if self.den else None

    def admits(self, bid: Fraction) -> bool:
        if not self.den:
            return False
        mine, theirs = bid.numerator * self.den, self.num * bid.denominator
        return mine > theirs or (mine == theirs and self.inclusive)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.inclusive == other.inclusive and \
            self.num * other.den == other.num * self.den

    def __hash__(self) -> int:
        return hash((self.value, self.inclusive))

    def __repr__(self) -> str:
        return f"Threshold(value={self.value!r}, inclusive={self.inclusive!r})"


NEVER = Threshold(1, 0, False)


# ---------------------------------------------------------------------------
# Parameter calibration


def rightful_winners(inst: Instance) -> tuple[int | None, ...]:
    """Per auction, the lowest-index maximizer of value minus cost, or None
    when even the best allocation would destroy welfare."""
    return tuple(i if best >= 0 else None for *_, best, i in inst.columns)


def _solve_alpha(value: Fraction, cost: Fraction) -> Fraction | None:
    """The alpha with value = (1 + 2 * alpha) * cost; infinite (None) on a zero cost."""
    return (value - cost) / (2 * cost) if cost else None


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
    alphas: list[Fraction | None] = []
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
    if total_value == 0:
        alpha: Fraction | None = Fraction(1)
    elif total_cost == 0:
        alpha = None
    else:
        alpha = total_value / total_cost
    return SingleBidderCalibrated(alpha)


# ---------------------------------------------------------------------------
# Reserves and shifts: the only rule-specific step of an auction


def _pair(x: Fraction | None) -> tuple[int, int] | None:
    """x as (numerator, denominator); None, an infinite x, stays None."""
    return None if x is None else x.as_integer_ratio()


class Market(NamedTuple):
    """One (spec, instance) in ints, built by `market`. For auction j,
    `scale[j]` is a common denominator d_j, and `values[j][i]`,
    `reserves[j][i]` and `shifts[j][i]` are bidder i's terms times d_j. An
    infinite reserve is None, and the shift beside it is never read."""

    spec: MechanismSpec
    scale: tuple[int, ...]
    values: tuple[list[int], ...]
    reserves: tuple[list[int | None], ...]
    shifts: tuple[list[int | None], ...]


def market(spec: MechanismSpec, inst: Instance) -> Market:
    """The `Market` of (spec, inst): in every auction, each bidder's reserve
    (the least bid it may win with; infinite when it can never win) and shift
    (what its score subtracts).

    | rule | reserve | shift |
    | second price | 0 | 0 |
    | global:g | g * cost | the reserve |
    | single-bidder | alpha * cost | 0 |
    | auction-dep | (1 + alpha_j) * cost, infinite without a rightful winner | the reserve |
    | bidder-dep | (1 + alpha_i) * cost | cost |

    An infinite alpha makes the reserve infinite on a positive cost. On a
    zero cost it makes the reserve half the rightful winner's value under
    auction-dep, and 0 under the other rules. A calibrated spec must fit the
    market: auction-dep needs one alpha and one rightful winner (a bidder of
    the market, or None) per auction, bidder-dep one alpha and one set of
    rightful auctions (auctions of the market) per bidder, and single-bidder
    a one-bidder market; otherwise ValueError.

    All zero-cost bidders of an auction get the same terms, so per-entry work
    is done only on the nonzero values and costs of `Instance.columns`, as
    ints over the column's scale L_j: a reserve is the pair (f.numerator * C,
    f.denominator * L_j) reduced by one gcd. No cost counts under second
    price and global:0. Each auction is built in one pass over those entries
    and one over its reserves. The last market built is kept on the
    instance, found by spec identity.
    """
    kept = inst._market
    if kept is not None and kept.spec is spec:
        return kept
    n, m = inst.num_bidders, inst.num_auctions
    # Per auction, each bidder's factor on a positive cost as a pair (None is
    # infinite), or None when no cost counts; and the reserve of a zero cost,
    # also as a pair.
    factors: list[tuple | None] = [None] * m
    zero_reserves: list[tuple[int, int] | None] = [(0, 1)] * m
    if isinstance(spec, GlobalCostMultiplier):
        if spec.gamma:
            factors = [(_pair(spec.gamma),) * n] * m
    elif isinstance(spec, SingleBidderCalibrated):
        if n != 1:
            raise ValueError(f"single-bidder spec needs 1 bidder, market has {n}")
        factors = [(_pair(spec.cost_multiplier),)] * m
    elif isinstance(spec, AuctionDependent):
        if len(spec.rightful_winner) != m or len(spec.cost_multiplier) != m:
            raise ValueError(f"auction-dep spec covers {len(spec.cost_multiplier)} "
                             f"auctions, market has {m}")
        if any(rw is not None and not 0 <= rw < n for rw in spec.rightful_winner):
            raise ValueError(f"auction-dep spec names a rightful winner outside "
                             f"the market's {n} bidders")
        rules = list(enumerate(zip(spec.rightful_winner, spec.cost_multiplier)))
        factors = [(_pair(None if rw is None or a is None else 1 + a),) * n
                   for _, (rw, a) in rules]
        zero_reserves = [None if rw is None else _pair(inst.values[rw][j] / 2) if a is None
                         else (0, 1) for j, (rw, a) in rules]
    elif isinstance(spec, BidderDependent):
        if len(spec.cost_multiplier) != n or len(spec.rightful_auctions) != n:
            raise ValueError(f"bidder-dep spec covers {len(spec.cost_multiplier)} and "
                             f"{len(spec.rightful_auctions)} bidders, market has {n}")
        if any(not 0 <= j < m for owned in spec.rightful_auctions for j in owned):
            raise ValueError(f"bidder-dep spec names a rightful auction outside "
                             f"the market's {m} auctions")
        factors = [tuple(_pair(None if a is None else 1 + a) for a in spec.cost_multiplier)] * m
    elif not isinstance(spec, SecondPrice):
        raise TypeError(f"unknown mechanism: {spec!r}")
    shift_is_cost = isinstance(spec, BidderDependent)
    shift_is_reserve = not shift_is_cost and not isinstance(spec, SingleBidderCalibrated)

    scales, all_values, all_reserves, all_shifts = [], [], [], []
    for (scale, valued, costed, *_), factor, zero in zip(inst.columns, factors, zero_reserves):
        # d_j is the lcm of the denominators of the values, the costs that
        # count and the reserves: L_j over the running gcd g of L_j, the
        # values and those costs, with the running lcm of the reserves' own.
        g, den = scale, 1 if zero is None else zero[1]
        for _, v in valued:
            g = gcd(g, v)
        terms = []  # (bidder, C, reserve numerator or None, reserve denominator)
        for i, c in costed if factor else ():
            g = gcd(g, c)
            if factor[i] is None:
                terms.append((i, c, None, 1))
            else:
                num, q = factor[i][0] * c, factor[i][1] * scale
                r = gcd(num, q)
                terms.append((i, c, num // r, q // r))
                den = lcm(den, q // r)
        d = lcm(scale // g, den)
        column_values = [0] * n
        for i, v in valued:
            column_values[i] = v * d // scale
        column_reserves = [None if zero is None else zero[0] * (d // zero[1])] * n
        column_shifts = column_reserves if shift_is_reserve else [0] * n
        for i, c, num, q in terms:
            column_reserves[i] = None if num is None else num * (d // q)
            if shift_is_cost:
                column_shifts[i] = c * (d // scale)
        scales.append(d)
        all_values.append(column_values)
        all_reserves.append(column_reserves)
        all_shifts.append(column_shifts)
    built = Market(spec, tuple(scales), tuple(all_values), tuple(all_reserves), tuple(all_shifts))
    object.__setattr__(inst, "_market", built)
    return built


# ---------------------------------------------------------------------------
# The auction kernel
#
# It runs on the `Market`'s ints. In auction j a bid is a pair (P, Q) meaning
# P / (Q * d_j): it is eligible when P >= Q * R_i (every bid is nonnegative,
# so a zero reserve admits it without a comparison), and its score is the
# pair (P - Q * S_i, Q). Two scores (A, Q) and (A', Q') compare as A * Q'
# against A' * Q, with no gcd. Everything an
# auction decides depends on its top two eligible bidders in rank order, its
# standing in a `Bids`: the winner, its price and every bidder's threshold,
# all read from `_least_bid`, the one statement of the price rule. Auctions and
# the what-ifs of `Bids.trials` price winners through `_price`; a what-if's
# standing is its trial entry and the best rival of one rivals-only scan.
# Fractions are built only for payments and for `Bids[i]`.

# The best and second-best eligible (A, Q, bidder) entries of one auction in
# rank order; shorter when fewer than two bidders are eligible.
Standing = tuple[tuple[int, int, int], ...]


def _scan(nums: Sequence[int], dens: Sequence[int], reserves: Sequence[int | None],
          shifts: Sequence[int | None], index: Sequence[int] | None = None) -> Standing:
    """The one loop over a bid column of (nums[i], dens[i]) pairs: over every
    bidder, or only over the bidders of `index`, at least two in increasing
    order (so `itemgetter` picks a tuple)."""
    if index is not None:
        nums, dens, reserves, shifts = map(itemgetter(*index), (nums, dens, reserves, shifts))
    best_a = second_a = second_q = None
    best_q = best_i = second_i = 0
    for i, p, q, r, s in zip(range(len(nums)) if index is None else index,
                             nums, dens, reserves, shifts):
        if r is None or (r and p < q * r):
            continue
        a = p - q * s if s else p
        if a == second_a and q == second_q:
            continue  # a lower index already holds second place with this score
        if best_a is None:
            best_a, best_q, best_i = a, q, i
        elif a * best_q > best_a * q:
            best_a, best_q, best_i, second_a, second_q, second_i = a, q, i, best_a, best_q, best_i
        elif second_a is None or a * second_q > second_a * q:
            second_a, second_q, second_i = a, q, i
    if best_a is None:
        return ()
    best = (best_a, best_q, best_i)
    return (best,) if second_a is None else (best, (second_a, second_q, second_i))


def _least_bid(mk: Market, auction: int, bidder: int,
               top: Standing) -> tuple[int, int, bool] | None:
    """The price rule max(r_i, s_i + best rival score): the least bid with which
    `bidder` beats its rivals in `top`, as (P, Q, inclusive) = P / (Q * d_j);
    None when its reserve is infinite."""
    own = mk.reserves[auction][bidder]
    if own is None:
        return None
    for a, q, rival in top:
        if rival != bidder:
            price = mk.shifts[auction][bidder] * q + a
            if own * q <= price:
                return price, q, bidder < rival
            break
    return own, 1, True


def _price(mk: Market, auction: int, top: Standing) -> tuple[int, int]:
    """The winner's price in a nonempty standing: its `_least_bid` (P, Q)."""
    return _least_bid(mk, auction, top[0][2], top)[:2]


def _priced(mk: Market, auction: int, top: Standing) -> tuple[int | None, Fraction]:
    """The winner of a standing and its `_price`, (None, 0) when it is empty."""
    if not top:
        return None, ZERO
    pay, q = _price(mk, auction, top)
    return top[0][2], Fraction(pay, q * mk.scale[auction]) if pay else ZERO


def run_auction(spec: MechanismSpec, inst: Instance, auction: int,
                bids: Sequence[Fraction]) -> AuctionResult:
    """Resolve auction `auction` under `spec` for a column of Fraction bids."""
    if len(bids) != inst.num_bidders:
        raise ValueError(f"expected {inst.num_bidders} bids, got {len(bids)}")
    mk = market(spec, inst)
    if not 0 <= auction < len(mk.scale):
        raise ValueError(f"auction {auction} out of range")
    d = mk.scale[auction]
    nums = [b.numerator * d for b in bids]
    if min(nums) < 0:
        raise ValueError(f"bids must be nonnegative, got {min(bids)}")
    top = _scan(nums, [b.denominator for b in bids], mk.reserves[auction], mk.shifts[auction])
    return AuctionResult(*_priced(mk, auction, top))


def min_winning_bid(bids: Bids, auction: int, bidder: int) -> Threshold:
    """Smallest bid with which `bidder` wins `auction`, rivals' bids fixed,
    read in O(1) from the auction's standing in `bids` under its `Market`,
    once both ranges are checked. The bidder's own entry in the standing is
    skipped. The value is None (infinite) when the bidder can never win;
    `inclusive` follows the lowest-index tie-break. The `Threshold` holds the
    kernel's ints as they are: no gcd and no `Fraction`."""
    mk = bids.market
    if not 0 <= bidder < len(mk.values[0]):
        raise ValueError(f"bidder {bidder} out of range")
    if not 0 <= auction < len(mk.scale):
        raise ValueError(f"auction {auction} out of range")
    least = _least_bid(mk, auction, bidder, bids.standings[auction])
    if least is None:
        return NEVER
    num, q, inclusive = least
    return Threshold(num, q * mk.scale[auction], inclusive)


def _moved(top: Standing, bidder: int, nums: Sequence[int], dens: Sequence[int],
           reserves: Sequence[int | None], shifts: Sequence[int | None]) -> Standing:
    """`top` once `bidder`'s entry of the column (nums, dens) has changed: the
    new entry is placed against the kept rivals in O(1), and the column is
    scanned again only when the bidder held one of the two places and fell or
    is no longer eligible (the bidder that rises into the top two is not kept)."""
    p, q, reserve, shift = nums[bidder], dens[bidder], reserves[bidder], shifts[bidder]
    entry = None if reserve is None or (reserve and p < q * reserve) else \
        (p - q * shift if shift else p, q, bidder)
    if top and top[0][2] == bidder:
        held, rest = top[0], top[1:]
    elif len(top) == 2 and top[1][2] == bidder:
        held, rest = top[1], top[:1]
    else:
        held, rest = None, top
    if entry is not None:
        a = entry[0]
        for k, (rival_a, rival_q, rival) in enumerate(rest):
            mine, theirs = a * rival_q, rival_a * q
            if mine > theirs or (mine == theirs and bidder < rival):
                return (rest[:k] + (entry,) + rest[k:])[:2]
        if held is None:
            return rest if len(rest) == 2 else rest + (entry,)
        if len(top) < 2 or not a * held[1] < held[0] * q:
            return rest + (entry,)
    elif held is None or len(top) < 2:
        return rest
    return _scan(nums, dens, reserves, shifts)


class Bids:
    """Bid rows under one (spec, instance), with every auction's standing.

    Bidder i's bid in auction j is the kernel's pair (`nums[j][i]`,
    `dens[j][i]`). `bids[i]` builds bidder i's row of Fractions from them.
    It starts from truthful bids (V, 1), each standing scanned only over the
    auction's `Instance.seeds`, and moves in each multiplier of its profile
    other than 1. `move`, the only code that writes a bid, sets a bidder to
    a new uniform multiplier: it walks only the auctions the bidder values
    (`Instance.valued`), since a zero-value bid stays zero, and updates each
    standing where its reserve is finite, in O(1) unless the mover held one
    of the top two places and fell (a profile, all multipliers >= 1, never
    makes a bidder fall). `sweeps[i]` holds bidder i's best-response sweep
    constants, which depend only on the `Market`; `bestresponse` fills it on
    first use.
    """

    __slots__ = ("spec", "inst", "market", "nums", "dens", "standings", "sweeps")

    def __init__(self, spec: MechanismSpec, inst: Instance,
                 profile: MultiplierProfile) -> None:
        n, k = inst.num_bidders, len(profile.multipliers)
        if k != n:
            raise ValueError(f"profile has {k} bidders, instance has {n}")
        self.spec, self.inst = spec, inst
        self.market = mk = market(spec, inst)
        self.nums = nums = [list(column) for column in mk.values]
        self.dens = dens = [[1] * n for _ in mk.scale]
        self.standings = [_scan(*c) for c in zip(nums, dens, mk.reserves, mk.shifts, inst.seeds)]
        self.sweeps: list[tuple | None] = [None] * n
        for i, theta in enumerate(profile.multipliers):
            if theta != 1:
                self.move(i, theta)

    def _check(self, bidder: int) -> None:
        if not 0 <= bidder < self.inst.num_bidders:
            raise ValueError(f"bidder {bidder} out of range")

    def __getitem__(self, bidder: int) -> Sequence[Fraction]:
        self._check(bidder)
        return tuple([Fraction(nums[bidder], dens[bidder] * d)
                      for nums, dens, d in zip(self.nums, self.dens, self.market.scale)])

    def move(self, bidder: int, theta: Fraction) -> None:
        """Bidder `bidder` bids `theta` times its value in every auction it
        values; its other entries are left as they are. A negative `theta`
        is a ValueError: the kernel assumes nonnegative bids."""
        self._check(bidder)
        p, q = theta.numerator, theta.denominator
        if p < 0:
            raise ValueError(f"multiplier must be nonnegative, got {theta}")
        mk, all_nums, all_dens, standings = self.market, self.nums, self.dens, self.standings
        values, reserves, shifts = mk.values, mk.reserves, mk.shifts
        for j, _ in self.inst.valued[bidder]:
            nums, dens = all_nums[j], all_dens[j]
            nums[bidder] = p * values[j][bidder]
            dens[bidder] = q
            if reserves[j][bidder] is not None:  # else the bidder never enters the standing
                standings[j] = _moved(standings[j], bidder, nums, dens, reserves[j], shifts[j])

    def trials(self, auction: int, bidder: int,
               bids: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int] | None]:
        """Per kernel pair (P, Q) in `bids`, the `_price` `bidder` pays bidding it
        in `auction`, or None if it loses, once both ranges are checked. One
        scan ranks the rivals (on a copy of the reserves, the bidder's made
        infinite); each trial is then decided in O(1): it must reach its
        reserve and outscore the best rival, a tie going to the lower index,
        and a winner is priced on the standing (trial, best rival). The `Bids`
        and its `Market` are left unchanged."""
        self._check(bidder)
        mk = self.market
        if not 0 <= auction < len(mk.scale):
            raise ValueError(f"auction {auction} out of range")
        own, shift = mk.reserves[auction][bidder], mk.shifts[auction][bidder]
        rivals = list(mk.reserves[auction])
        rivals[bidder] = None
        best = _scan(self.nums[auction], self.dens[auction], rivals, mk.shifts[auction])[:1]
        for p, q in bids:
            if own is None or (own and p < q * own):
                yield None
                continue
            a = p - q * shift if shift else p
            if best:
                rival_a, rival_q, rival = best[0]
                lead = a * rival_q - rival_a * q  # the trial's score over the rival's
                if lead < 0 or not lead and rival < bidder:
                    yield None
                    continue
            yield _price(mk, auction, ((a, q, bidder),) + best)

    def outcome(self) -> Outcome:
        """Every auction's winner and price, read from the standings."""
        winners, prices = zip(*[_priced(self.market, j, top)
                                for j, top in enumerate(self.standings)])
        return Outcome(winners, prices)


def run_all(spec: MechanismSpec, inst: Instance, profile: MultiplierProfile) -> Outcome:
    """Run every auction under the uniform bids of `profile`, priced from
    the standings of one `Bids`."""
    return Bids(spec, inst, profile).outcome()


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
        alpha = spec.cost_multiplier
        return {"kind": "single-bidder", "alpha": "inf" if alpha is None else format_ratio(alpha)}
    if isinstance(spec, AuctionDependent):
        return {"kind": "auction-dep"}
    if isinstance(spec, BidderDependent):
        return {"kind": "bidder-dep"}
    raise TypeError(f"unknown mechanism: {spec!r}")
