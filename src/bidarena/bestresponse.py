"""Exact best responses for ROI-constrained uniform bidders.

Fixing rival bids fixes, for each auction, the minimum bid that wins.
Dividing by the bidder's value turns each threshold into a multiplier ratio;
`threshold_table` lists them for the auctions worth contesting, walking only
the auctions the bidder values (`Instance.valued`; the sweep also skips
those where its reserve is infinite); `min_winning_bid` reads each in O(1)
from the standing of the caller's `Bids`. The set of auctions
won is a prefix of the ratio order: it only grows as the multiplier climbs.
The best response lives on candidates (1, each ratio of at least 1, the
midpoints between consecutive ratios, and one past the largest), and
`best_response_against_bids` scores them in one sweep of the thresholds
sorted by ratio. Running sums of won value and of won threshold payment grow
as the sweep passes each ratio; at a ratio itself only the thresholds that
admit an equal bid (`inclusive`) count as won. A candidate is feasible when
value covers payment, and the sweep stops at the first that is not. It runs
on Python ints scaled by `_sweep_constants` and builds no `Fraction`: the
reply keeps its multiplier and totals as int pairs. One call costs a sort
of the bidder's valued auctions, and no bid column is scanned.

`best_response_oracle` and `quasilinear_best_bid_check` answer the same
questions by brute force on the ints of a `Bids`; `arena verify` and the tests
check them against the exact route, and neither feeds the dynamics.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter

from .mechanisms import Bids, MechanismSpec, Threshold, _price, _scan, min_winning_bid
from .model import Instance, ONE

ORACLE_GRID = 40  # evenly spaced steps of `best_response_oracle`'s multiplier grid


class ResponseResult:
    """A reply: its multiplier, the auctions it wins, and their total value
    and payment. Each number is kept as the unreduced int pair (numerator,
    denominator) it is handed, a Fraction as its own pair, and is built into
    a Fraction when read. Equality, hashing and repr go by value."""

    __slots__ = ("multiplier_ratio", "won_auctions", "value_ratio", "payment_ratio")

    def __init__(self, multiplier: Fraction | tuple[int, int], won_auctions: frozenset[int],
                 total_value: Fraction | tuple[int, int],
                 total_payment: Fraction | tuple[int, int]) -> None:
        self.won_auctions = won_auctions
        self.multiplier_ratio, self.value_ratio, self.payment_ratio = [
            x if type(x) is tuple else x.as_integer_ratio()
            for x in (multiplier, total_value, total_payment)]

    multiplier = property(lambda self: Fraction(*self.multiplier_ratio))
    total_value = property(lambda self: Fraction(*self.value_ratio))
    total_payment = property(lambda self: Fraction(*self.payment_ratio))

    def _key(self) -> tuple:
        return self.multiplier, self.won_auctions, self.total_value, self.total_payment

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ \
            else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = zip(("multiplier", "won_auctions", "total_value", "total_payment"), self._key())
        return f"ResponseResult({', '.join(f'{name}={x!r}' for name, x in fields)})"


def _check_bids(inst: Instance, spec: MechanismSpec, bidder: int, bids: Bids) -> None:
    """Reject a bidder out of range, or bids built for another (spec, inst)."""
    if not 0 <= bidder < inst.num_bidders:
        raise ValueError(f"bidder {bidder} out of range")
    if (bids.spec is not spec and bids.spec != spec) or \
            (bids.inst is not inst and bids.inst != inst):
        raise ValueError("bids were built for another mechanism or instance")


def threshold_table(inst: Instance, spec: MechanismSpec, bidder: int,
                    bids: Bids) -> list[tuple[Fraction, int, Threshold, Fraction]]:
    """(threshold / value, auction, threshold, value) for each auction the
    bidder values and can win, in auction order; row `bidder` is ignored.
    Winning an auction the bidder does not value adds no value and
    nonnegative payment. `bids` must have been built for `spec` and `inst`."""
    _check_bids(inst, spec, bidder, bids)
    table = []
    for j, value in inst.valued[bidder]:
        t = min_winning_bid(bids, j, bidder)
        if t.den:
            table.append((t.value / value, j, t, value))
    return table


def _sweep_constants(bids: Bids, bidder: int) -> tuple[int, int, list[tuple[int, int, int]]]:
    """(D, W, [(auction, V, D * (W // V))]) over the auctions the bidder
    values and may win (its `Market` reserve is finite): D is the lcm of their
    `Market` scales, each value is V / D, and W is the lcm of the V's. Kept
    in `bids.sweeps` after the first call."""
    kept = bids.sweeps[bidder]
    if kept is None:
        mk = bids.market
        valued = [j for j, _ in bids.inst.valued[bidder] if mk.reserves[j][bidder] is not None]
        d = lcm(*[mk.scale[j] for j in valued])
        values = [(j, mk.values[j][bidder] * (d // mk.scale[j])) for j in valued]
        w = lcm(*[v for _, v in values])
        kept = bids.sweeps[bidder] = (d, w, [(j, v, d * (w // v)) for j, v in values])
    return kept


def best_response_against_bids(inst: Instance, spec: MechanismSpec, bidder: int,
                               bids: Bids) -> ResponseResult:
    """Exact best response to rival bids (row `bidder` is ignored): maximize
    won value subject to value >= payment, ties broken toward the smallest
    multiplier."""
    _check_bids(inst, spec, bidder, bids)
    d, w, valued = _sweep_constants(bids, bidder)
    found, dens = [], set()
    for j, v, factor in valued:
        t = min_winning_bid(bids, j, bidder)
        if t.den:
            found.append((t, j, v, factor))
            dens.add(t.den)
    # Each threshold is an integer T over the lcm b of their denominators, and
    # each value an integer V over d. A ratio is then key / (w * b) for the
    # integer key T * d * (w // V).
    b = lcm(*dens)
    rows = []
    for t, j, v, factor in found:
        scaled = t.num * (b // t.den)
        rows.append((scaled * factor, j, t.inclusive, scaled, v))
    rows.sort(key=itemgetter(0))
    count = len(rows)
    one = w * b  # the key of ratio 1
    # Every multiplier of at least 1 wins the rows whose ratio is below 1.
    # `value` and `payment` add up V and T, so payment <= value reads
    # payment * d <= value * b.
    value = payment = 0
    end = 0
    while end < count and rows[end][0] < one:
        payment += rows[end][3]
        value += rows[end][4]
        end += 1

    # Candidates in increasing order, each group of equal ratios (and 1, even
    # when no ratio equals it) scored at the ratio and then just above it (the
    # midpoint to the next, or one past the last). The best is (value, payment,
    # multiplier pair, number of sorted rows won, tied inclusive auctions won).
    # Multiplier 1 wins only thresholds <= value, so it is always feasible and
    # sets `best` before anything reads it. Each candidate wins every row the
    # one before it won, and a row of ratio at least 1 adds payment >= value,
    # so once a candidate breaks ROI every later one does: the sweep stops.
    best = None
    key = one
    while True:
        start = end
        tied_value, tied_payment, tied = value, payment, []
        while end < count and rows[end][0] == key:
            _, j, inclusive, t, v = rows[end]
            value += v
            payment += t
            if inclusive:
                tied_value += v
                tied_payment += t
                tied.append(j)
            end += 1
        if tied_payment * d > tied_value * b:
            break
        if best is None or tied_value > best[0]:
            best = (tied_value, tied_payment, (key, one), start, tied)
        if payment * d > value * b:
            break
        following = rows[end][0] if end < count else None
        if value > best[0]:
            above = (key + one, one) if following is None else (key + following, 2 * one)
            best = (value, payment, above, end, [])
        if following is None:
            break
        key = following

    value, payment, theta, won, tied = best
    won_auctions = frozenset([row[1] for row in rows[:won]] + tied)
    return ResponseResult(theta, won_auctions, (value, d), (payment, b))


def best_response_oracle(inst: Instance, spec: MechanismSpec, bidder: int,
                         bids: Bids) -> ResponseResult:
    """Brute-force check of `best_response_against_bids`, run by `arena verify`.

    Samples multipliers on a grid of ORACLE_GRID steps over [1, largest
    ratio + 1], plus each ratio of at least 1 and the quarter points between
    consecutive ones, so every constant-won-set interval gets a sample. Over
    den = 4 * ORACLE_GRID * lcm(ratio denominators) every sample is an
    integer P / den. Each sample resolves every auction by a scan of its bid
    column with the bidder's entry set to the kernel pair (P * V_j, den), and
    sums won value and payment as ints over one common denominator. Returns
    the best feasible sample (highest value, then smallest multiplier).
    """
    ratios = {r for r, _, _, _ in threshold_table(inst, spec, bidder, bids) if r >= 1} | {ONE}
    den = 4 * ORACLE_GRID * lcm(*[r.denominator for r in ratios])
    marks = sorted(r.numerator * (den // r.denominator) for r in ratios)
    marks.append(marks[-1] + den)
    step = (marks[-1] - den) // ORACLE_GRID
    points = set(marks) | {den + step * k for k in range(1, ORACLE_GRID)}
    for low, high in zip(marks, marks[1:]):
        points.update(low + (high - low) // 4 * k for k in range(1, 4))

    mk = bids.market
    columns = [(list(nums), list(dens)) for nums, dens in zip(bids.nums, bids.dens)]
    # Every value V / d_j and payment P / (Q * d_j) the bidder can meet is an
    # integer over c, since Q is 1 or a rival's denominator.
    c = lcm(*[d * lcm(*dens[:bidder], *dens[bidder + 1:])
              for d, (_, dens) in zip(mk.scale, columns)])
    best = None
    for point in sorted(points):
        value = payment = 0
        won = []
        for j, (nums, dens) in enumerate(columns):
            v, d = mk.values[j][bidder], mk.scale[j]
            nums[bidder], dens[bidder] = point * v, den
            top = _scan(nums, dens, mk.reserves[j], mk.shifts[j])
            if top and top[0][2] == bidder:
                pay, q = _price(mk, j, top)
                payment += pay * (c // (q * d))
                if v:
                    value += v * (c // d)
                    won.append(j)
        if payment <= value and (best is None or value > best[0]):
            best = (value, payment, point, won)
    value, payment, point, won = best
    return ResponseResult((point, den), frozenset(won), (value, c), (payment, c))


def quasilinear_best_bid_check(inst: Instance, spec: MechanismSpec, auction: int,
                               bidder: int, bids: Bids) -> bool:
    """True when bidding the true value maximizes value-minus-payment in one
    auction against the rival bids in `bids`, over a canonical probe set (zero,
    half value, value, double value, the win threshold t and t + 1/1000; a bid
    below t loses and scores 0, never above truthful). Each probe is a kernel
    pair, resolved by a scan of a copy of the column."""
    _check_bids(inst, spec, bidder, bids)
    t = min_winning_bid(bids, auction, bidder)
    mk = bids.market
    d, v = mk.scale[auction], mk.values[auction][bidder]
    probes = [(0, 1), (v, 2), (v, 1), (2 * v, 1)]
    if t.den:
        # t and t + 1/1000, each (P, Q) over 1000 * t's denominator.
        p, q, step = t.num * 1000 * d, t.den * 1000, t.den * d
        probes += [(p, q), (p + step, q)]
    nums, dens = list(bids.nums[auction]), list(bids.dens[auction])

    def utility(bid: tuple[int, int]) -> tuple[int, int]:
        """Value minus payment as a pair (U, Q), meaning U / (Q * d)."""
        nums[bidder], dens[bidder] = bid
        top = _scan(nums, dens, mk.reserves[auction], mk.shifts[auction])
        if not top or top[0][2] != bidder:
            return 0, 1
        pay, q = _price(mk, auction, top)
        return v * q - pay, q

    truthful, truthful_q = utility((v, 1))
    return all(truthful * q >= u * truthful_q for u, q in map(utility, probes))
