"""Market model: bidders, auctions, values, user costs, outcomes.

Bidder i has value values[i][j] and imposes user cost costs[i][j] when it
wins auction j. Bidders are ROI-constrained value maximizers: they maximize
won value subject to total payment not exceeding total won value. Welfare
counts value minus user cost, so an allocation can destroy welfare even
though every bid is nonnegative. Every rule sells each auction to at most one
bidder at one price, so an outcome is one (winner, price) pair per auction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable

from .rationals import as_fraction

Matrix = tuple[tuple[Fraction, ...], ...]
# One auction of `Instance.columns`: its scale L, the lcm of the denominators
# of its values and costs; (bidder, value * L) for each nonzero value and
# (bidder, cost * L) for each nonzero cost; and the best value minus cost, with
# the lowest bidder index reaching it. Only the best margin is a Fraction.
Column = tuple[int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], Fraction, int]

ZERO = Fraction(0)
ONE = Fraction(1)


def _check_matrix(name: str, rows: Matrix, num_rows: int, num_cols: int) -> None:
    if len(rows) != num_rows:
        raise ValueError(f"{name} has {len(rows)} rows, expected {num_rows}")
    for i, row in enumerate(rows):
        if len(row) != num_cols:
            raise ValueError(f"{name} row {i} has {len(row)} entries, expected {num_cols}")
        for j, entry in enumerate(row):
            if not isinstance(entry, Fraction):
                raise TypeError(f"{name}[{i}][{j}] is {type(entry).__name__}, expected Fraction")
            if entry.numerator < 0:
                raise ValueError(f"{name}[{i}][{j}] is negative: {entry}")


@dataclass(frozen=True, slots=True)
class Instance:
    """One market: values[i][j] and costs[i][j] for bidder i, auction j.

    It keeps its views `valued`, `columns`, `seeds` and `rivals` and its
    optimal welfare (derived together on the first read of any) and the last
    `Market` built on it, neither part of equality, hashing or repr."""

    values: Matrix
    costs: Matrix
    _derived: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # The last `mechanisms.Market` built on this instance; see `mechanisms.market`.
    _market: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.values)
        if n == 0:
            raise ValueError("instance needs at least one bidder")
        m = len(self.values[0])
        if m == 0:
            raise ValueError("instance needs at least one auction")
        _check_matrix("values", self.values, n, m)
        _check_matrix("costs", self.costs, n, m)

    @property
    def num_bidders(self) -> int:
        return len(self.values)

    @property
    def num_auctions(self) -> int:
        return len(self.values[0])

    @property
    def valued(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Per bidder, its (auction, value) pairs of nonzero value, in auction order."""
        return (self._derived or self._derive())[0]

    @property
    def columns(self) -> tuple[Column, ...]:
        """Per auction, its `Column`."""
        return (self._derived or self._derive())[1]

    @property
    def seeds(self) -> tuple[tuple[int, ...] | None, ...]:
        """Per auction, the bidders a standing of uniform bids can hold, in
        index order: every bidder with a nonzero value or cost, and the two
        lowest-index others. The others all bid 0 under any multiplier, against
        the same reserve and shift, so only the lowest two can place. None
        when that list would not be shorter than the column."""
        return (self._derived or self._derive())[2]

    @property
    def rivals(self) -> tuple[tuple[int, ...], ...]:
        """Per bidder, the other bidders that value an auction it values, in
        index order: the only bidders whose moves can change its best
        response, since a move changes bids only where its mover has value."""
        return (self._derived or self._derive())[4]

    def _derive(self) -> tuple:
        """Compute and keep (`valued`, `columns`, `seeds`, optimal welfare,
        `rivals`), which no spec changes."""
        valued = tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in self.values)
        columns, seeds = [], []
        n = self.num_bidders
        for values, costs in zip(zip(*self.values), zip(*self.costs)):
            pairs = [x.as_integer_ratio() for x in values + costs]
            scale = lcm(*[q for _, q in pairs])
            ints = [p * (scale // q) for p, q in pairs]  # the values, then the costs, times L
            margins = [v - c for v, c in zip(ints[:n], ints[n:])]
            best = margins.index(max(margins))
            valued_ints = tuple([(i, v) for i, v in enumerate(ints[:n]) if v])
            costed_ints = tuple([(i, c) for i, c in enumerate(ints[n:]) if c])
            columns.append((scale, valued_ints, costed_ints, Fraction(margins[best], scale), best))
            nonzero = {i for i, _ in valued_ints + costed_ints}
            if len(nonzero) + 2 < n:
                nonzero.update([i for i in range(len(nonzero) + 2) if i not in nonzero][:2])
                seeds.append(tuple(sorted(nonzero)))
            else:
                seeds.append(None)
        opt = Fraction(*_net([best for *_, best, _ in columns if best.numerator > 0]))
        masks = [0] * self.num_auctions  # bit i of masks[j] is set when bidder i values j
        for i, row in enumerate(valued):
            bit = 1 << i
            for j, _ in row:
                masks[j] |= bit
        rivals = []
        for i, row in enumerate(valued):
            reach = 0
            for j, _ in row:
                reach |= masks[j]
            reach &= ~(1 << i)
            bidders = []
            while reach:  # one step per rival, lowest bit first
                low = reach & -reach
                bidders.append(low.bit_length() - 1)
                reach ^= low
            rivals.append(tuple(bidders))
        derived = (valued, tuple(columns), tuple(seeds), opt, tuple(rivals))
        object.__setattr__(self, "_derived", derived)
        return derived

    @staticmethod
    def from_rows(values: Iterable[Iterable[int | str | Fraction]],
                  costs: Iterable[Iterable[int | str | Fraction]]) -> Instance:
        """Build an instance from exact entries (ints, "p/q" text, Fractions)."""
        conv = lambda rows: tuple(tuple(as_fraction(x) for x in row) for row in rows)
        return Instance(conv(values), conv(costs))


@dataclass(frozen=True, slots=True)
class MultiplierProfile:
    """Per-bidder uniform bid multipliers; bidder i bids multipliers[i] * value."""

    multipliers: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.multipliers:
            raise ValueError("profile needs at least one bidder")
        for i, theta in enumerate(self.multipliers):
            if not isinstance(theta, Fraction):
                raise TypeError(f"multiplier {i} is {type(theta).__name__}, expected Fraction")
            if theta < 1:
                raise ValueError(f"multiplier {i} is {theta}, must be >= 1")

    @staticmethod
    def uniform(num_bidders: int) -> MultiplierProfile:
        """Truthful play: every multiplier 1."""
        return MultiplierProfile((Fraction(1),) * num_bidders)

    @staticmethod
    def of(multipliers: Iterable[int | str | Fraction]) -> MultiplierProfile:
        return MultiplierProfile(tuple(as_fraction(t) for t in multipliers))


@dataclass(frozen=True, slots=True)
class Outcome:
    """Per auction j, its winner winners[j] (None when nobody clears) and the
    price prices[j] that winner pays (zero when there is no winner)."""

    winners: tuple[int | None, ...]
    prices: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.prices) != len(self.winners):
            raise ValueError(f"{len(self.winners)} winners but {len(self.prices)} prices")
        for j, (winner, price) in enumerate(zip(self.winners, self.prices)):
            if winner is None and price != 0:
                raise ValueError(f"auction {j} has no winner but price {price}")


def bids_from(profile: MultiplierProfile, inst: Instance) -> Matrix:
    """Uniform bids: bidder i bids multipliers[i] * values[i][j] everywhere."""
    if len(profile.multipliers) != inst.num_bidders:
        raise ValueError(f"profile has {len(profile.multipliers)} bidders, "
                         f"instance has {inst.num_bidders}")
    rows = []
    for theta, vrow in zip(profile.multipliers, inst.values):
        if theta == 1:
            rows.append(vrow)
        else:
            rows.append(tuple(v if not v else theta * v for v in vrow))
    return tuple(rows)


def _net(gains: Iterable[Fraction], losses: Iterable[Fraction] = ()) -> tuple[int, int]:
    """sum(gains) - sum(losses) as an int pair (N, D), not necessarily in
    lowest terms: D is the lcm of every denominator, so no Fraction is built."""
    plus = [x.as_integer_ratio() for x in gains]
    minus = [x.as_integer_ratio() for x in losses]
    d = lcm(*[q for _, q in plus], *[q for _, q in minus])
    return sum([p * (d // q) for p, q in plus]) - sum([p * (d // q) for p, q in minus]), d


def welfare(inst: Instance, outcome: Outcome) -> Fraction:
    """Total value minus user cost of the allocation. Can be negative."""
    won = [(i, j) for j, i in enumerate(outcome.winners) if i is not None]
    return Fraction(*_net([inst.values[i][j] for i, j in won], [inst.costs[i][j] for i, j in won]))


def optimal_welfare(inst: Instance) -> Fraction:
    """Best possible welfare: per auction, the largest value-minus-cost if
    positive, else leave the auction unallocated. Kept on the instance."""
    return (inst._derived or inst._derive())[3]


def roi_satisfied(inst: Instance, outcome: Outcome, bidder: int) -> bool:
    """True when the bidder's total won value covers its total payment."""
    won = [j for j, i in enumerate(outcome.winners) if i == bidder]
    return _net([inst.values[bidder][j] for j in won], [outcome.prices[j] for j in won])[0] >= 0
