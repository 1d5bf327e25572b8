"""Closed form of `arena sweep-global`'s welfare on the worst-case family.

With k = 1/delta bidders, bidder i (1-based) values auction a_i at delta
against cost 1 - delta, and auction b_i at 1 + delta^-i against cost
delta^-i. Every other entry in those two auctions is a zero value with zero
cost: under `global:gamma` it bids 0 and, when eligible, scores exactly 0.
So bidder i pays its reserve gamma * cost in either auction whatever the
others bid, and the bidders do not interact. Let

    B_i = (1 + delta + delta^-i) / (1 - delta + delta^-i).

Bidder i adds welfare
- 2 * delta if gamma <= B_i (it wins both auctions; ROI may hold with equality);
- 1 if B_i < gamma <= 1 + delta^i (it wins b_i only);
- 0 otherwise (winning a_i alone needs gamma <= delta / (1 - delta), below B_i).

The optimum is k. Since 1 + delta^(i+1) < B_i < 1 + delta^i, welfare is
1 + 2 * delta * (i - 1) on (B_i, 1 + delta^i] and 2 * delta * i on
(1 + delta^(i+1), B_i], so the largest ratio is (1 + 2 * delta * (k - 1)) / k
= 3 * delta - 2 * delta^2, on the whole interval (B_k, 1 + delta^k].

Everything runs on ints: with gamma = p / q,
B_i = (k^(i+1) + k + 1) / (k^(i+1) + k - 1) and 1 + delta^i = (k^i + 1) / k^i.
The tests compare it with the package; the package never imports this.
"""

from __future__ import annotations

from fractions import Fraction


def both_won_limit(k: int, i: int) -> Fraction:
    """B_i: the largest gamma at which bidder i (1-based) wins both auctions."""
    top = k ** (i + 1)
    return Fraction(top + k + 1, top + k - 1)


def welfare(k: int, gamma: Fraction) -> Fraction:
    """Equilibrium welfare under `global:gamma` with k = 1/delta bidders."""
    p, q = gamma.numerator, gamma.denominator
    both = only_b = 0
    spike = 1
    for _ in range(k):
        spike *= k  # k^i = delta^-i
        if p * (k * spike + k - 1) <= q * (k * spike + k + 1):
            both += 1
        elif p * spike <= q * (spike + 1):
            only_b += 1
    return Fraction(2 * both, k) + only_b


def interleaved(k: int) -> bool:
    """1 + delta^(i+1) < B_i < 1 + delta^i for every bidder i, on ints."""
    spike = 1
    for _ in range(k):
        spike *= k  # k^i
        num, den = k * spike + k + 1, k * spike + k - 1  # B_i
        if not (k * spike + 1) * den < num * k * spike or \
                not num * spike < (spike + 1) * den:
            return False
    return True
