"""Slow reference for `bidarena.equilibrium.run_dynamics`.

The round-robin loop over plain bid rows, with every threshold recomputed
from scratch: every reply of every round is computed anew, from a table
built by `reference_mechanisms.min_winning_bid` on the full bid columns,
and picks its multiplier with the candidate x auction loop of
`reference_bestresponse`; the final outcome comes from
`reference_mechanisms.run_auction`. No standing or reply is kept between
calls, so a standing the package failed to update after a move, or a reply
it kept too long, shows up as a different report. Welfare, the optimum and
the bidder-dependent accounting are plain `Fraction` sums, one addition at a
time. The tests compare the two; the package never imports this.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import reference_mechanisms as ref
from reference_bestresponse import best_response_from_table
from bidarena.bestresponse import ResponseResult
from bidarena.mechanisms import BidderDependent, MechanismSpec
from bidarena.model import Instance, ZERO


@dataclass(frozen=True)
class Report:
    multipliers: tuple[Fraction, ...]
    rounds_used: int
    converged: bool
    verified: bool
    winners: tuple[int | None, ...]
    prices: tuple[Fraction, ...]
    welfare: Fraction
    opt: Fraction
    poa: Fraction | None
    # Bidder-dep only: (core auctions, aggressive, conservative, core
    # welfare, payment surplus), as in `bidarena.equilibrium.Diagnostics`.
    diagnostics: tuple | None
    # Up to convergence, the best responses a run computes when it keeps each
    # reply until another bidder that values one of the same auctions moves,
    # and how many kept replies it reuses although some other bidder moved
    # since they were computed. A converged run verifies on kept replies.
    computed: int
    reused_past_a_move: int


def best_response(inst: Instance, spec: MechanismSpec, bidder: int,
                  bid_rows: list[list[Fraction]]) -> ResponseResult:
    table = []
    for j in range(inst.num_auctions):
        value = inst.values[bidder][j]
        if not value:
            continue
        column = [row[j] for row in bid_rows]
        t = ref.min_winning_bid(spec, inst, j, bidder, column)
        if t.value is not None:
            table.append((t.value / value, j, t, value))
    return best_response_from_table(table)


def run_dynamics(inst: Instance, spec: MechanismSpec, max_rounds: int = 50) -> Report:
    n = inst.num_bidders
    theta = [Fraction(1)] * n
    bid_rows = [list(row) for row in inst.values]
    replies: list[ResponseResult | None] = [None] * n
    # shares[i][k]: bidders i and k differ and value some auction in common.
    shares = [[i != k and any(v and w for v, w in zip(inst.values[i], inst.values[k]))
               for k in range(n)] for i in range(n)]
    kept, moved_since = [False] * n, [False] * n
    computed = reused_past_a_move = 0
    converged = False
    rounds_used = 0
    for _ in range(max_rounds):
        rounds_used += 1
        changed = False
        for i in range(n):
            reply = best_response(inst, spec, i, bid_rows)
            if kept[i]:
                reused_past_a_move += moved_since[i]
            else:
                computed += 1
                kept[i], moved_since[i] = True, False
            if reply.multiplier != theta[i]:
                theta[i] = reply.multiplier
                bid_rows[i] = [theta[i] * v for v in inst.values[i]]
                replies = [None] * n
                changed = True
                for k in range(n):
                    moved_since[k] = moved_since[k] or k != i
                    kept[k] = kept[k] and not shares[k][i]
            replies[i] = reply
        if not changed:
            converged = True
            break

    results = [ref.run_auction(spec, inst, j, [row[j] for row in bid_rows])
               for j in range(inst.num_auctions)]
    winners = tuple(r.winner for r in results)
    prices = tuple(r.payment for r in results)
    verified = True
    for i, reply in enumerate(replies):
        if reply is None:
            reply = best_response(inst, spec, i, bid_rows)
        won = [j for j, w in enumerate(winners) if w == i]
        achieved = sum((inst.values[i][j] for j in won), ZERO)
        if reply.total_value > achieved or achieved < sum((prices[j] for j in won), ZERO):
            verified = False
            break
    total = ZERO
    for j, w in enumerate(winners):
        if w is not None:
            total += inst.values[w][j] - inst.costs[w][j]
    opt = ZERO
    for j in range(inst.num_auctions):
        opt += max([ZERO] + [inst.values[i][j] - inst.costs[i][j]
                             for i in range(inst.num_bidders)])
    diag = diagnostics(inst, spec, theta, winners, prices) \
        if isinstance(spec, BidderDependent) else None
    return Report(tuple(theta), rounds_used, converged, verified, winners, prices, total, opt,
                  total / opt if opt > 0 else None, diag, computed, reused_past_a_move)


def diagnostics(inst: Instance, spec: BidderDependent, theta: list[Fraction],
                winners: tuple[int | None, ...], prices: tuple[Fraction, ...]) -> tuple:
    """The bidder-dependent accounting from its definition: i's core
    auctions are its rightful ones where value reaches (1 + alpha_i) * cost
    (any value does on a zero cost; none does on a positive cost under an
    infinite alpha), and i is aggressive when theta_i >= alpha_i."""
    n = inst.num_bidders
    core = []
    for i in range(n):
        alpha = spec.cost_multiplier[i]
        core.append(frozenset(
            j for j in spec.rightful_auctions[i]
            if inst.costs[i][j] == 0
            or (alpha is not None and inst.values[i][j] >= (1 + alpha) * inst.costs[i][j])))
    aggressive = frozenset(i for i in range(n) if spec.cost_multiplier[i] is not None
                           and theta[i] >= spec.cost_multiplier[i])
    conservative = frozenset(i for i in range(n) if i not in aggressive)

    def surplus(j: int) -> Fraction:
        return ZERO if winners[j] is None else prices[j] - inst.costs[winners[j]][j]

    core_welfare = payment_surplus = ZERO
    for i in range(n):
        if i in aggressive:
            for j in spec.rightful_auctions[i]:
                payment_surplus += surplus(j)
        else:
            for j in core[i]:
                if winners[j] == i:
                    core_welfare += inst.values[i][j] - inst.costs[i][j]
                else:
                    payment_surplus += surplus(j)
    return tuple(core), aggressive, conservative, core_welfare, payment_surplus
