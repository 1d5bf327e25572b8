"""Round-robin best-response dynamics and equilibrium accounting.

Starting from truthful bids (all multipliers 1), bidders update to their
exact best response in index order. The dynamics converge when a full pass
changes nobody. Convergence is then re-checked independently (`verified`):
no bidder's best response may win more value than it achieves, and every
bidder's ROI constraint must hold in the realized outcome. A reply is kept
until one of the bidder's `Instance.rivals` moves: it reads bids only in
the auctions its bidder values and ignores its own row, and a move writes
bids only in the auctions the mover values. So a round recomputes only the
replies a rival's move may have changed, the rounds stay what they would be
with every reply recomputed, and verification after a silent round
recomputes none. Non-convergence within `max_rounds` is reported, never
raised. The state of the dynamics at a round boundary is the multiplier
profile, so once a profile repeats, the rounds since its first sighting
repeat until the cap: the run then moves every bidder to the profile the cap
would reach and stops, with the report a full replay gives
(`tests/reference_dynamics.py` replays every round).

The bids live in one `Bids` value of the truthful profile, which keeps
every bid as an int pair over the instance's `Market` and every auction's
top two, first scanned only over the auction's `Instance.seeds`. A best
response reads each threshold from it in O(1); a move walks only the
auctions the mover values (`Instance.valued`), storing each new bid with one
int product and, where the mover may win, updating the standing in O(1)
unless the mover held one of the top two places and fell, which rescans that
one column. A reply's multiplier pair is compared with the bidder's
multiplier by cross-multiplying and becomes a `Fraction` only on a move. The
final outcome is priced from the same standings; every bidder's won value and
payment, and the welfare, are summed in one pass as ints over one common
denominator and compared with its reply's value pair the same way, so
`Fraction`s are built only for what the report holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .bestresponse import ResponseResult, best_response_against_bids
from .mechanisms import BidderDependent, Bids, MechanismSpec, market
from .model import Instance, MultiplierProfile, Outcome, _net, optimal_welfare


@dataclass(frozen=True, slots=True)
class Diagnostics:
    """Welfare accounting for the bidder-dependent mechanism.

    `core_auctions[i]` holds the rightful-winner auctions of i whose value
    survives i's own prescreen level. Bidders split by multiplier against
    their calibrated one: `aggressive` bid at or above it, `conservative`
    below (an infinite calibration is never reached, so those bidders are
    conservative). `core_welfare` adds up allocated value minus cost on
    conservative bidders' core auctions; `payment_surplus` adds prices
    minus winner costs over aggressive bidders' rightful auctions and over
    core auctions lost by their conservative owner. At a verified
    equilibrium each is a welfare lower bound.
    """

    core_auctions: tuple[frozenset[int], ...]
    aggressive: frozenset[int]
    conservative: frozenset[int]
    core_welfare: Fraction
    payment_surplus: Fraction


@dataclass(frozen=True, slots=True)
class EquilibriumReport:
    profile: MultiplierProfile
    converged: bool
    rounds_used: int
    verified: bool
    outcome: Outcome
    welfare: Fraction
    opt: Fraction
    poa: Fraction | None
    diagnostics: Diagnostics | None


def run_dynamics(inst: Instance, spec: MechanismSpec,
                 max_rounds: int = 50) -> EquilibriumReport:
    """Run round-robin best responses from truthful bids (every multiplier
    1) until a silent pass or max_rounds."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    n = inst.num_bidders
    theta = [Fraction(1)] * n
    bids = Bids(spec, inst, MultiplierProfile.uniform(n))
    # replies[i] is i's best response to the current bids, or None once one
    # of its `Instance.rivals` has moved since it was computed.
    rivals = inst.rivals
    replies: list[ResponseResult | None] = [None] * n
    # The multiplier profile of each round boundary so far as int pairs, by
    # round (round 0 is truthful play); no profile occurs twice.
    seen = {tuple([t.as_integer_ratio() for t in theta]): 0}
    converged = False
    rounds_used = 0
    for _ in range(max_rounds):
        rounds_used += 1
        changed = False
        for i in range(n):
            reply = replies[i]
            if reply is None:
                reply = replies[i] = best_response_against_bids(inst, spec, i, bids)
            p, q = reply.multiplier_ratio
            if p * theta[i].denominator != q * theta[i].numerator:
                theta[i] = Fraction(p, q)
                bids.move(i, theta[i])
                for k in rivals[i]:
                    replies[k] = None
                changed = True
        if not changed:
            converged = True
            break
        first = seen.setdefault(tuple([t.as_integer_ratio() for t in theta]), rounds_used)
        if first < rounds_used:
            # A round is a function of the profile, so rounds first + 1 to
            # rounds_used repeat until the cap: jump to the profile it ends on.
            at_cap = list(seen)[first + (max_rounds - first) % (rounds_used - first)]
            for i, (old, new) in enumerate(zip(theta, at_cap)):
                if new != old.as_integer_ratio():
                    theta[i] = Fraction(*new)
                    bids.move(i, theta[i])
                    replies = [None] * n
            rounds_used = max_rounds
            break

    profile = MultiplierProfile(tuple(theta))
    outcome = bids.outcome()

    # Every bidder's won value and payment, and the winners' total cost,
    # summed in one pass over the sold auctions as ints over one denominator,
    # the lcm of every won value's, cost's and price's own; each bidder's sums
    # are compared with its reply's value pair by cross-multiplying.
    sold = [(w, inst.values[w][j].as_integer_ratio(), inst.costs[w][j].as_integer_ratio(),
             price.as_integer_ratio())
            for j, (w, price) in enumerate(zip(outcome.winners, outcome.prices)) if w is not None]
    scale = lcm(*[q for _, *pairs in sold for _, q in pairs])
    achieved, paid = [0] * n, [0] * n
    spent = 0
    for w, (v, vq), (c, cq), (p, pq) in sold:
        achieved[w] += v * (scale // vq)
        spent += c * (scale // cq)
        paid[w] += p * (scale // pq)
    verified = True
    for i, reply in enumerate(replies):
        if reply is None:
            reply = best_response_against_bids(inst, spec, i, bids)
        best, d = reply.value_ratio
        if best * scale > achieved[i] * d or achieved[i] < paid[i]:
            verified = False
            break

    total = Fraction(sum(achieved) - spent, scale)
    opt = optimal_welfare(inst)
    poa = total / opt if opt > 0 else None
    diag = diagnostics(inst, spec, profile, outcome) if isinstance(spec, BidderDependent) else None
    return EquilibriumReport(profile, converged, rounds_used, verified, outcome,
                             total, opt, poa, diag)


def core_auctions(inst: Instance, spec: BidderDependent) -> tuple[frozenset[int], ...]:
    """Per bidder, its rightful auctions whose value reaches its own
    prescreen level, the reserve (1 + alpha) * cost."""
    mk = market(spec, inst)
    return tuple(frozenset(j for j in rightful if mk.reserves[j][i] is not None
                           and mk.values[j][i] >= mk.reserves[j][i])
                 for i, rightful in enumerate(spec.rightful_auctions))


def diagnostics(inst: Instance, spec: BidderDependent, profile: MultiplierProfile,
                outcome: Outcome) -> Diagnostics:
    """Accounting described on `Diagnostics`; `outcome` must come from `spec`."""
    n = inst.num_bidders
    core = core_auctions(inst, spec)
    aggressive = frozenset(
        i for i in range(n)
        if spec.cost_multiplier[i] is not None
        and profile.multipliers[i] >= spec.cost_multiplier[i]
    )
    conservative = frozenset(range(n)) - aggressive

    winners = outcome.winners
    # Core auctions their conservative owner won, and the sold auctions whose
    # price minus the winner's cost counts as payment surplus.
    kept = [j for i in conservative for j in core[i] if winners[j] == i]
    surplus = [j for i in aggressive for j in spec.rightful_auctions[i] if winners[j] is not None]
    surplus += [j for i in conservative for j in core[i] if winners[j] not in (i, None)]
    core_welfare = _net([inst.values[winners[j]][j] for j in kept],
                       [inst.costs[winners[j]][j] for j in kept])
    payment_surplus = _net([outcome.prices[j] for j in surplus],
                          [inst.costs[winners[j]][j] for j in surplus])
    return Diagnostics(core, aggressive, conservative, Fraction(*core_welfare),
                       Fraction(*payment_surplus))
