"""Slow reference for `bidarena.bestresponse.best_response_against_bids`.

The candidate x auction loop: every candidate multiplier (1, each threshold
ratio of at least 1, the midpoints between consecutive ones, and one past the
largest) is rescored against the whole threshold table. The tests compare the
sorted sweep against it, and `reference_dynamics` runs it on tables of its
own; the package never imports it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from bidarena.bestresponse import ResponseResult, threshold_table
from bidarena.mechanisms import Bids, MechanismSpec, Threshold
from bidarena.model import Instance, ONE, ZERO


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
