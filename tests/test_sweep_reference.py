"""`arena sweep-global` against its closed form (`tests/reference_sweep.py`)."""

from fractions import Fraction

import pytest

import reference_sweep as ref
from bidarena.cli import parse_gamma_grid, sweep_global

F = Fraction


@pytest.mark.parametrize("k, points", [(4, 26), (8, 30), (16, 38), (48, 70)])
def test_sweep_matches_closed_form(k, points):
    rows = sweep_global(F(1, k), parse_gamma_grid("0:2:20"))
    assert len(rows) == points
    for gamma, report in rows:
        welfare = ref.welfare(k, gamma)
        assert (report.welfare, report.opt, report.poa) == (welfare, k, welfare / k), gamma


def test_closed_form_pieces_and_peak():
    # Welfare is 1 + 2*delta*(i - 1) on (B_i, 1 + delta^i] and 2*delta*i on
    # (1 + delta^(i+1), B_i]; checked at both ends of every piece.
    k = 48
    delta = F(1, k)
    assert ref.interleaved(k)
    for i in range(1, k + 1):
        limit, critical = ref.both_won_limit(k, i), 1 + delta ** i
        assert ref.welfare(k, critical) == ref.welfare(k, (limit + critical) / 2) \
            == 1 + 2 * delta * (i - 1)
        assert ref.welfare(k, limit) == ref.welfare(k, 1 + delta ** (i + 1) + delta ** (k + 2)) \
            == 2 * delta * i
    # The interleaving at 1024 bidders, and so the peak on (B_n, 1 + delta^n].
    k = 1024
    delta = F(1, k)
    assert ref.interleaved(k)
    peak = ref.welfare(k, 1 + delta ** k) / k
    assert peak == (1 + 2 * delta * (k - 1)) / k == 3 * delta - 2 * delta ** 2
    assert ref.welfare(k, 1 + delta ** (k - 1)) / k < peak
    assert not ref.interleaved(1)  # the check can fail: B_1 = 3 lies above 1 + delta = 2
