from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest

from bidarena import Instance, MultiplierProfile
from bidarena.mechanisms import (GlobalCostMultiplier, MechanismSpec, SecondPrice,
                                 calibrate_single_bidder, compute_auction_params,
                                 compute_bidder_params)
from bidarena.verify import family_instance

# Entries live on the quarter grid like the seeded random family.
grid_rationals = st.fractions(min_value=0, max_value=3, max_denominator=4)
thetas = st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(3, 2),
                          Fraction(2), Fraction(3)])


@st.composite
def small_instances(draw, max_side: int = 3, entries=grid_rationals):
    n = draw(st.integers(1, max_side))
    m = draw(st.integers(1, max_side))
    values = tuple(tuple(draw(entries) for _ in range(m)) for _ in range(n))
    costs = tuple(tuple(draw(entries) for _ in range(m)) for _ in range(n))
    return Instance(values, costs)


@st.composite
def instances_with_profiles(draw, max_side: int = 3):
    inst = draw(small_instances(max_side))
    profile = MultiplierProfile(tuple(draw(thetas) for _ in range(inst.num_bidders)))
    return inst, profile


def all_specs(inst: Instance) -> list[MechanismSpec]:
    specs: list[MechanismSpec] = [
        SecondPrice(),
        GlobalCostMultiplier(Fraction(0)),
        GlobalCostMultiplier(Fraction(1)),
        GlobalCostMultiplier(Fraction(3, 2)),
        compute_auction_params(inst),
        compute_bidder_params(inst),
    ]
    if inst.num_bidders == 1:
        specs.append(calibrate_single_bidder(inst))
    return specs


def seeded_market(seed: int) -> tuple[Instance, list[list[Fraction]]]:
    """A `verify` family market (zero costs more or less common, by seed) with
    random bids on the quarter grid, where scores often tie."""
    inst = family_instance(seed, zero_cost_probability=Fraction(seed % 3 + 1, 8))
    rng = random.Random(seed)
    bids = [[Fraction(rng.randrange(0, 17), 4) for _ in range(inst.num_auctions)]
            for _ in range(inst.num_bidders)]
    return inst, bids


def off_grid_instance(seed: int, zero_share: float = 0.2) -> Instance:
    """A 1-5 x 1-6 market with values and costs p/q for q <= 9, about
    `zero_share` of them zero."""
    rng = random.Random(seed)
    n, m = rng.randint(1, 5), rng.randint(1, 6)

    def entry():
        return Fraction(0) if rng.random() < zero_share else \
            Fraction(rng.randint(1, 30), rng.randint(1, 9))

    return Instance(tuple(tuple(entry() for _ in range(m)) for _ in range(n)),
                    tuple(tuple(entry() for _ in range(m)) for _ in range(n)))


def coprime_profile(rng: random.Random, num_bidders: int) -> MultiplierProfile:
    """Multipliers above 1 whose denominators are pairwise coprime and 10 to
    20 digits long."""
    dens: list[int] = []
    while len(dens) < num_bidders:
        den = rng.randrange(10 ** 9, 10 ** rng.randint(10, 20))
        if all(math.gcd(den, other) == 1 for other in dens):
            dens.append(den)
    return MultiplierProfile(tuple(1 + Fraction(rng.randrange(den), den) for den in dens))


@pytest.fixture
def first_price(monkeypatch):
    """Every winner pays its own bid (its score plus its shift) in place of
    the kernel's `_price`, in every module that prices through it."""
    def price(mk, auction, top):
        a, q, winner = top[0]
        return a + mk.shifts[auction][winner] * q, q

    for module in ("bidarena.mechanisms", "bidarena.bestresponse"):
        monkeypatch.setattr(f"{module}._price", price)


@pytest.fixture
def default_int_text_limit():
    """Python's default limit on the digits of integer text, 4300, set for
    one test whatever the environment chose, and restored after it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)
