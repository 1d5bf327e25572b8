from fractions import Fraction
from math import lcm

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from bidarena.instances import counterexample
from bidarena.mechanisms import GlobalCostMultiplier, run_all
from bidarena.model import (Instance, MultiplierProfile, Outcome, bids_from,
                            optimal_welfare, roi_satisfied, welfare)

from conftest import all_specs, grid_rationals, instances_with_profiles, small_instances


def inst_2x2():
    return Instance.from_rows([[4, 1], [2, 3]], [[1, 1], [1, 1]])


def test_from_rows_converts_text_exactly():
    inst = Instance.from_rows([["0.25", "1/2"]], [["0", 2]])
    assert inst.values[0] == (Fraction(1, 4), Fraction(1, 2))
    assert inst.costs[0] == (Fraction(0), Fraction(2))


def test_instance_shape_properties():
    inst = inst_2x2()
    assert inst.num_bidders == 2
    assert inst.num_auctions == 2


def test_instance_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 1"):
        Instance.from_rows([[1, 2], [3]], [[0, 0], [0, 0]])


def test_instance_rejects_negative_entries():
    with pytest.raises(ValueError, match="negative"):
        Instance.from_rows([[1]], [["-1/2"]])
    # Entries are checked in row-major order, each for its type first.
    with pytest.raises(ValueError, match=r"values\[0\]\[1\] is negative: -1$"):
        Instance.from_rows([[1, -1], ["-1/2", 0]], [[0, 0], [0, 0]])
    with pytest.raises(TypeError, match=r"costs\[0\]\[0\] is float"):
        Instance(((Fraction(1),),), ((-0.5,),))


def test_instance_rejects_mismatched_matrices():
    with pytest.raises(ValueError):
        Instance.from_rows([[1, 2]], [[1]])
    with pytest.raises(ValueError, match="costs has 2 rows, expected 1"):
        Instance(((Fraction(1),),), ((Fraction(0),), (Fraction(0),)))


def test_instance_rejects_empty():
    with pytest.raises(ValueError):
        Instance((), ())
    with pytest.raises(ValueError):
        Instance(((),), ((),))


def test_instance_rejects_floats():
    with pytest.raises(TypeError):
        Instance.from_rows([[0.5]], [[0]])
    with pytest.raises(TypeError, match=r"values\[0\]\[0\] is float"):
        Instance(((0.5,),), ((Fraction(0),),))


def dense_views(inst):
    """`valued`, `columns` and `rivals` recomputed from every entry of the
    matrices."""
    n, m = inst.num_bidders, inst.num_auctions
    valued = tuple(tuple((j, inst.values[i][j]) for j in range(m) if inst.values[i][j] != 0)
                   for i in range(n))
    columns = []
    for j in range(m):
        values = [inst.values[i][j] for i in range(n)]
        costs = [inst.costs[i][j] for i in range(n)]
        scale = lcm(*(x.denominator for x in values + costs))
        margins = [v - c for v, c in zip(values, costs)]
        best = max(margins)
        columns.append((scale,
                        tuple((i, int(v * scale)) for i, v in enumerate(values) if v != 0),
                        tuple((i, int(c * scale)) for i, c in enumerate(costs) if c != 0),
                        best, margins.index(best)))
    rivals = tuple(tuple(k for k in range(n)
                         if k != i and any(inst.values[i][j] != 0 and inst.values[k][j] != 0
                                           for j in range(m)))
                   for i in range(n))
    return valued, tuple(columns), rivals


# Entries from {0, 1/2, 1} make zero values, zero costs and tied best margins
# common; the examples tie the best margin between bidders with and without
# a cost, at a positive, a zero and a negative best margin.
@given(small_instances(entries=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])))
@example(Instance.from_rows([[1, 0, 0], ["1/2", 0, 0], [1, 0, 0]],
                            [["1/2", 0, 1], [0, 0, 1], ["1/2", 0, 1]]))
@example(Instance.from_rows([[0, 2], [1, 3]], [[0, 1], [1, 2]]))
# A cost denominator that no value has: a scale over the values alone fails.
@example(Instance.from_rows([[1]], [["1/3"]]))
def test_instance_views_match_a_dense_recomputation(inst):
    valued = inst.valued
    assert (valued, inst.columns, inst.rivals) == dense_views(inst)
    # Both views come from one derivation, kept for every later read.
    assert inst.valued is valued
    assert inst.columns is inst.columns


def test_profile_requires_multiplier_at_least_one():
    with pytest.raises(ValueError):
        MultiplierProfile.of(["1/2"])
    MultiplierProfile.of(["1"])  # boundary is fine
    with pytest.raises(ValueError, match="at least one bidder"):
        MultiplierProfile(())
    with pytest.raises(TypeError, match="multiplier 0 is int"):
        MultiplierProfile((1,))


def test_bids_scale_values():
    inst = Instance.from_rows([[2, 1, 1]], [[1, 1, 2]])
    assert bids_from(MultiplierProfile.of(["3/2"]), inst) == \
        ((Fraction(3), Fraction(3, 2), Fraction(3, 2)),)


def test_bids_at_one_are_the_values():
    inst = inst_2x2()
    assert bids_from(MultiplierProfile.uniform(2), inst) == inst.values


def test_bids_reject_wrong_profile_size():
    with pytest.raises(ValueError):
        bids_from(MultiplierProfile.uniform(3), inst_2x2())


@given(instances_with_profiles())
def test_bids_dominate_values(pair):
    inst, profile = pair
    bids = bids_from(profile, inst)
    for i in range(inst.num_bidders):
        for j in range(inst.num_auctions):
            assert bids[i][j] >= inst.values[i][j]


def outcome_single_winner(inst, winner, auction, payment):
    m = inst.num_auctions
    winners = tuple(winner if j == auction else None for j in range(m))
    prices = tuple(payment if j == auction else Fraction(0) for j in range(m))
    return Outcome(winners, prices)


def test_welfare_counts_value_minus_cost():
    inst = Instance.from_rows([[5], [3], [4]], [[1], [2], [1]])
    out = outcome_single_winner(inst, 0, 0, Fraction(4))
    assert welfare(inst, out) == 4


def test_welfare_can_be_negative():
    inst = Instance.from_rows([[0]], [[1]])
    out = outcome_single_winner(inst, 0, 0, Fraction(0))
    assert welfare(inst, out) == -1


def test_welfare_of_empty_allocation_is_zero():
    inst = inst_2x2()
    empty = Outcome((None, None), (Fraction(0),) * 2)
    assert welfare(inst, empty) == 0


def test_optimal_welfare_takes_best_nonnegative_per_auction():
    assert optimal_welfare(Instance.from_rows([[3, 7]], [[2, 2]])) == 6
    assert optimal_welfare(Instance.from_rows([[1]], [[5]])) == 0
    assert optimal_welfare(inst_2x2()) == 5


@given(small_instances(entries=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                                Fraction(1), Fraction(7, 4)])))
def test_optimal_welfare_sums_each_auctions_positive_best_margin(inst):
    opt = optimal_welfare(inst)
    margins = [max(v - c for v, c in zip(values, costs))
               for values, costs in zip(zip(*inst.values), zip(*inst.costs))]
    assert opt == sum((best for best in margins if best > 0), Fraction(0))
    assert optimal_welfare(inst) is opt  # computed once, kept on the instance


@given(small_instances())
def test_optimal_welfare_is_invariant_under_bidder_order(inst):
    flipped = Instance(inst.values[::-1], inst.costs[::-1])
    assert optimal_welfare(inst) == optimal_welfare(flipped)


def test_roi_compares_value_to_payment():
    inst = Instance.from_rows([[2, 1, 1]], [[0, 0, 0]])
    # Won value 2 + 1 = 3 against payment 3 + 1 = 4; the unsold auction adds nothing.
    out = Outcome((0, 0, None), (Fraction(3), Fraction(1), Fraction(0)))
    assert not roi_satisfied(inst, out, 0)
    assert roi_satisfied(inst, Outcome((0, 0, None), (Fraction(3), Fraction(0), Fraction(0))), 0)


def test_roi_holds_on_boundary_and_without_wins():
    inst = Instance.from_rows([[2]], [[0]])
    assert roi_satisfied(inst, outcome_single_winner(inst, 0, 0, Fraction(2)), 0)
    empty = Outcome((None,), (Fraction(0),))
    assert roi_satisfied(inst, empty, 0)


def matches_fraction_sums(inst, outcome) -> bool:
    """`welfare` and every bidder's `roi_satisfied` against plain Fraction
    sums, one addition at a time."""
    total = Fraction(0)
    net = [Fraction(0)] * inst.num_bidders
    for j, (i, price) in enumerate(zip(outcome.winners, outcome.prices)):
        if i is not None:
            total += inst.values[i][j] - inst.costs[i][j]
            net[i] += inst.values[i][j] - price
    got = welfare(inst, outcome)
    return type(got) is Fraction and got == total and \
        [roi_satisfied(inst, outcome, i) for i in range(inst.num_bidders)] == [x >= 0 for x in net]


@st.composite
def instances_with_outcomes(draw):
    """Any winner per auction, or none, at any grid price."""
    inst = draw(small_instances())
    winners = tuple(draw(st.sampled_from([None, *range(inst.num_bidders)]))
                    for _ in range(inst.num_auctions))
    prices = tuple(Fraction(0) if w is None else draw(grid_rationals) for w in winners)
    return inst, Outcome(winners, prices)


@settings(max_examples=60, deadline=None)
@given(instances_with_profiles(), instances_with_outcomes())
def test_int_sums_match_fraction_sums_on_small_instances(pair, drawn):
    inst, profile = pair
    for spec in all_specs(inst):
        assert matches_fraction_sums(inst, run_all(spec, inst, profile))
    assert matches_fraction_sums(*drawn)


def test_int_sums_match_fraction_sums_across_the_worst_case_family():
    # Costs delta^-i and values 1 + delta^-i, with 81-digit numerators at i = 48.
    delta = Fraction(1, 48)
    inst = counterexample(delta)
    for i in range(1, 49):
        spec = GlobalCostMultiplier(1 + delta ** i)
        for theta in (Fraction(1), 1 + delta ** i, Fraction(2)):
            outcome = run_all(spec, inst, MultiplierProfile((theta,) * inst.num_bidders))
            assert matches_fraction_sums(inst, outcome), (i, theta)


def test_int_sums_match_fraction_sums_on_negative_welfare():
    # Every winner's cost exceeds its value, at five different denominators.
    inst = Instance.from_rows([["1/3", "1/6", 0], ["2/7", 1, "1/5"]],
                              [["1/2", "5/7", 1], ["4/9", "3/2", "1/4"]])
    outcome = Outcome((0, 1, 1), (Fraction(1, 4), Fraction(2), Fraction(0)))
    assert welfare(inst, outcome) == Fraction(1, 3) - Fraction(1, 2) + 1 - Fraction(3, 2) \
        + Fraction(1, 5) - Fraction(1, 4) < 0
    assert [roi_satisfied(inst, outcome, i) for i in range(2)] == [True, False]
    assert matches_fraction_sums(inst, outcome)


def test_outcome_rejects_price_without_winner():
    Outcome((0, None), (Fraction(2), Fraction(0)))
    with pytest.raises(ValueError, match="auction 1 has no winner but price 2"):
        Outcome((0, None), (Fraction(0), Fraction(2)))


def test_outcome_rejects_length_mismatch():
    with pytest.raises(ValueError, match="2 winners but 1 prices"):
        Outcome((0, None), (Fraction(0),))
    with pytest.raises(ValueError, match="1 winners but 2 prices"):
        Outcome((0,), (Fraction(0), Fraction(0)))


def test_public_api_exports_resolve():
    import bidarena
    for name in bidarena.__all__:
        assert hasattr(bidarena, name)
    assert bidarena.__version__
