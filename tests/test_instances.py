import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidarena.instances import (RandomFamilyParams, counterexample, instance_from_json,
                                instance_to_json, load, random_instance, save)
from bidarena.model import Instance, optimal_welfare

F = Fraction


def test_counterexample_quarter_layout():
    inst = counterexample(F(1, 4))
    assert inst.num_bidders == 4
    assert inst.num_auctions == 8
    # Bidder 1 (index 0): a cheap auction worth delta, and a spike auction.
    assert inst.values[0][0] == F(1, 4) and inst.costs[0][0] == F(3, 4)
    assert inst.values[0][1] == F(5) and inst.costs[0][1] == F(4)
    assert inst.values[1][3] == F(17) and inst.costs[1][3] == F(16)
    assert inst.values[3][7] == F(257) and inst.costs[3][7] == F(256)
    # Off-family entries are all zero.
    assert inst.values[0][2] == 0 and inst.costs[2][0] == 0


def test_counterexample_optimum_counts_one_per_bidder():
    assert optimal_welfare(counterexample(F(1, 4))) == 4
    assert optimal_welfare(counterexample(F(1, 8))) == 8


def test_counterexample_ratios_are_nested():
    delta = F(1, 4)
    inst = counterexample(delta)
    n = inst.num_bidders
    for i in range(1, n + 1):
        v = inst.values[i - 1][2 * i - 1]
        c = inst.costs[i - 1][2 * i - 1]
        assert v / c == 1 + delta ** i
        total_v = sum(inst.values[i - 1], F(0))
        total_c = sum(inst.costs[i - 1], F(0))
        assert total_v / total_c > 1 + delta ** (i + 1)


def test_counterexample_rejects_out_of_range_delta():
    for bad in (F(0), F(1, 3), F(1, 2), F(-1, 4)):
        with pytest.raises(ValueError, match="delta must lie strictly between"):
            counterexample(bad)
    with pytest.raises(ValueError, match="delta"):
        counterexample("1/2")


def test_counterexample_rejects_integers_past_the_text_limit(default_int_text_limit):
    # The sweep's last critical multiplier 1 + delta^(n+1) has a numerator
    # of 4408 digits at 1/1400 and 3086 at 1/1024.
    with pytest.raises(ValueError, match=r"^delta 1/1400 needs integers of more than 4300 "
                                         r"digits, past sys\.get_int_max_str_digits\(\)$"):
        counterexample(F(1, 1400))
    inst = counterexample(F(1, 1024))
    assert inst.num_bidders == 1024 and inst.costs[-1][-1] == 1024 ** 1024


def test_counterexample_accepts_text_delta():
    assert counterexample("1/4") == counterexample(F(1, 4))


def test_random_instance_is_deterministic():
    params = RandomFamilyParams(num_bidders=3, num_auctions=4, seed=17)
    assert random_instance(params) == random_instance(params)
    other = RandomFamilyParams(num_bidders=3, num_auctions=4, seed=18)
    assert random_instance(params) != random_instance(other)


def test_random_instance_respects_grid_and_limits():
    params = RandomFamilyParams(num_bidders=4, num_auctions=4, seed=5)
    inst = random_instance(params)
    entries = [x for matrix in (inst.values, inst.costs) for row in matrix for x in row]
    for x in entries:
        assert 0 <= x <= 3
        assert (x * 4).denominator == 1
    assert any(x.denominator == 4 for x in entries)


def test_random_instance_forces_zero_costs_in():
    params = RandomFamilyParams(num_bidders=6, num_auctions=6, seed=0,
                                zero_cost_probability=F(1))
    inst = random_instance(params)
    assert all(x == 0 for row in inst.costs for x in row)


def test_random_family_params_validation():
    with pytest.raises(ValueError, match="at least one"):
        RandomFamilyParams(num_bidders=0, num_auctions=1, seed=0)
    with pytest.raises(ValueError, match="probability"):
        RandomFamilyParams(num_bidders=1, num_auctions=1, seed=0,
                           zero_cost_probability=F(9, 8))


def test_random_family_params_take_an_exact_zero_cost_probability():
    # A float would pass the range check and fail later, in `random_instance`.
    with pytest.raises(TypeError, match="exact rational required, got float"):
        RandomFamilyParams(2, 2, 0, 0.5)
    for exact in (0, 1, F(1, 2)):
        params = RandomFamilyParams(2, 2, 0, exact)
        assert params.zero_cost_probability == exact
        assert isinstance(params.zero_cost_probability, F)
        random_instance(params)
    assert random_instance(RandomFamilyParams(2, 2, 0, 1)) == \
        random_instance(RandomFamilyParams(2, 2, 0, F(1)))


def test_json_round_trip_exact():
    inst = Instance.from_rows([[F(1, 3), 2], [0, F(7, 5)]], [[1, 0], [F(2, 3), 3]])
    assert instance_from_json(instance_to_json(inst)) == inst


def test_json_rejects_missing_and_malformed_fields():
    good = instance_to_json(Instance.from_rows([[1]], [[0]]))
    for key in ("num_bidders", "num_auctions", "values", "costs"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ValueError, match=key):
            instance_from_json(broken)
    broken = dict(good)
    broken["values"] = [["1"], ["2"]]
    with pytest.raises(ValueError, match="values must be a list of 1 rows"):
        instance_from_json(broken)
    broken = dict(good)
    broken["values"] = [["1", "2"]]
    with pytest.raises(ValueError, match="row 0"):
        instance_from_json(broken)
    broken = dict(good)
    broken["values"] = [["squid"]]
    with pytest.raises(ValueError, match=r"values\[0\]\[0\]"):
        instance_from_json(broken)
    broken = dict(good)
    broken["num_bidders"] = "1"
    with pytest.raises(ValueError, match="integers"):
        instance_from_json(broken)
    for key in ("num_bidders", "num_auctions"):
        broken = dict(good)
        broken[key] = True  # a bool is an int to isinstance; it used to load as 1
        with pytest.raises(ValueError, match="integers"):
            instance_from_json(broken)


def test_save_and_load(tmp_path):
    inst = counterexample("1/4")
    path = tmp_path / "inst.json"
    save(inst, path)
    assert load(path) == inst
    # File content stays exact: rationals travel as p/q strings.
    stored = json.loads(path.read_text())
    assert stored["values"][0][0] == "1/4"


def test_load_errors_name_the_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="broken.json"):
        load(path)
    path.write_text("[]")
    with pytest.raises(ValueError, match="expected a JSON object"):
        load(path)
    path.write_text('{"num_bidders": 1}')
    with pytest.raises(ValueError, match="broken.json: instance JSON is missing"):
        load(path)


def test_load_reads_number_literals_exactly(tmp_path):
    path = tmp_path / "literals.json"
    path.write_text('{"num_bidders": 1, "num_auctions": 2, '
                    '"values": [[0.1234567890123456789, 1e-30]], "costs": [[0.1, 0]]}')
    inst = load(path)
    assert inst.values[0] == (F("0.1234567890123456789"), F(1, 10**30))
    assert inst.costs[0] == (F(1, 10), F(0))


def test_load_rejects_huge_exponents_at_once(tmp_path):
    # 10**exponent would be built in full: 1e4000000 took seconds and
    # 1e999999999 never finished, whether a number literal or a string.
    path = tmp_path / "exponent.json"
    for entry in ("1e999999999", '"1e999999999"', "1E-4000000"):
        path.write_text('{"num_bidders": 1, "num_auctions": 1, '
                        f'"values": [[{entry}]], "costs": [[0]]}}')
        started = time.perf_counter()
        with pytest.raises(ValueError, match=r"exponent.json: .*not a rational: '1[eE]"):
            load(path)
        assert time.perf_counter() - started < 0.5


def test_json_parses_each_entry_text_once_and_reports_the_first_bad_entry():
    obj = {"num_bidders": 2, "num_auctions": 2,
           "values": [["7/3", "14/6"], ["7/3", 1]], "costs": [["1", "0"], ["0", "7/3"]]}
    inst = instance_from_json(obj)
    assert inst.values == ((F(7, 3), F(7, 3)), (F(7, 3), F(1)))
    assert inst.costs == ((F(1), F(0)), (F(0), F(7, 3)))
    # Row-major order, values before costs, even when the bad text repeats.
    obj["values"] = [["7/3", "squid"], ["squid", "7/3"]]
    obj["costs"] = [["squid", "0"], ["0", "0"]]
    with pytest.raises(ValueError, match=r"^values\[0\]\[1\]: not a rational: 'squid'$"):
        instance_from_json(obj)
    obj["values"] = [["7/3", "1"], ["7/3", 0.5]]
    with pytest.raises(ValueError, match=r"^values\[1\]\[1\]: float 0.5 is not exact$"):
        instance_from_json(obj)


def test_json_rejects_float_entries():
    broken = instance_to_json(Instance.from_rows([[1, 2]], [[0, 0]]))
    broken["values"] = [["1", 0.5]]
    with pytest.raises(ValueError, match=r"values\[0\]\[1\]"):
        instance_from_json(broken)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_instances_round_trip_through_json(seed):
    params = RandomFamilyParams(num_bidders=1 + seed % 4,
                                num_auctions=1 + (seed // 4) % 4, seed=seed)
    inst = random_instance(params)
    assert instance_from_json(instance_to_json(inst)) == inst
