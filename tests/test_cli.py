import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bidarena import equilibrium, verify
from bidarena.cli import main, parse_gamma_grid, sweep_global, sweep_to_csv, CSV_HEADER
from bidarena.equilibrium import run_dynamics
from bidarena.instances import counterexample, load, save
from bidarena.mechanisms import GlobalCostMultiplier
from bidarena.model import Instance

F = Fraction


@pytest.fixture
def balanced_market(tmp_path):
    path = tmp_path / "market.json"
    save(Instance.from_rows([[2, 1, 1]], [[1, 1, 2]]), path)
    return str(path)


@pytest.fixture
def two_bidder_market(tmp_path):
    path = tmp_path / "pair.json"
    save(Instance.from_rows([[4, 1], [2, 3]], [[1, 1], [1, 1]]), path)
    return str(path)


def test_run_reports_the_balanced_equilibrium(balanced_market, capsys):
    assert main(["run", balanced_market, "--mechanism", "single-bidder"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mechanism"] == "single-bidder"
    assert report["mechanism_params"] == {"kind": "single-bidder", "alpha": "3/2"}
    assert report["converged"] is True
    assert report["verified"] is True
    assert report["rounds_used"] == 2
    assert report["profile"] == ["3/2"]
    assert report["winners"] == [0, 0, None]
    assert report["welfare"] == "1/1"
    assert report["opt"] == "1/1"
    assert report["poa"] == "1/1"
    assert report["diagnostics"] is None


def test_run_emits_diagnostics_for_bidder_dependent(two_bidder_market, capsys):
    assert main(["run", two_bidder_market, "--mechanism", "bidder-dep"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"] == {
        "core_auctions": [[0], [1]],
        "aggressive": [1],
        "conservative": [0],
        "core_welfare": "3/1",
        "payment_surplus": "1/1",
    }
    assert report["poa"] == "1/1"


def test_run_writes_an_infinite_single_bidder_alpha_as_inf(tmp_path, capsys):
    # A zero total cost over the auctions worth winning makes alpha infinite;
    # this is the one place any output spells infinity.
    path = tmp_path / "free.json"
    save(Instance.from_rows([[1, 2]], [[0, 0]]), path)
    assert main(["run", str(path), "--mechanism", "single-bidder"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mechanism_params"] == {"kind": "single-bidder", "alpha": "inf"}


def test_run_writes_to_file(balanced_market, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", balanced_market, "--mechanism", "second-price",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    json.loads(out.read_text())


def test_run_rejects_unknown_mechanism(balanced_market, capsys):
    assert main(["run", balanced_market, "--mechanism", "first-price"]) == 2
    assert "arena: unknown mechanism" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "market.json", "--mechanism", "second-price", "--tolerance", "1"],
    ["sweep-global", "--delta", "1/4", "--max-rounds", "3"],
    ["verify", "--seeds", "2", "--max-rounds", "3"],
    ["verify", "--seeds", "2", "--mechanism", "auction-dep"],
    ["generate", "random", "--grid-denominator", "8"],
    ["generate", "random", "--value-limit", "2"],
    ["generate", "random", "--cost-limit", "2"],
])
def test_removed_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_rejects_missing_file(capsys):
    assert main(["run", "/no/such/file.json", "--mechanism", "second-price"]) == 2
    assert "arena:" in capsys.readouterr().err


def test_gamma_grid_is_exact():
    assert parse_gamma_grid("0:2:4") == [F(0), F(1, 2), F(1), F(3, 2), F(2)]
    assert parse_gamma_grid("1/2:1:2") == [F(1, 2), F(3, 4), F(1)]
    for bad in ("0:2", "2:0:5", "-1:2:3", "0:2:0", "0:0:5"):
        with pytest.raises(ValueError):
            parse_gamma_grid(bad)


def test_sweep_always_includes_critical_multipliers():
    rows = sweep_global(F(1, 4), [F(1)])
    gammas = [gamma for gamma, _ in rows]
    assert gammas == sorted(gammas)
    for i in range(1, 6):
        assert 1 + F(1, 4) ** i in gammas
    assert all(report.opt == 4 for _, report in rows)
    assert all(report.poa == report.welfare / report.opt for _, report in rows)


def test_sweep_peak_matches_closed_form():
    # The pinned peaks 5/8, 11/32 and 23/128 (delta = 1/4, 1/8, 1/16) all
    # equal 3*delta - 2*delta^2; so does the peak one halving further down.
    delta = F(1, 32)
    rows = sweep_global(delta, parse_gamma_grid("0:2:20"))
    assert max(report.poa for _, report in rows) == 3 * delta - 2 * delta ** 2 == F(47, 512)
    # The whole sweep, byte for byte, on 32 bidders (digest taken before the
    # dynamics kept standings between best responses).
    assert hashlib.sha256(sweep_to_csv(rows).encode()).hexdigest() == \
        "f4202f6b69d8bdf987cc96b7f6c2c869c0d01fee381f0ecaa2bebec5499651ac"


def test_a_sweep_point_computes_one_reply_per_bidder(monkeypatch):
    # No bidder of the worst-case family values another bidder's auctions,
    # so no move drops a reply: each point computes one best response per
    # bidder, and its silent round and verification reuse them all.
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return best_response(*args)

    best_response = equilibrium.best_response_against_bids
    monkeypatch.setattr(equilibrium, "best_response_against_bids", counted)
    rows = sweep_global(F(1, 48), parse_gamma_grid("0:2:20"))
    assert calls == 3360 == len(rows) * 48
    assert max(report.rounds_used for _, report in rows) == 2


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sweep_peak_is_only_at_the_last_critical_multiplier(k):
    # On n = 1/delta bidders, among the sampled points the peak is attained
    # only at 1 + delta^n, with welfare 3 - 2*delta of the optimum n.
    delta, n = F(1, 2 ** k), 2 ** k
    rows = sweep_global(delta, parse_gamma_grid("0:2:40"))
    peak = max(report.poa for _, report in rows)
    assert [gamma for gamma, report in rows if report.poa == peak] == [1 + delta ** n]
    top = next(report for _, report in rows if report.poa == peak)
    assert (top.welfare, top.opt) == (3 - 2 * delta, n)
    assert peak == 3 * delta - 2 * delta ** 2
    # Over all gamma it holds on the whole interval (B_n, 1 + delta^n], where
    # B_n = (1 + delta + delta^-n) / (1 - delta + delta^-n) is the largest
    # gamma at which the last bidder wins both its auctions.
    b_n = (1 + delta + delta ** -n) / (1 - delta + delta ** -n)
    inside = run_dynamics(counterexample(delta), GlobalCostMultiplier((b_n + 1 + delta ** n) / 2))
    assert (inside.poa, inside.converged, inside.verified) == (peak, True, True)


def test_sweep_csv_layout():
    rows = sweep_global(F(1, 4), [F(0), F(2)])
    text = sweep_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == len(rows) + 2
    assert lines[-1].startswith("global,max-ratio,")
    peak = max(report.poa for _, report in rows)
    assert f"{peak.numerator}/{peak.denominator}" in lines[-1]


def test_sweep_cli_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-global", "--delta", "1/4", "--gamma", "0:2:10",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) >= 13  # 11 grid points, critical points, summary


def test_sweep_cli_prints_a_multiplier_past_the_float_range(capsys):
    # The decimal columns used to end the run with an OverflowError.
    assert main(["sweep-global", "--delta", "1/4", "--gamma", "0:1e400:2"]) == 0
    last = capsys.readouterr().out.splitlines()[-2].split(",")
    assert last[:2] == ["global", "gamma"] and last[2] == f"{10 ** 400}/1"
    assert last[8] == "1e+400"


def test_run_rejects_a_report_past_the_text_limit(default_int_text_limit, tmp_path, capsys):
    # Values 1/p and 1/q of 2,201 digits each load, but the welfare's
    # denominator p * q has 4,401; printing it used to end with Python's
    # message, which asks for a call no `arena` option makes.
    p, q = 10 ** 2200 + 267, 10 ** 2200 + 1
    path = tmp_path / "long.json"
    save(Instance.from_rows([[F(1, p), F(1, q)]], [[0, 0]]), path)
    assert main(["run", str(path), "--mechanism", "second-price"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("arena: cannot print an integer of more than 4300 digits, "
                            "past sys.get_int_max_str_digits()\n")


def test_sweep_cli_rejects_bad_delta(capsys):
    assert main(["sweep-global", "--delta", "1/2"]) == 2
    assert "delta" in capsys.readouterr().err


def test_generate_counterexample_round_trips(tmp_path, capsys):
    out = tmp_path / "hard.json"
    assert main(["generate", "counterexample", "--delta", "1/8",
                 "--out", str(out)]) == 0
    assert load(out) == counterexample("1/8")


def test_generate_counterexample_rejects_integers_past_the_text_limit(
        default_int_text_limit, capsys):
    # 1/1400 needs 1400^1401, 4408 digits; it used to be built and then fail
    # on printing with Python's own message.
    assert main(["generate", "counterexample", "--delta", "1/1400"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("arena: delta 1/1400 needs integers of more than 4300 digits, "
                            "past sys.get_int_max_str_digits()\n")


def test_generate_random_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["generate", "random", "--bidders", "2", "--auctions", "3",
            "--seed", "11", "--zero-cost-prob", "1/4"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_generate_writes_stdout_by_default(capsys):
    assert main(["generate", "random", "--seed", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["num_bidders"] == 3


def test_verify_cli_passes(capsys):
    assert main(["verify", "--seeds", "6"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "equilibria [second-price" in out


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_verify_cli_rejects_an_empty_seed_window(seeds, capsys):
    assert main(["verify", "--seeds", seeds]) == 2
    captured = capsys.readouterr()
    assert "--seeds must be >= 1" in captured.err
    assert "all checks passed" not in captured.out


def test_verify_cli_fails_and_lists_the_first_twenty_violations(monkeypatch, capsys):
    found = [f"violation {k}" for k in range(25)]
    monkeypatch.setattr("bidarena.cli.run_verify_suite",
                        lambda seeds: verify.VerifySummary(["one line"], found))
    assert main(["verify", "--seeds", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "one line\n"
    assert "all checks passed" not in captured.out
    err = captured.err.splitlines()
    assert err[0] == "25 violation(s):"
    assert err[1:] == [f"  violation {k}" for k in range(20)]


def test_verify_cli_reports_too_few_positive_optimum_seeds(monkeypatch, capsys):
    monkeypatch.setattr("bidarena.verify.SEED_LIMIT", 5)
    monkeypatch.setattr("bidarena.verify.optimal_welfare", lambda inst: Fraction(0))
    assert main(["verify", "--seeds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "arena: could not find enough positive-optimum seeds\n"
    assert "all checks passed" not in captured.out


def test_debug_br_prints_threshold_table(balanced_market, capsys):
    assert main(["debug-br", balanced_market, "--mechanism", "single-bidder",
                 "--bidder", "0", "--profile", "1"]) == 0
    out = capsys.readouterr().out
    assert "auction  threshold  inclusive  ratio" in out
    assert "best multiplier 3/2  won [0, 1]  value 3/1  payment 3/1" in out


def test_debug_br_lists_unwinnable_auctions(tmp_path, capsys):
    path = tmp_path / "blocked.json"
    save(Instance.from_rows([[1]], [[2]]), path)
    assert main(["debug-br", str(path), "--mechanism", "auction-dep",
                 "--bidder", "0", "--profile", "1"]) == 0
    out = capsys.readouterr().out
    assert "unwinnable auctions: [0]" in out
    assert "best multiplier 1/1  won []" in out


def test_debug_br_rejects_a_bidder_out_of_range(two_bidder_market, capsys):
    assert main(["debug-br", two_bidder_market, "--mechanism", "second-price",
                 "--bidder", "-1", "--profile", "1,1"]) == 2
    captured = capsys.readouterr()
    assert "bidder -1 out of range" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("profile, bidders", [("1", 1), ("1,3/2,2", 3)])
def test_debug_br_rejects_a_profile_of_the_wrong_length(two_bidder_market, capsys,
                                                        profile, bidders):
    assert main(["debug-br", two_bidder_market, "--mechanism", "auction-dep",
                 "--bidder", "0", "--profile", profile]) == 2
    captured = capsys.readouterr()
    assert f"profile has {bidders} bidders, instance has 2" in captured.err
    assert captured.out == ""


def test_module_entry_point_runs():
    # Run from the package's parent directory so the child imports the same
    # bidarena as this test, installed or not.
    proc = subprocess.run([sys.executable, "-m", "bidarena.cli", "verify",
                           "--seeds", "2"], capture_output=True, text=True,
                          cwd=Path(verify.__file__).parents[1])
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout
