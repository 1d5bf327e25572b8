"""Byte-for-byte pins on the CLI's output for a fixed set of commands.

Each digest is the sha256 of a command's stdout. A change that moves one has
changed what `arena` prints for that command, and must say why.
"""

import hashlib

import pytest

from bidarena import cli

RUN_DIGESTS = {
    "second-price": "928c4878557222f62d64b1d22dda312cdad1cf38a3c0d19ff76060cafff1441d",
    "global:1": "e7cbf4a6460cd337abfd6dfea8935fa36bc78b12ad575262cac7ffc127db6564",
    "auction-dep": "dc1cd17be19d2acfbb01345c88dc829ba1b3245d01b63f0bbdba2d7223766e8e",
    "bidder-dep": "9465a9701a93d4ed1ef21e9031b1e3524ffc8223bed0e26e77e95781c1927f1f",
    "single-bidder": "9ea30aab331fa13226acc523ae151dfc9e5f81547846c37631f821d3bfdaeed3",
}
# `arena run --max-rounds 4` on a seeded 8 x 100 market.
LARGE_RUN_DIGESTS = {
    "second-price": "a770457c824dc1078be344003cc859c862e36ae7df6b5fbf88cd04887cd6c369",
    "global:1": "d516bc81996c2716d15e798a2c2956f089dd3031183d1333cddcd3a00c744f03",
    "auction-dep": "2942a6432a75893829282a20118ed8debeee0c549bc3123982ca5eeeb97f2fb0",
    "bidder-dep": "141d49ccdef45a0be7cceffcf27bf08c778ee4f5fc8340adac1a1ff9374f730c",
}
SWEEP_DIGEST = "162aab3a57841890ec14826e3f1ed39e94a9b50caaaaae4e3ab99b18a44f10c9"
# `sweep-global --delta 1/48 --gamma 0:2:20`, the sweep-global bench workload.
SWEEP_48_DIGEST = "96c4755ced43363890a515978e71afaa98723e661d17477212fd940df71affbf"
DEBUG_BR_DIGEST = "9d8f176a7621f2754604b38acec70672218924663d0d62dc495f63093be6a259"
VERIFY_DIGEST = "7fd811aa198a40e3630e1fadc001d9f4bdd81dbd8afba4d0ee376ca5bef7c54c"
# `verify --seeds 200`: as many seeds as the verify-small bench workload runs.
VERIFY_200_DIGEST = "85efeebb91875440a78182aa74178575fcd819282e21d28568443849a724ee2b"


def stdout_digest(capsys, argv: list[str]) -> str:
    capsys.readouterr()
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.fixture(scope="module")
def markets(tmp_path_factory):
    """A seeded 6 x 30 market, a 1 x 30 one for the single-bidder rule and
    an 8 x 100 one."""
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, bidders, auctions in (("multi", "6", "30"), ("single", "1", "30"),
                                    ("large", "8", "100")):
        paths[name] = str(root / f"{name}.json")
        cli.main(["generate", "random", "--bidders", bidders, "--auctions", auctions,
                  "--seed", "11", "--out", paths[name]])
    return paths


@pytest.mark.parametrize("label", sorted(RUN_DIGESTS))
def test_run_output_is_pinned(capsys, markets, label):
    path = markets["single" if label == "single-bidder" else "multi"]
    argv = ["run", path, "--mechanism", label, "--max-rounds", "4"]
    assert stdout_digest(capsys, argv) == RUN_DIGESTS[label]


@pytest.mark.parametrize("label", sorted(LARGE_RUN_DIGESTS))
def test_large_run_output_is_pinned(capsys, markets, label):
    argv = ["run", markets["large"], "--mechanism", label, "--max-rounds", "4"]
    assert stdout_digest(capsys, argv) == LARGE_RUN_DIGESTS[label]


def test_sweep_global_output_is_pinned(capsys):
    argv = ["sweep-global", "--delta", "1/8", "--gamma", "0:2:8"]
    assert stdout_digest(capsys, argv) == SWEEP_DIGEST


def test_sweep_global_at_delta_1_48_is_pinned(capsys):
    argv = ["sweep-global", "--delta", "1/48", "--gamma", "0:2:20"]
    assert stdout_digest(capsys, argv) == SWEEP_48_DIGEST


def test_debug_br_output_is_pinned(capsys, markets):
    argv = ["debug-br", markets["multi"], "--mechanism", "bidder-dep", "--bidder", "2",
            "--profile", "1,3/2,2,1,5/4,1"]
    assert stdout_digest(capsys, argv) == DEBUG_BR_DIGEST


def test_verify_output_is_pinned(capsys):
    assert stdout_digest(capsys, ["verify", "--seeds", "24"]) == VERIFY_DIGEST
    assert stdout_digest(capsys, ["verify", "--seeds", "200"]) == VERIFY_200_DIGEST
