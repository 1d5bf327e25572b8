"""Instance generators and the JSON file format.

The worst-case family (`counterexample`) pairs each bidder with a private
auction whose value explodes while its welfare contribution stays near zero;
no single global cost multiplier can price all pairs at once, so equilibrium
welfare collapses. `random_instance` draws small grid-valued markets, seeded
and reproducible bit for bit.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .model import ZERO, Instance
from .rationals import as_fraction, format_rational, parse_rational


def counterexample(delta: int | str | Fraction) -> Instance:
    """Worst-case family for global cost multipliers.

    With n = floor(1/delta) bidders and 2n auctions, bidder i (1-based) values
    auction 2i-1 at delta against user cost 1-delta, and auction 2i at
    1 + delta^-i against user cost delta^-i; all other entries are zero. The
    per-bidder value/cost ratios 1 + delta^i fall into disjoint intervals, so
    any single multiplier prices at most one bidder correctly and equilibrium
    welfare is at most 3*delta of the optimum (which is exactly n). A delta is
    rejected when the sweep's last critical multiplier 1 + delta^(n+1), the
    largest number printed for it, exceeds `sys.get_int_max_str_digits()` digits.
    """
    d = as_fraction(delta)
    if not 0 < d < Fraction(1, 3):
        raise ValueError(f"delta must lie strictly between 0 and 1/3, got {d}")
    n = 1 // d
    limit = sys.get_int_max_str_digits()
    if limit and (1 + d ** (n + 1)).numerator >= 10 ** limit:
        raise ValueError(f"delta {d} needs integers of more than {limit} digits, "
                         "past sys.get_int_max_str_digits()")
    values = [[ZERO] * (2 * n) for _ in range(n)]
    costs = [[ZERO] * (2 * n) for _ in range(n)]
    for i in range(1, n + 1):
        spike = (1 / d) ** i  # delta^-i
        values[i - 1][2 * i - 2:2 * i] = d, 1 + spike
        costs[i - 1][2 * i - 2:2 * i] = 1 - d, spike
    return Instance(tuple(tuple(row) for row in values),
                    tuple(tuple(row) for row in costs))


GRID_DENOMINATOR = 4
ENTRY_LIMIT = 3


@dataclass(frozen=True, slots=True)
class RandomFamilyParams:
    num_bidders: int
    num_auctions: int
    seed: int
    zero_cost_probability: Fraction = Fraction(1, 8)

    def __post_init__(self) -> None:
        if self.num_bidders < 1 or self.num_auctions < 1:
            raise ValueError("need at least one bidder and one auction")
        object.__setattr__(self, "zero_cost_probability", as_fraction(self.zero_cost_probability))
        if not 0 <= self.zero_cost_probability <= 1:
            raise ValueError("zero-cost probability must lie in [0, 1]")


def random_instance(params: RandomFamilyParams) -> Instance:
    """Seeded instance with entries on the quarter grid in [0, 3]: each is
    k / GRID_DENOMINATOR for an integer k, at most ENTRY_LIMIT.

    A pure function of the seed: values are drawn row by row, then costs,
    each cost preceded by its zero-cost coin flip. Zero costs are forced in
    deliberately so infinite calibrated multipliers get exercised.
    """
    rng = random.Random(params.seed)
    top = ENTRY_LIMIT * GRID_DENOMINATOR
    zc = params.zero_cost_probability
    values = tuple(
        tuple(Fraction(rng.randint(0, top), GRID_DENOMINATOR) for _ in range(params.num_auctions))
        for _ in range(params.num_bidders)
    )
    costs = []
    for _ in range(params.num_bidders):
        row = []
        for _ in range(params.num_auctions):
            if rng.randrange(zc.denominator) < zc.numerator:
                row.append(Fraction(0))
            else:
                row.append(Fraction(rng.randint(0, top), GRID_DENOMINATOR))
        costs.append(tuple(row))
    return Instance(values, tuple(costs))


def instance_to_json(inst: Instance) -> dict:
    return {
        "num_bidders": inst.num_bidders,
        "num_auctions": inst.num_auctions,
        "values": [[format_rational(x) for x in row] for row in inst.values],
        "costs": [[format_rational(x) for x in row] for row in inst.costs],
    }


def instance_from_json(obj: dict) -> Instance:
    for key in ("num_bidders", "num_auctions", "values", "costs"):
        if key not in obj:
            raise ValueError(f"instance JSON is missing {key!r}")
    n, m = obj["num_bidders"], obj["num_auctions"]
    if isinstance(n, bool) or isinstance(m, bool) or \
            not isinstance(n, int) or not isinstance(m, int):
        raise ValueError("num_bidders and num_auctions must be integers")

    parsed_texts: dict[str, Fraction] = {}  # each distinct entry text is parsed once

    def matrix(name: str) -> tuple[tuple[Fraction, ...], ...]:
        rows = obj[name]
        if not isinstance(rows, list) or len(rows) != n:
            raise ValueError(f"{name} must be a list of {n} rows")
        out = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != m:
                raise ValueError(f"{name} row {i} must have {m} entries")
            parsed = []
            for j, entry in enumerate(row):
                if isinstance(entry, float):
                    raise ValueError(f"{name}[{i}][{j}]: float {entry!r} is not exact")
                text = str(entry)
                x = parsed_texts.get(text)
                if x is None:
                    try:
                        x = parsed_texts[text] = parse_rational(text)
                    except ValueError as exc:
                        raise ValueError(f"{name}[{i}][{j}]: {exc}") from exc
                parsed.append(x)
            out.append(tuple(parsed))
        return tuple(out)

    return Instance(matrix("values"), matrix("costs"))


def save(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_json(inst), indent=2) + "\n")


def load(path: str | Path) -> Instance:
    try:
        obj = json.loads(Path(path).read_text(), parse_float=parse_rational)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except ValueError as exc:  # a number literal parse_rational rejects
        raise ValueError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path}: not valid JSON (nested too deeply)") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    try:
        return instance_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
