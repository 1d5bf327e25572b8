"""Every benchmark workload still runs against the package, at its tiny size.

`bench/workloads.py` calls the package's public functions directly (the
`verify` families, `instances`, `mechanisms`) and `arena` commands in-process,
so a signature change there would otherwise surface only in the minute-long
`python3 bench/smoke.py`. This builds each workload, runs one pass and checks
it; it reads `bench/` without changing it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_one_checked_pass(name, tmp_path):
    workload = workloads.WORKLOADS[name](7, workloads.SIZES["tiny"], tmp_path)
    workload.setup()
    checked = workload.check(workload.run_pass())
    assert checked.failures == []
    assert checked.attempted >= 1
