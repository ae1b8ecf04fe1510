"""The benchmark's seed-0 reference values hold in the test suite.

``bench/run.py`` compares the first pass of each workload at seed 0 with
``bench/reference.json`` (1e-6 relative) and counts a drift as a failed
request.  These tests run the same requests through ``pointersim.cli.main``
with the benchmark's own request generator and checks, so a drift fails
here first.
"""

import json
import sys
from pathlib import Path

import pytest

from pointersim.cli import main

_BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(_BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

_SEED = 0
_REFERENCE = json.loads((_BENCH / "reference.json").read_text())["workloads"]


@pytest.mark.parametrize("workload", ["thermal_sweep", "open_curve", "closed_curve"])
def test_first_seed_0_pass_matches_the_reference(workload, tmp_path):
    expected = _REFERENCE[workload]
    requests = workloads.generate(workload, _SEED, workloads.cycle_length(workload))
    assert sorted(expected, key=int) == [str(req.index) for req in requests]
    for req in requests:
        config, out = tmp_path / f"config_{req.index}.json", tmp_path / f"out_{req.index}.csv"
        config.write_text(json.dumps(req.config))
        code = main(req.argv(str(config), str(out)))
        assert checks.check_output(req, code, out) == [], req
        values = checks.reference_values(req, out)
        assert checks.compare_reference(values, expected[str(req.index)]) == [], req
