"""Tests for the benchmark's own code: configs, spans, checks and metrics."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL_OPEN = {"eta": 0.25, "time_grid": {"start": 0.1, "stop": 1.0, "count": 3}}
SMALL_CLOSED = {"eta": 0.0, "kappa1": 1.7, "time_grid": {"start": 0.1, "stop": 1.0, "count": 4}}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def test_same_seed_generates_identical_configs():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7, 20) == workloads.generate(name, 7, 20)
    assert workloads.generate("open_curve", 7, 4) != workloads.generate("open_curve", 8, 4)


def test_no_config_repeats_and_every_pass_keeps_the_cost_mix():
    for name in ("open_curve", "thermal_sweep", "closed_curve"):
        n = workloads.cycle_length(name)
        reqs = workloads.generate(name, 7, 3 * n)
        assert [r.index for r in reqs] == list(range(3 * n))
        configs = [json.dumps(r.config, sort_keys=True) for r in reqs]
        assert len(set(configs)) == len(configs)
        for r in reqs[n:]:
            first = reqs[r.index % n]
            assert (r.command, r.mode, r.rows) == (first.command, first.mode, first.rows)


def test_self_times_add_up_with_a_synthetic_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("a")  # t = 0
    inner = tracer.open("b")  # t = 1
    tracer.close(inner)  # t = 2
    inner = tracer.open("c")  # t = 3
    tracer.close(inner)  # t = 4
    tracer.close(outer)  # t = 5
    assert tracer.durations().tolist() == [5.0, 1.0, 1.0]
    assert tracer.self_times().tolist() == [3.0, 1.0, 1.0]


def test_self_times_of_a_request_sum_to_its_wall_time(cli, tmp_path):
    req = workloads.Request(0, "uncertainty", "raw", SMALL_OPEN, rows=3)
    runner = run.Runner(cli, tmp_path)
    tracer, tally = Tracer(), run.Tally()
    tracer.current_request = 5
    original = cli.main
    tracer.install()
    try:
        runner.execute(req, tally)
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert tally.failed == 0
    roots = np.flatnonzero(np.array(tracer.parent) == -1)
    assert [tracer.names[tracer.name_id[i]] for i in roots] == ["cli.main"]
    assert set(tracer.request) == {5}
    own = tracer.self_times()
    assert own.min() >= 0.0
    assert own.sum() == pytest.approx(tracer.durations()[roots[0]], rel=1e-9)
    # calls reached through names bound with "from .x import y" are traced
    assert tracer.name_mask("noise.lambda_covariance").sum() == 3
    assert tracer.name_mask("kernels.noise_autocorrelation").sum() > 0


def test_corrupted_row_counts_in_error_rate(cli, tmp_path):
    req = workloads.Request(0, "uncertainty", None, SMALL_CLOSED, rows=4)
    runner = run.Runner(cli, tmp_path)
    tally = run.Tally()
    runner.execute(req, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    lines = runner.out_path.read_text().splitlines()
    header = lines[2].split(",")
    row = lines[4].split(",")
    row[header.index("u_sq")] = repr(float(row[header.index("bound")]) - 0.5)
    lines[4] = ",".join(row)
    corrupted = "\n".join(lines) + "\n"

    def write_corrupted(argv):
        Path(argv[argv.index("--out") + 1]).write_text(corrupted)
        return 0

    run.Runner(types.SimpleNamespace(main=write_corrupted), tmp_path).execute(req, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert run.error_rate(tally) == 0.5
    assert "u_sq < bound" in tally.failures[0]["problems"][0]


def test_crashing_request_counts_as_failed(tmp_path):
    def crash(argv):
        raise RuntimeError("boom")

    req = workloads.Request(0, "validate", rows=5)
    tally = run.Tally()
    run.Runner(types.SimpleNamespace(main=crash), tmp_path).execute(req, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "RuntimeError: boom" in tally.failures[0]["problems"][-1]


def test_missing_wrapped_function_yields_null(cli, monkeypatch):
    import pointersim.noise

    monkeypatch.delattr(pointersim.noise, "PropagatorTable")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"noise.PropagatorTable"}
    layer = metrics.layer_metrics(tracer, requests=1, rows=1)
    assert layer["noise.table_builds"]["value"] is None
    assert layer["noise.table_build_s"]["value"] is None
    assert layer["noise.lambda_calls"]["value"] == 0.0


def test_checkout_without_sources_is_refused(tmp_path):
    with pytest.raises(run.ProgramMissing):
        run.import_cli(tmp_path / "src")


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    tally = run.Tally()
    tally.record(workloads.Request(0, "validate", rows=5), 1.0, 0, [])
    e2e = {k: m["unit"] for k, m in run.end_to_end(tally, [1.0]).items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == e2e
    layer = {k: unit for k, (unit, _, _) in metrics.PER_LAYER.items()}
    layer["trace_overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
