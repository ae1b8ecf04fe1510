import json
import os
import re
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pointersim
from pointersim import optimize
from pointersim.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    _DEFAULT_CONFIG,
    load_config,
    main,
)
from pointersim.model import MeasurementConfig, gaussian_state_moments
from pointersim.uncertainty import CurveEvaluator

CURVE_HEADER = "t,var_x,var_p,u_sq,bound,sigma1_sq,sigma2_sq,xi1_sq,xi2_sq,det_a"
SWEEP_HEADER = "inv_beta,t_opt,u_sq_min"


def _rows(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    return comments, data


def _write_config(tmp_path, **overrides):
    cfg = dict(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def small_grid_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.json"
    path.write_text(
        json.dumps({"time_grid": {"start": 0.1, "stop": 1.5, "count": 12}})
    )
    return str(path)


def test_uncertainty_csv_contract(small_grid_config, tmp_path):
    out = tmp_path / "curve.csv"
    assert main(
        ["uncertainty", "--config", small_grid_config, "--out", str(out)]
    ) == EXIT_OK
    comments, data = _rows(out)
    assert comments[0].startswith("# pointersim ")
    assert comments[1].startswith("# config: ")
    echoed = json.loads(comments[1].split("# config: ", 1)[1])
    assert echoed["mode"] == "renormalized"
    assert echoed["eta"] == 0.25
    assert data[0] == CURVE_HEADER
    assert len(data) == 1 + 12
    for row in data[1:]:
        vals = dict(zip(data[0].split(","), map(float, row.split(","))))
        assert vals["u_sq"] >= vals["bound"] - 1e-8
        assert vals["bound"] >= 1.0 - 1e-8


def test_uncertainty_closed_zero_noise_columns(tmp_path):
    cfg = _write_config(
        tmp_path,
        eta=0.0,
        time_grid={"start": 0.1, "stop": 2.0, "count": 10},
    )
    out = tmp_path / "closed.csv"
    assert main(["uncertainty", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, data = _rows(out)
    cols = data[0].split(",")
    i1, i2 = cols.index("xi1_sq"), cols.index("xi2_sq")
    for row in data[1:]:
        vals = row.split(",")
        assert float(vals[i1]) == 0.0
        assert float(vals[i2]) == 0.0


def test_uncertainty_deterministic(small_grid_config, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["uncertainty", "--config", small_grid_config, "--out", str(out1)])
    main(["uncertainty", "--config", small_grid_config, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_optimize_output(tmp_path):
    cfg = _write_config(tmp_path, eta=0.0)
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, data = _rows(out)
    assert data[0] == SWEEP_HEADER
    inv_beta, t_opt, u_min = map(float, data[1].split(","))
    assert inv_beta == 1.0
    assert t_opt == pytest.approx(1.01911, abs=1e-3)
    assert u_min == pytest.approx(1.27011, rel=1e-4)


def test_cli_defaults_are_the_library_defaults(tmp_path):
    """With no config and no --mode, a curve and an optimum are what the
    library computes from its own defaults, to the last printed digit."""
    cfg, moments = MeasurementConfig(), gaussian_state_moments()
    curve = CurveEvaluator(cfg, moments, 3.0).curve(np.linspace(0.02, 3.0, 200))
    sweep = optimize.thermal_sweep(cfg, moments, [1.0])
    expected = {
        "uncertainty": [",".join("%.12g" % v for v in astuple(point)) for point in curve],
        "optimize": ["%.12g,%.12g,%.12g" % (1.0, sweep.t_opt[0], sweep.u_sq_min[0])],
    }
    for command, rows in expected.items():
        out = tmp_path / f"{command}.csv"
        assert main([command, "--out", str(out)]) == EXIT_OK
        assert _rows(out)[1][1:] == rows


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_a_request_runs_one_search(tmp_path, monkeypatch, command):
    """Every sweep and optimize request runs the one optimum search once,
    through the module attribute that the benchmark's spans wrap."""
    calls = []
    search = optimize.find_optimal_time
    monkeypatch.setattr(optimize, "find_optimal_time", lambda *a: calls.append(a) or search(*a))
    assert main([command, "--out", str(tmp_path / "out.csv")]) == EXIT_OK
    assert len(calls) == 1


def test_optimize_boundary_is_flagged_row(tmp_path):
    cfg = _write_config(
        tmp_path, eta=0.0, optimize={"t_interval": [0.02, 0.5]}
    )
    out = tmp_path / "boundary.csv"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == EXIT_OK
    comments, data = _rows(out)
    assert any("boundary_minimum" in c for c in comments)
    vals = data[1].split(",")
    assert vals[1] == "nan" and vals[2] == "nan"


def test_sweep_single_point_matches_optimize(tmp_path):
    """optimize prints what sweep prints for sweep.inv_betas = [inv_beta]
    after the two header lines, flag comments included."""
    boundary = {"eta": 0.0, "optimize": {"t_interval": [0.02, 0.5]}}
    for overrides in ({"eta": 0.0}, {}, boundary):
        cfg = _write_config(tmp_path, **overrides, sweep={"inv_betas": [1.0]})
        for mode in ("renormalized", "raw"):
            lines = {}
            for command in ("optimize", "sweep"):
                out = tmp_path / f"{command}.csv"
                argv = [command, "--config", cfg, "--mode", mode, "--out", str(out)]
                assert main(argv) == EXIT_OK
                lines[command] = out.read_text().splitlines()[2:]
            assert lines["optimize"] == lines["sweep"]
            assert lines["optimize"][1].startswith("# flagged") == (overrides is boundary)


def _cutoff_warnings(record):
    return [str(w.message) for w in record if "high-cutoff" in str(w.message)]


def test_low_cutoff_warns_for_the_time_grid(tmp_path):
    """omega_c * time_grid.stop = 8 warns and names the key; the search
    interval ends at 3 and does not warn."""
    cfg = _write_config(tmp_path, time_grid={"start": 0.1, "stop": 0.4, "count": 4})
    with pytest.warns(UserWarning) as record:
        assert main(["uncertainty", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 0
    (message,) = _cutoff_warnings(record)
    assert "omega_c * t_max = 8 at time_grid.stop" in message


def test_low_cutoff_warns_for_the_search_interval(tmp_path):
    """A search runs up to the end of optimize.t_interval, so a sweep over
    [0.02, 0.4] warns and names that key."""
    cfg = _write_config(tmp_path, optimize={"t_interval": [0.02, 0.4]}, sweep={"inv_betas": [1.0]})
    with pytest.warns(UserWarning) as record:
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    (message,) = _cutoff_warnings(record)
    assert "omega_c * t_max = 8 at optimize.t_interval" in message


def test_missing_config_is_config_error(tmp_path, capsys):
    code = main(["uncertainty", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_invalid_parameter_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, eta=-1.0)
    assert main(["uncertainty", "--config", cfg]) == EXIT_CONFIG


def test_invalid_grid_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, time_grid={"start": 2.0, "stop": 1.0, "count": 5})
    assert main(["uncertainty", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("sweep", {"sweep": {"inv_betas": [2.0, 1.0]}}),
        ("sweep", {"sweep": {"inv_betas": [0.0, 1.0]}}),
        ("sweep", {"optimize": {"t_interval": [3.0, 0.02]}}),
        ("optimize", {"optimize": {"t_interval": [3.0, 0.02]}}),
        ("uncertainty", {"state": {"pointer_position_variances": 1.0}}),
        ("uncertainty", {"state": {"pointer_correlations": [0.1]}}),
        ("uncertainty", {"time_grid": {"count": "abc"}}),
        ("optimize", {"time_grid": {"stop": "x"}}),
        ("sweep", {"optimize": {"coarse_points": "x"}}),
        ("optimize", {"optimize": {"coarse_points": 0}}),
        ("optimize", {"optimize": {"rel_tol": 0}}),
        ("uncertainty", {"eta": 0.0, "time_grid": {"count": 10**12}}),
        ("uncertainty", {"time_grid": {"count": 100_001}}),
        ("sweep", {"sweep": {"count": 10**12}}),
        ("sweep", {"sweep": {"inv_betas": [1.0] * 1001}}),
        ("optimize", {"optimize": {"coarse_points": 10**12}}),
        ("sweep", {"optimize": {"coarse_points": 10**12}}),
        ("uncertainty", {"sweep": {"count": "abc"}}),
        ("uncertainty", {"optimize": {"rel_tol": 0}}),
        ("optimize", {"sweep": {"inv_betas": [2.0, 1.0]}}),
        ("sweep", {"time_grid": {"spacing": "cubic"}}),
    ],
    ids=[
        "unsorted-inv-betas",
        "zero-inv-beta",
        "reversed-interval-sweep",
        "reversed-interval",
        "scalar-pointer-variances",
        "short-pointer-correlations",
        "string-count",
        "string-stop",
        "string-coarse-points",
        "zero-coarse-points",
        "zero-rel-tol",
        "huge-time-count",
        "time-count-over-limit",
        "huge-sweep-count",
        "long-inv-betas",
        "huge-coarse-points",
        "huge-coarse-points-sweep",
        "unread-string-sweep-count",
        "unread-zero-rel-tol",
        "unread-unsorted-inv-betas",
        "unread-unknown-spacing",
    ],
)
def test_bad_sweep_or_interval_is_config_error(tmp_path, capsys, command, overrides):
    cfg = _write_config(tmp_path, **overrides)
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"optimize": {"interval": [0.02, 0.1]}}, "optimize.interval"),
        ({"kapa1": 2.0}, "kapa1"),
        ({"state": {"system_variance": 1.0}}, "state.system_variance"),
        ({"time_grid": {"points": 5}}, "time_grid.points"),
        ({"sweep": {"inv_beta": [1.0]}}, "sweep.inv_beta"),
    ],
)
def test_unknown_key_is_config_error(tmp_path, capsys, overrides, key):
    cfg = _write_config(tmp_path, **overrides)
    assert main(["optimize", "--config", cfg]) == EXIT_CONFIG
    assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_readme_config_block_is_the_default(tmp_path):
    """Every key the README documents is accepted and shows its default."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    assert json.loads(block) == _DEFAULT_CONFIG
    path = tmp_path / "readme.json"
    path.write_text(block)
    assert load_config(str(path)) == _DEFAULT_CONFIG


def test_readme_library_example_runs():
    """The README's library example runs as written against the public API."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize(
    "argv",
    [
        ["uncertainty", "--mode", "physical"],
        ["validate", "--mode", "raw"],
        ["validate", "--config", "bad.json"],
    ],
    ids=["unknown-mode", "validate-mode", "validate-config"],
)
def test_bad_mode_rejected(argv):
    """An unknown mode, and the flags validate does not read, are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("uncertainty", {"kappa1": 1e200}),
        ("uncertainty", {"kappa2": 1e200}),
        ("uncertainty", {"omega_c": 1e300}),
        ("uncertainty", {"eta": 1e300}),
        ("uncertainty", {"time_grid": {"stop": 1e300}}),
        ("uncertainty", {"kappa1": 1e154}),
        ("uncertainty", {"mass_ratio": 1e-300}),
        ("uncertainty", {"inv_beta": 1e300}),
        ("optimize", {"inv_beta": 1e300}),
        ("uncertainty", {"omega_c": 1e-100}),
        ("optimize", {"omega_c": 1e-300}),
    ],
    ids=["kappa1", "kappa2", "omega_c", "eta", "time-grid-stop", "kappa1-over-m-inverse",
         "tiny-mass-ratio", "inv_beta-uncertainty", "inv_beta-optimize", "tiny-omega_c",
         "tinier-omega_c"],
)
def test_huge_finite_value_exits_with_a_message(tmp_path, capsys, command, overrides):
    """Couplings that overflow, noise tables too large to allocate, figures
    of merit that overflow and cutoffs too small for the small-time moments
    of nu end in a mapped exit code, not in a traceback, and write nothing.
    A cutoff that small also warns once per end of the time range."""
    cfg = _write_config(tmp_path, **overrides)
    tiny_cutoff = overrides.get("omega_c", 1.0) < 1.0
    with pytest.warns(UserWarning, match=r"omega_c \* t_max") if tiny_cutoff else nullcontext():
        assert main([command, "--config", cfg]) in (EXIT_CONFIG, EXIT_NUMERICAL)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(("config error: ", "numerical error: "))
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["uncertainty", "optimize", "sweep"])
def test_raw_generator_of_a_huge_cutoff_is_config_error(tmp_path, capsys, command):
    """eta*omega_c^2 = 1e100 is finite, omega_c^2 is not: the raw generator
    forms the product that MeasurementConfig checks, and the table's node
    bound refuses it."""
    cfg = _write_config(tmp_path, eta=1e-300, omega_c=1e200)
    assert main([command, "--config", cfg, "--mode", "raw"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: the propagator table") and "Traceback" not in err


def test_huge_pointer_correlation_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, state={"pointer_correlations": [1e200, 0.0]})
    assert main(["uncertainty", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: pointer 1: ") and "= inf" in err
    assert "Traceback" not in err


def test_closed_curve_past_the_float_range_is_numerical_error(tmp_path, capsys):
    """The closed measurement has no node limit, so a time grid up to 1e300
    reaches the table read, whose finite check refuses the overflowed cubic."""
    cfg = _write_config(tmp_path, eta=0.0, time_grid={"stop": 1e300})
    assert main(["uncertainty", "--config", cfg]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: matrix exponential not finite")


@pytest.mark.parametrize("command", ["uncertainty", "optimize"])
def test_overflow_message_comes_first(tmp_path, command):
    """numpy's overflow warnings do not precede the mapped message."""
    cfg = _write_config(tmp_path, inv_beta=1e300)
    proc = subprocess.run(
        [sys.executable, "-m", "pointersim.cli", command, "--config", cfg],
        capture_output=True, text=True, timeout=300, check=False,
        env={**os.environ, "PYTHONPATH": str(_SRC)},
    )
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stderr.startswith("numerical error:")
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("command", ["uncertainty", "optimize"])
def test_cold_bath_gives_the_zero_temperature_limit(tmp_path, command):
    """A bath so cold that (beta*omega_c)^4 overflows a float gives the rows
    of the zero-temperature limit, those of inv_beta = 1e-60, not a traceback."""
    rows = {}
    for inv_beta in (1e-60, 1e-100, 1e-300):
        cfg, out = _write_config(tmp_path, inv_beta=inv_beta), tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = _rows(out)[1]
        # all but the first column of optimize, which echoes inv_beta
        rows[inv_beta] = data if command == "uncertainty" else [r.split(",", 1)[1] for r in data]
    assert rows[1e-100] == rows[1e-60] and rows[1e-300] == rows[1e-60]


def test_mesh_nu_cache_bound_is_config_error(tmp_path, capsys, monkeypatch):
    import pointersim.noise

    monkeypatch.setattr(pointersim.noise, "_MAX_MESH_NU", 8000)
    assert main(["sweep", "--out", str(tmp_path / "out.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "sweep.count" in err and "t_max" in err
    assert not (tmp_path / "out.csv").exists()


def test_stdout_output(small_grid_config, capsys):
    assert main(["uncertainty", "--config", small_grid_config]) == EXIT_OK
    out = capsys.readouterr().out
    assert CURVE_HEADER in out


def test_log_spacing_grid(tmp_path):
    cfg = _write_config(
        tmp_path,
        eta=0.0,
        time_grid={"start": 0.1, "stop": 1.0, "count": 5, "spacing": "log"},
    )
    out = tmp_path / "log.csv"
    assert main(["uncertainty", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, data = _rows(out)
    ts = np.array([float(r.split(",")[0]) for r in data[1:]])
    np.testing.assert_allclose(ts, np.geomspace(0.1, 1.0, 5), rtol=1e-9)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_bound_violation_exits_numerical(tmp_path, capsys, monkeypatch, to_file):
    import pointersim.uncertainty

    monkeypatch.setattr(
        pointersim.uncertainty, "lower_bound", lambda *args: 1e6
    )
    cfg = _write_config(
        tmp_path, eta=0.0, time_grid={"start": 0.1, "stop": 1.0, "count": 4}
    )
    out = tmp_path / "violating.csv"
    argv = ["uncertainty", "--config", cfg]
    if to_file:
        argv += ["--out", str(out)]
    assert main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "u_sq >= bound at t = 0.1:" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("optimize", {"eta": 0.0}),
        ("sweep", {"eta": 0.0, "sweep": {"inv_betas": [1.0, 2.0]}}),
        ("sweep", {"sweep": {"inv_betas": [1.0, 2.0]}, "optimize": {"coarse_points": 12}}),
    ],
    ids=["optimize", "sweep", "sweep-open"],
)
def test_optimum_bound_violation_exits_numerical(
    tmp_path, capsys, monkeypatch, command, overrides
):
    import pointersim.uncertainty

    monkeypatch.setattr(
        pointersim.uncertainty, "lower_bound", lambda *args: 1e6
    )
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "violating.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error: row violates u_sq >= bound at inv_beta = 1, t_opt = ")
    assert "bound = 1000000" in err
    assert not out.exists()


_SRC = Path(pointersim.__file__).resolve().parents[1]

#: runs CLI commands in this interpreter and prints which heavy modules
#: each step left loaded
_PROBE = """
import json, sys
from pointersim.cli import main
names = ("scipy.integrate", "scipy.linalg", "scipy.special", "pointersim.oracle")
report = {"import": [m for m in names if m in sys.modules]}
for step, argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, step
    report[step] = [m for m in names if m in sys.modules]
print(json.dumps(report))
"""


def _loaded_after(steps):
    proc = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(_SRC)!r})\n" + _PROBE,
         json.dumps(steps)],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_startup_loads_no_oracle_and_no_integrate(tmp_path):
    """The quadrature module, the oracle and SciPy's linalg and special
    cost import time that only validate needs; no other run loads them."""
    closed = _write_config(tmp_path, eta=0.0, time_grid={"start": 0.1, "stop": 1.0, "count": 4})
    opened = tmp_path / "open.json"
    opened.write_text(json.dumps({"time_grid": {"start": 0.1, "stop": 1.0, "count": 4}}))
    swept = tmp_path / "sweep.json"
    swept.write_text(json.dumps({"sweep": {"inv_betas": [1.0, 3.5]}}))
    out = str(tmp_path / "out.csv")
    loaded = _loaded_after([
        ["closed", ["uncertainty", "--config", closed, "--out", out]],
        ["uncertainty", ["uncertainty", "--config", str(opened), "--out", out]],
        ["sweep", ["sweep", "--config", str(swept), "--out", out]],
    ])
    assert loaded == {"import": [], "closed": [], "uncertainty": [], "sweep": []}


def test_validate_loads_the_oracle_and_no_scipy(tmp_path):
    loaded = _loaded_after([["validate", ["validate", "--out", str(tmp_path / "v.txt")]]])
    assert loaded["validate"] == ["pointersim.oracle"]
    assert (tmp_path / "v.txt").read_text().count("PASS ") == 5


#: runs CLI commands with every scipy import refused
_NO_SCIPY = """
import json, sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")


sys.meta_path.insert(0, NoScipy())
from pointersim.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def test_compute_commands_run_without_scipy(tmp_path):
    """uncertainty (eta > 0 and eta = 0), optimize, sweep and validate run
    with every scipy import refused, and write the bytes of a run that may
    import it."""
    closed = _write_config(tmp_path, eta=0.0, time_grid={"start": 0.1, "stop": 2.0, "count": 5})
    opened = tmp_path / "open.json"
    opened.write_text(json.dumps({"time_grid": {"start": 0.1, "stop": 2.0, "count": 5}}))
    swept = tmp_path / "sweep.json"
    swept.write_text(json.dumps({"sweep": {"inv_betas": [0.5, 3.5]}}))
    runs = [["uncertainty", "--config", str(opened)], ["uncertainty", "--config", closed],
            ["optimize"], ["sweep", "--config", str(swept), "--mode", "raw"], ["validate"]]
    blocked = [argv + ["--out", str(tmp_path / f"blocked{i}.csv")] for i, argv in enumerate(runs)]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(_SRC)!r})\n" + _NO_SCIPY,
         json.dumps(blocked)],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    for i, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / f"free{i}.csv")]) == EXIT_OK
        free = (tmp_path / f"free{i}.csv").read_bytes()
        assert (tmp_path / f"blocked{i}.csv").read_bytes() == free, argv


def test_matsubara_resonance_exits_numerical(tmp_path, capsys):
    """omega_c = 2*pi/beta puts the nu series on its first pole."""
    cfg = _write_config(
        tmp_path,
        omega_c=6.283185307179586,
        inv_beta=1.0,
        time_grid={"start": 0.1, "stop": 3.0, "count": 3},
    )
    assert main(["uncertainty", "--config", cfg]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error: beta*omega_c/(2*pi) = 1 ")
    assert "move omega_c or inv_beta" in err


def _leaf_paths(node, path=()):
    """Path of every value in a config that is not an object, list
    entries included."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _leaf_paths(val, path + (key,))
        return
    yield path
    if isinstance(node, list):
        for i in range(len(node)):
            yield path + (i,)


_SMALL_CONFIG = json.loads(json.dumps(_DEFAULT_CONFIG))
_SMALL_CONFIG["time_grid"]["count"] = 5
_SMALL_CONFIG["sweep"]["count"] = 2

_BAD_VALUES = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.lists(st.floats(-2.0, 2.0), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from([0, 0.0]),
    st.integers(-5, -1),
    st.floats(-10.0, -1e-6),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["uncertainty", "optimize", "sweep"]),
    path=st.sampled_from(list(_leaf_paths(_SMALL_CONFIG))),
    value=_BAD_VALUES,
)
def test_any_bad_leaf_exits_with_a_mapped_code(fuzz_dir, command, path, value):
    """One leaf of a small default config replaced by a string, null,
    bool, list, object, zero or negative number ends in an exit code,
    never in an exception."""
    raw = json.loads(json.dumps(_SMALL_CONFIG))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg = fuzz_dir / "config.json"
    cfg.write_text(json.dumps(raw))
    out = fuzz_dir / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) in (0, 2, 3, 4)
