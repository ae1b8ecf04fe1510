"""Output checks for every benchmark request.

A request passes when the CLI exits with 0 and its output file holds what
a correct answer must: the right columns and row count, finite values on
the configured grid, the uncertainty invariants, the closed-limit
``det A`` identity, and, for the default seed, the values recorded in
``reference.json`` from the seed commit.  Any problem makes the request a
failure; none is dropped.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import DEFAULT_T_INTERVAL, Request

CURVE_COLUMNS = ("t", "var_x", "var_p", "u_sq", "bound", "sigma1_sq", "sigma2_sq",
                 "xi1_sq", "xi2_sq", "det_a")
SWEEP_COLUMNS = ("inv_beta", "t_opt", "u_sq_min")
VALIDATE_GATES = 5

#: u_sq >= bound - tol and bound >= 1 - tol, as the CLI's own post-check
INVARIANT_TOL = 1e-8
#: closed-limit identity det A = kappa1*kappa2*t^2/mass_ratio^2
DET_A_RTOL = 1e-10
#: the repository's frozen-value tolerance
REFERENCE_RTOL = 1e-6
#: CSV values carry 12 significant digits
GRID_RTOL = 1e-9
#: rows per curve whose values the reference keeps
REFERENCE_ROWS = 25

#: model defaults for keys a generated config leaves out
_DEFAULTS = {"kappa1": 2.0, "kappa2": 2.0, "mass_ratio": 1.0}


def read_output(path) -> tuple[list[str], list[str]]:
    """Comment lines and data lines of an output file."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    return [ln for ln in lines if ln.startswith("#")], [ln for ln in lines if not ln.startswith("#")]


def _table(data: list[str], columns: tuple) -> dict[str, np.ndarray]:
    if not data or tuple(data[0].split(",")) != columns:
        raise ValueError(f"header {data[0] if data else None!r} is not {','.join(columns)}")
    values = np.array([[float(v) for v in ln.split(",")] for ln in data[1:]], dtype=float)
    values = values.reshape(-1, len(columns))
    return {c: values[:, i] for i, c in enumerate(columns)}


def curve_grid(config: dict) -> np.ndarray:
    """The time grid the CLI builds from a config's ``time_grid``."""
    tg = config["time_grid"]
    make = np.geomspace if tg.get("spacing", "linear") == "log" else np.linspace
    return make(float(tg["start"]), float(tg["stop"]), int(tg["count"]))


def sweep_grid(config: dict) -> np.ndarray:
    sw = config["sweep"]
    return np.linspace(float(sw["start"]), float(sw["stop"]), int(sw["count"]))


def _same(actual: np.ndarray, expected: np.ndarray, rtol: float) -> bool:
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= rtol * np.abs(expected))
    )


def _check_curve(req: Request, data: list[str]) -> list[str]:
    col = _table(data, CURVE_COLUMNS)
    problems = []
    if col["t"].size != req.rows:
        return [f"{col['t'].size} rows, expected {req.rows}"]
    grid = curve_grid(req.config)
    if not _same(col["t"], grid, GRID_RTOL):
        problems.append("t column differs from the configured grid")
    bad = [c for c in CURVE_COLUMNS if not np.all(np.isfinite(col[c]))]
    if bad:
        problems.append(f"non-finite values in {', '.join(bad)}")
    below = np.flatnonzero(col["u_sq"] < col["bound"] - INVARIANT_TOL)
    if below.size:
        problems.append(f"{below.size} rows with u_sq < bound, first at t = {col['t'][below[0]]:.6g}")
    low = np.flatnonzero(col["bound"] < 1.0 - INVARIANT_TOL)
    if low.size:
        problems.append(f"{low.size} rows with bound < 1, first at t = {col['t'][low[0]]:.6g}")
    if float(req.config.get("eta", 0.25)) == 0.0:
        p = {k: float(req.config.get(k, v)) for k, v in _DEFAULTS.items()}
        expected = p["kappa1"] * p["kappa2"] * grid**2 / p["mass_ratio"] ** 2
        off = np.flatnonzero(np.abs(col["det_a"] - expected) > DET_A_RTOL * np.abs(expected))
        if off.size:
            problems.append(f"{off.size} closed-limit rows with det_a off kappa1*kappa2*t^2/M0^2")
    return problems


def _check_sweep(req: Request, comments: list[str], data: list[str]) -> list[str]:
    col = _table(data, SWEEP_COLUMNS)
    if col["inv_beta"].size != req.rows:
        return [f"{col['inv_beta'].size} rows, expected {req.rows}"]
    problems = []
    if not _same(col["inv_beta"], sweep_grid(req.config), GRID_RTOL):
        problems.append("inv_beta column differs from the configured sweep grid")
    lo, hi = DEFAULT_T_INTERVAL
    flagged = " ".join(c for c in comments if c.startswith("# flagged"))
    for ib, t_opt, u_min in zip(col["inv_beta"], col["t_opt"], col["u_sq_min"]):
        if math.isnan(t_opt) and math.isnan(u_min):
            # the CLI's documented answer to a minimum on the interval edge
            if f"inv_beta={ib:.12g}: boundary_minimum" not in flagged:
                problems.append(f"unflagged nan row at inv_beta = {ib:.6g}")
        elif not (lo < t_opt < hi and math.isfinite(u_min) and u_min >= 1.0 - INVARIANT_TOL):
            problems.append(f"bad optimum ({t_opt:.6g}, {u_min:.6g}) at inv_beta = {ib:.6g}")
    return problems


def _check_validate(data: list[str]) -> list[str]:
    if len(data) != VALIDATE_GATES:
        return [f"{len(data)} gate lines, expected {VALIDATE_GATES}"]
    return [f"gate not passed: {ln}" for ln in data if not ln.startswith("PASS ")]


def check_output(req: Request, exit_code, path) -> list[str]:
    """Problems found in one request's result; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        comments, data = read_output(path)
        if req.command == "uncertainty":
            return _check_curve(req, data)
        if req.command == "sweep":
            return _check_sweep(req, comments, data)
        return _check_validate(data)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def reference_values(req: Request, path) -> dict:
    """The values of an output that the default-seed reference pins."""
    _, data = read_output(path)
    if req.command == "uncertainty":
        col = _table(data, CURVE_COLUMNS)
        rows = np.unique(np.linspace(0, col["t"].size - 1, REFERENCE_ROWS).round().astype(int))
        return {
            "row": rows.tolist(),
            "u_sq": col["u_sq"][rows].tolist(),
            "bound": col["bound"][rows].tolist(),
        }
    if req.command == "sweep":
        col = _table(data, SWEEP_COLUMNS)
        return {"t_opt": col["t_opt"].tolist(), "u_sq_min": col["u_sq_min"].tolist()}
    return {}


def compare_reference(actual: dict, expected: dict, rtol: float = REFERENCE_RTOL) -> list[str]:
    """Differences beyond ``rtol`` between recorded and measured values."""
    problems = []
    for key, want in expected.items():
        got = np.asarray(actual.get(key, []), dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.all(
            (np.isnan(got) & np.isnan(want)) | (np.abs(got - want) <= rtol * np.abs(want))
        ):
            problems.append(f"{key} differs from the reference by more than {rtol:g} relative")
    return problems
