"""Command-line interface: config ingestion, pipeline runs, CSV emission.

Subcommands: ``uncertainty`` (time series of all figures of merit),
``optimize`` (single optimal-time search), ``sweep`` (thermal-energy
sweep), ``validate`` (self-check gates against the independent oracles).
All numeric output is deterministic: identical configs give byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import BoundaryMinimum, ConfigError, NumericalError, PointerSimError
from .kernels import (
    BathKernel,
    dissipation_from_spectral_density,
    dissipation_kernel_scalar,
    noise_autocorrelation,
)
from .model import MeasurementConfig, gaussian_state_moments, validate_config
from .optimize import MIN_REL_TOL, find_optimal_time, point_u_sq, thermal_sweep
from .uncertainty import CurveEvaluator, uncertainty_curve
from .propagator import build_generator, propagate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GATE = 4

_CURVE_COLUMNS = (
    "t",
    "var_x",
    "var_p",
    "u_sq",
    "bound",
    "sigma1_sq",
    "sigma2_sq",
    "xi1_sq",
    "xi2_sq",
    "det_a",
)
_SWEEP_COLUMNS = ("inv_beta", "t_opt", "u_sq_min")

#: largest counts a config may ask for; the arrays they size stay in memory
_MAX_TIME_POINTS = 100_000
_MAX_SWEEP_POINTS = 1_000
_MAX_COARSE_POINTS = 10_000

_DEFAULT_CONFIG = {
    "kappa1": 2.0,
    "kappa2": 2.0,
    "mass_ratio": 1.0,
    "eta": 0.25,
    "omega_c": 20.0,
    "inv_beta": 1.0,
    "state": {
        "system_position_variance": 1.0,
        "pointer_position_variances": [1.0, 1.0],
    },
    "time_grid": {"start": 0.02, "stop": 3.0, "count": 200, "spacing": "linear"},
    "optimize": {"t_interval": [0.02, 3.0], "coarse_points": 60, "rel_tol": 1e-5},
    # default sweep grid hits the reference energies 1 and 2 exactly
    "sweep": {"start": 0.5, "stop": 5.0, "count": 10},
}


#: keys a config section accepts beyond those it has in the defaults
_OPTIONAL_KEYS = {
    "state": (
        "system_momentum_variance",
        "pointer_momentum_variances",
        "pointer_correlations",
    ),
    "sweep": ("inv_betas",),
}


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the JSON config file, if one is given.

    Raises ConfigError for a key the schema does not know, at any level.
    """
    cfg = json.loads(json.dumps(_DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        for key, val in user.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            if not isinstance(cfg[key], dict):
                cfg[key] = val
                continue
            if not isinstance(val, dict):
                raise ConfigError(f"config key {key!r} must hold an object")
            known = set(cfg[key]) | set(_OPTIONAL_KEYS.get(key, ()))
            for sub in val:
                if sub not in known:
                    raise ConfigError(f"unknown config key '{key}.{sub}'")
            cfg[key].update(val)
    return cfg


def _finite(value, key: str, integer: bool = False):
    """``value`` as a float (an int when ``integer``) if it is a finite JSON
    number, else a ConfigError naming ``key``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
        or (integer and value != int(value))
    ):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"config key '{key}' must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _number(raw: dict, path: str, integer: bool = False):
    """The number at the config ``path``, ``"key"`` or ``"section.key"``."""
    section, _, key = path.rpartition(".")
    return _finite((raw[section] if section else raw)[key], path, integer)


def _numbers(raw: dict, path: str, length: int | None = None) -> tuple:
    """The list of numbers at ``path``, of ``length`` entries when given."""
    section, key = path.split(".")
    value = raw[section][key]
    if not isinstance(value, list) or len(value) != (length or len(value)):
        count = f"{length} " if length else ""
        raise ConfigError(f"config key '{path}' must be a list of {count}numbers, got {value!r}")
    return tuple(_finite(v, path) for v in value)


def build_measurement(raw: dict) -> MeasurementConfig:
    params = ("kappa1", "kappa2", "mass_ratio", "eta", "omega_c", "inv_beta")
    cfg = MeasurementConfig(**{name: _number(raw, name) for name in params})
    validate_config(cfg, t_max=_number(raw, "time_grid.stop"))
    return cfg


def build_moments(raw: dict):
    kwargs = {}
    for name, val in raw["state"].items():
        if val is None and name in _OPTIONAL_KEYS["state"]:
            continue
        path = f"state.{name}"
        kwargs[name] = _numbers(raw, path, 2) if name.startswith("pointer") else _number(raw, path)
    return gaussian_state_moments(**kwargs)


def _count(raw: dict, path: str, least: int, most: int) -> int:
    """The integer at ``path``, checked to lie in [least, most]; the upper
    limit keeps the arrays a count sizes in memory."""
    count = _number(raw, path, integer=True)
    if not least <= count <= most:
        raise ConfigError(f"config key '{path}' must be in [{least}, {most}], got {count}")
    return count


def time_grid(raw: dict) -> np.ndarray:
    start, stop = _number(raw, "time_grid.start"), _number(raw, "time_grid.stop")
    count = _count(raw, "time_grid.count", 2, _MAX_TIME_POINTS)
    spacing = raw["time_grid"]["spacing"]
    if not 0.0 < start < stop:
        raise ConfigError("time grid needs 0 < start < stop")
    if spacing == "linear":
        return np.linspace(start, stop, count)
    if spacing == "log":
        return np.geomspace(start, stop, count)
    raise ConfigError(f"unknown time grid spacing {spacing!r}")


def _fmt(x: float) -> str:
    return "%.12g" % x


def _header_lines(raw: dict, mode: str) -> list[str]:
    echoed = dict(raw)
    echoed["mode"] = mode
    return [
        f"# pointersim {__version__}",
        "# config: " + json.dumps(echoed, sort_keys=True, separators=(",", ":")),
    ]


def _write(out_path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_uncertainty(args) -> int:
    raw = load_config(args.config)
    cfg = build_measurement(raw)
    moments = build_moments(raw)
    times = time_grid(raw)
    curve = uncertainty_curve(cfg, moments, times, args.mode)
    _check_bound(*(curve.column(c) for c in ("t", "u_sq", "bound")))
    lines = _header_lines(raw, args.mode)
    lines.append(",".join(_CURVE_COLUMNS))
    rows = np.column_stack([curve.column(c) for c in _CURVE_COLUMNS]).tolist()
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    _write(args.out, lines)
    return EXIT_OK


def _check_bound(t, u_sq, bound, inv_beta=None) -> None:
    """Every row must satisfy u_sq >= bound before any row is emitted; the
    rows of an optimum (nan when flagged) are named by their inv_beta."""
    bad = np.flatnonzero(np.asarray(u_sq) < np.asarray(bound) - 1e-8)
    if bad.size:
        i = bad[0]
        at = f"t = {_fmt(t[i])}"
        if inv_beta is not None:
            at = f"inv_beta = {_fmt(inv_beta[i])}, t_opt = {_fmt(t[i])}"
        raise NumericalError(
            f"row violates u_sq >= bound at {at}: "
            f"u_sq = {_fmt(u_sq[i])}, bound = {_fmt(bound[i])}"
        )


def t_interval(raw: dict) -> tuple[float, float]:
    """The optimization interval (lo, hi), checked for 0 < lo < hi."""
    lo, hi = _numbers(raw, "optimize.t_interval", 2)
    if not 0.0 < lo < hi:
        raise ConfigError("optimize.t_interval needs 0 < lo < hi")
    return lo, hi


def search_options(raw: dict) -> dict:
    """``t_interval``, ``coarse_points`` and ``rel_tol`` of the optimal-time
    search, checked.  Golden-section search never stops for a tolerance
    near the float spacing, so ``rel_tol`` must be at least MIN_REL_TOL."""
    coarse_points = _count(raw, "optimize.coarse_points", 3, _MAX_COARSE_POINTS)
    rel_tol = _number(raw, "optimize.rel_tol")
    if rel_tol < MIN_REL_TOL:
        raise ConfigError(f"optimize.rel_tol must be >= {MIN_REL_TOL:g}")
    return {"t_interval": t_interval(raw), "coarse_points": coarse_points, "rel_tol": rel_tol}


def cmd_optimize(args) -> int:
    raw = load_config(args.config)
    cfg = build_measurement(raw)
    moments = build_moments(raw)
    opts = search_options(raw)
    ev = CurveEvaluator(cfg, moments, opts["t_interval"][1], args.mode)
    lines = _header_lines(raw, args.mode)
    lines.append(",".join(_SWEEP_COLUMNS))
    try:
        opt = find_optimal_time(ev.point, **opts, key=point_u_sq)
    except BoundaryMinimum as exc:
        lines.append(f"# boundary_minimum inv_beta={_fmt(cfg.inv_beta)}: {exc}")
        lines.append(",".join([_fmt(cfg.inv_beta), "nan", "nan"]))
        _write(args.out, lines)
        return EXIT_OK
    _check_bound([opt.t_opt], [opt.u_sq_min], [opt.at_opt.bound], [cfg.inv_beta])
    if opt.multiple_minima:
        lines.append(
            f"# multiple_minima inv_beta={_fmt(cfg.inv_beta)}: "
            + " ".join(f"({_fmt(t)},{_fmt(v)})" for t, v in opt.candidates)
        )
    lines.append(",".join(_fmt(v) for v in (cfg.inv_beta, opt.t_opt, opt.u_sq_min)))
    _write(args.out, lines)
    return EXIT_OK


def _sweep_grid(raw: dict) -> np.ndarray:
    if "inv_betas" in raw["sweep"]:
        grid = np.array(_numbers(raw, "sweep.inv_betas"), dtype=float)
        if grid.size > _MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep.inv_betas must hold at most {_MAX_SWEEP_POINTS} values")
    else:
        count = _count(raw, "sweep.count", 1, _MAX_SWEEP_POINTS)
        grid = np.linspace(_number(raw, "sweep.start"), _number(raw, "sweep.stop"), count)
    if grid.size == 0 or not np.all(grid > 0) or np.any(np.diff(grid) < 0):
        raise ConfigError("sweep inv_beta values must be positive and ascending")
    return grid


def cmd_sweep(args) -> int:
    raw = load_config(args.config)
    cfg = build_measurement(raw)
    moments = build_moments(raw)
    opts = search_options(raw)
    grid = _sweep_grid(raw)
    result = thermal_sweep(cfg, moments, grid, mode=args.mode, **opts)
    _check_bound(result.t_opt, result.u_sq_min, result.bound, result.inv_betas)
    lines = _header_lines(raw, args.mode)
    lines.append(",".join(_SWEEP_COLUMNS))
    flagged = dict(result.flags)
    for ib, t_opt, u_min in zip(result.inv_betas, result.t_opt, result.u_sq_min):
        if float(ib) in flagged:
            lines.append(f"# flagged inv_beta={_fmt(ib)}: {flagged[float(ib)]}")
        lines.append(",".join(_fmt(v) for v in (ib, t_opt, u_min)))
    _write(args.out, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validation gates


def _gate_closed_limit():
    from . import oracle  # only these two gates need it; keep it off startup

    cfg = MeasurementConfig(eta=0.0)
    times = np.linspace(0.0, 3.0, 61)
    numeric = propagate(build_generator(cfg, "renormalized"), times)
    exact = zip(*(oracle.closed_form_eta0(cfg, t) for t in times.tolist()))
    worst = max(float(np.abs(x - np.array(y)).max()) for x, y in zip(numeric, exact))
    return worst, 1e-10


def _gate_discrete_bath(n_modes: int = 200):
    from . import oracle

    cfg = MeasurementConfig()
    moments = gaussian_state_moments()
    times = np.arange(1, 11) * 0.2
    bath = oracle.discretize_bath(cfg, n_modes=n_modes)
    disc = oracle.discrete_pointer_covariance(cfg, moments, bath, times)
    cont = oracle.continuum_pointer_covariance(cfg, moments, times, "raw")
    err = np.linalg.norm(disc - cont, axis=(1, 2)) / np.linalg.norm(cont, axis=(1, 2))
    return float(err.max()), 0.02


def _gate_classical_limit():
    worst = 0.0
    for inv_beta in (1e4, 2e4):
        kernel = BathKernel(eta=0.25, omega_c=20.0, inv_beta=inv_beta)
        for t in (0.01, 0.05, 0.1):
            nu = noise_autocorrelation(t, kernel)
            ref = kernel.eta * kernel.omega_c * inv_beta * np.exp(-kernel.omega_c * t)
            worst = max(worst, abs(nu - ref) / ref)
    return worst, 1e-6


def _gate_dissipation_transform():
    kernel = BathKernel(eta=0.25, omega_c=20.0, inv_beta=1.0)
    worst = 0.0
    for t in np.linspace(0.05, 0.8, 12):
        direct = dissipation_kernel_scalar(float(t), kernel)
        recon = dissipation_from_spectral_density(float(t), kernel)
        worst = max(worst, abs(direct - recon) / abs(direct))
    return worst, 1e-8


def _gate_inequality_chain():
    cfg = MeasurementConfig()
    moments = gaussian_state_moments()
    times = np.linspace(0.05, 3.0, 40)
    worst = -np.inf
    for inv_beta in (1.0, 2.0):
        curve = uncertainty_curve(
            MeasurementConfig(inv_beta=inv_beta), moments, times
        )
        for p in curve:
            worst = max(worst, p.bound - p.u_sq, 1.0 - p.bound)
    return float(worst), 1e-8


def cmd_validate(args) -> int:
    gates = [
        ("closed-limit equivalence", _gate_closed_limit),
        ("discrete-bath covariance", _gate_discrete_bath),
        ("kernel classical limit", _gate_classical_limit),
        ("dissipation sine transform", _gate_dissipation_transform),
        ("inequality chain", _gate_inequality_chain),
    ]
    failed = False
    lines = []
    for name, gate in gates:
        try:
            measured, tol = gate()
        except PointerSimError as exc:
            lines.append(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failed = True
            continue
        ok = measured <= tol
        failed = failed or not ok
        lines.append(
            f"{'PASS' if ok else 'FAIL'} {name}: measured {_fmt(measured)} "
            f"(tolerance {_fmt(tol)})"
        )
    _write(args.out, lines)
    return EXIT_GATE if failed else EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointersim",
        description="Simultaneous position/momentum pointer measurement "
        "under an Ohmic thermal environment.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("uncertainty", cmd_uncertainty),
        ("optimize", cmd_optimize),
        ("sweep", cmd_sweep),
        ("validate", cmd_validate),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--mode",
            choices=("raw", "renormalized"),
            default="renormalized",
            help="bath dynamics variant",
        )
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
