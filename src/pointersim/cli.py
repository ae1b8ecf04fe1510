"""Command-line interface: config ingestion, pipeline runs, CSV emission.

Subcommands: ``uncertainty`` (time series of all figures of merit),
``optimize`` (``sweep`` at the configured thermal energy), ``sweep``
(thermal-energy sweep), ``validate`` (self-check gates against the
independent oracles).
All numeric output is deterministic: identical configs give byte-identical
files.
"""

from __future__ import annotations

import argparse
import inspect
import json
import reprlib
import sys
import warnings
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalError, PointerSimError
from .model import GaussianMoments, MeasurementConfig, gaussian_state_moments
from .optimize import MIN_COARSE_POINTS, check_search, thermal_sweep
from .propagator import DEFAULT_MODE, MODES
from .uncertainty import CurveEvaluator, UncertaintyPoint

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GATE = 4

_SWEEP_COLUMNS = ("inv_beta", "t_opt", "u_sq_min")


def _real(value, key: str, _bounds=None) -> float:
    """A finite JSON number as a float; a bool is not one."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config key '{key}' must be a finite number, got {value!r}")
    return float(value)


def _integer(value, key: str, bounds: tuple[int, int]) -> int:
    """An integer in [least, most]; the upper limit of a count keeps the
    arrays it sizes in memory."""
    least, most = bounds
    count = _real(value, key)
    if count != int(count) or not least <= count <= most:
        raise ConfigError(
            f"config key '{key}' must be an integer in [{least}, {most}], got {value!r}"
        )
    return int(count)


def _reals(value, key: str, length: tuple[int, int]) -> tuple[float, ...]:
    """A list of finite numbers whose length lies in [least, most]."""
    least, most = length
    if not isinstance(value, list) or not least <= len(value) <= most:
        size = f"{least}" if least == most else f"{least} to {most}"
        raise ConfigError(
            f"config key '{key}' must be a list of {size} numbers, got {reprlib.repr(value)}"
        )
    return tuple(_real(v, key) for v in value)


def _choice(value, key: str, names: tuple[str, ...]) -> str:
    if value not in names:
        raise ConfigError(f"config key '{key}' must be one of {', '.join(names)}, got {value!r}")
    return value


_SEARCH = thermal_sweep.__kwdefaults__
_STATE = inspect.signature(gaussian_state_moments).parameters
#: every config key: its default (None for an optional key), reader and the reader's bounds;
#: the physics, state and search defaults are MeasurementConfig's, gaussian_state_moments's
#: (pointer_correlations None is uncorrelated) and thermal_sweep's
_SCHEMA = {
    **{f.name: (f.default, _real, None) for f in fields(MeasurementConfig)},
    **{  # a pointer_ key holds one value per pointer
        f"state.{k}": (a.default, *((_reals, (2, 2)) if k.startswith("pointer_") else (_real, None)))
        for k, a in _STATE.items()
    },
    "time_grid.start": (0.02, _real, None),
    "time_grid.stop": (3.0, _real, None),
    "time_grid.count": (200, _integer, (2, 100_000)),
    "time_grid.spacing": ("linear", _choice, ("linear", "log")),
    "optimize.t_interval": (_SEARCH["t_interval"], _reals, (2, 2)),
    "optimize.coarse_points": (_SEARCH["coarse_points"], _integer, (MIN_COARSE_POINTS, 10_000)),
    "optimize.rel_tol": (_SEARCH["rel_tol"], _real, None),
    # the default sweep grid hits the reference energies 1 and 2 exactly
    "sweep.start": (0.5, _real, None),
    "sweep.stop": (5.0, _real, None),
    "sweep.count": (10, _integer, (1, 1_000)),
    "sweep.inv_betas": (None, _reals, (1, 1_000)),
}


def _default_config() -> dict:
    """The schema's defaults as JSON, nested by section, optional keys left out."""
    cfg: dict = {}
    for path, (default, _, _) in _SCHEMA.items():
        section, _, key = path.rpartition(".")
        if default is not None:
            (cfg.setdefault(section, {}) if section else cfg)[key] = default
    return json.loads(json.dumps(cfg))


_DEFAULT_CONFIG = _default_config()


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
            for sub in val:
                if f"{key}.{sub}" not in _SCHEMA:
                    raise ConfigError(f"unknown config key '{key}.{sub}'")
            cfg[key].update(val)
    return cfg


class Inputs(NamedTuple):
    """What the subcommands compute from, read from one config."""

    cfg: MeasurementConfig
    moments: GaussianMoments
    times: np.ndarray
    #: t_interval, coarse_points and rel_tol of the optimal-time search
    search: dict
    inv_betas: np.ndarray


def read_config(raw: dict) -> Inputs:
    """Every key of the merged config ``raw`` read by its schema entry, then
    the checks across keys; :func:`~pointersim.optimize.check_search`
    checks the search settings.  Every subcommand reads the whole config,
    so no bad key passes because a subcommand does not use it."""
    val: dict = {}  # the typed values by section; "" holds the keys outside one
    for path, (default, reader, bounds) in _SCHEMA.items():
        section, _, key = path.rpartition(".")
        value = (raw[section] if section else raw).get(key)
        # an optional key left out or set to null is absent
        absent = value is None and default is None
        val.setdefault(section, {})[key] = None if absent else reader(value, path, bounds)

    cfg = MeasurementConfig(**val[""])
    moments = gaussian_state_moments(**val["state"])

    grid = val["time_grid"]
    if not 0.0 < grid["start"] < grid["stop"]:
        raise ConfigError("time grid needs 0 < start < stop")
    spaced = np.linspace if grid["spacing"] == "linear" else np.geomspace
    times = spaced(grid["start"], grid["stop"], grid["count"])

    search, sweep = val["optimize"], val["sweep"]
    inv_betas = sweep["inv_betas"]
    if inv_betas is None:
        inv_betas = np.linspace(sweep["start"], sweep["stop"], sweep["count"])
    inv_betas = check_search(**search, inv_betas=inv_betas)
    # a curve runs up to the grid's stop, a search up to the interval's end
    hi = search["t_interval"][1]
    for key, t_max in (("time_grid.stop", grid["stop"]), ("optimize.t_interval", hi)):
        if cfg.eta > 0 and cfg.omega_c * t_max < 10.0:
            warnings.warn(
                f"omega_c * t_max = {cfg.omega_c * t_max:.3g} at {key} is not >> 1; "
                "the high-cutoff renormalization may be inaccurate",
                stacklevel=2,
            )
    return Inputs(cfg, moments, times, search, inv_betas)


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


def _check_bound(t, u_sq, bound, inv_beta=None) -> None:
    """Every row must have a finite u_sq >= a finite bound before any row is
    emitted; the rows of an optimum are named by their inv_beta, and a
    flagged one (t_opt nan) passes."""
    finite = np.isfinite(u_sq) & np.isfinite(bound)
    bad = np.flatnonzero(~(finite | np.isnan(t)) | (u_sq < bound - 1e-8))
    if bad.size:
        i = bad[0]
        at = f"t = {_fmt(t[i])}"
        if inv_beta is not None:
            at = f"inv_beta = {_fmt(inv_beta[i])}, t_opt = {_fmt(t[i])}"
        fault = "violates u_sq >= bound" if finite[i] else "has a non-finite u_sq or bound"
        raise NumericalError(
            f"row {fault} at {at}: u_sq = {_fmt(u_sq[i])}, bound = {_fmt(bound[i])}"
        )


def cmd_uncertainty(run: Inputs, mode: str) -> list[str]:
    """CSV lines of the uncertainty curve on the configured time grid."""
    curve = CurveEvaluator(run.cfg, run.moments, float(run.times[-1]), mode).curve(run.times)
    _check_bound(*(curve.column(c) for c in ("t", "u_sq", "bound")))
    columns = [f.name for f in fields(UncertaintyPoint)]
    rows = np.column_stack([curve.column(c) for c in columns]).tolist()
    row_format = ",".join(["%.12g"] * len(columns))
    return [",".join(columns)] + [row_format % tuple(row) for row in rows]


def cmd_optimize(run: Inputs, mode: str) -> list[str]:
    """CSV lines of the sweep of the configured inv_beta alone."""
    return cmd_sweep(run._replace(inv_betas=np.array([run.cfg.inv_beta])), mode)


def cmd_sweep(run: Inputs, mode: str) -> list[str]:
    """CSV lines of the optimal time at every inv_beta of the sweep grid; a
    minimum on an edge of the interval gives a flagged row of nan."""
    result = thermal_sweep(run.cfg, run.moments, run.inv_betas, mode=mode, **run.search)
    _check_bound(result.t_opt, result.u_sq_min, result.bound, result.inv_betas)
    lines = [",".join(_SWEEP_COLUMNS)]
    flagged = dict(result.flags)
    for ib, t_opt, u_min in zip(result.inv_betas, result.t_opt, result.u_sq_min):
        if float(ib) in flagged:
            lines.append(f"# flagged inv_beta={_fmt(ib)}: {flagged[float(ib)]}")
        lines.append(",".join(_fmt(v) for v in (ib, t_opt, u_min)))
    return lines


def cmd_validate(args) -> int:
    from .oracle import GATES  # only validate needs the oracle; keep it off startup

    lines = []
    for name, measure, tol in GATES:
        try:
            measured = measure()
        except PointerSimError as exc:
            lines.append(f"FAIL {name}: {type(exc).__name__}: {exc}")
            continue
        lines.append(
            f"{'PASS' if measured <= tol else 'FAIL'} {name}: measured {_fmt(measured)} "
            f"(tolerance {_fmt(tol)})"
        )
    _write(args.out, lines)
    return EXIT_OK if all(line.startswith("PASS") for line in lines) else EXIT_GATE


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointersim",
        description="Simultaneous position/momentum pointer measurement "
        "under an Ohmic thermal environment.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for fn in (cmd_uncertainty, cmd_optimize, cmd_sweep, cmd_validate):
        p = sub.add_parser(fn.__name__.removeprefix("cmd_"))
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(func=fn)
        if fn is not cmd_validate:  # the gates take fixed inputs
            p.add_argument("--config", default=None, help="JSON config path")
            p.add_argument(
                "--mode",
                choices=MODES,
                default=DEFAULT_MODE,
                help="bath dynamics variant",
            )
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # a figure that overflows is refused with a message further down
        # (_check_bound, the coarse scan, the moments of nu); numpy's own
        # warnings about it would only come first
        with np.errstate(over="ignore", invalid="ignore"):
            if args.func is cmd_validate:
                return cmd_validate(args)
            raw = load_config(args.config)
            lines = args.func(read_config(raw), args.mode)
        _write(args.out, _header_lines(raw, args.mode) + lines)
        return EXIT_OK
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
