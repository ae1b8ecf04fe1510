"""End-to-end statistics and per-layer metrics computed from spans."""

from __future__ import annotations

import numpy as np

from spans import Tracer

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: a tail percentile needs at least this many requests beyond it
TAIL_MIN_BEYOND = 10


def tail(samples) -> dict | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    s = np.asarray(samples, dtype=float)
    for p in TAIL_PERCENTILES:
        value = float(np.percentile(s, p))
        if int(np.sum(s > value)) >= TAIL_MIN_BEYOND:
            return {"percentile": p, "value": value, "samples": int(s.size)}
    return None


def _count(t: Tracer, name: str) -> int:
    return int(t.name_mask(name).sum())


def _duration(t: Tracer, name: str) -> float:
    return float(t.durations()[t.name_mask(name)].sum())


def _self(t: Tracer, *names: str) -> float:
    own = t.self_times()
    return float(sum(own[t.name_mask(n)].sum() for n in names))


def _points(t: Tracer, name: str) -> int:
    return int(np.array(t.points, dtype=np.int64)[t.name_mask(name)].sum())


def _under(t: Tracer, name: str, ancestor: str) -> int:
    """Spans called ``name`` that have an ``ancestor`` span above them."""
    parent = np.array(t.parent, dtype=np.int64)
    target = t.name_mask(ancestor)
    hits = 0
    for i in np.flatnonzero(t.name_mask(name)):
        j = parent[i]
        while j >= 0 and not target[j]:
            j = parent[j]
        hits += j >= 0
    return int(hits)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where there was nothing to divide by."""
    return num / den if den else 0.0


#: name -> (unit, spans it needs, value from (tracer, requests, rows))
PER_LAYER = {
    "cli.request_self_s": (
        "s/request", ("cli.main",), lambda t, n, r: _self(t, "cli.main") / n),
    "propagator.expm_calls": (
        "count/request", ("propagator.expm",), lambda t, n, r: _count(t, "propagator.expm") / n),
    "propagator.expm_s": (
        "s/request", ("propagator.expm",), lambda t, n, r: _duration(t, "propagator.expm") / n),
    "propagator.propagate_calls": (
        "count/request", ("propagator.propagate",),
        lambda t, n, r: _count(t, "propagator.propagate") / n),
    "propagator.expm_per_row": (
        "count/row", ("propagator.expm",), lambda t, n, r: _ratio(_count(t, "propagator.expm"), r)),
    "kernels.nu_calls": (
        "count/request", ("kernels.noise_autocorrelation",),
        lambda t, n, r: _count(t, "kernels.noise_autocorrelation") / n),
    "kernels.nu_points": (
        "count/request", ("kernels.noise_autocorrelation",),
        lambda t, n, r: _points(t, "kernels.noise_autocorrelation") / n),
    "kernels.nu_s": (
        "s/request", ("kernels.noise_autocorrelation",),
        lambda t, n, r: _duration(t, "kernels.noise_autocorrelation") / n),
    "kernels.oscillatory_s": (
        "s/request", ("kernels.oscillatory_quad",),
        lambda t, n, r: _duration(t, "kernels.oscillatory_quad") / n),
    "noise.table_builds": (
        "count/request", ("noise.PropagatorTable",),
        lambda t, n, r: _count(t, "noise.PropagatorTable") / n),
    "noise.table_build_s": (
        "s/request", ("noise.PropagatorTable",),
        lambda t, n, r: _duration(t, "noise.PropagatorTable") / n),
    "noise.lambda_calls": (
        "count/request", ("noise.lambda_covariance",),
        lambda t, n, r: _count(t, "noise.lambda_covariance") / n),
    "noise.lambda_self_s": (
        "s/request", ("noise.lambda_covariance",),
        lambda t, n, r: _self(t, "noise.lambda_covariance") / n),
    "noise.lambda_ms_per_call": (
        "ms", ("noise.lambda_covariance",),
        lambda t, n, r: 1e3 * _ratio(_duration(t, "noise.lambda_covariance"),
                                     _count(t, "noise.lambda_covariance"))),
    "noise.xi_calls": (
        "count/request", ("noise.xi_matrix",), lambda t, n, r: _count(t, "noise.xi_matrix") / n),
    "uncertainty.evaluator_builds": (
        "count/request", ("uncertainty.CurveEvaluator.__init__",),
        lambda t, n, r: _count(t, "uncertainty.CurveEvaluator.__init__") / n),
    "uncertainty.evaluator_build_s": (
        "s/request", ("uncertainty.CurveEvaluator.__init__",),
        lambda t, n, r: _duration(t, "uncertainty.CurveEvaluator.__init__") / n),
    "uncertainty.point_calls": (
        "count/request", ("uncertainty.CurveEvaluator.point",),
        lambda t, n, r: _count(t, "uncertainty.CurveEvaluator.point") / n),
    "uncertainty.point_self_s": (
        "s/request", ("uncertainty.CurveEvaluator.point",),
        lambda t, n, r: _self(t, "uncertainty.CurveEvaluator.point") / n),
    "optimize.optima": (
        "count/request", ("optimize.find_optimal_time",),
        lambda t, n, r: _count(t, "optimize.find_optimal_time") / n),
    "optimize.evals_per_optimum": (
        "count", ("optimize.find_optimal_time", "uncertainty.CurveEvaluator.point"),
        lambda t, n, r: _ratio(
            _under(t, "uncertainty.CurveEvaluator.point", "optimize.find_optimal_time"),
            _count(t, "optimize.find_optimal_time"))),
    "optimize.self_s": (
        "s/request", ("optimize.find_optimal_time", "optimize.thermal_sweep"),
        lambda t, n, r: _self(t, "optimize.find_optimal_time", "optimize.thermal_sweep") / n),
    "oracle.discrete_s": (
        "s/request", ("oracle.discrete_pointer_covariance",),
        lambda t, n, r: _duration(t, "oracle.discrete_pointer_covariance") / n),
    "oracle.continuum_s": (
        "s/request", ("oracle.continuum_pointer_covariance",),
        lambda t, n, r: _duration(t, "oracle.continuum_pointer_covariance") / n),
    "oracle.expm_calls": (
        "count/request", ("oracle.expm",), lambda t, n, r: _count(t, "oracle.expm") / n),
}


def layer_metrics(t: Tracer, requests: int, rows: int) -> dict[str, dict]:
    """Every per-layer metric; ``None`` where a span it needs is missing."""
    out = {}
    for name, (unit, needs, value) in PER_LAYER.items():
        missing = any(s in t.missing for s in needs)
        out[name] = {"value": None if missing else float(value(t, requests, rows)), "unit": unit}
    return out


def self_time_shares(t: Tracer) -> dict[str, float]:
    """Share of all traced request time spent in each layer's own code."""
    own = t.self_times()
    layer = np.array([t.names[i].split(".")[0] for i in t.name_id])
    total = float(own.sum())
    return {name: float(own[layer == name].sum()) / total for name in sorted(set(layer))} if total else {}
