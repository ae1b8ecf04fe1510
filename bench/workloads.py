"""Seeded request generators for the benchmark workloads.

BENCHMARK.json lists three of the four; ``open_curve`` runs by hand (see
README.md).  Each workload is an endless stream of CLI requests built from
``(workload, seed)`` alone; the program under test only ever sees the
generated config files and flags.  The stream is a sequence of passes over
a fixed list of cycle slots, and every pass draws fresh values from the
same seeded random stream, so no config repeats within a run and state
that outlives a request (a cache keyed by parameters) gets no reuse a
fresh CLI process would not get.  ``validate`` takes no config, so its
repeats run warm.

Continuous parameters are drawn by stratified sampling: each request of a
pass takes one value from its own equal-width slice of the range.  Grid
lengths are fixed per cycle slot, and the parameters that set how much
work a request is (``t_max``, grid spacing, mode) take slice ``i`` in
cycle slot ``i``, so every seed and every pass runs the same cost mix in
the same order and a run that stops part-way through a pass stops at the
same place whatever the seed.  The other parameters take their slices in
a seeded random order.  The values themselves change with the seed and
the pass.

Parameter ranges come from the physics of the model and from the values
used by the repository's tests and defaults:

- ``eta`` 0.05-0.5 around the reference viscosity 0.25;
- ``omega_c`` 10-40, the high-cutoff regime where ``omega_c * t_max >= 10``
  holds for every ``t_max`` drawn, so the renormalisation is valid;
- ``inv_beta`` 0.5-5.0, the thermal-energy range of the reference sweep;
- ``t_max`` 1-3, the interaction times of the reference figures;
- closed-limit couplings ``kappa1``, ``kappa2`` 1.5-2.5 and
  ``mass_ratio`` 0.5-1.5 around the reference point (2, 2, 1), which keeps
  ``kappa2**2 > mass_ratio``, i.e. away from the singular Lagrangian that
  the model rejects by construction.

No ``optimize.*`` key is ever set, and ``--threads`` stays at its default.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("open_curve", "thermal_sweep", "closed_curve", "validate")

#: time grids start where the CLI default does
GRID_START = 0.02

#: rows per closed-limit curve, one length per cycle slot; an odd number
#: of slots puts the median request inside one slot's cluster of times
CLOSED_POINTS = tuple(range(2000, 5001, 500))

#: inv_beta values per sweep request (optimum rows per request): the
#: CLI's documented default sweep count
SWEEP_COUNT = 10

#: optimisation interval the CLI uses when no optimize.* key is set
DEFAULT_T_INTERVAL = (0.02, 3.0)


@dataclass(frozen=True)
class Request:
    """One CLI invocation: subcommand, --mode, and the JSON config (if any)."""

    index: int
    command: str
    mode: str | None = None
    config: dict | None = None
    #: number of data rows a correct output has
    rows: int = 0

    def argv(self, config_path: str | None, out_path: str) -> list[str]:
        args = [self.command]
        if self.config is not None:
            args += ["--config", config_path]
        if self.mode is not None:
            args += ["--mode", self.mode]
        return args + ["--out", out_path]


def _slots(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n draws from [lo, hi]; draw i lies in the i-th of n equal-width slices."""
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """Like ``_slots``, in shuffled order."""
    values = _slots(rng, lo, hi, n)
    rng.shuffle(values)
    return values


#: (mode, spacing) per cycle slot, repeated for longer cycles
_MODE_SPACING = (
    ("renormalized", "linear"), ("raw", "log"), ("raw", "linear"), ("renormalized", "log"),
)

#: open-curve slots: (t_max slice, points).  Linear grids reach the long
#: times of the reference figures, log grids resolve the short-time
#: divergence; the point counts ("a few hundred") give every slot about
#: the same number of Lambda(t) quadrature panels (6,000 per request), so
#: the median request does not jump between slots of unequal cost
_OPEN_SLOTS = (((2.5, 3.0), 194), ((1.0, 1.5), 297), ((2.0, 2.5), 212), ((1.5, 2.0), 285))


def _open_curve(rng: random.Random, base: int) -> list[Request]:
    n = len(_OPEN_SLOTS)
    eta = _stratified(rng, 0.05, 0.5, n)
    omega_c = _stratified(rng, 10.0, 40.0, n)
    inv_beta = _stratified(rng, 0.5, 5.0, n)
    out = []
    for i, ((lo, hi), points) in enumerate(_OPEN_SLOTS):
        mode, spacing = _MODE_SPACING[i]
        cfg = {
            "eta": eta[i],
            "omega_c": omega_c[i],
            "inv_beta": inv_beta[i],
            "time_grid": {"start": GRID_START, "stop": lo + (hi - lo) * rng.random(),
                          "count": points, "spacing": spacing},
        }
        out.append(Request(base + i, "uncertainty", mode, cfg, rows=points))
    return out


def _thermal_sweep(rng: random.Random, base: int) -> list[Request]:
    n = 4
    eta = _stratified(rng, 0.05, 0.5, n)
    omega_c = _stratified(rng, 10.0, 40.0, n)
    start = _stratified(rng, 0.5, 2.0, n)
    width = _stratified(rng, 1.0, 3.0, n)
    out = []
    for i in range(n):
        cfg = {
            "eta": eta[i],
            "omega_c": omega_c[i],
            "inv_beta": start[i],
            "sweep": {"start": start[i], "stop": start[i] + width[i], "count": SWEEP_COUNT},
        }
        mode = _MODE_SPACING[i][0]
        out.append(Request(base + i, "sweep", mode, cfg, rows=SWEEP_COUNT))
    return out


def _closed_curve(rng: random.Random, base: int) -> list[Request]:
    n = len(CLOSED_POINTS)
    t_max = _slots(rng, 1.0, 3.0, n)
    kappa1 = _stratified(rng, 1.5, 2.5, n)
    kappa2 = _stratified(rng, 1.5, 2.5, n)
    mass_ratio = _stratified(rng, 0.5, 1.5, n)
    out = []
    for i in range(n):
        mode, spacing = _MODE_SPACING[i % len(_MODE_SPACING)]
        cfg = {
            "eta": 0.0,
            "kappa1": kappa1[i],
            "kappa2": kappa2[i],
            "mass_ratio": mass_ratio[i],
            "time_grid": {"start": GRID_START, "stop": t_max[i], "count": CLOSED_POINTS[i],
                          "spacing": spacing},
        }
        out.append(Request(base + i, "uncertainty", mode, cfg, rows=CLOSED_POINTS[i]))
    return out


def _validate(rng: random.Random, base: int) -> list[Request]:
    # fixed inputs: the gates take no config, so the seed has no effect
    return [Request(base, "validate", rows=5)]


_GENERATORS = {
    "open_curve": _open_curve,
    "thermal_sweep": _thermal_sweep,
    "closed_curve": _closed_curve,
    "validate": _validate,
}


def stream(workload: str, seed: int) -> Iterator[Request]:
    """The endless request stream of ``workload`` for ``seed``, one pass after another."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    make = _GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    base = 0
    while True:
        batch = make(rng, base)
        yield from batch
        base += len(batch)


def generate(workload: str, seed: int, count: int) -> list[Request]:
    """The first ``count`` requests of ``stream(workload, seed)``."""
    return list(itertools.islice(stream(workload, seed), count))


def cycle_length(workload: str) -> int:
    """Requests per pass: the number of cost slots of ``workload``."""
    return len(_GENERATORS[workload](random.Random(0), 0))
