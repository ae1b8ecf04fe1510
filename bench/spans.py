"""Span recorder that wraps the public functions of each pointersim layer.

The program carries no instrumentation of its own, so the benchmark wraps
the layer boundaries from outside: every namespace inside the ``pointersim``
package that bound a target with ``from .x import y`` gets the wrapper, so
no call escapes the trace.  Methods are wrapped on their class, which every
namespace shares.  ``scipy.linalg.expm`` is wrapped separately where
``propagator`` and ``oracle`` bound it, so the two layers are told apart.

Each span holds a name, a start, an end, its parent span and a request id.
Spans stay in memory (columnar arrays, about 50 bytes each) until the run
writes them out.  A span's self time is its duration minus the time its
children cover; the self times of all spans of a request add up to the
duration of the request's root span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: (span name, module, attribute path, patch every pointersim namespace?)
TARGETS = (
    ("cli.main", "cli", "main", True),
    ("optimize.find_optimal_time", "optimize", "find_optimal_time", True),
    ("optimize.thermal_sweep", "optimize", "thermal_sweep", True),
    ("uncertainty.CurveEvaluator.__init__", "uncertainty", "CurveEvaluator.__init__", True),
    ("uncertainty.CurveEvaluator.point", "uncertainty", "CurveEvaluator.point", True),
    ("noise.PropagatorTable", "noise", "PropagatorTable.__init__", True),
    ("noise.lambda_covariance", "noise", "lambda_covariance", True),
    ("noise.xi_matrix", "noise", "xi_matrix", True),
    ("kernels.noise_autocorrelation", "kernels", "noise_autocorrelation", True),
    ("kernels.dissipation_from_spectral_density", "kernels", "dissipation_from_spectral_density", True),
    ("kernels.oscillatory_quad", "kernels", "_oscillatory_quad", True),
    ("propagator.build_generator", "propagator", "build_generator", True),
    ("propagator.propagate", "propagator", "propagate", True),
    ("propagator.response_matrices", "propagator", "response_matrices", True),
    ("propagator.expm", "propagator", "expm", False),
    ("oracle.discrete_pointer_covariance", "oracle", "discrete_pointer_covariance", True),
    ("oracle.continuum_pointer_covariance", "oracle", "continuum_pointer_covariance", True),
    ("oracle.expm", "oracle", "expm", False),
)

#: spans that record how many time points their first argument holds
_COUNT_POINTS = {"kernels.noise_autocorrelation"}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.points = array("q")
        self.current_request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: span names whose target does not exist in the program
        self.missing: set[str] = set()

    # -- recording -------------------------------------------------------

    def open(self, name: str, points: int = 0) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.points.append(points)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        count_points = name in _COUNT_POINTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, int(np.size(args[0])) if count_points and args else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def __len__(self) -> int:
        return len(self.start)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; record absent ones in ``missing``."""
        self.missing = set()
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "pointersim" or key.startswith("pointersim."))
        ]
        for name, module, path, everywhere in TARGETS:
            try:
                owner = importlib.import_module(f"pointersim.{module}")
            except ImportError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.add(name)
                continue
            wrapped = self.wrap(name, original)
            if outer or not everywhere:
                self._set(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.array(self.end, dtype=float) - np.array(self.start, dtype=float)

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the durations of its direct children.

        Spans of one thread nest, so a span's children are disjoint and
        lie inside it; their summed duration is the time they cover.
        """
        dur = self.durations()
        own = dur.copy()
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        return own

    def name_mask(self, name: str) -> np.ndarray:
        nid = self._name_ids.get(name, -1)
        return np.array(self.name_id, dtype=np.int64) == nid

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trequest\tpoints\n")
            for i in range(len(self)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.request[i]}\t{self.points[i]}\n"
                )
