"""The benchmark's span targets exist in the package.

``bench/spans.py`` wraps the layer boundaries named in its ``TARGETS``
from outside and reports a target it cannot find only as a missing span
of a traced run.  These tests make a rename fail in the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


_TARGETS = _load_targets()


@pytest.mark.parametrize(
    "module, path", [t[1:3] for t in _TARGETS], ids=[t[0] for t in _TARGETS]
)
def test_span_target_resolves(module, path):
    owner = importlib.import_module(f"pointersim.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"pointersim.{module} has no {path}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_discrete_bath_calls_expm_through_its_module_name(monkeypatch):
    """The trace counts the discrete bath's step through ``oracle.expm``:
    one call per ``discrete_pointer_covariance``, through the module global,
    on the generator's two off-diagonal blocks."""
    import numpy as np

    from pointersim import oracle
    from pointersim.model import MeasurementConfig, gaussian_state_moments

    seen, original = [], oracle.expm
    monkeypatch.setattr(oracle, "expm", lambda b, c: seen.append(b.shape) or original(b, c))
    w = (np.arange(5) + 0.5) * 2.0
    bath = oracle.DiscreteBath(5, 10.0, w, 0.1 * np.sqrt(w))
    times = [0.2, 0.4, 0.6]
    oracle.discrete_pointer_covariance(MeasurementConfig(), gaussian_state_moments(), bath, times)
    assert seen == [(13, 13)]


@pytest.mark.parametrize("eta, calls", [(0.0, 0), (0.25, 1)], ids=["closed", "open"])
def test_propagator_tables_call_expm_through_its_module_name(monkeypatch, eta, calls):
    """The trace counts table builds through ``propagator.expm``: an open
    table calls it once, through the module global, and the closed table,
    whose one node is the identity, not at all."""
    from pointersim import propagator
    from pointersim.model import MeasurementConfig

    seen, original = [], propagator.expm
    monkeypatch.setattr(propagator, "expm", lambda a: seen.append(a.shape) or original(a))
    propagator.ExpTable(propagator.build_generator(MeasurementConfig(eta=eta)), 3.0)
    assert len(seen) == calls
