"""The benchmark's span targets exist in the package.

``bench/spans.py`` wraps the layer boundaries named in its ``TARGETS``
from outside and reports a target it cannot find only as a missing span
of a traced run.  These tests make a rename fail in the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest
import scipy.linalg

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


@pytest.mark.parametrize("module", ["propagator", "oracle"])
def test_expm_is_bound_where_the_trace_counts_it(module):
    """The trace counts matrix exponentials through the ``expm`` name of
    these two modules, so each must call SciPy's through that name."""
    assert importlib.import_module(f"pointersim.{module}").expm is scipy.linalg.expm
