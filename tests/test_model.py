import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pointersim
from pointersim.errors import ConfigError
from pointersim.model import (
    MeasurementConfig,
    build_coupling_matrices,
    gaussian_state_moments,
)


def test_default_config_values():
    cfg = MeasurementConfig()
    assert cfg.kappa1 == 2.0
    assert cfg.kappa2 == 2.0
    assert cfg.mass_ratio == 1.0
    assert cfg.eta == 0.25
    assert cfg.omega_c == 20.0
    assert cfg.inv_beta == 1.0


def test_config_is_frozen():
    with pytest.raises(AttributeError):
        MeasurementConfig().eta = 0.5


def test_validate_rejects_singular_lagrangian():
    with pytest.raises(ConfigError, match=r"kappa2\*\*2 == mass_ratio \(1.0\): singular"):
        MeasurementConfig(kappa2=1.0, mass_ratio=1.0)


@pytest.mark.parametrize(
    "kwargs",
    [{"mass_ratio": 0.0}, {"omega_c": -1.0}, {"inv_beta": 0.0}, {"mass_ratio": -1.0},
     {"omega_c": -5.0}],
)
def test_validate_rejects_nonpositive(kwargs):
    [(name, value)] = kwargs.items()
    with pytest.raises(ConfigError, match=f"^{name} must be > 0, got {value}$"):
        MeasurementConfig(**kwargs)


def test_validate_rejects_negative_viscosity():
    with pytest.raises(ConfigError, match=r"^eta must be >= 0, got -0.1$"):
        MeasurementConfig(eta=-0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_validate_rejects_non_finite(value):
    """Every construction checks the model's invariants; each check is
    written so that NaN fails it."""
    with pytest.raises(ConfigError, match=f"^inv_beta must be finite, got {value}$"):
        MeasurementConfig(inv_beta=value)


def test_coupling_matrices_structure(open_config):
    coup = build_coupling_matrices(open_config)
    k2, m0 = open_config.kappa2, open_config.mass_ratio
    a = m0 / (k2**2 - m0)
    assert coup.mass_matrix[0, 0] == pytest.approx(-a)
    expected = np.array([[-a, 0, a * k2], [0, m0, 0], [a * k2, 0, -a * m0]])
    np.testing.assert_allclose(coup.mass_matrix, expected)
    d = np.zeros((3, 3))
    d[1, 0] = open_config.kappa1
    np.testing.assert_allclose(coup.damping_matrix, d)
    np.testing.assert_allclose(
        coup.mass_inverse @ coup.mass_matrix, np.eye(3), atol=1e-13
    )


def test_default_moments_minimum_uncertainty(default_moments):
    np.testing.assert_allclose(
        default_moments.cov_j, np.diag([1.0, 1.0, 0.25, 0.25])
    )
    assert default_moments.var_xs0 == 1.0
    assert default_moments.var_ps0 == 0.25
    assert default_moments.dx_s0 == 1.0
    assert default_moments.dp_s0 == 0.5


def test_no_pointer_correlations_are_zero_correlations():
    """pointer_correlations=None, the default, has the bits of (0.0, 0.0)."""
    none, zero = (gaussian_state_moments(pointer_correlations=c) for c in (None, (0.0, 0.0)))
    assert none.cov_j.tobytes() == zero.cov_j.tobytes()


def test_moments_reject_uncertainty_violation():
    with pytest.raises(ConfigError, match=r"^pointer 1: DX\^2\*DP\^2 = 0.1 < 1/4"):
        gaussian_state_moments(
            pointer_position_variances=(1.0, 1.0),
            pointer_momentum_variances=(0.1, 0.25),
        )
    with pytest.raises(ConfigError, match=r"^pointer 1: DX\^2\*DP\^2 = 0.25 < 1/4 \+ c\^2 = 0.29"):
        gaussian_state_moments(
            pointer_momentum_variances=(0.25, 0.25),
            pointer_correlations=(0.2, 0.0),
        )


def test_moments_reject_nonpositive_variance():
    with pytest.raises(ConfigError, match="^position variances must be > 0$"):
        gaussian_state_moments(system_position_variance=-1.0)


@pytest.mark.parametrize(
    "kwargs",
    [{"system_position_variance": 0.0}, {"pointer_position_variances": (1.0, 0.0)}],
)
def test_moments_reject_zero_position_variance(kwargs):
    """A zero position variance is refused before 1/(4*DX^2) is formed."""
    with pytest.raises(ConfigError, match="^position variances must be > 0$"):
        gaussian_state_moments(**kwargs)


NAN, INF = float("nan"), float("inf")
_ARGUMENT_IDS = ["system-position", "pointer-position", "system-momentum", "pointer-momentum",
                 "pointer-correlation"]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"system_position_variance": NAN}, "^system_position_variance must be finite, got nan$"),
        ({"pointer_position_variances": (1.0, NAN)},
         r"^pointer_position_variances must be finite, got \(1.0, nan\)$"),
        ({"system_momentum_variance": NAN}, "^system_momentum_variance must be finite, got nan$"),
        ({"pointer_momentum_variances": (NAN, 0.25)},
         r"^pointer_momentum_variances must be finite, got \(nan, 0.25\)$"),
        ({"pointer_correlations": (0.0, NAN)},
         r"^pointer_correlations must be finite, got \(0.0, nan\)$"),
    ],
    ids=_ARGUMENT_IDS,
)
def test_moments_reject_nan(kwargs, message):
    """Every argument that is NaN is refused with its name."""
    with pytest.raises(ConfigError, match=message):
        gaussian_state_moments(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        # each with the momentum variance given, which 1/(4*DX^2) would zero
        {"system_position_variance": INF, "system_momentum_variance": 1.0},
        {"pointer_position_variances": (INF, 1.0), "pointer_momentum_variances": (1.0, 1.0)},
        {"system_momentum_variance": INF},
        {"pointer_momentum_variances": (INF, 0.25)},
        {"pointer_correlations": (0.0, -INF)},
    ],
    ids=_ARGUMENT_IDS,
)
def test_moments_reject_inf(kwargs):
    """Every argument that is infinite is refused with its name, also where
    every other check would pass it."""
    name = next(iter(kwargs))
    with pytest.raises(ConfigError, match=f"^{name} must be finite, got .*inf"):
        gaussian_state_moments(**kwargs)


@given(
    vx=st.floats(0.1, 10.0),
    ratio=st.floats(1.0, 5.0),
    corr_frac=st.floats(0.0, 0.9),
)
def test_moments_accept_valid_states(vx, ratio, corr_frac):
    """Any pair with DX^2*DP^2 >= 1/4 + c^2 must be accepted."""
    vp = ratio * 0.25 / vx
    c = corr_frac * np.sqrt(max(vx * vp - 0.25, 0.0))
    m = gaussian_state_moments(
        pointer_position_variances=(vx, vx),
        pointer_momentum_variances=(vp, vp),
        pointer_correlations=(c, c),
    )
    for i in range(2):
        prod = m.cov_j[i, i] * m.cov_j[2 + i, 2 + i]
        assert prod >= 0.25 + m.cov_j[i, 2 + i] ** 2 - 1e-9


@pytest.mark.parametrize(
    "module",
    ["pointersim"] + [f"pointersim.{m.name}" for m in pkgutil.iter_modules(pointersim.__path__)],
)
def test_every_export_exists(module):
    """Each name in a module's ``__all__`` is defined, so a stale export
    fails here rather than at ``import *``."""
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
