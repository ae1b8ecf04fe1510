"""Accumulated-noise covariance and the inference-transformed matrix Xi^2.

The bath drives the augmented state through the pointer columns N of the
noise map, so its noise part is x(t) = int_0^t e^{F(t-s)} N xi(s) ds, with
xi the two pointer forces of autocorrelation nu.  Its covariance C(t)
obeys

    dC/dt = F C + C F^T + N D^T + D N^T,   D(t) = int_0^t e^{Fr} N nu(r) dr,

and Lambda(t) = P C(t) P^T, with P the pointer-position rows.  Over a
panel [a, b] of width h this is

    C(b) = e^{Fh} C(a) e^{F^T h}
           + int_a^b e^{F(b-s)} (N D(s)^T + D(s) N^T) e^{F^T(b-s)} ds,

and :func:`_forward` steps C and D across panels of n Gauss-Legendre nodes:
D at the nodes of a panel from D(a) and the spectral integration matrix
S_ij = int_0^{x_i} l_j(x) dx of the Lagrange basis l_j on the nodes
(Greengard, SIAM J. Numer. Anal. 28:1071, 1991), then the panel integral
by the Gauss-Legendre rule.  All e^{Fs}, e^{F(b-s)} and e^{Fh} of a pass
are one read of the exponential table of :mod:`~pointersim.propagator`.

Swapping the two integrals gives the lag form
Lambda(t) = int_0^t du nu(u) P (W(t-u) e^{F^T u} + e^{Fu} W(t-u)) P^T, with
the Gramian W(s) = int_0^s e^{Fr} N N^T e^{F^T r} dr (Van Loan, IEEE TAC
23:395, 1978).  On the same panels the two rules sample nu at the same
nodes with the same weights: sum_i w_i S_ij p(x_i) = w_j int_{x_j}^1 p for
every polynomial p of degree < n, so they differ only in how they
integrate the smooth factor of nu, which both resolve to rounding.

The panels of Lambda(t) are 16 graded panels on [0, u0], with
u0 = min(0.05, t/2), toward the logarithmic singularity of nu at 0, then
regular panels of width 0.1 whose edges sit at u0 + k*0.1, and a last,
partial panel that ends at t.  From t = 0.1 on, u0 = 0.05 for every t, so
every panel but the last is a panel of one outer mesh on [0, t_max].  The
first time a bath kernel meets the mesh, one pass gives C and D at every
mesh edge, and :class:`PropagatorTable` keeps them per kernel.  Each
t >= 0.1 is then one partial panel from the mesh edge below it, with nu
afresh on its 10 nodes, and each smaller t the 18 graded panels scaled to
it.  These chains of panels are independent: :func:`lambda_covariance`
stacks those of all its times and bath kernels into passes of at most
_PASS_NODES kernel-nodes, with the bits of one call per time.  The closed
measurement (eta = 0) has no noise: its table has no mesh, and Lambda = 0.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericalError
from .kernels import BathKernel, noise_autocorrelation
from .propagator import AugmentedGenerator, ExpTable

__all__ = ["PropagatorTable", "lambda_covariance", "xi_matrix"]

#: outer panels: Gauss-Legendre nodes per panel, regular width, and
#: where, how fast and in how many panels they grade toward the
#: logarithmic singularity of nu at u = 0
_PANEL_NODES = 10
_PANEL_WIDTH = 0.1
_GRADED_START = 0.05
_GRADED_RATIO = 0.18
_GRADED_PANELS = 16
#: most floats the mesh cache of a table may hold over all its bath
#: kernels, dim^2 + 2*dim = 80 per mesh edge and kernel, about 10*t_max + 18
#: edges; the default sweep holds 37,600
_MAX_MESH_NU = 10_000_000
#: most kernel-nodes (bath kernels times panel nodes) in one stacked pass,
#: which bound its work arrays: ten kernels on the 46 mesh panels of t_max = 3
_PASS_NODES = 4_600


class PropagatorTable(ExpTable):
    """The exponential table with the outer mesh of Lambda and, per bath
    kernel, the noise covariance C and the integral D at its edges."""

    def __init__(self, gen: AugmentedGenerator, t_max: float):
        super().__init__(gen, t_max)
        # the edges of every panel of Lambda(t_max) but the last; the closed
        # measurement (eta = 0) has no noise, and no mesh
        self.mesh = _u_panels(t_max, _GRADED_PANELS)[:-1] if gen.cfg.eta > 0 else np.zeros(0)
        self._cache: dict[BathKernel, tuple[np.ndarray, np.ndarray]] = {}

    def mesh_state(self, kernels, edges) -> tuple[np.ndarray, np.ndarray]:
        """C and D of every kernel at the mesh edges of index ``edges``,
        stacked over the kernels; passes over the whole mesh for the kernels
        met first.  ConfigError, before any pass, when the cache would then
        hold more than _MAX_MESH_NU floats."""
        new = [k for k in dict.fromkeys(kernels) if k not in self._cache]
        held, dim = len(self._cache) + len(new), self.gen.generator.shape[0]
        size = held * self.mesh.size * (dim * dim + 2 * dim)
        if size > _MAX_MESH_NU:
            raise ConfigError(
                f"the noise covariance of {held} thermal energies on the {self.mesh.size} mesh "
                f"edges of [0, {self.t_max:g}] needs {size:.3g} floats, more than {_MAX_MESH_NU}; "
                "lower sweep.count or t_max"
            )
        step = max(1, _PASS_NODES // ((self.mesh.size - 1) * _PANEL_NODES))
        for first in range(0, len(new), step):
            batch = new[first : first + step]
            self._cache.update(zip(batch, zip(*_forward(self, batch, self.mesh, _PANEL_NODES))))
        return tuple(np.array([self._cache[k][i][edges] for k in kernels]) for i in (0, 1))


@lru_cache(maxsize=None)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _integration_matrix(n: int) -> np.ndarray:
    """S_ij = int_0^{x_i} l_j(x) dx for the Lagrange basis l_j on the n
    Gauss-Legendre nodes x_i of [0, 1]: S f(x) holds the integrals of f
    from 0 to every node, exact for polynomials of degree < n."""
    leg, y = np.polynomial.legendre, 2.0 * _gl_nodes(n)[0] - 1.0
    # Legendre integrals from -1 to each node, over the Legendre values there
    ints, vals = leg.legval(y, leg.legint(np.eye(n), lbnd=-1.0)).T, leg.legvander(y, n - 1)
    s = 0.5 * ints @ np.linalg.inv(vals)
    s.flags.writeable = False
    return s


def _u_panels(t: float, graded_panels: int) -> np.ndarray:
    """Panel edges of Lambda(t) on [0, t], ascending from 0:
    ``graded_panels`` graded panels below u0 = min(_GRADED_START, t/2),
    regular edges at u0 + k*_PANEL_WIDTH below t, and t."""
    u0 = min(_GRADED_START, 0.5 * t)
    graded = [u0]
    for _ in range(graded_panels):
        graded.append(graded[-1] * _GRADED_RATIO)
    regular = u0 + _PANEL_WIDTH * np.arange(1, int((t - u0) / _PANEL_WIDTH) + 2)
    return np.concatenate(([0.0], graded[::-1], regular[regular < t], [t]))


def _forward(table: ExpTable, kernels, edges: np.ndarray, n: int, c=None, d=None):
    """C (dim x dim) and D (dim x 2) of every bath kernel at every edge of
    every chain (a row of ``edges``, or a 1-D ``edges`` alone), stacked as
    (kernels, *chains, edges, dim, dim) and (..., dim, 2), from c and d at
    the first edges (zero if None), with one n-node panel between edges.
    Every step is elementwise or a matmul stacked over the kernels and
    chains, so each gets the same bits alone as in a stack."""
    x, w = _gl_nodes(n)
    shape = edges.shape[:-1]
    edges = edges.reshape(-1, edges.shape[-1])
    lo, width = edges[:, :-1, None], (edges[:, 1:] - edges[:, :-1])[..., None]
    s = lo + width * x  # (chains, panels, n)
    (chains, panels), nodes, k = s.shape[:2], s.size, len(kernels)
    noise = table.gen.noise_map[:, 1:3]
    dim = noise.shape[0]
    e = table.exp(np.concatenate((s.ravel(), (edges[:, 1:, None] - s).ravel(), width.ravel())))
    e_bs, e_h = e[nodes : 2 * nodes], e[2 * nodes :].reshape(chains, panels, dim, dim)
    # e^{Fs} N and e^{F(b-s)} N at the nodes, flattened, in one matrix product
    e_sn, e_bsn = (e[: 2 * nodes].reshape(-1, dim) @ noise).reshape(2, chains, panels, n, 2 * dim)

    # e^{Fr} N nu(r) at the nodes, and D at the edges and nodes
    nu = np.array([noise_autocorrelation(s.ravel(), kernel) for kernel in kernels])
    g = nu.reshape(k, chains, panels, n, 1) * e_sn
    start = (np.zeros((k, chains, dim, 2)) if d is None else d).reshape(k, chains, 1, 2 * dim)
    d_edges = np.concatenate((start, width * (w @ g)), axis=2).cumsum(axis=2)
    d_nodes = d_edges[:, :, :-1, None] + width[..., None] * (_integration_matrix(n) @ g)

    # the panel integrals sum_i w_i h e^{F(b-s_i)} N D(s_i)^T e^{F^T(b-s_i)}, symmetrized
    left = ((width * w)[..., None] * e_bsn).reshape(chains, panels, n, dim, 2)
    right = (e_bs @ d_nodes.reshape(k, nodes, dim, 2)).reshape(k, chains, panels, n, dim, 2)
    q = (left.transpose(0, 1, 3, 2, 4).reshape(chains, panels, dim, 2 * n)
         @ right.swapaxes(-1, -2).reshape(k, chains, panels, 2 * n, dim))
    q += q.swapaxes(-1, -2)

    c_edges = [np.zeros((k, chains, dim, dim)) if c is None else c]
    steps = e_h.swapaxes(0, 1), e_h.transpose(1, 0, 3, 2), q.transpose(2, 0, 1, 3, 4)
    for e_i, e_t, q_i in zip(*steps):  # over the panels
        c_edges.append(e_i @ c_edges[-1] @ e_t + q_i)
    return (np.stack(c_edges, axis=2).reshape((k,) + shape + (panels + 1, dim, dim)),
            d_edges.reshape((k,) + shape + (panels + 1, dim, 2)))


def _end_lambda(lam, where, table: ExpTable, kernels, chains: np.ndarray, c=None, d=None):
    """Into ``lam[:, where]``: P C P^T of every kernel at the end of every
    chain (chains, edges) of :func:`_forward`, in passes of at most
    _PASS_NODES kernel-nodes (or one chain of one kernel, if that is more)."""
    unit = (chains.shape[1] - 1) * _PANEL_NODES
    k_step = max(1, min(len(kernels), _PASS_NODES // unit))
    step = max(1, _PASS_NODES // (k_step * unit))
    for i in range(0, len(kernels), k_step):
        for j in range(0, len(chains), step):
            at = slice(i, i + k_step), slice(j, j + step)
            start = [x if x is None else x[at] for x in (c, d)]
            c_end = _forward(table, kernels[at[0]], chains[at[1]], _PANEL_NODES, *start)[0]
            lam[at[0], where[at[1]]] = c_end[:, :, -1, 1:3, 1:3]


def lambda_covariance(table: PropagatorTable, kernels, t) -> np.ndarray:
    """Symmetrized 2x2 covariance of the accumulated pointer noise for every
    bath kernel at a time t, stacked (kernels, 2, 2), or at every time of an
    array t, stacked (kernels, *t.shape, 2, 2); zeros from a table without a
    mesh (eta = 0).  ValueError at the first time that is negative or not
    finite, else at the first past the table; NumericalError if a
    covariance has an eigenvalue below -1e-10 * trace, a quadrature failure,
    not physics."""
    times = np.asarray(t, dtype=float)
    flat = times.ravel()
    if flat.size and not (flat.min() >= 0.0 and flat.max() <= table.t_max):
        bad = flat[~(np.isfinite(flat) & (flat >= 0.0))]
        if bad.size:
            raise ValueError(f"t = {bad[0]} is not a finite time >= 0")
        beyond = flat[flat > table.t_max][0]
        raise ValueError(f"t = {beyond} exceeds the tabulated range {table.t_max}")
    lam = np.zeros((len(kernels), flat.size, 2, 2))
    # Python lists, not array masks: cheaper for the one time of a per-time call
    noisy = flat.tolist() if table.mesh.size else []  # a table without a mesh: eta = 0
    on = [i for i, x in enumerate(noisy) if x >= 2.0 * _GRADED_START]
    below = [i for i, x in enumerate(noisy) if 0.0 < x < 2.0 * _GRADED_START]
    if on:  # one panel from the mesh edge below t
        ends = flat[on]
        edge = np.searchsorted(table.mesh, ends) - 1
        chains = np.stack((table.mesh[edge], ends), axis=1)
        _end_lambda(lam, on, table, kernels, chains, *table.mesh_state(kernels, edge))
    if below:  # 18 scaled panels; where a tiny t merges them, a node is 0
        chains = np.array([_u_panels(noisy[i], _GRADED_PANELS) for i in below])
        _end_lambda(lam, below, table, kernels, chains)
    cov = 0.5 * (lam + lam.swapaxes(-1, -2))
    trace = np.trace(cov, axis1=-2, axis2=-1)
    min_eig = np.linalg.eigvalsh(cov)[..., 0]
    bad = np.flatnonzero(min_eig < -1e-10 * np.maximum(trace, 1e-300))
    if bad.size:
        raise NumericalError(
            f"noise covariance eigenvalue {min_eig.flat[bad[0]]:.3g} below PSD tolerance "
            f"(trace {trace.flat[bad[0]]:.3g}) at t = {flat[bad[0] % flat.size]:.6g}"
        )
    return cov.reshape((len(kernels),) + times.shape + (2, 2))


def xi_matrix(a_inv: np.ndarray, lambda_cov: np.ndarray) -> np.ndarray:
    """Congruence transform Xi^2 = A^-1 <Lambda Lambda^T> A^-T of the checked
    inverse ``a_inv`` (:func:`~pointersim.propagator.checked_inverse`); A^-1
    and Lambda may be stacks (..., 2, 2) that broadcast."""
    return a_inv @ lambda_cov @ np.swapaxes(a_inv, -1, -2)
