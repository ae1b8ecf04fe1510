"""Accumulated-noise covariance and the inference-transformed matrix Xi^2.

The bath drives the augmented state through the pointer columns N of the
noise map, so its noise part is x(t) = int_0^t e^{F(t-s)} N xi(s) ds, with
xi the two pointer forces of autocorrelation nu.  Its covariance C(t)
obeys

    dC/dt = F C + C F^T + N D^T + D N^T,   D(t) = int_0^t e^{Fr} N nu(r) dr,

and Lambda(t) = P C(t) P^T, with P the pointer-position rows.  From a to t

    C(t) = e^{F(t-a)} C(a) e^{F^T(t-a)}
           + int_a^t e^{F(t-s)} (N D(s)^T + D(s) N^T) e^{F^T(t-s)} ds,

on panels of n Gauss-Legendre nodes: D at the nodes of a panel from D at
its start and the spectral integration matrix S_ij = int_0^{x_i} l_j(x) dx
of the Lagrange basis l_j on the nodes (Greengard, SIAM J. Numer. Anal.
28:1071, 1991), the integral by the Gauss-Legendre rule.  Only on the mesh
(below) does :func:`_forward` step C panel by panel.

Swapping the two integrals gives the lag form
Lambda(t) = int_0^t du nu(u) P (W(t-u) e^{F^T u} + e^{Fu} W(t-u)) P^T, with
the Gramian W(s) = int_0^s e^{Fr} N N^T e^{F^T r} dr (Van Loan, IEEE TAC
23:395, 1978).  On the same panels both rules sample nu at the same nodes
with the same weights (sum_i w_i S_ij p(x_i) = w_j int_{x_j}^1 p for every
polynomial p of degree < n).  :func:`_end_pass` reads every other Lambda(t)
in this form, as sum_j nu(s_j) z_j + transpose + the start state's part: z_j,
the rule's w_j h P W(t-s_j) e^{F^T s_j} P^T, is free of the temperature and
built once per chain, from the rows P e^{F(t-s)} and e^{Fs} N, for its kernels.

The panels of Lambda(t) are [0, u0/2^h], u0 = min(0.05, t/2), h panels that
double from it to u0, regular panels of width 0.1 with edges at u0 + k*0.1,
and a last, partial one that ends at t.  On the first, nu = A ln u + B with B
smooth, and the Gauss rule takes nu(s_j) + A(s_j) c_j, exact on the logarithm
(product integration: Atkinson, The Numerical Solution of Integral Equations
of the Second Kind, 1997, 4.2); h keeps omega_c*u0/2^h <= 2, past which A ~
cosh(omega_c*u) makes B cancel.  From t = 0.1 on, u0 = 0.05, so every panel
but the last is one of an outer mesh on [0, t_max]: the first time a bath
kernel meets it, one pass gives C and D at its edges, which
:class:`PropagatorTable` keeps per kernel.  Each t >= 0.1 is then one partial
panel from the mesh edge below it, nu afresh on its 10 nodes, and each
smaller t the h + 2 panels scaled to it, from zero.  :func:`lambda_covariance`
stacks these independent chains of all its times and bath kernels into end
passes of at most _PASS_NODES kernel-nodes, with the bits of one call per
time: every kernel at every time or, paired, kernel i at time i, nu of all
the kernels of a pass in one call.  The closed measurement (eta = 0) has no
noise, no mesh: Lambda = 0.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericalError
from .kernels import BathKernel, noise_autocorrelation, nu_log_coefficient
from .propagator import AugmentedGenerator, ExpTable

__all__ = ["PropagatorTable", "lambda_covariance", "xi_matrix"]

#: outer panels: Gauss-Legendre nodes per panel, regular width, and
#: where they start to halve toward the logarithmic singularity of nu at u = 0
_PANEL_NODES = 10
_PANEL_WIDTH = 0.1
_GRADED_START = 0.05
#: most floats the mesh cache of a table may hold over all its bath
#: kernels, dim^2 + 2*dim = 80 per mesh edge and kernel, about
#: 10*t_max + 2 + h edges; the default sweep holds 24,800
_MAX_MESH_NU = 10_000_000
#: most kernel-nodes (bath kernels times panel nodes) in one stacked pass,
#: which bound its work arrays: ten kernels on the 30 mesh panels of t_max = 3
_PASS_NODES = 4_600


class PropagatorTable(ExpTable):
    """The exponential table with the outer mesh of Lambda and, per bath
    kernel, the noise covariance C and the integral D at its edges."""

    def __init__(self, gen: AugmentedGenerator, t_max: float):
        super().__init__(gen, t_max)
        self.halvings = max(0, int(np.ceil(np.log2(0.5 * _GRADED_START * gen.cfg.omega_c))))
        # the edges of every panel of Lambda(t_max) but the last; the closed
        # measurement (eta = 0) has no noise, and no mesh
        self.mesh = _u_panels(t_max, self.halvings)[:-1] if gen.cfg.eta > 0 else np.zeros(0)
        self._cache: dict[BathKernel, np.ndarray] = {}

    def mesh_state(self, kernels, edges) -> tuple[np.ndarray, np.ndarray]:
        """C and D at the mesh edges of index ``edges`` per row of the kernel
        grid (:func:`_kernel_grid`), its kernel j at edge j; passes over the
        whole mesh for the kernels met first.  ConfigError, before any pass,
        when the cache would then hold more than _MAX_MESH_NU floats."""
        grid = _kernel_grid(kernels)
        new = [k for k in dict.fromkeys(grid.ravel()) if k not in self._cache]
        held, dim = len(self._cache) + len(new), self.gen.generator.shape[0]
        size = held * self.mesh.size * (dim * dim + 2 * dim)
        if size > _MAX_MESH_NU:
            raise ConfigError(
                f"the noise covariance of {held} thermal energies on the {self.mesh.size} mesh "
                f"edges of [0, {self.t_max:g}] needs {size:.3g} floats, more than {_MAX_MESH_NU}; "
                "lower sweep.count or t_max"
            )
        step = max(1, _PASS_NODES // ((self.mesh.size - 1) * _PANEL_NODES))
        for first in range(0, len(new), step):  # C and D side by side, (edges, dim, dim + 2)
            c_d = _forward(self, new[first : first + step], self.mesh, _PANEL_NODES)
            self._cache.update(zip(new[first : first + step], np.concatenate(c_d, axis=-1)))
        state = np.array([  # a row of one kernel reads every edge
            self._cache[row[0]][edges] if row.size == 1
            else [self._cache[k][e] for k, e in zip(row, edges)] for row in grid
        ])
        return state[..., :dim], state[..., dim:]


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


@lru_cache(maxsize=None)
def _log_weights(n: int) -> np.ndarray:
    """c_j = omega_j/w_j - ln x_j at the n Gauss-Legendre nodes of [0, 1]: omega_j =
    int_0^1 l_j(v) ln v dv = w_j sum_k (2k+1) P_k(2x_j-1) m_k, the product weights, with
    m_k = int_0^1 P_k(2v-1) ln v dv, -1 at k = 0, else (-1)^(k+1)/(k(k+1))."""
    x, k = _gl_nodes(n)[0], np.arange(1.0, n)
    m = np.append(-1.0, (-1.0) ** (k + 1) / (k * (k + 1))) * (2.0 * np.arange(n) + 1.0)
    c = np.polynomial.legendre.legvander(2.0 * x - 1.0, n - 1) @ m - np.log(x)
    c.flags.writeable = False
    return c


def _nu(nodes: np.ndarray, kernels: list, n: int, first) -> np.ndarray:
    """nu of the kernels, one a row, at ``nodes``; ``first`` picks the nodes of first
    panels [0, a], n a panel, which take nu + A c_j: the same bits in any pass."""
    nu = noise_autocorrelation(nodes, kernels)
    if first is not None:
        at = nodes[:, first]
        nu[:, first] += nu_log_coefficient(at, kernels) * np.resize(_log_weights(n), at.shape[1])
    return nu


def _u_panels(t: float, halvings: int) -> np.ndarray:
    """Panel edges of Lambda(t) on [0, t], ascending from 0: u0 = min(_GRADED_START,
    t/2) over 2^halvings, ..., 2, 1, regular edges at u0 + k*_PANEL_WIDTH below t, and t."""
    u0 = min(_GRADED_START, 0.5 * t)
    regular = u0 + _PANEL_WIDTH * np.arange(1, int((t - u0) / _PANEL_WIDTH) + 2)
    return np.concatenate(([0.0], u0 / 2.0 ** np.arange(halvings, -1, -1), regular[regular < t], [t]))


def _kernel_grid(kernels) -> np.ndarray:
    """Bath kernels against chains: a list, each kernel over every chain, as
    a column (kernels, 1); a row [[k_0, ..., k_m]] pairs kernel j with chain j."""
    grid = np.asarray(kernels, dtype=object)
    return grid[:, None] if grid.ndim == 1 else grid


def _columns(grid: np.ndarray, index) -> np.ndarray:
    """The kernels of the chains ``index`` of a kernel grid."""
    return grid if grid.shape[1] == 1 else grid[:, index]


def _forward(table: ExpTable, kernels, edges: np.ndarray, n: int):
    """C and D of every bath kernel of a list at every edge of ``edges``,
    (kernels, edges, dim, dim) and (..., dim, 2), from zero, with one n-node
    panel between edges: the pass over the mesh.  Each step is elementwise or
    a matmul stacked over the kernels: the same bits alone as in a stack."""
    kernels, noise = _kernel_grid(kernels), table.gen.noise_map[:, 1:3]
    width = np.diff(edges)[None, :, None]
    s = edges[None, :-1, None] + width * _gl_nodes(n)[0]  # (1, panels, n)
    (panels, n), k, nodes, dim = s.shape[1:], len(kernels), s.size, len(noise)
    e = table.exp(np.concatenate((s.ravel(), (edges[1:, None] - s[0]).ravel(), width.ravel())))
    e_bs, e_h = e[nodes : 2 * nodes], e[2 * nodes :]
    # e^{Fs} N and e^{F(b-s)} N at the nodes, flattened, in one matrix product
    e_sn, e_bsn = (e[: 2 * nodes].reshape(-1, dim) @ noise).reshape(2, panels, n, dim, 2)
    # D at the edges and nodes: nu of all the kernels in one call
    nu = _nu(s.reshape(1, -1).repeat(k, axis=0), list(kernels.flat), n, slice(0, n))
    g = nu.reshape(k, 1, panels, n, 1) * e_sn.reshape(1, panels, n, -1)
    ints = width * (_gl_nodes(n)[1] @ g)  # across each panel
    d_edges = np.concatenate((np.zeros_like(ints[:, :, :1]), ints), axis=2).cumsum(axis=2)
    d_nodes = d_edges[:, :, :-1, None] + width[..., None] * (_integration_matrix(n) @ g)
    # the panel integrals sum_i w_i h e^{F(b-s_i)} N D(s_i)^T e^{F^T(b-s_i)}, symmetrized
    left = (width[0] * _gl_nodes(n)[1])[..., None, None] * e_bsn
    right = (e_bs @ d_nodes.reshape(k, nodes, dim, 2)).reshape(k, panels, n, dim, 2)
    q = (left.transpose(0, 2, 1, 3).reshape(panels, dim, 2 * n)
         @ right.swapaxes(-1, -2).reshape(k, panels, 2 * n, dim))
    q += q.swapaxes(-1, -2)
    c_edges = [np.zeros((k, dim, dim))]
    for e_i, q_i in zip(e_h, q.swapaxes(0, 1)):  # over the panels
        c_edges.append(e_i @ c_edges[-1] @ e_i.T + q_i)
    return np.stack(c_edges, axis=1), d_edges.reshape(k, panels + 1, dim, 2)


def _end_pass(table: ExpTable, kernels, edges: np.ndarray, c=None, d=None) -> np.ndarray:
    """P C(t) P^T, unsymmetrized, of every row of a kernel grid at the end t
    of every chain (a row of ``edges``), (rows, chains, 2, 2), from c and d at
    its start a (if None, a = 0), on _PANEL_NODES-node panels: the C that
    :func:`_forward` steps ends, as e^{F(t-b)} e^{F(b-s)} = e^{F(t-s)}, in
    (P e^{F(t-a)}) c (P e^{F(t-a)})^T + sum_i R_i . D(s_i) + transpose, with
    R_i = w_i h (P e^{F(t-s_i)} N) (x) P e^{F(t-s_i)} at the nodes.  D is linear
    in nu: nu(s_j), at node j of panel q, has the 2x2 weight z_j = h_q (sum_i
    S_ij R_i + w_j sum_{i past q} R_i) . e^{F s_j} N, free of the temperature,
    so the kernels of a chain share it: a row is nu at the nodes and d dotted
    with the z_j and sum_i R_i (the same bits alone as in a stack)."""
    width, noise = np.diff(edges)[..., None], table.gen.noise_map[:, 1:3]
    s = edges[:, :-1, None] + width * _gl_nodes(_PANEL_NODES)[0]  # (chains, panels, n)
    (chains, panels, n), k, dim = s.shape, len(kernels), len(noise)
    lag = np.concatenate(((edges[:, -1:, None] - s).ravel(), edges[:, -1] - edges[:, 0]))
    p, e_sn = table.exp_folded(lag, slice(1, 3), s, noise)
    pn = (p[: s.size].reshape(-1, dim) @ noise).reshape(*s.shape, 2, 2)  # P e^{F(t-s_i)} N
    left = ((width * _gl_nodes(n)[1])[..., None, None] * pn).swapaxes(1, 2)  # nodes (i, q)
    # r[:, i, q] = R_i of node i of panel q, as (a, b, f, m); row n sums the panels past q
    r = np.empty((chains, n + 1, panels, 2, 2, 2, dim))
    p_s = p[: s.size].reshape(*s.shape, 2, dim).swapaxes(1, 2)
    np.multiply(left[..., None, :, None], p_s[..., None, :, None, :], out=r[:, :n])
    panel, r[:, n, -1] = r[:, :n].sum(axis=1), 0.0
    np.cumsum(panel[:, :0:-1], axis=1, out=r[:, n, -2::-1])
    weight = (_weights(n) @ r.reshape(chains, n + 1, -1)).reshape(chains, n, panels, 4, 2 * dim)
    e_t = (width[..., None, None] * e_sn).transpose(0, 2, 1, 4, 3).reshape(chains, n, panels, -1)
    z = np.einsum("cjqxy,cjqy->cjqx", weight, e_t).reshape(chains, -1, 4)  # nodes (j, q)
    nodes = s.swapaxes(1, 2).reshape(kernels.shape[1], -1).repeat(k, axis=0)
    first = slice(None, None, panels) if d is None else None  # panel 0 of chains from 0
    nu = _nu(nodes, list(kernels.flat), n, first).reshape(k, chains, 1, -1)
    if d is not None:  # the start state's D, weighed by sum_i R_i
        total = (r[:, n, 0] + panel[:, 0]).transpose(0, 4, 3, 1, 2).reshape(chains, 2 * dim, 4)
        nu, z = np.concatenate((nu, d.reshape(k, chains, 1, -1)), -1), np.concatenate((z, total), 1)
    lam = (nu @ z).reshape(k, chains, 2, 2)
    lam += lam.swapaxes(-1, -2)
    if c is not None:  # the start state's C, carried to t
        lam += p[s.size :] @ c @ p[s.size :].swapaxes(-1, -2)
    return lam


@lru_cache(maxsize=None)
def _weights(n: int) -> np.ndarray:
    """(n, n + 1): row j weighs R_i of its own panel by S_ij, of later ones by w_j."""
    w = np.vstack((_integration_matrix(n), _gl_nodes(n)[1]))
    w.flags.writeable = False
    return w.T


def _end_lambda(lam, where, table: ExpTable, kernels, chains: np.ndarray, c=None, d=None):
    """Into ``lam[:, where]``: P C P^T of every kernel row at the end of
    every chain (chains, edges) of :func:`_end_pass`, in passes of at most
    _PASS_NODES kernel-nodes (or one chain of one kernel, if that is more)."""
    unit = (chains.shape[1] - 1) * _PANEL_NODES
    k_step = max(1, min(len(kernels), _PASS_NODES // unit))
    step = max(1, _PASS_NODES // (k_step * unit))
    for i in range(0, len(kernels), k_step):
        for j in range(0, len(chains), step):
            at = slice(i, i + k_step), slice(j, j + step)
            start = [x if x is None else x[at] for x in (c, d)]
            bath = _columns(kernels[at[0]], at[1])
            lam[at[0], where[at[1]]] = _end_pass(table, bath, chains[at[1]], *start)


def lambda_covariance(table: PropagatorTable, kernels, t) -> np.ndarray:
    """Symmetrized 2x2 covariance of the accumulated pointer noise for every
    bath kernel of a list at a time t, stacked (kernels, 2, 2), or at every
    time of an array t, stacked (kernels, *t.shape, 2, 2); for a row
    [[k_0, ..., k_n]] of one kernel per time, of the pairs alone, (1, *t.shape,
    2, 2).  Zeros from a table without a mesh (eta = 0).  ValueError for a
    row of the wrong length, at the first time that is negative or not
    finite, else at the first past the table; NumericalError if a covariance
    has an eigenvalue below -1e-10 * trace, a quadrature failure, not physics."""
    times = np.asarray(t, dtype=float)
    flat, kernels = times.ravel(), _kernel_grid(kernels)
    if kernels.shape[1] not in (1, flat.size):
        raise ValueError(f"{kernels.shape[1]} paired kernels for {flat.size} times")
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
        bath = _columns(kernels, on)
        _end_lambda(lam, on, table, bath, chains, *table.mesh_state(bath, edge))
    if below:  # halvings + 2 panels scaled to t, from zero
        chains = np.array([_u_panels(noisy[i], table.halvings) for i in below])
        _end_lambda(lam, below, table, _columns(kernels, below), chains)
    cov = 0.5 * (lam + lam.swapaxes(-1, -2))
    trace = cov[..., 0, 0] + cov[..., 1, 1]  # the smaller eigenvalue of each, in closed form
    min_eig = 0.5 * (trace - np.hypot(cov[..., 0, 0] - cov[..., 1, 1], 2.0 * cov[..., 0, 1]))
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
