"""KdV pipeline: seed data to tau-function grids and a PDE residual.

A seed is a symmetry matrix in exact normal form together with an initial
patching loop P0.  Space-time translation acts on the patching data by

    P(mu, lambda) = exp(-mu Phi) P(0, lambda),      mu = v + lambda x + lambda^2 t,

and the Birkhoff factorization of the translated loop yields both the
potential q (from the expansion of the negative factor) and d log tau
(from the contour formulas), two routes that the tests compare.  Since
Phi^2 = (1/lambda) I, the exponential has the closed branch-free form

    exp(-mu Phi) = C(z) I - mu S(z) Phi,        z = mu^2 / lambda,

with C = cosh(sqrt(z)) and S = sinh(sqrt(z))/sqrt(z) both entire in z.

Grids are swept at v = 0.  log tau is the Segal-Wilson determinant

    log tau(x, t) = -(log det T_N(x, t) - log det T_N(0, 0)),

T_N the block-Toeplitz system matrix of the factorization, so every point
is pulled back and factored once: the grid nodes, which carry q, and the
points (0, 0), (x, 0) of the path (0,0) -> (x,0) -> (x,t).  A real P0
gives loops with real coefficients: they are sampled on the upper half
circle and factored in real arithmetic, so log tau is real; complex seeds
stay complex.  The branch of the logarithm is continued along that path;
a path point off the big cell, or a sign change or large phase jump of
det T_N between neighbouring path points, means the path crosses
det T_N = 0 and raises PathCrossesBadCellError.  The paper's contour
formula, evaluated on the nodes' minus factors and integrated with an
interpolatory cell rule, is kept as a cross-check on a few cells
(path_crosscheck).  The solution
field is u = -2 dq/dx by 4th-order finite differences (quadrature's
stencils, as for every derivative on the grid), the scaling in which the
family satisfies 4 u_t = u_xxx + 6 u u_x; kdv_residual's stencils set the
grid minimum MIN_NODES, which the CLI reads.  All loop-valued work is
batched over points; the node sweep streams them through the pullback and
the factorization one block at a time, so its memory grows with the grid
only by what each point keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# unused factorize_batch, refine_path_cells: benchmark/tracing.py patches them
from .birkhoff import (
    FACTOR_TOL,
    BigCellError,
    factorize_batch,
    factorize_slogdet,
)
from .loops import (
    DEFAULT_ORDER,
    TAIL_THRESHOLD,
    MatrixLoop,
    TailMassError,
    _stream_blocks,
    circle_points,
    cosh_sinhc,
    default_sample_count,
    multiply,
)
from .phase_space import gauge_variation
from .quadrature import (
    cell_weights,
    cumulative_from,
    derivative,
    derivative_width,
    even_step,
    refine_path_cells,
    validated_axes,
)
from .twistor import SymmetryGenerator, decompose

# nodes of the polynomial behind each cell integral of path_crosscheck
CELL_RULE_POINTS = 8
# default bound on path_crosscheck's worst per-cell difference
CROSSCHECK_TOL = 1e-7

# kdv_residual's margin of x nodes: u is one-sided within
# derivative_width(1) // 2 nodes of the x edges, and the u_xxx stencil must
# not read those values or the edge error is amplified by 1/dx^3 and the
# residual drops to first order
X_MARGIN = derivative_width(1) // 2 + derivative_width(3) // 2

# fewest (x, t) nodes of a kdv grid: one x row inside X_MARGIN, and in t
# the count every residual pipeline takes
MIN_NODES = (2 * X_MARGIN + 1, 7)

# largest |arg| change of det T_N between neighbouring path points; a real
# det changing sign is a step of pi
MAX_PHASE_STEP = np.pi / 2


class PathCrossesBadCellError(BigCellError):
    """A point of the log tau path is off the big cell, or the path
    crosses det T_N = 0 between two of its points."""


def phi_normal_form(order: int = 1) -> MatrixLoop:
    """[[0, 1/lambda], [1, 0]]; squares to (1/lambda) identity."""
    return MatrixLoop.from_modes(
        {0: [[0.0, 0.0], [1.0, 0.0]], -1: [[0.0, 1.0], [0.0, 0.0]]},
        order=max(order, 1))


@dataclass(frozen=True)
class KdVSeed:
    """Initial patching loop plus bookkeeping for manifests."""

    p0: MatrixLoop
    label: str
    pole: complex | None = None
    strength: float | None = None


def seed_vacuum(order: int = DEFAULT_ORDER) -> KdVSeed:
    return KdVSeed(MatrixLoop.identity(order=order), "vacuum")


def seed_one_pole(pole: float = 0.25, strength: float = 0.3,
                  order: int = DEFAULT_ORDER) -> KdVSeed:
    """P0 = I + (strength/(lambda - pole)) n with n rank-one nilpotent.

    det P0 = 1 holds exactly.  The pole sits inside the unit disc so that
    P0 carries negative frequencies; a pole outside the circle would make
    the whole translated family holomorphic over the disc at v = 0 and
    the factorization would stay trivial (vacuum) everywhere.  The
    nilpotent is the lower-triangular one, which keeps the induced field
    bounded on moderate windows; the transposed choice drives the family
    close to non-big-cell points already at small |x|, |t|.
    """
    if not 0 < abs(pole) < 1:
        raise ValueError("pole must lie inside the unit disc (nonzero)")
    ks = np.arange(1, order + 1)
    modes = {0: np.eye(2)}
    n = np.array([[0.0, 0.0], [1.0, 0.0]])
    # 1/(lambda - a) = sum_{k >= 1} a^{k-1} lambda^{-k} for |lambda| > |a|
    for k in ks:
        modes[-int(k)] = strength * pole ** (k - 1) * n
    loop = MatrixLoop.from_modes(modes, order=order)
    return KdVSeed(loop, "one-pole", pole=pole, strength=strength)


# -- pullback of the patching data --------------------------------------


def _exp_minus_mu_phi(mu, lam):
    """(C, mu S) with exp(-mu Phi) = C I - (mu S) Phi at circle points lam.

    (C, S) = cosh_sinhc(z), z = mu^2 / lam.  mu S is written over S: the
    bits of mu * S, without a fresh array in the pullback's peak.
    """
    mu = np.asarray(mu, dtype=complex)
    c, s = cosh_sinhc(mu * mu / np.asarray(lam, dtype=complex))
    return c, np.multiply(mu, s, out=s)


def _pullback_values(seed: KdVSeed, x, t, order: int, half=False):
    """Translated loops at v = 0 on the circle grid of the larger of their
    order and P0's, which holds every mode of P0, (B, M, 2, 2), or with
    half only at its M/2 + 1 points on the upper half circle.

    exp(-mu Phi) P0 = C P0 - (mu S) Phi P0, where Phi P0 is P0 with its
    rows swapped and the new top row divided by lambda.  The stack is
    entry-major, like every sample stack.  Far from the origin cosh
    overflows and inf * 0 gives NaN; such loops are left non-finite, without
    a warning, for the tail-mass check to reject.
    """
    m = default_sample_count(max(order, seed.p0.order))
    keep = m // 2 + 1 if half else m
    lam = circle_points(m)[:keep]
    x = np.atleast_1d(np.asarray(x, dtype=complex))[:, None]
    t = np.atleast_1d(np.asarray(t, dtype=complex))[:, None]
    p0 = np.moveaxis(seed.p0.samples(m), -3, -1)[..., :keep]
    phi_p0 = np.stack([p0[1] / lam, p0[0]])
    with np.errstate(over="ignore", invalid="ignore"):
        c, mu_s = _exp_minus_mu_phi(lam * x + lam ** 2 * t, lam)
        vals = c[:, None, None] * p0
        vals -= mu_s[:, None, None] * phi_p0
    return np.moveaxis(vals, -1, -3)


def pullback_coeff_batch(seed: KdVSeed, x, t, order: int = DEFAULT_ORDER,
                         tail_tol: float | None = TAIL_THRESHOLD, fn=None):
    """Coefficients (B, 2N+1, 2, 2) of the translated loops at v = 0, or
    with fn, fn's outputs (a tuple of arrays) over them; real P0, x and t
    give real loops, sampled on the upper half circle only.  P0 may be of
    any order: modes -N..N are recovered from the samples, and the tail
    check covers what lies beyond them.

    The points stream through _stream_blocks one block of
    _block_loops(order) at a time: each block is pulled back, transformed
    to coefficients and handed to fn whole, so only fn's outputs and the
    tail fractions outlive it.
    The tail check runs once, over all points, and TailMassError names
    the worst point's index.
    """
    real = (np.isrealobj(x) and np.isrealobj(t)
            and not seed.p0.coeffs.imag.any())
    points = np.stack(np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(t)),
                      axis=-1)
    out = _stream_blocks(
        lambda rows: _pullback_values(seed, rows[:, 0], rows[:, 1], order,
                                      half=real),
        points, order, fn or (lambda coeffs: (coeffs,)), half=real,
        tail_tol=tail_tol)
    return out if fn else out[0]


# -- direction data and the potential ------------------------------------


def _direction_u(direction: str) -> MatrixLoop:
    """u = h(lambda) Phi(lambda), h the multiplier of the x or t direction."""
    y = {"x": SymmetryGenerator.d_x, "t": SymmetryGenerator.d_t}[direction]()
    h = decompose(y, SymmetryGenerator.d_v()).h
    # h is a polynomial of degree <= 2, held exactly at order 2 as a 1x1 loop
    lam = circle_points(default_sample_count(2))
    h_loop = MatrixLoop.from_samples(h.eval(lam)[:, None, None], 2,
                                     tail_tol=TAIL_THRESHOLD)
    return multiply(h_loop, phi_normal_form(order=2))


def _q_of(minus):
    """q = tr(P1 Phi0) = entry (0, 1) of P1, Phi0 = [[0, 0], [1, 0]], where
    P1 is mode -1 of minus factors (..., 2N+1, 2, 2)."""
    return minus[..., (minus.shape[-3] - 3) // 2, 0, 1]


# -- the grid pipeline --------------------------------------------------


@dataclass
class TauGrid:
    """Node data on an (x, t) grid at v = 0; arrays indexed [ix, it].

    u carries the solution-field scaling u = -2 dq/dx (see the module
    docstring); q is the log tau derivative itself, read from minus, the
    nodes' minus factors (nx, nt, 2N+1, 2, 2).  points_factored
    counts the distinct points pulled back and factored, and
    factor_residuals holds their reconstruction residuals; min_abs_det is
    the smallest |det T_N| among them, the margin of the path to the
    bad-cell boundary det T_N = 0.
    """

    xs: np.ndarray
    ts: np.ndarray
    log_tau: np.ndarray
    q: np.ndarray
    u: np.ndarray
    minus: np.ndarray
    points_factored: int
    factor_residuals: np.ndarray
    min_abs_det: float


def _node_sweep(seed: KdVSeed, x, t, order, factor_tol):
    """Minus factors, big-cell flags, reconstruction residuals and
    (sign, log|det T_N|) at points, from one LU factorization per point.
    The points stream through pullback_coeff_batch block by block, so no
    block's samples or plus factors outlive it.  A pullback's
    TailMassError is raised again naming its point (x, t)."""
    def factor(coeffs):
        minus, _, residuals, ok, sign, logabs = factorize_slogdet(
            coeffs, tol=factor_tol)
        return minus, ok, residuals, sign, logabs

    try:
        # fn goes by position: benchmark/tracing.py wraps this function in
        # Tracer.call(name, fn, *args, **kwargs), whose fn takes a keyword
        return pullback_coeff_batch(seed, x, t, order, TAIL_THRESHOLD,
                                    factor)
    except TailMassError as err:
        where = f"at (x, t) = ({x[err.loop]:.4f}, {t[err.loop]:.4f})"
        raise TailMassError(err.what, err.mass, err.tol, err.loop,
                            where) from None


def _leg_increments(sign, logabs, x, t):
    """Change of log det T_N between neighbouring points along the last axis.

    The branch is continued one step at a time.  A phase step larger than
    MAX_PHASE_STEP cannot be told apart from passing through det T_N = 0
    and raises PathCrossesBadCellError.
    """
    step = np.angle(sign[..., 1:] / sign[..., :-1])
    bad = ~(np.abs(step) <= MAX_PHASE_STEP)
    if bad.any():
        i = tuple(np.argwhere(bad)[0])
        j = i[:-1] + (i[-1] + 1,)
        raise PathCrossesBadCellError(
            f"det T_N turns by {step[i]:.3f} rad between (x, t) = "
            f"({x[i]:.4f}, {t[i]:.4f}) and ({x[j]:.4f}, {t[j]:.4f}): the "
            f"path crosses det T_N = 0")
    return logabs[..., 1:] - logabs[..., :-1] + 1j * step


def tau_grid(seed: KdVSeed, xs, ts, order: int = DEFAULT_ORDER,
             factor_tol: float = FACTOR_TOL) -> TauGrid:
    """log tau, q, u over the grid; see the module docstring for the path."""
    xs, ts = validated_axes(xs, ts)
    # u's stencil is checked before any point is factored
    even_step(xs, "x", derivative_width(1))
    even_step(ts, "t")

    # path points: the t legs (x_i, t) for t in t_breaks, and the origin;
    # the x leg (x, 0) is the t = 0 row of that lattice.  The sweep takes
    # the grid nodes first, in (ix, it) order, so their minus factors are
    # the head of its stack, then the other path points in lattice order
    x_breaks = np.union1d(xs, [0.0])
    t_breaks = np.union1d(ts, [0.0])
    cols = np.searchsorted(x_breaks, xs)
    rows = np.searchsorted(t_breaks, ts)
    gx, gt = np.meshgrid(x_breaks, t_breaks, indexing="ij")
    nodes = np.ravel_multi_index(np.ix_(cols, rows), gx.shape).ravel()
    extra = np.isin(gx, xs) | ((gx == 0.0) & (gt == 0.0))
    extra.flat[nodes] = False
    at = np.concatenate([nodes, np.flatnonzero(extra)])
    minus, ok, residuals, sign_n, logabs_n = _node_sweep(
        seed, gx.flat[at], gt.flat[at], order, factor_tol)
    if not ok.all():
        bad = at[~ok].min()  # the first in lattice order
        raise PathCrossesBadCellError(
            f"path point (x, t) = ({gx.flat[bad]:.4f}, {gt.flat[bad]:.4f}) "
            f"is off the big cell")
    sign = np.ones(gx.shape, dtype=complex)
    logabs = np.zeros(gx.shape)
    sign.flat[at], logabs.flat[at] = sign_n, logabs_n

    it0 = np.searchsorted(t_breaks, 0.0)
    leg_x = -_leg_increments(sign[:, it0], logabs[:, it0],
                             gx[:, it0], gt[:, it0])
    leg_t = -_leg_increments(sign[cols], logabs[cols], gx[cols], gt[cols])
    log_tau_x = cumulative_from(x_breaks, leg_x[None], 0.0)[0]
    log_tau = (log_tau_x[cols, None]
               + cumulative_from(t_breaks, leg_t, 0.0))[:, rows]

    minus = minus[:cols.size * rows.size].reshape(
        cols.size, rows.size, *minus.shape[1:])
    q = _q_of(minus)
    u = -2.0 * derivative(q, xs, 1)
    return TauGrid(xs=xs, ts=ts, log_tau=log_tau, q=q, u=u, minus=minus,
                   points_factored=len(at), factor_residuals=residuals,
                   min_abs_det=float(np.exp(logabs_n.min())))


def path_crosscheck(grid: TauGrid):
    """Delta log tau of the grid against the paper's contour formula.

    On a fixed sub-sample of cells, the change of grid.log_tau across a
    cell is compared with the integral of -(1/2 pi i) contour
    tr(dg_minus g_minus^-1 u) dlambda along it: the cells between
    neighbouring t nodes on the x columns at both ends and nearest 0, and
    for each of these columns the x cell next to it, on the side of x = 0,
    in the row nearest t = 0 (the x leg itself when t = 0 is a node).  The
    integrand is evaluated on grid.minus at the nodes, and a cell's
    integral is that of the polynomial through the CELL_RULE_POINTS
    nearest nodes on its axis, so no point between nodes is factored.
    Returns the worst per-cell difference and the (x, t) stencil sizes.
    """
    xs, ts = grid.xs, grid.ts
    m = default_sample_count((grid.minus.shape[-3] - 1) // 2)
    ix0 = int(np.argmin(np.abs(xs)))
    it0 = int(np.argmin(np.abs(ts)))
    cols = np.unique([0, ix0, len(xs) - 1])
    lefts = np.unique(np.where(cols > ix0, cols - 1,
                               np.minimum(cols, len(xs) - 2)))

    def rule(axis, cells):
        """The nodes the cells' polynomials read, and the weights on them."""
        weights = cell_weights(axis, cells, CELL_RULE_POINTS)
        used = np.flatnonzero(weights.any(axis=0))
        return used, weights[:, used]

    used, w_t = rule(ts, np.arange(len(ts) - 1))
    vals_t = gauge_variation(grid.minus[np.ix_(cols, used)],
                             _direction_u("t").samples(m)) @ w_t.T
    used, w_x = rule(xs, lefts)
    vals_x = w_x @ gauge_variation(grid.minus[used, it0],
                                   _direction_u("x").samples(m))

    det_t = np.diff(grid.log_tau[cols], axis=1)
    det_x = grid.log_tau[lefts + 1, it0] - grid.log_tau[lefts, it0]
    worst = max(np.abs(det_t - vals_t).max(), np.abs(det_x - vals_x).max())
    return float(worst), tuple(min(CELL_RULE_POINTS, len(axis))
                               for axis in (xs, ts))


def kdv_residual(grid: TauGrid) -> float:
    """max |4 u_t - u_xxx - 6 u u_x| over interior nodes, 4th order.

    The interior excludes X_MARGIN nodes at both x edges, where u or the
    u_xxx stencil is one-sided, and the one-sided u_t nodes at the t edges.
    """
    nx, nt = grid.u.shape
    if nx < MIN_NODES[0] or nt < MIN_NODES[1]:
        raise ValueError(f"residual needs at least {MIN_NODES[0]} x and "
                         f"{MIN_NODES[1]} t nodes")
    t_margin = derivative_width(1) // 2
    inner = np.s_[X_MARGIN:nx - X_MARGIN, t_margin:nt - t_margin]
    u_x = derivative(grid.u, grid.xs, 1)[inner]
    u_xxx = derivative(grid.u, grid.xs, 3)[inner]
    u_t = derivative(grid.u, grid.ts, 1, along=1)[inner]
    residual = 4 * u_t - u_xxx - 6 * grid.u[inner] * u_x
    return float(np.abs(residual).max())
