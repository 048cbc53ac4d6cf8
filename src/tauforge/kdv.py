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
points (0, 0), (x, 0) of the path (0,0) -> (x,0) -> (x,t).  The branch of
the logarithm is continued along that path; a path point off the big cell,
or a sign change or large phase jump of det T_N between neighbouring path
points, means the path crosses det T_N = 0 and raises
PathCrossesBadCellError.  The paper's contour formula, integrated with
Gauss-Legendre cells, is kept as a cross-check on a few cells
(path_crosscheck).  The solution field is u = -2 dq/dx by 4th-order finite
differences, the scaling in which the family satisfies
4 u_t = u_xxx + 6 u u_x.  All loop-valued work is batched over points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .birkhoff import factorize, factorize_batch, factorize_slogdet
from .loops import (
    DEFAULT_ORDER,
    TAIL_THRESHOLD,
    MatrixLoop,
    ScalarLoop,
    circle_points,
    default_sample_count,
    multiply,
    samples_to_coeffs,
)
from .phase_space import gauge_variation, vacuum_logderiv_gauge
from .quadrature import cumulative_from, refine_path_cells, validated_axes
from .twistor import SpacetimePoint, SymmetryGenerator, decompose

# largest |arg| change of det T_N between neighbouring path points; a real
# det changing sign is a step of pi
MAX_PHASE_STEP = np.pi / 2


class PathCrossesBadCellError(Exception):
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
    loop = MatrixLoop.from_modes(modes, order=order, unimodular=True)
    return KdVSeed(loop, "one-pole", pole=pole, strength=strength)


# -- pullback of the patching data --------------------------------------


def _exp_minus_mu_phi(mu, lam, branch: float = 1.0):
    """(C, mu S) with exp(-mu Phi) = C I - (mu S) Phi at circle points lam.

    C = cosh(sqrt(z)) and S = sinh(sqrt(z))/sqrt(z), z = mu^2 / lam; both
    are even in sqrt(z), and branch flips the square root for testing.
    With sqrt(z) = a + ib, cosh and sinh share cosh a, sinh a, cos b, sin b.
    """
    mu = np.asarray(mu, dtype=complex)
    z = mu * mu / np.asarray(lam, dtype=complex)
    sq = branch * np.sqrt(z)
    ch, sh = np.cosh(sq.real), np.sinh(sq.real)
    cb, sb = np.cos(sq.imag), np.sin(sq.imag)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = (sh * cb + 1j * (ch * sb)) / sq
    small = np.abs(z) < 1e-8
    zs = z[small]
    s[small] = 1.0 + zs / 6.0 + zs * zs / 120.0
    return ch * cb + 1j * (sh * sb), mu * s


def _pullback_values(seed: KdVSeed, v, x, t, order: int):
    """Translated loops on the circle grid of their order, (B, M, 2, 2).

    exp(-mu Phi) P0 = C P0 - (mu S) Phi P0, where Phi P0 is P0 with its
    rows swapped and the new top row divided by lambda.  The stack is
    entry-major, like every sample stack.  Far from the origin cosh
    overflows and inf * 0 gives NaN; such loops are left non-finite, without
    a warning, for the tail-mass check to reject.
    """
    m = default_sample_count(order)
    lam = circle_points(m)
    v = np.atleast_1d(np.asarray(v, dtype=complex))[:, None]
    x = np.atleast_1d(np.asarray(x, dtype=complex))[:, None]
    t = np.atleast_1d(np.asarray(t, dtype=complex))[:, None]
    p0 = np.moveaxis(MatrixLoop.samples(seed.p0, m), -3, -1)  # (2, 2, M)
    phi_p0 = np.stack([p0[1] / lam, p0[0]])
    with np.errstate(over="ignore", invalid="ignore"):
        c, mu_s = _exp_minus_mu_phi(v + lam * x + lam ** 2 * t, lam)
        vals = c[:, None, None] * p0
        vals -= mu_s[:, None, None] * phi_p0
    return np.moveaxis(vals, -1, -3)


def pullback_coeff_batch(seed: KdVSeed, x, t, order: int = DEFAULT_ORDER,
                         tail_tol: float | None = TAIL_THRESHOLD):
    """Coefficients (B, 2N+1, 2, 2) of the translated loops at v = 0."""
    vals = _pullback_values(seed, np.zeros_like(np.atleast_1d(x)), x, t,
                            order)
    return samples_to_coeffs(vals, order, tail_tol)


def pullback_patching(seed: KdVSeed, p: SpacetimePoint,
                      order: int = DEFAULT_ORDER) -> MatrixLoop:
    """Translated patching loop at one space-time point."""
    vals = _pullback_values(seed, p.v, p.x, p.t, order)[0]
    return MatrixLoop.from_samples(vals, order, tail_tol=TAIL_THRESHOLD,
                                   unimodular=True)


# -- direction data and the potential ------------------------------------


def _direction_u(direction: str) -> MatrixLoop:
    """u = h(lambda) Phi(lambda), h the multiplier of the x or t direction."""
    y = {"x": SymmetryGenerator.d_x, "t": SymmetryGenerator.d_t}[direction]()
    h = decompose(y, SymmetryGenerator.d_v()).h
    # h is a polynomial of degree <= 2, held exactly at order 2
    return multiply(ScalarLoop.from_scalar_function(h.eval, order=2),
                    phi_normal_form(order=2))


def _q_of(minus):
    """q = tr(P1 Phi0) = entry (0, 1) of P1, Phi0 = [[0, 0], [1, 0]], where
    P1 is mode -1 of minus factors (..., 2N+1, 2, 2)."""
    return minus[..., (minus.shape[-3] - 3) // 2, 0, 1]


def q_expansion(seed: KdVSeed, p: SpacetimePoint,
                order: int = DEFAULT_ORDER) -> complex:
    """q from the expansion of the negative factor: tr(P1 P0^-1 Phi0)."""
    factors = factorize(pullback_patching(seed, p, order))
    return complex(_q_of(factors.g_minus.coeffs))


def q_contour(seed: KdVSeed, p: SpacetimePoint,
              order: int = DEFAULT_ORDER) -> complex:
    """q as the gauge variation of log tau along u = h Phi, the x direction:
    a route independent of the expansion formula."""
    return vacuum_logderiv_gauge(pullback_patching(seed, p, order),
                                 _direction_u("x"))


# -- finite differences -------------------------------------------------


def _fornberg_weights(offsets, m: int):
    """Weights for the m-th derivative at 0 from the given node offsets.

    Standard recursive construction; exact for polynomials up to the
    stencil degree, giving order len(offsets) - m on smooth data.
    """
    x = np.asarray(offsets, dtype=float)
    n = len(x)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1]
                                    - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _derivative_on_grid(values, spacing, m: int, axis: int):
    """4th-order m-th derivative along one axis, one-sided at the edges."""
    values = np.moveaxis(np.asarray(values), axis, 0)
    npts = values.shape[0]
    width = m + 4  # 4th-order stencil size for odd m
    if width % 2 == 0:
        width += 1
    half = width // 2
    if npts < width:
        raise ValueError(f"need at least {width} nodes along the axis")
    out = np.empty_like(values, dtype=complex)
    central = _fornberg_weights(np.arange(-half, half + 1), m)
    for i in range(npts):
        if i < half:
            offs = np.arange(-i, width - i)
        elif i >= npts - half:
            offs = np.arange(npts - width - i, npts - i)
        else:
            offs = None
        if offs is None:
            w = central
            sl = values[i - half:i + half + 1]
        else:
            w = _fornberg_weights(offs, m)
            sl = values[i + offs[0]:i + offs[-1] + 1]
        out[i] = np.tensordot(w, sl, axes=(0, 0))
    out /= spacing ** m
    return np.moveaxis(out, 0, axis)


# -- the grid pipeline --------------------------------------------------


@dataclass
class TauGrid:
    """Node data on an (x, t) grid at v = 0; arrays indexed [ix, it].

    u carries the solution-field scaling u = -2 dq/dx (see the module
    docstring); q is the log tau derivative itself.  points_factored
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
    bigcell: np.ndarray
    points_factored: int
    factor_residuals: np.ndarray
    min_abs_det: float


def _uniform_spacing(axis, name: str) -> float:
    """Step of an evenly spaced axis; the finite differences assume one."""
    steps = np.diff(axis)
    if np.abs(steps - steps[0]).max() > 1e-6 * abs(steps[0]):
        raise ValueError(f"{name} axis must be evenly spaced")
    return float(steps[0])


def _node_sweep(seed: KdVSeed, x, t, order, factor_tol):
    """Minus factors, big-cell flags, reconstruction residuals and
    (sign, log|det T_N|) at points, from one LU factorization per point."""
    minus, _, residuals, ok, sign, logabs = factorize_slogdet(
        pullback_coeff_batch(seed, x, t, order), tol=factor_tol)
    return minus, ok, residuals, sign, logabs


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
             factor_tol: float = 1e-9) -> TauGrid:
    """log tau, q, u over the grid; see the module docstring for the path."""
    xs, ts = validated_axes(xs, ts)
    dx = _uniform_spacing(xs, "x")
    _uniform_spacing(ts, "t")

    # path points: the t legs (x_i, t) for t in t_breaks, and the origin;
    # the x leg (x, 0) is the t = 0 row of that lattice
    x_breaks = np.union1d(xs, [0.0])
    t_breaks = np.union1d(ts, [0.0])
    gx, gt = np.meshgrid(x_breaks, t_breaks, indexing="ij")
    need = np.isin(gx, xs) | ((gx == 0.0) & (gt == 0.0))
    minus, ok, residuals, sign_n, logabs_n = _node_sweep(
        seed, gx[need], gt[need], order, factor_tol)
    if not ok.all():
        bad = np.argwhere(~ok)[0, 0]
        raise PathCrossesBadCellError(
            f"path point (x, t) = ({gx[need][bad]:.4f}, {gt[need][bad]:.4f}) "
            f"is off the big cell")
    sign = np.ones(gx.shape, dtype=complex)
    logabs = np.zeros(gx.shape)
    q = np.zeros(gx.shape, dtype=complex)
    sign[need], logabs[need] = sign_n, logabs_n
    q[need] = _q_of(minus)

    it0 = np.searchsorted(t_breaks, 0.0)
    cols = np.searchsorted(x_breaks, xs)
    rows = np.searchsorted(t_breaks, ts)
    leg_x = -_leg_increments(sign[:, it0], logabs[:, it0],
                             gx[:, it0], gt[:, it0])
    leg_t = -_leg_increments(sign[cols], logabs[cols], gx[cols], gt[cols])
    log_tau_x = cumulative_from(x_breaks, leg_x[None], 0.0)[0]
    log_tau = (log_tau_x[cols, None]
               + cumulative_from(t_breaks, leg_t, 0.0))[:, rows]

    q = q[np.ix_(cols, rows)]
    u = -2.0 * _derivative_on_grid(q, dx, 1, axis=0)
    # every node is a path point, and a path point off the big cell raised
    bigcell = np.ones(q.shape, dtype=bool)
    return TauGrid(xs=xs, ts=ts, log_tau=log_tau, q=q, u=u, bigcell=bigcell,
                   points_factored=int(need.sum()), factor_residuals=residuals,
                   min_abs_det=float(np.exp(logabs_n.min())))


def path_crosscheck(seed: KdVSeed, grid: TauGrid, order: int = DEFAULT_ORDER,
                    tol_path: float = 1e-7, factor_tol: float = 1e-9):
    """Delta log tau of the grid against the paper's contour formula.

    On a fixed sub-sample of cells, the change of grid.log_tau across a
    cell is compared with the integral of -(1/2 pi i) contour
    tr(dg_minus g_minus^-1 u) dlambda along it, refined to tol_path: the
    cells between neighbouring t nodes on the x columns at both ends and
    nearest 0, and for each of these columns the x cell next to it, on the
    side of x = 0, in the row nearest t = 0 (the x leg itself when t = 0
    is a node).  Returns the worst per-cell difference and the Gauss
    levels of the (x, t) cells.
    """
    xs, ts = grid.xs, grid.ts
    m = default_sample_count(order)
    u_dir = {d: _direction_u(d).samples(m) for d in ("x", "t")}

    def variation(direction, xpts, tpts):
        minus, _, _, good = factorize_batch(
            pullback_coeff_batch(seed, xpts, tpts, order), tol=factor_tol)
        if not good.all():
            bad = np.argwhere(~good)[0, 0]
            raise PathCrossesBadCellError(
                f"integration path left the big cell near "
                f"(x, t) = ({xpts[bad]:.4f}, {tpts[bad]:.4f})")
        return gauge_variation(minus, u_dir[direction])

    ix0 = int(np.argmin(np.abs(xs)))
    it0 = int(np.argmin(np.abs(ts)))
    cols = np.unique([0, ix0, len(xs) - 1])
    lefts = np.unique(np.where(cols > ix0, cols - 1,
                               np.minimum(cols, len(xs) - 2)))

    t_cells = np.column_stack([ts[:-1], ts[1:]])
    vals_t, level_t, _ = refine_path_cells(
        lambda pts, c: variation("t", xs[cols][c], pts),
        t_cells, len(cols), tol_path)
    x_cells = np.column_stack([xs[lefts], xs[lefts + 1]])
    vals_x, level_x, _ = refine_path_cells(
        lambda pts, c: variation("x", pts, np.full_like(pts, ts[it0])),
        x_cells, 1, tol_path)

    det_t = np.diff(grid.log_tau[cols], axis=1)
    det_x = grid.log_tau[lefts + 1, it0] - grid.log_tau[lefts, it0]
    worst = max(np.abs(det_t - vals_t).max(), np.abs(det_x - vals_x[0]).max())
    return float(worst), (level_x, level_t)


def kdv_residual(grid: TauGrid) -> float:
    """max |4 u_t - u_xxx - 6 u u_x| over interior nodes, 4th order.

    The interior excludes a 5-node margin in x: u itself is a finite
    difference of q, one-sided within 2 nodes of the x edges, and the
    third-derivative stencil must not read those values or the edge
    error is amplified by 1/dx^3 and the residual drops to first order.
    """
    u = grid.u
    nx, nt = u.shape
    if nx < 11 or nt < 7:
        raise ValueError("residual needs at least 11 x and 7 t nodes")
    dx = _uniform_spacing(grid.xs, "x")
    dt = _uniform_spacing(grid.ts, "t")
    cw1 = _fornberg_weights(np.arange(-2, 3), 1)
    cw3 = _fornberg_weights(np.arange(-3, 4), 3)

    # rows 5 .. nx-6 keep every stencil read inside centrally computed u
    u_x = sum(w * u[3 + k:nx - 7 + k, 2:-2] for k, w in enumerate(cw1)) / dx
    u_xxx = sum(w * u[2 + k:nx - 8 + k, 2:-2]
                for k, w in enumerate(cw3)) / dx ** 3
    u_t = sum(w * u[5:-5, k:nt - 4 + k] for k, w in enumerate(cw1)) / dt
    mid = u[5:-5, 2:-2]
    residual = 4 * u_t - u_xxx - 6 * mid * u_x
    return float(np.abs(residual).max())
