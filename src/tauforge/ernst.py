"""Ernst pipeline: Weyl-class metrics, d log tau in closed form, tau fields.

A solution is carried as the analytic first and second derivatives of an
axisymmetric potential psi(r, z); the induced metric block is

    J(r, z) = diag(r e^psi, -r e^{-psi}),        det J = -r^2.

The field equations reduce to harmonicity of psi, and the log tau
derivatives are closed-form expressions in the first derivatives of J:

    d/dwbar log tau = -(i r / 2) tr((J^-1 dJ/dwbar)^2),
    d/dw    log tau = +(i r / 2) tr((J^-1 dJ/dw)^2),

with w = z + i r, summed by hand into the real r and z components
_d_r_logtau and _d_z_logtau, which dlogtau recombines.  residue_check
re-derives the trace squares through the rational frame coefficient of
the rotational symmetry: the contour integral collapses to the residue at
the frame pole, and the Lax substitution replaces the frame derivative
with r J^-1 dJ, so both routes must agree to roundoff.  logtau_field
integrates the 1-form from the base point (r, z) = (1, 0) on one path, r
first, by one refine_path_cells pass along r (also on the grid's bottom
and top rows, for the loop around the grid) and one along z.  Each pass
evaluates its integrand once per Gauss rule, on the rule's nodes along
the leg broadcast against the column of fixed coordinates, and sums the
cells in real long double.  The 1-form is d((1/2) log r + G) with
G_r = (r/2)(psi_r^2 - psi_z^2), G_z = r psi_r psi_z: Weyl's line integral
for gamma = G/2 at psi = 2U.  Each preset carries G in closed form, and
conformal_factor_check holds log tau to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import cumulative_from, refine_path_cells, validated_axes
from .twistor import ernst_frame

BASE_POINT = (1.0, 0.0)
# default tolerance of both path legs
PATH_TOL = 1e-9
# s in d = (d_z + s d_r) / 2 for each direction, as w = z + i r
_DIRECTION_SIGN = {"wbar": 1j, "w": -1j}


@dataclass(frozen=True)
class ErnstSolution:
    """Weyl potential psi by its analytic derivatives: first(r, z) gives
    (psi_r, psi_z) and second(r, z) gives (psi_rr, psi_zz); weyl(r, z)
    gives the closed-form G of log tau = (1/2) log r + G.  Each is
    broadcast to the shape of (r, z); see the module docstring."""

    label: str
    first: Callable
    second: Callable
    weyl: Callable


def _radial(fn):
    """Derivative pair (fn(r), 0) of a potential of r alone, broadcast to
    the shape of (r, z)."""

    def pair(r, z):
        zero = np.zeros(np.broadcast(np.asarray(r), np.asarray(z)).shape)
        return fn(r) + zero, zero

    return pair


def _radial_value(fn):
    """fn(r) of r alone, broadcast to the shape of (r, z)."""
    pair = _radial(fn)
    return lambda r, z: pair(r, z)[0]


_ZERO_PAIR = _radial(lambda r: 0.0)


def flat() -> ErnstSolution:
    return ErnstSolution("flat", _ZERO_PAIR, _ZERO_PAIR,
                         _radial_value(lambda r: 0.0))


def kasner(a: float = 0.7) -> ErnstSolution:
    """psi = a log r; harmonic for every a.  G = (a^2 / 2) log r."""
    return ErnstSolution(f"kasner({a:g})", _radial(lambda r: a / r),
                         _radial(lambda r: -a / r ** 2),
                         _radial_value(lambda r: 0.5 * a * a * np.log(r)))


def point_source(strength: float = 0.8, z0: float = -1.5) -> ErnstSolution:
    """psi = strength / R, R = sqrt(r^2 + (z - z0)^2), the axis monopole;
    G = -strength^2 r^2 / (4 R^4), Curzon's."""

    def first(r, z):
        rad = np.sqrt(r ** 2 + (z - z0) ** 2)
        return -strength * r / rad ** 3, -strength * (z - z0) / rad ** 3

    def second(r, z):
        rad = np.sqrt(r ** 2 + (z - z0) ** 2)
        return (strength * (3 * r ** 2 / rad ** 5 - 1.0 / rad ** 3),
                strength * (3 * (z - z0) ** 2 / rad ** 5 - 1.0 / rad ** 3))

    def weyl(r, z):
        rad2 = r ** 2 + (z - z0) ** 2
        return -strength ** 2 * r ** 2 / (4 * rad2 ** 2)

    return ErnstSolution(f"point_source({strength:g})", first, second, weyl)


def non_solution() -> ErnstSolution:
    """psi = r, deliberately non-harmonic, yet G = r^2 / 4 exists."""
    return ErnstSolution("non_solution", _radial(lambda r: 1.0), _ZERO_PAIR,
                         _radial_value(lambda r: 0.25 * r ** 2))


# -- pointwise evaluations ----------------------------------------------


def field_residual(sol: ErnstSolution, r, z) -> float:
    """Norm of (1/r) d_r(r J^-1 d_r J) + d_z(J^-1 d_z J).

    For diagonal J the matrix is diag(L, -L) with L the axisymmetric
    Laplacian of psi; the entries are assembled from the analytic
    derivatives without cancelling terms by hand.
    """
    pr, _ = sol.first(r, z)
    prr, pzz = sol.second(r, z)
    lap = np.asarray(prr + pr / np.asarray(r) + pzz)
    mat = np.zeros(lap.shape + (2, 2))
    mat[..., 0, 0] = lap
    mat[..., 1, 1] = -lap
    return float(np.linalg.norm(mat)) if lap.ndim == 0 else \
        np.linalg.norm(mat, axis=(-2, -1))


# the Wirtinger pair summed by hand (its trace squares are
# (psi_z^2 - psi_r^2 - 1/r^2)/2 -+ i psi_r psi_z): psi_r, psi_z once, real
def _d_r_logtau(sol, r, z):
    """i (d/dw - d/dwbar) log tau = (r/2) (psi_r^2 - psi_z^2) + 1/(2 r)."""
    r = np.asarray(r, dtype=float)
    pr, pz = sol.first(r, z)
    return 0.5 * r * (pr * pr - pz * pz) + 0.5 / r


def _d_z_logtau(sol, r, z):
    """(d/dw + d/dwbar) log tau = r psi_r psi_z."""
    r = np.asarray(r, dtype=float)
    pr, pz = sol.first(r, z)
    return r * pr * pz


def dlogtau(sol: ErnstSolution, r, z, direction: str = "wbar"):
    """Closed-form d log tau in the w or wbar direction, (d_z -+ i d_r)/2."""
    if direction not in _DIRECTION_SIGN:
        raise ValueError("direction must be 'w' or 'wbar'")
    val = 0.5 * (_d_z_logtau(sol, r, z)
                 + _DIRECTION_SIGN[direction] * _d_r_logtau(sol, r, z))
    return complex(val) if val.ndim == 0 else val


def _trace_square(sol: ErnstSolution, r, z, direction: str):
    """tr((J^-1 dJ)^2) for d = d/dw or d/dwbar at (r, z)."""
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    pr, pz = sol.first(r, z)
    s = _DIRECTION_SIGN[direction]
    # diagonal entries of J^-1 dJ = d log(diagonal)
    d_top = 0.5 * (pz + s * (1.0 / r + pr))
    d_bot = 0.5 * (-pz + s * (1.0 / r - pr))
    return d_top ** 2 + d_bot ** 2


def residue_check(sol: ErnstSolution, r, z) -> float:
    """Worst route mismatch between dlogtau and the explicit residue.

    r is a scalar radius and z a scalar or an array of heights.

    The contour form of the variation carries the rational frame
    coefficient; its only singularity in the relevant region is the
    simple frame pole, so the integral is 2 pi i times one residue.  The
    Lax substitution turns the frame derivative into r J^-1 dJ, whose
    conjugation-invariant trace square drops the unknown frame factor.
    """
    worst = 0.0
    for direction in ("wbar", "w"):
        direct = dlogtau(sol, r, z, direction)
        coeff, pole = ernst_frame(float(r), direction)
        res = coeff.residue(pole)
        route = (1j / (4 * np.pi)) * (2j * np.pi) * res \
            * float(r) ** 2 * _trace_square(sol, r, z, direction)
        worst = max(worst, float(np.max(np.abs(direct - route))))
    return worst


# -- path-integrated fields ---------------------------------------------


@dataclass
class ErnstTauField:
    """Grid data over (r, z); arrays indexed [ir, iz]; log_tau real.

    log_tau integrates d log tau from the base point first in r at z = 0,
    then in z; edges (2, n_r) holds the r leg along the bottom and top
    rows.  levels and final_change hold, per path leg ("r", "z"), the
    Gauss level reached and the worst per-cell difference of its two rules.
    """

    r: np.ndarray
    z: np.ndarray
    log_tau: np.ndarray
    edges: np.ndarray
    dlogtau_w: np.ndarray
    levels: dict
    final_change: dict


def _leg(sol: ErnstSolution, along: str, nodes, anchor: float, fixed,
         tol: float):
    """Antiderivative of d log tau along r or z from anchor, at the nodes.

    Column j holds the other coordinate at fixed[j]; each interval between
    nodes is one cell of refine_path_cells.  The integrand takes a rule's
    nodes along the leg, shape (m,), and the column indices, shape
    (len(fixed), 1), so fixed[cols] broadcasts against the nodes into the
    (len(fixed), m) values of every column at once.  Returns (real values
    (len(fixed), len(nodes)), achieved level, final change).
    """
    fixed = np.asarray(fixed, dtype=float)
    if along == "r":
        def integrand(pts, cols):
            return _d_r_logtau(sol, pts, fixed[cols])
    else:
        def integrand(pts, cols):
            return _d_z_logtau(sol, fixed[cols], pts)
    breaks = np.union1d(nodes, [anchor])
    cells = np.column_stack([breaks[:-1], breaks[1:]])
    vals, level, change = refine_path_cells(integrand, cells, len(fixed), tol)
    cum = cumulative_from(breaks, vals, anchor)
    return cum[:, np.searchsorted(breaks, nodes)], level, change


def logtau_field(sol: ErnstSolution, rs, zs,
                 tol_path: float = PATH_TOL) -> ErnstTauField:
    """Path-integrate d log tau from (1, 0), r first; the r leg runs at
    z = 0, zs[0] and zs[-1], the z leg at every grid r."""
    rs, zs = validated_axes(rs, zs)
    if rs[0] <= 0:
        raise ValueError("grid must stay in the r > 0 half plane")
    r0, z0 = BASE_POINT
    cum_r, level_r, change_r = _leg(sol, "r", rs, r0, [z0, zs[0], zs[-1]],
                                    tol_path)
    cum_z, level_z, change_z = _leg(sol, "z", zs, z0, rs, tol_path)

    r, z = np.meshgrid(rs, zs, indexing="ij")
    return ErnstTauField(
        r=r, z=z,
        log_tau=cum_r[0][:, None] + cum_z, edges=cum_r[1:],
        dlogtau_w=dlogtau(sol, r, z, "w"),
        levels={"r": level_r, "z": level_z},
        final_change={"r": change_r, "z": change_z})


def rectangle_loop_integral(field: ErnstTauField) -> complex:
    """Counterclockwise loop integral of d log tau around field's grid.

    The bottom and top rows are the r leg's edges; the left and right
    columns are log_tau's, which changes along z at fixed r only by the
    z leg.  Closed for genuine solutions.
    """
    (bottom, top), lt = field.edges, field.log_tau
    return complex((bottom[-1] - bottom[0]) + (lt[-1, -1] - lt[-1, 0])
                   - (top[-1] - top[0]) - (lt[0, -1] - lt[0, 0]))


# -- conformal factor ----------------------------------------------------


def conformal_factor_check(sol: ErnstSolution, field: ErnstTauField) -> float:
    """Worst |log tau - ((1/2) log r + G)| over the nodes of
    field = logtau_field(sol, rs, zs), with G = sol.weyl normalized to 0
    at the base point as log tau is."""
    def closed(r, z):
        return 0.5 * np.log(r) + sol.weyl(r, z)

    exact = closed(field.r, field.z) - closed(*BASE_POINT)
    return float(np.abs(field.log_tau - exact).max())
