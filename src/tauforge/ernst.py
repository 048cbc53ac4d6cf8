"""Ernst pipeline: Weyl-class metrics, d log tau in closed form, tau fields.

A solution is carried as an axisymmetric potential psi(r, z) with analytic
first and second derivatives; the induced metric block is

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
integrates the 1-form from the base point (r, z) = (1, 0) by one
refine_path_cells pass along r and one along z, which give both grid
paths, r first and z first; the conformal side and the rectangle loop
are arithmetic on the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import cumulative_from, refine_path_cells, validated_axes
from .twistor import ernst_frame

BASE_POINT = (1.0, 0.0)
# refinement cap of each path leg: at most 512 Gauss nodes per cell, since
# computing n nodes costs O(n^3) and deeper levels would stall a failing run
PATH_MAX_LEVEL = 8
# default tolerance of both path legs
PATH_TOL = 1e-9


@dataclass(frozen=True)
class ErnstSolution:
    """Weyl potential with analytic derivatives; see the module docstring."""

    label: str
    psi: Callable
    psi_r: Callable
    psi_z: Callable
    psi_rr: Callable
    psi_zz: Callable

    def metric_block(self, r, z):
        """J(r, z) as a stacked 2x2 diagonal matrix."""
        r = np.asarray(r, dtype=float)
        p = self.psi(r, np.asarray(z, dtype=float))
        out = np.zeros(np.broadcast(r, p).shape + (2, 2))
        out[..., 0, 0] = r * np.exp(p)
        out[..., 1, 1] = -r * np.exp(-p)
        return out


def _zeros_like_pair(r, z):
    return np.zeros(np.broadcast(np.asarray(r), np.asarray(z)).shape)


def flat() -> ErnstSolution:
    z0 = _zeros_like_pair
    return ErnstSolution("flat", psi=z0, psi_r=z0, psi_z=z0,
                         psi_rr=z0, psi_zz=z0)


def kasner(a: float = 0.7) -> ErnstSolution:
    """psi = a log r; harmonic for every a."""
    return ErnstSolution(
        f"kasner({a:g})",
        psi=lambda r, z: a * np.log(r) + _zeros_like_pair(r, z),
        psi_r=lambda r, z: a / r + _zeros_like_pair(r, z),
        psi_z=_zeros_like_pair,
        psi_rr=lambda r, z: -a / r ** 2 + _zeros_like_pair(r, z),
        psi_zz=_zeros_like_pair)


def point_source(strength: float = 0.8, z0: float = -1.5) -> ErnstSolution:
    """psi = strength / sqrt(r^2 + (z - z0)^2), the axis monopole."""

    def rad(r, z):
        return np.sqrt(r ** 2 + (z - z0) ** 2)

    return ErnstSolution(
        f"point_source({strength:g})",
        psi=lambda r, z: strength / rad(r, z),
        psi_r=lambda r, z: -strength * r / rad(r, z) ** 3,
        psi_z=lambda r, z: -strength * (z - z0) / rad(r, z) ** 3,
        psi_rr=lambda r, z: strength * (3 * r ** 2 / rad(r, z) ** 5
                                        - 1.0 / rad(r, z) ** 3),
        psi_zz=lambda r, z: strength * (3 * (z - z0) ** 2 / rad(r, z) ** 5
                                        - 1.0 / rad(r, z) ** 3))


def non_solution() -> ErnstSolution:
    """psi = r, deliberately non-harmonic; sensitivity control."""
    return ErnstSolution(
        "non_solution",
        psi=lambda r, z: r + _zeros_like_pair(r, z),
        psi_r=lambda r, z: 1.0 + _zeros_like_pair(r, z),
        psi_z=_zeros_like_pair,
        psi_rr=_zeros_like_pair,
        psi_zz=_zeros_like_pair)


# -- pointwise evaluations ----------------------------------------------


def field_residual(sol: ErnstSolution, r, z) -> float:
    """Norm of (1/r) d_r(r J^-1 d_r J) + d_z(J^-1 d_z J).

    For diagonal J the matrix is diag(L, -L) with L the axisymmetric
    Laplacian of psi; the entries are assembled from the analytic
    derivatives without cancelling terms by hand.
    """
    lap = sol.psi_rr(r, z) + sol.psi_r(r, z) / np.asarray(r) + sol.psi_zz(r, z)
    lap = np.asarray(lap)
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
    pr, pz = sol.psi_r(r, z), sol.psi_z(r, z)
    return 0.5 * r * (pr * pr - pz * pz) + 0.5 / r


def _d_z_logtau(sol, r, z):
    """(d/dw + d/dwbar) log tau = r psi_r psi_z."""
    r = np.asarray(r, dtype=float)
    return r * sol.psi_r(r, z) * sol.psi_z(r, z)


def dlogtau(sol: ErnstSolution, r, z, direction: str = "wbar"):
    """Closed-form d log tau in the w or wbar direction, (d_z -+ i d_r)/2."""
    if direction not in ("w", "wbar"):
        raise ValueError("direction must be 'w' or 'wbar'")
    s = {"wbar": 1j, "w": -1j}[direction]
    val = 0.5 * (_d_z_logtau(sol, r, z) + s * _d_r_logtau(sol, r, z))
    return complex(val) if val.ndim == 0 else val


def _trace_square(sol: ErnstSolution, r, z, direction: str):
    """tr((J^-1 dJ)^2) for d = d/dw or d/dwbar at (r, z)."""
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    pr = sol.psi_r(r, z)
    pz = sol.psi_z(r, z)
    s = {"wbar": 1j, "w": -1j}[direction]
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
    then in z; log_tau_z_first first in z at r = 1, then in r.  levels and
    final_change hold, per path leg ("r", "z"), the Gauss level reached
    and the worst per-cell difference of its two rules.
    """

    rs: np.ndarray
    zs: np.ndarray
    log_tau: np.ndarray
    log_tau_z_first: np.ndarray
    dlogtau_w: np.ndarray
    levels: dict
    final_change: dict


def _leg(sol: ErnstSolution, along: str, nodes, anchor: float, fixed,
         tol: float):
    """Antiderivative of d log tau along r or z from anchor, at the nodes.

    Column j holds the other coordinate at fixed[j]; each interval between
    nodes is one cell of refine_path_cells.  Returns (values (len(fixed),
    len(nodes)), achieved level, final change).
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
    vals, level, change = refine_path_cells(
        integrand, cells, len(fixed), tol, max_level=PATH_MAX_LEVEL)
    cum = cumulative_from(breaks, vals, anchor)
    return cum[:, np.searchsorted(breaks, nodes)], level, change


def logtau_field(sol: ErnstSolution, rs, zs,
                 tol_path: float = PATH_TOL) -> ErnstTauField:
    """Path-integrate d log tau from (1, 0), r first and z first; the r leg
    runs at z = 0 and every grid z, the z leg at r = 1 and every grid r."""
    rs, zs = validated_axes(rs, zs)
    if rs[0] <= 0:
        raise ValueError("grid must stay in the r > 0 half plane")
    r0, z0 = BASE_POINT
    cum_r, level_r, change_r = _leg(sol, "r", rs, r0, np.r_[z0, zs], tol_path)
    cum_z, level_z, change_z = _leg(sol, "z", zs, z0, np.r_[r0, rs], tol_path)

    gr, gz = np.meshgrid(rs, zs, indexing="ij")
    return ErnstTauField(
        rs=rs, zs=zs,
        log_tau=(cum_r[0][:, None] + cum_z[1:]).real,
        log_tau_z_first=(cum_z[0] + cum_r[1:].T).real,
        dlogtau_w=dlogtau(sol, gr, gz, "w"),
        levels={"r": level_r, "z": level_z},
        final_change={"r": change_r, "z": change_z})


def rectangle_loop_integral(field: ErnstTauField) -> complex:
    """Loop integral of d log tau around the rectangle of field's grid.

    At each node the two paths of field differ by the loop around the
    rectangle between that node and the base point, so the loop around
    the grid is that difference combined over the four corners.  Closed
    for genuine solutions.
    """
    diff = field.log_tau - field.log_tau_z_first
    return complex(diff[-1, -1] - diff[0, -1] - diff[-1, 0] + diff[0, 0])


# -- conformal factor ----------------------------------------------------


@dataclass
class ConformalFactorReport:
    """Constancy data for the two candidate tau / conformal-factor links."""

    candidate1: np.ndarray
    candidate2: np.ndarray
    candidate1_std: float
    candidate2_std: float
    constant_candidate: str


def conformal_factor_check(field: ErnstTauField) -> ConformalFactorReport:
    """Compare log tau with the conformal factor over field's grid.

    field is logtau_field(sol, rs, zs).  The displayed equation for
    log(r Omega^2) has the same Wirtinger derivatives as log tau, so
    log(r Omega^2), normalized to 0 at the base point, is the 1-form
    integrated along the other path, field.log_tau_z_first.  Candidate
    1 = log tau - log(r Omega^2) is then grid-constant only where the
    1-form is closed between the two paths; candidate 2 = log tau +
    log(r^2 Omega) is reported alongside for comparison.
    """
    log_romega2 = field.log_tau_z_first
    log_r = np.log(field.rs)[:, None]
    candidate1 = field.log_tau - log_romega2
    candidate2 = field.log_tau + 1.5 * log_r + 0.5 * log_romega2
    std1 = float(candidate1.std())
    std2 = float(candidate2.std())
    which = ("log_tau - log(r Omega^2)" if std1 <= std2
             else "log_tau + log(r^2 Omega)")
    return ConformalFactorReport(
        candidate1=candidate1, candidate2=candidate2,
        candidate1_std=std1, candidate2_std=std2,
        constant_candidate=which)
