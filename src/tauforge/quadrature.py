"""Shared path-integration helpers: per-cell Gauss-Legendre integrals and
the antiderivative they add up to.

Integrals along grid paths are computed cell by cell (one cell per output
grid interval) so cumulative sums land exactly on the requested nodes.
Level L integrates every cell and column at once with the Gauss-Legendre
rules of BASE_NODES 2^(L-1) and BASE_NODES 2^L nodes, which lets the
caller batch the expensive integrand evaluations.  The integrands are
analytic on their cells, where Gauss rules converge geometrically, so the
difference of the two rules, about the coarse rule's error, bounds the
finer rule's; iteration stops when the worst per-cell difference drops
below the tolerance.

Where the integrand is known only at evenly spaced nodes,
interpolatory_cell_weights gives each cell the integral of the
polynomial through the nearest nodes instead.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# nodes per cell of the coarse rule at level 1
BASE_NODES = 2


class PathRefinementError(Exception):
    """Refinement hit the level cap before meeting the tolerance."""


def validated_axes(*axes):
    """Grid axes as float arrays; each needs 2+ strictly increasing nodes."""
    axes = [np.asarray(axis, dtype=float) for axis in axes]
    if any(len(axis) < 2 for axis in axes):
        raise ValueError("grid needs at least 2 nodes per axis")
    if not all(np.all(np.diff(axis) > 0) for axis in axes):
        raise ValueError("grid axes must be strictly increasing")
    return axes


def cumulative_from(breaks, cell_values, anchor: float):
    """Antiderivative at the breakpoints, zero at the breakpoint nearest anchor.

    cell_values: (n_cols, n_cells) integrals over consecutive intervals.
    """
    # an extended-precision running sum keeps its rounding off the result
    cum = np.zeros((cell_values.shape[0], len(breaks)), dtype=np.clongdouble)
    cum[:, 1:] = np.cumsum(cell_values, axis=1, dtype=np.clongdouble)
    idx = int(np.argmin(np.abs(breaks - anchor)))
    return (cum - cum[:, idx][:, None]).astype(complex)


def refine_path_cells(eval_fn, cells, n_cols: int, tol: float,
                      max_level: int = 6):
    """Per-cell integrals for n_cols independent integrands.

    cells: (n_cells, 2) interval endpoints.  eval_fn(points, cols) must
    return integrand values for flat arrays of points and column indices.
    Returns (integrals (n_cols, n_cells), achieved level, final change).
    """
    cells = np.asarray(cells, dtype=float)
    n_cells = len(cells)
    if n_cells == 0:
        return np.zeros((n_cols, 0), dtype=complex), 0, 0.0
    mid = 0.5 * (cells[:, 0] + cells[:, 1])
    half = 0.5 * (cells[:, 1] - cells[:, 0])

    def gauss(n):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        pts = (mid[:, None] + half[:, None] * nodes).ravel()
        vals = np.asarray(eval_fn(np.tile(pts, n_cols),
                                  np.repeat(np.arange(n_cols), pts.size)))
        return half * (vals.reshape(n_cols, n_cells, n) @ weights)

    prev = gauss(BASE_NODES)
    for level in range(1, max_level + 1):
        current = gauss(BASE_NODES << level)
        change = float(np.abs(current - prev).max())
        if change <= tol:
            return current, level, change
        prev = current

    raise PathRefinementError(
        f"no convergence to {tol:.1e} within {max_level} levels "
        f"(last change {change:.3e})")


def interpolatory_cell_weights(n: int, cells, points: int):
    """Weights (len(cells), n) for cells [i, i+1] of an n-node even axis.

    Row r integrates, over cell cells[r], the polynomial through the
    p = min(points, n) nodes nearest it, one-sided at the axis ends; the
    weights are in units of the node spacing h, so a cell's integral is
    h * (weights @ nodal values).
    """
    p = min(points, n)
    cells = np.asarray(cells, dtype=int)
    starts = np.clip(cells - (p // 2 - 1), 0, n - p)
    weights = np.zeros((len(cells), n))
    for row, (cell, start) in enumerate(zip(cells, starts)):
        weights[row, start:start + p] = _lagrange_cell_weights(
            p, int(cell - start))
    return weights


@lru_cache(maxsize=None)
def _lagrange_cell_weights(p: int, offset: int):
    """Integrals over [offset, offset + 1] of the Lagrange basis
    polynomials on the nodes 0..p-1, by p-point Gauss-Legendre (exact:
    the basis has degree p - 1)."""
    s, w = np.polynomial.legendre.leggauss(p)
    s = offset + 0.5 * (s + 1.0)
    nodes = np.arange(p)
    basis = np.array([np.prod((s[:, None] - nodes[nodes != k])
                              / (k - nodes[nodes != k]), axis=1)
                      for k in range(p)])
    weights = basis @ (0.5 * w)
    weights.flags.writeable = False
    return weights
