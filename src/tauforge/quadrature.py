"""Shared path-integration helpers: per-cell refined trapezoid sums and
the antiderivative they add up to.

Integrals along grid paths are computed cell by cell (one cell per output
grid interval) so cumulative sums land exactly on the requested nodes.
Each refinement level halves the subinterval width across every cell and
column at once, which lets the caller batch the expensive integrand
evaluations; iteration stops when the worst per-cell change between
successive levels drops below the tolerance, and the last two levels are
Richardson-combined for an extra order.
"""

from __future__ import annotations

import numpy as np


class PathRefinementError(Exception):
    """Refinement hit the level cap before meeting the tolerance."""


def cumulative_from(breaks, cell_values, anchor: float):
    """Antiderivative at the breakpoints, zero at the breakpoint nearest anchor.

    cell_values: (n_cols, n_cells) integrals over consecutive intervals.
    """
    cum = np.zeros((cell_values.shape[0], len(breaks)), dtype=complex)
    cum[:, 1:] = np.cumsum(cell_values, axis=1)
    idx = int(np.argmin(np.abs(breaks - anchor)))
    return cum - cum[:, idx][:, None]


def refine_path_cells(eval_fn, cells, n_cols: int, tol: float,
                      max_level: int = 8):
    """Per-cell integrals for n_cols independent integrands.

    cells: (n_cells, 2) interval endpoints.  eval_fn(points, cols) must
    return integrand values for flat arrays of points and column indices.
    Returns (integrals (n_cols, n_cells), achieved level, final change).
    """
    cells = np.asarray(cells, dtype=float)
    n_cells = len(cells)
    if n_cells == 0:
        return np.zeros((n_cols, 0), dtype=complex), 0, 0.0
    a, b = cells[:, 0], cells[:, 1]
    width = b - a

    def grid(level):
        p = 2 ** level + 1
        frac = np.arange(p) / (p - 1)
        return a[:, None] + width[:, None] * frac[None, :]

    def evaluate(points):
        # points: (n_cells, k) shared across columns
        k = points.shape[1]
        flat_pts = np.tile(points.reshape(-1), n_cols)
        flat_cols = np.repeat(np.arange(n_cols), n_cells * k)
        vals = np.asarray(eval_fn(flat_pts, flat_cols), dtype=complex)
        return vals.reshape(n_cols, n_cells, k)

    pts = grid(0)
    values = evaluate(pts)
    prev = width[None, :] * values.mean(axis=2)

    for level in range(1, max_level + 1):
        pts = grid(level)
        new_vals = evaluate(pts[:, 1::2])
        merged = np.empty((n_cols, n_cells, pts.shape[1]), dtype=complex)
        merged[:, :, 0::2] = values
        merged[:, :, 1::2] = new_vals
        values = merged
        h = width / (pts.shape[1] - 1)
        current = h[None, :] * (values[:, :, 0] / 2 + values[:, :, 1:-1].sum(axis=2)
                                + values[:, :, -1] / 2)
        change = float(np.abs(current - prev).max())
        if change <= tol:
            return (4 * current - prev) / 3, level, change
        prev = current

    raise PathRefinementError(
        f"no convergence to {tol:.1e} within {max_level} levels "
        f"(last change {change:.3e})")
