"""Shared path-integration helpers: per-cell Gauss-Legendre integrals and
the antiderivative they add up to, and the stencils of evenly spaced grids.

Integrals along grid paths are computed cell by cell (one cell per output
grid interval) so cumulative sums land exactly on the requested nodes.
Level L integrates every cell and column at once with the Gauss-Legendre
rules of BASE_NODES 2^(L-1) and BASE_NODES 2^L nodes, which lets the
caller batch the expensive integrand evaluations.  The integrands are
analytic on their cells, where Gauss rules converge geometrically, so the
difference of the two rules, about the coarse rule's error, bounds the
finer rule's; iteration stops when the worst per-cell difference drops
below the tolerance.

Where the integrand is known only at evenly spaced nodes, cell_weights
gives each cell the integral of the polynomial through the nearest nodes
instead, and derivative differentiates that polynomial at each node.  Both
read one table of Fornberg weights, take the p nodes nearest their cell or
node (one-sided at the axis ends), and get the step from even_step.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

# nodes per cell of the coarse rule at level 1
BASE_NODES = 2
# refinement cap of refine_path_cells: at most 512 Gauss nodes per cell,
# since computing n nodes costs O(n^3) and deeper levels would stall a
# failing run
MAX_LEVEL = 8


class PathRefinementError(Exception):
    """Refinement met a non-finite integrand, or hit the level cap first."""


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

    cell_values: (n_cols, n_cells) integrals over consecutive intervals,
    real or complex; the result keeps that kind.
    """
    # an extended-precision running sum keeps its rounding off the result;
    # a real sum is the real part of the complex one, bit for bit
    wide, out = ((np.clongdouble, complex) if np.iscomplexobj(cell_values)
                 else (np.longdouble, float))
    cum = np.zeros((cell_values.shape[0], len(breaks)), dtype=wide)
    cum[:, 1:] = np.cumsum(cell_values, axis=1, dtype=wide)
    idx = int(np.argmin(np.abs(breaks - anchor)))
    return (cum - cum[:, idx][:, None]).astype(out)


def refine_path_cells(eval_fn, cells, n_cols: int, tol: float):
    """Per-cell integrals for n_cols independent integrands.

    cells: (n_cells, 2) interval endpoints.  Each Gauss rule makes one call
    eval_fn(points, cols), with points the rule's nodes in every cell, of
    shape (n_cells n,), and cols = arange(n_cols)[:, None]; its values
    broadcast to (n_cols, n_cells n), row j for integrand j.
    A non-finite change between the rules of a level, or a tolerance not
    met by level MAX_LEVEL, raises PathRefinementError.
    Returns (integrals (n_cols, n_cells), achieved level, final change).
    """
    cells = np.asarray(cells, dtype=float)
    n_cells = len(cells)
    if n_cells == 0:
        return np.zeros((n_cols, 0), dtype=complex), 0, 0.0
    mid = 0.5 * (cells[:, 0] + cells[:, 1])
    half = 0.5 * (cells[:, 1] - cells[:, 0])
    cols = np.arange(n_cols)[:, None]

    def gauss(n):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        pts = (mid[:, None] + half[:, None] * nodes).ravel()
        vals = np.broadcast_to(eval_fn(pts, cols), (n_cols, pts.size))
        return half * (vals.reshape(n_cols, n_cells, n) @ weights)

    prev = gauss(BASE_NODES)
    for level in range(1, MAX_LEVEL + 1):
        current = gauss(BASE_NODES << level)
        change = float(np.abs(current - prev).max())
        if not np.isfinite(change):
            raise PathRefinementError(
                f"integrand is not finite (change {change} at level {level})")
        if change <= tol:
            return current, level, change
        prev = current

    raise PathRefinementError(
        f"no convergence to {tol:.1e} within {MAX_LEVEL} levels "
        f"(last change {change:.3e})")


def even_step(axis, name: str = "grid", nodes: int = 2) -> float:
    """Step of an evenly spaced axis of at least the given number of nodes;
    every stencil assumes one."""
    if len(axis) < nodes:
        raise ValueError(f"{name} axis needs at least {nodes} nodes")
    steps = np.diff(axis)
    if np.abs(steps - steps[0]).max() > 1e-6 * abs(steps[0]):
        raise ValueError(f"{name} axis must be evenly spaced")
    return float(steps[0])


def derivative_width(m: int) -> int:
    """Nodes of the 4th-order stencil of the m-th derivative: m + 4, made
    odd so that the central stencil is symmetric."""
    return (m + 4) | 1


def derivative(values, axis, m: int, along: int = 0):
    """4th-order m-th derivative of nodal values along one evenly spaced
    axis, one-sided within derivative_width(m) // 2 nodes of its ends."""
    p = derivative_width(m)
    h = even_step(axis, nodes=p)
    values = np.moveaxis(np.asarray(values), along, 0)
    n = len(axis)
    nodes, weights = _stencils(n, 2 * np.arange(n), p, m)
    # one batched product over every row, in the values' own dtype
    out = weights[:, None] @ values[nodes].reshape(n, p, -1)
    return np.moveaxis(out.reshape(values.shape).astype(complex) / h ** m,
                       0, along)


def cell_weights(axis, cells, points: int):
    """Weights (len(cells), n) for cells [i, i+1] of an n-node even axis.

    Row r integrates, over cell cells[r], the polynomial through the
    p = min(points, n) nodes nearest it, one-sided at the axis ends: a
    cell's integral is weights @ nodal values.
    """
    n = len(axis)
    p = min(points, n)
    h = even_step(axis)
    nodes, weights = _stencils(n, 2 * np.asarray(cells, dtype=int) + 1, p,
                               "cell")
    out = np.zeros((len(nodes), n))
    np.put_along_axis(out, nodes, h * weights, axis=1)
    return out


def _stencils(n: int, centres2, p: int, kind):
    """Node indices (len(centres2), p) and weights of the p nodes of an
    n-node axis nearest each centre, one-sided at the axis ends.

    centres2 holds twice each centre in node units: 2i for node i, 2i + 1
    for the midpoint of cell [i, i+1].  A stencil evaluates at its node,
    or integrates over its cell, as _stencil_weights(p, offset, kind).
    """
    starts = np.clip((centres2 + 1 - p) // 2, 0, n - p)
    weights = np.array([_stencil_weights(p, offset, kind)
                        for offset in (centres2 // 2 - starts).tolist()])
    return starts[:, None] + np.arange(p), weights


@lru_cache(maxsize=None)
def _stencil_weights(p: int, offset: int, kind):
    """Weights on the nodes 0..p-1 of unit spacing: for kind m, the m-th
    derivative at node offset of the polynomial through them; for kind
    "cell", its integral over [offset, offset + 1], which is
    sum_k f^(k)(offset) / (k + 1)!.

    Fornberg's recursion (Math. Comp. 51, 1988) adds one node at a time and
    gives the weights of every order k < p at once, in column k + 1 of c;
    column 0 is the zero order -1 contributes.
    """
    x = np.arange(p) - float(offset)
    k = np.arange(p)
    c = np.zeros((p, p + 1))
    c[0, 1] = 1.0
    for i in range(1, p):
        c1, c2 = np.prod(x[i - 1] - x[:i - 1]), np.prod(x[i] - x[:i])
        row = c1 * (k * c[i - 1, :-1] - x[i - 1] * c[i - 1, 1:]) / c2
        c[:i, 1:] = ((x[i] * c[:i, 1:] - k * c[:i, :-1])
                     / (x[i] - x[:i])[:, None])
        c[i, 1:] = row
    if kind == "cell":
        weights = c[:, 1:] @ (1.0 / np.array([factorial(j + 1)
                                              for j in range(p)]))
    else:
        weights = c[:, kind + 1]
    weights.flags.writeable = False
    return weights
