"""The Gauss-Legendre cell rule behind both path integrations, and the
interpolatory cell rule of the KdV contour cross-check."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tauforge import kdv, quadrature
from tauforge.birkhoff import factorize_batch
from tauforge.phase_space import gauge_variation
from tauforge.quadrature import (
    BASE_NODES,
    PathRefinementError,
    cell_weights,
    cumulative_from,
    derivative,
    derivative_width,
    refine_path_cells,
)

CELLS = np.column_stack([np.linspace(0.0, 0.75, 4), np.linspace(0.25, 1.0, 4)])


def _monomials(degrees):
    def eval_fn(points, cols):
        return points ** np.asarray(degrees)[cols]
    a, b = CELLS[:, 0], CELLS[:, 1]
    exact = np.array([(b ** (d + 1) - a ** (d + 1)) / (d + 1) for d in degrees])
    return eval_fn, exact


def test_level_one_exact_to_degree_2p_minus_1():
    degrees = list(range(2 * BASE_NODES))
    eval_fn, exact = _monomials(degrees)
    vals, level, change = refine_path_cells(eval_fn, CELLS, len(degrees), 1e-14)
    assert level == 1
    assert change <= 1e-15
    assert np.abs(vals - exact).max() <= 1e-15


def test_degree_2p_needs_level_two():
    eval_fn, exact = _monomials([2 * BASE_NODES])
    vals, level, change = refine_path_cells(eval_fn, CELLS, 1, 1e-14)
    assert level == 2
    assert np.abs(vals - exact).max() <= 1e-15


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9, 1e-12])
def test_change_bounds_error_on_analytic_integrands(tol):
    c_exp = 3.0 - 2.0j
    c_pole = 0.5 + 0.1j  # a pole just off the cells

    def eval_fn(points, cols):
        return np.where(cols == 0, np.exp(c_exp * points),
                        1.0 / (points - c_pole))

    a, b = CELLS[:, 0], CELLS[:, 1]
    exact = np.array([(np.exp(c_exp * b) - np.exp(c_exp * a)) / c_exp,
                      np.log((b - c_pole) / (a - c_pole))])
    vals, level, change = refine_path_cells(eval_fn, CELLS, 2, tol)
    assert change <= tol
    assert np.abs(vals - exact).max() <= max(change, 1e-15)


def test_empty_cells():
    vals, level, change = refine_path_cells(
        lambda p, c: p, np.zeros((0, 2)), 3, 1e-9)
    assert vals.shape == (3, 0)
    assert (level, change) == (0, 0.0)


def test_nan_integrand_raises():
    # the first level's two rules already give a NaN change
    calls = []

    def eval_fn(points, cols):
        calls.append(len(points))
        return np.full(points.shape, np.nan)

    with pytest.raises(PathRefinementError, match="integrand is not finite"):
        refine_path_cells(eval_fn, CELLS, 1, 1e-9)
    assert len(calls) == 2


def test_tol_below_roundoff_raises():
    # a complex integrand whose two rules keep differing in the last bits
    def eval_fn(points, cols):
        return np.exp(3j * points) / (points - (0.5 + 0.1j))

    # the cap is quadrature's MAX_LEVEL, the one every caller gets
    with pytest.raises(PathRefinementError,
                       match="no convergence to 1.0e-30 within 8 levels"):
        refine_path_cells(eval_fn, CELLS, 1, 1e-30)


def test_one_broadcast_evaluation_per_rule():
    # each rule evaluates every cell and column in one call: the rule's
    # nodes flat, the column indices as a column, and an integrand of the
    # points alone serves every column
    calls = []

    def eval_fn(points, cols):
        calls.append((points.shape, cols.shape, cols.ravel().tolist()))
        return points ** 3

    vals, level, _ = refine_path_cells(eval_fn, CELLS, 3, 1e-14)
    sizes = [len(CELLS) * (BASE_NODES << k) for k in range(level + 1)]
    assert calls == [((size,), (3, 1), [0, 1, 2]) for size in sizes]
    a, b = CELLS[:, 0], CELLS[:, 1]
    assert vals.shape == (3, len(CELLS))
    assert np.abs(vals - (b ** 4 - a ** 4) / 4).max() <= 1e-15


def test_real_running_sum_is_the_complex_one_bit_for_bit(rng):
    values = (rng.standard_normal((5, 40))
              * 10.0 ** rng.integers(-8, 9, (5, 40)))
    breaks = np.linspace(-1.0, 1.0, 41)
    real = cumulative_from(breaks, values, 0.3)
    cplx = cumulative_from(breaks, values.astype(complex), 0.3)
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    assert np.array_equal(real.view(np.int64), cplx.real.view(np.int64))
    assert not cplx.imag.any()


def test_leggauss_only_in_quadrature():
    # one Gauss-Legendre rule: every other module integrates through
    # refine_path_cells instead of building its own nodes
    src = Path(__file__).resolve().parents[1] / "src" / "tauforge"
    users = sorted(path.name for path in src.glob("*.py")
                   if "leggauss" in path.read_text())
    assert users == ["quadrature.py"]


def test_stencils_only_in_quadrature():
    # one home for grid stencils: no other module builds finite-difference
    # or cell weights or works out a grid step, and cli reaches kdv only
    # through its public names
    src = Path(__file__).resolve().parents[1] / "src" / "tauforge"
    stencil = re.compile(r"fornberg|lagrange|np\.diff\(\w+\)"
                         r"|(\w+)\[1\] - \1\[0\]|/ \(len\(\w+\) - 1\)",
                         re.IGNORECASE)
    users = sorted(path.name for path in src.glob("*.py")
                   if stencil.search(path.read_text()))
    assert users == ["quadrature.py"]
    cli = ast.parse((src / "cli.py").read_text())
    assert not [node.attr for node in ast.walk(cli)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "kdv" and node.attr.startswith("_")]


@pytest.mark.parametrize("m", [1, 3])
def test_every_derivative_row_exact_below_width(m):
    # each row of the stencil, the one-sided ones at both ends included,
    # differentiates every polynomial of degree < width exactly
    p = derivative_width(m)
    axis = np.linspace(-2.0, 3.5, 12)
    h = axis[1] - axis[0]
    for degree in range(p):
        coeffs = np.zeros(degree + 1)
        coeffs[degree] = 1.0
        values = np.polynomial.polynomial.polyval(axis, coeffs)
        exact = np.polynomial.polynomial.polyval(
            axis, np.polynomial.polynomial.polyder(coeffs, m))
        got = derivative(values, axis, m)
        scale = max(np.abs(exact).max(), np.abs(values).max() / h ** m)
        assert (np.abs(got - exact) <= 1e-12 * scale).all()


def _exact_cell_weights(p, offset):
    """Integrals over [offset, offset + 1] of the Lagrange basis
    polynomials on the nodes 0..p-1, in rationals."""
    weights = []
    for j in range(p):
        poly = [Fraction(1)]  # coefficients, lowest degree first
        for i in range(p):
            if i != j:  # times (s - i) / (j - i)
                poly = [(lo - i * hi) / (j - i)
                        for lo, hi in zip([0] + poly, poly + [0])]
        weights.append(sum(c * ((offset + 1) ** (k + 1) - offset ** (k + 1))
                           / (k + 1) for k, c in enumerate(poly)))
    return np.array([float(w) for w in weights])


@pytest.mark.parametrize("p", [7, 8])
def test_cell_weights_exact_below_degree_p(p):
    # the weights are the integrals of the Lagrange basis, which spans the
    # polynomials of degree < p; every offset of the cell in its stencil,
    # the one-sided ones included
    for offset in range(p - 1):
        weights = cell_weights(np.arange(p), [offset], p)[0]
        exact = _exact_cell_weights(p, offset)
        assert (np.abs(weights - exact) <= 1e-13 * np.abs(exact)).all()


def test_cell_weights_place_the_stencil_on_the_axis():
    # on a 20-node axis every cell's rule reads 8 nodes and integrates a
    # degree-7 polynomial exactly
    axis = np.linspace(-1.0, 0.9, 20)
    coeffs = np.array([0.3, -1.2, 0.5, 2.0, -0.7, 0.1, 1.1, -0.4])
    antiderivative = np.polynomial.polynomial.polyint(coeffs)
    weights = cell_weights(axis, np.arange(19), 8)
    assert ((weights != 0).sum(axis=1) == 8).all()
    got = weights @ np.polynomial.polynomial.polyval(axis, coeffs)
    exact = np.diff(np.polynomial.polynomial.polyval(axis, antiderivative))
    assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()


def test_cell_rule_matches_gauss_on_default_kdv_cells():
    # the cross-check's cells on the default kdv grid: every t cell of the
    # columns x = -1, 0, 1 and the x cells next to them on the row t = 0;
    # the Gauss reference factors fresh loops between the nodes
    seed = kdv.seed_one_pole()
    axis = np.linspace(-1.0, 1.0, 51)
    cols, x_cells, it0 = np.array([0, 25, 50]), np.array([0, 25, 49]), 25
    m = 256
    u = {d: kdv._direction_u(d).samples(m) for d in ("x", "t")}

    def variation(direction, x, t):
        minus, _, _, ok = factorize_batch(kdv.pullback_coeff_batch(seed, x, t))
        assert ok.all()
        return gauge_variation(minus, u[direction])

    gx, gt = np.meshgrid(axis[cols], axis, indexing="ij")
    rule_t = (variation("t", gx.ravel(), gt.ravel()).reshape(gx.shape)
              @ cell_weights(axis, np.arange(50), 8).T)
    rule_x = (cell_weights(axis, x_cells, 8)
              @ variation("x", axis, np.full(51, axis[it0])))

    def t_leg(pts, c):
        x, t = np.broadcast_arrays(axis[cols][c], pts)
        return variation("t", x.ravel(), t.ravel()).reshape(x.shape)

    gauss_t, _, _ = refine_path_cells(
        t_leg, np.column_stack([axis[:-1], axis[1:]]), len(cols), 1e-12)
    gauss_x, _, _ = refine_path_cells(
        lambda pts, c: variation("x", pts, np.full_like(pts, axis[it0])),
        np.column_stack([axis[x_cells], axis[x_cells + 1]]), 1, 1e-12)
    assert np.abs(rule_t - gauss_t).max() <= 1e-9
    assert np.abs(rule_x - gauss_x[0]).max() <= 1e-9
