"""The Gauss-Legendre cell rule behind both path integrations."""

from pathlib import Path

import numpy as np
import pytest

from tauforge.quadrature import (
    BASE_NODES,
    PathRefinementError,
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
    with pytest.raises(PathRefinementError, match="within 4 levels"):
        refine_path_cells(lambda p, c: np.full(p.shape, np.nan), CELLS, 1,
                          1e-9, max_level=4)


def test_tol_below_roundoff_raises():
    # a complex integrand whose two rules keep differing in the last bits
    def eval_fn(points, cols):
        return np.exp(3j * points) / (points - (0.5 + 0.1j))

    with pytest.raises(PathRefinementError, match="no convergence to 1.0e-30"):
        refine_path_cells(eval_fn, CELLS, 1, 1e-30)


def test_leggauss_only_in_quadrature():
    # one Gauss-Legendre rule: every other module integrates through
    # refine_path_cells instead of building its own nodes
    src = Path(__file__).resolve().parents[1] / "src" / "tauforge"
    users = sorted(path.name for path in src.glob("*.py")
                   if "leggauss" in path.read_text())
    assert users == ["quadrature.py"]
