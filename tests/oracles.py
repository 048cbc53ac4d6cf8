"""Loop references the tests compare against, kept out of the package.

The package evaluates every contour formula on sample stacks; these
references work at coefficient level (or from samples alone), so they stay
independent of the kernels they check.
"""

import numpy as np

from tauforge.loops import MatrixLoop, adjugate_2x2


def unimodular_defect(loop: MatrixLoop) -> float:
    """Largest |det - 1| over the loop's circle grid."""
    return float(np.abs(np.linalg.det(loop.samples()) - 1.0).max())


def derivative_lambda(loop: MatrixLoop) -> MatrixLoop:
    """d/dlambda; mode k goes to k c_k at mode k-1 (range grows by one)."""
    order = loop.order + 1
    coeffs = np.zeros((2 * order + 1, loop.n, loop.n), dtype=complex)
    ks = np.arange(-loop.order, loop.order + 1)
    coeffs[ks - 1 + order] = ks[:, None, None] * loop.coeffs
    return type(loop)(coeffs)


def adjugate_inverse(loop: MatrixLoop) -> MatrixLoop:
    """Exact coefficient-level inverse of a 2x2 loop with det = 1: the
    adjugate only permutes and negates coefficients."""
    return MatrixLoop(adjugate_2x2(loop.coeffs))
