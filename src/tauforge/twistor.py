"""Minitwistor correspondence: symmetry generators and the decomposition
of space-time directions into multiplier data.

The correspondence space carries the two Lax fields

    V0 = d/dx - lambda d/dv,     V1 = d/dt - lambda d/dx,

and each space-time translation Y splits against a reference translation
X as Y = f0 V0 + f1 V1 + h X.  Solved on the basis (d/dv, d/dx, d/dt),
the multiplier is the ratio of incidence polynomials h = mu_Y / mu_X, and
f0, f1 are polynomials of degree at most one over the same denominator
mu_X, with coefficients that are products of the components, so exact
data stays exact.  Symmetries with a vertical d/dlambda part are not
represented.

The stationary-axisymmetric frame lives on the Riemann sphere in a
coordinate zeta; there the two null directions carry rational d/dzeta
coefficients with simple poles at zeta = +-i, returned with their pole
location so residue formulas can be evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateFrameError(Exception):
    """(X, V0, V1) fail to frame the tangent space for generic lambda."""


@dataclass(frozen=True)
class SymmetryGenerator:
    """The translation a d/dt + b d/dx + c d/dv."""

    a: complex = 0.0
    b: complex = 0.0
    c: complex = 0.0

    @classmethod
    def d_v(cls) -> "SymmetryGenerator":
        return cls(c=1.0)

    @classmethod
    def d_x(cls) -> "SymmetryGenerator":
        return cls(b=1.0)

    @classmethod
    def d_t(cls) -> "SymmetryGenerator":
        return cls(a=1.0)

    def translation_components(self):
        """Coefficients on (d/dv, d/dx, d/dt)."""
        return (self.c, self.b, self.a)


class RationalFunction:
    """Ratio of low-degree polynomials, coefficients ascending in the
    variable.  Arithmetic stays in exact machine numbers for the
    small-integer data produced by the decompositions."""

    def __init__(self, num, den=(1.0,)):
        self.num = tuple(complex(c) for c in num)
        self.den = tuple(complex(c) for c in den)
        if not any(self.den):
            raise ZeroDivisionError("zero denominator polynomial")

    @staticmethod
    def _horner(coeffs, z):
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        val = self._horner(self.num, z) / self._horner(self.den, z)
        return complex(val) if val.ndim == 0 else val

    __call__ = eval

    def derivative_coeffs(self, coeffs):
        return tuple(k * c for k, c in enumerate(coeffs))[1:] or (0.0,)

    def residue(self, z0: complex) -> complex:
        """Residue at a simple pole z0: num(z0) / den'(z0)."""
        dp = self._horner(self.derivative_coeffs(self.den), z0)
        if abs(dp) == 0:
            raise ZeroDivisionError(f"pole at {z0} is not simple")
        return complex(self._horner(self.num, z0) / dp)


@dataclass(frozen=True)
class DirectionDecomposition:
    f0: RationalFunction
    f1: RationalFunction
    h: RationalFunction


def decompose(y: SymmetryGenerator,
              x: SymmetryGenerator) -> DirectionDecomposition:
    """Split a translation Y against X in the moving frame (V0, V1, X).

    With mu_X = x_v + lambda x_x + lambda^2 x_t, and mu_Y alike,
    h = mu_Y / mu_X, and f0, f1 are linear over mu_X: the lambda^2 and
    lambda^3 terms of their numerators cancel.  Raises DegenerateFrameError
    when every coefficient of mu_X is round-off, at most 1e-13.
    """
    yv, yx, yt = y.translation_components()
    xv, xx, xt = x.translation_components()
    den = (xv, xx, xt)
    if max(abs(c) for c in den) <= 1e-13:
        raise DegenerateFrameError("frame (V0, V1, X) is singular in lambda")
    return DirectionDecomposition(
        f0=RationalFunction((yx * xv - xx * yv, yt * xv - xt * yv), den),
        f1=RationalFunction((yt * xv - xt * yv, yt * xx - xt * yx), den),
        h=RationalFunction((yv, yx, yt), den))


def ernst_frame(r: float, direction: str) -> tuple[RationalFunction, complex]:
    """d/dzeta coefficient of the null direction operators at radius r.

    direction "wbar" has the simple pole at zeta = +i with residue i/r,
    direction "w" the mirror pole at zeta = -i with residue -i/r.
    Returns (coefficient, pole location).
    """
    if r <= 0:
        raise ValueError("frame requires r > 0")
    if direction == "wbar":
        # (zeta + i) zeta / (2 i r (zeta - i))
        return RationalFunction((0.0, 1j, 1.0), (2.0 * r, 2j * r)), 1j
    if direction == "w":
        # i (zeta - i) zeta / (2 r (zeta + i))
        return RationalFunction((0.0, 1.0, 1j), (2j * r, 2.0 * r)), -1j
    raise ValueError(f"direction must be 'w' or 'wbar', got {direction!r}")
