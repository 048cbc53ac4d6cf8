"""Incidence relation, direction decompositions, and the ruled frame."""

import numpy as np
import pytest

from tauforge import twistor as tw

from oracles import decomposition_residual, incidence, poles


class TestIncidence:
    def test_origin(self):
        lam = np.exp(1j * np.linspace(0, 2 * np.pi, 16))
        assert np.abs(incidence(0.0, 0.0, 0.0, lam)).max() == 0.0

    def test_direct_substitution(self):
        assert incidence(1.0, 2.0, 3.0, 1.0) == 6.0

    def test_linearity_in_coordinates(self, rng):
        lam = 0.7 + 0.2j
        p1, p2 = rng.standard_normal(3), rng.standard_normal(3)
        split = incidence(*p1, lam) + incidence(*p2, lam)
        assert abs(incidence(*(p1 + p2), lam) - split) <= 1e-14

    def test_null_plane_annihilated_by_ruling_fields(self):
        sympy = pytest.importorskip("sympy")
        v, x, t, lam = sympy.symbols("v x t lam")
        mu = v + lam * x + lam**2 * t
        v0 = sympy.diff(mu, x) - lam * sympy.diff(mu, v)
        v1 = sympy.diff(mu, t) - lam * sympy.diff(mu, x)
        assert sympy.simplify(v0) == 0
        assert sympy.simplify(v1) == 0


class TestDecompose:
    def test_x_translation_multiplier(self):
        dec = tw.decompose(tw.SymmetryGenerator.d_x(), tw.SymmetryGenerator.d_v())
        lam = 0.3 - 0.8j
        assert abs(dec.h.eval(lam) - lam) <= 1e-13

    def test_t_translation_multipliers(self):
        dec = tw.decompose(tw.SymmetryGenerator.d_t(), tw.SymmetryGenerator.d_v())
        for lam in (0.5, -1.2, 0.3 + 0.4j):
            assert abs(dec.h.eval(lam) - lam**2) <= 1e-13
            assert abs(dec.f0.eval(lam) - lam) <= 1e-13
            assert abs(dec.f1.eval(lam) - 1.0) <= 1e-13

    def test_self_decomposition(self):
        dec = tw.decompose(tw.SymmetryGenerator.d_v(), tw.SymmetryGenerator.d_v())
        lam = 1.7
        assert abs(dec.f0.eval(lam)) <= 1e-14
        assert abs(dec.f1.eval(lam)) <= 1e-14
        assert abs(dec.h.eval(lam) - 1.0) <= 1e-14

    def test_identity_on_random_circle_points(self, rng):
        # a general reference X: with X = d/dv the denominator is 1 and a
        # wrong coefficient of f0 or f1 can still pass the other tests
        for _ in range(200):
            y = tw.SymmetryGenerator(*rng.standard_normal(3))
            x = tw.SymmetryGenerator(*rng.standard_normal(3))
            dec = tw.decompose(y, x)
            lams = np.exp(2j * np.pi * rng.random(8))
            assert decomposition_residual(dec, y, x, lams) <= 3e-14

    def test_degenerate_frame_rejected(self):
        # zero, and nonzero below the bound: mu_X is round-off, not a frame
        for x in (tw.SymmetryGenerator(),
                  tw.SymmetryGenerator(a=5e-14, b=-2e-14, c=3e-14)):
            with pytest.raises(tw.DegenerateFrameError):
                tw.decompose(tw.SymmetryGenerator.d_x(), x)

    def test_multiplier_smooth_on_circle(self):
        # translations against d/dv give polynomial h: no circle poles
        dec = tw.decompose(tw.SymmetryGenerator.d_t(), tw.SymmetryGenerator.d_v())
        assert len(np.trim_zeros(np.asarray(dec.h.den), "b")) <= 1
        theta = np.linspace(0, 2 * np.pi, 64)
        vals = dec.h.eval(np.exp(1j * theta))
        assert np.isfinite(vals).all()


class TestRationalFunction:
    def test_eval_and_call(self):
        f = tw.RationalFunction((1.0, 2.0), (1.0, 0.0, 1.0))  # (1+2z)/(1+z^2)
        assert abs(f(1.0) - 1.5) <= 1e-15

    def test_residue_simple_pole(self):
        f = tw.RationalFunction((1.0,), (-2.0, 1.0))  # 1/(z-2)
        assert abs(f.residue(2.0) - 1.0) <= 1e-15

    def test_poles_of_quadratic(self):
        f = tw.RationalFunction((1.0,), (2.0, -3.0, 1.0))  # 1/((z-1)(z-2))
        roots = sorted(poles(f), key=lambda z: z.real)
        assert abs(roots[0] - 1.0) <= 1e-12 and abs(roots[1] - 2.0) <= 1e-12

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            tw.RationalFunction((1.0,), (0.0,))

    def test_symbolic_cross_check(self):
        sympy = pytest.importorskip("sympy")
        z = sympy.symbols("z")
        f = tw.RationalFunction((0.0, 1j, 1.0), (2.0, 2j))
        expr = (1j * z + z**2) / (2 + 2j * z)
        for val in (0.5, 1.3 - 0.2j, -2.0):
            expected = complex(expr.subs(z, val))
            assert abs(f.eval(val) - expected) <= 1e-13


class TestErnstFrame:
    def test_wbar_direct_arithmetic(self):
        coeff, pole = tw.ernst_frame(1.0, "wbar")
        assert pole == 1j
        assert abs(coeff.eval(2j) - 3.0) <= 1e-14

    def test_wbar_residue(self):
        for r in (0.5, 1.0, 2.5):
            coeff, pole = tw.ernst_frame(r, "wbar")
            assert abs(coeff.residue(pole) - 1j / r) <= 1e-14

    def test_w_residue_mirror(self):
        for r in (0.5, 1.0, 2.5):
            coeff, pole = tw.ernst_frame(r, "w")
            assert pole == -1j
            assert abs(coeff.residue(pole) - (-1j / r)) <= 1e-14

    def test_conjugation_symmetry(self):
        # the two directions are complex conjugates of each other on the
        # real zeta axis
        cw, _ = tw.ernst_frame(1.3, "w")
        cwb, _ = tw.ernst_frame(1.3, "wbar")
        for zeta in (0.4, -2.0, 7.7):
            assert abs(np.conj(cwb.eval(zeta)) - cw.eval(zeta)) <= 1e-14

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            tw.ernst_frame(-1.0, "wbar")
        with pytest.raises(ValueError):
            tw.ernst_frame(1.0, "sideways")
