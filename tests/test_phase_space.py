"""Symplectic structure, cocycle, anomaly, and vacuum log-derivatives."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tauforge as tf
from tauforge import birkhoff
from tauforge import phase_space as ps
from tauforge.loops import (
    MatrixLoop,
    circle_points,
    default_sample_count,
)

from oracles import (
    adjugate_inverse,
    derivative_lambda,
    eval_point,
    eval_theta,
    project,
    reference_tangent,
    unimodular_defect,
)


def unitary_loop(rng, amplitude=0.5):
    gamma = tf.exp_pointwise(reference_tangent(rng, antihermitian=True,
                                               amplitude=amplitude))
    return gamma


def quadrature_mean(fn, points=4096):
    """(1/2pi) integral over the circle by trapezoid on a dense grid."""
    theta = np.linspace(0.0, 2 * np.pi, points + 1)
    return np.trapezoid(fn(theta), theta) / (2 * np.pi)


class TestLoopTangent:
    def test_flag_validation(self, rng):
        u = reference_tangent(rng, antihermitian=True, traceless=True)
        tangent = ps.LoopTangent(u, antihermitian=True, traceless=True)
        tangent.validate()
        assert tangent.antihermitian_defect() <= 1e-10
        assert tangent.trace_defect() <= 1e-10

    def test_complexified_tangent_fails_hermitian_check(self, rng):
        u = reference_tangent(rng, antihermitian=False)
        tangent = ps.LoopTangent(u, antihermitian=True)
        with pytest.raises(ValueError):
            tangent.validate()
        ps.LoopTangent(u, antihermitian=False).validate()


class TestSymplecticForm:
    def test_diagonal_vanishes(self, rng):
        gamma = unitary_loop(rng)
        u = reference_tangent(rng, antihermitian=True, band=4)
        assert abs(ps.reduced_symplectic(gamma, u, u)) <= 1e-15

    def test_antisymmetry_exact(self, rng):
        gamma = unitary_loop(rng)
        u = reference_tangent(rng, antihermitian=True, band=4)
        v = reference_tangent(rng, antihermitian=True, band=4)
        a = ps.reduced_symplectic(gamma, u, v)
        b = ps.reduced_symplectic(gamma, v, u)
        assert a == -b
        assert isinstance(a, float)

    def test_reality_check_survives_optimize_flag(self):
        # python -O strips assert statements, so the guard must not be one
        code = (
            "import numpy as np, tauforge as tf\n"
            "from oracles import reference_tangent\n"
            "from tauforge import phase_space as ps\n"
            "rng = np.random.default_rng(0)\n"
            "gamma = tf.exp_pointwise(reference_tangent(rng, antihermitian=True))\n"
            "u = reference_tangent(rng, antihermitian=False, band=4)\n"
            "v = reference_tangent(rng, antihermitian=False, band=4)\n"
            "try:\n"
            "    ps.reduced_symplectic(gamma, u, v, check_real=True)\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('complexified tangents passed the reality check')\n")
        src = str(Path(tf.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, str(Path(__file__).parent),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_identity_base_point_quadrature(self, rng):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u = MatrixLoop.from_modes({1: A, -1: -A.conj().T}, order=4)
        v = MatrixLoop.from_modes({1: B, -1: -B.conj().T}, order=4)
        val = ps.reduced_symplectic(MatrixLoop.identity(order=4), u, v)

        def integrand(theta):
            uu = eval_theta(u, theta)
            dv = eval_theta(v.derivative_theta(), theta)
            return np.trace(uu @ dv, axis1=-2, axis2=-1)

        oracle = quadrature_mean(integrand)
        assert abs(val - oracle) <= 1e-10

    @pytest.mark.parametrize("unitary", [True, False],
                             ids=["unitary", "non_unimodular"])
    def test_fine_grid_oracle_away_from_identity(self, rng, unitary):
        # (1/2 pi) contour tr(ubar d vbar) with ubar = gamma^-1 u gamma,
        # gamma^-1 by np.linalg.inv of the samples on a fine grid
        m = 1024
        if unitary:
            gamma = unitary_loop(rng)
            u, v = (reference_tangent(rng, antihermitian=True, band=4)
                    for _ in range(2))
        else:
            gamma = tf.exp_pointwise(reference_tangent(
                rng, traceless=False, amplitude=0.4))
            u, v = (reference_tangent(rng, band=4, traceless=False)
                    for _ in range(2))
            assert unimodular_defect(gamma) > 1e-3
        g, dg = gamma.samples(m), gamma.derivative_theta().samples(m)
        ginv = np.linalg.inv(g)
        uv, vv, dv = u.samples(m), v.samples(m), v.derivative_theta().samples(m)
        ubar = ginv @ uv @ g
        dvbar = (-ginv @ dg @ ginv @ vv @ g + ginv @ dv @ g
                 + ginv @ vv @ dg)
        oracle = np.trace(ubar @ dvbar, axis1=1, axis2=2).mean()
        val = ps.reduced_symplectic(gamma, u, v, check_real=False)
        assert abs(val - oracle) <= 1e-12

    @pytest.mark.parametrize("unimodular", [True, False],
                             ids=["adjugate", "generic_inverse"])
    def test_antisymmetry_exact_over_seeds(self, unimodular):
        # one seed cannot show bitwise antisymmetry; rounding of the two
        # integration-by-parts sums differs from input to input
        for seed in range(20):
            rng = np.random.default_rng(seed)
            if unimodular:
                gamma = unitary_loop(rng)
                u = reference_tangent(rng, antihermitian=True, band=4)
                v = reference_tangent(rng, antihermitian=True, band=4)
                check_real = None
            else:
                gamma = tf.exp_pointwise(reference_tangent(
                    rng, traceless=False, amplitude=0.4))
                u = reference_tangent(rng, band=4, traceless=False)
                v = reference_tangent(rng, band=4, traceless=False)
                check_real = False
            assert (unimodular_defect(gamma) <= 1e-10) is unimodular
            a = ps.reduced_symplectic(gamma, u, v, check_real=check_real)
            b = ps.reduced_symplectic(gamma, v, u, check_real=check_real)
            assert a == -b, f"seed {seed}"
            assert ps.reduced_symplectic(gamma, u, u, check_real=check_real) == 0.0


class TestHamiltonians:
    def test_gauge_vanishes_at_identity(self, rng):
        u = reference_tangent(rng, antihermitian=True)
        assert ps.hamiltonian_gauge(MatrixLoop.identity(), ps.LoopTangent(u)) == 0.0

    def test_gauge_zero_direction(self, rng):
        gamma = unitary_loop(rng)
        zero = MatrixLoop(np.zeros((9, 2, 2), dtype=complex))
        assert ps.hamiltonian_gauge(gamma, zero) == 0.0

    def test_gauge_flow_derivative_matches_cocycle(self, rng):
        U = reference_tangent(rng, antihermitian=True, band=4, amplitude=0.4)
        u = reference_tangent(rng, antihermitian=True, band=4, amplitude=0.4)

        def ham(t):
            return ps.hamiltonian_gauge(tf.exp_pointwise(U.scaled(t)),
                                        ps.LoopTangent(u))

        eps = 1e-3
        fd = (ham(eps) - ham(-eps)) / (2 * eps)
        assert abs(fd - (-ps.cocycle(u, U))) <= 1e-6

    def test_larger_loops_rejected(self, rng):
        # the kernels read 2x2 entry planes; a 3x3 loop must not pass.
        # gamma is built from its coefficients, as exp takes only 2x2
        u = reference_tangent(rng, n=3)
        gamma = MatrixLoop.identity(n=3) + u.scaled(0.5)
        xi = MatrixLoop.from_modes({0: 1.0}, n=1, order=2)
        with pytest.raises(ValueError, match="2x2"):
            ps.hamiltonian_gauge(gamma, u)
        with pytest.raises(ValueError, match="2x2"):
            ps.hamiltonian_diffeo(gamma, xi)

    def test_diffeo_vanishes_at_identity(self):
        xi = MatrixLoop.from_modes({0: 1.0}, n=1, order=2)
        assert ps.hamiltonian_diffeo(MatrixLoop.identity(), xi,
                                     check_real=True) == 0.0

    def test_diffeo_zero_field(self, rng):
        gamma = unitary_loop(rng)
        xi = MatrixLoop.from_modes({}, n=1, order=2)
        assert ps.hamiltonian_diffeo(gamma, xi, check_real=True) == 0.0

    def test_diffeo_quadrature_oracle(self, rng):
        gamma = unitary_loop(rng)
        xi = MatrixLoop.from_modes({1: 0.5, -1: 0.5}, n=1, order=4)  # cos(theta)
        val = ps.hamiltonian_diffeo(gamma, xi, check_real=True)
        assert isinstance(val, float)
        w = tf.multiply(gamma.derivative_theta(), tf.inverse(gamma))
        wsq = tf.multiply(w, w).trace()

        def integrand(theta):
            return np.cos(theta) * eval_theta(wsq, theta)[..., 0, 0]

        oracle = 0.5 * quadrature_mean(integrand)
        assert abs(val - oracle) <= 1e-10


class TestCocycle:
    def test_diagonal_vanishes(self, rng):
        u = reference_tangent(rng, band=4)
        assert abs(ps.cocycle(u, u)) <= 1e-15

    def test_opposite_single_modes(self):
        A = np.diag([1.0, -1.0])
        u = tf.monomial(1, A, order=2)
        v = tf.monomial(-1, A, order=2)
        assert abs(ps.cocycle(u, v) - (-2j)) <= 1e-12

    def test_nonpaired_modes_vanish(self, rng):
        u = tf.monomial(1, rng.standard_normal((2, 2)), order=4)
        v = tf.monomial(2, rng.standard_normal((2, 2)), order=4)
        assert ps.cocycle(u, v) == 0.0


class TestPoissonAnomaly:
    def test_equal_arguments(self, rng):
        gamma = unitary_loop(rng)
        u = reference_tangent(rng, antihermitian=True, band=3)
        assert abs(ps.poisson_anomaly(gamma, u, u, 1e-4)) <= 1e-6

    def test_constant_directions(self, rng):
        gamma = unitary_loop(rng)
        u = tf.monomial(0, 1j * np.diag([1.0, -1.0]), order=2)
        v = tf.monomial(0, np.array([[0.0, 1.0], [-1.0, 0.0]]), order=2)
        assert abs(ps.poisson_anomaly(gamma, u, v, 1e-4)) <= 1e-6

    def test_single_modes_at_identity(self, rng):
        u = tf.monomial(2, rng.standard_normal((2, 2)), order=4)
        v = tf.monomial(-2, rng.standard_normal((2, 2)), order=4)
        anomaly = ps.poisson_anomaly(MatrixLoop.identity(order=4), u, v, 1e-4)
        assert abs(anomaly) <= 1e-6

    def test_quadratic_convergence(self, rng):
        gamma = unitary_loop(rng)
        u = reference_tangent(rng, antihermitian=True, band=3, amplitude=0.4)
        v = reference_tangent(rng, antihermitian=True, band=3, amplitude=0.4)
        a1 = abs(ps.poisson_anomaly(gamma, u, v, 1e-3))
        a2 = abs(ps.poisson_anomaly(gamma, u, v, 5e-4))
        if a2 > 1e-9:
            assert 3.5 <= a1 / a2 <= 4.5
        else:
            assert a1 <= 1e-8


class TestVacuumLogderivGauge:
    def test_zero_direction(self, rng):
        gamma = tf.random_unimodular_loop(rng)
        zero = MatrixLoop(np.zeros((9, 2, 2), dtype=complex))
        assert ps.vacuum_logderiv_gauge(gamma, zero) == 0.0

    def test_identity_base_point(self, rng):
        u = tf.random_tangent(rng)
        val = ps.vacuum_logderiv_gauge(MatrixLoop.identity(), u)
        assert abs(val) <= 1e-14

    def test_normalization_invariance(self, rng):
        gamma = tf.random_unimodular_loop(rng)
        u = reference_tangent(rng, band=3, amplitude=0.4)
        base = ps.vacuum_logderiv_gauge(gamma, u)
        c = np.array([[1.1, 0.3], [0.2, 1.0]])
        c = c / np.sqrt(np.linalg.det(c))
        twisted = tf.multiply(gamma, tf.monomial(0, c, order=0))
        assert abs(ps.vacuum_logderiv_gauge(twisted, u) - base) <= 1e-10

    def test_precomputed_factors_agree(self, rng):
        gamma = tf.random_unimodular_loop(rng)
        u = reference_tangent(rng, band=3)
        fac = birkhoff.factorize(gamma)
        assert ps.vacuum_logderiv_gauge(fac, u) == ps.vacuum_logderiv_gauge(gamma, u)

    def test_stack_kernel_matches_single_loops_bitwise(self, rng):
        factors = [birkhoff.factorize(tf.random_unimodular_loop(rng))
                   for _ in range(5)]
        u = tf.random_tangent(rng)
        m = default_sample_count(max(factors[0].g_minus.order, u.order))
        stack = ps.gauge_variation(
            np.stack([f.g_minus.coeffs for f in factors]), u.samples(m))
        single = [ps.vacuum_logderiv_gauge(f, u) for f in factors]
        assert np.array_equal(stack, single)


class TestNonUnimodularLoop:
    """Factors of a loop with det != 1: their adjugate is det times the
    inverse, so the kernels divide by a det that varies on the circle."""

    M = 1024  # fine grid for the sample route, far above the loop orders

    def _residue(self, vals):
        # (1/2 pi i) contour f dlambda = mode -1 of f
        return (vals * circle_points(self.M)).mean()

    def _log_derivative(self, g):
        # dg g^-1 on the fine grid, g^-1 by np.linalg.inv of its samples
        return (derivative_lambda(g).samples(self.M)
                @ np.linalg.inv(g.samples(self.M)))

    def test_logderivs_match_sample_inverse(self):
        rng = np.random.default_rng(3)
        gamma = tf.exp_pointwise(reference_tangent(rng, traceless=False))
        assert unimodular_defect(gamma) > 1e-3
        u = tf.random_tangent(rng)
        # tr((dg g^-1)^2) of the minus factor has modes <= -4, so xi needs
        # a mode >= 3 for the residue to see it
        xi = MatrixLoop.from_modes({3: 1.0, 4: 0.5}, n=1, order=4)
        fac = birkhoff.factorize(gamma)

        w_minus = self._log_derivative(fac.g_minus)
        w_plus = self._log_derivative(fac.g_plus)
        gauge = -self._residue(
            np.trace(w_minus @ u.samples(self.M), axis1=1, axis2=2))
        xi_vals = xi.samples(self.M)[:, 0, 0]
        squares = [np.trace(w @ w, axis1=1, axis2=2) for w in (w_minus, w_plus)]
        diffeo = -0.5 * self._residue(xi_vals * (squares[0] - squares[1]))

        assert abs(ps.vacuum_logderiv_gauge(fac, u) - gauge) <= 1e-12
        assert abs(ps.vacuum_logderiv_diffeo(fac, xi) - diffeo) <= 1e-12

    def test_singular_sample_raises(self, rng):
        # det gamma = 1 + lambda vanishes at lambda = -1, a grid point
        gamma = MatrixLoop.from_modes({0: np.eye(2), 1: np.diag([1.0, 0.0])},
                                      order=4)
        u = reference_tangent(rng, band=4)
        xi = MatrixLoop.from_modes({1: 0.5, -1: 0.5}, n=1, order=4)
        with pytest.raises(tf.SingularLoopError):
            ps.hamiltonian_gauge(gamma, u)
        with pytest.raises(tf.SingularLoopError):
            ps.hamiltonian_diffeo(gamma, xi)
        with pytest.raises(tf.SingularLoopError):
            ps.reduced_symplectic(gamma, u, u, check_real=False)


class TestVacuumLogderivDiffeo:
    @pytest.mark.parametrize("order, xi_order",
                             [(16, 1), (32, 1), (32, 6), (16, 40)])
    def test_quadratic_routes_sample_on_their_exact_grid(self, order,
                                                         xi_order,
                                                         monkeypatch):
        # with det g constant tr((dg g^-1)^2) has modes -2N-2..2N-2, so
        # quadratic_variation is exact on M >= 2N + K + 2, which the grid
        # of the larger order meets for K above N too.  Both routes must
        # sample on that grid, and give the value of a grid four times as
        # fine
        rng = np.random.default_rng(order + xi_order)
        gamma = tf.random_unimodular_loop(rng, order=order)
        fac = birkhoff.factorize(gamma)
        xi = MatrixLoop(rng.standard_normal(2 * xi_order + 1)
                        + 1j * rng.standard_normal(2 * xi_order + 1))

        def routes():
            return np.array([ps.hamiltonian_diffeo(gamma, xi),
                             ps.vacuum_logderiv_diffeo(fac, xi)])

        real, grids = ps.quadratic_variation, []

        def recorded(g, xi_samples):
            grids.append(len(xi_samples))
            return real(g, xi_samples)

        monkeypatch.setattr(ps, "quadratic_variation", recorded)
        values = routes()
        assert grids == [default_sample_count(max(order, xi_order))] * 2
        assert min(grids) >= 2 * order + xi_order + 2
        grid = ps.default_sample_count
        monkeypatch.setattr(ps, "default_sample_count",
                            lambda n: 4 * grid(n))
        assert np.abs(routes() - values).max() <= 1e-13
        assert grids[2:] == [4 * grids[0]] * 2

    @pytest.mark.parametrize("route", ["hamiltonian_diffeo",
                                       "vacuum_logderiv_diffeo"])
    def test_matrix_xi_rejected(self, route):
        # read as its (0, 0) entry, diag(0.5, 7) lambda + diag(0.5, -3) / lambda
        # gave the value of the scalar 0.5 (lambda + 1/lambda)
        gamma = tf.random_unimodular_loop(np.random.default_rng(4))
        xi = MatrixLoop.from_modes({1: np.diag([0.5, 7.0]),
                                    -1: np.diag([0.5, -3.0])}, order=1)
        with pytest.raises(ValueError, match="must be a 1x1 loop, got 2x2"):
            getattr(ps, route)(gamma, xi)

    def test_zero_field(self, rng):
        gamma = tf.random_unimodular_loop(rng)
        xi = MatrixLoop.from_modes({}, n=1, order=2)
        assert ps.vacuum_logderiv_diffeo(gamma, xi) == 0.0

    def test_identity_base_point(self):
        xi = MatrixLoop.from_modes({2: 1.0}, n=1, order=2)
        assert abs(ps.vacuum_logderiv_diffeo(MatrixLoop.identity(), xi)) <= 1e-14

    def test_disc_holomorphic_field_drops_plus_term(self, rng):
        gamma = tf.random_unimodular_loop(rng)
        fac = birkhoff.factorize(gamma)
        xi = MatrixLoop.from_modes({2: 1.0}, n=1, order=2)  # lambda^2
        m = default_sample_count(fac.g_minus.order)  # the program's grid
        minus_term, plus_term = ps.quadratic_variation(
            np.stack([fac.g_minus.coeffs, fac.g_plus.coeffs]),
            xi.samples(m)[:, 0, 0])
        assert abs(2 * np.pi * plus_term) <= 1e-9
        total = ps.vacuum_logderiv_diffeo(fac, xi)
        assert abs(total - (-0.5 * minus_term)) <= 1e-12

    def test_rational_field_residue_oracle(self, rng):
        # xi(lambda) = 1/(lambda - z0) with the pole z0 outside the circle;
        # the counterclockwise integral picks up -2 pi i times the residue
        # at z0, so the value must equal +tr((dg g^-1)^2)(z0) / 2.
        gamma = tf.random_unimodular_loop(rng)
        fac = birkhoff.factorize(gamma)
        z0 = 2j
        order = 24
        modes = {k: -((1 / z0) ** (k + 1)) for k in range(order + 1)}
        xi = MatrixLoop.from_modes(modes, n=1, order=order)
        val = ps.vacuum_logderiv_diffeo(fac, xi)
        gm = fac.g_minus
        w = tf.multiply(derivative_lambda(gm), adjugate_inverse(gm))
        w = project(w, "strictly_negative")
        g_of_z = project(tf.multiply(w, w).trace(), "strictly_negative")
        assert abs(val - 0.5 * eval_point(g_of_z, z0)[0, 0]) <= 1e-8


class TestCurvature:
    def test_single_mode_pair_reproduces_cocycle(self, rng):
        gamma = tf.exp_pointwise(tf.random_tangent(rng, amplitude=0.3))
        u = tf.monomial(1, rng.standard_normal((2, 2)), order=4)
        v = tf.monomial(-1, rng.standard_normal((2, 2)), order=4)
        mismatch = ps.curvature_mismatch(gamma, u, v)
        assert abs(mismatch - (-1j) * ps.cocycle(u, v)) <= 1e-5

    def test_commuting_directions_flat(self, rng):
        gamma = tf.exp_pointwise(tf.random_tangent(rng, amplitude=0.3))
        A = rng.standard_normal((2, 2))
        u = tf.monomial(1, A, order=4)
        v = tf.monomial(2, A, order=4)
        assert abs(ps.curvature_mismatch(gamma, u, v)) <= 1e-5
