"""End-to-end checks for the KdV pipeline."""

import contextlib
import dataclasses
import io

import numpy as np
import pytest
from scipy.linalg import lapack

from tauforge import cli, kdv
from tauforge import phase_space as ps
from tauforge.birkhoff import (
    FACTOR_TOL,
    BigCellError,
    factorize,
    factorize_batch,
    factorize_slogdet,
)
from tauforge.loops import (
    DEFAULT_ORDER,
    TAIL_THRESHOLD,
    MatrixLoop,
    TailMassError,
    half_samples_to_coeffs,
    multiply,
    random_tangent,
    random_unimodular_loop,
    samples_to_coeffs,
)
from tauforge.quadrature import (
    _stencil_weights,
    cumulative_from,
    derivative,
    refine_path_cells,
)

from oracles import eval_theta, pullback_patching, q_contour, q_expansion


def minus_factors(seed, x, t):
    """Minus factors and big-cell flags of the translated loops at (x, t)."""
    minus, _, _, ok = factorize_batch(kdv.pullback_coeff_batch(seed, x, t))
    return minus, ok


def t_variation(seed, x, t):
    """The contour variation of log tau in the t direction at (x, t)."""
    minus, ok = minus_factors(seed, x.ravel(), t.ravel())
    assert ok.all()
    u_t = kdv._direction_u("t").samples(256)
    return ps.gauge_variation(minus, u_t).reshape(x.shape)


@pytest.fixture(scope="module")
def one_pole_seed():
    return kdv.seed_one_pole()


@pytest.fixture(scope="module")
def one_pole_grid(one_pole_seed):
    xs = np.linspace(-0.5, 0.5, 51)
    ts = np.linspace(-0.5, 0.5, 51)
    return kdv.tau_grid(one_pole_seed, xs, ts)


@pytest.fixture(scope="module")
def vacuum_grid():
    xs = np.linspace(-0.5, 0.5, 51)
    ts = np.linspace(-0.5, 0.5, 51)
    return kdv.tau_grid(kdv.seed_vacuum(), xs, ts)


class TestSeeds:
    def test_phi_squares_to_inverse_lambda(self):
        phi = kdv.phi_normal_form()
        lam = np.exp(1j * np.linspace(0.1, 6.0, 17))
        vals = eval_theta(phi, np.angle(lam))
        sq = vals @ vals
        want = np.eye(2) / lam[:, None, None]
        assert np.abs(sq - want).max() < 1e-12

    def test_one_pole_det_is_one_on_circle(self, one_pole_seed):
        vals = one_pole_seed.p0.samples(256)
        det = np.linalg.det(vals)
        assert np.abs(det - 1.0).max() < 1e-10

    def test_one_pole_mode_structure(self, one_pole_seed):
        a = one_pole_seed.pole
        c = one_pole_seed.strength
        n = np.array([[0.0, 0.0], [1.0, 0.0]])
        for k in (1, 2, 5):
            want = c * a ** (k - 1) * n
            assert np.abs(one_pole_seed.p0.coeff(-k) - want).max() < 1e-15
        assert np.array_equal(one_pole_seed.p0.coeff(0), np.eye(2))
        assert np.abs(one_pole_seed.p0.coeff(3)).max() == 0.0

    def test_pole_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            kdv.seed_one_pole(pole=1.5)
        with pytest.raises(ValueError):
            kdv.seed_one_pole(pole=0.0)

    def test_vacuum_seed_is_identity(self):
        seed = kdv.seed_vacuum()
        assert seed.label == "vacuum"
        assert np.array_equal(seed.p0.coeff(0), np.eye(2))
        assert np.abs(seed.p0.coeffs).sum() == 2.0


class TestPullback:
    def test_identity_at_origin(self):
        loop = pullback_patching(kdv.seed_vacuum(), 0.0, 0.0)
        ident = MatrixLoop.identity(order=loop.order)
        assert np.abs(loop.coeffs - ident.coeffs).max() < 1e-14

    def test_exp_factors_match_complex_cosh_sinh(self):
        lam = np.exp(2j * np.pi * np.arange(16) / 16)
        mu = np.stack([0.7 * lam - 0.4 * lam ** 2, 1e-5 * lam,
                       np.zeros_like(lam)])
        c, mu_s = kdv._exp_minus_mu_phi(mu, lam)
        sq = np.sqrt(mu * mu / lam)
        with np.errstate(invalid="ignore"):
            want_s = np.where(sq == 0, 1.0, np.sinh(sq) / sq)
        # the real-part route rounds differently: a few ulps of |C| ~ 1
        assert np.abs(c - np.cosh(sq)).max() < 1e-15
        assert np.abs(mu_s - mu * want_s).max() < 1e-15

    def test_branch_flip_is_identical(self):
        # the other square root of z = mu^2 / lam gives the same (C, mu S)
        lam = np.exp(2j * np.pi * np.arange(8) / 8)
        mu = 0.3 * lam + 0.1 * lam ** 2
        sq = -np.sqrt(mu * mu / lam)
        minus = (np.cosh(sq), mu * np.sinh(sq) / sq)
        for a, b in zip(kdv._exp_minus_mu_phi(mu, lam), minus):
            assert np.abs(a - b).max() < 1e-13

    def test_vacuum_family_has_no_negative_modes(self):
        # mu Phi is entire at v = 0, so the translated loop stays
        # holomorphic over the disc
        loop = pullback_patching(kdv.seed_vacuum(), 0.3, 0.1)
        neg = loop.coeffs[:loop.order]
        assert np.abs(neg).max() < 1e-12

    @pytest.mark.parametrize("order", [16, 32])
    def test_seed_of_higher_order_than_the_run(self, order):
        # P0 is sampled on a grid that holds all its modes, so a seed of
        # order 200 gives the order-64 seed's loops: |pole|^64 is below
        # rounding.  Both are real loops, on the half-circle route
        x, t = [0.1, -0.3], [0.05, 0.1]
        want = kdv.pullback_coeff_batch(kdv.seed_one_pole(order=64), x, t,
                                        order)
        got = kdv.pullback_coeff_batch(kdv.seed_one_pole(order=200), x, t,
                                       order)
        assert np.abs(got - want).max() <= 1e-15

    def test_tail_error_for_large_point(self, one_pole_seed):
        with pytest.raises(TailMassError):
            kdv.pullback_coeff_batch(one_pole_seed,
                                     np.array([0.0]), np.array([6.0]))


class TestPotential:
    def test_vacuum_q_vanishes(self):
        seed = kdv.seed_vacuum()
        for (x, t) in [(0.3, 0.0), (0.0, 0.4), (-0.5, 0.25)]:
            q = q_expansion(seed, x, t)
            assert abs(q) < 1e-8

    def test_two_formulas_agree(self, one_pole_seed):
        for (x, t) in [(0.0, 0.0), (0.3, 0.1), (-0.4, 0.35)]:
            qe = q_expansion(one_pole_seed, x, t)
            qc = q_contour(one_pole_seed, x, t)
            assert abs(qe - qc) < 1e-8

    def test_grid_matches_single_point(self, one_pole_seed, one_pole_grid):
        ix, it = 35, 20
        q = q_expansion(one_pole_seed, one_pole_grid.xs[ix],
                        one_pole_grid.ts[it])
        assert abs(one_pole_grid.q[ix, it] - q) < 1e-12

    def test_constant_right_factor_leaves_q_unchanged(self, one_pole_seed):
        c = np.array([[1.3, 0.7], [0.4, (1 + 0.7 * 0.4) / 1.3]])
        cloop = MatrixLoop.from_modes({0: c}, order=one_pole_seed.p0.order)
        gauged = kdv.KdVSeed(p0=multiply(one_pole_seed.p0, cloop),
                             label="gauged")
        for (x, t) in [(0.0, 0.0), (0.3, -0.2), (-0.4, 0.4)]:
            dq = q_expansion(one_pole_seed, x, t) - q_expansion(gauged, x, t)
            assert abs(dq) < 1e-9

    def test_q_is_real_for_real_seed(self, one_pole_grid):
        assert np.abs(one_pole_grid.q.imag).max() < 1e-12


class TestDerivativeHelpers:
    def test_central_weights(self):
        w1 = _stencil_weights(5, 2, 1)
        assert np.allclose(w1, [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12])
        w3 = _stencil_weights(7, 3, 3)
        assert np.allclose(w3, [1 / 8, -1.0, 13 / 8, 0.0, -13 / 8, 1.0, -1 / 8])

    def test_grid_derivative_fourth_order(self):
        errs = []
        for d in (0.02, 0.01):
            xs = np.arange(-0.5, 0.5 + d / 2, d)
            vals = np.sin(3 * xs)[:, None]
            got = derivative(vals, xs, 1)[:, 0]
            errs.append(np.abs(got - 3 * np.cos(3 * xs)).max())
        assert errs[0] < 5e-6
        assert errs[0] / errs[1] > 10  # 4th order shrink

    def test_third_derivative_edges_stay_accurate(self):
        d = 0.01
        xs = np.arange(-0.5, 0.5 + d / 2, d)
        vals = np.sin(3 * xs)[:, None]
        got = derivative(vals, xs, 3)[:, 0]
        assert np.abs(got + 27 * np.cos(3 * xs)).max() < 5e-5


class TestTauGrid:
    def test_normalized_at_origin(self, one_pole_grid):
        assert one_pole_grid.log_tau[25, 25] == 0.0

    def test_vacuum_log_tau_vanishes(self, vacuum_grid):
        assert np.abs(vacuum_grid.log_tau).max() < 1e-7
        assert np.abs(vacuum_grid.q).max() < 1e-8

    def test_headline_identity(self, one_pole_grid):
        # d/dx of the path-integrated log tau reproduces q
        fd = derivative(one_pole_grid.log_tau, one_pole_grid.xs, 1)
        assert np.abs(fd - one_pole_grid.q).max() < 1e-5

    def test_time_leg_matches_contour_variation(self, one_pole_seed,
                                                one_pole_grid):
        g = one_pole_grid
        vt = t_variation(one_pole_seed,
                         *np.meshgrid(g.xs, g.ts, indexing="ij"))
        fd = derivative(g.log_tau, g.ts, 1, along=1)
        assert np.abs(fd - vt).max() < 1e-5

    def test_mixed_partials_agree(self, one_pole_seed, one_pole_grid):
        g = one_pole_grid
        vt = t_variation(one_pole_seed,
                         *np.meshgrid(g.xs, g.ts, indexing="ij"))
        mix_tq = derivative(g.q, g.ts, 1, along=1)
        mix_xt = derivative(vt, g.xs, 1)
        assert np.abs(mix_tq - mix_xt).max() < 1e-6

    def test_u_is_scaled_x_derivative_of_q(self, one_pole_grid):
        g = one_pole_grid
        want = -2.0 * derivative(g.q, g.xs, 1)
        assert np.abs(g.u - want).max() == 0.0

    def test_grid_validation(self, one_pole_seed):
        with pytest.raises(ValueError):
            kdv.tau_grid(one_pole_seed, [0.0], [0.0, 0.1])
        with pytest.raises(ValueError):
            kdv.tau_grid(one_pole_seed, [0.0, 0.1], [0.1, 0.0])

    def test_short_x_axis_rejected_before_factoring(self, one_pole_seed,
                                                    monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pulled back a point of a rejected grid")

        monkeypatch.setattr(kdv, "pullback_coeff_batch", refuse)
        with pytest.raises(ValueError, match="x axis needs at least 5"):
            kdv.tau_grid(one_pole_seed, np.linspace(-0.1, 0.1, 4),
                         np.linspace(-0.1, 0.1, 7))

    def test_path_through_bad_cell_raises(self):
        strong = kdv.seed_one_pole(strength=1.0)
        with pytest.raises(kdv.PathCrossesBadCellError):
            kdv.tau_grid(strong, np.linspace(-0.3, -0.2, 5),
                         np.linspace(0.5, 1.2, 8))

    def test_off_cell_node_is_a_big_cell_error(self):
        # the CLI maps exit 4 from BigCellError alone
        strong = kdv.seed_one_pole(strength=1.0)
        with pytest.raises(BigCellError, match=r"\(x, t\) = \(-0.3000, "
                           r"1.0000\) is off the big cell"):
            kdv.tau_grid(strong, np.linspace(-0.3, -0.2, 5),
                         np.linspace(0.5, 1.2, 8))

    def test_path_across_det_zero_raises(self):
        # every node factors, but each t leg from t = 0 crosses det T_N = 0
        # near t = 1.0 with det > 0 below and < 0 above
        strong = kdv.seed_one_pole(strength=1.0)
        with pytest.raises(kdv.PathCrossesBadCellError):
            kdv.tau_grid(strong, np.linspace(-0.3, -0.2, 7),
                         np.linspace(1.2, 2.0, 8))

    def test_nonuniform_axes_rejected(self, one_pole_seed):
        axis = np.linspace(-0.5, 0.5, 11)
        bent = axis + 0.01 * axis ** 2
        with pytest.raises(ValueError, match="evenly spaced"):
            kdv.tau_grid(one_pole_seed, bent, axis)
        with pytest.raises(ValueError, match="evenly spaced"):
            kdv.tau_grid(one_pole_seed, axis, bent)

    def test_telemetry_fields(self, one_pole_grid):
        # the 51 x 51 nodes hold the origin and the x leg at t = 0
        assert one_pole_grid.points_factored == 51 * 51
        assert 0.0 < one_pole_grid.min_abs_det <= 1.0 + 1e-12


class TestResidual:
    def test_one_pole_residual_small(self, one_pole_grid):
        assert kdv.kdv_residual(one_pole_grid) < 1e-4

    def test_vacuum_residual_at_floor(self, vacuum_grid):
        assert kdv.kdv_residual(vacuum_grid) < 1e-7

    def test_corrupted_field_detected(self, one_pole_grid):
        bad = dataclasses.replace(
            one_pole_grid,
            u=one_pole_grid.u + 1e-3 * (one_pole_grid.xs ** 2)[:, None])
        assert kdv.kdv_residual(bad) > 1e-4

    def test_rejects_nonuniform_axes(self, one_pole_grid):
        g = one_pole_grid
        bent = dataclasses.replace(g, ts=g.ts + 0.01 * g.ts ** 2)
        with pytest.raises(ValueError, match="evenly spaced"):
            kdv.kdv_residual(bent)
        bent = dataclasses.replace(g, xs=g.xs + 0.01 * g.xs ** 2)
        with pytest.raises(ValueError, match="evenly spaced"):
            kdv.kdv_residual(bent)

    def test_rejects_tiny_grids(self, one_pole_grid):
        small = dataclasses.replace(
            one_pole_grid, u=one_pole_grid.u[:9, :],
            xs=one_pole_grid.xs[:9])
        with pytest.raises(ValueError):
            kdv.kdv_residual(small)


class TestOneContourKernel:
    """q_contour, the path cross-check and the phase-space formulas linear
    in the direction evaluate the contour formula through
    phase_space.gauge_variation; the quadratic ones go through
    phase_space.quadratic_variation."""

    @pytest.fixture
    def bumped_kernel(self, monkeypatch):
        real = ps.gauge_variation

        def bumped(minus, u_samples):
            return real(minus, u_samples) + 1e-5

        # vacuum_logderiv_gauge looks the kernel up in phase_space, the
        # cross-check in kdv
        monkeypatch.setattr(ps, "gauge_variation", bumped)
        monkeypatch.setattr(kdv, "gauge_variation", bumped)

    def test_q_contour_moves_with_the_kernel(self, one_pole_seed,
                                             bumped_kernel):
        assert abs(q_contour(one_pole_seed, 0.3, 0.1)
                   - q_expansion(one_pole_seed, 0.3, 0.1)) > 1e-8

    def test_crosscheck_fails_with_the_kernel(self, bumped_kernel, capsys):
        # the bump integrates to 8e-7 over a 0.08-long cell, above the
        # default 1e-7 cross-check bound
        assert cli.main(["kdv", "--grid", "-0.4:0.4:11"]) \
            == cli.EXIT_CHECK_FAILED
        assert "[FAIL] logtau_path_crosscheck" in capsys.readouterr().out

    def test_phase_space_moves_with_the_kernel(self, bumped_kernel,
                                               monkeypatch, rng):
        gamma = random_unimodular_loop(rng)
        u, v = (random_tangent(rng, band=4) for _ in range(2))

        def values():
            return np.array([
                ps.hamiltonian_gauge(gamma, u),
                ps.reduced_symplectic(gamma, u, v, check_real=False),
                ps.poisson_anomaly(gamma, u, v),
                ps.vacuum_logderiv_gauge(gamma, u),
                ps.curvature_mismatch(gamma, u, v)])

        bumped = values()
        monkeypatch.undo()  # lift the fixture's bump, then read the same calls
        assert (np.abs(bumped - values()) > 1e-8).all()

    def test_diffeo_formulas_move_with_the_quadratic_kernel(self,
                                                            monkeypatch, rng):
        gamma = random_unimodular_loop(rng)
        xi = MatrixLoop.from_modes({2: 1.0}, n=1, order=2)  # lambda^2

        def values():
            return np.array([ps.hamiltonian_diffeo(gamma, xi),
                             ps.vacuum_logderiv_diffeo(gamma, xi)])

        plain = values()
        real = ps.quadratic_variation
        # a relative bump: a constant one cancels between g_minus and g_plus
        monkeypatch.setattr(ps, "quadratic_variation",
                            lambda g, xi_samples: real(g, xi_samples) * 1.001)
        assert (np.abs(values() - plain) > 1e-3 * np.abs(plain) / 2).all()


def path_route_log_tau(seed, xs, ts, cols, tol_path=1e-7):
    """log tau at columns xs[cols] by the contour formula, path-integrated
    with Gauss-Legendre cells along (0, 0) -> (x, 0) -> (x, t)."""
    u_dir = {d: kdv._direction_u(d).samples(256) for d in ("x", "t")}

    def variation(direction, x, t):
        minus, ok = minus_factors(seed, x, t)
        assert ok.all()
        return ps.gauge_variation(minus, u_dir[direction])

    x_breaks = np.union1d(xs, [0.0])
    t_breaks = np.union1d(ts, [0.0])
    vals_x, _, _ = refine_path_cells(
        lambda pts, c: variation("x", pts, np.zeros_like(pts)),
        np.column_stack([x_breaks[:-1], x_breaks[1:]]), 1, tol_path)

    def t_leg(pts, c):
        x, t = np.broadcast_arrays(xs[cols][c], pts)
        return variation("t", x.ravel(), t.ravel()).reshape(x.shape)

    vals_t, _, _ = refine_path_cells(
        t_leg, np.column_stack([t_breaks[:-1], t_breaks[1:]]), len(cols),
        tol_path)
    cum_x = cumulative_from(x_breaks, vals_x, 0.0)[0]
    cum_t = cumulative_from(t_breaks, vals_t, 0.0)
    return (cum_x[np.searchsorted(x_breaks, xs[cols])][:, None]
            + cum_t[:, np.searchsorted(t_breaks, ts)])


class TestDeterminantRoute:
    @pytest.mark.parametrize("seed, half_width, count", [
        (kdv.seed_one_pole(), 1.0, 51),
        (kdv.seed_vacuum(), 1.0, 51),
        (kdv.seed_one_pole(pole=0.2 + 0.15j), 0.5, 21),
    ], ids=["one_pole", "vacuum", "complex_pole"])
    def test_matches_path_route(self, seed, half_width, count):
        axis = np.linspace(-half_width, half_width, count)
        grid = kdv.tau_grid(seed, axis, axis)
        cols = np.array([0, count // 2, count - 1])
        want = path_route_log_tau(seed, axis, axis, cols)
        assert np.abs(grid.log_tau[cols] - want).max() <= 1e-10

    def test_complex_pole_has_imaginary_log_tau(self):
        axis = np.linspace(-0.5, 0.5, 11)
        grid = kdv.tau_grid(kdv.seed_one_pole(pole=0.2 + 0.15j), axis, axis)
        assert np.abs(grid.log_tau.imag).max() > 1e-3

    def test_crosscheck_detects_perturbed_cell(self, one_pole_seed,
                                               one_pole_grid):
        worst, _ = kdv.path_crosscheck(one_pole_grid)
        assert worst <= 1e-10
        log_tau = one_pole_grid.log_tau.copy()
        log_tau[-1, 10] += 1e-6
        bad = dataclasses.replace(one_pole_grid, log_tau=log_tau)
        worst, _ = kdv.path_crosscheck(bad)
        assert worst > 1e-7

    def test_crosscheck_factors_nothing(self, monkeypatch):
        # the benchmark's kdv_wide grid, at the middle of its preset range:
        # the cross-check reads the minus factors tau_grid kept, so no
        # pullback, factorization or refinement may run after tau_grid
        seed = kdv.seed_one_pole(pole=0.25, strength=0.33)
        grid = kdv.tau_grid(seed, np.linspace(-1, 1, 41),
                            np.linspace(-0.15, 0.15, 7))

        def forbidden(*args, **kwargs):
            raise AssertionError("path_crosscheck factored a loop")

        for name in ("pullback_coeff_batch", "factorize_batch",
                     "factorize_slogdet", "refine_path_cells"):
            monkeypatch.setattr(kdv, name, forbidden)
        worst, points = kdv.path_crosscheck(grid)
        assert worst <= 1e-9
        assert points == (8, 7)

    @staticmethod
    def _count_solves(monkeypatch, seed, xs, ts):
        """tau_grid on the axes, and the LAPACK and numpy solves it ran."""
        calls = dict.fromkeys(("dgesv", "zgesv", "slogdet", "solve"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("dgesv", "zgesv"):
            monkeypatch.setattr(lapack, name,
                                counted(name, getattr(lapack, name)))
        for name in ("slogdet", "solve"):
            monkeypatch.setattr(np.linalg, name,
                                counted(name, getattr(np.linalg, name)))
        return kdv.tau_grid(seed, xs, ts), calls

    def test_tau_grid_factors_each_point_once(self, monkeypatch):
        # one LU per point gives both g_plus and det T_N; a second
        # factorization for the determinant fails here.  A real seed
        # translates to real loops, which take the real LU
        seed = kdv.seed_one_pole(pole=0.25, strength=0.33)
        grid, calls = self._count_solves(monkeypatch, seed,
                                         np.linspace(-1, 1, 41),
                                         np.linspace(-0.15, 0.15, 7))
        assert grid.points_factored == 287
        assert calls == {"dgesv": 287, "zgesv": 0, "slogdet": 0, "solve": 0}

    def test_complex_pole_factors_each_point_once(self, monkeypatch):
        axis = np.linspace(-0.5, 0.5, 11)
        grid, calls = self._count_solves(
            monkeypatch, kdv.seed_one_pole(pole=0.2 + 0.15j), axis, axis)
        assert grid.points_factored == 121
        assert calls == {"dgesv": 0, "zgesv": 121, "slogdet": 0, "solve": 0}

    def test_real_seed_takes_the_real_path(self):
        # a real seed's loops have real coefficients: det T_N is real, so
        # log tau has no imaginary rounding noise, and the factors are real
        axis = np.linspace(-1, 1, 21)
        for seed in (kdv.seed_one_pole(), kdv.seed_vacuum()):
            grid = kdv.tau_grid(seed, axis, axis)
            assert not grid.log_tau.imag.any()
            assert grid.minus.dtype == np.float64

    def test_tail_mass_error_names_the_point(self):
        # at order 16, 13 of the default grid's nodes drop more than
        # TAIL_THRESHOLD of their mass; the corner (1, 1) is the worst.
        # The sweep's first node (-1, -1) fails too, so a tail check made
        # block by block would stop in the first block and name it
        seed = kdv.seed_one_pole(order=16)
        with pytest.raises(TailMassError, match=r"1\.226e-08 in loop 0"):
            kdv.pullback_coeff_batch(seed, [-1.0], [-1.0], 16)
        axis = np.linspace(-1, 1, 51)
        with pytest.raises(TailMassError, match=r"at \(x, t\) = "
                           r"\(1\.0000, 1\.0000\) exceeds 1\.0e-08") as err:
            kdv.tau_grid(seed, axis, axis, order=16)
        assert err.value.loop == 51 * 51 - 1
        assert err.value.mass == pytest.approx(1.445e-8, rel=1e-3)


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestStreamedSweep:
    # the benchmark's kdv_wide grid: its 287 nodes fill four 64-point
    # blocks and part of a fifth
    WIDE = [a.ravel() for a in np.meshgrid(np.linspace(-1, 1, 41),
                                           np.linspace(-0.15, 0.15, 7),
                                           indexing="ij")]

    @pytest.mark.parametrize("count", [1, 64, 65, 287])
    @pytest.mark.parametrize("seed", [
        kdv.seed_one_pole(pole=0.2505, strength=0.348),
        kdv.seed_one_pole(pole=0.2 + 0.15j),
    ], ids=["real", "complex"])
    def test_sweep_equals_the_whole_stack(self, seed, count):
        x, t = (a[:count] for a in self.WIDE)
        coeffs = kdv.pullback_coeff_batch(seed, x, t)
        # the pullback transformed whole, as before it streamed
        real = not seed.p0.coeffs.imag.any()
        to_coeffs = half_samples_to_coeffs if real else samples_to_coeffs
        whole = to_coeffs(kdv._pullback_values(seed, x, t, DEFAULT_ORDER,
                                               half=real),
                          DEFAULT_ORDER, TAIL_THRESHOLD)
        assert same_bits(coeffs, whole)
        minus, _, residuals, ok, sign, logabs = factorize_slogdet(coeffs)
        swept = kdv._node_sweep(seed, x, t, DEFAULT_ORDER, FACTOR_TOL)
        for got, want in zip(swept, (minus, ok, residuals, sign, logabs)):
            assert same_bits(got, want)

    def test_grid_minus_is_a_view_of_the_sweep(self):
        # the nodes lead the sweep, so the grid keeps no second copy of
        # their minus factors; x = 0 and t = 0 are no nodes here, so the
        # t = 0 row and the origin follow them
        grid = kdv.tau_grid(kdv.seed_one_pole(), np.linspace(0.1, 0.6, 11),
                            np.linspace(0.1, 0.4, 7))
        assert grid.points_factored == 11 * 7 + 11 + 1
        assert grid.minus.base is not None
        assert grid.minus.base.shape[0] == grid.points_factored

    def test_sweep_memory_does_not_grow_with_the_nodes(self, peak_mb,
                                                       tmp_path):
        # pulled back all at once, every node's samples, spectrum and
        # tail temporaries were alive together: the default run's traced
        # peak was 101.9 MiB, and a node added 39 KiB to it.  Streamed,
        # the run peaks at 16.7 MiB and a node adds 4.8 KiB.  A first run
        # fills the caches a run keeps.
        def run(*grid):
            argv = ["kdv", *grid, "--out", str(tmp_path)]
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        run("--grid=-1:1:11")
        small_code, small = peak_mb(run, "--grid=-1:1:31")
        code, default = peak_mb(run)
        assert small_code == code == cli.EXIT_PASS
        assert default <= 25.0
        assert (default - small) * 2 ** 10 / (51 ** 2 - 31 ** 2) <= 8.0


class TestFactorsOnFamily:
    def test_minus_factor_solves_loop(self, one_pole_seed):
        # spot check: the factorization really reconstructs the
        # translated loop at a generic point
        loop = pullback_patching(one_pole_seed, 0.2, -0.3)
        factors = factorize(loop)
        assert factors.residual < 1e-9
