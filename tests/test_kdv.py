"""End-to-end checks for the KdV pipeline."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import lapack

from tauforge import cli, kdv
from tauforge import phase_space as ps
from tauforge.birkhoff import factorize, factorize_batch
from tauforge.loops import MatrixLoop, TailMassError, multiply
from tauforge.quadrature import cumulative_from, refine_path_cells
from tauforge.twistor import SpacetimePoint


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
        vals = phi.eval(np.angle(lam))
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
        loop = kdv.pullback_patching(kdv.seed_vacuum(), SpacetimePoint())
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
        lam = np.exp(2j * np.pi * np.arange(8) / 8)
        mu = 0.3 * lam + 0.1 * lam ** 2
        plus = kdv._exp_minus_mu_phi(mu, lam, branch=1.0)
        minus = kdv._exp_minus_mu_phi(mu, lam, branch=-1.0)
        for a, b in zip(plus, minus):  # (C, mu S)
            assert np.abs(a - b).max() < 1e-13

    def test_vacuum_family_has_no_negative_modes(self):
        # mu Phi is entire at v = 0, so the translated loop stays
        # holomorphic over the disc
        loop = kdv.pullback_patching(kdv.seed_vacuum(),
                                     SpacetimePoint(x=0.3, t=0.1))
        neg = loop.coeffs[:loop.order]
        assert np.abs(neg).max() < 1e-12

    def test_tail_error_for_large_point(self, one_pole_seed):
        with pytest.raises(TailMassError):
            kdv.pullback_coeff_batch(one_pole_seed,
                                     np.array([0.0]), np.array([6.0]))


class TestPotential:
    def test_vacuum_q_vanishes(self):
        seed = kdv.seed_vacuum()
        for (x, t) in [(0.3, 0.0), (0.0, 0.4), (-0.5, 0.25)]:
            q = kdv.q_expansion(seed, SpacetimePoint(x=x, t=t))
            assert abs(q) < 1e-8

    def test_two_formulas_agree(self, one_pole_seed):
        for (x, t) in [(0.0, 0.0), (0.3, 0.1), (-0.4, 0.35)]:
            p = SpacetimePoint(x=x, t=t)
            qe = kdv.q_expansion(one_pole_seed, p)
            qc = kdv.q_contour(one_pole_seed, p)
            assert abs(qe - qc) < 1e-8

    def test_grid_matches_single_point(self, one_pole_seed, one_pole_grid):
        ix, it = 35, 20
        p = SpacetimePoint(x=one_pole_grid.xs[ix], t=one_pole_grid.ts[it])
        q = kdv.q_expansion(one_pole_seed, p)
        assert abs(one_pole_grid.q[ix, it] - q) < 1e-12

    def test_constant_right_factor_leaves_q_unchanged(self, one_pole_seed):
        c = np.array([[1.3, 0.7], [0.4, (1 + 0.7 * 0.4) / 1.3]])
        cloop = MatrixLoop.from_modes({0: c}, order=one_pole_seed.p0.order)
        gauged = kdv.KdVSeed(p0=multiply(one_pole_seed.p0, cloop),
                             label="gauged")
        for (x, t) in [(0.0, 0.0), (0.3, -0.2), (-0.4, 0.4)]:
            p = SpacetimePoint(x=x, t=t)
            dq = kdv.q_expansion(one_pole_seed, p) - kdv.q_expansion(gauged, p)
            assert abs(dq) < 1e-9

    def test_q_is_real_for_real_seed(self, one_pole_grid):
        assert np.abs(one_pole_grid.q.imag).max() < 1e-12


class TestDerivativeHelpers:
    def test_central_weights(self):
        w1 = kdv._fornberg_weights(np.arange(-2, 3), 1)
        assert np.allclose(w1, [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12])
        w3 = kdv._fornberg_weights(np.arange(-3, 4), 3)
        assert np.allclose(w3, [1 / 8, -1.0, 13 / 8, 0.0, -13 / 8, 1.0, -1 / 8])

    def test_grid_derivative_fourth_order(self):
        errs = []
        for d in (0.02, 0.01):
            xs = np.arange(-0.5, 0.5 + d / 2, d)
            vals = np.sin(3 * xs)[:, None]
            got = kdv._derivative_on_grid(vals, d, 1, axis=0)[:, 0]
            errs.append(np.abs(got - 3 * np.cos(3 * xs)).max())
        assert errs[0] < 5e-6
        assert errs[0] / errs[1] > 10  # 4th order shrink

    def test_third_derivative_edges_stay_accurate(self):
        d = 0.01
        xs = np.arange(-0.5, 0.5 + d / 2, d)
        vals = np.sin(3 * xs)[:, None]
        got = kdv._derivative_on_grid(vals, d, 3, axis=0)[:, 0]
        assert np.abs(got + 27 * np.cos(3 * xs)).max() < 5e-5


class TestTauGrid:
    def test_normalized_at_origin(self, one_pole_grid):
        assert one_pole_grid.log_tau[25, 25] == 0.0

    def test_vacuum_log_tau_vanishes(self, vacuum_grid):
        assert np.abs(vacuum_grid.log_tau).max() < 1e-7
        assert np.abs(vacuum_grid.q).max() < 1e-8

    def test_headline_identity(self, one_pole_grid):
        # d/dx of the path-integrated log tau reproduces q
        dx = float(one_pole_grid.xs[1] - one_pole_grid.xs[0])
        fd = kdv._derivative_on_grid(one_pole_grid.log_tau, dx, 1, axis=0)
        assert np.abs(fd - one_pole_grid.q).max() < 1e-5

    def test_time_leg_matches_contour_variation(self, one_pole_seed,
                                                one_pole_grid):
        g = one_pole_grid
        dt = float(g.ts[1] - g.ts[0])
        vt = t_variation(one_pole_seed,
                         *np.meshgrid(g.xs, g.ts, indexing="ij"))
        fd = kdv._derivative_on_grid(g.log_tau, dt, 1, axis=1)
        assert np.abs(fd - vt).max() < 1e-5

    def test_mixed_partials_agree(self, one_pole_seed, one_pole_grid):
        g = one_pole_grid
        dx = float(g.xs[1] - g.xs[0])
        dt = float(g.ts[1] - g.ts[0])
        vt = t_variation(one_pole_seed,
                         *np.meshgrid(g.xs, g.ts, indexing="ij"))
        mix_tq = kdv._derivative_on_grid(g.q, dt, 1, axis=1)
        mix_xt = kdv._derivative_on_grid(vt, dx, 1, axis=0)
        assert np.abs(mix_tq - mix_xt).max() < 1e-6

    def test_all_nodes_in_big_cell(self, one_pole_grid):
        assert one_pole_grid.bigcell.all()

    def test_u_is_scaled_x_derivative_of_q(self, one_pole_grid):
        g = one_pole_grid
        dx = float(g.xs[1] - g.xs[0])
        want = -2.0 * kdv._derivative_on_grid(g.q, dx, 1, axis=0)
        assert np.abs(g.u - want).max() == 0.0

    def test_grid_validation(self, one_pole_seed):
        with pytest.raises(ValueError):
            kdv.tau_grid(one_pole_seed, [0.0], [0.0, 0.1])
        with pytest.raises(ValueError):
            kdv.tau_grid(one_pole_seed, [0.0, 0.1], [0.1, 0.0])

    def test_path_through_bad_cell_raises(self):
        strong = kdv.seed_one_pole(strength=1.0)
        with pytest.raises(kdv.PathCrossesBadCellError):
            kdv.tau_grid(strong, np.linspace(-0.3, -0.2, 3),
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
    """q_contour and the path cross-check both evaluate the contour
    formula through phase_space.gauge_variation."""

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
        p = SpacetimePoint(x=0.3, t=0.1)
        assert abs(kdv.q_contour(one_pole_seed, p)
                   - kdv.q_expansion(one_pole_seed, p)) > 1e-8

    def test_crosscheck_fails_with_the_kernel(self, bumped_kernel, capsys):
        # the bump integrates to 8e-7 over a 0.08-long cell, above the
        # default 1e-7 cross-check bound
        assert cli.main(["kdv", "--grid", "-0.4:0.4:11"]) \
            == cli.EXIT_CHECK_FAILED
        assert "[FAIL] logtau_path_crosscheck" in capsys.readouterr().out


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
    vals_t, _, _ = refine_path_cells(
        lambda pts, c: variation("t", xs[cols][c], pts),
        np.column_stack([t_breaks[:-1], t_breaks[1:]]), len(cols), tol_path)
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
        worst, levels = kdv.path_crosscheck(one_pole_seed, one_pole_grid)
        assert worst <= 1e-10
        assert min(levels) >= 1
        log_tau = one_pole_grid.log_tau.copy()
        log_tau[-1, 10] += 1e-6
        bad = dataclasses.replace(one_pole_grid, log_tau=log_tau)
        worst, _ = kdv.path_crosscheck(one_pole_seed, bad)
        assert worst > 1e-7

    def test_crosscheck_evaluation_budget(self, monkeypatch):
        # the benchmark's kdv_wide grid, at the middle of its preset range
        seed = kdv.seed_one_pole(pole=0.25, strength=0.33)
        grid = kdv.tau_grid(seed, np.linspace(-1, 1, 41),
                            np.linspace(-0.15, 0.15, 7))
        points = []

        def counted(eval_fn, *args, **kwargs):
            def eval_counted(pts, cols):
                points.append(len(pts))
                return eval_fn(pts, cols)
            return refine_path_cells(eval_counted, *args, **kwargs)

        monkeypatch.setattr(kdv, "refine_path_cells", counted)
        worst, _ = kdv.path_crosscheck(seed, grid)
        assert worst <= 5.2e-14
        assert sum(points) <= 150

    def test_tau_grid_factors_each_point_once(self, monkeypatch):
        # one LU per point gives both g_plus and det T_N; a second
        # factorization for the determinant fails here
        calls = {"zgesv": 0, "slogdet": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lapack, "zgesv", counted("zgesv", lapack.zgesv))
        for name in ("slogdet", "solve"):
            monkeypatch.setattr(np.linalg, name,
                                counted(name, getattr(np.linalg, name)))
        seed = kdv.seed_one_pole(pole=0.25, strength=0.33)
        grid = kdv.tau_grid(seed, np.linspace(-1, 1, 41),
                            np.linspace(-0.15, 0.15, 7))
        assert grid.points_factored == 287
        assert calls == {"zgesv": 287, "slogdet": 0, "solve": 0}


class TestFactorsOnFamily:
    def test_minus_factor_solves_loop(self, one_pole_seed):
        # spot check: the factorization really reconstructs the
        # translated loop at a generic point
        loop = kdv.pullback_patching(one_pole_seed,
                                     SpacetimePoint(x=0.2, t=-0.3))
        factors = factorize(loop)
        assert factors.residual < 1e-9
