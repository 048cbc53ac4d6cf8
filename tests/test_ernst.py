"""Ernst pipeline: solution presets, d log tau routes, tau fields."""

import numpy as np
import pytest

from tauforge import ernst
from tauforge.twistor import ernst_frame

from oracles import shear_solution, weyl_log_tau

POINTS = [(0.3, -0.4), (1.0, 0.0), (2.7, 1.1)]
KASNER_SWEEP = [0.0, 0.3, 0.7, 1.2]


@pytest.fixture(scope="module")
def axes():
    return np.linspace(0.5, 2.0, 16), np.linspace(-0.5, 0.5, 11)


@pytest.fixture(scope="module")
def source():
    return ernst.point_source(0.8, -1.5)


class TestSolutions:
    def test_flat_residual_is_exactly_zero(self):
        sol = ernst.flat()
        for r, z in POINTS:
            assert ernst.field_residual(sol, r, z) == 0.0

    def test_kasner_residual_cancels(self):
        for a in KASNER_SWEEP:
            sol = ernst.kasner(a)
            for r, z in POINTS:
                assert ernst.field_residual(sol, r, z) < 1e-12

    def test_point_source_is_harmonic(self, source):
        for r, z in POINTS:
            assert ernst.field_residual(source, r, z) < 1e-10

    def test_non_solution_is_detected(self):
        sol = ernst.non_solution()
        for r, z in POINTS:
            # residual is sqrt(2)/r for psi = r
            assert ernst.field_residual(sol, r, z) > 0.5

    def test_field_residual_vectorizes(self, source):
        rs = np.array([0.5, 1.0, 1.5])
        zs = np.array([0.0, 0.2, -0.3])
        batch = ernst.field_residual(source, rs, zs)
        single = [ernst.field_residual(source, r, z) for r, z in zip(rs, zs)]
        assert np.allclose(batch, single, rtol=0, atol=1e-15)


class TestDlogtau:
    def test_flat_value(self):
        sol = ernst.flat()
        for r in (0.5, 1.0, 2.0):
            expected = -(1j * r / 2) * 2 * (1j / (2 * r)) ** 2
            assert abs(ernst.dlogtau(sol, r, 0.3, "wbar") - expected) < 1e-15

    def test_kasner_radial_and_axial_derivatives(self):
        for a in KASNER_SWEEP:
            sol = ernst.kasner(a)
            for r, z in POINTS:
                dw = ernst.dlogtau(sol, r, z, "w")
                dwb = ernst.dlogtau(sol, r, z, "wbar")
                d_r = 1j * (dw - dwb)
                assert abs(d_r - (1 + a ** 2) / (2 * r)) < 1e-10
                assert abs(dw + dwb) < 1e-12

    def test_conjugation_symmetry(self, source):
        for sol in (ernst.kasner(0.7), source, ernst.non_solution()):
            for r, z in POINTS:
                dw = ernst.dlogtau(sol, r, z, "w")
                dwb = ernst.dlogtau(sol, r, z, "wbar")
                assert abs(dw - np.conj(dwb)) < 1e-12

    def test_path_integrands_are_the_wirtinger_pair(self, source):
        # the r and z integrands, written in psi_r and psi_z, against the
        # Wirtinger pair +-(i r / 2) tr((J^-1 dJ)^2) of the trace squares
        for sol in (ernst.kasner(0.7), source, ernst.non_solution(),
                    shear_solution()):
            for r, z in POINTS:
                dw = 0.5j * r * ernst._trace_square(sol, r, z, "w")
                dwb = -0.5j * r * ernst._trace_square(sol, r, z, "wbar")
                assert abs(ernst._d_r_logtau(sol, r, z) - 1j * (dw - dwb)) \
                    < 1e-14
                assert abs(ernst._d_z_logtau(sol, r, z) - (dw + dwb)) < 1e-14

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            ernst.dlogtau(ernst.flat(), 1.0, 0.0, "x")

    def test_matches_symbolic_pipeline(self, source):
        sympy = pytest.importorskip("sympy")
        r, z = sympy.symbols("r z", positive=True)
        cases = [
            (ernst.kasner(0.7), sympy.Rational(7, 10) * sympy.log(r)),
            (source, sympy.Rational(4, 5)
             / sympy.sqrt(r ** 2 + (z + sympy.Rational(3, 2)) ** 2)),
        ]
        for sol, psi in cases:
            j_top = r * sympy.exp(psi)
            j_bot = -r * sympy.exp(-psi)
            for direction, s in (("w", -1), ("wbar", 1)):
                def wirt(f):
                    return (sympy.diff(f, z) + s * sympy.I * sympy.diff(f, r)) / 2
                trace_sq = (wirt(j_top) / j_top) ** 2 + (wirt(j_bot) / j_bot) ** 2
                sign = 1 if direction == "w" else -1
                fn = sympy.lambdify((r, z), sign * sympy.I * r / 2 * trace_sq)
                for rv, zv in ((0.6, -0.3), (1.3, 0.2), (2.1, 0.9)):
                    got = ernst.dlogtau(sol, rv, zv, direction)
                    assert abs(got - complex(fn(rv, zv))) < 1e-12

    def test_kasner_closed_form_symbolic(self):
        sympy = pytest.importorskip("sympy")
        r, z, a = sympy.symbols("r z a", positive=True)
        psi = a * sympy.log(r)
        j_top = r * sympy.exp(psi)
        j_bot = -r * sympy.exp(-psi)

        def dlog(f, s):
            d = (sympy.diff(f, z) + s * sympy.I * sympy.diff(f, r)) / 2
            return d / f

        t_w = dlog(j_top, -1) ** 2 + dlog(j_bot, -1) ** 2
        t_wb = dlog(j_top, 1) ** 2 + dlog(j_bot, 1) ** 2
        d_w = sympy.I * r / 2 * t_w
        d_wb = -sympy.I * r / 2 * t_wb
        radial = sympy.I * (d_w - d_wb)
        assert sympy.simplify(radial - (1 + a ** 2) / (2 * r)) == 0
        assert sympy.simplify(d_w + d_wb) == 0


class TestResidueRoute:
    def test_frame_residue_value(self):
        for r in (0.5, 2.0):
            coeff, pole = ernst_frame(r, "wbar")
            assert pole == 1j
            assert abs(coeff.residue(pole) - 1j / r) < 1e-14

    def test_route_agreement(self, source):
        for sol in (ernst.flat(), ernst.kasner(0.7), source):
            for r, z in POINTS:
                assert ernst.residue_check(sol, r, z) < 1e-12


class TestTauField:
    def test_kasner_closed_form(self, axes):
        rs, zs = axes
        for a in KASNER_SWEEP:
            field = ernst.logtau_field(ernst.kasner(a), rs, zs)
            closed = ((1 + a ** 2) / 2) * np.log(rs)[:, None]
            assert np.abs(field.log_tau - closed).max() < 1e-8

    def test_base_point_normalization(self):
        rs = np.linspace(0.5, 2.0, 4)  # contains 1.0
        zs = np.linspace(-0.5, 0.5, 3)
        field = ernst.logtau_field(ernst.kasner(0.7), rs, zs)
        assert field.log_tau[1, 1] == 0.0

    def test_flat_equals_kasner_zero(self, axes):
        rs, zs = axes
        flat_field = ernst.logtau_field(ernst.flat(), rs, zs)
        kas_field = ernst.logtau_field(ernst.kasner(0.0), rs, zs)
        assert np.array_equal(flat_field.log_tau, kas_field.log_tau)

    def test_field_is_real_valued(self, axes, source):
        rs, zs = axes
        field = ernst.logtau_field(source, rs, zs)
        assert field.log_tau.dtype == np.float64
        assert field.dlogtau_w.shape == (len(rs), len(zs))

    def test_point_source_field_memory(self, peak_mb):
        # one broadcast evaluation per Gauss rule: 5.36 MiB measured on
        # the 201^2 grid, where flat (point, column) pairs held 10.24 MiB
        rs, zs = np.linspace(0.5, 2.0, 201), np.linspace(-0.5, 0.5, 201)
        _, peak = peak_mb(ernst.logtau_field, ernst.point_source(), rs, zs)
        assert peak < 6.5

    def test_grid_validation(self):
        sol = ernst.flat()
        with pytest.raises(ValueError):
            ernst.logtau_field(sol, [-0.5, 0.5], [0.0, 1.0])
        with pytest.raises(ValueError):
            ernst.logtau_field(sol, [1.0, 0.5], [0.0, 1.0])
        with pytest.raises(ValueError):
            ernst.logtau_field(sol, [1.0], [0.0, 1.0])


def loop_integral(sol, rs, zs):
    return ernst.rectangle_loop_integral(ernst.logtau_field(sol, rs, zs))


class TestClosedness:
    RECTANGLES = [((1.0, 1.5), (0.0, 0.5)), ((0.6, 2.1), (-0.8, 0.9))]

    def test_solutions_have_closed_loops(self, source):
        for sol in (ernst.kasner(0.7), source):
            for rspan, zspan in self.RECTANGLES:
                assert abs(loop_integral(sol, rspan, zspan)) < 1e-8

    def test_shear_loop_matches_green_oracle(self):
        sol = shear_solution()
        loop = loop_integral(sol, (1.0, 1.5), (0.0, 0.5))
        # curl of the 1-form is r z; integrate over the rectangle
        expected = ((1.5 ** 2 - 1.0 ** 2) / 2) * (0.5 ** 2 / 2)
        assert abs(loop - expected) < 1e-9
        assert abs(loop) > 1e-2

    @pytest.mark.parametrize("sol", [ernst.point_source(0.8, -1.5),
                                     ernst.kasner(0.7), shear_solution()])
    def test_grid_nodes_sum_to_the_corner_loop(self, sol):
        rs, zs = np.linspace(0.6, 2.1, 7), np.linspace(-0.8, 0.9, 6)
        on_grid = loop_integral(sol, rs, zs)
        corners = loop_integral(sol, rs[[0, -1]], zs[[0, -1]])
        assert abs(on_grid - corners) < 1e-12

    def test_shear_fails_field_equations(self):
        sol = shear_solution()
        assert ernst.field_residual(sol, 1.2, 0.4) > 0.1


# each preset with a parameter set off its default, for the closed forms
WEYL_PRESETS = [("flat", {}), ("kasner", {"a": 0.9}),
                ("point_source", {"strength": 0.75, "z0": -1.9}),
                ("non_solution", {})]
GRIDS = {"16x11": (np.linspace(0.5, 2.0, 16), np.linspace(-0.5, 0.5, 11)),
         "201x201": (np.linspace(0.5, 2.0, 201),
                     np.linspace(-0.5, 0.5, 201))}


class TestConformalFactor:
    """Both paths of logtau_field against (1/2) log r + G, with Weyl's G
    written out in tests/oracles.py; each measured at most 2.2e-16."""

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("preset, params", WEYL_PRESETS,
                             ids=[preset for preset, _ in WEYL_PRESETS])
    def test_both_paths_match_the_weyl_closed_form(self, preset, params,
                                                   grid):
        rs, zs = GRIDS[grid]
        sol = getattr(ernst, preset)(**params)
        field = ernst.logtau_field(sol, rs, zs)
        gr, gz = np.meshgrid(rs, zs, indexing="ij")
        exact = weyl_log_tau(preset, gr, gz, **params)
        assert np.abs(field.log_tau - exact).max() < 1e-13
        assert np.abs(field.log_tau_z_first - exact).max() < 1e-13
        assert ernst.conformal_factor_check(sol, field) < 1e-15

    @pytest.mark.parametrize("preset, params, key", [
        ("kasner", {"a": 0.9}, "a"),
        ("point_source", {"strength": 0.75, "z0": -1.9}, "strength")],
        ids=["kasner", "point_source"])
    def test_parameter_error_in_the_integrand_is_seen(self, axes, preset,
                                                      params, key):
        # the integrand of a parameter 1 + 1e-8 off stays closed and
        # harmonic, so only the closed form tells it apart
        true = getattr(ernst, preset)(**params)
        wrong = getattr(ernst, preset)(**{**params,
                                          key: params[key] * (1 + 1e-8)})
        sol = ernst.ErnstSolution(true.label, wrong.first, wrong.second,
                                  true.weyl)
        rs, zs = axes
        field = ernst.logtau_field(sol, rs, zs)
        gr, gz = np.meshgrid(rs, zs, indexing="ij")
        exact = weyl_log_tau(preset, gr, gz, **params)
        gap = max(np.abs(field.log_tau - exact).max(),
                  np.abs(field.log_tau_z_first - exact).max())
        assert gap > 1e-10
        assert ernst.conformal_factor_check(sol, field) == pytest.approx(
            gap, rel=1e-4)
