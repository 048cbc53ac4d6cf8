"""Mutation rows: a deliberate defect in one routine, and the check it fails.

Each row patches one routine in-process, runs a small CLI pipeline and
reads the manifest.  A row asserts the check that catches the defect, or,
below a routine's detection floor, that the defect passes every check, so
the floor README states stays measured.
"""

import dataclasses
import functools
import json

import numpy as np
import pytest

from tauforge import cli, kdv

SMALL_KDV = ["kdv", "--grid", "-0.4:0.4:11"]
# the Ernst grid of cli.SELFTEST_CONFIGS
SMALL_ERNST = ["ernst", "--grid", "0.3:2.7:7,-0.4:1.1:7"]


def run_checks(tmp_path, args):
    """Exit code and {check name: (value, pass)} of one CLI run."""
    code = cli.main(args + ["--out", str(tmp_path)])
    manifest = json.loads((tmp_path / f"{args[0]}_manifest.json").read_text())
    return code, {c["name"]: (c["value"], c["pass"])
                  for c in manifest["checks"]}


class TestContourCrosscheck:
    """logtau_path_crosscheck compares Delta log tau across a cell with
    the contour formula integrated over it; on -0.4:0.4:11 a cell is
    h = 0.08 long, so its floor for a smooth kernel error is
    tol_path / h = 1.25e-6."""

    @pytest.mark.parametrize("bump, fails", [(2e-6, True), (1e-6, False)])
    def test_kernel_bump(self, tmp_path, monkeypatch, bump, fails):
        real = kdv.gauge_variation
        monkeypatch.setattr(kdv, "gauge_variation",
                            lambda minus, u: real(minus, u) + bump)
        code, checks = run_checks(tmp_path, SMALL_KDV)
        value, passed = checks["logtau_path_crosscheck"]
        # about bump * h: 1.6e-7 and 8.0e-8
        assert value == pytest.approx(0.08 * bump, rel=0.05)
        assert passed is not fails
        assert code == (cli.EXIT_CHECK_FAILED if fails else 0)

    def test_log_tau_at_one_node(self, tmp_path, monkeypatch):
        # x = -0.4 is a sampled column; the node is mid-column
        real = kdv.tau_grid

        def bumped(*args, **kwargs):
            grid = real(*args, **kwargs)
            grid.log_tau[0, 5] += 1e-6
            return grid

        monkeypatch.setattr(kdv, "tau_grid", bumped)
        code, checks = run_checks(tmp_path, SMALL_KDV)
        assert checks["logtau_path_crosscheck"][0] > 5e-7
        assert not checks["logtau_path_crosscheck"][1]
        assert code == cli.EXIT_CHECK_FAILED

    def test_branch_step_on_a_t_leg(self, tmp_path, monkeypatch):
        # a 2 pi miss in the continued branch of log det T_N on the t leg
        # of x = 0, a sampled column, between t = 0 and t = 0.08
        real = kdv._leg_increments

        def skipped(sign, logabs, x, t):
            steps = real(sign, logabs, x, t)
            if steps.ndim == 2:
                steps[5, 5] += 2j * np.pi
            return steps

        monkeypatch.setattr(kdv, "_leg_increments", skipped)
        code, checks = run_checks(tmp_path, SMALL_KDV)
        assert checks["logtau_path_crosscheck"][0] == pytest.approx(
            2 * np.pi, rel=1e-6)
        assert not checks["logtau_path_crosscheck"][1]
        assert code == cli.EXIT_CHECK_FAILED


class TestPotential:
    """logtau_q_consistency compares q with a 4th-order x difference of
    log tau; on -0.4:0.4:11 its floor for a relative error in q lies
    between 1e-3 and 1.5e-3, where the check reads 8.4e-5 and 1.2e-4
    against its bound 1e-4."""

    @pytest.mark.parametrize("error, value, fails", [(1e-3, 8.4e-5, False),
                                                     (1.5e-3, 1.2e-4, True)])
    def test_relative_error_in_q(self, tmp_path, monkeypatch, error, value,
                                 fails):
        real = kdv._q_of
        monkeypatch.setattr(kdv, "_q_of",
                            lambda minus: real(minus) * (1 + error))
        code, checks = run_checks(tmp_path, SMALL_KDV)
        assert checks["logtau_q_consistency"][0] == pytest.approx(value,
                                                                  rel=0.01)
        failed = {name for name, (_, passed) in checks.items() if not passed}
        assert failed == ({"logtau_q_consistency"} if fails else set())
        assert code == (cli.EXIT_CHECK_FAILED if fails else 0)


class TestErnstIntegrand:
    """conformal_constant holds both paths of log tau to Weyl's closed form
    (1/2) log r + G.  A preset parameter 1 + 1e-8 off in psi's derivatives
    alone leaves the integrand closed and harmonic, and residue_route reads
    the same psi, so only the closed form sees it."""

    @pytest.mark.parametrize("preset, key, param, value", [
        ("kasner", "a", 0.7, 5.9e-9),
        ("point_source", "strength", 0.8, 3.6e-10)])
    def test_relative_parameter_error(self, tmp_path, monkeypatch, preset,
                                      key, param, value):
        real = cli._PRESETS["ernst", preset]

        @functools.wraps(real)  # the CLI reads the preset's parameters
        def off(**params):
            wrong = real(**{**params, key: params[key] * (1 + 1e-8)})
            return dataclasses.replace(real(**params), first=wrong.first,
                                       second=wrong.second)

        monkeypatch.setitem(cli._PRESETS, ("ernst", preset), off)
        code, checks = run_checks(
            tmp_path, SMALL_ERNST + ["--preset", f"{preset}:{key}={param}"])
        assert checks["conformal_constant"][0] == pytest.approx(value,
                                                                rel=0.05)
        failed = {name for name, (_, passed) in checks.items() if not passed}
        assert failed == {"conformal_constant"}
        assert code == cli.EXIT_CHECK_FAILED
