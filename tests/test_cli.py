"""Batch front-end: config handling, artifacts, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tauforge import birkhoff, cli, ernst, kdv, loops, quadrature

SMALL_KDV = ["--grid", "-0.4:0.4:11"]


def run_cli(args):
    return cli.main(list(args))


class TestConfigHandling:
    def test_grid_spec_parsing(self):
        cfg = cli.ExperimentConfig(pipeline="kdv", grid="-1:1:51")
        assert cfg.grid_spec() == [(-1.0, 1.0, 51), (-1.0, 1.0, 51)]
        cfg = cli.ExperimentConfig(pipeline="ernst", grid="0.5:2:9,-1:1:7")
        assert cfg.grid_spec() == [(0.5, 2.0, 9), (-1.0, 1.0, 7)]

    def test_preset_parsing(self):
        name, params = cli._parse_preset("one_pole:pole=0.3,strength=0.2")
        assert name == "one_pole"
        assert params == {"pole": 0.3, "strength": 0.2}

    @pytest.mark.parametrize("args", [
        ["kdv", "--grid", "-1:1:3"],
        ["kdv", "--grid=-0.4:0.4:9,-0.2:0.2:7"],
        ["kdv", "--samples", "50"],
        ["kdv", "--preset", "wrong_name"],
        ["kdv", "--preset", "one_pole:radius=2"],
        ["kdv", "--tol-residual", "-1"],
        ["kdv", "--threads", "0"],
        ["kdv", "--threads", "2"],
        ["kdv", "--grid", "1:-1:9"],
        ["kdv", "--grid", "0:1:9,0:1:9,0:1:9"],
        ["ernst", "--grid", "-1:1:9"],
        ["kdv", "--seed-file", "/nonexistent/seeds.cfg"],
        ["kdv", "--preset", "one_pole:pole=1.5"],
        ["birkhoff", "--trunc", "3"],
        ["kdv", "--trunc", "abc"],
        ["kdv", "--no-such-flag", "1"],
        ["kdv", "--preset", "one_pole:order=3"],
        ["kdv", "--grid=-0.4:0.4:11,-0.1:0.1:6"],
        ["birkhoff", "--rng-seed", "-5", "--count", "3"],
        ["selftest", "--seed-file", "rng_seed = -1"],
    ])
    def test_bad_configs_exit_3(self, args, tmp_path):
        if "=" in args[-1] and args[-2] == "--seed-file":
            # the seed file's text stands in the argument list
            seed_file = tmp_path / "exp.cfg"
            seed_file.write_text(args[-1] + "\n")
            args = args[:-1] + [str(seed_file)]
        assert run_cli(args) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("args, name", [
        (["kdv", "--grid=nan:1:11,-0.1:0.1:7"], "grid axis 1 min"),
        (["kdv", "--grid=-0.1:0.1:7,-0.1:inf:7"], "grid axis 2 max"),
        (["ernst", "--grid=0.5:inf:9"], "grid axis 1 max"),
        (["birkhoff", "--preset", "random", "--strength", "nan"], "strength"),
        (["kdv", "--preset", "one_pole:strength=nan"], "preset strength"),
        (["kdv", "--preset", "one_pole:pole=-inf"], "preset pole"),
        (["ernst", "--preset", "kasner:a=inf"], "preset a"),
        (["kdv", "--tol-factor", "nan"], "tol_factor"),
        (["kdv", "--tol-path", "inf"], "tol_path"),
        (["kdv", "--tol-residual", "nan"], "tol_residual"),
        (["kdv", "--tol-headline", "inf"], "tol_headline"),
    ])
    def test_non_finite_values_exit_3(self, args, name, capsys):
        assert run_cli(args) == cli.EXIT_CONFIG
        assert name in capsys.readouterr().out

    @pytest.mark.parametrize("args, names", [
        (["ernst", "--tol-headline", "1e-30", "--tol-residual", "1e-30",
          "--tol-factor", "1e-30", "--trunc", "3"],
         "trunc, tol_factor, tol_residual, tol_headline"),
        (["ernst", "--count", "5"], "count"),
        (["ernst", "--rng-seed", "1"], "rng_seed"),
        (["birkhoff", "--grid=0:1:3", "--tol-path", "1e-30", "--count", "5"],
         "grid, tol_path"),
        (["birkhoff", "--tol-residual", "1"], "tol_residual"),
        (["birkhoff", "--tol-headline", "1"], "tol_headline"),
        (["kdv", "--count", "0"], "count"),
        (["kdv", "--strength", "0.2"], "strength"),
        (["kdv", "--rng-seed", "1"], "rng_seed"),
        (["ernst", "--strength", "nan"], "strength"),
    ])
    def test_settings_the_pipeline_does_not_read_exit_3(self, args, names,
                                                          capsys):
        assert run_cli(args) == cli.EXIT_CONFIG
        assert f"{args[0]} does not take {names}" in capsys.readouterr().out

    def test_non_finite_seed_file_value_exits_3(self, tmp_path):
        seed_file = tmp_path / "exp.cfg"
        seed_file.write_text("tol_factor = nan\n")
        assert run_cli(["kdv", "--seed-file", str(seed_file)]) \
            == cli.EXIT_CONFIG

    def test_help_exits_0(self, capsys):
        assert run_cli(["kdv", "--help"]) == cli.EXIT_PASS
        assert "--trunc" in capsys.readouterr().out

    @pytest.mark.parametrize("pipeline", cli.PIPELINES)
    def test_help_lists_only_the_flags_the_pipeline_reads(self, pipeline,
                                                          capsys):
        assert run_cli([pipeline, "--help"]) == cli.EXIT_PASS
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        reads = {"--" + key.replace("_", "-")
                 for key, (_, readers, _) in cli._SETTINGS.items()
                 if pipeline in readers}
        assert listed == reads | {"--seed-file", "--help"}

    def test_parser_is_built_once(self):
        # a rejected flag leaves the one parser able to parse the next call
        assert run_cli(["kdv", "--no-such-flag"]) == cli.EXIT_CONFIG
        assert cli._parser() is cli._parser()
        assert cli._parser().parse_args(["kdv", "--trunc", "8"]).trunc == 8

    @pytest.mark.parametrize("pipeline", cli.PIPELINES)
    def test_every_flag_has_a_seed_file_key(self, pipeline):
        args = cli._parser().parse_args([pipeline])
        assert set(vars(args)) - {"pipeline", "seed_file"} \
            == set(cli._SETTINGS)

    def test_kdv_grid_minimum_follows_min_nodes(self, monkeypatch):
        def validate(pipeline, grid):
            cli.ExperimentConfig(pipeline, grid=grid).validate()

        monkeypatch.setattr(kdv, "MIN_NODES", (13, 5))
        validate("kdv", "-0.4:0.4:13,-0.1:0.1:5")
        with pytest.raises(cli.ConfigError, match="x counts >= 13"):
            validate("kdv", "-0.4:0.4:12,-0.1:0.1:5")
        with pytest.raises(cli.ConfigError, match="t counts >= 5"):
            validate("kdv", "-0.4:0.4:13,-0.1:0.1:4")
        # Ernst keeps its own minimum
        with pytest.raises(cli.ConfigError, match="grid counts >= 7"):
            validate("ernst", "0.5:2:9,-0.5:0.5:6")
        monkeypatch.setattr(kdv, "MIN_NODES", (11, 9))
        with pytest.raises(cli.ConfigError, match="t counts >= 9"):
            validate("kdv", "-0.4:0.4:11,-0.1:0.1:8")

    @pytest.mark.parametrize("pipeline", cli.PIPELINES)
    def test_manifest_records_only_the_settings_read(self, pipeline):
        config = cli.ExperimentConfig(pipeline)
        manifest = cli._manifest(config, [], {}, None, 0.0, cli.EXIT_PASS)
        for key in ("grid", "trunc", "rng_seed", "count", "strength"):
            reads = pipeline in cli._SETTINGS[key][1]
            assert (manifest[key] is not None) == reads
            if reads and key != "grid":
                assert manifest[key] == getattr(config, key)
        # samples follows trunc: the grid of the loops trunc truncates
        reads = pipeline in cli._SETTINGS["trunc"][1]
        assert manifest["samples"] == (
            cli.default_sample_count(config.trunc) if reads else None)

    @pytest.mark.parametrize("pipeline, read", [
        ("selftest", {}),
        ("kdv", {"factor": 1e-9, "path": 1e-7, "residual": 2e-2,
                 "headline": 1e-4}),
        ("ernst", {"path": ernst.PATH_TOL}),
        ("birkhoff", {"factor": 1e-9})])
    def test_manifest_records_only_the_tolerances_read(self, pipeline, read):
        # a tolerance the pipeline never reads is null, as a setting is
        config = cli.ExperimentConfig(pipeline)
        manifest = cli._manifest(config, [], {}, None, 0.0, cli.EXIT_PASS)
        assert manifest["tolerances"] == {
            key: read.get(key)
            for key in ("factor", "path", "residual", "headline")}

    @pytest.mark.parametrize("trunc, samples", [(32, 128), (64, 256)])
    def test_manifest_samples_follow_trunc(self, tmp_path, trunc, samples):
        assert run_cli(["birkhoff", "--count", "5", "--trunc", str(trunc),
                        "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "birkhoff_manifest.json").read_text())
        assert manifest["samples"] == samples

    @pytest.mark.parametrize("trunc", [8, 12, 14])
    def test_birkhoff_random_trunc_below_bound(self, trunc, capsys):
        code = run_cli(["birkhoff", "--trunc", str(trunc)])
        assert code == cli.EXIT_CONFIG
        assert f"trunc >= {cli.RANDOM_TRUNC_MIN}" in capsys.readouterr().out

    @pytest.mark.parametrize("strength, bound", [(0.8, 18), (1.0, 19)])
    def test_birkhoff_random_trunc_bound_grows_with_strength(
            self, strength, bound, capsys):
        args = ["birkhoff", "--count", "200", "--strength", str(strength)]
        assert run_cli(args + ["--trunc", str(bound - 1)]) == cli.EXIT_CONFIG
        assert f"trunc >= {bound}" in capsys.readouterr().out
        assert run_cli(args + ["--trunc", str(bound)]) == 0

    def test_seed_file_with_overrides(self, tmp_path):
        seed_file = tmp_path / "exp.cfg"
        seed_file.write_text(
            "# comment line\n"
            "preset = one_pole:pole=0.3,strength=0.2\n"
            "grid = -0.4:0.4:11\n"
            "tol-residual = 0.5   # spacing is coarse here\n")
        out = tmp_path / "run"
        code = run_cli(["kdv", "--seed-file", str(seed_file),
                        "--grid", "-0.3:0.3:11", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "kdv_manifest.json").read_text())
        assert manifest["preset"] == "one_pole"
        assert manifest["preset_params"] == {"pole": 0.3, "strength": 0.2}
        # CLI flag wins over the seed-file grid
        assert manifest["grid"] == [[-0.3, 0.3, 11], [-0.3, 0.3, 11]]
        assert manifest["tolerances"]["residual"] == 0.5

    def test_seed_file_threads_other_than_one_rejected(self, tmp_path, capsys):
        seed_file = tmp_path / "exp.cfg"
        seed_file.write_text("threads = 4\n")
        code = run_cli(["birkhoff", "--seed-file", str(seed_file)])
        assert code == cli.EXIT_CONFIG
        assert "runs on one thread" in capsys.readouterr().out

    def test_threads_one_still_accepted(self, tmp_path):
        # the benchmark's kdv argv passes --threads 1
        out = tmp_path / "flag"
        assert run_cli(["kdv"] + SMALL_KDV
                       + ["--threads", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "kdv_manifest.json").read_text())
        assert manifest["threads"] == 1
        seed_file = tmp_path / "exp.cfg"
        seed_file.write_text("threads = 1\n")
        out = tmp_path / "seed"
        assert run_cli(["birkhoff", "--count", "5", "--seed-file",
                        str(seed_file), "--out", str(out)]) == 0
        manifest = json.loads((out / "birkhoff_manifest.json").read_text())
        assert manifest["threads"] == 1

    def test_seed_file_rejects_unknown_key(self, tmp_path):
        seed_file = tmp_path / "exp.cfg"
        seed_file.write_text("colour = blue\n")
        assert run_cli(["kdv", "--seed-file", str(seed_file)]) == cli.EXIT_CONFIG


class TestKdvPipeline:
    def test_vacuum_example(self, capsys):
        assert run_cli(["kdv", "--preset", "vacuum", "--grid", "-1:1:51"]) == 0
        out = capsys.readouterr().out
        assert "vacuum_max_q" in out
        assert "[FAIL]" not in out

    def test_artifacts_and_determinism(self, tmp_path):
        args = ["kdv"] + SMALL_KDV
        assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
        assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "kdv.csv").read_bytes()
        assert first == (tmp_path / "b" / "kdv.csv").read_bytes()

        header = first.decode().splitlines()[0]
        assert header == "x,t,re_log_tau,im_log_tau,re_q,re_u,bigcell"
        assert len(first.decode().splitlines()) == 1 + 11 * 11

        manifest = json.loads((tmp_path / "a" / "kdv_manifest.json").read_text())
        assert manifest["csv"] == "kdv.csv"
        assert manifest["exit_code"] == 0
        assert {c["name"] for c in manifest["checks"]} == {
            "bigcell_coverage", "logtau_q_consistency",
            "logtau_path_crosscheck", "pde_residual"}
        assert all(c["pass"] for c in manifest["checks"])

    def test_manifest_key_set_is_fixed(self, tmp_path):
        assert run_cli(["kdv"] + SMALL_KDV + ["--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "kdv_manifest.json").read_text())
        assert sorted(manifest) == [
            "checks", "count", "csv", "elapsed_seconds", "exit_code", "extra",
            "grid", "pipeline", "preset", "preset_params", "rng_seed",
            "samples", "seed_file", "strength", "threads", "tolerances",
            "trunc", "versions"]
        assert manifest["versions"]["tauforge"]

    def test_telemetry_keys(self, tmp_path):
        assert run_cli(["kdv"] + SMALL_KDV + ["--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "kdv_manifest.json").read_text())
        telemetry = manifest["extra"]["telemetry"]
        assert sorted(telemetry) == [
            "crosscheck_points", "factor_residual_margin",
            "min_abs_det_on_path", "near_misses", "points_factored",
            "worst_factor_residual"]
        assert telemetry["crosscheck_points"] == {"x": 8, "t": 8}
        worst = telemetry["worst_factor_residual"]
        assert 0 < worst <= manifest["tolerances"]["factor"]
        assert telemetry["factor_residual_margin"] \
            == manifest["tolerances"]["factor"] / worst
        assert 0 <= telemetry["near_misses"] <= telemetry["points_factored"]

    def test_tail_mass_exits_2(self, capsys):
        code = run_cli(["kdv", "--trunc", "4", "--grid", "-1:1:11"])
        assert code == cli.EXIT_CHECK_FAILED
        assert "[FAIL] tail_mass:" in capsys.readouterr().out

    def test_tail_mass_names_the_node(self, capsys):
        # order 16 on the default grid: the worst node, the corner, drops
        # 1.445e-8 of its mass
        assert run_cli(["kdv", "--trunc", "16"]) == cli.EXIT_CHECK_FAILED
        assert capsys.readouterr().out.startswith(
            "[FAIL] tail_mass: discarded alias mass 1.445e-08 at (x, t) = "
            "(1.0000, 1.0000) exceeds 1.0e-08")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_pullback_exits_2(self, capsys):
        # cosh overflows at |x| = 1e6; the NaN loops fail the tail check
        code = run_cli(["kdv", "--preset", "vacuum", "--grid=-1e6:1e6:11"])
        assert code == cli.EXIT_CHECK_FAILED
        assert "[FAIL] tail_mass:" in capsys.readouterr().out

    def test_overflowing_tail_fraction_exits_2_without_a_warning(self,
                                                                  capsys):
        # the one-pole loops overflow the squares of the tail fraction at
        # |x| = 1e3; a RuntimeWarning would fail the test
        assert run_cli(["kdv", "--grid=-1e3:1e3:11"]) == cli.EXIT_CHECK_FAILED
        assert capsys.readouterr().out == (
            "[FAIL] tail_mass: discarded alias mass nan at (x, t) = "
            "(-1000.0000, -1000.0000) exceeds 1.0e-08; the loop is not "
            "finite\n")

    def test_bad_cell_on_path_exits_4(self):
        code = run_cli(["kdv", "--preset", "one_pole:strength=1.0",
                        "--grid", "-0.3:-0.2:11,0.5:1.2:8"])
        assert code == cli.EXIT_BIG_CELL

    def test_det_zero_between_nodes_exits_4(self, capsys):
        # every node factors; the t legs cross det T_N = 0 near t = 1.0
        code = run_cli(["kdv", "--preset", "one_pole:strength=1.0",
                        "--grid", "-0.3:-0.2:11,1.2:2.0:8"])
        assert code == cli.EXIT_BIG_CELL
        assert "big_cell_required_node" in capsys.readouterr().out


class TestErnstPipeline:
    def test_kasner_run_and_artifacts(self, tmp_path, capsys):
        code = run_cli(["ernst", "--preset", "kasner:a=0.7",
                        "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "ernst.csv").read_text().splitlines()
        assert lines[0] == ("r,z,log_tau,dlogtau_w_re,dlogtau_w_im,"
                            "field_residual")
        assert len(lines) == 1 + 16 * 11
        manifest = json.loads((tmp_path / "ernst_manifest.json").read_text())
        assert set(manifest["extra"]) == {"solution", "telemetry"}
        conformal, = (c for c in manifest["checks"]
                      if c["name"] == "conformal_constant")
        assert conformal["value"] <= 1e-15
        assert conformal["threshold"] == 1e-10

    def test_non_solution_detected(self, capsys):
        assert run_cli(["ernst", "--preset", "non_solution"]) == cli.EXIT_CHECK_FAILED
        assert "[FAIL] field_equations" in capsys.readouterr().out

    def test_non_closed_one_form_fails_conformal_constant(self, monkeypatch,
                                                          capsys):
        # d_z + 1e-6 r has curl 1e-6: the loop reads curl x area, and log
        # tau, whose z leg carries the error, runs 1e-6 r z off the Weyl
        # closed form
        d_z = ernst._d_z_logtau
        monkeypatch.setattr(ernst, "_d_z_logtau",
                            lambda sol, r, z: d_z(sol, r, z) + 1e-6 * r)
        assert run_cli(["ernst", "--preset", "point_source"]) \
            == cli.EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "[FAIL] conformal_constant" in out
        assert "[FAIL] loop_closedness" in out

    @pytest.mark.parametrize("args", [
        ["ernst", "--preset", "flat"], ["ernst", "--preset", "kasner:a=0.7"],
        ["ernst", "--preset", "point_source"], ["selftest"]])
    def test_closed_perturbation_fails_residue_route(self, args, monkeypatch,
                                                     capsys):
        # 2e-6 r dr is closed: the loop still closes, and the
        # trace-square route of residue_check sees it
        d_r = ernst._d_r_logtau
        monkeypatch.setattr(ernst, "_d_r_logtau",
                            lambda sol, r, z: d_r(sol, r, z) + 2e-6 * r)
        assert run_cli(args) == cli.EXIT_CHECK_FAILED
        assert any(line.startswith("[FAIL]") and "residue_route" in line
                   for line in capsys.readouterr().out.splitlines())

    def test_perturbed_trace_square_fails_residue_route(self, monkeypatch,
                                                        capsys):
        trace_square = ernst._trace_square
        monkeypatch.setattr(
            ernst, "_trace_square",
            lambda sol, r, z, direction: trace_square(sol, r, z, direction)
            + 1e-9)
        assert run_cli(["ernst", "--preset", "point_source"]) \
            == cli.EXIT_CHECK_FAILED
        assert "[FAIL] residue_route" in capsys.readouterr().out

    def test_one_run_makes_two_path_passes(self, monkeypatch):
        # one pass along r, one along z; log tau, the conformal check and
        # the loop read the two antiderivatives
        calls = []
        refine = ernst.refine_path_cells

        def counted(*args, **kwargs):
            calls.append(args[2])
            return refine(*args, **kwargs)

        monkeypatch.setattr(ernst, "refine_path_cells", counted)
        assert run_cli(["ernst"]) == 0
        # columns: z = 0 and the bottom and top rows, then the 16 grid r
        assert calls == [3, 16]

    def test_run_leaves_scipy_linalg_unloaded(self, tmp_path):
        # only a factorization needs LAPACK, and scipy.linalg is most of
        # a CLI process's import time
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys\nfrom tauforge import cli\n"
                f"code = cli.main(['ernst', '--out', {str(tmp_path)!r}])\n"
                "print(code, 'scipy.linalg' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr

    def test_trace_square_serves_only_the_residue_route(self, monkeypatch):
        def unused(*args):
            raise AssertionError("_trace_square called outside residue_check")

        monkeypatch.setattr(ernst, "_trace_square", unused)
        monkeypatch.setattr(ernst, "residue_check", lambda sol, r, z: 0.0)
        assert run_cli(["ernst"]) == 0

    def test_path_tolerance_below_roundoff_exits_2(self, capsys):
        assert run_cli(["ernst", "--tol-path", "1e-30"]) == cli.EXIT_CHECK_FAILED
        assert "[FAIL] path_refinement" in capsys.readouterr().out

    # the project-wide error::RuntimeWarning filter proves that the
    # overflow of psi_r^2 stays quiet: no warning leaks out of the run
    def test_non_finite_integrand_exits_2_at_the_first_level(self,
                                                             monkeypatch,
                                                             capsys):
        # each parameter passes validation, but psi_r^2 overflows, so the
        # integrand is not finite: refinement stops at level 1, two Gauss
        # rules
        calls = []
        refine = ernst.refine_path_cells

        def counted(eval_fn, *args):
            def counted_eval(points, cols):
                calls.append(len(points))
                return eval_fn(points, cols)
            return refine(counted_eval, *args)

        monkeypatch.setattr(ernst, "refine_path_cells", counted)
        for preset in ("point_source:strength=1e200", "kasner:a=1e200"):
            calls.clear()
            assert run_cli(["ernst", "--preset", preset,
                            "--grid=0.5:2:201,-0.5:0.5:201"]) \
                == cli.EXIT_CHECK_FAILED
            out = capsys.readouterr().out
            assert "[FAIL] path_refinement: integrand is not finite" in out
            assert len(calls) == 2

    def test_telemetry_keys(self, tmp_path):
        assert run_cli(["ernst", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "ernst_manifest.json").read_text())
        telemetry = manifest["extra"]["telemetry"]
        assert sorted(telemetry) == [
            "logtau_final_change", "logtau_levels", "points"]
        assert telemetry["points"] == 16 * 11
        tol = manifest["tolerances"]["path"]
        for leg in ("r", "z"):
            level = telemetry["logtau_levels"][leg]
            assert isinstance(level, int)
            assert 1 <= level <= quadrature.MAX_LEVEL == 8
            assert 0 <= telemetry["logtau_final_change"][leg] <= tol
        assert sorted(telemetry["logtau_levels"]) == ["r", "z"]
        assert sorted(telemetry["logtau_final_change"]) == ["r", "z"]


class TestBirkhoffPipeline:
    def test_round_trip_batch(self, tmp_path):
        code = run_cli(["birkhoff", "--count", "30", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "birkhoff.csv").read_text().splitlines()
        assert lines[0] == "index,residual"
        assert len(lines) == 31

    def test_twist_exits_4(self, capsys):
        assert run_cli(["birkhoff", "--preset", "twist"]) == cli.EXIT_BIG_CELL
        assert capsys.readouterr().out == (
            "[FAIL] big_cell_required_node: T_N (N = 32, 66x66) is singular: "
            "the loop is off the big cell\n")

    def test_twist_that_factors_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "factorize", lambda *args, **kwargs: None)
        assert run_cli(["birkhoff", "--preset", "twist"]) \
            == cli.EXIT_CHECK_FAILED
        assert "[FAIL] numerical_invariant" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("count", [1, 64, 65, 200])
    def test_streamed_run_matches_the_whole_stack(self, count, seed,
                                                  monkeypatch):
        # the run factors each block as it is made; generating the whole
        # stack and then factoring it gives the same bits
        flags = []

        def factor(coeffs, **kwargs):
            out = birkhoff.factorize_batch(coeffs, **kwargs)
            flags.append(out[3])
            return out

        monkeypatch.setattr(cli, "factorize_batch", factor)
        config = cli.ExperimentConfig("birkhoff", count=count, rng_seed=seed)
        _, _, (index, residuals), _ = cli._run_birkhoff(config)
        stack = loops.random_unimodular_stack(np.random.default_rng(seed),
                                              count)
        _, _, want, ok = birkhoff.factorize_batch(stack)
        assert np.array_equal(index, np.arange(count))
        assert np.array_equal(residuals, want)
        assert np.array_equal(np.concatenate(flags), ok)
        assert [len(f) for f in flags] == [
            min(loops._BLOCK, count - lo)
            for lo in range(0, count, loops._BLOCK)]

    def test_generation_and_factorization_share_blocks_at_order_64(
            self, monkeypatch, tmp_path):
        # at N = 64 a block holds 16 loops, in the generator as in the LU,
        # so the factorization never splits a streamed block again
        exp_samples, lu_block = loops._exp_samples, birkhoff._lu_block
        made, factored = [], []

        def exp_spy(vals):
            made.append(len(vals))
            return exp_samples(vals)

        def lu_spy(cs, order, n):
            factored.append(len(cs))
            return lu_block(cs, order, n)

        monkeypatch.setattr(loops, "_exp_samples", exp_spy)
        monkeypatch.setattr(birkhoff, "_lu_block", lu_spy)
        assert run_cli(["birkhoff", "--trunc", "64", "--count", "40",
                        "--out", str(tmp_path)]) == cli.EXIT_PASS
        assert made == factored == [16, 16, 8]

    def test_tail_failure_names_the_loop_the_stack_names(self, monkeypatch,
                                                          capsys):
        # Nyquist-bin mass added after exp, as in test_loops: loop 3 of the
        # first block fails, loop 5 of the second fails worse; the run
        # checks the tail once every block is factored, and must name the
        # loop that the whole stack names
        count, m = 2 * loops._BLOCK + 5, loops.default_sample_count(32)
        spoil = {3: 5e-4, loops._BLOCK + 5: 1e-3}
        nyquist = (-1.0) ** np.arange(m)[:, None, None]
        exp_samples, seen = loops._exp_samples, []

        def spoiled(vals):
            out = exp_samples(vals)
            lo = sum(seen)
            seen.append(len(vals))
            for i, size in spoil.items():
                if lo <= i < lo + len(vals):
                    out[i - lo] += size * nyquist
            return out

        monkeypatch.setattr(loops, "_exp_samples", spoiled)
        with pytest.raises(loops.TailMassError) as stack:
            loops.random_unimodular_stack(np.random.default_rng(4), count)
        seen.clear()
        code = run_cli(["birkhoff", "--count", str(count), "--rng-seed", "4"])
        assert code == cli.EXIT_CHECK_FAILED
        assert seen == [loops._BLOCK, loops._BLOCK, 5]
        assert capsys.readouterr().out == f"[FAIL] tail_mass: {stack.value}\n"
        assert f" in loop {loops._BLOCK + 5} exceeds" in str(stack.value)

    def test_non_finite_loops_exit_2_without_a_warning(self, capsys):
        # exp overflows in the generator, and the NaN loops are factored
        # before the tail check rejects them; a RuntimeWarning from either
        # stage would fail the test
        code = run_cli(["birkhoff", "--count", "3", "--strength", "1e6"])
        assert code == cli.EXIT_CHECK_FAILED
        assert capsys.readouterr().out == (
            "[FAIL] tail_mass: discarded alias mass nan in loop 0 exceeds "
            "1.0e-08; the loop is not finite\n")

    def test_telemetry_keys(self, tmp_path):
        assert run_cli(["birkhoff", "--count", "30", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "birkhoff_manifest.json").read_text())
        # the loop count and the worst residual are the top-level count
        # and the round_trip_residual check, and nowhere else
        assert sorted(manifest["extra"]) == ["telemetry"]
        telemetry = manifest["extra"]["telemetry"]
        assert sorted(telemetry) == ["near_misses", "not_ok", "residual_margin"]
        tol = manifest["tolerances"]["factor"]
        assert manifest["count"] == 30
        assert telemetry["not_ok"] == 0
        worst = next(c["value"] for c in manifest["checks"]
                     if c["name"] == "round_trip_residual")
        assert telemetry["residual_margin"] == tol / worst
        assert telemetry["residual_margin"] > 10
        assert telemetry["near_misses"] == 0


class TestCsvArtifact:
    @pytest.mark.parametrize("args", [
        ["ernst", "--preset", "kasner:a=0.7"],
        ["kdv"] + SMALL_KDV,
        ["birkhoff", "--count", "30"],
    ])
    def test_csv_equals_savetxt_of_runner_columns(self, args, tmp_path,
                                                  monkeypatch):
        pipeline = args[0]
        runner = cli._DISPATCH[pipeline]
        returned = {}

        def keep(config):
            returned["result"] = runner(config)
            return returned["result"]

        monkeypatch.setitem(cli._DISPATCH, pipeline, keep)
        assert run_cli(args + ["--out", str(tmp_path)]) == 0
        _, header, columns, _ = returned["result"]
        fmt = ["%d" if np.asarray(c).dtype.kind in "biu" else "%.17g"
               for c in columns]
        np.savetxt(tmp_path / "ref.csv",
                   np.column_stack([np.ravel(c) for c in columns]),
                   fmt=fmt, delimiter=",", header=",".join(header),
                   comments="")
        assert ((tmp_path / f"{pipeline}.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())


class TestErrorMapping:
    """Only the library's own error types become exit codes."""

    def _raise_in_runner(self, monkeypatch, err):
        def runner(config):
            raise err
        monkeypatch.setitem(cli._DISPATCH, "birkhoff", runner)

    def test_plain_value_error_propagates(self, monkeypatch):
        self._raise_in_runner(monkeypatch, ValueError("a programming error"))
        with pytest.raises(ValueError, match="a programming error"):
            run_cli(["birkhoff", "--count", "5"])

    def test_numerical_invariant_exits_2(self, monkeypatch, capsys):
        self._raise_in_runner(
            monkeypatch, cli.NumericalInvariantError("log tau came out non-real"))
        assert run_cli(["birkhoff", "--count", "5"]) == cli.EXIT_CHECK_FAILED
        assert "[FAIL] numerical_invariant: log tau came out non-real" in \
            capsys.readouterr().out


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run_cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "checks passed" in out

    def test_makes_every_check_of_its_pipeline_runs(self, tmp_path):
        assert run_cli(["selftest", "--out", str(tmp_path)]) == 0
        manifest = json.loads(
            (tmp_path / "selftest_manifest.json").read_text())
        made = {c["name"]: c for c in manifest["checks"]}
        assert all(c["pass"] for c in made.values())
        pipeline_checks = set()
        for config in cli.SELFTEST_CONFIGS:
            config.validate()
            prefix = f"{config.pipeline}_{config.resolved_preset()[0]}."
            expected = {prefix + c.name: c
                        for c in cli._DISPATCH[config.pipeline](config)[0]}
            assert {name for name in made if name.startswith(prefix)} \
                == set(expected)
            for name, check in expected.items():
                assert (made[name]["value"], made[name]["threshold"],
                        made[name]["op"]) \
                    == (float(check.value), float(check.threshold), check.op)
            pipeline_checks |= set(expected)
        # the checks the pipelines do not make are selftest's own identities
        assert set(made) - pipeline_checks == {
            "loop_inverse_round_trip", "big_cell_detected", "cocycle_identity",
            "poisson_anomaly_order", "ernst_frame_residue",
            "ernst_kasner_radial"}
        assert {
            "birkhoff_random.round_trip_residual",
            "birkhoff_random.big_cell_fraction", "kdv_vacuum.vacuum_max_q",
            "kdv_one_pole.logtau_q_consistency", "kdv_one_pole.pde_residual",
            "kdv_one_pole.logtau_path_crosscheck",
            "ernst_kasner.residue_route", "ernst_kasner.loop_closedness",
            "ernst_kasner.conformal_constant",
            "ernst_point_source.residue_route",
            "ernst_point_source.loop_closedness",
            "ernst_point_source.conformal_constant"} <= pipeline_checks

    @pytest.mark.parametrize("args, name", [
        (["--preset", "bogus"], "preset"),
        (["--grid=0:1:3"], "grid"),
        (["--trunc", "16"], "trunc"),
        (["--tol-factor", "1e-30"], "tol_factor"),
        (["--tol-path", "1e-9"], "tol_path"),
        (["--tol-residual", "1"], "tol_residual"),
        (["--tol-headline", "1"], "tol_headline"),
        (["--count", "5"], "count"),
        (["--strength", "0.2"], "strength"),
        (["--tol-factor", "1e-30", "--grid=0:1:3", "--preset", "bogus"],
         "preset, grid, tol_factor"),
    ])
    def test_rejects_settings_it_does_not_use(self, args, name, capsys):
        assert run_cli(["selftest", *args]) == cli.EXIT_CONFIG
        assert f"does not take {name}" in capsys.readouterr().out

    def test_takes_rng_seed_out_seed_file_and_one_thread(self, tmp_path):
        seed_file = tmp_path / "exp.cfg"
        seed_file.write_text("rng_seed = 3\nthreads = 1\n")
        out = tmp_path / "d"
        assert run_cli(["selftest", "--rng-seed", "3", "--out", str(out),
                        "--seed-file", str(seed_file), "--threads", "1"]) == 0
        manifest = json.loads((out / "selftest_manifest.json").read_text())
        assert manifest["rng_seed"] == 3

    def test_failing_pipeline_check_fails_selftest(self, monkeypatch, capsys):
        monkeypatch.setattr(ernst, "rectangle_loop_integral",
                            lambda *args, **kwargs: 1.0)
        assert run_cli(["selftest"]) == cli.EXIT_CHECK_FAILED
        assert "[FAIL] ernst_point_source.loop_closedness" \
            in capsys.readouterr().out

    def test_optimized_run_is_free_of_runtime_warnings(self):
        # -O strips asserts, so every guard must raise on its own
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-W", "error::RuntimeWarning",
             "-m", "tauforge", "selftest"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "selftest: 25/25 checks passed" in proc.stdout

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tauforge", "birkhoff", "--count", "5"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "round_trip_residual" in proc.stdout
