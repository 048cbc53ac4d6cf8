"""The benchmark's workloads still run on the current command line and API.

`benchmark/workloads.py` builds `tauforge` command lines (`kdv_wide` passes
`--threads 1`) and its Birkhoff check calls
`factorize_batch(gamma, samples, tol)` positionally; a removed flag, a
tightened validation or a dropped parameter in src/ would only show up when
the benchmark runs.  The workloads are loaded from their file, as
`test_benchmark_hooks.py` loads the tracer.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import tauforge
from tauforge import cli

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _load(monkeypatch, name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # registered while the test runs: dataclasses looks the module up
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its sibling reference.py by its plain name
    _load(monkeypatch, "reference", BENCHMARK / "reference.py")
    return _load(monkeypatch, "benchmark_workloads",
                 BENCHMARK / "workloads.py")


def test_every_workload_argv_parses_and_validates(workloads, tmp_path):
    for workload in workloads.WORKLOADS.values():
        for call in workload(1).calls(tmp_path):
            args = cli._parser().parse_args(cli._preprocess(call.argv))
            cli.build_config(args).validate()  # raises ConfigError


def test_birkhoff_batch_check_passes_on_a_small_batch(workloads, tmp_path):
    # check regenerates the sampled loops and factors them with
    # factorize_batch(gamma, manifest["samples"], tol), positionally
    batch = workloads.BirkhoffBatch(1, count=20)
    for call in batch.calls(tmp_path):
        assert cli.main(call.argv) == 0
    assert batch.check(tauforge, tmp_path) == []
