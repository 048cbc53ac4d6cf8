"""The per-layer tracer in benchmark/tracing.py still finds every name it wraps.

`benchmark/run.py --trace 1` patches tauforge functions by module and name;
a rename or deletion in src/ would only show up when the benchmark runs.
Only the tracer is loaded here, none of the benchmark's reference code.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

from tauforge import cli

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_current_src():
    tracer = _load_tracing().Tracer()
    sites = [(importlib.import_module(mod), attr)
             for mod, attr, _ in tracer._patches()]
    originals = [getattr(module, attr) for module, attr in sites]
    tracer.install()
    try:
        wrapped = [getattr(module, attr) for module, attr in sites]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [getattr(module, attr) for module, attr in sites] == originals


def test_traced_kdv_run_passes_and_counts_its_points(tmp_path):
    # a wrapper runs Tracer.call(name, fn, *args, **kwargs), so a src call
    # that passes a keyword fn fails only in a traced run; the kdv_wide
    # grid pulls back its 287 nodes
    tracer = _load_tracing().Tracer()
    argv = ["kdv", "--preset", "one_pole:pole=0.2505,strength=0.348",
            "--grid=-1:1:41,-0.15:0.15:7", "--out", str(tmp_path)]
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_PASS
    assert tracer.counts["kdv.pullback_loops"] == 287
