"""The per-layer tracer in benchmark/tracing.py still finds every name it wraps.

`benchmark/run.py --trace 1` patches tauforge functions by module and name;
a rename or deletion in src/ would only show up when the benchmark runs.
Only the tracer is loaded here, none of the benchmark's reference code.
"""

import importlib
import importlib.util
from pathlib import Path

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
