"""Benchmark of the tauforge KdV, Birkhoff and Ernst pipelines.

Run from the root of a checkout:

    python3 benchmark/run.py --workload kdv_wide --seed 1 --seconds 25 --trace 0

A run imports tauforge from ./src, repeats whole rounds of the workload's
pipeline calls through tauforge.cli.main until --seconds have passed,
checks the outputs against references computed apart from the program,
and prints one JSON object as its last line.  With --trace 0 it holds the
end-to-end metrics; with --trace 1 the per-layer metrics, from rounds that
alternate between traced and untraced so the tracing overhead shows.
Results, spans and the pipelines' CSV output go under ./.bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

SETUP_PROBES = 5

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def load_program(root: Path):
    """Import tauforge from the checkout's src/, never from elsewhere."""
    src = root / "src"
    if not (src / "tauforge" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no tauforge package under {src}")
    sys.path.insert(0, str(src))
    import tauforge
    import tauforge.cli  # noqa: F401  (the entry point every call goes through)
    return tauforge


def setup_seconds(args) -> float:
    """Median time from process start to inputs ready, over fresh interpreters.

    A probe is this script with --setup-probe: it imports tauforge, builds
    the workload's inputs and prints the monotonic clock, which Linux
    shares between processes.
    """
    cmd = [sys.executable, __file__, "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def run_rounds(program, workload, out_root, args, tracer):
    """Repeat whole rounds until --seconds have passed.

    Returns per-call wall times split by traced / untraced round, the
    useful items and failures.  With a tracer, odd rounds run traced.
    """
    cli = program.cli
    walls = {False: [], True: []}
    items = 0
    attempted = failed = 0
    digests = {}
    problems = []
    rounds = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for call in workload.calls(out_root):
            captured = io.StringIO()
            attempted += 1
            t0 = time.perf_counter()
            try:
                with redirect_stdout(captured):
                    if traced:
                        code = tracer.call("cli.main", cli.main, call.argv)
                    else:
                        code = cli.main(call.argv)
            except Exception:
                code = None
                traceback.print_exc()
            walls[traced].append(time.perf_counter() - t0)
            if code != 0:
                failed += 1
                sys.stderr.write(f"call {call.argv} exited {code}\n"
                                 + captured.getvalue())
                continue
            items += call.items
            try:
                data = (out_root / call.key / f"{call.argv[0]}.csv").read_bytes()
            except OSError as err:
                problems.append(f"{call.key}: no CSV ({err})")
                continue
            if traced:
                tracer.counts["cli.csv_bytes"] += len(data)
            digest = hashlib.sha256(data).hexdigest()
            if digests.setdefault(call.key, digest) != digest:
                problems.append(f"{call.key}: CSV differs between repeated calls")
        if traced:
            tracer.uninstall()
        rounds += 1
        if time.perf_counter() - start >= args.seconds and (
                tracer is None or rounds >= 2):
            break
    return walls, items, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    program = load_program(root)
    workload = WORKLOADS[args.workload](args.seed)
    bench_out = root / ".bench_out"
    if args.setup_probe:
        workload.calls(bench_out)
        print(time.monotonic())
        return 0

    setup = None if args.trace else setup_seconds(args)
    bench_out.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bench_out))
    tracer = Tracer() if args.trace else None
    try:
        walls, items, attempted, failed, problems = run_rounds(
            program, workload, out_root, args, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            problems += workload.check(program, out_root)
        except Exception as err:
            traceback.print_exc()
            problems.append(f"output check raised {err!r}")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")
    all_walls = walls[False] + walls[True]
    if tracer is None:
        values = {
            "setup_s": setup,
            "wall_s": statistics.median(all_walls),
            "items_per_s": items / sum(all_walls),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        metrics = tracer.metrics(walls[True], walls[False])
        tracer.dump(bench_out / f"trace-{args.workload}-seed{args.seed}.json")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    (bench_out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
