"""Alternated parent/change benchmark runs, summarized as BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 \
        --workload birkhoff_batch --seed 1 --out BENCH_39.json

PARENT_DIR and CHANGE_DIR are checkouts, each with its own src/,
benchmark/ and BENCHMARK.json.  For every workload and seed the script
runs `python3 benchmark/run.py --workload W --seed S --seconds T --trace 0`
once in each checkout per pair, one run at a time: the parent first in
odd pairs, the change first in even ones.  T is BENCHMARK.json's
run_seconds unless --seconds is given.  After each such run, every call
of one round of the workload (the argv its checkout's
benchmark/workloads.py makes) runs once more in a fresh interpreter,
`PYTHONPATH=<checkout>/src python -m tauforge ARGV`, which the in-process
benchmark cannot show: its wall time, import included, and the child's
own peak RSS from os.wait4.

The output keeps every run in the order it ran under "runs", and under
"summary" one entry per workload and seed (key W at seed 1, else
W_seed<S>): per end-to-end metric, each side's median, inclusive
quartiles and run count, the pairs in which the change read better (in
BENCHMARK.json's direction, ties counting for neither side) and the
change median over the parent median, minus one; under "process" the
same per call key for the process wall time and peak RSS, lower better.
The file is rewritten after every pair.
With an existing --out file, its runs are kept, new pairs of a key number
on from its last, and the summary is made again over all runs, so seeds
and workloads can be added one command at a time.  --note is added to the
description, say to name the commits compared.  Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

PROCESS_METRICS = {"wall_s": "lower", "peak_rss_mb": "lower"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout; its result line as a dict."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited "
                         f"{done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def workload_calls(checkout: Path, workload: str, seed: int,
                   out_root: Path) -> list:
    """[key, argv] of each call of one round of the workload, from the
    checkout's benchmark/workloads.py, which a child imports: it needs
    numpy, and this script only the standard library."""
    code = ("import json, sys\nfrom pathlib import Path\n"
            "sys.path.insert(0, 'benchmark')\n"
            "from workloads import WORKLOADS\n"
            f"calls = WORKLOADS[{workload!r}]({seed}).calls("
            f"Path({str(out_root)!r}))\n"
            "print(json.dumps([[c.key, c.argv] for c in calls]))")
    done = subprocess.run([sys.executable, "-c", code], cwd=checkout,
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: reading {workload}'s calls in "
                         f"{checkout} failed\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def run_process(checkout: Path, argv: list) -> dict:
    """Wall time and peak RSS of one CLI call in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    cmd = [sys.executable, "-m", "tauforge", *argv]
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=checkout, env=env, stderr=err,
                                 stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            err.seek(0)
            raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} "
                             f"exited {child.returncode}\n"
                             f"{err.read().decode(errors='replace')}")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}


def run_processes(checkout: Path, workload: str, seed: int) -> dict:
    """run_process on every call of one round of the workload, by key."""
    with tempfile.TemporaryDirectory() as out_root:
        return {key: run_process(checkout, argv) for key, argv
                in workload_calls(checkout, workload, seed, Path(out_root))}


def quartiles(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def compare(sides: dict, complete: list, value, better: str) -> dict:
    """Both sides' statistics of value(run), the pairs in which the change
    read better and the relative change of the median."""
    stats = {s: quartiles([value(r) for r in rs]) for s, rs in sides.items()}
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (value(p["change"]) - value(p["parent"])) > 0
               for p in complete)
    return {**stats, "change_better_pairs": f"{wins}/{len(complete)}",
            "median_change_rel": (stats["change"]["median"]
                                  / stats["parent"]["median"] - 1)}


def summarize(runs: list, metrics: dict) -> dict:
    """Per (workload, seed) key: both sides' statistics of each metric,
    and of each call's process metrics over the runs that have them."""
    groups = {}
    for run in runs:
        groups.setdefault(run["key"], []).append(run)
    summary = {}
    for key, group in groups.items():
        sides = {side: [r for r in group if r["side"] == side]
                 for side in ("parent", "change")}
        pairs = {}
        for r in group:
            pairs.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for p in pairs.values() if len(p) == 2]
        entry = {
            "correct": all(r["correct"] for r in group),
            "failed_calls": {s: sum(r["failed"] for r in rs)
                             for s, rs in sides.items()},
            "attempted_calls": {s: sum(r["attempted"] for r in rs)
                                for s, rs in sides.items()},
        }
        for name, better in metrics.items():
            entry[name] = compare(sides, complete,
                                  lambda r, n=name: r["metrics"][n], better)
        timed = {s: [r for r in rs if "process" in r]
                 for s, rs in sides.items()}
        if all(timed.values()):
            timed_pairs = [p for p in complete
                           if all("process" in r for r in p.values())]
            entry["process"] = {
                call: {name: compare(timed, timed_pairs,
                                     lambda r, c=call, n=name:
                                     r["process"][c][n], better)
                       for name, better in PROCESS_METRICS.items()}
                for call in timed["change"][0]["process"]}
        summary[key] = entry
    return summary


def machine() -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            **versions, "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: all of "
                             "BENCHMARK.json's")
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed (repeatable); default: 1")
    parser.add_argument("--seconds", type=float,
                        help="run length; default: BENCHMARK.json's")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", default="",
                        help="text added to the output's description")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = args.seed or [1]
    seconds = args.seconds or spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}

    old = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs = old.get("runs", [])
    description = " ".join(filter(None, [
        f"python3 benchmark/run.py --workload W --seed S --seconds {seconds:g}"
        " --trace 0, run in the parent's and the change's checkout one run "
        "at a time, in alternated pairs: the parent first in odd pairs, the "
        "change first in even ones. A summary key is the workload at seed 1, "
        "else W_seed<S>. 'change_better_pairs' counts the pairs "
        "in which the change read better; 'median_change_rel' is change "
        "median / parent median - 1; q1 and q3 are inclusive quartiles. "
        "'runs' lists every run, in the order they ran. After each run, "
        "every call of one round of the workload ran once more as "
        "PYTHONPATH=<checkout>/src python -m tauforge ARGV in a fresh "
        "interpreter: 'process' holds its wall time and the child's peak "
        "RSS (os.wait4), per call key.",
        old.get("note", ""), args.note]))
    for seed in seeds:
        for workload in workloads:
            key = workload if seed == 1 else f"{workload}_seed{seed}"
            first = max((r["pair"] for r in runs if r["key"] == key),
                        default=0) + 1
            for pair in range(first, first + args.pairs):
                order = (("parent", "change") if pair % 2
                         else ("change", "parent"))
                for side in order:
                    result = run_once(checkouts[side], workload, seed,
                                      seconds)
                    process = run_processes(checkouts[side], workload, seed)
                    runs.append({
                        "key": key, "workload": workload, "seed": seed,
                        "pair": pair, "side": side,
                        "metrics": {name: result["metrics"][name]["value"]
                                    for name in metrics},
                        "correct": result["correct"],
                        "failed": result["failed"],
                        "attempted": result["attempted"],
                        "process": process})
                    print(f"{key} pair {pair} {side}: "
                          + ", ".join(f"{k} {v:.4g}" for k, v
                                      in runs[-1]["metrics"].items())
                          + "; process " + ", ".join(
                              f"{call} {m['wall_s']:.3f} s "
                              f"{m['peak_rss_mb']:.1f} MB"
                              for call, m in process.items()),
                          flush=True)
                args.out.write_text(json.dumps({
                    "description": description,
                    "note": " ".join(filter(None, [old.get("note", ""),
                                                  args.note])),
                    "machine": machine(),
                    "summary": summarize(runs, metrics),
                    "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
