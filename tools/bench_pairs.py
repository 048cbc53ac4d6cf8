"""Alternated parent/change benchmark runs, summarized as BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 \
        --workload birkhoff_batch --seed 1 --out BENCH_39.json

PARENT_DIR and CHANGE_DIR are checkouts, each with its own src/,
benchmark/ and BENCHMARK.json.  For every workload and seed the script
runs `python3 benchmark/run.py --workload W --seed S --seconds T --trace 0`
once in each checkout per pair, one run at a time: the parent first in
odd pairs, the change first in even ones.  T is BENCHMARK.json's
run_seconds unless --seconds is given.

The output keeps every run in the order it ran under "runs", and under
"summary" one entry per workload and seed (key W at seed 1, else
W_seed<S>): per end-to-end metric, each side's median, inclusive
quartiles and run count, the pairs in which the change read better (in
BENCHMARK.json's direction, ties counting for neither side) and the
change median over the parent median, minus one.  The file is rewritten
after every pair.
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
from importlib import metadata
from pathlib import Path


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


def quartiles(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def summarize(runs: list, metrics: dict) -> dict:
    """Per (workload, seed) key: both sides' statistics of each metric."""
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
            stats = {s: quartiles([r["metrics"][name] for r in rs])
                     for s, rs in sides.items()}
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (p["change"]["metrics"][name]
                               - p["parent"]["metrics"][name]) > 0
                       for p in complete)
            entry[name] = {
                **stats,
                "change_better_pairs": f"{wins}/{len(complete)}",
                "median_change_rel": (stats["change"]["median"]
                                      / stats["parent"]["median"] - 1),
            }
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
        "'runs' lists every run, in the order they ran.",
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
                    runs.append({
                        "key": key, "workload": workload, "seed": seed,
                        "pair": pair, "side": side,
                        "metrics": {name: result["metrics"][name]["value"]
                                    for name in metrics},
                        "correct": result["correct"],
                        "failed": result["failed"],
                        "attempted": result["attempted"]})
                    print(f"{key} pair {pair} {side}: "
                          + ", ".join(f"{k} {v:.4g}" for k, v
                                      in runs[-1]["metrics"].items()),
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
