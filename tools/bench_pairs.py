"""Run the benchmark on two checkouts in alternating pairs and write BENCH_<pr>.json.

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, one process at a time, the parent first on
odd seeds and the change first on even ones; seed S is fresh for every pair
(first_seed, first_seed + 1, ... across the workloads in order). The metrics
are the end-to-end ones of the change's BENCHMARK.json. For each workload and
metric it prints each side's median and quartiles (statistics.quantiles,
n=4), the pairs the change won and whether the gain is resolved: the change
better in at least nine tenths of the pairs, ties counting for neither, and
the medians further apart than the parent's quartiles. Where the change's
median is worse, it says instead whether that loss is resolved, by the mirror
rule: the change worse in at least nine tenths of the pairs, and the same
gap. It writes every run to the JSON file in the layout of the earlier
BENCH_<pr>.json files.

    python3 tools/bench_pairs.py PARENT CHANGE --pr 25 [--workloads explicit,tables]
        [--pairs 10] [--seconds 30] [--first-seed 2501]

PARENT and CHANGE are the roots of two source checkouts, made the same way
(say, two git clones, so that each side records its commit); the file is
written into CHANGE unless --out says otherwise. The file's command names the
two checkouts `parent change` and leaves out --out, so no local path enters
it. A side that exits non-zero or fails a cell is recorded, not hidden: its
exit code and cell counts go into the file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run(checkout, workload, seed, seconds):
    """(exit code, the benchmark's last JSON line or None) of one run in checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None


def summary(values):
    """The median, quartiles and every value of one side's runs of a metric."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "runs": values}


def won(parent, change, better):
    """How many pairs the change won on a metric, with the ties, and whether
    that is a resolved gain or, where the change's median is worse, a resolved
    loss, in words. A loss is the mirror of a gain: the change worse in at
    least nine tenths of the pairs and the medians further apart than the
    parent's quartiles."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    text = f"change {better} in {wins} of {len(parent)} pairs"
    text += f", equal in {ties}" if ties else ""
    gap = sign * (statistics.median(parent) - statistics.median(change)) + 0.0  # no -0
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    kind, count = ("loss", losses) if gap < 0 else ("gain", wins)
    resolved = 10 * count >= 9 * len(parent) and abs(gap) > q3 - q1
    return text + (f"; median gap {gap:.6g} against parent IQR {q3 - q1:.6g}: {kind} "
                   + ("resolved" if resolved else "not resolved"))


def git_commit(checkout):
    """The short commit of checkout, or None outside a git work tree."""
    done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    if done.returncode != 0:
        return None
    return done.stdout.strip()


def measure(checkouts, workload, seeds, seconds, metrics):
    """One workload's entry: its seeds, each side's runs and the pairs won."""
    runs = {side: {"failed_cells": 0, "attempted_cells": 0, "exit_codes": [],
                   **{name: [] for name in metrics}} for side in SIDES}
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for side in order:
            code, result = run(checkouts[side], workload, seed, seconds)
            record = runs[side]
            if code not in record["exit_codes"]:
                record["exit_codes"].append(code)
            if result is None:
                print(f"{workload} seed {seed} {side}: exit {code}, no result", file=sys.stderr)
                continue
            record["failed_cells"] += result["failed"]
            record["attempted_cells"] += result["attempted"]
            for name in metrics:
                record[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} {side}: wall_s {result['metrics']['wall_s']['value']}",
                  file=sys.stderr, flush=True)
    entry = {"seeds": list(seeds)}
    for side in SIDES:
        record = runs[side]
        entry[side] = {key: record[key] for key in ("failed_cells", "attempted_cells",
                                                    "exit_codes")}
        entry[side].update({name: summary(record[name]) for name in metrics if record[name]})
    complete = all(len(runs[side][name]) == len(seeds) for side in SIDES for name in metrics)
    if complete:
        entry["pairs"] = {name: won(runs["parent"][name], runs["change"][name], better)
                          for name, better in metrics.items()}
    return entry


def report(workload, entry, metrics):
    """Print one workload's medians, quartiles and pairs won."""
    print(f"{workload}:")
    for name in metrics:
        if name not in entry["parent"] or name not in entry["change"]:
            continue
        cells = [f"{side} {entry[side][name]['median']:.6g} "
                 f"[{entry[side][name]['q1']:.6g}, {entry[side][name]['q3']:.6g}]"
                 for side in SIDES]
        print(f"  {name}: {'  '.join(cells)}  {entry.get('pairs', {}).get(name, '')}")


def parse(argv):
    """The parsed command line argv."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated names; default every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default the run_seconds of BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    return parser.parse_args(argv)


def command(args):
    """The command line of the parsed args as the file records it: the two
    checkouts as `parent change` and no --out, whose values are local paths."""
    words = ["python3", "tools/bench_pairs.py", "parent", "change", "--pr", str(args.pr)]
    for name in ("workloads", "pairs", "seconds", "first_seed"):
        if getattr(args, name) is not None:
            words += ["--" + name.replace("_", "-"), str(getattr(args, name))]
    return " ".join(words)


def main(argv=None):
    args = parse(sys.argv[1:] if argv is None else argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    workloads, seed = {}, args.first_seed
    for workload in names:
        seeds = range(seed, seed + args.pairs)
        seed += args.pairs
        workloads[workload] = measure(checkouts, workload, seeds, seconds, metrics)
        report(workload, workloads[workload], metrics)

    bench = {
        "what": (f"End-to-end metrics of `python3 perfbench/run.py --workload W --seed S "
                 f"--seconds {seconds:g} --trace 0`, parent commit against this change, each "
                 f"side run from its own copy of the tree, one process at a time, one run per "
                 f"side and seed, alternating which side runs first (odd seed parent first), "
                 f"{args.pairs} pairs per workload. Quartiles are statistics.quantiles(n=4). "
                 f"A pairs entry reads 'gain resolved' when the change is better in at least "
                 f"nine tenths of the pairs, ties counting for neither, and the medians differ "
                 f"by more than the parent's interquartile range; where the change's median "
                 f"is worse, 'loss resolved' by the mirror rule, the change worse in at least "
                 f"nine tenths of the pairs and the same gap. Every run is listed."),
        "command": command(args),
        "parent_commit": git_commit(checkouts["parent"]),
        "change_commit": git_commit(checkouts["change"]),
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": 1, "machine": platform.machine(), "nproc": os.cpu_count()},
        "workloads": workloads,
    }
    out = args.out or args.change / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
