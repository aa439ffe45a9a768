"""Rebuild the ROADMAP Baseline table from traced benchmark runs.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload boost --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload fine --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload explicit --seed 1 --seconds 20 --trace 1
    python3 perfbench/report.py [.perfbench/trace-*.npz ...]

Prints Markdown: the Baseline rows the traces can give (median per-call time
including child spans, and self time where the row asks for it), then every
compact derivative and tridiagonal solve grouped by line length n and line
count m. Times come from traced runs, so each call carries the tracer's few
microseconds of overhead.
"""

import glob
import os
import sys

import numpy as np

from tracer import LAYERS, derive
from workloads import BOOST_SPEEDS


def load(path):
    with np.load(path) as data:
        raw = {k: data[k] for k in data.files}
    func_layer = np.array([LAYERS.index(name) for name in raw["layers"]], dtype=np.int32)
    spans = derive(raw, func_layer)
    spans["name"] = raw["names"][spans["func"]]
    spans["key"] = raw["keys"][spans["func"]]
    return spans


def pick(traces, name=None, key=None, n=None, m=None):
    """Durations and self times (µs) of the matching spans over all traces."""
    durs, selfs = [], []
    for s in traces.values():
        sel = np.ones(len(s["func"]), dtype=bool)
        if name is not None:
            sel &= s["name"] == name
        if key is not None:
            sel &= s["key"] == key
        if n is not None:
            sel &= s["n"] == n
        if m is not None:
            sel &= s["m"] == m
        durs.append(s["dur"][sel])
        selfs.append(s["self"][sel])
    return np.concatenate(durs) * 1e6, np.concatenate(selfs) * 1e6


def med(values, scale=1.0, unit="µs"):
    if len(values) == 0:
        return "not in these traces"
    return f"{np.median(values) * scale:.4g} {unit} (n={len(values)})"


def shapes(traces, select):
    """Sorted distinct (function name, n, m) of the spans select() marks."""
    found = set()
    for s in traces.values():
        sel = select(s)
        triples = np.unique(np.stack([s["func"][sel], s["n"][sel], s["m"][sel]]), axis=1)
        found |= {(str(s["name"][s["func"] == f][0]), int(n), int(m)) for f, n, m in triples.T}
    return sorted(found)


def baseline_rows(traces):
    dx = "compact_ops.compact_dx"
    rows = [
        (f"`compact_dx`, n = {n}", med(pick(traces, dx, n=n)[0])) for n in (101, 201)
    ]
    rows.append(("of which band and rhs assembly (self, n = 101)",
                 med(pick(traces, dx, n=101)[1])))
    rows.append(("`compact_dx_along_x`, 26×26",
                 med(pick(traces, "compact_ops.compact_dx_along_x", n=26, m=26)[0])))
    for _name, n, m in shapes(traces, lambda s: s["name"] == "tridiag.solve_tridiagonal_many"):
        rows.append((f"`solve_tridiagonal_many`, n = {n}, m = {m}",
                     med(pick(traces, "tridiag.solve_tridiagonal_many", n=n, m=m)[0])))
    for scheme in ("ftcs", "comp", "sym"):
        rows.append((f"step `vbe` {scheme}, n = 201",
                     med(pick(traces, key=f"vbe,{scheme}", n=201)[0])))
    rows.append(("step `ade2d` sym2, 26×26", med(pick(traces, key="ade2d,sym2", n=26)[0])))
    rows.append(("`ibe_exact` on 101 nodes", med(pick(traces, "analytic.ibe_exact", n=101)[0])))
    rows.append((f"`galilean_experiment`, {BOOST_SPEEDS + 1} speeds, THREADS unset",
                 med(pick(traces, "metrics.galilean_experiment")[0], 1e-6, "s")))
    rows.append(("Tier-1 gate", "not measured by the benchmark"))
    return rows


def grouped_rows(traces):
    rows = []
    for layer in ("compact_ops", "tridiag"):
        for name, n, m in shapes(traces, lambda s: s["layer"] == LAYERS.index(layer)):
            dur, own = pick(traces, name, n=n, m=m)
            rows.append((name, n, m, len(dur), np.median(dur), np.median(own)))
    return rows


def main(paths):
    paths = paths or sorted(glob.glob(os.path.join(".perfbench", "trace-*.npz")))
    if not paths:
        print("no trace files; run perfbench/run.py with --trace 1 first", file=sys.stderr)
        return 1
    traces = {path: load(path) for path in paths}
    print("Traces: " + ", ".join(os.path.basename(p) for p in paths) + "\n")
    print("| layer / workload | median time |")
    print("|---|---|")
    for label, value in baseline_rows(traces):
        print(f"| {label} | {value} |")
    print("\n| function | n | m | calls | median µs | median self µs |")
    print("|---|---|---|---|---|---|")
    for name, n, m, calls, dur, own in grouped_rows(traces):
        print(f"| `{name}` | {n} | {m} | {calls} | {dur:.4g} | {own:.4g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
