"""symfd benchmark: run one workload through the CLI, verify it, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and builds nothing. Each CLI call goes through
``symfd.cli.main([...])`` in this process, and every output is checked
against the analytic reference (see workloads.py). The workload is repeated
in whole passes for about S seconds.

--trace 0 prints the end-to-end metrics: the median pass time, the set-up
time of a fresh interpreter through ``import symfd``, peak memory, the
geometric mean of the cells' max-norm errors and the share of cells that
passed. --trace 1 alternates untraced and traced passes and prints the
per-layer metrics from the traced ones (see tracer.py), writing the spans to
``.perfbench/trace-<workload>.npz``. The last line of standard output is one
JSON object; the line before it records the environment and every pass time.
"""

import os
import sys

# Pinned before numpy is imported: one BLAS/OpenMP thread (never more than
# the machine's cores), and no THREADS, so study cells run sequentially.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import CELL_FUNCTION, LAYERS, Tracer, layer_modules  # noqa: E402
from workloads import TABLE_CELLS, WORKLOADS, CheckFailed, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 11
# Seconds a fresh interpreter takes to run `import numpy` at the reference
# speed; set-up times are scaled to it (see setup_times).
SETUP_REFERENCE_S = 0.18

# Layers that must record calls on each workload, and the (pde, scheme)
# steps each workload takes; the traced run fails if any records none.
EXPECTED_LAYERS = {
    "tables": LAYERS,
    "boost": LAYERS,
    "fine": LAYERS,
    "explicit": ("cli", "metrics", "baseline_schemes", "analytic"),
}
STEP_PAIRS = TABLE_CELLS
EXPECTED_STEPS = {
    "tables": STEP_PAIRS,
    "boost": (("vbe", "ftcs"), ("vbe", "comp"), ("vbe", "sym")),
    "fine": (("vbe", "ftcs"), ("vbe", "comp"), ("vbe", "sym")),
    "explicit": (("ibe", "ftcs"), ("ade1d", "ftcs"), ("vbe", "ftcs"), ("ade2d", "ftcs")),
}
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    if not (SRC / "symfd" / "cli.py").is_file():
        fail(f"no symfd sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    try:
        from symfd import cli
    except Exception:
        traceback.print_exc()
        fail("importing symfd failed")
    return cli


def environment():
    """What the result depends on besides the code: versions, threads, commit."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "symfd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "THREADS": os.environ.get("THREADS"),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def interpreter_time(code):
    """Seconds for a fresh interpreter to run code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return perf_counter() - t0


def setup_times(repeats):
    """Seconds for a fresh interpreter to run `import symfd`, repeats times,
    as measured and at the reference speed.

    Each import of symfd runs between two imports of numpy alone, which share
    no code with symfd, and is scaled by SETUP_REFERENCE_S over their mean
    time. Both are mostly file loading and extension-module start-up, so a
    slower host slows both alike, and the ratio cancels it.
    """
    reference = [interpreter_time("import numpy")]
    raw, scaled = [], []
    for _ in range(repeats):
        raw.append(interpreter_time("import symfd"))
        reference.append(interpreter_time("import numpy"))
        scaled.append(raw[-1] * SETUP_REFERENCE_S / statistics.fmean(reference[-2:]))
    return raw, scaled


def invoke(main, argv):
    """Run one CLI call; True if it returned 0. Its output is kept quiet."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # a crash fails the call's cells; the run goes on
        print(f"perfbench: symfd {' '.join(argv)} raised", file=sys.stderr)
        traceback.print_exc()
        return False
    if code != 0:
        print(f"perfbench: symfd {' '.join(argv)} exited {code}: {err.getvalue()}", file=sys.stderr)
        return False
    return True


def run_pass(workload, main):
    """One pass over every call of the workload: (wall seconds, verdicts)."""
    verdicts = {}
    t0 = perf_counter()
    for call in workload.calls:
        with contextlib.suppress(FileNotFoundError):
            os.remove(call.output)  # a stale file must not pass for a new one
        if not invoke(main, call.argv):
            verdicts.update({c: (math.nan, "call failed") for c in call.cells})
            continue
        try:
            verdicts.update(workload.check(call))
        except (CheckFailed, OSError) as exc:
            verdicts.update({c: (math.nan, str(exc)) for c in call.cells})
    verdicts = workload.finish(verdicts)
    return perf_counter() - t0, verdicts


class Tally:
    """Cells attempted and failed over all passes, with the last verdicts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.last = {}

    def add(self, verdicts):
        self.attempted += len(verdicts)
        for cell, (_linf, message) in verdicts.items():
            if message is not None:
                self.failed += 1
                print(f"perfbench: cell {cell} failed: {message}", file=sys.stderr)
        self.last = verdicts


def end_to_end(workload, cli, seconds, tally):
    """The set-up samples, then whole passes for the rest of about `seconds`,
    each at the reference speed of speed.py."""
    walls, raw, probe_means = [], [], []
    t0 = perf_counter()
    raw_setup, setup = setup_times(SETUP_REPEATS)
    while True:
        with SpeedProbe() as probe:
            wall, verdicts = run_pass(workload, cli.main)
        walls.append(probe.rescale(wall))
        raw.append(wall)
        probe_means.append(probe.mean)
        tally.add(verdicts)
        if perf_counter() - t0 + statistics.median(raw) > seconds:
            break
    errors = [linf for linf, _message in tally.last.values() if linf > 0.0]  # NaN: no output
    if not errors:
        fail("no cell produced an error value", code=4)
    geomean = math.exp(statistics.fmean(math.log(e) for e in errors))
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "linf_geomean": (geomean, "1"),
        "pass_frac": ((tally.attempted - tally.failed) / tally.attempted, "1"),
    }
    return metrics, {"wall_s": walls, "raw_wall_s": raw, "probe_mean_s": probe_means,
                     "setup_s": setup, "raw_setup_s": raw_setup}


def step_percentiles(durations_us):
    """Median and tail of step times; the tail is the highest percentile of
    TAIL_PERCENTILES with at least 10 samples beyond it."""
    n = len(durations_us)
    if n == 0:
        return 0.0, 0.0
    tail = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9), 50.0)
    p50, pt = np.percentile(durations_us, [50.0, tail])
    return float(p50), float(pt)


def pass_layer_metrics(tracer, lo):
    """Per-layer metrics of the traced pass whose spans start at index lo."""
    a = tracer.arrays(lo)
    out = {}
    for i, layer in enumerate(LAYERS):
        sel = a["layer"] == i
        out[f"{layer}.calls"] = int(sel.sum())
        out[f"{layer}.self_s"] = float(a["self"][sel].sum())
        out[f"{layer}.raised"] = int(a["raised"][sel].sum())
    outermost = a["parent_layer"] != a["layer"]
    solves = outermost & (a["layer"] == LAYERS.index("tridiag"))
    out["tridiag.rows"] = int((a["n"][solves] * a["m"][solves]).sum())
    evals = outermost & (a["layer"] == LAYERS.index("analytic"))
    out["analytic.points"] = int(a["n"][evals].sum())
    pair_of = {fid: key for fid, key in enumerate(tracer.keys) if key in STEP_PAIRS}
    step_fids = np.array(sorted(pair_of), dtype=np.int32)
    is_step = np.isin(a["func"], step_fids)
    out["metrics.step_calls"] = int(is_step.sum())
    for pde, scheme in STEP_PAIRS:
        fids = [fid for fid, key in pair_of.items() if key == (pde, scheme)]
        durations = a["dur"][np.isin(a["func"], fids)] * 1e6
        p50, tail = step_percentiles(durations)
        out[f"step_us_p50.{pde}.{scheme}"] = p50
        out[f"step_us_tail.{pde}.{scheme}"] = tail
        out[f"step_n.{pde}.{scheme}"] = int(len(durations))
    return out


def unit_of(key):
    if key.startswith("step_us"):
        return "us"
    return "s" if key.endswith("_s") else "count"


def per_layer(workload_name, workload, cli, seconds, tally):
    tracer = Tracer()
    modules = layer_modules()
    traced_main = tracer.wrap(cli.main)
    plain, traced, per_pass = [], [], []
    t0 = perf_counter()
    while True:
        wall, verdicts = run_pass(workload, cli.main)
        plain.append(wall)
        tally.add(verdicts)
        lo, first_cell = len(tracer.start), tracer.cells
        tracer.install(modules)
        try:
            wall, verdicts = run_pass(workload, traced_main)
        finally:
            tracer.uninstall()
        traced.append(wall)
        tally.add(verdicts)
        per_pass.append(pass_layer_metrics(tracer, lo))
        if tracer.cells - first_cell != len(verdicts):
            fail(f"traced pass of {workload_name!r} opened {tracer.cells - first_cell} cells "
                 f"for {len(verdicts)} results; {CELL_FUNCTION} was renamed or bypassed",
                 code=3)
        spent = perf_counter() - t0
        if spent + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{workload_name}.npz")

    values = {key: statistics.median_low(p[key] for p in per_pass) for key in per_pass[0]}
    missing = [f"layer {layer}" for layer in EXPECTED_LAYERS[workload_name]
               if values[f"{layer}.calls"] == 0]
    missing += [f"step {pde}/{scheme}" for pde, scheme in EXPECTED_STEPS[workload_name]
                if values[f"step_n.{pde}.{scheme}"] == 0]
    if missing:
        fail(f"traced run of {workload_name!r} recorded no calls for: {', '.join(missing)}; "
             "a function was renamed or moved out of the tracer's reach", code=3)
    metrics = {key: (value, unit_of(key)) for key, value in values.items()}
    metrics["trace_overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics, {"untraced_passes": plain, "traced_passes": traced,
                     "spans": len(tracer.start)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = Workload(args.workload, np.random.default_rng(args.seed), str(workdir))
    tally = Tally()
    if args.trace:
        metrics, detail = per_layer(args.workload, workload, cli, args.seconds, tally)
    else:
        metrics, detail = end_to_end(workload, cli, args.seconds, tally)
    detail = {"workload": args.workload, "seed": args.seed, "env": environment(),
              "calls": [" ".join(c.argv) for c in workload.calls], **detail}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
