"""The benchmark's span tracer must still see every layer and every step.

perfbench/tracer.py wraps the package's functions where the modules
reference one another. A function moved out of that reach (bound into a
partial, called inside its own module, or renamed) records no spans, and the
traced benchmark run then stops with exit 3. This test finds that in the unit
suite: one tiny `symfd run` per (pde, scheme) pair under the tracer.
"""

import importlib.util
from pathlib import Path

from symfd import cli
from symfd.metrics import _STEPPERS

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Small grids and two steps; each pair takes milliseconds.
TINY = {
    "ibe": ["nx=11", "tau=1e-3", "t_final=2e-3"],
    "ade1d": ["nx=11", "tau=1e-3", "t_final=2e-3"],
    "vbe": ["nx=11", "tau=1e-3", "t_final=2e-3"],
    "ade2d": ["nx=8", "tau=1e-3", "t_final=2e-3"],
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_and_step_records_spans(tmp_path):
    tracing = load_tracer()
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(cli.main)
    tracer.install(tracing.layer_modules())
    try:
        for pde, scheme in _STEPPERS:
            out = tmp_path / f"{pde}_{scheme}.csv"
            argv = ["run", f"pde={pde}", f"scheme={scheme}", *TINY[pde], f"output_path={out}"]
            assert traced_main(argv) == 0
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    layers = {tracing.LAYERS[i] for i in spans["layer"]}
    assert set(tracing.LAYERS) <= layers
    keys = {tracer.keys[f] for f in set(spans["func"].tolist())}
    assert set(_STEPPERS) <= keys
    assert tracer.cells == len(_STEPPERS)  # one evolve per run
