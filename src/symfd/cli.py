"""Command-line front end: run, converge, galilean, selftest.

Configuration is a flat UTF-8 key=value file ('#' starts a comment) plus
positional key=value overrides, later wins. Data goes to CSV files and
standard output; diagnostics go to standard error. Exit code 0 iff no
error.
"""

import argparse
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .analytic import PdeParams, galilean_exact
from .compact_ops import Grid1D
from .errors import ConfigInvalid, SymfdError
from .metrics import (
    PDES,
    SCHEMES_BY_PDE,
    StepContext,
    convergence_study,
    default_exact,
    evolve,
    fit_slope,
    galilean_experiment,
    grid_for,
    step,
)

# Table-run defaults per problem; any key can be overridden.
DEFAULTS = {
    "ibe": dict(
        scheme="sym", x_lo=-3.0, x_hi=3.0, nx=31,
        tau=1e-3, t_final=0.5, alpha=1.0, beta=1.0, nu=0.0,
    ),
    "ade1d": dict(
        scheme="sym", x_lo=-2.0, x_hi=4.0, nx=31,
        tau=1e-3, t_final=1.0, alpha=1.0, beta=1.0, nu=1.0 / 60.0,
    ),
    # c_values (boost speeds) is read by `galilean` alone, which runs vbe only
    "vbe": dict(
        scheme="sym", x_lo=0.0, x_hi=2.0 * math.pi, nx=101,
        tau=1e-4, t_final=0.25, alpha=1.0, beta=1.0, nu=1.0 / 12.0, c_values="0,0.5,1.0",
    ),
    # The square is placed so a node sits at the origin, where the hump
    # starts; the drift then breaks the variant tie at the peak nodes.
    "ade2d": dict(
        scheme="sym2", x_lo=-1.92, x_hi=2.08, y_lo=-1.92, y_hi=2.08, nx=26, ny=26,
        tau=1e-4, t_final=0.1, alpha=1.0, beta=1.0, nu=1.0 / 60.0,
    ),
}

# Grid-refinement defaults: a small tau so spatial error dominates, a
# short horizon, and sizes coarse enough that the forward-Euler floor
# stays subdominant at the finest grid.
CONVERGE_DEFAULTS = {
    "ibe": dict(tau=1e-5, t_final=0.2, sizes="41,61,81,101"),
    "ade1d": dict(tau=1e-5, t_final=0.5, sizes="31,41,61"),
    "vbe": dict(tau=1e-5, t_final=0.25, sizes="101,151,201"),
    "ade2d": dict(tau=1e-5, t_final=0.05, sizes="16,21,26"),
}


def _list(kind):
    """A parser of comma-separated values of kind; empty entries are skipped."""
    return lambda text: tuple(kind(part) for part in str(text).split(",") if part.strip() != "")


# The parser of each kind of value, and what a value it fails to parse must be.
_NUMBER, _COUNT, _NAME = (float, "a number"), (int, "an integer"), (str, "text")
_NUMBERS = (_list(float), "comma-separated numbers")
_COUNTS = (_list(int), "comma-separated integers")
_NAMES = (_list(str), "comma-separated names")
_ALL, _SQUARE = ("run", "converge", "galilean"), ("ade2d",)
# Every key the CLI reads: its parser, the commands that read it and the pdes
# they read it for. The library checks every value's range when the command
# runs.
FIELDS = {
    "pde": (_NAME, _ALL, PDES),
    "scheme": (_NAME, ("run",), PDES),
    "schemes": (_NAMES, ("converge", "galilean"), PDES),
    **dict.fromkeys(("x_lo", "x_hi"), (_NUMBER, _ALL, PDES)),
    **dict.fromkeys(("y_lo", "y_hi"), (_NUMBER, _ALL, _SQUARE)),
    "nx": (_COUNT, ("run", "galilean"), PDES),
    "ny": (_COUNT, ("run",), _SQUARE),
    "sizes": (_COUNTS, ("converge",), PDES),
    **dict.fromkeys(("tau", "t_final", "alpha", "beta", "nu", "sigma", "L"), (_NUMBER, _ALL, PDES)),
    "galilean_c": (_NUMBER, ("run",), ("vbe",)),
    "c_values": (_NUMBERS, ("galilean",), ("vbe",)),
    "output_path": (_NAME, _ALL, PDES),
}
# The pdes each command runs.
PDES_BY_COMMAND = {"run": PDES, "converge": PDES, "galilean": ("vbe",)}
# The keys each command reads for each pde it runs, in FIELDS' order. Any other
# key is a typo or belongs to another command or pde, and is rejected rather
# than silently left unread.
KEYS = {
    (command, pde): tuple(
        key for key, (_, commands, pdes) in FIELDS.items() if command in commands and pde in pdes
    )
    for command, pdes in PDES_BY_COMMAND.items()
    for pde in pdes
}


@dataclass
class RunConfig:
    """Parsed settings of one command: a run, or a study over schemes. The
    library checks their ranges when the command runs."""

    pde: str
    schemes: Tuple[str, ...]  # the one scheme of a run, or a study's schemes
    domain: Tuple[float, ...]  # (x_lo, x_hi) or (x_lo, x_hi, y_lo, y_hi)
    n: Tuple[int, ...]  # (nx,) or (nx, ny) of a run or a galilean study, else ()
    sizes: Tuple[int, ...]  # node counts of a convergence study, else ()
    tau: float
    t_final: float
    params: PdeParams
    galilean_c: Optional[float]
    c_values: Tuple[float, ...]  # boost speeds of a galilean study, else ()
    output_path: str

    @property
    def scheme(self) -> str:
        return self.schemes[0]


def parse_config_file(path: str) -> dict:
    """Read a flat key=value file; '#' comments, blank lines ignored."""
    mapping = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigInvalid(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def apply_overrides(mapping: dict, pairs) -> dict:
    """Merge key=value override strings; later entries win."""
    merged = dict(mapping)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigInvalid(f"override {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        merged[key.strip()] = value.strip()
    return merged


def _parse(key: str, text):
    (parser, what), *_ = FIELDS[key]
    try:
        return parser(text)
    except (ValueError, TypeError):
        raise ConfigInvalid(f"field {key!r} must be {what}, got {text!r}") from None


def build_run_config(mapping: dict, command: str = "run") -> RunConfig:
    """Layer the command's defaults under the mapping and parse each key the
    command reads for its pde, KEYS[command, pde], to its type (FIELDS).

    Raises ConfigInvalid for any other key, a pde or scheme the command does
    not run, no scheme, or a value that does not parse.
    Every range is the library's to check, which raises a ValueError naming
    the argument before the command writes anything.
    """
    allowed = PDES_BY_COMMAND[command]
    pde = mapping.get("pde", "vbe" if command == "galilean" else None)
    if pde not in allowed:
        raise ConfigInvalid(f"field 'pde' must be one of {allowed} for {command}, got {pde!r}")
    keys = KEYS[command, pde]
    unknown = sorted(set(mapping) - set(keys))
    if unknown:
        raise ConfigInvalid(
            f"unknown field(s) for {command} on {pde}: {', '.join(map(repr, unknown))}"
        )
    valid = SCHEMES_BY_PDE[pde]
    merged = dict(DEFAULTS[pde], sigma=0.5, L=0.4, schemes=",".join(valid))
    if command == "converge":
        merged.update(CONVERGE_DEFAULTS[pde])
    merged.update(mapping)
    if "nx" in mapping and "ny" not in mapping:
        merged["ny"] = merged["nx"]  # an explicit nx alone means a square grid
    if merged.get("galilean_c") == "":
        del merged["galilean_c"]  # an empty galilean_c means no boost
    value = {key: _parse(key, merged[key]) for key in keys if key in merged}
    schemes = (value["scheme"],) if command == "run" else value["schemes"]
    if not schemes:
        raise ConfigInvalid("field 'schemes' must list at least one scheme")
    for scheme in schemes:
        if scheme not in valid:
            key = "scheme" if command == "run" else "schemes"
            raise ConfigInvalid(f"field {key!r} has {scheme!r}, not one of {valid} for {pde!r}")
    default_output = {
        "run": f"{pde}_{schemes[0]}_profile.csv",
        "converge": f"{pde}_convergence.csv",
        "galilean": "vbe_galilean.csv",
    }[command]
    return RunConfig(
        pde=pde,
        schemes=schemes,
        domain=tuple(value[k] for k in ("x_lo", "x_hi", "y_lo", "y_hi") if k in value),
        n=tuple(value[k] for k in ("nx", "ny") if k in value),
        sizes=value.get("sizes", ()),
        tau=value["tau"],
        t_final=value["t_final"],
        params=PdeParams(**{k: value[k] for k in ("alpha", "beta", "nu", "sigma", "L")}),
        galilean_c=value.get("galilean_c"),
        c_values=value.get("c_values", ()),
        output_path=value.get("output_path", default_output),
    )


# The rows of a CSV rendered by one `%` call. A chunk's values and text are
# held at once: about 90 kB for 256 rows of a 2D profile, against 225 kB for a
# whole 26 x 26 profile, which lifted a run's peak memory.
CSV_CHUNK_ROWS = 256
# The `%` conversion of each type of CSV value: a number to 17 significant
# digits, a node count and a scheme name as they are.
_CONVERSIONS = {float: "%.17g", int: "%d", str: "%s"}


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path: str, columns: dict, rows):
    """Write the header row, the names of columns, then rows, tuples of values
    of columns' types (float, int or str) in order. Each chunk of at most
    CSV_CHUNK_ROWS rows is one `%` call on its values as one flat tuple. The
    bytes are csv.writer's on format(v, ".17g") of each number: ',' between
    fields and '\r\n' after each row; no field of these CSVs needs quoting."""
    line = ",".join(_CONVERSIONS[kind] for kind in columns.values()) + "\r\n"
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(columns) + "\r\n")
        while chunk := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
            handle.write(line * len(chunk) % tuple(itertools.chain.from_iterable(chunk)))


def cmd_run(cfg: RunConfig) -> int:
    """Evolve one configuration; write the profile CSV, print a summary."""
    grid = grid_for(cfg.pde, cfg.domain, cfg.n)
    exact = None
    velocity = 0.0
    if cfg.galilean_c is not None:
        exact = galilean_exact(default_exact("vbe", cfg.params), cfg.galilean_c)
        if cfg.scheme == "sym":
            velocity = cfg.galilean_c
    numeric, reference, report = evolve(
        cfg.pde, cfg.scheme, grid, cfg.tau, cfg.t_final, cfg.params,
        exact=exact, mesh_velocity=velocity,
    )
    # The final node positions, which the sliding mesh has moved.
    axes = [a + velocity * cfg.t_final for a in grid.axes]
    columns = [*np.meshgrid(*axes, indexing="ij"), numeric, reference, numeric - reference]
    header = ("x", "y")[: len(axes)] + ("u_numeric", "u_exact", "error")
    _write_csv(cfg.output_path, dict.fromkeys(header, float), zip(*(c.ravel() for c in columns)))
    print("scheme,pde,n,h,tau,t_final,rmse,linf,wall_time")
    print(
        ",".join(
            (
                report.scheme, report.pde, "x".join(map(str, grid.shape)),
                "x".join(map(_fmt, grid.spacing)), _fmt(report.tau),
                _fmt(report.t_final), _fmt(report.rmse), _fmt(report.linf),
                _fmt(report.wall_time),
            )
        )
    )
    return 0


def cmd_converge(cfg: RunConfig) -> int:
    """Grid-refinement study per scheme; CSV rows (scheme, n, h, linf, slope)."""
    rows = []
    for scheme in cfg.schemes:
        table = convergence_study(
            cfg.pde, scheme, cfg.sizes, cfg.tau, cfg.t_final, cfg.params, cfg.domain
        )
        rows.extend((scheme, n, h, err, table.slope) for n, h, err in table.rows)
        print(f"{cfg.pde} {scheme}: slope {table.slope:.3f}", file=sys.stderr)
    columns = dict(scheme=str, n=int, h=float, linf=float, slope=float)
    _write_csv(cfg.output_path, columns, rows)
    return 0


def cmd_galilean(cfg: RunConfig) -> int:
    """Boost study for the viscous Burgers schemes; CSV rows (c, scheme, rmse, linf)."""
    results = galilean_experiment(
        cfg.c_values,
        schemes=cfg.schemes,
        grid=grid_for(cfg.pde, cfg.domain, cfg.n),
        tau=cfg.tau,
        t_final=cfg.t_final,
        params=cfg.params,
    )
    columns = dict(c=float, scheme=str, rmse=float, linf=float)
    _write_csv(cfg.output_path, columns, ((c, s, rep.rmse, rep.linf) for c, s, rep in results))
    return 0


def _selftest_checks():
    """Quick example checks spanning every module; see cmd_selftest."""
    from .analytic import ade1d_exact, ade2d_exact, ibe_exact, vbe_exact
    from .compact_ops import d1, d2
    from .metrics import linf as metric_linf
    from .metrics import rmse as metric_rmse
    from .tridiag import solve

    def tridiag_identity():
        r = np.array([4.0, -1.0, 2.5])
        return np.array_equal(solve(np.zeros(2), np.ones(3), np.zeros(2), r), r)

    def tridiag_dense_oracle():
        x = solve([1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 1.0], [1.0, 2.0, 3.0])
        return np.allclose(x, [0.5, 0.0, 1.5], rtol=0, atol=1e-13)

    grid = Grid1D(0.0, 0.1, 11)

    def dx_of_constant():
        return np.abs(d1(np.full(11, 3.7), grid)).max() < 1e-12

    def dx_of_linear_and_long_cubic():  # 301 nodes: the banded D
        x = Grid1D(-1.0, 0.01, 301).x
        cubic = d1(1.0 + 2.0 * x - x**2 + 0.5 * x**3, Grid1D(-1.0, 0.01, 301))
        return (
            np.abs(d1(grid.x.copy(), grid) - 1.0).max() < 1e-12
            and np.abs(cubic - (2.0 - 2.0 * x + 1.5 * x**2)).max() < 1e-9 * 5.5  # max |u'|
        )

    def dxx_of_quadratic():
        return np.abs(d2(grid.x**2, grid) - 2.0).max() < 1e-10

    def hump_peak():
        return abs(ibe_exact(0.0, 0.0, 0.5) - 1.0 / math.sqrt(0.5 * math.pi)) < 1e-14

    def kernel_peak():
        p = PdeParams(nu=1.0 / 60.0, L=0.4)
        return abs(ade1d_exact(0.0, 0.0, p) - 1.0 / math.sqrt(4 * math.pi * 0.16)) < 1e-14

    def shock_midpoint():
        return abs(vbe_exact(0.0, math.pi, 1.0 / 12.0) - 4.0) < 1e-12

    def plane_kernel_peak():
        p = PdeParams(nu=1.0 / 60.0, L=0.4)
        return abs(ade2d_exact(0.0, 0.0, 0.0, p) - 1.0 / (4 * math.pi * 0.16)) < 1e-14

    def rmse_hand_value():
        return abs(metric_rmse(np.array([3.0, 4.0]), np.zeros(2)) - math.sqrt(12.5)) < 1e-14

    def linf_hand_value():
        return metric_linf(np.array([-5.0, 1.0]), np.zeros(2)) == 5.0

    rarefaction = lambda t, x: np.asarray(x) / (1.0 + t)

    def rarefaction_exact_ibe():
        g = Grid1D(1.0, 0.25, 9)
        ctx = StepContext(g, PdeParams(nu=0.0), 1e-3, 0.0, rarefaction)
        out = step("ibe", "sym", g.x.copy(), ctx)
        return np.abs(out - g.x / 1.001).max() < 1e-12

    def rarefaction_exact_vbe():
        g = Grid1D(1.0, 0.25, 9)
        ctx = StepContext(g, PdeParams(nu=1.0 / 12.0), 1e-3, 0.0, rarefaction)
        out = step("vbe", "sym", g.x.copy(), ctx)
        return np.abs(out - g.x / 1.001).max() < 1e-12

    def boost_identity():
        u = np.linspace(0.0, 2.0, 7)
        from .analytic import galilean_transform_field

        same = galilean_transform_field(u, 0.0)
        f = galilean_exact(lambda t, x: np.asarray(x) * 0.5, 0.0)
        return np.array_equal(same, u) and f(0.3, 1.2) == 0.6

    def slope_recovery():
        hs = np.array([0.4, 0.2, 0.1])
        return abs(fit_slope(hs, 2.5 * hs**3) - 3.0) < 1e-10

    def zero_horizon_run():
        p = PdeParams(nu=1.0 / 60.0, L=0.4)
        _, _, rep = evolve("ade1d", "comp", Grid1D(-2.0, 0.2, 31), 1e-3, 0.0, p)
        return rep.rmse == 0.0 and rep.linf == 0.0

    return [
        ("tridiagonal identity system", tridiag_identity),
        ("tridiagonal dense oracle 3x3", tridiag_dense_oracle),
        ("first derivative of constant", dx_of_constant),
        ("first derivative of linear, and of cubic on 301 nodes", dx_of_linear_and_long_cubic),
        ("second derivative of quadratic", dxx_of_quadratic),
        ("hump peak value at t=0", hump_peak),
        ("kernel peak value at t=0", kernel_peak),
        ("shock midpoint value", shock_midpoint),
        ("plane kernel peak at t=0", plane_kernel_peak),
        ("rmse hand value", rmse_hand_value),
        ("linf hand value", linf_hand_value),
        ("one-step exactness, invariant hump step", rarefaction_exact_ibe),
        ("one-step exactness, invariant viscous step", rarefaction_exact_vbe),
        ("zero boost is the identity", boost_identity),
        ("slope recovery on cubic errors", slope_recovery),
        ("zero-step run has zero error", zero_horizon_run),
    ]


def cmd_selftest() -> int:
    """Run the bundled example checks; print one PASS/FAIL line each."""
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok = bool(check())
        except Exception as exc:  # a crashing check is a failing check
            print(f"FAIL {name} ({type(exc).__name__}: {exc})")
            failures += 1
            continue
        print(("PASS" if ok else "FAIL") + f" {name}")
        failures += 0 if ok else 1
    print(f"{failures} failure(s)")
    return 0 if failures == 0 else 1


@functools.cache  # one per process: main() reuses it, as parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfd",
        description="Compact finite-difference schemes with symmetry-preserving variants",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "evolve one configuration and write its profile"),
        ("converge", "grid-refinement study with fitted slopes"),
        ("galilean", "boost study for the viscous Burgers schemes"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("overrides", nargs="*", help="key=value overrides, later wins")
    sub.add_parser("selftest", help="run the bundled example checks")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest()
        mapping = {}
        if args.config:
            mapping.update(parse_config_file(args.config))
        mapping = apply_overrides(mapping, args.overrides)
        cfg = build_run_config(mapping, args.command)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "converge":
            return cmd_converge(cfg)
        return cmd_galilean(cfg)
    except (SymfdError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
