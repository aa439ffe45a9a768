"""Command-line front end: run, converge, galilean, selftest.

Configuration is a flat UTF-8 key=value file ('#' starts a comment) plus
positional key=value overrides, later wins. Data goes to CSV files and
standard output; diagnostics go to standard error. Exit code 0 iff no
error.
"""

import argparse
import csv
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
    "vbe": dict(
        scheme="sym", x_lo=0.0, x_hi=2.0 * math.pi, nx=101,
        tau=1e-4, t_final=0.25, alpha=1.0, beta=1.0, nu=1.0 / 12.0,
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


@dataclass
class RunConfig:
    """Validated settings of one command: a run, or a study over schemes."""

    pde: str
    schemes: Tuple[str, ...]  # the one scheme of a run, or a study's schemes
    domain: Tuple[float, ...]  # (x_lo, x_hi) or (x_lo, x_hi, y_lo, y_hi)
    n: Tuple[int, ...]  # (nx,) or (nx, ny)
    sizes: Tuple[int, ...]  # node counts of a convergence study, else ()
    tau: float
    t_final: float
    params: PdeParams
    galilean_c: Optional[float]
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


def _as_float(mapping: dict, key: str) -> float:
    try:
        value = float(mapping[key])
    except (ValueError, TypeError):
        raise ConfigInvalid(f"field {key!r} must be a number, got {mapping[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigInvalid(f"field {key!r} must be finite, got {value}")
    return value


def _as_int(mapping: dict, key: str) -> int:
    try:
        return int(mapping[key])
    except (ValueError, TypeError):
        raise ConfigInvalid(f"field {key!r} must be an integer, got {mapping[key]!r}") from None


def _parse_list(text: str, kind, field_name: str) -> list:
    try:
        values = [kind(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigInvalid(f"field {field_name!r} must be comma-separated, got {text!r}") from None
    if kind is float and not all(map(math.isfinite, values)):
        raise ConfigInvalid(f"field {field_name!r} must list finite numbers, got {text!r}")
    return values


def build_run_config(mapping: dict, command: str = "run") -> RunConfig:
    """Layer the command's defaults under the mapping and validate every field.

    command is the subcommand: "run" reads one 'scheme', the studies
    ("converge", "galilean") a 'schemes' list, and "converge" also 'sizes'.
    """
    pde = mapping.get("pde", "vbe" if command == "galilean" else None)
    allowed = ("vbe",) if command == "galilean" else PDES
    if pde not in allowed:
        raise ConfigInvalid(f"field 'pde' must be one of {allowed} for {command}, got {pde!r}")
    merged = dict(DEFAULTS[pde])
    if command == "converge":
        merged.update(CONVERGE_DEFAULTS[pde])
    merged.update(mapping)
    valid = SCHEMES_BY_PDE[pde]
    if command == "run":
        schemes = [merged.get("scheme")]
        if schemes[0] not in valid:
            raise ConfigInvalid(
                f"field 'scheme' must be one of {valid} for pde {pde!r}, got {schemes[0]!r}"
            )
    else:
        schemes = _parse_list(merged.get("schemes", ",".join(valid)), str, "schemes")
        if not schemes:
            raise ConfigInvalid("field 'schemes' must list at least one scheme")
        for scheme in schemes:
            if scheme not in valid:
                raise ConfigInvalid(f"field 'schemes' contains {scheme!r}, invalid for {pde!r}")
    merged.setdefault("sigma", 0.5)
    merged.setdefault("L", 0.4)
    if pde == "ade2d":
        domain = tuple(_as_float(merged, k) for k in ("x_lo", "x_hi", "y_lo", "y_hi"))
        if "nx" in mapping and "ny" not in mapping:
            merged["ny"] = merged["nx"]  # an explicit nx alone means a square grid
        n = (_as_int(merged, "nx"), _as_int(merged, "ny"))
    else:
        domain = (_as_float(merged, "x_lo"), _as_float(merged, "x_hi"))
        n = (_as_int(merged, "nx"),)
    sizes = []
    if command == "converge":
        sizes = _parse_list(merged["sizes"], int, "sizes")
        if len(set(sizes)) < 3:
            raise ConfigInvalid(f"field 'sizes' needs at least 3 distinct grid sizes, got {sizes}")
    for name, count in [*zip(("nx", "ny"), n), *(("sizes", size) for size in sizes)]:
        if count < 5:
            raise ConfigInvalid(f"field {name!r} must be >= 5, got {count}")
    for axis in range(len(n)):
        if domain[2 * axis + 1] <= domain[2 * axis]:
            raise ConfigInvalid(
                f"domain bounds {domain[2 * axis]} .. {domain[2 * axis + 1]} are not increasing"
            )
    tau = _as_float(merged, "tau")
    if tau <= 0:
        raise ConfigInvalid(f"field 'tau' must be positive, got {tau}")
    t_final = _as_float(merged, "t_final")
    if t_final < 0:
        raise ConfigInvalid(f"field 't_final' must be nonnegative, got {t_final}")
    galilean_c = None
    if "galilean_c" in merged and str(merged["galilean_c"]) != "":
        if pde != "vbe":
            raise ConfigInvalid("field 'galilean_c' only applies to pde 'vbe'")
        galilean_c = _as_float(merged, "galilean_c")
    sigma = _as_float(merged, "sigma")
    big_l = _as_float(merged, "L")
    if sigma <= 0:
        raise ConfigInvalid(f"field 'sigma' must be positive, got {sigma}")
    if big_l <= 0:
        raise ConfigInvalid(f"field 'L' must be positive, got {big_l}")
    nu = _as_float(merged, "nu")
    if nu < 0:
        raise ConfigInvalid(f"field 'nu' must be nonnegative, got {nu}")
    default_output = {
        "run": f"{pde}_{schemes[0]}_profile.csv",
        "converge": f"{pde}_convergence.csv",
        "galilean": "vbe_galilean.csv",
    }[command]
    return RunConfig(
        pde=pde,
        schemes=tuple(schemes),
        domain=domain,
        n=n,
        sizes=tuple(sizes),
        tau=tau,
        t_final=t_final,
        params=PdeParams(
            alpha=_as_float(merged, "alpha"), beta=_as_float(merged, "beta"), nu=nu,
            sigma=sigma, L=big_l,
        ),
        galilean_c=galilean_c,
        output_path=str(merged.get("output_path", default_output)),
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


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
    axes = (grid.x, grid.y) if cfg.pde == "ade2d" else (grid.x + velocity * cfg.t_final,)
    columns = [*np.meshgrid(*axes, indexing="ij"), numeric, reference, numeric - reference]
    header = ("x", "y")[: len(axes)] + ("u_numeric", "u_exact", "error")
    _write_csv(cfg.output_path, header, zip(*(map(_fmt, c.ravel()) for c in columns)))
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
        rows.extend(
            (scheme, str(n), _fmt(h), _fmt(err), _fmt(table.slope))
            for n, h, err in table.rows
        )
        print(f"{cfg.pde} {scheme}: slope {table.slope:.3f}", file=sys.stderr)
    _write_csv(cfg.output_path, ("scheme", "n", "h", "linf", "slope"), rows)
    return 0


def cmd_galilean(cfg: RunConfig, c_text: str) -> int:
    """Boost study for the viscous Burgers schemes; CSV rows (c, scheme, rmse, linf).

    c_text is the comma-separated list of boost speeds ('c_values').
    """
    c_values = _parse_list(c_text, float, "c_values")
    if not c_values:
        raise ConfigInvalid("field 'c_values' must list at least one boost speed")
    results = galilean_experiment(
        c_values,
        schemes=cfg.schemes,
        grid=grid_for(cfg.pde, cfg.domain, cfg.n),
        tau=cfg.tau,
        t_final=cfg.t_final,
        params=cfg.params,
    )
    rows = [
        (_fmt(c), scheme, _fmt(rep.rmse), _fmt(rep.linf)) for c, scheme, rep in results
    ]
    _write_csv(cfg.output_path, ("c", "scheme", "rmse", "linf"), rows)
    return 0


def _selftest_checks():
    """Quick example checks spanning every module; see cmd_selftest."""
    from .analytic import ade1d_exact, ade2d_exact, ibe_exact, vbe_exact
    from .compact_ops import d1, d2
    from .metrics import linf as metric_linf
    from .metrics import rmse as metric_rmse
    from .tridiag import factor, solve

    def tridiag_identity():
        r = np.array([4.0, -1.0, 2.5])
        return np.array_equal(solve(factor(np.zeros(2), np.ones(3), np.zeros(2)), r), r)

    def tridiag_dense_oracle():
        x = solve(factor([1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 1.0]), [1.0, 2.0, 3.0])
        return np.allclose(x, [0.5, 0.0, 1.5], rtol=0, atol=1e-13)

    grid = Grid1D(0.0, 0.1, 11)

    def dx_of_constant():
        return np.abs(d1(np.full(11, 3.7), grid)).max() < 1e-12

    def dx_of_linear():
        return np.abs(d1(grid.x.copy(), grid) - 1.0).max() < 1e-12

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
        ("first derivative of linear", dx_of_linear),
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
        return cmd_galilean(cfg, mapping.get("c_values", "0,0.5,1.0"))
    except (SymfdError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
