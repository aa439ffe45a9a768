"""The four benchmark workloads: their CLI calls, their cells and their checks.

A cell is one verified result: a profile written by ``symfd run`` or one row
of a study CSV. Every check fails only its own cell, and a CLI call that
raises or exits non-zero fails every cell it was meant to produce.

The seed shuffles the order of the calls (and of the list-valued keys inside
one call) and draws the boost speeds; it changes nothing else.
"""

import csv
import math
import os

import numpy as np

WORKLOADS = ("tables", "boost", "fine", "explicit")

# Error-level bands of the acceptance gate (tests/test_acceptance.py,
# criteria 1-4), as (low, high) on the max-norm error of a cell.
_BAND = {
    ("ibe", "ftcs"): (0.5 * 4.0e-2, 1.5 * 4.0e-2),
    ("ibe", "comp"): (0.5 * 5.8e-3, 1.5 * 5.8e-3),
    ("ibe", "sym"): (0.5 * 5.1e-3, 1.5 * 5.1e-3),
    ("ade1d", "sym"): (4.6e-4 / 3.0, 4.6e-4 * 3.0),
    ("vbe", "ftcs"): (0.7 * 0.8962, 1.3 * 0.8962),
    ("vbe", "comp"): (0.5 * 0.0994, min(1.5 * 0.0994, 0.15)),
    ("vbe", "sym"): (0.5 * 0.1060, min(1.5 * 0.1060, 0.15)),
    ("ade2d", "ftcs"): (2.4e-3 / 3.0, 2.4e-3 * 3.0),
    ("ade2d", "comp"): (3.8e-5 / 3.0, 3.8e-5 * 3.0),
    ("ade2d", "sym1"): (3.4e-5 / 3.0, 3.4e-5 * 3.0),
    ("ade2d", "sym2"): (3.3e-5 / 3.0, 3.3e-5 * 3.0),
}
# The gate's documented deviation (criterion 3, xfailed): the invariant
# front step sits on a time-step floor at tau = 1e-4. A value within 2% of
# the frozen measurement passes as that fingerprint, exactly as in the gate.
_FINGERPRINT = {("vbe", "sym"): (0.19073078615942674, 0.02)}
# The gate's ordering clauses (better, worse, strict): linf(better) must stay
# below linf(worse), or at most equal when not strict; a break fails the cell
# claimed to be better.
_ORDER = (
    (("ibe", "comp"), ("ibe", "ftcs"), True),
    (("ibe", "sym"), ("ibe", "comp"), False),
    (("ade1d", "comp"), ("ade1d", "ftcs"), True),
    (("ade1d", "sym"), ("ade1d", "comp"), True),
    (("ade2d", "comp"), ("ade2d", "ftcs"), True),
    (("ade2d", "sym1"), ("ade2d", "comp"), False),
    (("ade2d", "sym2"), ("ade2d", "sym1"), False),
)

TABLE_CELLS = (
    ("ibe", "ftcs"), ("ibe", "comp"), ("ibe", "sym"),
    ("ade1d", "ftcs"), ("ade1d", "comp"), ("ade1d", "sym"),
    ("vbe", "ftcs"), ("vbe", "comp"), ("vbe", "sym"),
    ("ade2d", "ftcs"), ("ade2d", "comp"), ("ade2d", "sym1"), ("ade2d", "sym2"),
)
# Settings the CLI applies by default; the benchmark's own references use them.
_TABLE_SETTINGS = {
    "ibe": dict(t=0.5, sigma=0.5),
    "ade1d": dict(t=1.0, alpha=1.0, nu=1.0 / 60.0, L=0.4),
    "vbe": dict(t=0.25, nu=1.0 / 12.0),
    "ade2d": dict(t=0.1, alpha=1.0, beta=1.0, nu=1.0 / 60.0, L=0.4),
}
# Boost speeds besides c = 0: a lattice of BOOST_SPEEDS points spaced 0.3
# apart over [0, 1.5), shifted as a whole by the seed. The baseline errors
# oscillate with c with period h / t_final ~ 0.25 (the boosted front's
# position between nodes), so a spacing of 1.2 periods spreads the speeds over
# that phase and the mean error barely depends on the seed.
BOOST_SPEEDS = 5
FINE_SIZES = (101, 201, 401, 801)
FINE_T_FINAL = 0.01  # 1000 steps at the converge default tau = 1e-5
EXPLICIT_PDES = ("ibe", "ade1d", "vbe", "ade2d")
EXPLICIT_SIZES = {"ibe": 4, "ade1d": 3, "vbe": 3, "ade2d": 3}  # converge defaults
FTCS_SLOPE = (1.8, 2.3)  # criterion 5's band for ftcs
SYM_BOOST_REL = 1e-8  # criterion 6: sym error independent of c


# -- analytic references, written independently of the program ------------


def _ibe(t, x, sigma):
    amp = 1.0 / math.sqrt(2.0 * math.pi * sigma * sigma)
    hump = lambda s: amp * np.exp(-s * s / (2.0 * sigma * sigma))
    u = hump(x)
    for _ in range(200):  # contraction ratio t / t_breaking < 1/2 here
        u = hump(x - u * t)
    return u


def _vbe(t, x, nu):
    xi = x - 4.0 * t
    xi2 = xi - 2.0 * math.pi
    a1 = -xi * xi / (4.0 * nu * (t + 1.0))
    a2 = -xi2 * xi2 / (4.0 * nu * (t + 1.0))
    top = np.maximum(a1, a2)
    w1, w2 = np.exp(a1 - top), np.exp(a2 - top)
    return 4.0 + (xi * w1 + xi2 * w2) / ((t + 1.0) * (w1 + w2))


def _ade1d(t, x, alpha, nu, L):
    d = L * L + nu * t
    xi = x - alpha * t
    return np.exp(-xi * xi / (4.0 * d)) / np.sqrt(4.0 * math.pi * d)


def _ade2d(t, x, y, alpha, beta, nu, L):
    d = L * L + nu * t
    xi, eta = x - alpha * t, y - beta * t
    return np.exp(-(xi * xi + eta * eta) / (4.0 * d)) / (4.0 * math.pi * d)


def reference(pde, cols):
    """The reference solution at the table cell's final time on its nodes."""
    s = dict(_TABLE_SETTINGS[pde])
    t = s.pop("t")
    if pde == "ibe":
        return _ibe(t, cols["x"], **s)
    if pde == "vbe":
        return _vbe(t, cols["x"], **s)
    if pde == "ade1d":
        return _ade1d(t, cols["x"], **s)
    return _ade2d(t, cols["x"], cols["y"], **s)


# -- CSV reading -----------------------------------------------------------


class CheckFailed(Exception):
    """An output failed a check; the message says which and why."""


def read_csv(path, header, text_columns=()):
    """Columns of a CSV with the given header; numbers must parse and be finite."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or tuple(rows[0]) != tuple(header):
        raise CheckFailed(f"{path}: header {rows[:1]} is not {list(header)}")
    body = rows[1:]
    if not body or any(len(r) != len(header) for r in body):
        raise CheckFailed(f"{path}: empty or ragged rows")
    cols = {}
    for j, name in enumerate(header):
        values = [r[j] for r in body]
        if name in text_columns:
            cols[name] = values
            continue
        try:
            cols[name] = np.array([float(v) for v in values])
        except ValueError as exc:
            raise CheckFailed(f"{path}: column {name}: {exc}") from None
        if not np.isfinite(cols[name]).all():
            raise CheckFailed(f"{path}: column {name} has a non-finite value")
    return cols


# -- workloads -------------------------------------------------------------


class Call:
    """One symfd CLI call and the cells it should produce."""

    def __init__(self, argv, cells, output):
        self.argv = argv
        self.cells = cells  # cell labels, in a fixed order
        self.output = output


class Workload:
    """Builds the calls of one pass and checks their outputs.

    check(call) returns {cell: (linf, error message or None)} for every cell
    of the call; finish(results) then applies the checks that compare cells
    (orderings, boost independence) and returns the final per-cell verdicts.
    """

    def __init__(self, name, rng, outdir):
        self.name = name
        self.outdir = outdir
        self.calls = getattr(self, "_calls_" + name)(rng)

    def _out(self, stem):
        return os.path.join(self.outdir, stem + ".csv")

    # tables: the 13 default `symfd run` cells (criteria 1-4 settings).
    def _calls_tables(self, rng):
        calls = []
        for i in rng.permutation(len(TABLE_CELLS)):
            pde, scheme = TABLE_CELLS[i]
            out = self._out(f"run_{pde}_{scheme}")
            argv = ["run", f"pde={pde}", f"scheme={scheme}", f"output_path={out}"]
            calls.append(Call(argv, [(pde, scheme)], out))
        return calls

    # boost: one `symfd galilean` call on vbe, n = 101, over c = 0 and the
    # seed-shifted lattice of BOOST_SPEEDS speeds in [0, 1.5).
    def _calls_boost(self, rng):
        width, shift = 1.5 / BOOST_SPEEDS, rng.random()
        speeds = [0.0] + [float(width * (k + shift)) for k in range(BOOST_SPEEDS)]
        speeds = [speeds[i] for i in rng.permutation(len(speeds))]
        schemes = [("ftcs", "comp", "sym")[i] for i in rng.permutation(3)]
        out = self._out("galilean")
        argv = [
            "galilean", "pde=vbe", "nx=101",
            "c_values=" + ",".join(repr(c) for c in speeds),
            "schemes=" + ",".join(schemes),
            f"output_path={out}",
        ]
        cells = [(c, s) for c in sorted(speeds) for s in ("ftcs", "comp", "sym")]
        return [Call(argv, cells, out)]

    # fine: `symfd converge pde=vbe` up to n = 801, all three schemes.
    def _calls_fine(self, rng):
        sizes = [FINE_SIZES[i] for i in rng.permutation(len(FINE_SIZES))]
        schemes = [("ftcs", "comp", "sym")[i] for i in rng.permutation(3)]
        out = self._out("converge_vbe_fine")
        argv = [
            "converge", "pde=vbe",
            "sizes=" + ",".join(map(str, sizes)),
            "schemes=" + ",".join(schemes),
            f"t_final={FINE_T_FINAL!r}",
            f"output_path={out}",
        ]
        cells = [(s, n) for s in ("ftcs", "comp", "sym") for n in FINE_SIZES]
        return [Call(argv, cells, out)]

    # explicit: the default `symfd converge schemes=ftcs` for every PDE.
    def _calls_explicit(self, rng):
        calls = []
        for i in rng.permutation(len(EXPLICIT_PDES)):
            pde = EXPLICIT_PDES[i]
            out = self._out(f"converge_{pde}_ftcs")
            argv = ["converge", f"pde={pde}", "schemes=ftcs", f"output_path={out}"]
            cells = [(pde, k) for k in range(EXPLICIT_SIZES[pde])]
            calls.append(Call(argv, cells, out))
        return calls

    # -- checks ---------------------------------------------------------

    def check(self, call):
        """Verdicts {cell: (linf, message or None)} for one finished call."""
        return getattr(self, "_check_" + self.name)(call)

    def _check_tables(self, call):
        (cell,) = call.cells
        pde, scheme = cell
        spatial = ("x", "y") if pde == "ade2d" else ("x",)
        cols = read_csv(call.output, spatial + ("u_numeric", "u_exact", "error"))
        ref = reference(pde, cols)
        scale = 1.0 + np.abs(ref).max()
        if np.abs(cols["u_exact"] - ref).max() > 1e-12 * scale:
            return {cell: (math.nan, "u_exact column is off the analytic reference")}
        if not np.array_equal(cols["error"], cols["u_numeric"] - cols["u_exact"]):
            return {cell: (math.nan, "error column is not u_numeric - u_exact")}
        linf = float(np.abs(cols["u_numeric"] - ref).max())
        return {cell: (linf, _band_message(cell, linf))}

    def _check_boost(self, call):
        cols = read_csv(call.output, ("c", "scheme", "rmse", "linf"), ("scheme",))
        got = {(c, s): (r, e) for c, s, r, e in zip(cols["c"], cols["scheme"], cols["rmse"], cols["linf"])}
        verdicts = {}
        for cell in call.cells:
            if cell not in got:
                verdicts[cell] = (math.nan, "row missing from the CSV")
                continue
            rmse, linf = got[cell]
            c, scheme = cell
            message = None
            if not 0.0 < rmse <= linf:
                message = f"need 0 < rmse <= linf, got rmse {rmse!r} linf {linf!r}"
            elif c == 0.0:  # the unboosted run is criterion 3's cell
                message = _band_message(("vbe", scheme), linf)
            verdicts[cell] = (linf, message)
        return verdicts

    def _check_fine(self, call):
        return self._check_study(call, lambda scheme: scheme, _falls_with_n)

    def _check_explicit(self, call):
        return self._check_study(call, lambda pde: "ftcs", _ftcs_slope)

    def _check_study(self, call, scheme_of, judge):
        """Verdicts for a converge CSV. Cells are (label, size or row index);
        the rows of a label are those of scheme_of(label), and judge(n, linf,
        slope) returns one message or None per row."""
        cols = read_csv(call.output, ("scheme", "n", "h", "linf", "slope"), ("scheme",))
        verdicts = {}
        for label in dict.fromkeys(cell[0] for cell in call.cells):
            cells = [cell for cell in call.cells if cell[0] == label]
            rows = [i for i, s in enumerate(cols["scheme"]) if s == scheme_of(label)]
            if len(rows) != len(cells):
                verdicts.update({c: (math.nan, "wrong number of rows") for c in cells})
                continue
            n, h, linf = cols["n"][rows], cols["h"][rows], cols["linf"][rows]
            slope = float(np.polyfit(np.log(h), np.log(linf), 1)[0])
            if abs(slope - cols["slope"][rows[0]]) > 1e-9 * (1.0 + abs(slope)):
                messages = ["slope column disagrees with a refit of the rows"] * len(cells)
            else:
                messages = judge(n, linf, slope)
            for cell, err, message in zip(cells, linf, messages):
                verdicts[cell] = (float(err), message)
        return verdicts

    def finish(self, verdicts):
        """Apply the cross-cell checks; return the final verdicts."""
        verdicts = dict(verdicts)
        if self.name == "tables":
            for better, worse, strict in _ORDER:
                a, b = verdicts[better][0], verdicts[worse][0]
                ok = a < b if strict else a <= b
                if not ok and verdicts[better][1] is None and verdicts[worse][1] is None:
                    verdicts[better] = (a, f"ordering: {better} is not below {worse}")
        if self.name == "boost":
            anchor = verdicts.get((0.0, "sym"), (math.nan, None))[0]
            for (c, scheme), (linf, message) in verdicts.items():
                if scheme == "sym" and message is None and not (
                    abs(linf - anchor) <= SYM_BOOST_REL * anchor
                ):
                    verdicts[(c, scheme)] = (linf, f"sym error at c={c} differs from c=0")
        return verdicts


def _band_message(cell, linf):
    lo, hi = _BAND.get(cell, (0.0, math.inf))
    if lo <= linf <= hi:
        return None
    if cell in _FINGERPRINT:
        center, rel = _FINGERPRINT[cell]
        if (1.0 - rel) * center <= linf <= (1.0 + rel) * center:
            return None
    return f"linf {linf:.4e} outside the gate band [{lo:.3e}, {hi:.3e}]"


def _falls_with_n(n, linf, slope):
    if list(n) != list(FINE_SIZES):
        return ["rows are not the requested sizes"] * len(n)
    return [None] + [
        None if linf[k] < linf[k - 1] else f"error did not fall from n={n[k - 1]:.0f} to n={n[k]:.0f}"
        for k in range(1, len(n))
    ]


def _ftcs_slope(n, linf, slope):
    ok = FTCS_SLOPE[0] <= slope <= FTCS_SLOPE[1]
    return [None if ok else f"ftcs slope {slope:.3f} outside {FTCS_SLOPE}"] * len(n)
