"""Golden errors of the default CLI runs, pinned bit for bit.

The rmse and linf of the 13 default `symfd run` cells and of the 9 rows of
the default `symfd galilean` study, written as float.hex literals. A
refactor that keeps the arithmetic must reproduce them exactly; the relative
tolerance only absorbs last-bit differences of libm on other hosts.

The compact and sym pins come from the differentiation matrix D = A^-1 B
stored per grid, which sums in another order than the operators before it;
the advection-diffusion (linear) COMP pins from the stored step operator,
u + T u, and the FTCS ones from the bound three-point stencil, u + T u summed
over the axes on the flattened field; the ade1d pairs apply a block of steps
at a time as one product. The advection-diffusion sym pins come from the one
invariant step of 1D and 2D with its scalar factors folded. Those earlier
values are kept beside them: BAND_RUN from the FTCS operator stored as the
central pair's band, STEPWISE_RUN from the ade1d linear steps taken one at a
time, UNFOLDED_RUN from the invariant step before the folding,
SEPARATE_1D_RUN from the 1D invariant step as its own function,
EXPRESSION_RUN from the linear steps written as u - tau (alpha d1 - nu d2),
INVERSE_RUN and INVERSE_GALILEAN from the stored inverse of A applied to the
assembled B u, and PARENT_RUN and PARENT_GALILEAN from elimination from
scratch. The ibe and vbe FTCS pins never changed: their bound stencils round
as the central pair did. Every error must stay within PARITY of every kept
set, so re-pinning can absorb roundoff but not a change of the scheme.

LONG_LINE pins the linf of a `symfd converge` study on 401 to 801 nodes,
where the compact operators are the stored band of D; PARENT_LONG_LINE
keeps the values of the substitution that served those lines before.
"""

import csv

import pytest

from symfd.cli import main

REL = 1e-13
PARITY = 1e-13  # absolute

# (pde, scheme) -> (rmse, linf) of `symfd run pde=... scheme=...`, as float.hex
RUN = {
    ("ibe", "ftcs"): ("0x1.3b0aa08a1ddfbp-7", "0x1.4809c5b631100p-5"),
    ("ibe", "comp"): ("0x1.2e27a8b4a9ce1p-10", "0x1.4dad23385f900p-8"),
    ("ibe", "sym"): ("0x1.2e226b1a0eea4p-10", "0x1.4da57d9554c80p-8"),
    ("ade1d", "ftcs"): ("0x1.82c2e72cd7595p-7", "0x1.dba255e87fb40p-6"),
    ("ade1d", "comp"): ("0x1.95c742d24ff6cp-12", "0x1.2e793ec7b3400p-10"),
    ("ade1d", "sym"): ("0x1.c7365084d60fcp-13", "0x1.e783e34f03000p-12"),
    ("vbe", "ftcs"): ("0x1.04909cb4a01f4p-3", "0x1.d6d21f43d9958p-1"),
    ("vbe", "comp"): ("0x1.fb37a6e42ab08p-7", "0x1.d3908a4786b80p-4"),
    ("vbe", "sym"): ("0x1.540b85eabbfb1p-6", "0x1.869ddcc728fa0p-3"),
    ("ade2d", "ftcs"): ("0x1.15100b3037e13p-11", "0x1.3ef75c66c5680p-9"),
    ("ade2d", "comp"): ("0x1.180781ef9cf3ap-17", "0x1.3a5aa3fa22000p-15"),
    ("ade2d", "sym1"): ("0x1.14c6750d303cep-17", "0x1.1aab7fa296000p-15"),
    ("ade2d", "sym2"): ("0x1.0d7dac4977ecep-17", "0x1.183d6e0334000p-15"),
}

# (c, scheme, rmse, linf) rows of `symfd galilean`, errors as float.hex
GALILEAN = [
    (0.0, "ftcs", "0x1.04909cb4a01f4p-3", "0x1.d6d21f43d9958p-1"),
    (0.0, "comp", "0x1.fb37a6e42ab08p-7", "0x1.d3908a4786b80p-4"),
    (0.0, "sym", "0x1.540b85eabbfb1p-6", "0x1.869ddcc728fa0p-3"),
    (0.5, "ftcs", "0x1.12eddfcff2208p-3", "0x1.d0ace365c1270p-1"),
    (0.5, "comp", "0x1.03ed5b700c945p-6", "0x1.c2c0848935300p-4"),
    (0.5, "sym", "0x1.540b85eabc3c5p-6", "0x1.869ddcc729300p-3"),
    (1.0, "ftcs", "0x1.2140a20222a37p-3", "0x1.c0cafdb718a00p-1"),
    (1.0, "comp", "0x1.0ce280bc19cdap-6", "0x1.b1f4496bdcec0p-4"),
    (1.0, "sym", "0x1.540b85eabbea9p-6", "0x1.869ddcc728e60p-3"),
]

# The advection-diffusion FTCS pins as the stored three-point band of the
# central pair computed them, u + T u per axis, before the bound FTCS stencil
# summed u + T u over the axes on the flattened field.
BAND_RUN = {
    ("ade1d", "ftcs"): ("0x1.82c2e72cd7597p-7", "0x1.dba255e87fb40p-6"),
    ("ade2d", "ftcs"): ("0x1.15100b3037e19p-11", "0x1.3ef75c66c5680p-9"),
}

# The ade1d linear pins as one step per row computed them, before a full block
# of steps became one product with the block map [M^m G].
STEPWISE_RUN = {
    ("ade1d", "ftcs"): ("0x1.82c2e72cd7802p-7", "0x1.dba255e882100p-6"),
    ("ade1d", "comp"): ("0x1.95c742d24bdc2p-12", "0x1.2e793ec7ae400p-10"),
}

# The linear pins as the expression u - tau (alpha d1 - nu d2) computed them,
# before the stored step operator.
EXPRESSION_RUN = {
    ("ade1d", "ftcs"): ("0x1.82c2e72cd77f0p-7", "0x1.dba255e8820a0p-6"),
    ("ade1d", "comp"): ("0x1.95c742d24c184p-12", "0x1.2e793ec7aea00p-10"),
    ("ade2d", "ftcs"): ("0x1.15100b3037e1fp-11", "0x1.3ef75c66c5680p-9"),
    ("ade2d", "comp"): ("0x1.180781ef9de3bp-17", "0x1.3a5aa3fa24000p-15"),
}

# The advection-diffusion sym pins before the invariant step folded its scalar
# factors: it now forms lambda = 1 - (4 nu tau) s1, the drift (tau alpha) u_x
# over lambda and the weight's s1 (speed^2 tau^2) / lambda, where it formed
# 1 - 4 nu s1 tau, (tau / lambda) alpha u_x and s1 speed^2 tau tau / lambda.
UNFOLDED_RUN = {
    ("ade1d", "sym"): ("0x1.c7365084d5ef6p-13", "0x1.e783e34f01800p-12"),
    ("ade2d", "sym1"): ("0x1.14c6750d30391p-17", "0x1.1aab7fa292000p-15"),
    ("ade2d", "sym2"): ("0x1.0d7dac4977df0p-17", "0x1.183d6e0334000p-15"),
}

# The ade1d sym pins of the 1D invariant step as its own function, which
# mapped back as lambda^(-3/2) (lambda u - tau alpha u_x), before one step
# served 1D and 2D with (u - (tau / lambda) alpha u_x) / lambda^(1/2).
SEPARATE_1D_RUN = {
    ("ade1d", "sym"): ("0x1.c7365084d9bcdp-13", "0x1.e783e34eef000p-12"),
}

# The compact and sym pins of the stored inverse of A, which applied A^-1 to
# the assembled B u.
INVERSE_RUN = {
    ("ibe", "comp"): ("0x1.2e27a8b4a9cc6p-10", "0x1.4dad23385f900p-8"),
    ("ibe", "sym"): ("0x1.2e226b1a0ef5dp-10", "0x1.4da57d9554c80p-8"),
    ("ade1d", "comp"): ("0x1.95c742d24c188p-12", "0x1.2e793ec7ae800p-10"),
    ("ade1d", "sym"): ("0x1.c7365084dac51p-13", "0x1.e783e34ef1000p-12"),
    ("vbe", "comp"): ("0x1.fb37a6e42ab87p-7", "0x1.d3908a4786ec0p-4"),
    ("vbe", "sym"): ("0x1.540b85eabc3bep-6", "0x1.869ddcc7293c0p-3"),
    ("ade2d", "comp"): ("0x1.180781ef9ded5p-17", "0x1.3a5aa3fa24000p-15"),
    ("ade2d", "sym1"): ("0x1.14c6750d303d4p-17", "0x1.1aab7fa294000p-15"),
    ("ade2d", "sym2"): ("0x1.0d7dac49781dfp-17", "0x1.183d6e0334000p-15"),
}
INVERSE_GALILEAN = {
    (0.0, "comp"): ("0x1.fb37a6e42ab87p-7", "0x1.d3908a4786ec0p-4"),
    (0.0, "sym"): ("0x1.540b85eabc3bep-6", "0x1.869ddcc7293c0p-3"),
    (0.5, "comp"): ("0x1.03ed5b700c93dp-6", "0x1.c2c08489351c0p-4"),
    (0.5, "sym"): ("0x1.540b85eabc628p-6", "0x1.869ddcc7295c0p-3"),
    (1.0, "comp"): ("0x1.0ce280bc19ce7p-6", "0x1.b1f4496bdcd00p-4"),
    (1.0, "sym"): ("0x1.540b85eabbdadp-6", "0x1.869ddcc728dc0p-3"),
}

# The compact and sym pins as elimination from scratch computed them.
PARENT_RUN = {
    ("ibe", "comp"): ("0x1.2e27a8b4a9cc8p-10", "0x1.4dad23385f900p-8"),
    ("ibe", "sym"): ("0x1.2e226b1a0ef66p-10", "0x1.4da57d9554c80p-8"),
    ("ade1d", "comp"): ("0x1.95c742d24c344p-12", "0x1.2e793ec7aea00p-10"),
    ("ade1d", "sym"): ("0x1.c7365084dac3fp-13", "0x1.e783e34ef1000p-12"),
    ("vbe", "comp"): ("0x1.fb37a6e42ab6bp-7", "0x1.d3908a4786ec0p-4"),
    ("vbe", "sym"): ("0x1.540b85eabc308p-6", "0x1.869ddcc7292e0p-3"),
    ("ade2d", "comp"): ("0x1.180781ef9e4c3p-17", "0x1.3a5aa3fa24000p-15"),
    ("ade2d", "sym1"): ("0x1.14c6750d302d9p-17", "0x1.1aab7fa294000p-15"),
    ("ade2d", "sym2"): ("0x1.0d7dac4978312p-17", "0x1.183d6e0334000p-15"),
}
PARENT_GALILEAN = {
    (0.0, "comp"): ("0x1.fb37a6e42ab6bp-7", "0x1.d3908a4786ec0p-4"),
    (0.0, "sym"): ("0x1.540b85eabc308p-6", "0x1.869ddcc7292e0p-3"),
    (0.5, "comp"): ("0x1.03ed5b700c929p-6", "0x1.c2c0848935180p-4"),
    (0.5, "sym"): ("0x1.540b85eabc467p-6", "0x1.869ddcc7293c0p-3"),
    (1.0, "comp"): ("0x1.0ce280bc19d05p-6", "0x1.b1f4496bdce40p-4"),
    (1.0, "sym"): ("0x1.540b85eabbe98p-6", "0x1.869ddcc728ec0p-3"),
}


def check(value, pinned, earlier):
    assert value == pytest.approx(float.fromhex(pinned), rel=REL, abs=0)
    for parent in earlier:
        assert abs(value - float.fromhex(parent)) <= PARITY


@pytest.mark.parametrize("pde, scheme", list(RUN))
def test_default_run_errors(pde, scheme, tmp_path, capsys):
    out = tmp_path / "profile.csv"
    assert main(["run", f"pde={pde}", f"scheme={scheme}", f"output_path={out}"]) == 0
    header, values = capsys.readouterr().out.splitlines()
    fields = dict(zip(header.split(","), values.split(",")))
    pins = RUN[(pde, scheme)]
    tables = (
        BAND_RUN, STEPWISE_RUN, UNFOLDED_RUN, SEPARATE_1D_RUN, EXPRESSION_RUN, INVERSE_RUN,
        PARENT_RUN,
    )
    earlier = [table.get((pde, scheme), pins) for table in tables]
    for name, pinned, *kept in zip(("rmse", "linf"), pins, *earlier):
        check(float(fields[name]), pinned, kept)


def test_default_galilean_errors(tmp_path):
    out = tmp_path / "galilean.csv"
    assert main(["galilean", f"output_path={out}"]) == 0
    with open(out, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [(float(c), s) for c, s, _, _ in rows] == [(c, s) for c, s, _, _ in GALILEAN]
    for row, (c, scheme, *pins) in zip(rows, GALILEAN):
        inverse = INVERSE_GALILEAN.get((c, scheme), pins)
        parents = PARENT_GALILEAN.get((c, scheme), pins)
        for value, pinned, *earlier in zip(row[2:], pins, inverse, parents):
            check(float(value), pinned, earlier)


# (scheme, n) -> linf of `symfd converge pde=vbe sizes=401,601,801 t_final=0.01`
LONG_LINE = {
    ("ftcs", 401): "0x1.4cd313e1a8140p-5",
    ("ftcs", 601): "0x1.21f1be7528100p-6",
    ("ftcs", 801): "0x1.4e69f6fb24000p-7",
    ("comp", 401): "0x1.0f8bf2f853000p-10",
    ("comp", 601): "0x1.3cc9fa3448000p-11",
    ("comp", 801): "0x1.18dc813994000p-11",
    ("sym", 401): "0x1.9a1d588c9b000p-10",
    ("sym", 601): "0x1.4353bc29dc000p-10",
    ("sym", 801): "0x1.3ddbc89fe3000p-10",
}
# The compact and sym pins as the prefactored substitution computed them.
PARENT_LONG_LINE = {
    ("comp", 401): "0x1.0f8bf2f85a000p-10",
    ("comp", 601): "0x1.3cc9fa3478000p-11",
    ("comp", 801): "0x1.18dc8139ae000p-11",
    ("sym", 401): "0x1.9a1d588ca0000p-10",
    ("sym", 601): "0x1.4353bc29f0000p-10",
    ("sym", 801): "0x1.3ddbc89fe8000p-10",
}


def test_long_line_converge_errors(tmp_path):
    out = tmp_path / "converge.csv"
    argv = ["converge", "pde=vbe", "sizes=401,601,801", "t_final=0.01", f"output_path={out}"]
    assert main(argv) == 0
    with open(out, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [(s, int(n)) for s, n, *_ in rows] == list(LONG_LINE)
    for scheme, n, _, linf, _ in rows:
        pinned = LONG_LINE[scheme, int(n)]
        if scheme == "ftcs":  # no compact operator: the same arithmetic
            assert float(linf) == float.fromhex(pinned)
        else:
            check(float(linf), pinned, [PARENT_LONG_LINE[scheme, int(n)]])
