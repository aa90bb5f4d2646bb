"""The monotonicity certificate behind the two-point ledger (tests/monotone.py).

run_ledger evaluates only the two ends of a grid whose first exponent is at
least verify._MONOTONE_FROM.  That holds the extremes of every row only if
each row is monotone in alpha from there to 0.5, which monotone.certify
proves with interval arithmetic; these tests run it, check that its
formulas are the package's, and that the float values of neighbouring grid
points cannot change order under a float error budget, which they check
against mpmath.
"""

import pathlib
import types

import pytest
from monotone import (
    HI,
    CertificateError,
    Dual,
    _certify,
    _roots,
    c0_is_nonnegative,
    certify,
    closed_form_rows,
    keeps_sign,
    root_row,
)
from mpmath import iv, mp

from rieszdrop.thresholds import AlphaConstants, solve_eps0, solve_eps1, solve_r0
from rieszdrop.verify import _CHECK_TABLE, _EPS_PROBE, _MONOTONE_FROM, run_ledger

ROOT = pathlib.Path(__file__).resolve().parent.parent

# +1 where the row increases with alpha, -1 where it decreases
DIRECTIONS = {
    "gamma_2_minus_alpha": -1,
    "gamma_2_minus_half_alpha": -1,
    "gamma_3_minus_half_alpha": -1,
    "gamma_1_minus_alpha": 1,
    "m_c1_window": -1,
    "c0_cap": 1,
    "c3_cap": 1,
    "f1_negative": 1,
    "c1_floor": -1,
    "c2_cap": 1,
    "f2_floor": -1,
    "r_c1_window": -1,
    "rho_c1_cap": 1,
    "rho0_probe_floor": -1,
    "f3_floor": -1,
    "m_2_cap": 1,
    "m_eps0_floor": -1,
    "m_eps1_floor": -1,
}


@pytest.fixture(scope="module")
def certified():
    """The certificate on [_MONOTONE_FROM, 0.5], and the precisions around it."""
    before = (mp.dps, mp.prec, iv.dps, iv.prec)
    found = certify(_MONOTONE_FROM)
    return found, before, (mp.dps, mp.prec, iv.dps, iv.prec)


# the rows whose float value carries C0's cancellation at the eps probe,
# which grows like 1/alpha (ROADMAP item 6), directly or through eps_0 and
# eps_1, whose objectives are built on C0
C0_ROWS = {
    "c0_cap", "c3_cap", "f1_negative", "c1_floor", "f2_floor", "m_eps0_floor", "m_eps1_floor",
}


def float_error(name: str, alpha: float) -> float:
    """A bound on a row's relative float error at alpha.

    1e-12 is REL_TOL, a root's window, which also covers the ~7e-14 steps
    of F2 near eps_0; the rows built on C0 add 1e-15/alpha, which
    test_float_error_budget_holds checks against mpmath.
    """
    return max(1e-12, 1e-15 / alpha) if name in C0_ROWS else 1e-12


def test_every_row_is_strictly_monotone(certified):
    found, _, _ = certified
    assert _MONOTONE_FROM <= 1e-6
    assert list(found) == [name for name, *_ in _CHECK_TABLE]
    assert {name: row["direction"] for name, row in found.items()} == DIRECTIONS
    for name, row in found.items():
        boxes = row["boxes"]
        assert boxes[0][0] == _MONOTONE_FROM and boxes[-1][1] == HI, name
        assert all(b[1] == c[0] for b, c in zip(boxes, boxes[1:])), name
        assert row["ratio"] == min(ratio for *_, ratio in boxes) > 0.0, name


def test_neighbouring_grid_values_keep_their_order(certified):
    # two grid points on [_MONOTONE_FROM, 0.5] lie at least _MONOTONE_FROM
    # apart, so the log of a row differs between them by at least
    # _MONOTONE_FROM times the smallest |v'|/|v| on the span.  For a
    # left point in box B, the span meets only the boxes that meet
    # [B.lo, B.hi + _MONOTONE_FROM], and float_error falls with alpha, so
    # both points' errors are at most float_error(B.lo).  Where the
    # difference exceeds twice that on every box, the doubles keep the
    # order of the true values
    found, _, _ = certified
    assert _MONOTONE_FROM * min(row["ratio"] for row in found.values()) > 2e-12
    for name, row in found.items():
        boxes = row["boxes"]
        for lo, hi, _ in boxes:
            ratio = min(r for a, b, r in boxes if b >= lo and a <= hi + _MONOTONE_FROM)
            assert _MONOTONE_FROM * ratio > 2 * float_error(name, lo), (name, lo)


@pytest.fixture(scope="module")
def oracle():
    # bench/oracle.py's closed forms in mpmath, compiled from its source so
    # that nothing is written under bench/; its 30 digits are scoped here
    pytest.importorskip("jsonschema", reason="bench/oracle.py imports it")
    path = ROOT / "bench" / "oracle.py"
    module = types.ModuleType("monotone_oracle")
    with mp.workdps(mp.dps):
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
        dps = mp.dps
    return module, dps


@pytest.mark.parametrize("alpha", [1e-6, 1e-5, 1e-4, 1e-3, 0.034, 0.5])
def test_float_error_budget_holds(oracle, alpha):
    # the package's C0 at the eps probe is within float_error of the mpmath
    # value, and each root within it of the true root: its objective
    # changes sign across root (1 -+ float_error), halved for R_0, whose
    # mass squares it.  (C3, F1, C1 and F2 carry at most C0's relative
    # error; m(eps) carries 2/(3 - alpha) < 1 of eps's.)
    module, dps = oracle
    with mp.workdps(dps):
        exact = module._Alpha(alpha)
        c0 = exact.c0(mp.mpf(_EPS_PROBE))
        got = AlphaConstants(alpha).c0(_EPS_PROBE)
        assert abs(got - c0) <= float_error("c0_cap", alpha) * c0
        for name, solve, f, share in (
            ("m_2_cap", solve_r0, exact.rho0_gap, 0.5),
            ("m_eps0_floor", solve_eps0, exact.f2, 1.0),
            ("m_eps1_floor", solve_eps1, exact.f1, 1.0),
        ):
            root, rel = mp.mpf(solve(alpha)), share * float_error(name, alpha)
            assert f(root * (1 - rel)) * f(root * (1 + rel)) < 0, name


def test_certificate_sets_no_precision(certified):
    _, before, after = certified
    assert after == before


def test_c0_is_nonnegative():
    # lemma 2, which lets C3's square root clamp its argument at 0
    assert c0_is_nonnegative() >= 1


def test_a_turning_point_is_not_certified():
    # (alpha - 0.25)^2 turns at 0.25: the box around it is halved down to
    # the narrowest width and then refused
    def rows(lo, hi):
        a = Dual(iv.mpf([lo, hi]), 1) - 0.25
        return {"square": a * a}

    with pytest.raises(CertificateError, match=r"no certificate on \[.*\]: square$"):
        _certify(rows, _MONOTONE_FROM, HI)


def test_keeps_sign_refuses_a_second_root():
    # (x - 1)(x - 3) is negative on (1, 3): from 1.5 it keeps its sign down
    # to 1.2 and up to 2.9, but not down to 0.5 or up to 4, past a root
    def g(k, x):
        return (x - 1) * (x - 3)

    assert keeps_sign(g, None, 1.5, 1.2, -1) and keeps_sign(g, None, 1.5, 2.9, -1)
    assert not keeps_sign(g, None, 1.5, 0.5, -1)
    assert not keeps_sign(g, None, 1.5, 4.0, -1)


def test_a_second_root_in_the_bracket_is_refused():
    # rho0 falls through rho_c1 below r_c1, so f3 has a second root there:
    # a bracket from r_c1 / 2 holds it, and the box is refused
    name, solve, g, mass, bracket = _roots()[0]
    assert name == "m_2_cap"

    def wide(k):
        return k.r_c1.v / 2, 4 * k.r_c1.v

    assert root_row(solve, g, mass, bracket, 0.03, 0.0301) is not None
    assert root_row(solve, g, mass, wide, 0.03, 0.0301) is None


def contains(x, value, rel):
    # the interval x, widened by rel of |value|, holds the double value
    slack = rel * abs(value)
    return float(x.a) - slack <= value <= float(x.b) + slack


# (alpha, relative error of the package's float rows there): C0 cancels
# like 4e-16/alpha at small alpha (ROADMAP item 6)
@pytest.mark.parametrize("alpha, rel", [(1e-6, 1e-9), (0.034, 1e-13), (0.5, 1e-13)])
def test_formulas_are_the_packages(alpha, rel):
    # at a box of one point, each closed-form row of the certificate holds
    # the ledger's float value, and on a box 1e-4 wide each root row holds
    # it too: the certificate's own formulas are the package's quantities.
    # (A root box must be wide enough that its enclosure, 9 spreads of the
    # end roots, holds the solvers' 1e-12 windows.)
    report = run_ledger(alpha, grid=2)
    got = {c["name"]: c["attained"] for c in report["checks"] if c["worst_alpha"] == alpha}
    rows = closed_form_rows(alpha, alpha)
    for name, value in got.items():
        if name in rows:
            assert contains(rows[name].v, value, rel), name
    for name, solve, g, mass, bracket in _roots():
        if name in got:
            value = root_row(solve, g, mass, bracket, alpha * (1 - 1e-4), alpha)
            assert value is not None and contains(value.v, got[name], 1e-9), name
    assert len(got) >= 5


def test_derivatives_hold_the_slopes():
    # by the mean value theorem, the slope of a row between the ends of a
    # box is its derivative somewhere inside, so the box's derivative
    # enclosure must meet the slope's enclosure
    a0, a1 = 0.03, 0.0301
    box = closed_form_rows(a0, a1)
    v0, v1 = closed_form_rows(a0, a0), closed_form_rows(a1, a1)
    for name, dual in box.items():
        slope = (v1[name].v - v0[name].v) / (iv.mpf(a1) - a0)
        assert slope.a <= dual.d.b and dual.d.a <= slope.b, name
