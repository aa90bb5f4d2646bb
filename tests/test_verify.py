"""Inequality ledger: grid sweep, reported extremes, failure reporting."""

import json
import math
import re
from importlib import resources

import jsonschema
import mpmath
import pytest

from rieszdrop import cli, verify
from rieszdrop.errors import BracketError, DomainError
from rieszdrop.specfun import gamma
from rieszdrop.splitting import r_cn, rho_c1
from rieszdrop.thresholds import (
    c0,
    c1,
    c2,
    c3,
    f1,
    f2,
    m_c1,
    m_of_eps,
    rho0,
    solve_eps0,
    solve_eps1,
    solve_m2,
    solve_r0,
)
from rieszdrop.verify import _CHECK_TABLE, f3, run_ledger

CHECK_ORDER = (
    "gamma_2_minus_alpha",
    "gamma_2_minus_half_alpha",
    "gamma_3_minus_half_alpha",
    "gamma_1_minus_alpha",
    "m_c1_window",
    "c0_cap",
    "c3_cap",
    "f1_negative",
    "c1_floor",
    "c2_cap",
    "f2_floor",
    "r_c1_window",
    "rho_c1_cap",
    "rho0_probe_floor",
    "f3_floor",
    "m_2_cap",
    "m_eps0_floor",
    "m_eps1_floor",
)

# one-sided checks attain their extreme at alpha_max itself, so the
# values are grid-independent once the endpoint is on the grid
ONE_SIDED_ATTAINED = {
    "c0_cap": 0.098799409102941438,
    "c3_cap": 0.52530993165152762,
    "f1_negative": -0.070221510389057218,
    "c1_floor": 3.0120040454765125,
    "c2_cap": 3.1959233505491285,
    "f2_floor": 0.59889275293224753,
    "rho_c1_cap": 4.5569761279403016,
    "rho0_probe_floor": 4.7504340832583498,
    "f3_floor": 0.19345795531804821,
    "m_2_cap": 2.4079246783906547,
    "m_eps0_floor": 4.9338592164959598,
    "m_eps1_floor": 2.9104694335445971,
}


@pytest.fixture(scope="module")
def report():
    return run_ledger()


def rel(got, want):
    return abs(got - want) / abs(want)


def test_default_ledger_passes(report):
    assert isinstance(report, dict)
    assert report["passed"]
    assert report["grid_points"] == 1000
    assert report["alpha_max"] == 0.034
    assert len(report["checks"]) == 18
    assert tuple(c["name"] for c in report["checks"]) == CHECK_ORDER
    for c in report["checks"]:
        assert isinstance(c, dict)
        assert c["pass"]
        assert c["margin"] > 0.0
        assert "{" not in c["claim"]


def test_one_sided_extremes(report):
    by_name = {c["name"]: c for c in report["checks"]}
    for name, want in ONE_SIDED_ATTAINED.items():
        c = by_name[name]
        assert rel(c["attained"], want) < 1e-9
        assert c["worst_alpha"] == 0.034


def test_window_extremes_sit_on_grid_endpoints(report):
    endpoints = {0.034 * 1 / 1000, 0.034}
    for c in report["checks"]:
        if c["name"].endswith("_window") or c["name"].startswith("gamma_"):
            assert c["worst_alpha"] in endpoints


def test_coarse_grid_same_verdict(report):
    coarse = run_ledger(grid=2)
    assert coarse["passed"] == report["passed"]
    assert tuple(c["name"] for c in coarse["checks"]) == CHECK_ORDER
    assert all(c["pass"] for c in coarse["checks"])


def test_failure_reporting():
    rep = run_ledger(alpha_max=0.05, grid=40)
    assert not rep["passed"]
    assert rep["passed"] == all(c["pass"] for c in rep["checks"])
    failed = {c["name"] for c in rep["checks"] if not c["pass"]}
    # both extremes land on the endpoint, so the verdict is grid-stable
    assert "gamma_2_minus_alpha" in failed
    assert "m_eps1_floor" in failed
    for c in rep["checks"]:
        if not c["pass"]:
            assert c["margin"] <= 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha_max": 0.034, "grid": 50},
        {"alpha_max": 0.05, "grid": 40},
    ],
)
def test_each_row_is_its_claim_at_its_worst_alpha(kwargs):
    # the ledger names a row only by its position, so pin each attained
    # value to the public function its claim names, at its worst alpha:
    # the closed forms bit for bit, the warm roots against cold solves
    rep = run_ledger(**kwargs)
    eps, r = rep["eps_probe"], rep["r_probe"]
    closed = {
        "gamma_2_minus_alpha": lambda a: gamma(2 - a),
        "gamma_2_minus_half_alpha": lambda a: gamma(2 - a / 2),
        "gamma_3_minus_half_alpha": lambda a: gamma(3 - a / 2),
        "gamma_1_minus_alpha": lambda a: gamma(1 - a),
        "m_c1_window": m_c1,
        "c0_cap": lambda a: c0(a, eps),
        "c3_cap": lambda a: c3(a, eps),
        "f1_negative": lambda a: f1(a, eps),
        "c1_floor": lambda a: c1(a, eps),
        "c2_cap": c2,
        "f2_floor": lambda a: f2(a, eps),
        "r_c1_window": lambda a: r_cn(1, a),
        "rho_c1_cap": rho_c1,
        "rho0_probe_floor": lambda a: rho0(r, a),
        "f3_floor": lambda a: f3(a, r),
    }
    warm = {
        "m_2_cap": solve_m2,
        "m_eps0_floor": lambda a: m_of_eps(solve_eps0(a), a),
        "m_eps1_floor": lambda a: m_of_eps(solve_eps1(a), a),
    }
    assert set(closed) | set(warm) == set(CHECK_ORDER)
    for c in rep["checks"]:
        a = c["worst_alpha"]
        if c["name"] in closed:
            assert c["attained"] == closed[c["name"]](a), c["name"]
        else:
            assert rel(c["attained"], warm[c["name"]](a)) < 2e-12, c["name"]


def test_probe_rows_against_mpmath(report):
    # the ten rows at the probes that bench/oracle.py's ledger check skips,
    # re-derived at their worst alpha from the closed forms in the module
    # docstrings of splitting and thresholds, at 40 digits
    def rows(alpha, eps, r):
        pi, gamma_ = mpmath.pi, mpmath.gamma
        a = mpmath.mpf(alpha)
        v0 = 2 * pi**2 * gamma_(2 - a) / (gamma_(2 - a / 2) * gamma_(3 - a / 2))
        r_c1 = (2 * pi * (mpmath.sqrt(2) - 1) / (v0 * (1 - mpmath.power(2, a / 2 - 1)))) ** (
            1 / (3 - a)
        )
        rho_c1 = (2 * pi * r_c1 + v0 * r_c1 ** (4 - a)) / (pi * r_c1**2)
        d0 = eps / (2 * pi) * (v0 - pi ** (2 - a) / (1 + eps * v0 / (2 * pi)) ** a)
        c1 = pi ** (1 - a) / (1 + d0) ** a
        c2 = 2 * pi / (2 - a)
        lead = pi**2 * a * (2 - a) * gamma_(1 - a) / (2 * gamma_(2 - a / 2) ** 2)
        d3 = lead * (1 + mpmath.mpf(2) / 3 * mpmath.sqrt(pi * d0 * (d0 + 2)))
        rho0_r = 2 / r + 2**a * pi ** (1 - a) / rho_c1**a * r ** (2 - 2 * a)
        return {
            "c0_cap": d0,
            "c3_cap": d3,
            "f1_negative": eps * d3 * (eps * d3 * d0 * (d0 + 2) + 2) - 1,
            "c1_floor": c1,
            "c2_cap": c2,
            "f2_floor": 1 / (1 + d0) + 2 * eps * (c1 - c2),
            "r_c1_window": r_c1,
            "rho_c1_cap": rho_c1,
            "rho0_probe_floor": rho0_r,
            "f3_floor": rho0_r - rho_c1,
        }

    eps, r = mpmath.mpf(report["eps_probe"]), mpmath.mpf(report["r_probe"])
    checked = set()
    with mpmath.workdps(40):
        for c in report["checks"]:
            want = rows(c["worst_alpha"], eps, r).get(c["name"])
            if want is not None:
                assert abs(c["attained"] - want) / abs(want) < 1e-13, c["name"]
                checked.add(c["name"])
    assert len(checked) == 10


def test_f3_clearance():
    # stays above the ledger floor on the working range at the probe radius
    for k in range(1, 35):
        alpha = 0.034 * k / 34
        assert f3(alpha, 0.945) >= 0.021
    # dips negative at the first crossover radius
    for alpha in (0.01, 0.1, 0.3, 0.5):
        assert f3(alpha, r_cn(1, alpha)) < 0.0
    # sign change brackets the nonexistence scale
    for alpha in (0.01, 0.034, 0.3):
        r0 = solve_r0(alpha)
        assert f3(alpha, r0 * (1.0 - 1e-6)) < 0.0 < f3(alpha, r0 * (1.0 + 1e-6))
    with pytest.raises(DomainError):
        f3(0.6, 1.0)
    # an r outside (0, inf) is rho0's to reject, in rho0's words, not a
    # density out of double range
    for r in (0.0, math.inf):
        with pytest.raises(DomainError) as exc:
            f3(0.1, r)
        assert str(exc.value) == f"rho0: r must lie in (0, inf), got {r}"
    # just past rho0's last exponent, where the constants record still
    # builds and f3 must not read it
    with pytest.raises(DomainError) as exc:
        f3(0.5000002, 0.945)
    assert str(exc.value) == "rho0: alpha must lie in [0, 0.5], got 0.5000002"


def test_each_claim_states_its_bounds():
    # a claim reads "lo <= value <= hi", "value <= hi" or "value >= lo",
    # with < and > in place of <= and >= where the row is strict; its
    # numbers are the row's lo and hi, so neither can move alone
    for name, claim, lo, hi, strict in _CHECK_TABLE:
        parts = re.split(r" (<=|>=|<|>) ", claim)
        ops = parts[1::2]
        if len(parts) == 5:
            assert ops == (["<", "<"] if strict else ["<=", "<="]), name
            assert (float(parts[0]), float(parts[4])) == (lo, hi), name
            continue
        (op,) = ops
        assert len(parts) == 3 and op in (("<", ">") if strict else ("<=", ">=")), name
        bound = float(parts[2])
        assert (lo, hi) == ((None, bound) if op[0] == "<" else (bound, None)), name


def test_to_dict_shape(report):
    assert list(report) == ["passed", "grid_points", "alpha_max", "eps_probe", "r_probe", "checks"]
    assert report["passed"] is True
    assert len(report["checks"]) == 18
    for cd in report["checks"]:
        assert list(cd) == ["name", "claim", "attained", "bound", "margin", "pass", "worst_alpha"]
        assert cd["pass"] is True
    # the dict the CLI serializes, in the key order it writes
    json.dumps(report, allow_nan=False)


def test_report_matches_schema(report):
    schema_text = (
        resources.files("rieszdrop").joinpath("schemas/output.schema.json").read_text()
    )
    schema = json.loads(schema_text)
    jsonschema.Draft202012Validator(schema).validate(report)


def test_run_ledger_domain():
    # alpha_max above 0.5 is rejected up front, naming alpha_max, not by
    # rho0 at the first grid point past 0.5
    for bad in (0.0, 0.5000002, 0.9, 1.0, math.nan):
        with pytest.raises(DomainError, match=r"^run_ledger: alpha_max must lie in \(0, 0.5\]"):
            run_ledger(alpha_max=bad)
    # the rows stay finite on the whole domain at the paper's probes, so
    # every report is valid JSON
    for alpha_max in (1e-6, 1e-3, 0.5):
        report = run_ledger(alpha_max=alpha_max, grid=2)
        assert report["alpha_max"] == alpha_max
        json.dumps(report, allow_nan=False)
    # a non-integer grid used to raise TypeError from range()
    for bad in (1, 2.5, "5", 2.0, None):
        with pytest.raises(DomainError, match=r"^run_ledger: grid must be an integer of at least"):
            run_ledger(grid=bad)


def test_ledger_raises_the_first_solver_error():
    # at alpha = 5e-301 R_0 solves, and the eps_0 solve is the first to fail
    with pytest.raises(BracketError) as exc:
        run_ledger(1e-300, grid=2)
    assert str(exc.value) == (
        "solve_eps0(alpha=5e-301): no sign change on [1e-06, 4.611686018427388e+18]: "
        "f(lo) = 1.0, f(hi) = 1.0"
    )


def test_ledger_deterministic():
    assert run_ledger(grid=50) == run_ledger(grid=50)


# (alpha_max, grid) pairs whose first exponent alpha_max / grid is at
# least verify._MONOTONE_FROM, passing and failing ledgers both
TWO_POINT = [(0.034, 50), (0.05, 40), (0.030, 1000), (0.034, 1000), (0.5, 7), (1e-5, 7)]


@pytest.mark.parametrize("alpha_max, grid", TWO_POINT)
def test_two_point_report_matches_full_grid(alpha_max, grid, tmp_path, monkeypatch):
    # the two ends give the full walk's report: the same verdicts, bounds
    # and worst exponents, and the same values but for the roots at
    # alpha_max, which the full walk solves warm and the two ends cold
    assert alpha_max / grid >= verify._MONOTONE_FROM
    out = tmp_path / "report.json"

    def run():
        argv = ["verify", "--alpha-max", repr(alpha_max), "--grid", str(grid), "--out", str(out)]
        return cli.main(argv), json.loads(out.read_text(encoding="utf-8"))

    code, two = run()
    monkeypatch.setattr(verify, "_MONOTONE_FROM", math.inf)
    full_code, full = run()
    assert (code, two["passed"]) == (full_code, full["passed"])
    assert [c["name"] for c in two["checks"]] == list(CHECK_ORDER)
    for t, f in zip(two["checks"], full["checks"]):
        assert (t["name"], t["pass"], t["bound"], t["worst_alpha"]) == (
            f["name"], f["pass"], f["bound"], f["worst_alpha"]
        )
        for key in ("attained", "margin"):
            assert rel(t[key], f[key]) <= 1e-11, (t["name"], key)


def test_tied_extremes_report_their_first_alpha(monkeypatch):
    # below _MONOTONE_FROM every point is walked.  At alpha <= 1e-16 the
    # argument 2 - alpha/2 rounds to 2, so Gamma(2 - alpha/2) reads exactly
    # 1.0 at every point and both its extremes tie; with one side of the
    # row at a time, each reports the first alpha that reaches it
    name, claim, lo, hi, strict = verify._CHECK_TABLE[1]
    assert name == "gamma_2_minus_half_alpha"
    for side in ((lo, None), (None, hi)):
        table = list(verify._CHECK_TABLE)
        table[1] = (name, claim, *side, strict)
        monkeypatch.setattr(verify, "_CHECK_TABLE", tuple(table))
        row = run_ledger(1e-16, grid=4)["checks"][1]
        assert (row["attained"], row["worst_alpha"]) == (1.0, 1e-16 / 4), side


def test_a_bound_met_exactly_passes_only_where_not_strict(monkeypatch):
    # each row's reported bound moved onto the extreme it attains, the other
    # side dropped: a margin of exactly 0 passes a <= claim and fails a <
    base = run_ledger(0.034, grid=2)["checks"]
    table = [
        (name, claim, c["attained"], None, strict)
        if c["bound"] == lo
        else (name, claim, None, c["attained"], strict)
        for (name, claim, lo, _, strict), c in zip(verify._CHECK_TABLE, base)
    ]
    monkeypatch.setattr(verify, "_CHECK_TABLE", tuple(table))
    report = run_ledger(0.034, grid=2)
    for (name, _, _, _, strict), c in zip(table, report["checks"]):
        assert (c["margin"], c["pass"]) == (0.0, not strict), name
    assert not report["passed"]
