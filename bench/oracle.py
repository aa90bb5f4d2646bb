"""Independent oracles for the benchmark's outputs, in mpmath and jsonschema.

The driver runs these once per run on the first repetition's outputs (later
repetitions must repeat them bit for bit), outside every timed region.
Nothing here imports `rieszdrop`: every quantity is re-derived from the
closed forms in the module docstrings, at 30 significant digits.

Checks:
  * gamma, m_c1, r_cn(1), rho_c1, the n-disk densities and the disk
    potential against their mpmath values;
  * each solver root (R_0, eps_0, eps_1 and alpha_0) by the sign change of
    its objective across root * (1 -+ 1e-9);
  * every JSON document against the package's output.schema.json.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import functools
import json
import os

import jsonschema
from mpmath import mp, mpf

mp.dps = 30

VALUE_RTOL = 1e-12
POTENTIAL_RTOL = 1e-9  # hyp2f1 is accurate to ~1e-10 on its degenerate path
ROOT_REL = 1e-9
PI = mp.pi


def _rel(got: float, want) -> float:
    return float(abs((mpf(got) - want) / want))


class _Alpha:
    """Closed-form constants at one exponent, in mpmath."""

    def __init__(self, alpha: float) -> None:
        a = self.a = mpf(alpha)
        self.v0 = 2 * PI**2 * mp.gamma(2 - a) / (mp.gamma(2 - a / 2) * mp.gamma(3 - a / 2))
        self.r_c1 = self.r_cn(1)
        self.rho_c1 = self.rho_n(1, self.r_c1)

    def r_cn(self, n: int):
        a = self.a
        num = 2 * PI * (mp.sqrt(n + 1) - mp.sqrt(n))
        den = self.v0 * (mpf(n) ** (a / 2 - 1) - mpf(n + 1) ** (a / 2 - 1))
        return (num / den) ** (1 / (3 - a))

    def rho_n(self, n: int, r):
        r = mpf(r)
        s = r / mp.sqrt(n)
        return n * (2 * PI * s + self.v0 * s ** (4 - self.a)) / (PI * r * r)

    def m_c1(self):
        a = self.a
        num = (mp.sqrt(2) - 1) * mp.gamma(2 - a / 2) * mp.gamma(3 - a / 2)
        den = PI * (1 - mpf(2) ** ((a - 2) / 2)) * mp.gamma(2 - a)
        return PI * (num / den) ** (2 / (3 - a))

    def rho0_gap(self, r):
        a = self.a
        coeff = mpf(2) ** a * PI ** (1 - a) / self.rho_c1**a
        return 2 / r + coeff * r ** (2 - 2 * a) - self.rho_c1

    def c0(self, e):
        return e / (2 * PI) * (self.v0 - PI ** (2 - self.a) / (1 + e * self.v0 / (2 * PI)) ** self.a)

    def f1(self, e):
        a = self.a
        d0 = self.c0(e)
        g = mp.gamma(2 - a / 2)
        lead = PI**2 * a * (2 - a) * mp.gamma(1 - a) / (2 * g * g)
        d3 = lead * (1 + mpf(2) / 3 * mp.sqrt(PI * d0 * (d0 + 2)))
        return e * d3 * (e * d3 * d0 * (d0 + 2) + 2) - 1

    def f2(self, e):
        a = self.a
        d0 = self.c0(e)
        c1 = PI ** (1 - a) / (1 + d0) ** a
        return 1 / (1 + d0) + 2 * e * (c1 - 2 * PI / (2 - a))

    def eps_of_m(self, m: float):
        return (mpf(m) / PI) ** ((3 - self.a) / 2)

    def root(self, f, lo, hi):
        return mp.findroot(f, (mpf(lo), mpf(hi)), solver="anderson")


def _sign_change(f, x, what: str) -> list[str]:
    lo, hi = f(x * (1 - ROOT_REL)), f(x * (1 + ROOT_REL))
    if lo * hi < 0:
        return []
    return [f"{what}: no sign change across {mp.nstr(x, 17)} * (1 -+ {ROOT_REL})"]


def _close(got: float, want, tol: float, what: str) -> list[str]:
    err = _rel(got, want)
    return [] if err <= tol else [f"{what}: {got!r} is {err:.2e} off {mp.nstr(want, 17)}"]


def disk_potential(r: float, alpha: float):
    a, rr = mpf(alpha), mpf(r)
    if rr >= 1:
        return PI / rr**a * mp.hyp2f1(a / 2, a / 2, 2, 1 / rr**2)
    return 2 * PI / (2 - a) * mp.hyp2f1((a - 2) / 2, a / 2, 1, rr**2)


@functools.cache
def _schema_validator(root: str) -> jsonschema.Draft202012Validator:
    path = os.path.join(root, "src", "rieszdrop", "schemas", "output.schema.json")
    with open(path, encoding="utf-8") as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


def schema_problems(root: str, doc, what: str) -> list[str]:
    """Violations of the checkout's output.schema.json by one CLI document."""
    return [f"{what}: schema: {e.message}" for e in _schema_validator(root).iter_errors(doc)]


_GAMMA_ROWS = {
    "gamma_2_minus_alpha": lambda a: 2.0 - a,
    "gamma_2_minus_half_alpha": lambda a: 2.0 - a / 2.0,
    "gamma_3_minus_half_alpha": lambda a: 3.0 - a / 2.0,
    "gamma_1_minus_alpha": lambda a: 1.0 - a,
}


def check_ledger(report: dict, alpha_max: float, grid: int) -> list[str]:
    out = []
    if not report["passed"]:
        out.append("ledger: verdict is fail")
    if report["grid_points"] != grid or report["alpha_max"] != alpha_max:
        out.append("ledger: grid or alpha_max differs from the request")
    rows = {row["name"]: row for row in report["checks"]}
    for name, arg in _GAMMA_ROWS.items():
        row = rows[name]
        want = mp.gamma(mpf(arg(row["worst_alpha"])))
        out += _close(row["attained"], want, VALUE_RTOL, f"ledger {name}")
    row = rows["m_c1_window"]
    out += _close(row["attained"], _Alpha(row["worst_alpha"]).m_c1(), VALUE_RTOL, "ledger m_c1")
    row = rows["m_2_cap"]
    k = _Alpha(row["worst_alpha"])
    out += _sign_change(k.rho0_gap, mp.sqrt(mpf(row["attained"]) / PI), "ledger R_0")
    row = rows["m_eps0_floor"]
    k = _Alpha(row["worst_alpha"])
    out += _sign_change(k.f2, k.eps_of_m(row["attained"]), "ledger eps_0")
    row = rows["m_eps1_floor"]
    k = _Alpha(row["worst_alpha"])
    out += _sign_change(k.f1, k.eps_of_m(row["attained"]), "ledger eps_1")
    return out


def check_sweep(rows: list, alpha_min: float, alpha_max: float, steps: int) -> list[str]:
    out = []
    if len(rows) != steps:
        out.append(f"sweep: {len(rows)} rows, expected {steps}")
    for i, row in enumerate(rows):
        alpha = alpha_min + (alpha_max - alpha_min) * i / (steps - 1)
        if row["alpha"] != alpha:
            out.append(f"sweep row {i}: alpha {row['alpha']!r} != {alpha!r}")
            continue
        if None in row.values():
            out.append(f"sweep row {i}: unsolved")
            continue
        k = _Alpha(alpha)
        out += _close(row["m_c1"], k.m_c1(), VALUE_RTOL, f"sweep row {i} m_c1")
        out += _sign_change(k.rho0_gap, mp.sqrt(mpf(row["m_2"]) / PI), f"sweep row {i} R_0")
        out += _sign_change(k.f2, k.eps_of_m(row["m_eps0"]), f"sweep row {i} eps_0")
        out += _sign_change(k.f1, k.eps_of_m(row["m_eps1"]), f"sweep row {i} eps_1")
    return out


def check_envelope(rows: list, alpha: float, r_max: float, steps: int) -> list[str]:
    out = []
    if len(rows) != steps:
        out.append(f"envelope: {len(rows)} rows, expected {steps}")
    k = _Alpha(alpha)
    for i, row in enumerate(rows, start=1):
        r = row["R"]
        if r != r_max * i / steps:
            out.append(f"envelope row {i}: R {r!r} != {r_max * i / steps!r}")
            continue
        for n in (1, 2, 3):
            out += _close(row[f"rho_{n}"], k.rho_n(n, r), VALUE_RTOL, f"envelope row {i} rho_{n}")
        n = row["n_opt"]
        best = k.rho_n(n, r)
        out += _close(row["rho_min"], best, VALUE_RTOL, f"envelope row {i} rho_min")
        for m in (n - 1, n + 1):
            if m >= 1 and k.rho_n(m, r) < best * (1 - VALUE_RTOL):
                out.append(f"envelope row {i}: n = {m} beats n_opt = {n}")
    return out


def _crossing_gap(alpha):
    # min(m(eps_0), m(eps_1)) - m_2 with every root solved in mpmath
    k = _Alpha(alpha)
    r0 = k.root(k.rho0_gap, k.r_c1 * 1.0001, 4 * k.r_c1)
    e0 = k.root(k.f2, 0.1, 4)
    e1 = k.root(k.f1, 0.1, 4)
    m = lambda e: PI * e ** (2 / (3 - k.a))  # noqa: E731
    return min(m(e0), m(e1)) - PI * r0 * r0


def check_alpha0(payload: dict) -> list[str]:
    a0 = payload["alpha0"]
    lo = _crossing_gap(a0 * (1 - ROOT_REL))
    hi = _crossing_gap(a0 * (1 + ROOT_REL))
    if lo * hi < 0:
        return []
    return [f"alpha0: no sign change of the crossing gap across {a0!r} * (1 -+ {ROOT_REL})"]


def check_eval(payload: dict, alpha: float) -> list[str]:
    out = []
    if payload["alpha"] != alpha:
        out.append(f"eval: alpha {payload['alpha']!r} != {alpha!r}")
    k = _Alpha(alpha)
    out += _close(payload["m_c1"], k.m_c1(), VALUE_RTOL, "eval m_c1")
    out += _close(payload["R_c1"], k.r_c1, VALUE_RTOL, "eval R_c1")
    out += _close(payload["rho_c1"], k.rho_c1, VALUE_RTOL, "eval rho_c1")
    out += _sign_change(k.rho0_gap, mpf(payload["R_0"]), "eval R_0")
    out += _sign_change(k.f2, mpf(payload["eps_0"]), "eval eps_0")
    out += _sign_change(k.f1, mpf(payload["eps_1"]), "eval eps_1")
    return out


def check_potential(r: float, alpha: float, value: float) -> bool:
    return _rel(value, disk_potential(r, alpha)) <= POTENTIAL_RTOL
