"""Acceptance gate: end-to-end checks, one printed verdict line each.

Run with -s to see the verdict lines while the suite executes.
"""

import math
import random
import time

from rieszdrop.cli import main
from rieszdrop.errors import BracketError, ConvergenceError
from rieszdrop.specfun import disk_potential
from rieszdrop.splitting import r_cn, rho_min, rho_n, v0_const
from rieszdrop.thresholds import (
    c0,
    f1,
    f2,
    m_c1,
    m_of_eps,
    rho0,
    solve_alpha0,
    solve_eps0,
    solve_eps1,
    solve_m2,
    solve_r0,
)
from rieszdrop.verify import f3, run_ledger

SEED = 20260819
M_2_SMALL_ALPHA = 2.051736725394743715951

# independent copy of the documented bounds, keyed by check name
LEDGER_BOUNDS = {
    "gamma_2_minus_alpha": ("window", 0.986, 1.0),
    "gamma_2_minus_half_alpha": ("window", 0.992, 1.0),
    "gamma_3_minus_half_alpha": ("window", 1.968, 2.0),
    "gamma_1_minus_alpha": ("window", 1.0, 1.021),
    "m_c1_window": ("window", 2.007, 2.087),
    "c0_cap": ("le", 0.121),
    "c3_cap": ("le", 0.557),
    "f1_negative": ("lt", 0.0),
    "c1_floor": ("ge", 3.009),
    "c2_cap": ("le", 3.196),
    "f2_floor": ("ge", 0.575),
    "r_c1_window": ("window", 0.799, 0.815),
    "rho_c1_cap": ("le", 4.656),
    "rho0_probe_floor": ("ge", 4.677),
    "f3_floor": ("ge", 0.021),
    "m_2_cap": ("lt", 2.806),
    "m_eps0_floor": ("gt", 2.806),
    "m_eps1_floor": ("gt", 2.806),
}


def rel(got, want):
    return abs(got - want) / abs(want)


def _report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_ac01_critical_mass_limit():
    m_c1(0.0)
    reps = 200
    t0 = time.perf_counter()
    for _ in range(reps):
        val = m_c1(0.0)
    per_call = (time.perf_counter() - t0) / reps
    ok = abs(val - 2.051) <= 0.001 and per_call < 1e-3
    _report("AC 1", ok, f"m_c1(0) = {val!r} (target 2.051 +/- 0.001), {per_call * 1e6:.1f} us per call")


def test_ac02_crossing_exponent():
    t0 = time.perf_counter()
    a0 = solve_alpha0(rel_tol=1e-10)
    dt = time.perf_counter() - t0
    ok = abs(a0 - 0.04273) <= 0.0005 and dt < 10.0
    _report("AC 2", ok, f"alpha0 = {a0!r} (target 0.04273 +/- 0.0005) in {dt:.3f} s")


def test_ac03_inequality_ledger():
    t0 = time.perf_counter()
    report = run_ledger(0.034, 0.846, 0.945, 1000)
    dt = time.perf_counter() - t0
    problems = []
    if not report["passed"]:
        problems.append("report did not pass")
    if len(report["checks"]) != 18:
        problems.append(f"expected 18 checks, got {len(report['checks'])}")
    for c in report["checks"]:
        kind, *bounds = LEDGER_BOUNDS[c["name"]]
        if kind == "window":
            lo, hi = bounds
            if not lo <= c["attained"] <= hi:
                problems.append(f"{c['name']}: {c['attained']} outside [{lo}, {hi}]")
            if c["bound"] not in (lo, hi):
                problems.append(f"{c['name']}: bound {c['bound']} not a window edge")
        else:
            (bound,) = bounds
            if c["bound"] != bound:
                problems.append(f"{c['name']}: bound {c['bound']} != {bound}")
            holds = {
                "le": c["attained"] <= bound,
                "lt": c["attained"] < bound,
                "ge": c["attained"] >= bound,
                "gt": c["attained"] > bound,
            }[kind]
            if not holds:
                problems.append(f"{c['name']}: {c['attained']} violates {kind} {bound}")
    if dt >= 60.0:
        problems.append(f"ledger took {dt:.1f} s")
    _report("AC 3", not problems, "; ".join(problems) or f"18 checks pass with documented bounds in {dt:.2f} s")


def test_ac04_scaling_identities():
    worst_mass = max(
        rel(math.pi * r_cn(1, a) ** 2, m_c1(a)) for a in (0.01, 0.1, 0.5, 1.0)
    )
    rng = random.Random(SEED)
    worst_density = 0.0
    for _ in range(1000):
        n = rng.randint(1, 64)
        r = rng.uniform(0.05, 12.0)
        alpha = rng.uniform(1e-9, 1.99)
        worst_density = max(
            worst_density, rel(rho_n(n, r, alpha), rho_n(1, r / math.sqrt(n), alpha))
        )
    worst_trip = 0.0
    for _ in range(1000):
        alpha = rng.uniform(1e-9, 1.99)
        eps = rng.uniform(1e-3, 50.0)
        back = (m_of_eps(eps, alpha) / math.pi) ** ((3.0 - alpha) / 2.0)
        worst_trip = max(worst_trip, rel(back, eps))
    ok = worst_mass < 1e-12 and worst_density < 1e-13 and worst_trip < 1e-13
    _report(
        "AC 4",
        ok,
        f"mass identity {worst_mass:.2e} (< 1e-12), density scaling {worst_density:.2e} "
        f"(< 1e-13), mass round trip {worst_trip:.2e} (< 1e-13)",
    )


def test_ac05_independent_oracles():
    from scipy.integrate import quad

    def v0_quadrature(alpha):
        def inner(r):
            def chord_integrand(theta):
                s = math.sin(theta)
                chord = -r * math.cos(theta) + math.sqrt(max(1.0 - r * r * s * s, 0.0))
                return chord ** (2.0 - alpha) / (2.0 - alpha)

            val, _ = quad(chord_integrand, 0.0, 2.0 * math.pi, limit=200)
            return val

        val, _ = quad(lambda r: 2.0 * math.pi * r * inner(r), 0.0, 1.0, limit=200)
        return val

    worst_v0 = max(rel(v0_const(a), v0_quadrature(a)) for a in (0.25, 0.5, 1.0))

    def brute(r, alpha):
        return min(rho_n(n, r, alpha) for n in range(1, 101))

    worst_env = 0.0
    for alpha in (0.1, 0.5, 1.0):
        top = r_cn(99, alpha)
        for i in range(1, 1001):
            r = top * i / 1000.0
            worst_env = max(worst_env, rel(rho_min(r, alpha)[0], brute(r, alpha)))

    gap6 = {
        a: disk_potential(1.0 - 1e-6, a) - disk_potential(1.0 + 1e-6, a)
        for a in (0.1, 0.5, 1.0, 1.5)
    }
    gap4 = {
        a: disk_potential(1.0 - 1e-4, a) - disk_potential(1.0 + 1e-4, a)
        for a in (1.0, 1.5)
    }
    # the gap scales like h^(2 - alpha); below 1e-5 at h = 1e-6 needs alpha < 1
    gaps_ok = (
        0.0 < gap6[0.1] < 1e-5
        and 0.0 < gap6[0.5] < 1e-5
        and gap6[1.0] < gap4[1.0]
        and gap6[1.5] < gap4[1.5]
    )
    ok = worst_v0 < 1e-5 and worst_env < 1e-12 and gaps_ok
    _report(
        "AC 5",
        ok,
        f"interaction constant vs quadrature {worst_v0:.2e} (< 1e-5), envelope vs brute "
        f"force {worst_env:.2e} (< 1e-12), branch gaps {gap6[0.1]:.2e}/{gap6[0.5]:.2e} "
        f"(< 1e-5) with decay for alpha >= 1",
    )


def test_ac06_monotonicity_and_preconditions():
    problems = []
    for alpha in (0.034, 0.1, 0.5, 1.0):
        rcs = [r_cn(n, alpha) for n in range(1, 51)]
        levels = [rho_n(n, rc, alpha) for n, rc in enumerate(rcs, start=1)]
        if not all(b > a for a, b in zip(rcs, rcs[1:])):
            problems.append(f"crossover radii not increasing at alpha={alpha}")
        if not all(b < a for a, b in zip(levels, levels[1:])):
            problems.append(f"crossover densities not decreasing at alpha={alpha}")
    for alpha in (0.034, 0.25, 0.5):
        rs = [0.2 + 0.05 * k for k in range(60)]
        for label, fn in (("rho0", rho0), ("rho1", lambda r, a: rho_n(1, r, a))):
            vals = [fn(r, alpha) for r in rs]
            if not all(u - 2.0 * v + w > 0.0 for u, v, w in zip(vals, vals[1:], vals[2:])):
                problems.append(f"{label} second differences not positive at alpha={alpha}")
    for alpha in (0.1, 0.5, 1.0, 1.5):
        vals = [disk_potential(0.05 * k, alpha) for k in range(1, 60)]
        if not all(b < a for a, b in zip(vals, vals[1:])):
            problems.append(f"kernel potential not decreasing at alpha={alpha}")
    for alpha in (0.034, 0.3, 1.0):
        amps = [c0(alpha, 10.0**e) for e in range(-6, 2)]
        if not all(b > a for a, b in zip(amps, amps[1:])):
            problems.append(f"c0 not increasing in eps at alpha={alpha}")
    # every root-solve target changes sign over its default bracket
    for alpha in (0.01, 0.034, 0.3):
        if not f2(alpha, 1e-6) > 0.0 > f2(alpha, solve_eps0(alpha) * 2.0):
            problems.append(f"f2 bracket broken at alpha={alpha}")
        if not f1(alpha, 1e-6) < 0.0 < f1(alpha, solve_eps1(alpha) * 2.0):
            problems.append(f"f1 bracket broken at alpha={alpha}")
        if not f3(alpha, r_cn(1, alpha)) < 0.0 < f3(alpha, 10.0):
            problems.append(f"f3 bracket broken at alpha={alpha}")

    def crossing_gap(alpha):
        masses = min(m_of_eps(solve_eps0(alpha), alpha), m_of_eps(solve_eps1(alpha), alpha))
        return masses - solve_m2(alpha)

    if not crossing_gap(0.01) > 0.0 > crossing_gap(0.10):
        problems.append("crossing gap does not change sign on [0.01, 0.10]")
    for k in range(1, 11):
        alpha = 0.5 * k / 10
        try:
            solve_r0(alpha)
            solve_eps0(alpha)
            solve_eps1(alpha)
        except (BracketError, ConvergenceError) as exc:
            problems.append(f"solver failed at alpha={alpha}: {exc}")
    _report("AC 6", not problems, "; ".join(problems) or "monotonicity, convexity, and bracket preconditions hold")


def test_ac07_small_alpha_limit_consistency():
    m = solve_m2(1e-4)
    drift = abs(m - M_2_SMALL_ALPHA)
    jump = abs(m - m_c1(0.0))
    ok = drift < 1e-6 and jump < 0.01
    _report("AC 7", ok, f"m_2(1e-4) = {m!r}, {drift:.2e} from reference, {jump:.4f} above the alpha=0 mass")


def test_ac08_cli_tables(tmp_path):
    t0 = time.perf_counter()
    sweep_path = tmp_path / "sweep.csv"
    envelope_path = tmp_path / "envelope.csv"
    code_sweep = main(["sweep", "--out", str(sweep_path)])
    code_env = main(["envelope", "--alpha", "0.1", "--out", str(envelope_path)])
    dt = time.perf_counter() - t0

    problems = []
    if code_sweep != 0:
        problems.append(f"sweep exited {code_sweep}")
    if code_env != 0:
        problems.append(f"envelope exited {code_env}")

    rows = [line.split(",") for line in sweep_path.read_text().splitlines()[1:]]
    signs = []
    for row in rows:
        alpha, _, m2v, me0, me1 = (float(x) for x in row)
        signs.append((alpha, min(me0, me1) - m2v))
    changes = [
        (signs[i][0], signs[i + 1][0])
        for i in range(len(signs) - 1)
        if (signs[i][1] > 0.0) != (signs[i + 1][1] > 0.0)
    ]
    if len(changes) != 1:
        problems.append(f"{len(changes)} sign changes in the threshold ordering")
    else:
        lo, hi = changes[0]
        if abs(lo - 0.0425) > 1e-9 or abs(hi - 0.0430) > 1e-9:
            problems.append(f"crossing between {lo} and {hi}, expected (0.0425, 0.0430)")

    erows = [line.split(",") for line in envelope_path.read_text().splitlines()[1:]]
    n_opts = [int(r[5]) for r in erows]
    if n_opts != sorted(n_opts):
        problems.append("optimal component count not nondecreasing")

    def flip_bracket(col_a, col_b, crossover, label):
        flips = [
            (float(a[0]), float(b[0]))
            for a, b in zip(erows, erows[1:])
            if (float(a[col_a]) < float(a[col_b])) != (float(b[col_a]) < float(b[col_b]))
        ]
        if len(flips) != 1 or not flips[0][0] < crossover < flips[0][1]:
            problems.append(f"{label} crossing not bracketed: {flips}")

    flip_bracket(1, 2, r_cn(1, 0.1), "one/two disk")
    flip_bracket(2, 3, r_cn(2, 0.1), "two/three disk")
    if dt >= 30.0:
        problems.append(f"tables took {dt:.1f} s")
    _report("AC 8", not problems, "; ".join(problems) or f"sweep and envelope tables consistent in {dt:.2f} s")
