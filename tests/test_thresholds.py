"""Threshold masses, the comparison density, and the constant chain."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszdrop import thresholds
from rieszdrop.errors import BracketError, ConvergenceError, DomainError
from rieszdrop.specfun import gamma
from rieszdrop.splitting import r_cn, rho_c1
from rieszdrop.thresholds import (
    AlphaConstants,
    c0,
    c1,
    c2,
    c3,
    delta_bound,
    disk_potential_max_slope,
    f1,
    f2,
    m_at_crossing,
    m_c1,
    m_of_eps,
    rho0,
    solve_alpha0,
    solve_eps0,
    solve_eps1,
    solve_m2,
    solve_r0,
)

SEED = 20260819

# 22-digit reference values (50-digit arithmetic, rounded)
M_C1_AT_ZERO = 2.050719030045191177891514
M_2_REF = {
    1e-4: 2.051736725394743715951,
    1e-3: 2.060899586791464105752,
    0.034: 2.407924678391070733083,
}
R_0_REF = 0.8754805710681433975048
C0_TINY_ALPHA = 2.976883486744516489590423e-6
DELTA_REF = 0.8979206424901579945369139
EPS_REF = {
    0.034: (1.953091966387657080874, 0.8928611592516537444208),
    0.005: (11.5935410891336089103, 5.53887744582514831642),
}
M_EPS_REF = {
    0.034: (4.933859216496246037917, 2.910469433544532189417),
}
ALPHA0_REF = 0.04273433628264671495607
# rho0(r_cn(1, alpha)) - rho_c1(alpha): negative dip below the level line
RHO0_GAP_AT_RC = {
    0.01: -0.04079860707028082,
    0.1: -0.39298146301826886,
    0.3: -1.099202825206019,
    0.5: -1.7462462099051006,
}


def rel(got, want):
    return abs(got - want) / abs(want)


def m_c1_closed_form(a):
    # the paper's closed form pi ((sqrt(2)-1) Gamma(2-a/2) Gamma(3-a/2)
    # / (pi (1 - 2^((a-2)/2)) Gamma(2-a)))^(2/(3-a)), with 1 - 2^((a-2)/2)
    # taken as -expm1: written as a difference it cancels toward a = 2 and
    # is 2.6e-14 off 40-digit mpmath at a = 1.99
    num = (math.sqrt(2.0) - 1.0) * gamma(2.0 - a / 2.0) * gamma(3.0 - a / 2.0)
    den = -math.pi * math.expm1((a - 2.0) / 2.0 * math.log(2.0)) * gamma(2.0 - a)
    return math.pi * (num / den) ** (2.0 / (3.0 - a))


def test_m_c1_limit_and_identity():
    assert rel(m_c1(0.0), M_C1_AT_ZERO) < 1e-13
    # m_c1 is the mass at the first crossover radius, by construction
    for alpha in (0.01, 0.1, 0.5, 1.0):
        rc = r_cn(1, alpha)
        assert math.pi * rc * rc == m_c1(alpha)
    # and it agrees with the paper's closed form
    alphas = [0.5 * k / 1000 for k in range(1, 1001)] + [0.0, 1.0, 1.5, 1.99]
    for alpha in alphas:
        assert rel(m_c1(alpha), m_c1_closed_form(alpha)) <= 2e-15, alpha


def test_m_c1_and_potential_slope_against_mpmath():
    # pi r_c1^2 and the C3 lead over pi, each checked against its closed
    # form in 40-digit arithmetic
    def m_c1_ref(a):
        num = (mpmath.sqrt(2) - 1) * mpmath.gamma(2 - a / 2) * mpmath.gamma(3 - a / 2)
        den = mpmath.pi * (1 - mpmath.power(2, (a - 2) / 2)) * mpmath.gamma(2 - a)
        return mpmath.pi * (num / den) ** (2 / (3 - a))

    def slope_ref(a):
        return mpmath.pi * a * (2 - a) * mpmath.gamma(1 - a) / (2 * mpmath.gamma(2 - a / 2) ** 2)

    with mpmath.workdps(40):
        for alpha in [0.5 * k / 200 for k in range(1, 201)] + [0.0, 1.0, 1.5, 1.99]:
            want = m_c1_ref(mpmath.mpf(alpha))
            assert abs(m_c1(alpha) - want) / want <= 2e-15, alpha
        for alpha in [k / 200 for k in range(1, 200)] + [1e-9, 1e-4, 0.999]:
            want = slope_ref(mpmath.mpf(alpha))
            assert abs(disk_potential_max_slope(alpha) - want) / want <= 2e-15, alpha


def test_m_c1_decreasing():
    grid = [0.01 * k for k in range(200)]
    vals = [m_c1(a) for a in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_m_c1_domain():
    with pytest.raises(DomainError):
        m_c1(2.0)
    with pytest.raises(DomainError):
        m_c1(-0.1)


def test_rho0_shape():
    # dips below the crossover level at r_cn(1), then climbs back
    for alpha, want in RHO0_GAP_AT_RC.items():
        gap = rho0(r_cn(1, alpha), alpha) - rho_c1(alpha)
        assert gap < 0.0
        assert rel(gap, want) < 1e-12
    # convex on a log-spaced grid
    for alpha in (0.01, 0.25, 0.5):
        rs = [0.1 * 1.15**k for k in range(40)]
        vals = [rho0(r, alpha) for r in rs]
        for v0, v1, v2 in zip(vals, vals[1:], vals[2:]):
            assert v0 - 2.0 * v1 + v2 > 0.0


def test_rho0_domain():
    with pytest.raises(DomainError):
        rho0(1.0, 0.6)
    with pytest.raises(DomainError):
        rho0(0.0, 0.1)


def test_solve_r0_root_and_bracket():
    alpha = 0.034
    r0 = solve_r0(alpha)
    assert rel(r0, R_0_REF) < 1e-11
    level = rho_c1(alpha)
    assert abs(rho0(r0, alpha) - level) < 1e-9
    # the root is a genuine sign change
    assert rho0(r0 * (1.0 - 1e-6), alpha) < level < rho0(r0 * (1.0 + 1e-6), alpha)


def test_solve_m2_reference_values():
    for alpha, want in M_2_REF.items():
        assert abs(solve_m2(alpha) - want) < 1e-9


def test_m2_exceeds_m_c1():
    for k in range(1, 26):
        alpha = 0.5 * k / 25
        assert solve_m2(alpha) > m_c1(alpha)


def test_solve_r0_solver_failures(monkeypatch):
    # the R_0 objective on brackets its solve does not use
    k = AlphaConstants(0.034)

    def gap(r):
        return k.rho0(r) - k.rho_c1

    # bracket entirely right of the root, both endpoints positive
    with pytest.raises(BracketError):
        thresholds._root(gap, 3.0, 4.0, expand_hi=False)
    rc = r_cn(1, 0.034)
    monkeypatch.setattr(thresholds, "_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        thresholds._root(gap, rc, 4.0 * rc)


def test_solver_errors_name_the_solve_and_alpha(monkeypatch):
    # each record solve prefixes its failure once, whichever root fails
    where = r"^solve_eps0\(alpha=1e-17\): no sign change on "
    with pytest.raises(BracketError, match=where) as info:
        solve_eps0(1e-17)
    assert str(info.value).count("solve_eps0") == 1
    monkeypatch.setattr(thresholds, "_MAX_ITER", 1)
    k = AlphaConstants(0.034)
    where = r"^solve_r0\(alpha=0\.034\): ITP root solve did not reach"
    for solve in (k.solve_r0, k.solve_m2):
        with pytest.raises(ConvergenceError, match=where):
            solve()
    for name in ("solve_eps0", "solve_eps1"):
        with pytest.raises(ConvergenceError, match=rf"^{name}\(alpha=0\.034\): ITP root solve"):
            getattr(k, name)()


def test_alpha_constants_domain_split():
    # the record builds for any alpha in [0, 2); the solves and the public
    # functions with a narrower domain check it, once per call
    for alpha in (0.0, 5e-324, 1e-17, 0.034, 0.5, 0.7, 1.0, 1.5, math.nextafter(2.0, 0.0)):
        AlphaConstants(alpha)
    k = AlphaConstants(0.7)
    assert k.solve_eps0() == solve_eps0(0.7)
    with pytest.raises(DomainError, match=r"^rho0: alpha must lie in \[0, 0\.5\], got 0\.7"):
        k.solve_m2()
    with pytest.raises(DomainError, match=r"^c3: alpha must lie in \(0, 1\), got 1\.5"):
        AlphaConstants(1.5).solve_eps1()
    # each eps function names itself
    for alpha in (1.0, 1.5):
        for fn in (c3, f1):
            where = rf"^{fn.__name__}: alpha must lie in \(0, 1\), got {alpha}"
            with pytest.raises(DomainError, match=where):
                fn(alpha, 0.5)
    # from alpha = 1 on, Gamma(1 - alpha) and the C3 lead are not set
    for name in ("g1a", "c3_lead"):
        with pytest.raises(AttributeError):
            getattr(AlphaConstants(1.0), name)


def test_eps_functions_name_themselves():
    # each checks alpha and eps once, under its own name
    for fn, hi in ((c0, "2"), (c1, "2"), (c3, "1"), (f1, "1"), (f2, "2")):
        name = fn.__name__
        with pytest.raises(DomainError) as info:
            fn(0.1, -1.0)
        assert str(info.value) == f"{name}: eps must be positive and finite, got -1.0"
        with pytest.raises(DomainError) as info:
            fn(2.5, 0.5)
        assert str(info.value) == f"{name}: alpha must lie in (0, {hi}), got 2.5"


def _bisection_evals(f, lo, hi, rel_tol=1e-12):
    # evaluations plain bisection makes on [lo, hi], with the solver's stop
    flo, n = f(lo), 2
    for _ in range(200):
        if hi - lo <= rel_tol * max(abs(lo), abs(hi)):
            return n
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        n += 1
        if fm == 0.0:
            return n
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    raise AssertionError("reference bisection did not stop")


def _counted(f):
    count = [0]

    def wrapper(x):
        count[0] += 1
        return f(x)

    return wrapper, count


def _flat(x):
    # every derivative vanishes at the root 0.3
    d = x - 0.3
    return math.copysign(math.exp(-1.0 / abs(d)), d) if d else 0.0


ADVERSARIAL = {
    "power_21": lambda x: (x - 1.7) ** 21,
    "sign_step": lambda x: 1.0 if x > 1.2345 else -1.0,
    "flat": _flat,
    "steep_atan": lambda x: math.atan(1e6 * (x - 0.0123)),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_root_worst_case_within_one_of_bisection(name):
    # ITP keeps bisection's minmax bound: at most n0 = 1 evaluation more
    f = ADVERSARIAL[name]
    wrapped, count = _counted(f)
    x = thresholds._root(wrapped, 1e-6, 4.0)
    assert count[0] <= _bisection_evals(f, 1e-6, 4.0) + 1
    assert f(x * (1.0 - 1e-10)) <= 0.0 <= f(x * (1.0 + 1e-10))


def test_root_smooth_objective_beats_bisection():
    f = lambda x: x * x - 2.0  # noqa: E731
    wrapped, count = _counted(f)
    x = thresholds._root(wrapped, 1e-6, 4.0)
    assert rel(x, math.sqrt(2.0)) < 1e-12
    assert _bisection_evals(f, 1e-6, 4.0) == 44
    assert count[0] <= 15


NON_FINITE = {
    # every value NaN: the endpoint lo is the first to report it
    "nan_everywhere": (lambda x: math.nan, "nan at x = 1.0"),
    "nan_right_of_1.5": (lambda x: x - 1.2 if x <= 1.5 else math.nan, "nan at x = 2.0"),
    "nan_inside": (lambda x: x - 1.5 if abs(x - 1.5) >= 0.3 else math.nan, "nan at x = "),
    "inf_when_grown": (lambda x: -1.0 if x < 3.0 else math.inf, "inf at x = 4.0"),
    "not_a_float": (lambda x: -1 if x < 1.5 else 1, "-1 at x = 1.0"),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_root_rejects_non_finite_values(name):
    f, where = NON_FINITE[name]
    with pytest.raises(BracketError, match=where):
        thresholds._root(f, 1.0, 2.0)


def test_root_at_a_bracket_end_is_returned():
    # f(lo) == 0 returns lo before f(hi) is read; f(hi) == 0 returns hi,
    # here after the bracket has grown from [0.5, 1] to [0.5, 4]
    assert thresholds._root(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert thresholds._root(lambda x: x - 4.0, 0.5, 1.0) == 4.0


ROOT_ALPHAS = [0.5 * 2.0 ** (-k / 2) for k in range(20)]  # 0.5 down to 6.9e-4


@pytest.mark.parametrize("alpha", ROOT_ALPHAS)
def test_roots_change_sign_within_1e10(alpha):
    k = AlphaConstants(alpha)
    r0 = math.sqrt(solve_m2(alpha) / math.pi)
    cases = [
        (lambda r: k.rho0(r) - k.rho_c1, r0),
        (k.f2, solve_eps0(alpha)),
        (k.f1, solve_eps1(alpha)),
    ]
    for f, root in cases:
        below, above = f(root * (1.0 - 1e-10)), f(root * (1.0 + 1e-10))
        assert below == 0.0 or above == 0.0 or (below > 0.0) != (above > 0.0)


def test_c0_reference_and_monotone():
    assert rel(c0(1e-6, 0.846), C0_TINY_ALPHA) < 1e-9
    eps_grid = [10.0**e for e in range(-6, 2)]
    for alpha in (0.034, 0.3, 1.0):
        vals = [c0(alpha, e) for e in eps_grid]
        assert all(v > 0.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))


@given(
    alpha=st.floats(min_value=0.001, max_value=1.9),
    lo=st.floats(min_value=1e-6, max_value=4.0),
    hi=st.floats(min_value=1e-6, max_value=4.0),
)
@settings(max_examples=150, deadline=None)
def test_c0_monotone_in_eps(alpha, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    assert c0(alpha, lo) <= c0(alpha, hi)


@given(
    alpha=st.floats(min_value=0.001, max_value=1.9),
    eps=st.floats(min_value=1e-6, max_value=4.0),
)
@settings(max_examples=150, deadline=None)
def test_c1_below_c2(alpha, eps):
    assert c1(alpha, eps) < c2(alpha)


def test_c2_values():
    assert c2(0.0) == math.pi
    assert rel(c2(0.034), 2.0 * math.pi / 1.966) < 1e-15
    with pytest.raises(DomainError):
        c2(2.0)


def test_delta_bound():
    assert delta_bound(0.0) == 0.0
    assert rel(delta_bound(0.121), DELTA_REF) < 1e-14
    vals = [delta_bound(0.01 * k) for k in range(50)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for bad in (-1e-9, math.nan, math.inf):
        with pytest.raises(DomainError, match=r"^delta_bound: d must be nonnegative and finite"):
            delta_bound(bad)
    # pi d (d + 2) overflows above about 1e154, and the cap itself above
    # about 1e308; 1e200 used to return inf
    with mpmath.workdps(40):
        for d in (1e154, 1e200, 1e308):
            want = mpmath.sqrt(mpmath.pi * d * (mpmath.mpf(d) + 2))
            assert abs(delta_bound(d) - want) / want < 1e-15
    with pytest.raises(DomainError, match=r"^delta_bound: the cap is out of double range at d = 1.7e\+308$"):
        delta_bound(1.7e308)


def test_c3_dominates_potential_slope():
    # the slope constant must cover pi times the steepest kernel slope
    for alpha in (0.034, 0.1, 0.3, 0.5, 0.9):
        val = c3(alpha, 0.846)
        assert val > 0.0
        assert val > math.pi * disk_potential_max_slope(alpha)
    with pytest.raises(DomainError):
        c3(1.0, 0.846)


def test_c3_lead_is_pi_times_potential_slope():
    # the lead of C3 is pi times the steepest slope of the disk potential,
    # which is read from it
    for alpha in (1e-9, 1e-4, 0.01, 0.034, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999):
        want = math.pi * disk_potential_max_slope(alpha)
        assert rel(AlphaConstants(alpha).c3_lead, want) <= 1e-15, alpha


def test_f1_f2_shape():
    for alpha in (0.02, 0.034, 0.3):
        assert f1(alpha, 1e-9) < -0.999
        assert f2(alpha, 1e-9) > 0.999
        eps_grid = [0.05 * k for k in range(1, 60)]
        v1 = [f1(alpha, e) for e in eps_grid]
        v2 = [f2(alpha, e) for e in eps_grid]
        assert all(b > a for a, b in zip(v1, v1[1:]))
        assert all(b < a for a, b in zip(v2, v2[1:]))
    # at the ledger probe the rigidity objective is already negative
    assert f1(0.02, 0.846) < 0.0
    assert f2(0.02, 0.846) > 0.0


def test_m_of_eps_round_trip():
    for alpha in (0.034, 0.5, 1.0):
        assert m_of_eps(1.0, alpha) == math.pi
    rng = random.Random(SEED)
    for _ in range(200):
        alpha = rng.uniform(1e-6, 1.99)
        eps = rng.uniform(1e-3, 50.0)
        m = m_of_eps(eps, alpha)
        back = (m / math.pi) ** ((3.0 - alpha) / 2.0)
        assert rel(back, eps) < 1e-13
    with pytest.raises(DomainError):
        m_of_eps(0.0, 0.1)
    with pytest.raises(DomainError):
        m_of_eps(1.0, 2.0)


@given(
    alpha=st.floats(min_value=0.001, max_value=1.9),
    eps=st.floats(min_value=1e-3, max_value=50.0),
)
@settings(max_examples=200, deadline=None)
def test_m_of_eps_round_trip_property(alpha, eps):
    back = (m_of_eps(eps, alpha) / math.pi) ** ((3.0 - alpha) / 2.0)
    assert rel(back, eps) < 1e-12


# every eps-taking function, as a function of eps at alpha = 0.1 by default
EPS_FUNCTIONS = {
    "c0": lambda eps, alpha=0.1: c0(alpha, eps),
    "c1": lambda eps, alpha=0.1: c1(alpha, eps),
    "c3": lambda eps, alpha=0.1: c3(alpha, eps),
    "f1": lambda eps, alpha=0.1: f1(alpha, eps),
    "f2": lambda eps, alpha=0.1: f2(alpha, eps),
    "m_of_eps": lambda eps, alpha=0.1: m_of_eps(eps, alpha),
}


@pytest.mark.parametrize("name", sorted(EPS_FUNCTIONS))
@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_non_finite_eps_rejected(name, eps):
    # an infinite eps used to come back as inf from c0 and m_of_eps
    with pytest.raises(DomainError, match="eps must be positive and finite"):
        EPS_FUNCTIONS[name](eps)


# c3 and f1 take alpha in (0, 1) only
HUGE_EPS_CASES = [
    (name, alpha)
    for name in sorted(EPS_FUNCTIONS)
    for alpha in (0.01, 0.1, 0.5, 1.5)
    if alpha < 1.0 or name not in ("c3", "f1")
]


@pytest.mark.parametrize("name, alpha", HUGE_EPS_CASES)
@pytest.mark.parametrize("eps", [1e100, 1e200, 1e300, 8e307, 1.7e308])
def test_huge_eps_is_finite_or_a_domain_error(name, alpha, eps):
    # c0(0.1, 1.7e308), c3(0.1, 1e200) and f1(0.01, 1e100) used to be inf,
    # f2(0.5, 1.7e308) -inf, and c1(1.5, 1e300) raised a bare OverflowError;
    # at 8e307 C0 is finite but its delta_bound cap is not
    try:
        value = EPS_FUNCTIONS[name](eps, alpha)
    except DomainError as exc:
        assert str(exc).startswith(f"{name}: ") and f"at eps = {eps}" in str(exc)
    else:
        assert isinstance(value, float) and math.isfinite(value)


def test_eps_roots_reference_values():
    for alpha, (want0, want1) in EPS_REF.items():
        tol = 1e-9 if alpha == 0.034 else 1e-8
        assert abs(solve_eps0(alpha) - want0) < tol
        assert abs(solve_eps1(alpha) - want1) < tol
    for alpha, (wm0, wm1) in M_EPS_REF.items():
        assert abs(m_of_eps(solve_eps0(alpha), alpha) - wm0) < 1e-9
        assert abs(m_of_eps(solve_eps1(alpha), alpha) - wm1) < 1e-9


def test_eps0_above_eps1_on_sweep_range():
    for k in range(1, 10):
        alpha = 0.005 + (0.045 - 0.005) * k / 9
        assert solve_eps0(alpha) > solve_eps1(alpha)


def test_eps_solver_domains():
    with pytest.raises(DomainError):
        solve_eps1(1.0)
    with pytest.raises(DomainError):
        solve_eps0(0.0)


def test_alpha0_reference_value():
    a0 = solve_alpha0()
    assert abs(a0 - ALPHA0_REF) < 1e-9
    assert abs(a0 - 0.04273) < 0.0005
    # identical inputs give identical solver paths
    assert solve_alpha0() == a0


def test_alpha0_loose_tolerance():
    assert abs(solve_alpha0(rel_tol=1e-6) - ALPHA0_REF) < 1e-5


def test_alpha0_bad_bracket(monkeypatch):
    # crossing gap is negative on both ends of [0.05, 0.09], and the outer
    # solve does not grow its bracket
    monkeypatch.setattr(thresholds, "_ALPHA0_BRACKET", (0.05, 0.09))
    with pytest.raises(
        BracketError, match=r"^solve_alpha0\(rel_tol=1e-12\): no sign change on \[0\.05, 0\.09\]: "
    ):
        solve_alpha0()


def test_root_solve_config_validation():
    # the outer alpha_0 tolerance is the one root-solve setting a caller
    # has; below 2**-52 no bracket can get narrow enough, so such a value
    # is rejected up front rather than after 200 outer steps, and so is inf
    for bad in (0.0, -1e-12, math.nan, 1e-16, 1e-300, 5e-324, math.inf):
        with pytest.raises(DomainError, match=r"solve_alpha0: rel_tol must be at least 2\*\*-52"):
            solve_alpha0(rel_tol=bad)
        with pytest.raises(DomainError, match=r"m_at_crossing: rel_tol must be at least 2\*\*-52"):
            m_at_crossing(ALPHA0_REF, rel_tol=bad)
    assert abs(solve_alpha0(rel_tol=2.0**-52) - ALPHA0_REF) < 1e-9
