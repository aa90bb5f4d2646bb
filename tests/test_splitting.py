"""Disk configuration densities, crossover radii, and the lower envelope."""

import bisect
import math
import random
import re

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszdrop.errors import DomainError
from rieszdrop.splitting import (
    envelope_rows,
    r_cn,
    rho_c1,
    rho_min,
    rho_n,
    v0_const,
)
from rieszdrop.thresholds import rho0

SEED = 20260819

# 40-digit reference values
V0_REF = {
    0.034: 9.956090738961299207853918,
    0.25: 10.64342725643538543919537,
    0.5: 11.83440738624377212759255,
    1.0: 16.75516081914556393846743,
}
R_C1_AT_ZERO = 0.8079382037313363772298842
R_CN_TENTH = {
    1: 0.80448879591662870476,
    2: 1.061889220453971243,
    3: 1.2637708287623915108,
}
RHO_C1_AT_ZERO = 4.526155877521040743462368


def rel(got, want):
    return abs(got - want) / abs(want)


def test_v0_reference_values():
    assert v0_const(0.0) == pytest.approx(math.pi**2, rel=1e-14)
    for alpha, want in V0_REF.items():
        assert rel(v0_const(alpha), want) < 1e-13


def test_v0_increasing_in_alpha():
    grid = [0.1 * k for k in range(20)]
    vals = [v0_const(a) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_density_scale_identity_sampled():
    rng = random.Random(SEED)
    for _ in range(200):
        n = rng.randint(1, 64)
        r = rng.uniform(0.05, 12.0)
        alpha = rng.uniform(0.0, 1.99)
        assert rel(rho_n(n, r, alpha), rho_n(1, r / math.sqrt(n), alpha)) < 1e-13


@given(
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=0.05, max_value=10.0),
    st.floats(min_value=0.0, max_value=1.99),
)
@settings(deadline=None)
def test_density_scale_identity_property(n, r, alpha):
    assert rel(rho_n(n, r, alpha), rho_n(1, r / math.sqrt(n), alpha)) < 1e-13


def test_crossover_equalizes_densities():
    # the expm1/log1p form must stay exact out to large n
    for alpha in (0.034, 0.5, 1.0, 1.5, 1.9):
        for n in (1, 2, 3, 5, 10, 50, 1000):
            rc = r_cn(n, alpha)
            assert rel(rho_n(n, rc, alpha), rho_n(n + 1, rc, alpha)) < 1e-13


def test_crossover_alpha_zero_closed_form():
    for n in (1, 2, 3, 10):
        want = (2.0 * n * (n + 1) * (math.sqrt(n + 1.0) - math.sqrt(n)) / math.pi) ** (1.0 / 3.0)
        assert rel(r_cn(n, 0.0), want) < 1e-13
    assert rel(r_cn(1, 0.0), R_C1_AT_ZERO) < 1e-13


def test_crossover_reference_values_and_growth():
    for n, want in R_CN_TENTH.items():
        assert rel(r_cn(n, 0.1), want) < 1e-13
    for alpha in (0.034, 0.1, 0.5, 1.0):
        vals = [r_cn(n, alpha) for n in range(1, 51)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_envelope_level():
    assert rel(rho_c1(0.0), RHO_C1_AT_ZERO) < 1e-13
    for alpha in (0.034, 0.1, 0.5):
        level = rho_c1(alpha)
        assert rel(level, rho_n(2, r_cn(1, alpha), alpha)) < 1e-13
    assert rho_c1(0.034) < 4.656


def segments(alpha, r_max):
    # the envelope segments (r_cn(n-1), r_cn(n)] covering (0, r_max], as
    # (n, r_lo, r_hi)
    out, lo, n = [], 0.0, 1
    while lo < r_max:
        hi = r_cn(n, alpha)
        out.append((n, lo, hi))
        lo, n = hi, n + 1
    return out


def brute_min(r, alpha, top):
    best, best_n = float("inf"), 0
    for n in range(1, top + 1):
        v = rho_n(n, r, alpha)
        if v < best:
            best, best_n = v, n
    return best, best_n


def test_envelope_matches_brute_force():
    # grid points can land within one ulp of a crossover, where the
    # minimizing n is a float coin toss; the value is what must agree
    for alpha in (0.1, 1.0):
        top = r_cn(80, alpha)
        for k in range(1, 51):
            r = top * k / 50.0
            assert rel(rho_min(r, alpha)[0], brute_min(r, alpha, 100)[0]) < 1e-12
        # at segment midpoints the minimizer is unambiguous
        for _, r_lo, r_hi in segments(alpha, top):
            mid = 0.5 * (r_lo + r_hi)
            assert rho_min(mid, alpha) == brute_min(mid, alpha, 100)
    # far from n = 1 the search starts from the large-n form C sqrt(n)
    assert rho_min(10.0, 0.1) == brute_min(10.0, 0.1, 400)


def test_envelope_tie_prefers_smaller_n():
    rc = r_cn(1, 0.1)
    assert rho_min(rc, 0.1)[1] == 1
    assert rho_min(rc * (1.0 + 1e-9), 0.1)[1] == 2
    assert rho_min(r_cn(2, 0.1), 0.1)[1] == 2


def test_envelope_cap_semantics():
    # the search has no cap on n: n = 10**6 + 1, and a walk past it, are
    # like any other n
    cap = 10**6
    at_cap = r_cn(cap, 0.1)
    above = at_cap * (1.0 + 1e-12)
    assert rho_min(above, 0.1)[1] == cap + 1
    radii = [1.0, at_cap, at_cap, above, 2.0 * at_cap]
    rows = list(envelope_rows(0.1, radii))
    assert [row[5] for row in rows[:4]] == [2, cap, cap, cap + 1]
    for row in rows:
        assert row[4:] == rho_min(row[0], 0.1)
    assert rows[-1][5] > 3 * cap


@pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.04, 0.5, 1.0])
def test_envelope_jump_equals_a_plain_scan(alpha):
    # the search jumps to floor((r / C)^2), C sqrt(n) the large-n form of
    # r_cn(n), and steps to the segment from there.  At every crossover
    # r_cn(n) with n <= 10**4, one double either side of it and midway
    # between crossovers, rho_min and an envelope_rows walk must give the n
    # of a plain scan from n = 1, the smallest n with r <= r_cn(n)
    top = 10**4
    crossovers = [r_cn(n, alpha) for n in range(1, top + 2)]
    # increasing, so the scan's n is one past the crossovers below r
    assert all(a < b for a, b in zip(crossovers, crossovers[1:]))
    probes, lo = [], 0.0
    for hi in crossovers[:top]:
        probes += [0.5 * (lo + hi), math.nextafter(hi, 0.0), hi, math.nextafter(hi, math.inf)]
        lo = hi
    want = [bisect.bisect_left(crossovers, r) + 1 for r in probes]
    assert [rho_min(r, alpha)[1] for r in probes] == want
    assert [row[5] for row in envelope_rows(alpha, probes)] == want


def test_envelope_reaches_every_n_below_2_53():
    # with no cap, every r up to r_cn(2**53 - 1) has an n; where r_cn is not
    # monotone in doubles (near 2**53) the n is a local bracket,
    # r_cn(n - 1) < r <= r_cn(n), and that holds at every radius
    rng = random.Random(SEED)
    for alpha in (0.0, 0.04, 0.1, 1.0):
        top = r_cn(2**53 - 1, alpha)
        radii = [top * 10.0 ** -rng.uniform(0.0, 10.0) for _ in range(300)]
        radii += [top * (1.0 - 1e-6 * rng.random()) for _ in range(100)] + [top]
        for r in radii:
            _, n = rho_min(r, alpha)
            assert r <= r_cn(n, alpha), (alpha, r)
            assert n == 1 or r_cn(n - 1, alpha) < r, (alpha, r)
        with pytest.raises(DomainError, match=r"^rho_min: .*not below 2\*\*53 at r = "):
            rho_min(math.nextafter(top, math.inf), alpha)


def test_envelope_domain():
    with pytest.raises(DomainError):
        rho_min(0.0, 0.1)
    with pytest.raises(DomainError):
        rho_min(1.0, 1.5)


def test_huge_n_rejected_naming_the_function():
    # from 2**53 on n + 1 is not exact in a double; past that the float
    # conversion overflows (10**400) or the denominator underflows (10**200)
    assert math.isfinite(r_cn(2**53 - 1, 0.1))
    for n in (2**53, 10**200, 10**400):
        with pytest.raises(DomainError, match=r"^r_cn: n must be an integer in \[1, 2\*\*53\)"):
            r_cn(n, 0.1)
        with pytest.raises(DomainError, match=r"^rho_n: n must be an integer in \[1, 2\*\*53\)"):
            rho_n(n, 1.0, 0.1)


# one disk's density, the envelope, the largest density of an envelope
# row and the comparison density: each is finite or raises DomainError
# naming itself and r, never nan, inf, OverflowError or ZeroDivisionError;
# past r_cn(2**53 - 1) the minimizing n is out of reach
DENSITIES = {
    "rho_n": lambda r, alpha: rho_n(1, r, alpha),
    "rho_min": lambda r, alpha: rho_min(r, alpha)[0],
    "envelope_rows": lambda r, alpha: max(next(envelope_rows(alpha, [r]))[1:5]),
    "rho0": rho0,
}
DENSITY_EDGES = [  # (name, r, alpha, finite)
    ("rho_n", math.inf, 0.1, False),
    ("rho_n", math.nan, 0.1, False),
    ("rho_n", 1e100, 0.1, True),  # about 3.2e190; r^(4 - alpha) overflowed
    ("rho_n", 1e300, 0.0, False),
    ("rho_n", 1e-200, 0.1, True),  # the density is about 2e200
    ("rho_n", 5e-324, 0.1, False),
    ("rho_n", 1e-160, 0.1, True),
    ("rho_n", 1.2e154, 1.9999999999, True),  # about 6.3e10; was inf / inf
    ("rho_n", 1e77, 1.99, True),
    ("rho_min", math.inf, 0.1, False),
    ("rho_min", math.nan, 0.1, False),
    ("rho_min", 5e-324, 0.1, False),
    ("rho_min", 1e-160, 0.1, True),
    ("rho_min", 1e-200, 0.1, True),
    ("rho_min", 1.5e-308, 0.1, True),
    ("rho_min", 1e3, 0.1, True),  # n about 2.2e6, past the old cap of 10**6
    ("rho_min", 1e300, 0.1, False),  # (r / C)^2 overflows
    ("envelope_rows", math.inf, 0.1, False),
    ("envelope_rows", 1e300, 0.1, False),
    ("envelope_rows", math.nan, 0.1, False),
    ("envelope_rows", 5e-324, 0.1, False),
    ("envelope_rows", 1.5e-308, 0.1, False),  # rho_1 is finite, rho_3 is not
    ("envelope_rows", 1e-200, 0.1, True),
    ("rho0", math.inf, 0.1, False),
    ("rho0", 1e200, 0.1, False),
    ("rho0", 1.7e308, 0.5, False),
    ("rho0", 5e-324, 0.1, False),
    ("rho0", 1e308, 0.5, True),
    ("rho0", 1e-300, 0.1, True),
]


@pytest.mark.parametrize("name, r, alpha, finite", DENSITY_EDGES)
def test_density_finite_or_domain_error(name, r, alpha, finite):
    density = DENSITIES[name]
    if finite:
        assert math.isfinite(density(r, alpha))
    else:
        with pytest.raises(DomainError, match=rf"^{name}: .*{re.escape(repr(r))}$"):
            density(r, alpha)


def test_rho_n_names_its_radius_domain():
    # r = inf fails the domain check itself, not the overflow past it
    for r in (math.inf, 0.0):
        with pytest.raises(DomainError) as exc:
            rho_n(1, r, 0.1)
        assert str(exc.value) == f"rho_n: r must lie in (0, inf), got {r}"


def rho_n_40(n, r, alpha):
    # the other form of rho_n, n E(r / sqrt(n)) / (pi r^2), at 40 digits
    with mpmath.workdps(40):
        a, x = mpmath.mpf(alpha), mpmath.mpf(r)
        v0 = 2 * mpmath.pi**2 * mpmath.gamma(2 - a) / (
            mpmath.gamma(2 - a / 2) * mpmath.gamma(3 - a / 2)
        )
        s = x / mpmath.sqrt(n)
        return float(n * (2 * mpmath.pi * s + v0 * s ** (4 - a)) / (mpmath.pi * x * x))


def test_rho_n_tiny_r_matches_mpmath():
    # rho_n is 2 sqrt(n)/r + V0 n^((alpha-2)/2) r^(2-alpha)/pi at every r.
    # In doubles the other form computes r * r, subnormal or 0 below
    # r ~ 1.5e-154 (1e-160 was 5e-5 off and 1e-200 raised), and it was up
    # to 7.7e-14 off at 1e150.  The error of r^(2 - alpha) grows like
    # |ln r| ulp(2 - alpha), so the top band gets a wider bound
    radii = (
        1e-300, 1e-250, 1e-200, 1e-160, 1e-150, 1e-100, 1e-50, 1e-10, 1e-3, 0.37, 1.0,
        2.5, 40.0, 1e3, 1e10, 1e20, 1e30,
    )
    for alpha in (0.1, 1.5):
        for n in (1, 2, 3, 7, 10**6, 2**40):
            for r in radii:
                assert rel(rho_n(n, r, alpha), rho_n_40(n, r, alpha)) <= 1e-14, (alpha, n, r)
            for r in (1e50, 1e100, 1e150):
                assert rel(rho_n(n, r, alpha), rho_n_40(n, r, alpha)) <= 5e-14, (alpha, n, r)
        if alpha > 1.0:  # past the envelope's domain
            continue
        for r, *row in envelope_rows(alpha, [r for r in radii if r <= 1e3]):
            rmin, n_opt = rho_min(r, alpha)
            assert n_opt == row[4], (alpha, r)
            assert rmin == row[3], (alpha, r)
            for value, n in zip(row[:4], (1, 2, 3, n_opt)):
                assert rel(value, rho_n_40(n, r, alpha)) <= 1e-14, (alpha, n, r)
    # the two DENSITY_EDGES rows that overflowed in the other form
    for r, alpha in ((1e100, 0.1), (1.2e154, 1.9999999999)):
        assert rel(rho_n(1, r, alpha), rho_n_40(1, r, alpha)) <= 5e-14, (alpha, r)


def test_envelope_rows_match_pointwise():
    # the walk keeps the current n's crossover and computes a row's four
    # densities in one pass; every row must carry the same bits as the
    # public functions.  One table per exponent mixes tiny radii (r * r
    # below the normal range) with normal ones, radii exactly at r_cn(n)
    # and one double above it (a tie goes to the smaller n), repeated
    # radii, the 4,000-row r_max 40 grid of the envelope command, and
    # jumps of thousands of segments
    for alpha in (1e-9, 0.02, 0.04, 0.06, 0.5, 1.0):
        ties = []
        for n in (1, 2, 3, 4, 63, 64, 65, 1000):
            at = r_cn(n, alpha)
            ties.append((at, n))
            ties.append((math.nextafter(at, math.inf), n + 1))
        radii = sorted(
            [1e-200, 1e-200, 1e-160, 0.5, 0.5, 10.0, 10.0]
            + [40.0 * i / 4000 for i in range(1, 4001)]
            + [r for r, _ in ties]
        )
        radii += [80.0, 80.0, 300.0]
        rows = list(envelope_rows(alpha, radii))
        assert [row[0] for row in rows] == radii
        for row in rows:
            r = row[0]
            assert row == (r, rho_n(1, r, alpha), rho_n(2, r, alpha), rho_n(3, r, alpha),
                           *rho_min(r, alpha)), (alpha, r)
        n_at = {row[0]: row[5] for row in rows}
        assert [n_at[r] for r, _ in ties] == [n for _, n in ties], alpha
        assert n_at[300.0] - n_at[80.0] > 64 and n_at[80.0] - n_at[40.0] > 64, alpha
    assert list(envelope_rows(0.1, [])) == []
    for bad in ([1.0, 0.5], [0.0], [-1.0]):
        with pytest.raises(DomainError):
            list(envelope_rows(0.1, bad))
    with pytest.raises(DomainError):
        list(envelope_rows(1.5, [1.0]))

