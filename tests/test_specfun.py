"""Special functions under the disk potential: gamma, 2F1, and the potential itself."""

import math
import random
import sys
import threading
import time
import tracemalloc
from collections import OrderedDict

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszdrop import specfun
from rieszdrop.errors import ConvergenceError, DomainError
from rieszdrop.specfun import disk_potential, gamma, hyp2f1
from rieszdrop.thresholds import disk_potential_max_slope

mpmath.mp.dps = 30

SEED = 20260819

# 40-digit reference values, rounded to double-friendly precision
GAMMA_1966 = 0.98609831298053193552
HYP_HALF = 1.000695746378497379324883  # 2F1(0.05, 0.05; 2; 0.5)
HYP_GAUSS = 1.0491916435698633120403  # 2F1(0.25, 0.25; 2; 1)
HYP_C_MINUS_A_POLE = 3.5872971197991594  # 2F1(1.5, 0.2; 0.5; 0.8)
VB_AT_ONE = {
    0.1: 3.1468268887421140531,
    0.5: 3.2961327596468834105,
    1.0: 4.0,
    1.5: 6.7777046783518326929,
}
# disk_potential(1.0, alpha) as computed before Gauss's formula took the
# pole-aware Gamma ratio; on positive arguments it is the same product
VB_AT_ONE_BITS = {
    0.034: "0x1.92331aa368fadp+1",
    0.5: "0x1.a5e7ada2fa925p+1",
    1.0: "0x1.fffffffffffffp+1",
    1.5: "0x1.b1c5e9d7dde86p+2",
    1.97: "0x1.a307dfd270dc3p+6",
}
VB_INSIDE = 3.988266263759679714681328  # r = 0.5, alpha = 0.5
VB_OUTSIDE = 2.240064105185437951834972  # r = 2.0, alpha = 0.5
SLOPE_MAX = {
    0.034: 0.108714381745383869815736,
    0.5: 2.4720995697351625579118,
}
# branch gap vB(1-h) - vB(1+h); grows like h^(2-alpha), so only alpha < 1
# stays below 1e-5 at h = 1e-6
GAP_1E6 = {0.1: 6.6432875e-7, 0.5: 4.9410041e-6, 1.0: 5.9579808e-5, 1.5: 0.020966294}
GAP_1E4 = {0.1: 6.6424368e-5, 0.5: 4.9122487e-4, 1.0: 4.1159128e-3, 1.5: 0.20874795}
RAW_CENTRAL_DIFF = -2.4670477669762710997  # h = 1e-5, alpha = 0.5


def rel(got, want):
    return abs(got - want) / max(1.0, abs(want))


def test_gamma_matches_mpmath():
    # 30-digit reference; the measured worst case here is about 6e-16
    rng = random.Random(SEED)
    xs = [rng.uniform(1e-3, 50.0) for _ in range(1000)]
    xs += [1e-6, 0.25, 0.5, 1.0, 1.5, 2.0, 10.0, 50.0, 100.0, 170.0]
    worst = 0.0
    for x in xs:
        want = float(mpmath.gamma(mpmath.mpf(x)))
        worst = max(worst, abs(gamma(x) - want) / want)
    assert worst < 5e-15


def test_gamma_spot_values():
    assert rel(gamma(0.5), math.sqrt(math.pi)) < 1e-14
    assert rel(gamma(1.0), 1.0) < 1e-14
    assert rel(gamma(2.0), 1.0) < 1e-14
    assert rel(gamma(5.0), 24.0) < 1e-14
    assert rel(gamma(1.966), GAMMA_1966) < 1e-14


def test_gamma_domain():
    # non-positive, non-finite, and overflowing (Gamma(200) exceeds a double)
    for x in (0.0, -1.0, -0.5, -7.2, math.inf, -math.inf, math.nan, 200.0, 1e-320):
        with pytest.raises(DomainError):
            gamma(x)


@given(st.floats(min_value=0.05, max_value=30.0, allow_nan=False))
@settings(deadline=None)
def test_gamma_recurrence(x):
    assert abs(gamma(x + 1.0) / (x * gamma(x)) - 1.0) < 1e-11


def test_hyp2f1_spot_values():
    assert rel(hyp2f1(0.05, 0.05, 2.0, 0.5), HYP_HALF) < 1e-14
    assert hyp2f1(0.3, -0.7, 1.4, 0.0) == 1.0
    # exact at z = 0, where a series would overflow at its first ratio a b / c
    assert hyp2f1(4.0, 4.0, 5e-324, 0.0) == 1.0
    assert hyp2f1(0.0, 0.9, 1.4, 0.6) == 1.0  # terminating series


def test_hyp2f1_gamma_pole_terms_vanish():
    # for z > 0.75 a transformation term whose 1/Gamma factor (of a, b,
    # c - a or c - b) sits on a pole is exactly 0, not an error
    assert hyp2f1(0.0, 0.9, 1.4, 0.8) == 1.0
    assert rel(hyp2f1(-1.0, 0.5, 1.0, 0.9), 0.55) < 1e-14
    assert rel(hyp2f1(1.5, 0.2, 0.5, 0.8), HYP_C_MINUS_A_POLE) < 1e-14


def test_hyp2f1_gauss_endpoint():
    assert rel(hyp2f1(0.25, 0.25, 2.0, 1.0), HYP_GAUSS) < 1e-14
    # c - a < 0 puts a Gamma factor at a negative argument or on a pole,
    # where 2F1(1) is still finite
    assert abs(hyp2f1(0.5, -1.0, 0.2, 1.0) - float(mpmath.hyp2f1(0.5, -1, 0.2, 1))) < 1e-14
    assert hyp2f1(3.0, -3.0, 1.0, 1.0) == float(mpmath.hyp2f1(3, -3, 1, 1)) == 0.0
    # z = 1 converges only for c - a - b > 0
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        hyp2f1(0.5, 1.5, 2.0, 1.0)


def test_hyp2f1_domain():
    for c in (0.0, -1.0):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, c, 0.5)
    for z in (-0.01, 1.01):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, 2.0, z)


def test_hyp2f1_non_finite_parameters():
    # rejected at entry: otherwise a NaN sums NaN terms to the cap, z > 0.75
    # hits round(inf) or round(nan), and c = inf gives the value 1.0
    for bad in (math.nan, math.inf, -math.inf):
        for a, b, c in ((bad, 0.5, 2.0), (0.5, bad, 2.0), (0.5, 0.5, bad)):
            for z in (0.0, 0.5, 0.9, 1.0):
                t0 = time.perf_counter()
                with pytest.raises(DomainError, match=BOX_MESSAGE):
                    hyp2f1(a, b, c, z)
                assert time.perf_counter() - t0 < 0.1, (a, b, c, z)


BOX = 4.0
BOX_MESSAGE = r"^hyp2f1: needs \|a\|, \|b\| <= 4, 0 < c <= 4 and 0 <= z <= 1 \("


def in_box(a, b, c, z):
    return abs(a) <= BOX and abs(b) <= BOX and 0.0 < c <= BOX and 0.0 <= z <= 1.0


def assert_box_error(a, b, c, z):
    # the one DomainError outside the box, naming the box and the arguments
    # as given, within 0.01 s (best of three)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match=BOX_MESSAGE) as info:
            hyp2f1(a, b, c, z)
        best = min(best, time.perf_counter() - t0)
    assert str(info.value).endswith(f"(a={a}, b={b}, c={c}, z={z})")
    assert best < 0.01, (a, b, c, z)


def test_hyp2f1_box_edges():
    # the box is closed at |a|, |b| = 4, c = 4 and z = 0, 1, open at c = 0
    for args in ((4.0, -4.0, 4.0, 0.5), (-4.0, 4.0, 1e-3, 0.9), (0.5, 0.5, 5e-324, 0.0)):
        assert math.isfinite(hyp2f1(*args)), args
    assert hyp2f1(-4.0, -4.0, 4.0, 1.0) == float(mpmath.hyp2f1(-4, -4, 4, 1))
    for args in (
        (math.nextafter(4.0, 5.0), 0.5, 1.0, 0.5),
        (0.5, math.nextafter(-4.0, -5.0), 1.0, 0.5),
        (0.5, 0.5, math.nextafter(4.0, 5.0), 0.5),
        (0.5, 0.5, 0.0, 0.5),
        (0.5, 0.5, -0.0, 0.5),
        (0.5, 0.5, 1.0, -5e-324),
        (0.5, 0.5, 1.0, math.nextafter(1.0, 2.0)),
    ):
        assert_box_error(*args)


def test_hyp2f1_series_cap(monkeypatch):
    # the cap is the memo's ratio count; below the terms this series needs
    # it raises, with the cap and the parameters in the message
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())
    monkeypatch.setattr(specfun, "_MEMO_RATIOS", 3)
    with pytest.raises(ConvergenceError, match=r"within 3 term ratios \(a=0.3, b=0.4"):
        hyp2f1(0.3, 0.4, 1.2, 0.7)
    assert_memo_holds_true_ratios()


def test_hyp2f1_series_cap_counts_remembered_terms(monkeypatch):
    # outside hyp2f1's box a series can reach the cap: once the memo holds
    # all its ratios, the cap still counts every term from the first, and
    # a warm call computes no ratio past them
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())
    key = (150.0, 150.0, 1.0)
    with pytest.raises(ConvergenceError):
        specfun._series(*key, 0.75)
    held = specfun._ratios[key]
    assert len(held) == specfun._MEMO_RATIOS
    with pytest.raises(ConvergenceError):
        specfun._series(*key, 0.75)
    assert specfun._ratios[key] is held
    assert_memo_holds_true_ratios()


# all outside hyp2f1's box, so each raises the box's DomainError before any
# work.  Each broke a double form inside the old, unbounded domain: the
# first five overflow a term or a partial sum (the fifth just off z = 0,
# where the true value is past double range too), the next two
# c - a - b; the next four
# have finite true values (2.5e307, 2.0e8, 1.6e319 and 3.8e328 by 40-digit
# mpmath) where the bridge sums inf - inf, the Gauss ratio at z = 1 is
# inf / inf, or w**s overflows; in the next two a Gamma product underflows
# to 0 (true values 4.5e861 and 1.1e84), and in the last Gamma(200)
# overflows (true value 1.0045)
OVERFLOW_PROBES = (
    (1e308, 1e308, 1.0, 0.5),
    (300.0, 300.0, 1.0, 0.75),
    (1e154, 1e154, 1.0, 0.5),
    (-1e5, 3.0, 1.0, 0.7),
    (1e200, 1e200, 1.0, 1e-300),
    (1e308, 1e308, 1.0, 0.9),
    (-1e308, -1e308, 1.0, 0.9),
    (50.0, 3.0, 2.0, 0.999999),
    (-46.8052006248861, -40.714927351486665, 59.6508853624155, 1.0),
    (50.0, 3.0, 0.5, 0.999999),
    (4.0, 34.77586291823995, 0.03602849535405089, 0.9999999950491393),
    (9.9166804651706, 249.30856096483387, 19.907339507937216, 0.9997772149773755),
    (188.01090429778378, -51.345288696536784, 0.4764234019078243, 0.8850273892720965),
    (1, 1, 200, 0.9),
)


def test_hyp2f1_overflow_fails_promptly():
    for args in OVERFLOW_PROBES:
        assert not in_box(*args)
        assert_box_error(*args)


def test_hyp2f1_has_one_failure_message():
    # inside the box the message names hyp2f1 and its arguments as given:
    # here the series overflows at its first ratio a b / c, and Gamma(1e-310)
    # overflows where the true value is 2.3e304.  The argument checks keep
    # their own messages
    for args, text in (
        ((4, 4, 5e-324, 0.5), "a=4, b=4, c=5e-324, z=0.5"),
        ((0.001, 0.001, 1e-310, 0.9), "a=0.001, b=0.001, c=1e-310, z=0.9"),
    ):
        with pytest.raises(DomainError) as info:
            hyp2f1(*args)
        assert str(info.value) == f"hyp2f1: no finite double value ({text})"
    with pytest.raises(DomainError) as info:
        hyp2f1(1, 1, 200, 0.9)
    assert str(info.value) == (
        "hyp2f1: needs |a|, |b| <= 4, 0 < c <= 4 and 0 <= z <= 1 (a=1, b=1, c=200, z=0.9)"
    )
    with pytest.raises(DomainError) as info:
        hyp2f1(1.0, 2.0, 3.0, 1.0)
    assert str(info.value) == "hyp2f1: z = 1 requires c - a - b > 0"


def hyp2f1_draw(rng, radius=300.0):
    # a, b in [-radius, radius], c in [0.001, radius], and z from one of
    # four choices with equal odds: [0.75, 1], [0, 1], exactly 1, or
    # 1 - 10^u with u in [-12, -1]
    a, b = rng.uniform(-radius, radius), rng.uniform(-radius, radius)
    c = rng.uniform(0.001, radius)
    kind = rng.randrange(4)
    if kind == 0:
        z = rng.uniform(0.75, 1.0)
    elif kind == 1:
        z = rng.uniform(0.0, 1.0)
    elif kind == 2:
        z = 1.0
    else:
        z = 1.0 - 10.0 ** rng.uniform(-12.0, -1.0)
    return a, b, c, z


def test_hyp2f1_fuzz_gives_a_finite_value_or_a_typed_error():
    # about 4% of these draws (78 of 2,000) raised a bare ZeroDivisionError
    # where the denominator of a Gamma ratio underflowed to 0; the draws
    # outside the box now raise the box's DomainError
    rng = random.Random(0)
    for _ in range(2000):
        args = hyp2f1_draw(rng)
        if not in_box(*args):
            assert_box_error(*args)
            continue
        try:
            value = hyp2f1(*args)
        except (DomainError, ConvergenceError):
            continue
        assert math.isfinite(value), args


def test_hyp2f1_in_box_matches_mpmath():
    # the box's accuracy target, 1e-10 relative against 40-digit mpmath;
    # the first 10,000 draws of this seed measured 2.8e-13 at worst.  The
    # only typed errors are z = 1 draws with c - a - b <= 0, where 2F1
    # diverges
    rng = random.Random(11)
    worst = 0.0
    for _ in range(1000):
        a, b, c, z = args = hyp2f1_draw(rng, BOX)
        if z == 1.0 and c - a - b <= 0.0:
            with pytest.raises(DomainError, match="z = 1 requires"):
                hyp2f1(*args)
            continue
        with mpmath.workdps(40):
            want = mpmath.hyp2f1(a, b, c, z)
            err = float(abs(hyp2f1(*args) - want) / abs(want))
        assert err <= 1e-10, args
        worst = max(worst, err)
    assert worst < 1e-12


# a, b = +-4 and c from 1e-3 to 4 on a geometric grid; at z = 0.75 the
# direct series sums up to 190 ratios (at a = b = 4, c = 1e-3), just past
# it the transformation's two series sum far fewer
CORNER_CS = tuple(1e-3 * 4000.0 ** (j / 20) for j in range(21))
CORNER_ZS = (0.75, math.nextafter(0.75, 1.0))


def test_hyp2f1_box_corners_stop_before_the_cap(monkeypatch):
    # every corner series stops by its own test, short of the memo's 256
    # ratios, from a cold memo and then from a warm one, with the same bits
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())
    longest = 0
    for z in CORNER_ZS:
        for a in (-BOX, BOX):
            for b in (-BOX, BOX):
                for c in CORNER_CS:
                    specfun._ratios.clear()
                    cold = hyp2f1(a, b, c, z)
                    held = max(map(len, specfun._ratios.values()), default=0)
                    assert held < specfun._MEMO_RATIOS, (a, b, c, z)
                    longest = max(longest, held)
                    assert hyp2f1(a, b, c, z) == cold, (a, b, c, z)
    assert 180 <= longest < 200
    assert_memo_holds_true_ratios()


def test_hyp2f1_large_parameters_accurate_or_typed_error():
    # -1.68929347921873e-110 by mpmath at 40 and at 80 digits; the series
    # in z returned 7.5e40, with no digit right, before the box put these
    # parameters outside the domain
    args = (-264.5814807436988, 291.06701046741955, 228.37509449248546, 0.5366586249466256)
    try:
        value = hyp2f1(*args)
    except DomainError:
        return
    assert value == pytest.approx(-1.68929347921873e-110, rel=1e-8)


def test_hyp2f1_zero_sum_returns_promptly(monkeypatch):
    # 1 - 2 z at z = 1/2 and 1 - 4 z at z = 1/4: terminating series whose
    # partial sum is exactly 0, where the stopping test |term| < 1e-16 |s|
    # cannot pass; summed on to the cap, each would raise ConvergenceError
    # (under a 1,000,000-term cap each took 0.33-0.44 s).  The second call
    # reads the stored ratios
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())
    for a, b, c, z in ((-1.0, 2.0, 1.0, 0.5), (-1.0, 4.0, 1.0, 0.25)):
        for _ in range(2):
            t0 = time.perf_counter()
            assert hyp2f1(a, b, c, z) == 0.0
            assert time.perf_counter() - t0 < 0.01, (a, b, c, z)
    # a partial sum of 0 that a later term moves on is not the value
    assert hyp2f1(-2.0, 1.0, 1.0, 0.5) == 1.0 - 1.0 + 0.25
    assert_memo_holds_true_ratios()


def reference_ratios(a, b, c, n):
    return tuple((a + k) * (b + k) / ((c + k) * (1.0 + k)) for k in map(float, range(n)))


def assert_memo_holds_true_ratios():
    assert len(specfun._ratios) <= specfun._MEMO_KEYS
    for (a, b, c), ratios in specfun._ratios.items():
        assert 0 < len(ratios) <= specfun._MEMO_RATIOS
        assert ratios == reference_ratios(a, b, c, len(ratios)), (a, b, c)


def test_series_memo_stays_bounded(monkeypatch):
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())
    rng = random.Random(SEED)
    for _ in range(10_000):
        hyp2f1(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.1, 4.0), 0.75)
    assert_memo_holds_true_ratios()
    # this series, outside hyp2f1's box, needs 1,518 terms: a call holds at
    # most _MEMO_RATIOS of their ratios (about 11 KB traced at peak, 60 KB
    # when it held them all) and raises at the cap
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError):
            specfun._series(150.0, 150.0, 1.0, 0.75)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24_000
    assert len(specfun._ratios[(150.0, 150.0, 1.0)]) == specfun._MEMO_RATIOS
    assert_memo_holds_true_ratios()


def test_series_memo_evicts_the_oldest_set(monkeypatch):
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())
    params = [(0.5, 0.1 * j, 1.0) for j in range(1, specfun._MEMO_KEYS + 2)]
    for p in params:
        hyp2f1(*p, 0.5)
    # a longer series of a held set replaces its tuple in place
    hyp2f1(*params[1], 0.75)
    assert list(specfun._ratios) == params[1:]


# a profile at a generic exponent and one in the degenerate band, whose
# interpolation bridge sums 20 parameter sets and so cycles the memo
THREAD_ALPHAS = (0.5, 1.0005)
THREAD_RADII = [0.05 * k for k in range(61)] + [1.0 - 1e-8, 1.0 + 1e-8]


def test_series_memo_is_thread_safe(monkeypatch):
    calls = [(r, alpha) for alpha in THREAD_ALPHAS for r in THREAD_RADII]
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())
    serial = [disk_potential(r, alpha) for r, alpha in calls]
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())
    results = {}

    def work(n):
        results[n] = [disk_potential(r, alpha) for _ in range(3) for r, alpha in calls]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {n: serial * 3 for n in range(4)}
    assert_memo_holds_true_ratios()


class Interrupt(Exception):
    pass


class InterruptingZ(float):
    # z that raises at its n-th product with a term ratio, the way a
    # latency limit's SIGALRM handler can raise at any point of a series
    def __new__(cls, value, n):
        z = super().__new__(cls, value)
        z.left = n
        return z

    def __rmul__(self, ratio):
        self.left -= 1
        if self.left == 0:
            raise Interrupt
        return ratio * float(self)


def test_series_memo_survives_an_interrupted_series(monkeypatch):
    # an exception at each term in turn, while a shorter series of the same
    # parameters has filled the memo part of the way
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())
    params = [(0.25, 0.25, 2.0), (-0.75, 0.25, 1.0), (0.3, 0.4, 1.2)]
    want = {p: hyp2f1(*p, 0.75) for p in params}
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())
    for p in params:
        n = 0
        while True:
            n += 1
            hyp2f1(*p, 0.005 * n)
            try:
                got = hyp2f1(*p, InterruptingZ(0.75, n))
            except Interrupt:
                assert_memo_holds_true_ratios()
                continue
            assert got == want[p]
            break
        assert n > 30, p


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=0.0, max_value=0.75),
)
@settings(deadline=None)
def test_hyp2f1_symmetric_in_a_b(a, b, c, z):
    assert hyp2f1(a, b, c, z) == hyp2f1(b, a, c, z)


def test_hyp2f1_against_mpmath():
    # the two shapes the disk potential uses, straddling the z = 0.75
    # branch point of the implementation; alpha = 1 puts c - a - b on the
    # integer 1 and takes the interpolation bridge
    zs = (0.01, 0.3, 0.6, 0.74, 0.76, 0.9, 0.97, 0.999)
    worst = 0.0
    for alpha in (0.1, 0.5, 0.9, 1.0, 1.02, 1.1, 1.5, 1.9):
        a = mpmath.mpf(alpha)
        for z in zs:
            got = hyp2f1(alpha / 2.0, alpha / 2.0, 2.0, z)
            want = float(mpmath.hyp2f1(a / 2, a / 2, 2, z))
            worst = max(worst, rel(got, want))
            got = hyp2f1((alpha - 2.0) / 2.0, alpha / 2.0, 1.0, z)
            want = float(mpmath.hyp2f1((a - 2) / 2, a / 2, 1, z))
            worst = max(worst, rel(got, want))
    assert worst < 1e-12


def vb_reference(r, alpha):
    a = mpmath.mpf(alpha)
    rr = mpmath.mpf(r)
    if rr >= 1:
        return float(mpmath.pi / rr**a * mpmath.hyp2f1(a / 2, a / 2, 2, 1 / rr**2))
    return float(2 * mpmath.pi / (2 - a) * mpmath.hyp2f1((a - 2) / 2, a / 2, 1, rr**2))


# c - a - b = 2 - alpha on both shapes: each exponent sits on, or within
# 1e-3 of, the integers 2, 1 and 0 except 0.034 and 1.97
PROMPT_ALPHAS = (1e-9, 0.034, 0.999, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.001, 1.97, 2.0 - 1e-9)
PROMPT_ZS = (0.76, 0.9, 0.99, 1.0 - 1e-8, 1.0 - 1e-12, 1.0 - 2.0**-52)


def assert_degenerate_band_is_prompt(monkeypatch, warm):
    # counted in series terms, not time: each transformation series
    # converges with ratio below 1/4 and stops within the 256-ratio cap,
    # while a plain series in z needs up to 32M terms this close to z = 1.
    # warm: each call follows the same call, whose ratios the memo then
    # holds; cold: the memo is emptied first
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())

    def capped(fn, *args):
        if warm:
            fn(*args)
        else:
            specfun._ratios.clear()
        return fn(*args)

    for alpha in PROMPT_ALPHAS:
        for a, b, c in ((alpha / 2.0, alpha / 2.0, 2.0), ((alpha - 2.0) / 2.0, alpha / 2.0, 1.0)):
            for z in PROMPT_ZS:
                want = float(mpmath.hyp2f1(mpmath.mpf(a), mpmath.mpf(b), c, mpmath.mpf(z)))
                assert rel(capped(hyp2f1, a, b, c, z), want) <= 1e-10, (alpha, c, z)
        for r in (1.0 - 1e-8, 1.0 + 1e-8):
            want = vb_reference(r, alpha)
            assert rel(capped(disk_potential, r, alpha), want) <= 1e-12, (alpha, r)


def test_hyp2f1_degenerate_band_is_prompt(monkeypatch):
    assert_degenerate_band_is_prompt(monkeypatch, warm=False)


def test_hyp2f1_degenerate_band_is_prompt_from_a_warm_memo(monkeypatch):
    assert_degenerate_band_is_prompt(monkeypatch, warm=True)


def test_disk_potential_center_value():
    # at the center the potential is exactly 2 pi / (2 - alpha)
    for alpha in (0.034, 0.1, 0.5, 1.0, 1.5, 1.9):
        assert disk_potential(0.0, alpha) == 2.0 * math.pi / (2.0 - alpha)


def test_disk_potential_boundary_values():
    for alpha, want in VB_AT_ONE.items():
        assert rel(disk_potential(1.0, alpha), want) < 1e-12
    for alpha, bits in VB_AT_ONE_BITS.items():
        assert disk_potential(1.0, alpha) == float.fromhex(bits)


def test_disk_potential_branch_agreement_at_boundary():
    # inner and outer closed forms both evaluate at r = 1 through the
    # z = 1 endpoint; they must agree there
    for alpha in (0.1, 0.5, 1.0, 1.5):
        outer = math.pi * hyp2f1(alpha / 2.0, alpha / 2.0, 2.0, 1.0)
        inner = 2.0 * math.pi / (2.0 - alpha) * hyp2f1((alpha - 2.0) / 2.0, alpha / 2.0, 1.0, 1.0)
        assert disk_potential(1.0, alpha) == outer
        assert rel(inner, outer) < 1e-9


def test_disk_potential_spot_values():
    assert rel(disk_potential(0.5, 0.5), VB_INSIDE) < 1e-13
    assert rel(disk_potential(2.0, 0.5), VB_OUTSIDE) < 1e-13


def test_disk_potential_against_mpmath():
    rs = [0.05 + 0.2 * k for k in range(25)] + [0.95, 0.99, 1.0, 1.01, 1.05]
    worst = 0.0
    for alpha in (0.1, 0.5, 1.0, 1.5):
        for r in rs:
            worst = max(worst, rel(disk_potential(r, alpha), vb_reference(r, alpha)))
    assert worst < 1e-12


def test_disk_potential_strictly_decreasing():
    for alpha in (0.1, 0.5, 1.0, 1.5):
        prev = disk_potential(0.0, alpha)
        for k in range(1, 61):
            cur = disk_potential(0.05 * k, alpha)
            assert cur < prev
            prev = cur


def test_disk_potential_huge_r_is_finite():
    # r^alpha overflows a double past about 1e308^(1/alpha); the potential
    # underflows toward 0 there instead of raising OverflowError
    for alpha in (0.5, 1.5, 1.99):
        prev = disk_potential(1e100, alpha)
        for r in (1e200, 1e300, 1.7e308):
            cur = disk_potential(r, alpha)
            assert math.isfinite(cur) and 0.0 <= cur <= prev, (r, alpha)
            prev = cur


def test_disk_potential_domain():
    for r in (-0.1, math.nan):
        with pytest.raises(DomainError):
            disk_potential(r, 0.5)
    for alpha in (0.0, 2.0, -0.3, 2.5):
        with pytest.raises(DomainError):
            disk_potential(1.0, alpha)


def test_branch_continuity_gap():
    for alpha, want in GAP_1E6.items():
        gap6 = disk_potential(1.0 - 1e-6, alpha) - disk_potential(1.0 + 1e-6, alpha)
        gap4 = disk_potential(1.0 - 1e-4, alpha) - disk_potential(1.0 + 1e-4, alpha)
        assert 0.0 < gap6 < gap4
        assert rel(gap6, want) < 1e-4
        assert rel(gap4, GAP_1E4[alpha]) < 1e-4
    # C1 regime: the gap vanishes fast enough to sit under 1e-5 already
    assert abs(disk_potential(1.0 - 1e-6, 0.1) - disk_potential(1.0 + 1e-6, 0.1)) < 1e-5
    assert abs(disk_potential(1.0 - 1e-6, 0.5) - disk_potential(1.0 + 1e-6, 0.5)) < 1e-5
    # above alpha = 1 the one-sided slopes blow up; continuity shows only
    # in the gap decaying with h, checked above
    assert abs(disk_potential(1.0 - 1e-6, 1.0) - disk_potential(1.0 + 1e-6, 1.0)) < 1e-4
    assert abs(disk_potential(1.0 - 1e-6, 1.5) - disk_potential(1.0 + 1e-6, 1.5)) < 0.05


def test_boundary_slope_spot_values():
    for alpha, want in SLOPE_MAX.items():
        assert rel(disk_potential_max_slope(alpha), want) < 1e-13


def test_boundary_slope_domain():
    for alpha in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(DomainError):
            disk_potential_max_slope(alpha)


def test_boundary_slope_is_one_sided_difference_limit():
    # (v(1+h) - v(1)) / h tends to -max_slope with an error that shrinks
    # by about 10^(1-alpha) per decade of h
    h = 1e-6
    for alpha in (0.034, 0.1):
        quotient = (disk_potential(1.0 + h, alpha) - disk_potential(1.0, alpha)) / h
        slope = disk_potential_max_slope(alpha)
        assert abs(quotient + slope) <= 1e-5 * slope, alpha


def central_diff(alpha, h):
    return (disk_potential(1.0 + h, alpha) - disk_potential(1.0 - h, alpha)) / (2.0 * h)


def test_boundary_slope_richardson_recovery():
    # a plain central difference converges like h^(1-alpha) because the
    # potential is not C2 at r = 1; the two-scale combination cancels the
    # leading singular term and recovers the slope to 1e-4 and better
    h = 1e-5
    for alpha in (0.034, 0.5):
        w = 4.0 ** (1.0 - alpha)
        richardson = (w * central_diff(alpha, h / 4.0) - central_diff(alpha, h)) / (w - 1.0)
        assert abs(abs(richardson) - disk_potential_max_slope(alpha)) < 1e-4


def test_raw_central_difference_frozen():
    cd = central_diff(0.5, 1e-5)
    assert abs(cd - RAW_CENTRAL_DIFF) < 1e-8
    # the uncorrected stencil misses the true slope by about 5e-3
    gap = disk_potential_max_slope(0.5) - abs(cd)
    assert 4e-3 < gap < 6e-3


def test_determinism():
    assert gamma(3.7) == gamma(3.7)
    assert disk_potential(0.7, 0.3) == disk_potential(0.7, 0.3)
    assert hyp2f1(0.25, 0.25, 2.0, 0.9) == hyp2f1(0.25, 0.25, 2.0, 0.9)
