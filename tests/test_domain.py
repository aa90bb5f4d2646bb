"""Every numeric function of the package surface gives a finite value or a
typed error, promptly, across its documented domain and at its edges.

One hypothesis test draws a public function and its arguments: each
argument from the function's documented domain, or one of the edge values
0, -0.0, the smallest subnormal, 1e-300, 1.7e308, +-inf and nan.  The
aggregates walk, envelope_rows, run_ledger and solve_alpha0 are left out;
their own tests cover their domains.  A table test gives every site of
errors.finite an argument where its result leaves double range, and pins
the DomainError each raises.
"""

import inspect
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rieszdrop
from rieszdrop.errors import BracketError, ConvergenceError, DomainError

LIMIT_S = 0.1  # best of three timings of one call

EDGES = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.7e308, math.inf, -math.inf, math.nan])


def arg(lo=None, hi=None, **bounds):
    # a float from the documented domain, or an edge value
    return st.floats(lo, hi, allow_nan=False, **bounds) | EDGES


ALPHA_2 = arg(0.0, 2.0, exclude_max=True)  # [0, 2)
ALPHA_2_OPEN = arg(0.0, 2.0, exclude_min=True, exclude_max=True)  # (0, 2)
ALPHA_1 = arg(0.0, 1.0)  # [0, 1]
ALPHA_1_OPEN = arg(0.0, 1.0, exclude_min=True, exclude_max=True)  # (0, 1)
ALPHA_HALF = arg(0.0, 0.5)  # [0, 1/2]
ALPHA_HALF_OPEN = arg(0.0, 0.5, exclude_min=True)  # (0, 1/2]
POSITIVE = arg(0.0, exclude_min=True, allow_infinity=False)  # (0, inf)
N = st.integers(1, 2**53 - 1) | EDGES  # [1, 2**53)

# each function's arguments, in order; |a|, |b| <= 60 and 0 < c <= 60 for
# hyp2f1, mostly outside its box, and r in [0, 2] as often as past it for
# disk_potential
DOMAINS = {
    "gamma": (arg(0.0, 200.0, exclude_min=True),),
    "hyp2f1": (arg(-60.0, 60.0), arg(-60.0, 60.0), arg(0.0, 60.0, exclude_min=True), arg(0.0, 1.0)),
    "disk_potential": (arg(0.0, 2.0) | arg(0.0, allow_infinity=False), ALPHA_2_OPEN),
    "v0_const": (ALPHA_2,),
    "rho_n": (N, POSITIVE, ALPHA_2),
    "r_cn": (N, ALPHA_2),
    "rho_c1": (ALPHA_2,),
    "rho_min": (POSITIVE, ALPHA_1),
    "m_c1": (ALPHA_2,),
    "disk_potential_max_slope": (ALPHA_1_OPEN,),
    "rho0": (POSITIVE, ALPHA_HALF),
    "solve_r0": (ALPHA_HALF_OPEN,),
    "solve_m2": (ALPHA_HALF_OPEN,),
    "c0": (ALPHA_2_OPEN, POSITIVE),
    "c1": (ALPHA_2_OPEN, POSITIVE),
    "c2": (ALPHA_2,),
    "c3": (ALPHA_1_OPEN, POSITIVE),
    "delta_bound": (arg(0.0, allow_infinity=False),),
    "f1": (ALPHA_1_OPEN, POSITIVE),
    "f2": (ALPHA_2_OPEN, POSITIVE),
    "m_of_eps": (POSITIVE, ALPHA_2),
    "solve_eps0": (ALPHA_2_OPEN,),
    "solve_eps1": (ALPHA_1_OPEN,),
    "m_at_crossing": (ALPHA_1_OPEN, arg(2.0**-52, allow_infinity=False)),
    "f3": (ALPHA_HALF, POSITIVE),
}
CALLS = st.one_of(
    [st.tuples(st.just(name), st.tuples(*args)) for name, args in DOMAINS.items()]
)


def test_domains_cover_the_numeric_surface():
    public = {name for name in rieszdrop.__all__ if inspect.isfunction(getattr(rieszdrop, name))}
    aggregates = {"walk", "envelope_rows", "run_ledger", "solve_alpha0"}
    assert set(DOMAINS) == public - aggregates


def outside_hyp2f1_box(a, b, c, z):
    return not (abs(a) <= 4.0 and abs(b) <= 4.0 and 0.0 < c <= 4.0 and 0.0 <= z <= 1.0)


# no finite double form of the first four reaches its finite true value:
# two returned NaN, two raised a bare OverflowError.  The last two raised a
# bare ZeroDivisionError, where a Gamma product underflowed to 0.  All six
# lie outside hyp2f1's box, so now each raises its DomainError, and so does
# every draw outside the box, within 0.01 s
@given(CALLS)
@example(("hyp2f1", (50.0, 3.0, 2.0, 0.999999)))
@example(("hyp2f1", (-46.8052006248861, -40.714927351486665, 59.6508853624155, 1.0)))
@example(("hyp2f1", (50.0, 3.0, 0.5, 0.999999)))
@example(("hyp2f1", (4.0, 34.77586291823995, 0.03602849535405089, 0.9999999950491393)))
@example(("hyp2f1", (9.9166804651706, 249.30856096483387, 19.907339507937216, 0.9997772149773755)))
@example(
    ("hyp2f1", (188.01090429778378, -51.345288696536784, 0.4764234019078243, 0.8850273892720965))
)
@settings(derandomize=True, deadline=None, max_examples=500)
def test_finite_value_or_typed_error_promptly(call):
    name, args = call
    fn = getattr(rieszdrop, name)
    box_error = name == "hyp2f1" and outside_hyp2f1_box(*args)
    limit = 0.01 if box_error else LIMIT_S
    best, error = math.inf, None
    for _ in range(3):
        t0 = time.perf_counter()
        try:
            value = fn(*args)
        except (DomainError, BracketError, ConvergenceError) as exc:
            value, error = None, exc
        best = min(best, time.perf_counter() - t0)
        if best < limit:
            break
    assert best < limit, (name, args, best)
    if box_error:
        a, b, c, z = args
        assert isinstance(error, DomainError), args
        assert str(error).startswith("hyp2f1: needs |a|, |b| <= 4, 0 < c <= 4"), error
        assert str(error).endswith(f"(a={a}, b={b}, c={c}, z={z})"), error
    if value is not None:
        values = value if isinstance(value, tuple) else (value,)
        assert all(math.isfinite(v) for v in values), (name, args, value)


# every site of errors.finite, with an argument where the result leaves
# double range: a power that raises OverflowError, a density or product
# that reads inf, C0 infinite before C1 reads it (C1 would read 0), and
# delta_bound's own DomainError inside C3.  verify.f3 reports under rho0
RANGE = "is out of double range at"
OUT_OF_RANGE = [
    ("rho_n", (1, 5e-324, 0.1), f"rho_n: the density {RANGE} r = 5e-324"),
    ("rho_n", (1, 1.7e308, 0.1), f"rho_n: the density {RANGE} r = 1.7e+308"),
    ("rho_min", (5e-324, 0.1), f"rho_min: the density {RANGE} r = 5e-324"),
    ("rho0", (5e-324, 0.1), f"rho0: the density {RANGE} r = 5e-324"),
    ("rho0", (1e300, 0.0), f"rho0: the density {RANGE} r = 1e+300"),
    ("m_of_eps", (1e308, 1.9), f"m_of_eps: the mass {RANGE} eps = 1e+308"),
    ("delta_bound", (1.7e308,), f"delta_bound: the cap {RANGE} d = 1.7e+308"),
    ("c0", (1.9, 1e308), f"c0: the computation {RANGE} eps = 1e+308"),
    ("c1", (0.1, 1.7e308), f"c1: the computation {RANGE} eps = 1.7e+308"),
    ("c3", (0.1, 1e308), f"c3: the computation {RANGE} eps = 1e+308"),
    ("f1", (0.1, 1e100), f"f1: the computation {RANGE} eps = 1e+100"),
    ("f2", (0.1, 1e308), f"f2: the computation {RANGE} eps = 1e+308"),
    ("f3", (0.1, 5e-324), f"rho0: the density {RANGE} r = 5e-324"),
    ("f3", (0.0, 1e300), f"rho0: the density {RANGE} r = 1e+300"),
]


@pytest.mark.parametrize("name, args, message", OUT_OF_RANGE)
def test_out_of_range_result_raises_domain_error_promptly(name, args, message):
    fn = getattr(rieszdrop, name)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        with pytest.raises(DomainError) as info:
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    assert str(info.value) == message
    assert info.value.__context__ is None
    assert best < 0.01, (name, args, best)
