"""Warm-started root solves along the ledger and sweep grids.

From the third grid point on, thresholds.walk (which run_ledger and the
sweep rows run) predicts each root: the polynomial through the same root
at up to the previous four points (R_0) or five (eps_0 and eps_1, in
1/eps), taken one step on.  It passes the prediction to thresholds._warm,
so wrapping _warm shows every warm solve.  _warm evaluates the objective
at the ends of the window p (1 -+ REL_TOL/4); on a sign change it returns
the window's regula falsi point, and otherwise it takes secant steps from
the two window values and checks their result by the same window test.
Anything else returns None, and the walk falls back to the record's cold
ITP solve, which runs thresholds._root, so wrapping _root shows every
fallback.  A warm root is not the cold root's bits, but it carries the
same guarantee: the true root lies within REL_TOL/2 x.
"""

import math

import pytest

from rieszdrop import cli, thresholds
from rieszdrop.errors import BracketError
from rieszdrop.thresholds import AlphaConstants, solve_eps0, solve_eps1, solve_r0
from rieszdrop.verify import run_ledger

REL_TOL = 1e-12
# in the walk's solve order
COLD = {"solve_r0": solve_r0, "solve_eps0": solve_eps0, "solve_eps1": solve_eps1}


def objective(name, alpha):
    # the function whose sign change brackets each root
    k = AlphaConstants(alpha)
    if name == "solve_r0":
        return lambda r: k.rho0(r) - k.rho_c1
    return k.f2 if name == "solve_eps0" else k.f1


@pytest.fixture
def warm_roots(monkeypatch):
    """(solve, alpha, root) of every warm solve of a record's objective.

    The root is None where the warm solve failed.  The solve and alpha are
    read from the bound objective the walk passes: the record's f3, f2 or
    f1, as the class defines it when the solve runs.
    """
    found = []
    warm = thresholds._warm

    def recording(f, lo, p):
        x = warm(f, lo, p)
        k = getattr(f, "__self__", None)
        if isinstance(k, AlphaConstants):
            solve = {
                AlphaConstants.f3: "solve_r0",
                AlphaConstants.f2: "solve_eps0",
                AlphaConstants.f1: "solve_eps1",
            }[f.__func__]
            found.append((solve, k.alpha, x))
        return x

    monkeypatch.setattr(thresholds, "_warm", recording)
    return found


@pytest.fixture
def cold_solves(monkeypatch):
    """The number of _root calls: cold solves, fallbacks included."""
    count = [0]
    root = thresholds._root

    def counting(*args, **kwargs):
        count[0] += 1
        return root(*args, **kwargs)

    monkeypatch.setattr(thresholds, "_root", counting)
    return count


def assert_warm_roots_hold(found):
    h = 0.5 * REL_TOL
    for name, alpha, x in list(found):
        cold = COLD[name](alpha)
        if x is None:  # a failed warm solve: the walk takes the cold bits
            x = cold
        assert abs(x - cold) <= REL_TOL * cold, (name, alpha, x, cold)
        f = objective(name, alpha)
        fa, fb = f(x * (1.0 - h)), f(x * (1.0 + h))
        assert fa == 0.0 or fb == 0.0 or (fa > 0.0) != (fb > 0.0), (name, alpha, x)


def test_ledger_warm_roots_match_cold(warm_roots, cold_solves):
    grid = 1000
    run_ledger(0.032, grid=grid)
    # every solve from the third point on is warm, and none falls back
    assert len(warm_roots) == 3 * (grid - 2)
    assert cold_solves[0] == 3 * 2
    assert_warm_roots_hold(warm_roots)


@pytest.mark.parametrize("lo", [0.005, 0.1])
def test_sweep_warm_roots_match_cold(lo, warm_roots, cold_solves):
    # the benchmark's sweep shape: 201 rows over an exponent range 0.4 wide
    steps = 201
    rows = list(cli._sweep_rows(lo + 0.4 * i / (steps - 1) for i in range(steps)))
    assert all(None not in row for row in rows)
    assert len(warm_roots) == 3 * (steps - 2)
    assert cold_solves[0] == 3 * 2
    assert_warm_roots_hold(warm_roots)


def sweep(lo, hi, steps):
    # the sweep command's grid, unclamped
    return lambda: list(cli._sweep_rows(lo + (hi - lo) * i / (steps - 1) for i in range(steps)))


# (run, objective evaluations with secant steps from a linear prediction):
# a cubic or quartic prediction takes no more on a coarse grid, where its
# extrapolation error is largest.  The 11-row sweep ends at
# 0.5000000000000001, which is unsolved
COARSE_GRIDS = {
    "ledger-0.032-50": (lambda: run_ledger(0.032, grid=50), 1_212),
    "ledger-0.034-10": (lambda: run_ledger(0.034, grid=10), 277),
    "ledger-0.5-20": (lambda: run_ledger(0.5, grid=20), 530),
    "ledger-0.5-200": (lambda: run_ledger(0.5, grid=200), 4_371),
    "ledger-0.1-1000": (lambda: run_ledger(0.1, grid=1000), 19_779),
    "sweep-0.005-0.405-201": (sweep(0.005, 0.405, 201), 3_787),
    "sweep-0.0001-0.5-11": (sweep(0.0001, 0.5, 11), 282),
    "sweep-0.0001-0.5-101": (sweep(0.0001, 0.5, 101), 2_107),
}


@pytest.mark.parametrize("shape", COARSE_GRIDS)
def test_coarse_grids_take_no_more_evals(shape, evals, warm_roots, capsys):
    run, linear = COARSE_GRIDS[shape]
    run()
    assert evals[0] <= linear
    assert_warm_roots_hold(warm_roots)


def test_unsolved_sweep_row_restarts_the_history(warm_roots, capsys):
    # alpha = 0 is unsolved, so rows 1 and 2 solve cold and row 3 is warm
    rows = list(cli._sweep_rows([0.0, 0.01, 0.02, 0.03]))
    assert rows[0][2:] == (None, None, None)
    assert [alpha for _, alpha, _ in warm_roots] == [0.03] * 3
    assert capsys.readouterr().err == (
        "rieszdrop: sweep: row alpha = 0.0 unsolved: "
        "sweep: alpha must lie in (0, 1), got 0.0\n"
    )


ALPHA = 0.034
BAD_PREDICTIONS = {
    # 199 roots out, where the linear prediction from (100 x, x) lay: the
    # secant steps spend their budget
    "far past the root": lambda x: 199.0 * x,
    # a falling history predicts a negative root, below the bracket
    "wrong side of the bracket": lambda x: -0.5 * x,
    "below lo": lambda x: 1e-7,
    # rho0 raises OverflowError there, and f1, f2 are not finite
    "overflowing": lambda x: 1e300,
    "nan": lambda x: math.nan,
    "inf": lambda x: math.inf,
    # f1 and f2 read the same value at both ends of the window there, a flat
    # secant; rho0 - rho_c1 has no flat window above r_c1, and 2e-6 lies
    # below it
    "flat": lambda x: 2e-6,
}


@pytest.mark.parametrize("name", sorted(COLD))
@pytest.mark.parametrize("case", sorted(BAD_PREDICTIONS))
def test_bad_prediction_falls_back_to_cold_bits(
    name, case, monkeypatch, warm_roots, cold_solves
):
    # a walk of three points at one alpha predicts each root at the third,
    # where this root's prediction is replaced by a bad one
    cold = COLD[name](ALPHA)
    index = list(COLD).index(name)
    extrapolate, predicted = thresholds._extrapolate, []

    def predict(h, inverse=False):
        predicted.append(h)
        if len(predicted) == 7 + index:
            return BAD_PREDICTIONS[case](cold)
        return extrapolate(h, inverse)

    monkeypatch.setattr(thresholds, "_extrapolate", predict)
    points = thresholds.walk([ALPHA] * 3, "probe")
    next(points), next(points)
    cold_solves[0] = 0
    _, roots, _, failures = next(points)
    assert failures == []
    assert roots[index].hex() == cold.hex()
    assert cold_solves[0] == 1
    # every prediction reached a warm solve, and only the bad one failed
    assert [(solve, x is None) for solve, _, x in warm_roots] == [
        (solve, solve == name) for solve in COLD
    ]


def test_flat_prediction_is_flat():
    # the "flat" case above: both ends of the window read the same value
    k, q = AlphaConstants(ALPHA), REL_TOL / 4
    for f in (k.f1, k.f2):
        assert f(2e-6 * (1.0 - q)) == f(2e-6 * (1.0 + q))


def test_failed_sign_test_falls_back_with_the_same_error(monkeypatch, warm_roots):
    # f is positive everywhere, and the secant steps from the window
    # around 2.5 stop near 1, where it is 1e-300: the window test there
    # fails
    def f(x):
        return max(x - 1.0, 0.0) + 1e-300

    assert thresholds._warm(f, 0.5, 2.5) is None
    # at alpha 1e-20 C0 cancels to 0, so F2 reads 1 and F1 stays negative on
    # the whole bracket.  Given a prediction of 2.5 for each root, every
    # warm solve fails, and the walk raises the BracketError each cold solve
    # raises without a prediction
    [(_, _, _, cold)] = thresholds.walk([1e-20], "probe")
    monkeypatch.setattr(thresholds, "_extrapolate", lambda h, inverse=False: 2.5)
    [(_, _, _, warm)] = thresholds.walk([1e-20], "probe")
    assert warm_roots == [(solve, 1e-20, None) for solve in COLD]
    assert [type(exc) for exc in warm] == [type(exc) for exc in cold] == [BracketError] * 2
    assert [str(exc) for exc in warm] == [str(exc) for exc in cold]


def test_iterate_below_lo_falls_back():
    # f has roots at 0.2, below the bracket [1, 4], and near 1.709.  The
    # secant from the window around 1.05 jumps to about -0.15, then lands
    # on 0.2, which passes the window test; stopping at the first iterate
    # below lo keeps the root in the bracket
    def f(x):
        if x < 1.0:
            return x - 0.2
        t = x - 1.0
        return 0.8 + t - 3.0 * t * t

    k = AlphaConstants(ALPHA)
    cold = k._solve("probe", f, 1.0, 4.0, REL_TOL)
    assert abs(cold - 1.709) < 1e-3
    # the warm solve fails, so a walk takes the cold bits
    assert thresholds._warm(f, 1.0, 1.05) is None


def test_exact_zero_is_a_root():
    # f - 2 is exactly 0 at and below 3; a window end or a secant iterate
    # where the objective is 0 is returned as it is met
    seen = []

    def f(x):
        seen.append(x)
        return max(x, 3.0) - 1.0

    # the lower end of the window around 2.5
    assert thresholds._warm(lambda x: f(x) - 2.0, 0.5, 2.5) == 2.5 * (1.0 - REL_TOL / 4)
    assert len(seen) == 2
    # the first secant step from the window around 4 lands on 3
    seen.clear()
    assert thresholds._warm(lambda x: f(x) - 2.0, 0.5, 4.0) == 3.0
    assert seen[-1] == 3.0 and len(seen) == 3
    # the upper end of the window around 2, the one point where this
    # objective is 0 (it is -1 elsewhere): past that return, the secant
    # would land on the same end and its window test find no sign change
    b = 2.0 * (1.0 + REL_TOL / 4)
    assert thresholds._warm(lambda x: 0.0 if x == b else -1.0, 0.5, 2.0) == b


def test_iterate_value_not_a_float_falls_back():
    # the secant from the window around 2 lands on 3, where f returns the
    # int 0: finite and a root by every later test, but not a float
    def f(x):
        return 0 if x >= 2.5 else x - 3.0

    assert thresholds._warm(f, 0.5, 2.0) is None


@pytest.mark.parametrize("alpha_max", [0.030, 0.032, 0.034])
def test_ledger_verdicts_match_cold(alpha_max, monkeypatch, cold_solves):
    grid = 1000
    warm = run_ledger(alpha_max, grid)
    assert cold_solves[0] == 3 * 2
    # drop the predictions: every solve runs cold ITP
    monkeypatch.setattr(thresholds, "_extrapolate", lambda h, inverse=False: None)
    cold_solves[0] = 0
    cold = run_ledger(alpha_max, grid)
    assert cold_solves[0] == 3 * grid
    assert warm["passed"] == cold["passed"]
    for w, c in zip(warm["checks"], cold["checks"]):
        assert (w["name"], w["pass"], w["worst_alpha"]) == (c["name"], c["pass"], c["worst_alpha"])
        assert abs(w["attained"] - c["attained"]) <= 1e-12 * abs(c["attained"])
