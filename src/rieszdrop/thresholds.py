"""Mass thresholds: ball optimality, nonexistence, and their crossing.

Three mass scales organize the ground-state picture for exponents
0 < alpha <= 1/2:

  m_c1    mass at which one disk and two half-mass disks tie,
          m_c1 = pi * r_cn(1)^2; the paper's closed form
          pi ((sqrt(2)-1) Gamma(2-a/2) Gamma(3-a/2)
              / (pi (1 - 2^((a-2)/2)) Gamma(2-a)))^(2/(3-a))
          is not computed here but kept as the tests' oracle;
  m_2     nonexistence threshold: pi R_0^2 where R_0 >= r_cn(1) solves
          rho_0(R_0) = rho_c1 for the comparison density
          rho_0(R) = 2/R + (2^a pi^(1-a) / rho_c1^a) R^(2-2a);
  m(eps)  convexity/rigidity scales m = pi eps^(2/(3-a)) at the roots
          eps_0 of F2(eps) = 1/(1+C0) + 2 eps (C1 - C2) (decreasing from 1)
          and eps_1 of F1(eps) = eps C3 (eps C3 C0 (C0+2) + 2) - 1
          (increasing from -1).

The crossing exponent alpha_0 is where min(m(eps_0), m(eps_1)) meets m_2;
below it every mass admits either a disk ground state or no minimizer at
all, with a rigidity window in between.

A cold root solve is ITP (interpolate, truncate, project), a bracketing
method that keeps bisection's worst-case iteration bound (to within one)
and needs about 10.8 objective evaluations per root here (32,443 for the
3,000 roots of the default ledger grid at alpha_max 0.032), where bisection
needs about 44.  It asserts the bracket sign change at runtime, so the
monotonicity the formulas rely on is checked on every call.  Both root
kernels, cold and warm, solve f = 0: R_0 is the root of the record's
f3(r) = rho0(r) - rho_c1, eps_0 of F2 and eps_1 of F1.

walk(alphas, stage) is the one grid walk: the ledger, the sweep rows and
eval (a walk of one point) all take their roots (R_0, eps_0, eps_1) and
masses from it, and it is the one place a root is warm-started.  It keeps
each root at up to the previous five points and predicts the next one
from them: R_0 by a cubic extrapolation, 4 r_-1 - 6 r_-2 + 4 r_-3 - r_-4,
and eps_0 and eps_1 by a quartic in 1/eps (eps grows like 1/alpha, which
no polynomial in alpha extrapolates); lower orders while the history
fills.  It checks a prediction p itself, by a warm solve on the record's
objective (f3, f2 or f1), which evaluates it at p (1 -+ REL_TOL/4).  On
a sign change the warm solve returns the regula falsi point of that
window, so the true root lies within REL_TOL/2 x of it, as for ITP;
otherwise it takes secant steps from the two window values, one
evaluation each, and checks their result by the same window test.
Anything else falls back to the record's solve_* method, which is cold
only, with its bits and errors.  Along the default ledger grid that is 2
evaluations at 2,445 of its 2,994 warm roots and 7,777 in all, none
falling back.  A point with an unsolved root starts the history over.
Every solve without two previous roots (eval, alpha_0, the public solve_*
functions, a walk's first two points and the two after an unsolved one) is
cold.  Results are bit-deterministic for identical inputs.

Everything above depends on alpha only through a handful of constants,
kept in one record per exponent in two layers, each constant computed once
on construction.  splitting.DiskConstants holds the disk constants:
Gamma(2-a), Gamma(2-a/2), Gamma(3-a/2), V0, r_cn(1), rho_c1 and
m_c1 = pi r_c1^2, so m_c1 computes 3 Gamma values.  AlphaConstants
extends it with the threshold constants: pi^(2-a), pi^(1-a), C2 and the
rho_0 coefficient (which is why rho0 builds one), and for a < 1
Gamma(1-a) and the slope lead of C3, which disk_potential_max_slope
divides by pi.  Each Gamma value is computed once per exponent, and an
objective reads its constants from the record on every solver step.

The public rho0, m_of_eps, delta_bound and C0 to F2 report a result past
double range through errors.finite, as one DomainError naming the
function, the quantity and its argument; C1, C3, F1 and F2 check C0 first,
since C1 reads 0 at an infinite C0.  The record methods do not: a cold
solve reports an objective value that is not finite as BracketError, and
a warm one falls back to the cold solve.

Tolerances are fixed, and REL_TOL = 1e-12 is their one written form:
every cold root solve stops at a bracket width of REL_TOL relative, or
raises ConvergenceError after 200 iterations; a warm one returns from a
window REL_TOL/2 relative wide, stops its secant steps at a step of
REL_TOL relative, or falls back after 8 steps.  The one setting left to
callers is the tolerance of the outer alpha_0 solve (REL_TOL by default,
the command line's alpha0 --tol too), which must be at least 2**-52
(MIN_REL_TOL), the relative spacing of doubles; below REL_TOL it tightens
the inner solves with it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator

from .errors import BracketError, ConvergenceError, DomainError, check_alpha, finite
from .specfun import gamma
from .splitting import DiskConstants

__all__ = [
    "m_c1",
    "disk_potential_max_slope",
    "rho0",
    "solve_r0",
    "solve_m2",
    "c0",
    "c1",
    "c2",
    "c3",
    "delta_bound",
    "f1",
    "f2",
    "m_of_eps",
    "solve_eps0",
    "solve_eps1",
    "walk",
    "solve_alpha0",
    "m_at_crossing",
]

_EXPANSIONS = 60  # geometric bracket growth budget (factor 2 each)
_MAX_ITER = 200  # ITP iteration budget
_WARM_STEPS = 8  # secant step budget of a warm solve before the ITP fallback
# the relative width at which every root solve stops, unless a caller of
# the outer alpha_0 solve tightens it
REL_TOL = 1e-12
# two adjacent doubles x < y always satisfy y - x <= 2**-52 y, so the outer
# solve can meet any relative width from here up, and none below
MIN_REL_TOL = 2.0**-52
# the roots a walk keeps for its predictions: a cubic for R_0, a quartic in
# 1/eps for eps_0 and eps_1
_R0_HISTORY = 4
_EPS_HISTORY = 5


def _not_finite(y: object, x: float) -> BracketError:
    # an objective value that is NaN, infinite or not a float would compare
    # false against 0 and carry into every later interpolation point
    return BracketError(f"objective value {y!r} at x = {x!r} is not a finite float")


def _root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rel_tol: float = REL_TOL,
    expand_hi: bool = True,
) -> float:
    """Root of f on [lo, hi] by ITP, down to width rel_tol hi, growing hi geometrically.

    The bracket must be positive, 0 < lo < hi, as every bracket here is
    (R_0, eps and alpha_0 are positive), so hi is the larger end in size.

    ITP (interpolate, truncate, project; Oliveira and Takahashi, ACM TOMS
    47(1), 2020) steps from the regula falsi point toward the midpoint by
    0.2 (hi - lo)^2 / w0, w0 the starting width, and keeps the step within
    a radius of the midpoint that halves with every iteration.  Its
    projection tolerance is taken as half the width at which bisection of
    the same bracket stops, so the radius does not depend on where the
    root lies: after j steps the bracket is at most 2 w0 / 2^j wide, one
    halving behind bisection (n0 = 1), so no bracket needs more than one
    iteration beyond bisection's count, while a smooth objective needs far
    fewer.  Each point is kept at least half the stop width inside the
    bracket, as Brent's method does; that only moves it toward the
    midpoint, so the bound holds, and a point that has converged onto one
    end is not evaluated there again.

    The loop is written for speed (the finiteness test inline, branches in
    place of abs, min and max), but its iterates are exactly those of the
    description above: the same expressions in the same order.

    The sign change is asserted before iterating, so a violated
    monotonicity assumption surfaces as BracketError rather than a silent
    wrong root; so does an objective value that is not a finite float.
    """
    isfinite = math.isfinite
    flo = f(lo)
    if not (isinstance(flo, float) and isfinite(flo)):
        raise _not_finite(flo, lo)
    if flo == 0.0:
        return lo
    # every later sign is compared with this one, never multiplied by it:
    # the product of two tiny values underflows to 0 and would read as a
    # sign change
    pos = flo > 0.0
    fhi = f(hi)
    if not (isinstance(fhi, float) and isfinite(fhi)):
        raise _not_finite(fhi, hi)
    if expand_hi:
        grown = 0
        while fhi != 0.0 and (fhi > 0.0) == pos and grown < _EXPANSIONS:
            hi *= 2.0
            fhi = f(hi)
            if not (isinstance(fhi, float) and isfinite(fhi)):
                raise _not_finite(fhi, hi)
            grown += 1
    if fhi == 0.0:
        return hi
    if (fhi > 0.0) == pos:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo) = {flo}, f(hi) = {fhi}"
        )
    k1 = 0.2 / (hi - lo)
    cap = 2.0 * (hi - lo)  # halved each step: the width bound after it
    for _ in range(_MAX_ITER):
        width = hi - lo
        mid = 0.5 * (lo + hi)
        tol = rel_tol * hi
        if width <= tol:
            return mid
        cap *= 0.5
        # interpolate: regula falsi, written so the point stays in [lo, hi]
        # (flo and -fhi share a sign, so the fraction lies in [0, 1])
        d = mid - (lo + width * (flo / (flo - fhi)))
        # truncate toward the midpoint by k1 width^2, project onto the ball
        # of radius max(cap - width / 2, 0) around it
        step = (d if d > 0.0 else -d) - k1 * width * width
        if step <= 0.0:
            x = mid
        else:
            radius = cap - 0.5 * width
            if step > radius:
                step = radius if radius >= 0.0 else 0.0
            x = mid - step if d > 0.0 else mid + step
        # keep x tol / 2 inside the bracket (Brent's tol1): once regula falsi
        # has converged onto an end, a truncation step below one ulp would
        # evaluate that end again until the projection radius caught up
        half = 0.5 * tol
        if x < lo + half:
            x = lo + half
        elif x > hi - half:
            x = hi - half
        fx = f(x)
        if not (isinstance(fx, float) and isfinite(fx)):
            raise _not_finite(fx, x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == pos:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    raise ConvergenceError(
        f"ITP root solve did not reach rel_tol {rel_tol} in {_MAX_ITER} iterations"
    )


def _warm(f: Callable[[float], float], lo: float, p: float) -> float | None:
    """Root of f from a prediction p of it, or None.

    The window is p (1 -+ REL_TOL/4), REL_TOL/2 p wide.  Where f changes
    sign across it, the regula falsi point of the window is returned,
    clamped into it, so the root lies within the window's width of the
    result, about REL_TOL/2 x, as for _root.  Otherwise secant steps start
    from the two window values, one evaluation each, up to the first step
    of at most REL_TOL x; its result is checked by the same window test,
    with no steps after it.  A window end or an iterate where f is exactly
    0 is returned.  None, for the cold solve, on a failed check, a window
    end or iterate at or below lo, a value that is not a finite float or an
    objective that raises ArithmeticError or ValueError, a flat secant, or
    _WARM_STEPS steps with none small enough.
    """
    finite = math.isfinite
    q = 0.25 * REL_TOL
    steps = _WARM_STEPS
    try:
        while True:
            a, b = p * (1.0 - q), p * (1.0 + q)
            if not a > lo:
                return None
            fa, fb = f(a), f(b)
            if not (isinstance(fa, float) and finite(fa) and isinstance(fb, float) and finite(fb)):
                return None
            if fa == 0.0:
                return a
            if fb == 0.0:
                return b
            if (fa > 0.0) != (fb > 0.0):
                # fa and -fb share a sign, so the fraction lies in [0, 1]; the
                # clamp guards its rounding
                x = a + (b - a) * (fa / (fa - fb))
                return a if x < a else b if x > b else x
            if steps == 0:  # the secant steps' result failed its window test
                return None
            x0, f0, x1, f1 = a, fa, b, fb
            while True:
                if f1 == f0 or steps == 0:
                    return None
                steps -= 1
                x = x1 - f1 * (x1 - x0) / (f1 - f0)
                if not x > lo:
                    return None
                step = x - x1
                if (step if step >= 0.0 else -step) <= REL_TOL * x:
                    break
                y = f(x)
                if not (isinstance(y, float) and finite(y)):
                    return None
                x0, f0, x1, f1 = x1, f1, x, y
                if f1 == 0.0:
                    return x
            # check x by the same window test, with no secant steps after it
            p, steps = x, 0
    except (ArithmeticError, ValueError):
        # an objective that raises at a window end or an iterate (r^(2-2a)
        # overflows far past R_0) fails the check like a value that is not
        # finite
        return None


def _extrapolate(h: list[float], inverse: bool = False) -> float | None:
    """The next value of an evenly spaced sequence from its last values h, or None.

    h holds up to five values, the newest first; the polynomial through
    them is taken one step on, linear from two values up to a quartic from
    five, and below two there is no prediction.  With inverse, h holds the
    reciprocals of the sequence, and the reciprocal of their extrapolation
    is returned, or None where that is not positive.
    """
    n = len(h)
    if n < 2:
        return None
    if n == 2:
        x = 2.0 * h[0] - h[1]
    elif n == 3:
        x = 3.0 * (h[0] - h[1]) + h[2]
    elif n == 4:
        x = 4.0 * (h[0] + h[2]) - 6.0 * h[1] - h[3]
    else:
        x = 5.0 * (h[0] - h[3]) + 10.0 * (h[2] - h[1]) + h[4]
    if inverse:
        return 1.0 / x if x > 0.0 else None
    return x


def m_c1(alpha: float) -> float:
    """Mass where one disk ties with two half-mass disks, pi r_cn(1)^2."""
    check_alpha(alpha, "m_c1", 2.0, hi_open=True)
    return DiskConstants(alpha).m_c1


def disk_potential_max_slope(alpha: float) -> float:
    """Largest slope magnitude of the disk potential, attained at r = 1.

    Valid for 0 < alpha < 1, where the potential is C1:

        pi alpha (2 - alpha) Gamma(1 - alpha) / (2 Gamma(2 - alpha/2)^2),

    read as the C3 slope lead over pi, its one written form.
    """
    check_alpha(alpha, "disk_potential_max_slope", 1.0, lo_open=True, hi_open=True)
    return AlphaConstants(alpha).c3_lead / math.pi


_EPS_BRACKET = (1e-6, 4.0)


def _c2(alpha: float) -> float:
    # the one written form of C2: the record's slot and the public c2 read
    # it, so c2 computes no Gamma value
    return 2.0 * math.pi / (2.0 - alpha)


class AlphaConstants(DiskConstants):
    """The per-exponent constants of one alpha, with the objectives that read them.

    The record extends splitting.DiskConstants (Gamma(2-a), Gamma(2-a/2),
    Gamma(3-a/2) as g2a, g2ah, g3ah, V0, r_c1, rho_c1 and m_c1 =
    pi r_c1^2) with pi^(2-a), pi^(1-a), C2 and the rho_0 coefficient
    2^a pi^(1-a) / rho_c1^a, and for alpha < 1 with Gamma(1-a) (g1a) and
    the C3 slope lead pi^2 a (2-a) Gamma(1-a) / (2 Gamma(2-a/2)^2), pi
    times the steepest slope of the disk potential.  Every constant is set
    once on construction, so a solve pays for its constants once rather
    than once per solver step; from alpha = 1 on,
    g1a and c3_lead are left unset, and reading them raises AttributeError.
    The record is slotted plain data.

    c3_lead and the methods are the only written form of the potential's
    steepest slope, C0, C1, C3, F1, F2 and rho_0; the public functions of
    the same names (and disk_potential_max_slope) wrap them,
    so both give the same bits; C2 alone is read from _c2, which c2 reads
    without a record.  f3, the R_0 objective rho0 - rho_c1, is
    the record's own, and verify.f3 reads it; the ledger's f3_floor row
    subtracts rho_c1 from the row's rho0 probe instead, so no ledger point
    evaluates rho0 twice.  f1 and f2 take the C0, C1 and C3 a caller
    already holds.  The record builds for any alpha in [0, 2), and the
    objectives take checked arguments: eps and r positive, alpha in the
    domain of the objective.  The solves check alpha once per call:
    solve_r0 (and solve_m2) for [0, 1/2], the domain of rho_0, and
    solve_eps1 for (0, 1), the domain of C3.

    The solve_* methods are cold: ITP on the full bracket.  walk tries its
    warm solves on the objectives and calls them only where those fail.
    They prefix a BracketError or ConvergenceError with the solve and
    alpha, e.g. "solve_eps0(alpha=1e-20): no sign change ..."; solve_m2
    reports the solve_r0 that failed under it.
    """

    __slots__ = ("pi_2ma", "pi_1ma", "c2", "rho0_coeff", "g1a", "c3_lead")

    def __init__(self, alpha: float) -> None:
        DiskConstants.__init__(self, alpha)
        self.pi_2ma = math.pi ** (2.0 - alpha)
        self.pi_1ma = math.pi ** (1.0 - alpha)
        self.c2 = _c2(alpha)
        self.rho0_coeff = 2.0**alpha * self.pi_1ma / self.rho_c1**alpha
        if alpha < 1.0:
            self.g1a = gamma(1.0 - alpha)
            g = self.g2ah
            self.c3_lead = math.pi**2 * alpha * (2.0 - alpha) * self.g1a / (2.0 * g * g)

    def c0(self, eps: float) -> float:
        v0 = self.v0
        return (
            eps
            / (2.0 * math.pi)
            * (v0 - self.pi_2ma / (1.0 + eps * v0 / (2.0 * math.pi)) ** self.alpha)
        )

    def c1(self, d0: float) -> float:
        """C1 given C0 = d0."""
        return self.pi_1ma / (1.0 + d0) ** self.alpha

    def c3(self, d0: float) -> float:
        """C3 given C0 = d0."""
        return self.c3_lead * (1.0 + (2.0 / 3.0) * delta_bound(d0))

    def f1(self, eps: float, d0: float | None = None, d3: float | None = None) -> float:
        """F1 at eps, given C0 = d0 and C3 = d3 there where they are known."""
        if d0 is None:
            d0 = self.c0(eps)
        if d3 is None:
            d3 = self.c3(d0)
        return eps * d3 * (eps * d3 * d0 * (d0 + 2.0) + 2.0) - 1.0

    def f2(self, eps: float, d0: float | None = None, d1: float | None = None) -> float:
        """F2 at eps, given C0 = d0 and C1 = d1 there where they are known.

        F2 subtracts two values near pi and scales the difference by 2 eps,
        so near eps_0 at small alpha it moves in steps of about 3e-14.  At
        alpha = 0.0032, with eps_0 the point where F2 changes sign,
        F2(eps_0 (1 + j 1e-15)) drops from about -2.4e-14 to -5.7e-14
        between j = 24 and j = 25.  So eps_0 is defined there only to about
        7e-14 relative, which is inside the warm solves' window; a form of
        C1 - C2 free of that cancellation would define it more tightly.
        """
        if d0 is None:
            d0 = self.c0(eps)
        if d1 is None:
            d1 = self.c1(d0)
        return 1.0 / (1.0 + d0) + 2.0 * eps * (d1 - self.c2)

    def rho0(self, r: float) -> float:
        return 2.0 / r + self.rho0_coeff * r ** (2.0 - 2.0 * self.alpha)

    def f3(self, r: float) -> float:
        """The R_0 objective rho0(r) - rho_c1, increasing through 0 at R_0."""
        return self.rho0(r) - self.rho_c1

    def _solve(
        self, name: str, f: Callable[[float], float], lo: float, hi: float, rel_tol: float
    ) -> float:
        # cold ITP on the full bracket, with one try per solve, not per
        # objective evaluation; walk tries its warm solves before this
        try:
            return _root(f, lo, hi, rel_tol)
        except (BracketError, ConvergenceError) as exc:
            raise type(exc)(f"{name}(alpha={self.alpha}): {exc}") from None

    # _rel_tol is the inner stop of solve_alpha0, REL_TOL everywhere else

    def solve_r0(self, *, _rel_tol: float = REL_TOL) -> float:
        check_alpha(self.alpha, "rho0", 0.5)
        rc = self.r_c1
        return self._solve("solve_r0", self.f3, rc, 4.0 * rc, _rel_tol)

    def solve_m2(self, *, _rel_tol: float = REL_TOL) -> float:
        r0 = self.solve_r0(_rel_tol=_rel_tol)
        return math.pi * r0 * r0

    def solve_eps0(self, *, _rel_tol: float = REL_TOL) -> float:
        return self._solve("solve_eps0", self.f2, *_EPS_BRACKET, _rel_tol)

    def solve_eps1(self, *, _rel_tol: float = REL_TOL) -> float:
        check_alpha(self.alpha, "c3", 1.0, lo_open=True, hi_open=True)
        return self._solve("solve_eps1", self.f1, *_EPS_BRACKET, _rel_tol)

    def _m_eps_min(self, rel_tol: float) -> float:
        # min(m(eps_0), m(eps_1)), the mass solve_alpha0 meets with m_2
        alpha = self.alpha
        m_eps0 = _m_of_eps(self.solve_eps0(_rel_tol=rel_tol), alpha)
        m_eps1 = _m_of_eps(self.solve_eps1(_rel_tol=rel_tol), alpha)
        return min(m_eps0, m_eps1)


def rho0(r: float, alpha: float) -> float:
    """Comparison density 2/r + (2^a pi^(1-a) / rho_c1^a) r^(2-2a), a <= 1/2.

    An r where the density leaves double range raises DomainError.
    """
    if not 0.0 < r < math.inf:
        raise DomainError(f"rho0: r must lie in (0, inf), got {r}")
    check_alpha(alpha, "rho0", 0.5)
    k = AlphaConstants(alpha)
    return finite(lambda: k.rho0(r), "rho0", "density", "r", r)


def solve_r0(alpha: float) -> float:
    """Unique scale R_0 >= r_cn(1) where rho0 climbs back to rho_c1."""
    check_alpha(alpha, "solve_r0", 0.5, lo_open=True)
    return AlphaConstants(alpha).solve_r0()


def solve_m2(alpha: float) -> float:
    """Nonexistence threshold mass pi R_0^2."""
    check_alpha(alpha, "solve_m2", 0.5, lo_open=True)
    return AlphaConstants(alpha).solve_m2()


def _with_eps(stage: str, alpha: float, eps: float, alpha_hi: float = 2.0) -> AlphaConstants:
    # the argument checks of C0 and everything built on it, alpha in
    # (0, alpha_hi) and eps in (0, inf), each naming the function called
    check_alpha(alpha, stage, alpha_hi, lo_open=True, hi_open=True)
    if not 0.0 < eps < math.inf:
        raise DomainError(f"{stage}: eps must be positive and finite, got {eps}")
    return AlphaConstants(alpha)


def _in_range(stage: str, k: AlphaConstants, eps: float, value: Callable[[float], float]) -> float:
    # value(C0) at a checked eps.  C0 grows like eps, and C3 and F1 square
    # it on the way, so they leave double range long before eps does.  C0
    # itself is checked first, since C1 would read 0 at an infinite C0
    d0 = finite(lambda: k.c0(eps), stage, "computation", "eps", eps)
    return finite(lambda: value(d0), stage, "computation", "eps", eps)


def c0(alpha: float, eps: float) -> float:
    """Perturbation amplitude constant C0(alpha, eps)."""
    return _in_range("c0", _with_eps("c0", alpha, eps), eps, lambda d0: d0)


def c1(alpha: float, eps: float) -> float:
    """Inner-interaction lower constant pi^(1-a) / (1 + C0)^a."""
    k = _with_eps("c1", alpha, eps)
    return _in_range("c1", k, eps, k.c1)


def c2(alpha: float) -> float:
    """Outer-interaction upper constant 2 pi / (2 - alpha)."""
    check_alpha(alpha, "c2", 2.0, hi_open=True)
    return _c2(alpha)


def delta_bound(d: float) -> float:
    """Boundary-displacement cap sqrt(pi d (d + 2)) for a finite amplitude d >= 0."""
    if 0.0 <= d < 1e150:
        return math.sqrt(math.pi * d * (d + 2.0))
    if not 0.0 <= d < math.inf:
        raise DomainError(f"delta_bound: d must be nonnegative and finite, got {d}")
    # pi d (d + 2) overflows here; the cap itself does above about 1e308
    return finite(
        lambda: math.sqrt(d) * math.sqrt(d + 2.0) * math.sqrt(math.pi), "delta_bound", "cap", "d", d
    )


def c3(alpha: float, eps: float) -> float:
    """Slope constant C3 = pi^2 a (2-a) Gamma(1-a) / (2 Gamma(2-a/2)^2)
    times (1 + (2/3) sqrt(pi C0 (C0 + 2)))."""
    k = _with_eps("c3", alpha, eps, 1.0)
    return _in_range("c3", k, eps, k.c3)


def f1(alpha: float, eps: float) -> float:
    """Rigidity objective eps C3 (eps C3 C0 (C0+2) + 2) - 1; increasing in eps."""
    k = _with_eps("f1", alpha, eps, 1.0)
    return _in_range("f1", k, eps, lambda d0: k.f1(eps, d0))


def f2(alpha: float, eps: float) -> float:
    """Convexity objective 1/(1 + C0) + 2 eps (C1 - C2); decreasing from 1."""
    k = _with_eps("f2", alpha, eps)
    return _in_range("f2", k, eps, lambda d0: k.f2(eps, d0))


def _m_of_eps(eps: float, alpha: float) -> float:
    # the one written form of the mass at eps, for a root of the eps solves
    return math.pi * eps ** (2.0 / (3.0 - alpha))


def m_of_eps(eps: float, alpha: float) -> float:
    """Mass corresponding to the scale parameter: m = pi eps^(2/(3-a))."""
    check_alpha(alpha, "m_of_eps", 2.0, hi_open=True)
    if not 0.0 < eps < math.inf:
        raise DomainError(f"m_of_eps: eps must be positive and finite, got {eps}")
    return finite(lambda: _m_of_eps(eps, alpha), "m_of_eps", "mass", "eps", eps)


def solve_eps0(alpha: float) -> float:
    """Root of the convexity objective f2; masses above it are non-disk-like."""
    check_alpha(alpha, "solve_eps0", 2.0, lo_open=True, hi_open=True)
    return AlphaConstants(alpha).solve_eps0()


def solve_eps1(alpha: float) -> float:
    """Root of the rigidity objective f1."""
    check_alpha(alpha, "solve_eps1", 1.0, lo_open=True, hi_open=True)
    return AlphaConstants(alpha).solve_eps1()


def walk(
    alphas: Iterable[float], stage: str
) -> Iterator[tuple[AlphaConstants, tuple, tuple, list[Exception]]]:
    """The record, roots, masses and failures at each alpha, in order.

    Yields (k, (R_0, eps_0, eps_1), (m_2, m(eps_0), m(eps_1)), failures)
    per alpha, with k = AlphaConstants(alpha): each alpha must lie in
    [0, 2), where the record builds.  An alpha outside (0, 1), the domain
    of the eps solves, solves nothing and fails with a DomainError naming
    stage; every other alpha tries all three solves.  failures lists the
    DomainError, BracketError or ConvergenceError of each unsolved root, in
    solve order, and an unsolved root and its mass are None.  From the
    third point on, each solve is warm-started from a prediction: the
    polynomial through the same root at up to the previous four points
    (R_0) or five (eps_0 and eps_1, in 1/eps), taken one step on.  The walk
    solves that root warm itself, and where the warm solve fails it runs
    the record's cold solve_* method, whose bits and errors the root then
    has; R_0 above alpha 1/2 is never warm and raises solve_r0's
    DomainError.  A point with a failure starts that history over.
    """
    # the roots at the previous points, newest first: R_0, and eps_0 and
    # eps_1 as 1/eps, in which they extrapolate
    h0: list[float] = []
    h1: list[float] = []
    h2: list[float] = []
    for alpha in alphas:
        k = AlphaConstants(alpha)
        r0 = eps0 = eps1 = m_2 = m_eps0 = m_eps1 = None
        failures: list[Exception] = []
        if 0.0 < alpha < 1.0:
            # the three solves written out, each with its mass: a loop over
            # them costs the ledger a few percent of its time.  R_0 past
            # alpha 1/2 is left to solve_r0, which raises
            try:
                p = _extrapolate(h0)
                if p is not None and alpha <= 0.5:
                    r0 = _warm(k.f3, k.r_c1, p)
                if r0 is None:
                    r0 = k.solve_r0()
                m_2 = math.pi * r0 * r0
            except (DomainError, BracketError, ConvergenceError) as exc:
                failures.append(exc)
            try:
                p = _extrapolate(h1, True)
                if p is not None:
                    eps0 = _warm(k.f2, _EPS_BRACKET[0], p)
                if eps0 is None:
                    eps0 = k.solve_eps0()
                m_eps0 = _m_of_eps(eps0, alpha)
            except (DomainError, BracketError, ConvergenceError) as exc:
                failures.append(exc)
            try:
                p = _extrapolate(h2, True)
                if p is not None:
                    eps1 = _warm(k.f1, _EPS_BRACKET[0], p)
                if eps1 is None:
                    eps1 = k.solve_eps1()
                m_eps1 = _m_of_eps(eps1, alpha)
            except (DomainError, BracketError, ConvergenceError) as exc:
                failures.append(exc)
        else:
            # alpha outside (0, 1): check_alpha raises its DomainError
            try:
                check_alpha(alpha, stage, 1.0, lo_open=True, hi_open=True)
            except DomainError as exc:
                failures.append(exc)
        yield k, (r0, eps0, eps1), (m_2, m_eps0, m_eps1), failures
        if failures:
            h0, h1, h2 = [], [], []
        else:
            h0 = [r0, *h0[: _R0_HISTORY - 1]]
            h1 = [1.0 / eps0, *h1[: _EPS_HISTORY - 1]]
            h2 = [1.0 / eps1, *h2[: _EPS_HISTORY - 1]]


_ALPHA0_BRACKET = (0.01, 0.10)


def _inner_rel_tol(rel_tol: float, stage: str) -> float:
    # the stop of the inner solves under an outer alpha_0 solve to rel_tol
    if not MIN_REL_TOL <= rel_tol < math.inf:
        raise DomainError(
            f"{stage}: rel_tol must be at least 2**-52 = {MIN_REL_TOL!r} and finite,"
            f" got {rel_tol}"
        )
    return REL_TOL if rel_tol >= REL_TOL else max(rel_tol / 100.0, 4.0 * MIN_REL_TOL)


def solve_alpha0(rel_tol: float = REL_TOL) -> float:
    """Exponent where min(m(eps_0), m(eps_1)) crosses m_2.

    Outer ITP solve on [0.01, 0.10] down to a relative width rel_tol, which
    must be finite and at least MIN_REL_TOL = 2**-52.  The three inner
    solves stop at REL_TOL = 1e-12 while rel_tol >= REL_TOL, and at
    max(rel_tol / 100, 4 * 2**-52) below that: the outer objective carries
    their error, so an outer bracket narrower than it would only close in
    on noise.  The result lands within about max(rel_tol, 2e-15) relative
    of the true crossing.  A failed outer solve raises its BracketError or
    ConvergenceError prefixed with "solve_alpha0(rel_tol=...)".
    """
    inner = _inner_rel_tol(rel_tol, "solve_alpha0")

    def crossing_gap(alpha: float) -> float:
        k = AlphaConstants(alpha)
        return k._m_eps_min(inner) - k.solve_m2(_rel_tol=inner)

    try:
        return _root(crossing_gap, *_ALPHA0_BRACKET, rel_tol=rel_tol, expand_hi=False)
    except (BracketError, ConvergenceError) as exc:
        raise type(exc)(f"solve_alpha0(rel_tol={rel_tol}): {exc}") from None


def m_at_crossing(alpha0: float, rel_tol: float = REL_TOL) -> float:
    """min(m(eps_0), m(eps_1)) at the crossing alpha0 = solve_alpha0(rel_tol).

    Both eps solves stop where solve_alpha0(rel_tol) stops its inner
    solves, so the mass is as accurate as the crossing it is taken at.
    """
    check_alpha(alpha0, "m_at_crossing", 1.0, lo_open=True, hi_open=True)
    return AlphaConstants(alpha0)._m_eps_min(_inner_rel_tol(rel_tol, "m_at_crossing"))
