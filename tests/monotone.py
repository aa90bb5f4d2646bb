"""Certify that every ledger row is strictly monotone in alpha on [lo, 0.5].

    python tests/monotone.py

verify.run_ledger evaluates only the two ends of its grid once the grid's
first exponent alpha_max / grid is at least verify._MONOTONE_FROM.  This
file is the proof that it may.  Each of the eighteen rows of
verify._CHECK_TABLE is a function v(alpha) at the fixed probes eps = 0.846
and R = 0.945.  certify() encloses v'(alpha) on boxes of alpha that cover
[lo, 0.5], and bisects a box until the enclosure excludes 0.  A row whose
derivative has one sign on every box is strictly monotone on [lo, 0.5], so
on any grid inside it the row's extremes lie at the grid's two ends.  The
script prints, per row, its direction, its box count, the certified
minimum of |v'|/|v| and the wall time of its group, and exits 1 if a row
is not certified.

Method: interval forward-mode differentiation (W. Tucker, Validated
Numerics, Princeton, 2011).
  * A Dual holds a value and a derivative, each an mpmath.iv interval.
    Evaluated at alpha = Dual(A, 1) on a box A, the value part encloses
    v(A) and the derivative part encloses v'(A).
  * The formulas are the closed forms of the package's docstrings, in the
    plain form bench/oracle.py writes them, written out again here: the
    certificate shares no code with what it certifies.
  * Gamma and digamma are enclosed from their values at the ends of an
    argument interval, at 45 digits, widened by 1e-40 relative (lemma 1);
    Gamma' = Gamma psi.
  * R_0 (f3 = 0), eps_0 (F2 = 0) and eps_1 (F1 = 0) are enclosed per box A
    in an interval X: the package's float roots at the two ends of A, padded
    by 4 times their spread on each side.  The objective g must have
    opposite signs at the two ends of X for every alpha in A, and dg/dx one
    sign on X x A.  Then x' = -g_alpha / g_x (lemma 3), and the mass row is
    evaluated at the Dual (X, x').  For m(eps) that gives
    d log m / d alpha = 2/(3 - alpha) eps'/eps + 2 log eps / (3 - alpha)^2.
  * The 15 closed-form rows share one set of boxes; each root row has its
    own.  A box is halved at its geometric midpoint, since eps_0 and eps_1
    grow like 1/alpha.

The certificate rests on these lemmas:
  1. Gamma decreases on (0, x0] and increases on [x0, inf), with its one
     minimum at x0 = 1.4616321... (DLMF 5.4(iii)), and digamma increases
     on (0, inf), since psi'(x) = sum 1/(x + k)^2 > 0 (DLMF 5.15.1).  Every
     Gamma argument here lies on one side of x0: 1 - alpha in [0.5, 1],
     2 - alpha, 2 - alpha/2 and 3 - alpha/2 in [1.5, 3].  So the four Gamma
     rows are monotone by this lemma alone; their boxes bound |v'|/|v|.
  2. C0 >= 0 for every eps > 0 and alpha in [0, 0.5], because V0 >=
     pi^(2 - alpha) there: h = log V0 - (2 - alpha) log pi is 0 at
     alpha = 0 and h' > 0 on [0, 0.5], which c0_is_nonnegative() certifies.
     So the argument pi C0 (C0 + 2) of C3's square root is clamped at 0.
  3. Uniqueness: where g changes sign across X at every alpha in A and g_x
     has one sign on X x A, each alpha in A has exactly one root in X, and
     by the implicit function theorem it is C^1 in alpha with
     x' = -g_alpha / g_x.
  4. The certified root is the one the package solves for, at every alpha
     of A, not only at its ends.  The two points run_ledger evaluates are
     the first two of a thresholds.walk, which solves them cold: _root
     starts on its bracket (R_0: [r_c1, 4 r_c1]; eps: _EPS_BRACKET),
     doubles the upper end until g changes sign, and keeps a sign change
     inside the bracket as it narrows.  keeps_sign() certifies, for every
     alpha in A, that g keeps the sign of X's lower end from the bracket's
     lower end (less 1e-12, for its float value) up to X, and the sign of
     X's upper end from X up to the first doubled upper end past X.  So
     every bracket the solve can reach holds exactly one root of g, the one
     in X, and a solve that follows g's sign wherever |g| exceeds its
     float error returns it.  At each box end that root and its window
     p (1 -+ 1e-12) lie in X, so two adjacent boxes certify the same root
     at their common end, and the branches of all boxes join into one.
  5. The trust base is mpmath.iv's outward rounding, and mpmath's 45-digit
     Gamma and digamma at the argument ends, accurate far inside 1e-40.
     The intervals run at mpmath.iv's own precision (53 bits unless a
     caller set another); any precision gives true enclosures, and sets
     only how tight they are.  No process-wide precision is set.

Float order: two grid points lie at least _MONOTONE_FROM apart, so a
row's log differs between them by at least _MONOTONE_FROM times its
smallest |v'|/|v| on the span between.  The certificate keeps that minimum
per box, and the tests check, per row and per box, that it exceeds twice
the row's float error budget there: 1e-12 (REL_TOL, which covers the
~7e-14 noise of F2 near eps_0), plus 1e-15/alpha for the rows built on C0,
whose cancellation grows like 1/alpha; the tests check that budget against
mpmath too.  So the doubles of neighbouring grid points keep the order of
the true values, and the grid's float extremes lie at its two ends.
"""

from __future__ import annotations

import math
import pathlib
import sys
import time

from mpmath import iv, mp

HERE = pathlib.Path(__file__).resolve().parent
HI = 0.5  # the top of the domain of rho0, and of run_ledger's alpha_max
_DIGITS = 45  # the working digits of the Gamma and digamma end values
_MARGIN = mp.mpf(10) ** -40  # their relative widening
_GAMMA_MIN = 1.4616321449683623  # x0 to 17 digits; no argument comes near it
_PAD = 4.0  # a root enclosure's pad on each side, in spreads of its end roots
_WINDOW = 1e-12  # the solvers' root window, p (1 -+ REL_TOL)
_MIN_WIDTH = 1e-9  # relative: a box narrower than this is a failed certificate


class CertificateError(Exception):
    """A row could not be certified monotone."""


class Dual:
    """A value and its derivative, each an mpmath.iv interval."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=0) -> None:
        self.v, self.d = iv.mpf(v), iv.mpf(d)

    def __add__(self, o):
        o = _lift(o)
        return Dual(self.v + o.v, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, o):
        o = _lift(o)
        return Dual(self.v - o.v, self.d - o.d)

    def __rsub__(self, o):
        return _lift(o) - self

    def __neg__(self):
        return Dual(-self.v, -self.d)

    def __mul__(self, o):
        o = _lift(o)
        return Dual(self.v * o.v, self.d * o.v + self.v * o.d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _lift(o)
        q = self.v / o.v
        return Dual(q, (self.d - q * o.d) / o.v)

    def __rtruediv__(self, o):
        return _lift(o) / self

    def __pow__(self, o):
        # every base here is positive
        return exp(log(self) * o)

    def __rpow__(self, o):
        return exp(log(_lift(o)) * self)


def _lift(x) -> Dual:
    return x if isinstance(x, Dual) else Dual(x)


def exp(x: Dual) -> Dual:
    e = iv.exp(x.v)
    return Dual(e, e * x.d)


def log(x: Dual) -> Dual:
    return Dual(iv.log(x.v), x.d / x.v)


def sqrt(x: Dual) -> Dual:
    # the argument is clamped at 0 (lemma 2).  Where the clamped argument
    # reaches 0 the derivative enclosure is unbounded, which is still true:
    # C0 > 0 wherever alpha > 0 and eps > 0
    v = x.v
    if v.a < 0:
        v = iv.mpf([0, v.b])
    s = iv.sqrt(v)
    return Dual(s, x.d / (2 * s))


def _monotone(f, x, increasing: bool):
    # f over the interval x, for an f monotone on it (lemma 1): its 45-digit
    # values at the two ends, widened by _MARGIN relative
    with mp.workdps(_DIGITS):
        lo, hi = f(mp.mpf(x.a)), f(mp.mpf(x.b))
        if not increasing:
            lo, hi = hi, lo
        return iv.mpf([lo - _MARGIN * abs(lo), hi + _MARGIN * abs(hi)])


def gamma(x: Dual) -> Dual:
    v = x.v
    if not (v.a > _GAMMA_MIN or v.b < _GAMMA_MIN):
        raise CertificateError(f"Gamma argument {v} straddles its minimum")
    g = _monotone(mp.gamma, v, v.a > _GAMMA_MIN)
    return Dual(g, g * _monotone(mp.digamma, v, True) * x.d)


PI = Dual(iv.pi)
SQRT2 = Dual(iv.sqrt(2))


class Constants:
    """The closed forms at one alpha (a Dual), with the three root objectives."""

    def __init__(self, a: Dual) -> None:
        self.a = a
        self.g2a, self.g2ah = gamma(2 - a), gamma(2 - a / 2)
        self.g3ah, self.g1a = gamma(3 - a / 2), gamma(1 - a)
        self.v0 = 2 * PI * PI * self.g2a / (self.g2ah * self.g3ah)
        num = 2 * PI * (SQRT2 - 1)
        self.r_c1 = (num / (self.v0 * (1 - 2 ** (a / 2 - 1)))) ** (1 / (3 - a))
        self.rho_c1 = 2 / self.r_c1 + self.v0 * self.r_c1 ** (2 - a) / PI
        ratio = (SQRT2 - 1) * self.g2ah * self.g3ah / (PI * (1 - 2 ** ((a - 2) / 2)) * self.g2a)
        self.m_c1 = PI * ratio ** (2 / (3 - a))
        self.lead = PI * PI * a * (2 - a) * self.g1a / (2 * self.g2ah * self.g2ah)
        self.c2 = 2 * PI / (2 - a)
        self.pi_1ma = PI ** (1 - a)
        self.coeff = 2**a * self.pi_1ma / self.rho_c1**a

    def frozen(self) -> Constants:
        """The same constants with derivative 0: alpha held fixed."""
        k = object.__new__(Constants)
        for name, value in vars(self).items():
            setattr(k, name, Dual(value.v))
        return k

    def c0(self, e):
        a, v0 = self.a, self.v0
        return e / (2 * PI) * (v0 - PI ** (2 - a) / (1 + e * v0 / (2 * PI)) ** a)

    def c1(self, d0):
        return self.pi_1ma / (1 + d0) ** self.a

    def c3(self, d0):
        return self.lead * (1 + 2 / 3 * sqrt(PI * d0 * (d0 + 2)))

    def f1(self, e):
        d0 = self.c0(e)
        d3 = self.c3(d0)
        return e * d3 * (e * d3 * d0 * (d0 + 2) + 2) - 1

    def f2(self, e):
        d0 = self.c0(e)
        return 1 / (1 + d0) + 2 * e * (self.c1(d0) - self.c2)

    def rho0(self, r):
        return 2 / r + self.coeff * r ** (2 - 2 * self.a)

    def f3(self, r):
        return self.rho0(r) - self.rho_c1


def _sign(x) -> int:
    # the sign of every point of the interval x, or 0
    return 1 if x.a > 0 else -1 if x.b < 0 else 0


def closed_form_rows(a0: float, a1: float) -> dict[str, Dual]:
    """The fifteen rows without a root solve, on the box [a0, a1]."""
    from rieszdrop.verify import _EPS_PROBE, _R_PROBE

    k = Constants(Dual(iv.mpf([a0, a1]), 1))
    e = Dual(_EPS_PROBE)
    d0 = k.c0(e)
    rho0_probe = k.rho0(Dual(_R_PROBE))
    return {
        "gamma_2_minus_alpha": k.g2a,
        "gamma_2_minus_half_alpha": k.g2ah,
        "gamma_3_minus_half_alpha": k.g3ah,
        "gamma_1_minus_alpha": k.g1a,
        "m_c1_window": k.m_c1,
        "c0_cap": d0,
        "c3_cap": k.c3(d0),
        "f1_negative": k.f1(e),
        "c1_floor": k.c1(d0),
        "c2_cap": k.c2,
        "f2_floor": k.f2(e),
        "r_c1_window": k.r_c1,
        "rho_c1_cap": k.rho_c1,
        "rho0_probe_floor": rho0_probe,
        "f3_floor": rho0_probe - k.rho_c1,
    }


def _m_2(x: Dual, a: Dual) -> Dual:
    return PI * x * x


def _m_of_eps(x: Dual, a: Dual) -> Dual:
    return PI * exp(2 * log(x) / (3 - a))


def _roots():
    # (row, root solve, objective, mass, the enclosures of the cold solve's
    # starting bracket over a box): solve_r0 starts on [r_c1, 4 r_c1], the
    # eps solves on _EPS_BRACKET
    from rieszdrop.thresholds import _EPS_BRACKET, solve_eps0, solve_eps1, solve_r0

    def eps_bracket(k):
        return iv.mpf(_EPS_BRACKET[0]), iv.mpf(_EPS_BRACKET[1])

    def r0_bracket(k):
        return k.r_c1.v, 4 * k.r_c1.v

    return (
        ("m_2_cap", solve_r0, Constants.f3, _m_2, r0_bracket),
        ("m_eps0_floor", solve_eps0, Constants.f2, _m_of_eps, eps_bracket),
        ("m_eps1_floor", solve_eps1, Constants.f1, _m_of_eps, eps_bracket),
    )


def keeps_sign(g, k, near: float, far: float, s: int) -> bool:
    """g(k, x) has the sign s at every x from near, where it has it, to far.

    The span is cut into pieces from near outward.  A piece passes where g
    has the sign s on all of it, or where g_x has the sign that carries s
    from the piece's near end (which the piece before it covers) away
    from 0.  A piece that does neither is halved at its geometric midpoint;
    one narrower than _MIN_WIDTH relative fails, and then so does the span.
    """
    outward = 1 if far > near else -1
    pending = [far]  # the far ends of the pieces still to pass, nearest last
    while pending:
        end = pending[-1]
        piece = g(k, Dual(iv.mpf(sorted((near, end))), 1))
        if _sign(piece.v) == s or _sign(piece.d) == s * outward:
            near = pending.pop()
        elif abs(end - near) <= _MIN_WIDTH * abs(end):
            return False
        else:
            pending.append(math.sqrt(near * end))
    return True


def root_row(solve, g, mass, bracket, a0: float, a1: float) -> Dual | None:
    """A root row on the box [a0, a1], or None where its enclosure fails."""
    p, q = solve(a0), solve(a1)
    spread = abs(q - p)
    lo, hi = min(p, q), max(p, q)
    x = iv.mpf([lo - _PAD * spread, hi + _PAD * spread])
    # lemma 4: the solvers' windows lie in X, and every root is positive
    if not (0 < x.a < lo * (1 - _WINDOW) and hi * (1 + _WINDOW) < x.b):
        return None
    k = Constants(Dual(iv.mpf([a0, a1]), 1))
    fixed = k.frozen()
    # lemma 3: a sign change across X at every alpha, and g_x of one sign
    s_lo, s_hi = _sign(g(fixed, Dual(x.a)).v), _sign(g(fixed, Dual(x.b)).v)
    g_x = g(fixed, Dual(x, 1)).d
    if s_lo == 0 or s_lo != -s_hi or _sign(g_x) == 0:
        return None
    # lemma 4: no other root from the solver's lower end up to X, nor from X
    # up to the first of its doubled upper ends past X
    start, top = bracket(k)
    start = float(start.a) * (1 - _WINDOW)
    end, grown = float(top.b) * (1 + _WINDOW), float(top.a) * (1 - _WINDOW)
    while grown < x.b:
        end, grown = 2 * end, 2 * grown
    if not (x.a <= start or keeps_sign(g, fixed, float(x.a), start, s_lo)):
        return None
    if not keeps_sign(g, fixed, float(x.b), end, s_hi):
        return None
    g_alpha = g(k, Dual(x)).d
    return mass(Dual(x, -g_alpha / g_x), k.a)


def _certify(rows, a0: float, a1: float) -> dict[str, dict]:
    """Bisect [a0, a1] until rows(lo, hi) certifies every row on each box.

    rows returns {name: Dual}, or None where an enclosure fails.  Returns
    per row its direction (+1 increasing, -1 decreasing) and its boxes in
    increasing order, each (lo, hi, minimum of |v'|/|v| on it rounded down
    to a double), and the minimum over them as "ratio".
    """
    found: dict[str, dict] = {}
    stack = [(a0, a1)]
    while stack:
        lo, hi = stack.pop()
        values = rows(lo, hi)
        if values is None or not all(_sign(v.d) for v in values.values()):
            if hi - lo <= _MIN_WIDTH * hi:
                failed = "a root enclosure" if values is None else ", ".join(
                    name for name, v in values.items() if not _sign(v.d)
                )
                raise CertificateError(f"no certificate on [{lo!r}, {hi!r}]: {failed}")
            mid = math.sqrt(lo * hi) if lo > 0 else 0.5 * hi
            stack += [(mid, hi), (lo, mid)]
            continue
        for name, v in values.items():
            row = found.setdefault(name, {"direction": _sign(v.d), "boxes": [], "ratio": math.inf})
            if row["direction"] != _sign(v.d):
                raise CertificateError(f"{name} changes direction on [{lo!r}, {hi!r}]")
            ratio = float((abs(v.d) / abs(v.v)).a)
            row["boxes"].append((lo, hi, ratio))
            row["ratio"] = min(row["ratio"], ratio)
    return found


def c0_is_nonnegative() -> int:
    """Lemma 2: h = log V0 - (2 - alpha) log pi increases on [0, 0.5].

    h(0) = 0, so V0 >= pi^(2 - alpha) there, and C0 >= 0 at every eps > 0.
    Returns the number of boxes.
    """

    def h(a0, a1):
        k = Constants(Dual(iv.mpf([a0, a1]), 1))
        value = log(k.v0) - (2 - k.a) * log(PI)
        return {"h": value} if _sign(value.d) > 0 else None

    return len(_certify(h, 0.0, HI)["h"]["boxes"])


def certify(lo: float) -> dict[str, dict]:
    """Every ledger row on [lo, HI], keyed by name, in _CHECK_TABLE order.

    Each value is {"direction", "boxes", "ratio", "seconds"}: +1 where the
    row increases and -1 where it decreases, its boxes as _certify lists
    them, the minimum of |v'|/|v| over them and the wall time of its group
    (the closed-form rows share one).  Raises CertificateError where a row
    fails.
    """
    from rieszdrop.verify import _CHECK_TABLE

    c0_is_nonnegative()
    start = time.perf_counter()
    found = _certify(closed_form_rows, lo, HI)
    for row in found.values():
        row["seconds"] = time.perf_counter() - start
    for name, solve, g, mass, bracket in _roots():
        start = time.perf_counter()

        def rows(a0, a1, name=name, solve=solve, g=g, mass=mass, bracket=bracket):
            value = root_row(solve, g, mass, bracket, a0, a1)
            return None if value is None else {name: value}

        found.update(_certify(rows, lo, HI))
        found[name]["seconds"] = time.perf_counter() - start
    return {name: found[name] for name, *_ in _CHECK_TABLE}


def main() -> int:
    from rieszdrop.verify import _MONOTONE_FROM

    start = time.perf_counter()
    try:
        found = certify(_MONOTONE_FROM)
    except CertificateError as exc:
        print(f"not certified: {exc}")
        return 1
    for name, row in found.items():
        direction = "increasing" if row["direction"] > 0 else "decreasing"
        print(
            f"{name:26} {direction}  boxes {len(row['boxes']):3}  "
            f"min |v'|/|v| {row['ratio']:.3g}  {row['seconds']:.2f} s"
        )
    ratio = min(row["ratio"] for row in found.values())
    print(
        f"{len(found)} rows strictly monotone on [{_MONOTONE_FROM!r}, {HI}]; "
        f"min |v'|/|v| {ratio:.3g}, times {_MONOTONE_FROM!r} {_MONOTONE_FROM * ratio:.3g}; "
        f"{time.perf_counter() - start:.2f} s"
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    raise SystemExit(main())
