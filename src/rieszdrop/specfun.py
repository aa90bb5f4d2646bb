"""Special-function kernel: Gamma, Gauss hypergeometric, unit-disk potential.

Everything downstream reduces to the Euler Gamma function and the Gauss
hypergeometric series

    2F1(a, b; c; z) = sum_k  (a)_k (b)_k / ((c)_k k!) z^k,

evaluated on z in [0, 1] for the parameter sets produced by the potential

    v(r) = integral over the unit disk B of |x - y|^(-alpha) dy,  |x| = r,

which has the closed two-branch form (0 < alpha < 2)

    v(r) = (2 pi / (2 - alpha)) * 2F1((alpha-2)/2, alpha/2; 1; r^2)   r < 1
    v(r) = (pi / r^alpha)      * 2F1(alpha/2, alpha/2; 2; 1/r^2)      r >= 1.

Both branches meet at v(1) = pi Gamma(2-alpha) / Gamma(2-alpha/2)^2.  For
alpha < 1 the potential is continuously differentiable and the steepest
slope sits at r = 1:

    max |v'(r)| = pi alpha (2-alpha) Gamma(1-alpha) / (2 Gamma(2-alpha/2)^2).

That slope is computed in thresholds (disk_potential_max_slope), as the
lead of the slope constant C3 over pi, so the Gamma product is written
once and its Gamma values come from the per-exponent record.

Accuracy notes.  gamma is the standard library's math.gamma (CPython's own
C code, about 1e-15 relative error against a 30-digit reference).  hyp2f1
is defined on a parameter box, |a|, |b| <= 4, 0 < c <= 4 and z in [0, 1],
and targets <= 1e-10 relative error on it, away from the zeros of 2F1.
Over 10,000 seeded draws (a, b in [-4, 4], c in [0.001, 4], z near 1 half
the time) the worst relative error against 40-digit mpmath is 2.8e-13;
500 more with c log-uniform in [1e-300, 1e-3] give 3.5e-13.  Near a zero
of 2F1 the error is small against 1, not against the value:
2F1(-4, 4; 4; 0.999) = (1 - z)^4 = 1e-12 comes out 1.9e-18 off.  The
potential needs only |a|, |b| <= 1 and c in {1, 2}; for z > 0.75 each
series it sums needs at most about 35 terms on those sets, however close
z is to 1.  Both potential shapes have c - a - b = 2 - alpha, which is
degenerate (an integer) at alpha = 1 and in the limits alpha -> 0, 2, and
the connection formula loses digits toward alpha = 1.  Worst relative error of
disk_potential against 40-digit mpmath, for r in [0.87, 1.15] (worst at
r near 1.15, where z is just above 0.75), over 40 to 100 seeded random
alphas on both sides of the band's centre:

    |alpha - 1| below 1e-3 (interpolation bridge)   1.0e-11
    |alpha - 1| in [1e-3, 3e-3]                     1.9e-11
    |alpha - 1| in [3e-3, 1e-2]                     1.6e-12
    |alpha - 1| in [1e-2, 3e-2]                     1.9e-13
    |alpha - 1| in [3e-2, 0.1]                      1.7e-14
    2 - alpha in [1e-5, 0.1]                        7.1e-13
    alpha in [1e-5, 0.1]                            1.5e-15

An accurate form of the degenerate neighbourhood is ROADMAP.md item 29.
disk_potential hands the
transformation 1 - z as (r - 1)(r + 1) / r^2 or (1 - r)(1 + r), free of
cancellation, which keeps it within about 5e-15 of mpmath at r = 1 - 1e-8
and r = 1 + 1e-8, where 1.0 - z would lose up to 4e-10.

Failure rule.  Outside its box hyp2f1 raises one DomainError, "hyp2f1:
needs |a|, |b| <= 4, 0 < c <= 4 and 0 <= z <= 1 (a=..., b=..., c=...,
z=...)", before any work.  That covers the parameters where no double
form here reaches the true value: 2F1(50, 3; 2; 0.999999) is 2.5e307, but
the transformation to 1 - z sums inf - inf there, and 2F1(1, 1; 200; 0.9)
is 1.0045, but Gamma(200) overflows in its prefactor.  It covers those
where a finite result has no correct digit too (|a|, |b| in the tens and
up).  Inside the box hyp2f1 reports a failed evaluation in one place,
itself: an ArithmeticError or ValueError (a Gamma value past double
range, say) and a result that is not finite all become one DomainError,
"hyp2f1: no finite double value (a=..., b=..., c=..., z=...)".  That
holds also where the true value is finite: 2F1(0.001, 0.001; 1e-310; 0.9)
is 2.3e304, but Gamma(1e-310) overflows in its prefactor.  A
ConvergenceError passes through as it is, and the argument checks raise
their own DomainErrors first.  The kernels below it raise nothing of their
own: a series returns a partial sum that is not finite as it is.
disk_potential calls the kernel directly; its parameters lie inside the
box, so no failure reaches it.

Series memo.  The term ratios (a+k)(b+k)/((c+k)(1+k)) of a series depend
only on its parameters (a, b, c), which every radius of a potential profile
at one exponent shares.  For the last 16 parameter sets summed, keyed by
(a, b, c), the module keeps the leading ratios, at most 256 per set, as an
immutable tuple; a new set evicts the oldest one (first in, first out).  A
series multiplies through the stored ratios and computes only those past
them, then replaces the entry with a longer tuple.  A hit and a miss do the
same floating-point operations in the same order, so they give the same
bits.  The memo's 256 ratios are also the series cap, stored ratios
counted like computed ones: a series that has not stopped by its 257th
term raises ConvergenceError, and inside hyp2f1's box none gets there (at
the box's corners, a, b = +-4 and z = 0.75, a series stops within 190
ratios; over the 10,000 draws above, within 160).  A series whose partial
sum has left the finite doubles returns it by its 257th term instead, and
so does a terminating series whose partial sum is exactly 0, such as
2F1(-1, 2; 1; 1/2).  The interpolation bridge sums 20 parameter sets per
call, more than the memo holds, so its series miss every time.
"""

from __future__ import annotations

import math
from collections import OrderedDict

from .errors import ConvergenceError, DomainError

__all__ = [
    "gamma",
    "hyp2f1",
    "disk_potential",
]

# Every series stops once its next term is below _TERM_TOL times the partial
# sum.  It sums at most _MEMO_RATIOS term ratios, remembered ones included,
# in each series of the z > 0.75 transformation too; hyp2f1's parameter box
# keeps every series below that cap (see the module docstring)
_TERM_TOL = 1e-16

# The series memo (see the module docstring): (a, b, c) -> the leading term
# ratios, oldest key first
_MEMO_KEYS = 16
_MEMO_RATIOS = 256
_ratios: OrderedDict[tuple[float, float, float], tuple[float, ...]] = OrderedDict()

# hyp2f1's parameter box: |a|, |b| <= _BOX and 0 < c <= _BOX
_BOX = 4.0


def gamma(x: float) -> float:
    """Euler Gamma function for real, finite x > 0.

    A thin wrapper over the standard library's math.gamma.  x <= 0, NaN,
    infinities and arguments whose Gamma overflows a double (x above about
    171.6, or below about 1e-308) raise DomainError.  The overflow is
    caught here rather than through errors.finite: the ledger calls gamma
    4,000 times, and a closure plus a call each would show in its time.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"gamma: argument must be positive and finite, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma: no finite value at {x}") from None


def _series(a: float, b: float, c: float, z: float) -> float:
    # plain power series with the term-ratio stopping rule; c may be any
    # real that is not a non-positive integer here (internal use).  The
    # term ratios come from the memo as far as it reaches, and those past
    # it are computed, up to _MEMO_RATIOS ratios in all, and stored; a hit
    # and a miss multiply the same ratios in the same order, so they give
    # the same bits.  At the cap a partial sum that is not finite is
    # returned as it is, for hyp2f1 to report, and so is one that a zero
    # term left at 0 (lim is 0 there, so no term passes the test)
    key = (a, b, c)
    known = _ratios.get(key, ())
    tol = _TERM_TOL
    s = term = 1.0
    lim = tol
    for ratio in known:
        term *= ratio * z
        if -lim < term < lim:
            return s
        s += term
        lim = tol * abs(s)
    # the bound is a float, as k is, for a fast comparison
    stop = float(_MEMO_RATIOS)
    k = float(len(known))
    fresh = []
    while k < stop:
        ratio = (a + k) * (b + k) / ((c + k) * (1.0 + k))
        fresh.append(ratio)
        term *= ratio * z
        if -lim < term < lim:
            break
        s += term
        lim = tol * abs(s)
        k += 1.0
    if fresh:
        # a stored tuple is never mutated, only replaced, and a replaced key
        # keeps its place; the oldest keys are evicted.  Each OrderedDict
        # call is atomic under the interpreter lock, so threads need no lock
        # of their own: a store that two threads race on holds either tuple,
        # and the memo is back to _MEMO_KEYS keys once every store has
        # returned
        _ratios[key] = known + tuple(fresh)
        while len(_ratios) > _MEMO_KEYS:
            _ratios.popitem(last=False)
    if k < stop or term == 0.0 or not math.isfinite(s):
        return s
    raise ConvergenceError(
        f"hyp2f1 series did not converge within {_MEMO_RATIOS} term ratios "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) on its parameter box.

    The box is |a|, |b| <= 4, 0 < c <= 4 and 0 <= z <= 1, inside which the
    value is within 1e-10 relative of the true one away from the zeros of
    2F1 (see the module docstring).  Every argument outside it, NaN and
    infinities included, raises one DomainError that names the box and a,
    b, c and z.  z = 0 gives exactly 1.0.  z = 1 requires c - a - b > 0 and
    is summed in closed form (Gauss).  For z <= 0.75 the power series in z
    is summed.  For z > 0.75 the linear transformation to 1 - z is used,
    whose two series converge geometrically with ratio below 1/4 however
    close z is to 1.  When c - a - b lies within 1e-3 of an integer, where
    that transformation degenerates, it is evaluated at ten shifted values
    of b and interpolated back (see _bridge).  Inside the box every series
    stops within 256 term ratios; one that does not raises
    ConvergenceError.  Every other failure raises the one DomainError
    "hyp2f1: no finite double value (a=..., b=..., c=..., z=...)": a
    partial sum, a Gamma value or product or a power of 1 - z that leaves
    the finite doubles, or terms that give inf - inf or inf / inf.  The
    true value may be finite.  The term ratios of the last 16 parameter
    sets summed are remembered (see the module docstring); a value is the
    same to the bit whether they were or not.
    """
    # one comparison chain rejects NaN and infinities too
    if not (-_BOX <= a <= _BOX and -_BOX <= b <= _BOX and 0.0 < c <= _BOX and 0.0 <= z <= 1.0):
        raise DomainError(
            "hyp2f1: needs |a|, |b| <= 4, 0 < c <= 4 and 0 <= z <= 1 "
            f"(a={a}, b={b}, c={c}, z={z})"
        )
    if z == 1.0 and not c - a - b > 0.0:
        raise DomainError("hyp2f1: z = 1 requires c - a - b > 0")
    if z == 0.0:
        # exact, where a series could overflow at its first ratio a b / c
        return 1.0
    # the one place a failed evaluation is reported: an overflow, a Gamma
    # value or product out of double range, or a sum that is not finite.
    # It is not errors.finite, whose message names one argument; this one
    # names a, b, c and z
    try:
        value = _hyp2f1(a, b, c, z, 1.0 - z)
    except (ArithmeticError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"hyp2f1: no finite double value (a={a}, b={b}, c={c}, z={z})")
    return value


def _hyp2f1(a: float, b: float, c: float, z: float, w: float) -> float:
    # hyp2f1 for checked arguments, with w = 1 - z passed in: a caller that
    # knows 1 - z without cancellation (disk_potential near r = 1) keeps
    # the transformation to 1 - z accurate
    if z == 1.0:
        return _gamma_ratio(c, c - a - b, c - a, c - b)
    if z <= 0.75:
        return _series(a, b, c, z)
    s = c - a - b
    eps = s - round(s)
    if abs(eps) < _BRIDGE_BELOW:
        return _bridge(a, b, c, w, eps)
    return _connection(a, b, c, w)


def _connection(a: float, b: float, c: float, w: float) -> float:
    # linear transformation to w = 1 - z (DLMF 15.8.4); both Gamma
    # prefactors have poles at integer c - a - b, where the two terms only
    # cancel analytically, and it loses about log10(1/|eps|) digits near them
    s = c - a - b
    t1 = _gamma_ratio(c, s, c - a, c - b) * _series(a, b, a + b - c + 1.0, w)
    t2 = _gamma_ratio(c, -s, a, b) * (w**s * _series(c - a, c - b, s + 1.0, w))
    return t1 + t2


def _gamma_ratio(p: float, q: float, u: float, v: float) -> float:
    # Gamma(p) Gamma(q) / (Gamma(u) Gamma(v)); 1/Gamma vanishes at its
    # poles, so a denominator at a non-positive integer makes the ratio 0.
    # A denominator that underflows to 0 raises ZeroDivisionError
    if u <= 0.0 and u == math.floor(u) or v <= 0.0 and v == math.floor(v):
        return 0.0
    return math.gamma(p) * math.gamma(q) / (math.gamma(u) * math.gamma(v))


# Below this distance of c - a - b from an integer the connection formula
# is not used directly.  Just past the distance it is accurate to about
# 2e-11 on the potential's parameter sets (see the module docstring).
_BRIDGE_BELOW = 1e-3
# Chebyshev points of the first kind on [-0.01, 0.01] and their barycentric
# weights.  The node nearest 0 is 0.0016 from it, beyond _BRIDGE_BELOW.
_BRIDGE_NODES = tuple(0.01 * math.cos((2 * k + 1) * math.pi / 20) for k in range(10))
_BRIDGE_WEIGHTS = tuple((-1) ** k * math.sin((2 * k + 1) * math.pi / 20) for k in range(10))


def _bridge(a: float, b: float, c: float, w: float, eps: float) -> float:
    # c - a - b = m + eps with |eps| < _BRIDGE_BELOW.  2F1 is entire in b,
    # so evaluate the connection formula at b + eps - tau, where
    # c - a - b sits tau from the integer m, for every node tau, and
    # interpolate the degree-9 polynomial through them at tau = eps
    b0 = b + eps
    num = den = 0.0
    for tau, weight in zip(_BRIDGE_NODES, _BRIDGE_WEIGHTS):
        q = weight / (eps - tau)
        num += q * _connection(a, b0 - tau, c, w)
        den += q
    return num / den


def disk_potential(r: float, alpha: float) -> float:
    """Interaction potential of the unit disk at distance r from its center.

    Evaluates integral_B |x - y|^(-alpha) dy for |x| = r >= 0, 0 < alpha < 2,
    through the two-branch hypergeometric closed form.  At r = 1 the outer
    branch is returned; both branches agree there.  1 - z is formed as a
    product with the factor r - 1 or 1 - r, so it keeps full relative
    accuracy next to r = 1.  Where r^alpha overflows a double, the value
    underflows toward 0 instead.
    """
    # inline rather than errors.check_alpha: the call per point would cost
    # a potential profile about 3%
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"disk_potential: alpha must lie in (0, 2), got {alpha}")
    if not r >= 0.0:
        raise DomainError(f"disk_potential: r must be nonnegative, got {r}")
    if r >= 1.0:
        r2 = r * r
        try:
            scale = math.pi / r**alpha
        except OverflowError:
            # r^alpha overflows a double; r^-alpha underflows to a finite
            # value.  This picks another formula and reports no error, so it
            # is not errors.finite
            scale = math.pi * r**-alpha
        return scale * _hyp2f1(
            alpha / 2.0, alpha / 2.0, 2.0, 1.0 / r2, (r - 1.0) * (r + 1.0) / r2
        )
    return (
        2.0
        * math.pi
        / (2.0 - alpha)
        * _hyp2f1((alpha - 2.0) / 2.0, alpha / 2.0, 1.0, r * r, (1.0 - r) * (1.0 + r))
    )

