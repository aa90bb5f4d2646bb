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
targets <= 1e-10 relative error on the parameter sets used by the potential
(|a|, |b| <= 2, c in {1, 2, 3}).  For z > 0.75 each series it sums needs
at most about 35 terms on those sets, however close z is to 1.  Both
potential shapes have c - a - b = 2 - alpha, which is degenerate (an
integer) at alpha = 1 and in the limits alpha -> 0, 2, and the connection
formula loses digits toward alpha = 1.  Worst relative error of
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
and r = 1 + 1e-8, where 1.0 - z would lose up to 4e-10.  Where hyp2f1
computes no finite double it raises DomainError naming a, b, c and z,
also where the true value is finite: 2F1(50, 3; 2; 0.999999) is 2.5e307,
but the transformation to 1 - z sums inf - inf there.

Series memo.  The term ratios (a+k)(b+k)/((c+k)(1+k)) of a series depend
only on its parameters (a, b, c), which every radius of a potential profile
at one exponent shares.  For the last 16 parameter sets summed, keyed by
(a, b, c), the module keeps the leading ratios, at most 256 per set, as an
immutable tuple; a new set evicts the oldest one (first in, first out).  A
series multiplies through the stored ratios and computes only those past
them, then replaces the entry with a longer tuple.  A hit and a miss do the
same floating-point operations in the same order, so they give the same
bits, and the term cap counts stored terms like computed ones.  A series
whose partial sum leaves the finite doubles raises DomainError when it
stops or by its 257th term, rather than summing on to the cap; a
terminating series whose partial sum is exactly 0, such as
2F1(-1, 2; 1; 1/2), returns it by its 257th term in the same way.  The
interpolation bridge sums 20 parameter sets per call, more than the memo
holds, so its series miss every time.
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
# sum, and raises ConvergenceError after _MAX_TERMS terms, remembered ones
# included, in each series of the z > 0.75 transformation too.
_TERM_TOL = 1e-16
_MAX_TERMS = 1_000_000

# The series memo (see the module docstring): (a, b, c) -> the leading term
# ratios, oldest key first
_MEMO_KEYS = 16
_MEMO_RATIOS = 256
_ratios: OrderedDict[tuple[float, float, float], tuple[float, ...]] = OrderedDict()


def gamma(x: float) -> float:
    """Euler Gamma function for real, finite x > 0.

    A thin wrapper over the standard library's math.gamma.  x <= 0, NaN,
    infinities and arguments whose Gamma overflows a double (x above about
    171.6, or below about 1e-308) raise DomainError.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"gamma: argument must be positive and finite, got {x}")
    return _gamma_real(x)


def _gamma_real(x: float) -> float:
    # math.gamma on any real argument, negative non-integers included, as
    # the connection-formula prefactors need; poles and overflow become
    # DomainError
    try:
        return math.gamma(x)
    except (ValueError, OverflowError):
        raise DomainError(f"gamma: no finite value at {x}") from None


def _series(a: float, b: float, c: float, z: float) -> float:
    # plain power series with the term-ratio stopping rule; c may be any
    # real that is not a non-positive integer here (internal use).  The
    # term ratios come from the memo as far as it reaches; a hit and a miss
    # multiply the same ratios in the same order, so they give the same bits
    known = _ratios.get((a, b, c), ())
    if len(known) > _MAX_TERMS:
        known = known[:_MAX_TERMS]
    tol = _TERM_TOL
    s = term = 1.0
    lim = tol
    for ratio in known:
        term *= ratio * z
        if -lim < term < lim:
            break
        s += term
        lim = tol * abs(s)
    else:
        s = _series_past(a, b, c, z, known, s, term, lim)
    if not math.isfinite(s):
        raise _overflow(a, b, c, z)
    return s


def _series_past(
    a: float, b: float, c: float, z: float, known: tuple, s: float, term: float, lim: float
) -> float:
    # the terms of _series past its known ratios, given the partial sum s,
    # the last term and lim = _TERM_TOL * |s|.  The ratios up to
    # _MEMO_RATIOS go to the memo; past them each term also checks that s
    # is finite.  The bounds are floats, as k is, for a fast comparison
    tol, max_terms = _TERM_TOL, float(_MAX_TERMS)
    stop = min(max_terms, float(_MEMO_RATIOS))
    k = float(len(known))
    fresh = []
    while k < stop:
        ratio = (a + k) * (b + k) / ((c + k) * (1.0 + k))
        fresh.append(ratio)
        term *= ratio * z
        if -lim < term < lim:
            _remember((a, b, c), known + tuple(fresh))
            return s
        s += term
        lim = tol * abs(s)
        k += 1.0
    if fresh:
        _remember((a, b, c), known + tuple(fresh))
    while k < max_terms:
        if not math.isfinite(s):
            raise _overflow(a, b, c, z)
        if term == 0.0:
            # a zero term was summed only where lim is 0 (s at or next to
            # 0); every later term is 0 too, so the sum is final
            return s
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        if -lim < term < lim:
            return s
        s += term
        lim = tol * abs(s)
        k += 1.0
    raise ConvergenceError(
        f"hyp2f1 series did not converge within {_MAX_TERMS} terms "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


def _remember(key: tuple, ratios: tuple) -> None:
    # a stored tuple is never mutated, only replaced, and a replaced key
    # keeps its place; the oldest keys are evicted.  Each OrderedDict call
    # is atomic under the interpreter lock, so threads need no lock of
    # their own: a store that two threads race on holds either tuple, and
    # the memo is back to _MEMO_KEYS keys once every store has returned
    _ratios[key] = ratios
    while len(_ratios) > _MEMO_KEYS:
        _ratios.popitem(last=False)


def _overflow(a: float, b: float, c: float, z: float) -> DomainError:
    return DomainError(
        f"hyp2f1 series: the partial sum left the finite doubles (a={a}, b={b}, c={c}, z={z})"
    )


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) on z in [0, 1].

    a, b, c and c - a - b must be finite (a DomainError names a, b, c and
    z otherwise) and c positive.  z = 0 gives exactly 1.0.  z = 1 requires
    c - a - b > 0 and is summed in closed form (Gauss).  For z <= 0.75 the
    power series in z is summed.  For z > 0.75 the linear transformation to
    1 - z is used, whose two series converge geometrically with ratio below
    1/4 however close z is to 1.  When c - a - b lies within 1e-3 of an
    integer, where that transformation degenerates, it is evaluated at ten
    shifted values of b and interpolated back (see _bridge).  A series that
    has not converged after 1,000,000 terms, remembered ones included,
    raises ConvergenceError.  Where no finite double is computed (a partial
    sum, a Gamma prefactor or a power of 1 - z overflows, or the terms
    give inf - inf or inf / inf) a DomainError names a, b, c and z; the
    true value may be finite.  The term ratios of the last 16 parameter
    sets summed are remembered (see the module docstring); a value is the
    same to the bit whether they were or not.
    """
    # c - a - b is finite only if a, b and c are, and the transformation
    # to 1 - z rounds it
    if not math.isfinite(c - a - b):
        raise DomainError(
            f"hyp2f1: a, b, c and c - a - b must be finite (a={a}, b={b}, c={c}, z={z})"
        )
    if not c > 0.0:
        raise DomainError(f"hyp2f1: c must be positive, got {c}")
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"hyp2f1: z must lie in [0, 1], got {z}")
    if z == 0.0:
        # exact, where a series could overflow at its first ratio a b / c
        return 1.0
    try:
        value = _hyp2f1(a, b, c, z, 1.0 - z)
    except OverflowError:
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"hyp2f1: no finite double value (a={a}, b={b}, c={c}, z={z})")
    return value


def _hyp2f1(a: float, b: float, c: float, z: float, w: float) -> float:
    # hyp2f1 for checked arguments, with w = 1 - z passed in: a caller that
    # knows 1 - z without cancellation (disk_potential near r = 1) keeps
    # the transformation to 1 - z accurate
    if z == 1.0:
        s = c - a - b
        if not s > 0.0:
            raise DomainError("hyp2f1: z = 1 requires c - a - b > 0")
        return _gamma_ratio(c, s, c - a, c - b)
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
    # poles, so a denominator at a non-positive integer makes the ratio 0
    if u <= 0.0 and u == math.floor(u) or v <= 0.0 and v == math.floor(v):
        return 0.0
    return _gamma_real(p) * _gamma_real(q) / (_gamma_real(u) * _gamma_real(v))


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
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"disk_potential: alpha must lie in (0, 2), got {alpha}")
    if not r >= 0.0:
        raise DomainError(f"disk_potential: r must be nonnegative, got {r}")
    if r >= 1.0:
        r2 = r * r
        try:
            scale = math.pi / r**alpha
        except OverflowError:
            # r^alpha overflows a double; r^-alpha underflows to a finite value
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

