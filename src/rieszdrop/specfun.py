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

Accuracy notes.  gamma is the standard library's math.gamma (CPython's own
C code, about 1e-15 relative error against a 30-digit reference).  hyp2f1
targets <= 1e-10 relative error on the parameter sets used by the potential
(|a|, |b| <= 2, c in {1, 2, 3}).  For z > 0.75 each series it sums needs
at most about 35 terms on those sets, however close z is to 1.  Both
potential shapes have c - a - b = 2 - alpha, which is degenerate (an
integer) at alpha = 1 and in the limits alpha -> 0, 2.  Against 40-digit
mpmath, for r in [0.87, 1.15]: about 1e-13 relative error where 2 - alpha
is at least 1e-3 from an integer, and at most 1.1e-11 closer than that,
where the interpolation bridge takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

__all__ = [
    "SeriesConfig",
    "gamma",
    "hyp2f1",
    "disk_potential",
    "disk_potential_max_slope",
]


@dataclass(frozen=True)
class SeriesConfig:
    """Stopping rule for the hypergeometric power series.

    rel_term_tol: stop once the next term is below tol * |partial sum|.
    max_terms: hard cap on the number of terms of every series summed,
    including each series of the z > 0.75 transformation; reaching it
    raises ConvergenceError.
    """

    rel_term_tol: float = 1e-16
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        if not self.rel_term_tol > 0.0:
            raise DomainError("SeriesConfig: rel_term_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("SeriesConfig: max_terms must be at least 1")


_DEFAULT_SERIES = SeriesConfig()


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


def _series(a: float, b: float, c: float, z: float, tol: float, max_terms: int) -> float:
    # plain power series with the term-ratio stopping rule; c may be any
    # real that is not a non-positive integer here (internal use)
    s = 1.0
    term = 1.0
    k = 0
    while k < max_terms:
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        if abs(term) < tol * abs(s):
            return s
        s += term
        k += 1
    raise ConvergenceError(
        f"hyp2f1 series did not converge within {max_terms} terms "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


def hyp2f1(a: float, b: float, c: float, z: float, cfg: SeriesConfig | None = None) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) on z in [0, 1].

    z = 1 requires c - a - b > 0 and is summed in closed form (Gauss).
    For z <= 0.75 the power series in z is summed.  For z > 0.75 the
    linear transformation to 1 - z is used, whose two series converge
    geometrically with ratio below 1/4 however close z is to 1.  When
    c - a - b lies within 1e-3 of an integer, where that transformation
    degenerates, it is evaluated at ten shifted values of b and
    interpolated back (see _bridge).  cfg bounds every series summed.
    """
    if cfg is None:
        cfg = _DEFAULT_SERIES
    if not c > 0.0:
        raise DomainError(f"hyp2f1: c must be positive, got {c}")
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"hyp2f1: z must lie in [0, 1], got {z}")
    if z == 1.0:
        s = c - a - b
        if not s > 0.0:
            raise DomainError("hyp2f1: z = 1 requires c - a - b > 0")
        return gamma(c) * gamma(s) / (gamma(c - a) * gamma(c - b))
    if z <= 0.75:
        return _series(a, b, c, z, cfg.rel_term_tol, cfg.max_terms)
    s = c - a - b
    eps = s - round(s)
    if abs(eps) < _BRIDGE_BELOW:
        return _bridge(a, b, c, z, eps, cfg)
    return _connection(a, b, c, z, cfg)


def _connection(a: float, b: float, c: float, z: float, cfg: SeriesConfig) -> float:
    # linear transformation to w = 1 - z (DLMF 15.8.4); both Gamma
    # prefactors have poles at integer c - a - b, where the two terms only
    # cancel analytically, and it loses about log10(1/|eps|) digits near them
    s = c - a - b
    w = 1.0 - z
    t1 = _gamma_ratio(c, s, c - a, c - b)
    t1 *= _series(a, b, a + b - c + 1.0, w, cfg.rel_term_tol, cfg.max_terms)
    t2 = _gamma_ratio(c, -s, a, b)
    t2 *= w**s * _series(c - a, c - b, s + 1.0, w, cfg.rel_term_tol, cfg.max_terms)
    return t1 + t2


def _gamma_ratio(p: float, q: float, u: float, v: float) -> float:
    # Gamma(p) Gamma(q) / (Gamma(u) Gamma(v)); 1/Gamma vanishes at its
    # poles, so a denominator at a non-positive integer makes the ratio 0
    if u <= 0.0 and u == math.floor(u) or v <= 0.0 and v == math.floor(v):
        return 0.0
    return _gamma_real(p) * _gamma_real(q) / (_gamma_real(u) * _gamma_real(v))


# Below this distance of c - a - b from an integer the connection formula
# is not used directly.  At the distance itself it is accurate to about
# 1e-13 on the potential's parameter sets.
_BRIDGE_BELOW = 1e-3
# Chebyshev points of the first kind on [-0.01, 0.01] and their barycentric
# weights.  The node nearest 0 is 0.0016 from it, beyond _BRIDGE_BELOW.
_BRIDGE_NODES = tuple(0.01 * math.cos((2 * k + 1) * math.pi / 20) for k in range(10))
_BRIDGE_WEIGHTS = tuple((-1) ** k * math.sin((2 * k + 1) * math.pi / 20) for k in range(10))


def _bridge(a: float, b: float, c: float, z: float, eps: float, cfg: SeriesConfig) -> float:
    # c - a - b = m + eps with |eps| < _BRIDGE_BELOW.  2F1 is entire in b,
    # so evaluate the connection formula at b + eps - tau, where
    # c - a - b sits tau from the integer m, for every node tau, and
    # interpolate the degree-9 polynomial through them at tau = eps
    b0 = b + eps
    num = den = 0.0
    for tau, weight in zip(_BRIDGE_NODES, _BRIDGE_WEIGHTS):
        q = weight / (eps - tau)
        num += q * _connection(a, b0 - tau, c, z, cfg)
        den += q
    return num / den


def disk_potential(r: float, alpha: float, cfg: SeriesConfig | None = None) -> float:
    """Interaction potential of the unit disk at distance r from its center.

    Evaluates integral_B |x - y|^(-alpha) dy for |x| = r >= 0, 0 < alpha < 2,
    through the two-branch hypergeometric closed form.  At r = 1 the outer
    branch is returned; both branches agree there.
    """
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"disk_potential: alpha must lie in (0, 2), got {alpha}")
    if r < 0.0:
        raise DomainError(f"disk_potential: r must be nonnegative, got {r}")
    if r >= 1.0:
        return math.pi / r**alpha * hyp2f1(alpha / 2.0, alpha / 2.0, 2.0, 1.0 / (r * r), cfg)
    return (
        2.0
        * math.pi
        / (2.0 - alpha)
        * hyp2f1((alpha - 2.0) / 2.0, alpha / 2.0, 1.0, r * r, cfg)
    )


def disk_potential_max_slope(alpha: float) -> float:
    """Largest slope magnitude of the disk potential, attained at r = 1.

    Valid for 0 < alpha < 1, where the potential is C1:

        pi alpha (2 - alpha) Gamma(1 - alpha) / (2 Gamma(2 - alpha/2)^2).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(
            f"disk_potential_max_slope: alpha must lie in (0, 1), got {alpha}"
        )
    g = gamma(2.0 - alpha / 2.0)
    return math.pi * alpha * (2.0 - alpha) * gamma(1.0 - alpha) / (2.0 * g * g)
