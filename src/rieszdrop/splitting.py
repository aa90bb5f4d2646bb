"""Energy of n equal disks and the lower envelope over n.

A configuration of n far-apart unit-density disks of total radius-scale R
(each disk has radius R / sqrt(n)) carries, per unit area, the normalized
energy density

    rho_n(R) = n E(R / sqrt(n)) / (pi R^2) = rho_1(R / sqrt(n)),

where E(r) = 2 pi r + V0 r^(4 - alpha) is the single-disk energy and

    V0(alpha) = 2 pi^2 Gamma(2 - alpha) / (Gamma(2 - alpha/2) Gamma(3 - alpha/2))

is the self-interaction constant of the unit disk.  Consecutive densities
rho_n and rho_(n+1) cross exactly once, at

    r_cn(n) = ( 2 pi (sqrt(n+1) - sqrt(n))
              / (V0 (n^(alpha/2 - 1) - (n+1)^(alpha/2 - 1))) )^(1/(3 - alpha)),

so the pointwise lower envelope rho_min(R) = min_n rho_n(R) is attained by
n on the segment (r_cn(n-1), r_cn(n)], with ties going to the smaller n.
alpha = 0 is an admitted limiting parameter; every closed form here is
finite there.

Every density here is evaluated in the one form

    rho_n(R) = 2 sqrt(n) / R + V0 n^((alpha - 2)/2) R^(2 - alpha) / pi,

with its two coefficients written once, in _coeffs.  It forms neither R^2
nor R^(4 - alpha), so it is accurate at every R from the subnormal ones up
to where the density itself leaves double range.

The three Gamma values in V0, V0 itself, r_cn(1) and rho_c1 are computed
in one place, a DiskConstants record per exponent; every function here
reads V0 from one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .errors import DomainError, check_alpha
from .specfun import gamma

__all__ = [
    "v0_const",
    "rho_n",
    "r_cn",
    "rho_c1",
    "rho_min",
    "envelope_rows",
]

_N_MAX = 2**53  # from here on n + 1 is not exact in a double


def _check_n(n: int, what: str) -> int:
    if not 1 <= n < _N_MAX or n != int(n):
        raise DomainError(f"{what}: n must be an integer in [1, 2**53), got {n}")
    return int(n)


class DiskConstants:
    """The disk constants of one exponent alpha in [0, 2), each computed once.

    Gamma(2 - alpha), Gamma(2 - alpha/2), Gamma(3 - alpha/2) (g2a, g2ah,
    g3ah), V0, r_c1 = r_cn(1, alpha), rho_c1 = rho_1(r_c1) and the mass
    m_c1 = pi r_c1^2 are set on construction.  The record is the only
    place these are computed: the functions of this module read V0 from
    one, thresholds.m_c1 reads m_c1, and thresholds.AlphaConstants extends
    it with the threshold constants.  It is slotted plain data; alpha is
    not checked here.
    """

    __slots__ = ("alpha", "g2a", "g2ah", "g3ah", "v0", "r_c1", "rho_c1", "m_c1")

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.g2a = g2a = gamma(2.0 - alpha)
        self.g2ah = g2ah = gamma(2.0 - alpha / 2.0)
        self.g3ah = g3ah = gamma(3.0 - alpha / 2.0)
        self.v0 = v0 = 2.0 * math.pi**2 * g2a / (g2ah * g3ah)
        self.r_c1 = r_c1 = _r_cn(1, alpha, v0)
        self.rho_c1 = _rho_n(1, r_c1, alpha, v0)
        self.m_c1 = math.pi * r_c1 * r_c1


def v0_const(alpha: float) -> float:
    """Self-interaction energy of the unit disk under the |x-y|^(-alpha) kernel."""
    check_alpha(alpha, "v0_const", 2, hi_open=True)
    return DiskConstants(alpha).v0


def rho_n(n: int, r: float, alpha: float) -> float:
    """Energy per unit area of n equal disks at total radius-scale r.

    Accurate at every r, subnormal ones included.  An r where the density
    leaves double range raises DomainError.
    """
    n = _check_n(n, "rho_n")
    check_alpha(alpha, "rho_n", 2, hi_open=True)
    if not 0.0 < r < math.inf:
        raise DomainError(f"rho_n: r must lie in (0, inf), got {r}")
    try:
        return _rho_n(n, r, alpha, DiskConstants(alpha).v0)
    except OverflowError:  # r^(2 - alpha), or the density itself
        raise DomainError(f"rho_n: the density is out of double range at r = {r}") from None


def _coeffs(n: int, alpha: float, v0: float) -> tuple[float, float]:
    # the one written form of the density: (2 sqrt(n), V0 n^((alpha-2)/2))
    # for a given v0 = v0_const(alpha), so that rho_n(r) is
    # a / r + b r^(2 - alpha) / pi; _rho_n and envelope_rows both build
    # their densities from it, in that order
    return 2.0 * math.sqrt(n), v0 * float(n) ** ((alpha - 2.0) / 2.0)


def _rho_n(n: int, r: float, alpha: float, v0: float) -> float:
    # rho_n for checked arguments and a given v0 = v0_const(alpha), through
    # _coeffs; a value past double range raises OverflowError, as
    # r^(2 - alpha) does
    a, b = _coeffs(n, alpha, v0)
    value = a / r + b * r ** (2.0 - alpha) / math.pi
    if value == math.inf:
        raise OverflowError
    return value


def r_cn(n: int, alpha: float) -> float:
    """Crossover scale where n disks and n+1 disks have equal density.

    Both differences in the defining ratio cancel catastrophically for
    large n, so they are evaluated as 1/(sqrt(n+1)+sqrt(n)) and through
    expm1/log1p respectively.
    """
    n = _check_n(n, "r_cn")
    check_alpha(alpha, "r_cn", 2, hi_open=True)
    return _r_cn(n, alpha, DiskConstants(alpha).v0)


def _r_cn(n: int, alpha: float, v0: float) -> float:
    # r_cn for checked arguments and a given v0 = v0_const(alpha)
    num = 2.0 * math.pi / (math.sqrt(n + 1.0) + math.sqrt(n))
    den = (
        -v0
        * float(n) ** (alpha / 2.0 - 1.0)
        * math.expm1((alpha / 2.0 - 1.0) * math.log1p(1.0 / n))
    )
    return (num / den) ** (1.0 / (3.0 - alpha))


def rho_c1(alpha: float) -> float:
    """Density at the first crossover, rho_1(r_cn(1)); the flat-envelope level."""
    check_alpha(alpha, "rho_c1", 2, hi_open=True)
    return DiskConstants(alpha).rho_c1


def rho_min(r: float, alpha: float) -> tuple[float, int]:
    """Lower envelope min_n rho_n(r) together with the minimizing n.

    The n is the one with r_cn(n - 1) < r <= r_cn(n), found from the large-n
    form r_cn(n) ~ C sqrt(n) plus a few steps.  Every n below 2**53 can be
    reached, which is every r up to r_cn(2**53 - 1), about 6.4e7 at alpha
    0.1; past it, and where the density leaves double range, as rho_n does,
    it raises DomainError.
    """
    check_alpha(alpha, "rho_min", 1.0)
    if not 0.0 < r < math.inf:
        raise DomainError(f"rho_min: r must lie in (0, inf), got {r}")
    v0 = DiskConstants(alpha).v0
    n, _ = _envelope_n(r, alpha, v0, _sqrt_n_slope(alpha, v0), 1, "rho_min")
    try:
        return _rho_n(n, r, alpha, v0), n
    except OverflowError:
        raise DomainError(f"rho_min: the density is out of double range at r = {r}") from None


def _sqrt_n_slope(alpha: float, v0: float) -> float:
    # C with r_cn(n) ~ C sqrt(n) for large n: to first order in 1/n the
    # ratio in r_cn is pi n^(-1/2) / (V0 (1 - alpha/2) n^(alpha/2 - 2))
    return (2.0 * math.pi / (v0 * (2.0 - alpha))) ** (1.0 / (3.0 - alpha))


def _envelope_n(
    r: float, alpha: float, v0: float, c: float, n_start: int, stage: str
) -> tuple[int, float]:
    # The n >= n_start with r_cn(n - 1) < r <= r_cn(n), for an r above
    # r_cn(n_start - 1), together with r_cn(n).  It starts from
    # floor((r / c)^2), c = _sqrt_n_slope, steps down while r <= r_cn(n - 1)
    # and otherwise up while r > r_cn(n).  A caller walking sorted radii
    # keeps the returned r_cn(n) and searches again, from n + 1, only for a
    # radius above it, which makes a whole table cost at most one r_cn call
    # per segment passed.  r_cn is not monotone in doubles near n = 2**53,
    # so there the n is a local bracket, not the smallest; an n that would
    # reach 2**53 (see _check_n) raises DomainError naming stage.
    guess = (r / c) * (r / c)  # inf above r of about 1e154
    n = max(n_start, int(guess)) if guess < _N_MAX else _N_MAX
    bound = None
    while n > n_start and r <= (below := _r_cn(n - 1, alpha, v0)):
        n, bound = n - 1, below
    if bound is None:
        while n < _N_MAX and r > (bound := _r_cn(n, alpha, v0)):
            n += 1
        if n == _N_MAX:
            raise DomainError(f"{stage}: the minimizing n is not below 2**53 at r = {r!r}")
    return n, bound


def envelope_rows(
    alpha: float, radii: Iterable[float]
) -> Iterator[tuple[float, float, float, float, float, int]]:
    """Yield (r, rho_1, rho_2, rho_3, rho_min, n_opt) for nondecreasing radii r.

    The rows equal rho_n and rho_min at every radius.  One v0 serves the
    whole table.  The walk keeps the current n's crossover r_cn(n) and
    searches for the next n, from n + 1, only at a radius past it, so the
    table costs at most one r_cn evaluation per segment passed and none per
    row.
    Each row's four densities are computed in one pass that shares
    r^(2 - alpha).  A radius that is not positive and finite, past
    r_cn(2**53 - 1) (as for rho_min), or where a density leaves double
    range, raises DomainError naming it.
    """
    check_alpha(alpha, "envelope_rows", 1.0)
    k = DiskConstants(alpha)
    v0 = k.v0
    c = _sqrt_n_slope(alpha, v0)
    pi, power = math.pi, 2.0 - alpha

    (a1, b1), (a2, b2), (a3, b3) = (_coeffs(m, alpha, v0) for m in (1, 2, 3))
    n, bound, an, bn = 1, k.r_c1, a1, b1
    prev = 0.0
    for r in radii:
        if not 0.0 < r < math.inf:
            raise DomainError(f"envelope_rows: r must lie in (0, inf), got {r}")
        if r < prev:
            raise DomainError(f"envelope_rows: radii must be nondecreasing, got {r} after {prev}")
        prev = r
        if r > bound:
            n, bound = _envelope_n(r, alpha, v0, c, n + 1, "envelope_rows")
            an, bn = _coeffs(n, alpha, v0)
        # r lies below r_cn(2**53 - 1) here, so r^(2 - alpha) is finite and
        # only the 1/r terms can overflow
        rp = r**power
        rho1 = a1 / r + b1 * rp / pi
        rho2 = a2 / r + b2 * rp / pi
        rho3 = a3 / r + b3 * rp / pi
        rho = an / r + bn * rp / pi
        if math.inf in (rho1, rho2, rho3, rho):
            raise DomainError(f"envelope_rows: the density is out of double range at r = {r}")
        yield r, rho1, rho2, rho3, rho, n
