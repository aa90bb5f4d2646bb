"""Mass thresholds: ball optimality, nonexistence, and their crossing.

Three mass scales organize the ground-state picture for exponents
0 < alpha <= 1/2:

  m_c1    mass at which one disk and two half-mass disks tie,
          m_c1 = pi * r_cn(1)^2, with the closed form
          pi ((sqrt(2)-1) Gamma(2-a/2) Gamma(3-a/2)
              / (pi (1 - 2^((a-2)/2)) Gamma(2-a)))^(2/(3-a));
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

All roots are found by plain bisection.  Every solver asserts the bracket
sign change at runtime, so the monotonicity the formulas rely on is checked
on every call, and results are bit-deterministic for identical inputs.

Everything above depends on alpha only through a handful of constants (V0,
pi^(2-a), C2, the slope lead of C3, r_cn(1), rho_c1 and the rho_0
coefficient).  A solve computes each of them once, in one _AlphaConstants
record, and its objective reads them from there on every bisection step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .errors import BracketError, ConvergenceError, DomainError
from .specfun import gamma
from .splitting import r_cn, rho_c1, v0_const

__all__ = [
    "RootSolveConfig",
    "ThresholdSample",
    "m_c1",
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
    "solve_alpha0",
    "threshold_sample",
]

_SQRT2 = math.sqrt(2.0)
_EXPANSIONS = 60  # geometric bracket growth budget (factor 2 each)


@dataclass(frozen=True)
class RootSolveConfig:
    """Bisection bracket and stopping rule."""

    bracket_lo: float
    bracket_hi: float
    rel_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not self.bracket_lo < self.bracket_hi:
            raise DomainError("RootSolveConfig: bracket_lo must be below bracket_hi")
        if not self.rel_tol > 0.0:
            raise DomainError("RootSolveConfig: rel_tol must be positive")
        if self.max_iter < 1:
            raise DomainError("RootSolveConfig: max_iter must be at least 1")


@dataclass(frozen=True)
class ThresholdSample:
    """All four threshold masses at one exponent."""

    alpha: float
    m_c1: float
    m_2: float
    m_eps0: float
    m_eps1: float


def _bisect(f: Callable[[float], float], cfg: RootSolveConfig, expand_hi: bool = True) -> float:
    """Bisection on [bracket_lo, bracket_hi], growing hi geometrically.

    The sign change is asserted before iterating, so a violated
    monotonicity assumption surfaces as BracketError rather than a silent
    wrong root.
    """
    lo, hi = cfg.bracket_lo, cfg.bracket_hi
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if expand_hi:
        grown = 0
        while fhi * flo > 0.0 and grown < _EXPANSIONS:
            hi *= 2.0
            fhi = f(hi)
            grown += 1
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo) = {flo}, f(hi) = {fhi}"
        )
    for _ in range(cfg.max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= cfg.rel_tol * max(abs(lo), abs(hi)):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fm * flo > 0.0:
            lo, flo = mid, fm
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection did not reach rel_tol {cfg.rel_tol} in {cfg.max_iter} iterations"
    )


def _check_alpha(alpha: float, lo_open: bool, hi: float, hi_open: bool, what: str) -> None:
    ok = (alpha > 0.0 if lo_open else alpha >= 0.0) and (
        alpha < hi if hi_open else alpha <= hi
    )
    if not ok:
        lo_b = "(" if lo_open else "["
        hi_b = ")" if hi_open else "]"
        raise DomainError(f"{what}: alpha must lie in {lo_b}0, {hi}{hi_b}, got {alpha}")


def m_c1(alpha: float) -> float:
    """Mass where one disk ties with two half-mass disks (closed form)."""
    _check_alpha(alpha, False, 2.0, True, "m_c1")
    num = (_SQRT2 - 1.0) * gamma(2.0 - alpha / 2.0) * gamma(3.0 - alpha / 2.0)
    den = math.pi * (1.0 - 2.0 ** ((alpha - 2.0) / 2.0)) * gamma(2.0 - alpha)
    return math.pi * (num / den) ** (2.0 / (3.0 - alpha))


_EPS_BRACKET = (1e-6, 4.0)


class _AlphaConstants:
    """The per-exponent constants of one alpha, with the objectives that read them.

    Each constant is computed on first use and then kept, through gamma,
    v0_const, r_cn and rho_c1, so a solve pays for its Gamma products once
    rather than once per bisection step.  The methods are the only written
    form of C0, C1, C3, F1, F2 and rho_0; the public functions of the same
    names wrap them, so both give the same bits.  Arguments are not checked
    here, except that the two constants with a narrower alpha domain (the C3
    slope lead and the rho_0 coefficient) check theirs on first use.
    """

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha

    @cached_property
    def v0(self) -> float:
        return v0_const(self.alpha)

    @cached_property
    def pi_2ma(self) -> float:
        return math.pi ** (2.0 - self.alpha)

    @cached_property
    def pi_1ma(self) -> float:
        return math.pi ** (1.0 - self.alpha)

    @cached_property
    def c2(self) -> float:
        return 2.0 * math.pi / (2.0 - self.alpha)

    @cached_property
    def c3_lead(self) -> float:
        # pi^2 a (2-a) Gamma(1-a) / (2 Gamma(2-a/2)^2)
        alpha = self.alpha
        _check_alpha(alpha, True, 1.0, True, "c3")
        g = gamma(2.0 - alpha / 2.0)
        return math.pi**2 * alpha * (2.0 - alpha) * gamma(1.0 - alpha) / (2.0 * g * g)

    @cached_property
    def r_c1(self) -> float:
        return r_cn(1, self.alpha)

    @cached_property
    def rho_c1(self) -> float:
        return rho_c1(self.alpha)

    @cached_property
    def rho0_coeff(self) -> float:
        # 2^a pi^(1-a) / rho_c1^a
        alpha = self.alpha
        _check_alpha(alpha, False, 0.5, False, "rho0")
        return 2.0**alpha * self.pi_1ma / self.rho_c1**alpha

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

    def f1(self, eps: float) -> float:
        d0 = self.c0(eps)
        d3 = self.c3(d0)
        return eps * d3 * (eps * d3 * d0 * (d0 + 2.0) + 2.0) - 1.0

    def f2(self, eps: float) -> float:
        d0 = self.c0(eps)
        return 1.0 / (1.0 + d0) + 2.0 * eps * (self.c1(d0) - self.c2)

    def rho0(self, r: float) -> float:
        return 2.0 / r + self.rho0_coeff * r ** (2.0 - 2.0 * self.alpha)

    def solve_r0(self, cfg: RootSolveConfig | None = None) -> float:
        if cfg is None:
            rc = self.r_c1
            cfg = RootSolveConfig(bracket_lo=rc, bracket_hi=4.0 * rc)
        level = self.rho_c1
        return _bisect(lambda r: self.rho0(r) - level, cfg)

    def solve_m2(self, cfg: RootSolveConfig | None = None) -> float:
        r0 = self.solve_r0(cfg)
        return math.pi * r0 * r0

    def solve_eps0(self, cfg: RootSolveConfig | None = None) -> float:
        if cfg is None:
            cfg = RootSolveConfig(*_EPS_BRACKET)
        return _bisect(self.f2, cfg)

    def solve_eps1(self, cfg: RootSolveConfig | None = None) -> float:
        if cfg is None:
            cfg = RootSolveConfig(*_EPS_BRACKET)
        return _bisect(self.f1, cfg)


def rho0(r: float, alpha: float) -> float:
    """Comparison density 2/r + (2^a pi^(1-a) / rho_c1^a) r^(2-2a), a <= 1/2."""
    if not r > 0.0:
        raise DomainError(f"rho0: r must be positive, got {r}")
    return _AlphaConstants(alpha).rho0(r)


def solve_r0(alpha: float, cfg: RootSolveConfig | None = None) -> float:
    """Unique scale R_0 >= r_cn(1) where rho0 climbs back to rho_c1."""
    _check_alpha(alpha, True, 0.5, False, "solve_r0")
    return _AlphaConstants(alpha).solve_r0(cfg)


def solve_m2(alpha: float, cfg: RootSolveConfig | None = None) -> float:
    """Nonexistence threshold mass pi R_0^2."""
    _check_alpha(alpha, True, 0.5, False, "solve_m2")
    return _AlphaConstants(alpha).solve_m2(cfg)


def _with_eps(alpha: float, eps: float) -> _AlphaConstants:
    # the argument checks shared by C0 and everything built on it
    _check_alpha(alpha, True, 2.0, True, "c0")
    if not eps > 0.0:
        raise DomainError(f"c0: eps must be positive, got {eps}")
    return _AlphaConstants(alpha)


def c0(alpha: float, eps: float) -> float:
    """Perturbation amplitude constant C0(alpha, eps)."""
    return _with_eps(alpha, eps).c0(eps)


def c1(alpha: float, eps: float) -> float:
    """Inner-interaction lower constant pi^(1-a) / (1 + C0)^a."""
    k = _with_eps(alpha, eps)
    return k.c1(k.c0(eps))


def c2(alpha: float) -> float:
    """Outer-interaction upper constant 2 pi / (2 - alpha)."""
    _check_alpha(alpha, False, 2.0, True, "c2")
    return _AlphaConstants(alpha).c2


def delta_bound(d: float) -> float:
    """Boundary-displacement cap sqrt(pi d (d + 2)) for amplitude d >= 0."""
    if d < 0.0:
        raise DomainError(f"delta_bound: d must be nonnegative, got {d}")
    return math.sqrt(math.pi * d * (d + 2.0))


def c3(alpha: float, eps: float) -> float:
    """Slope constant C3 = pi^2 a (2-a) Gamma(1-a) / (2 Gamma(2-a/2)^2)
    times (1 + (2/3) sqrt(pi C0 (C0 + 2)))."""
    k = _with_eps(alpha, eps)
    return k.c3(k.c0(eps))


def f1(alpha: float, eps: float) -> float:
    """Rigidity objective eps C3 (eps C3 C0 (C0+2) + 2) - 1; increasing in eps."""
    return _with_eps(alpha, eps).f1(eps)


def f2(alpha: float, eps: float) -> float:
    """Convexity objective 1/(1 + C0) + 2 eps (C1 - C2); decreasing from 1."""
    return _with_eps(alpha, eps).f2(eps)


def m_of_eps(eps: float, alpha: float) -> float:
    """Mass corresponding to the scale parameter: m = pi eps^(2/(3-a))."""
    _check_alpha(alpha, False, 2.0, True, "m_of_eps")
    if not eps > 0.0:
        raise DomainError(f"m_of_eps: eps must be positive, got {eps}")
    return math.pi * eps ** (2.0 / (3.0 - alpha))


def solve_eps0(alpha: float, cfg: RootSolveConfig | None = None) -> float:
    """Root of the convexity objective f2; masses above it are non-disk-like."""
    _check_alpha(alpha, True, 2.0, True, "solve_eps0")
    return _AlphaConstants(alpha).solve_eps0(cfg)


def solve_eps1(alpha: float, cfg: RootSolveConfig | None = None) -> float:
    """Root of the rigidity objective f1."""
    _check_alpha(alpha, True, 1.0, True, "solve_eps1")
    return _AlphaConstants(alpha).solve_eps1(cfg)


_ALPHA0_BRACKET = (0.01, 0.10)


def solve_alpha0(cfg: RootSolveConfig | None = None) -> float:
    """Exponent where min(m(eps_0), m(eps_1)) crosses m_2.

    Outer bisection on [0.01, 0.10]; the three inner solves run at their
    default tolerances, which keeps the nesting stable (the outer objective
    is evaluated to ~1e-12 relative).
    """
    if cfg is None:
        cfg = RootSolveConfig(*_ALPHA0_BRACKET)

    def crossing_gap(alpha: float) -> float:
        s = threshold_sample(alpha)
        return min(s.m_eps0, s.m_eps1) - s.m_2

    return _bisect(crossing_gap, cfg, expand_hi=False)


def threshold_sample(alpha: float) -> ThresholdSample:
    """All four threshold masses at one exponent (0 < alpha <= 1/2)."""
    _check_alpha(alpha, True, 0.5, False, "threshold_sample")
    k = _AlphaConstants(alpha)
    return ThresholdSample(
        alpha=alpha,
        m_c1=m_c1(alpha),
        m_2=k.solve_m2(),
        m_eps0=m_of_eps(k.solve_eps0(), alpha),
        m_eps1=m_of_eps(k.solve_eps1(), alpha),
    )
