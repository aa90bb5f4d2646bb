"""Machine check of the inequality ledger behind the threshold ordering.

The quantitative argument rests on eighteen closed-form inequalities that
must hold for every exponent alpha in (0, alpha_max] (default 0.034), at
the fixed probes eps = 0.846 and R = 0.945.  run_ledger sweeps a uniform
alpha grid, records the attained extreme of each quantity together with
where it occurred, and compares against the claimed bound.  A failed check
is a reported result, not an exception.  The grid is one thresholds.walk,
which warm-starts each root solve from a prediction by its roots at the
previous points; the first failed solve is raised.  Each point gives one
tuple of the eighteen values in _CHECK_TABLE order, which is the only
place a row is named; the running extremes are kept by row position as the
walk streams, so no point is stored.  C0, C1 and C3 at the eps probe are
computed once per point and passed to F1 and F2.

This is a floating-point grid check, not certified interval arithmetic;
the attained margins (smallest around 8e-5) sit far above double-precision
evaluation error (~1e-13), which is what makes the grid verdict meaningful.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .splitting import rho_c1
from .thresholds import AlphaConstants, rho0, walk

__all__ = ["f3", "run_ledger"]


def f3(alpha: float, r: float) -> float:
    """Clearance rho0(r) - rho_c1 of the comparison density over the envelope level.

    The value is the f3 of one constants record, so each Gamma value is
    computed once.  The domain is rho0's, and arguments outside it, or an r
    where the density leaves double range, raise rho0's DomainError.
    """
    if 0.0 < r < math.inf and 0.0 <= alpha <= 0.5:
        try:
            value = AlphaConstants(alpha).f3(r)
        except OverflowError:  # r^(2 - 2a)
            value = math.inf
        if math.isfinite(value):
            return value
    # rho0 raises its DomainError for these arguments
    return rho0(r, alpha) - rho_c1(alpha)


# (name, claim, lo, hi, strict): lo <= value <= hi on each given
# side, with < in place of <= where strict; run_ledger builds the values in
# this order
_CHECK_TABLE: tuple[tuple[str, str, float | None, float | None, bool], ...] = (
    ("gamma_2_minus_alpha", "0.986 <= gamma(2 - alpha) <= 1", 0.986, 1.0, False),
    ("gamma_2_minus_half_alpha", "0.992 <= gamma(2 - alpha/2) <= 1", 0.992, 1.0, False),
    ("gamma_3_minus_half_alpha", "1.968 <= gamma(3 - alpha/2) <= 2", 1.968, 2.0, False),
    ("gamma_1_minus_alpha", "1 <= gamma(1 - alpha) <= 1.021", 1.0, 1.021, False),
    ("m_c1_window", "2.007 <= m_c1 <= 2.087", 2.007, 2.087, False),
    ("c0_cap", "c0(alpha, 0.846) <= 0.121", None, 0.121, False),
    ("c3_cap", "c3(alpha, 0.846) <= 0.557", None, 0.557, False),
    ("f1_negative", "f1(alpha, 0.846) < 0", None, 0.0, True),
    ("c1_floor", "c1(alpha, 0.846) >= 3.009", 3.009, None, False),
    ("c2_cap", "c2(alpha) <= 3.196", None, 3.196, False),
    ("f2_floor", "f2(alpha, 0.846) >= 0.575", 0.575, None, False),
    ("r_c1_window", "0.799 <= r_cn(1, alpha) <= 0.815", 0.799, 0.815, False),
    ("rho_c1_cap", "rho_c1(alpha) <= 4.656", None, 4.656, False),
    ("rho0_probe_floor", "rho0(0.945, alpha) >= 4.677", 4.677, None, False),
    ("f3_floor", "f3(alpha, 0.945) >= 0.021", 0.021, None, False),
    ("m_2_cap", "m_2(alpha) < 2.806", None, 2.806, True),
    ("m_eps0_floor", "m(eps_0(alpha)) > 2.806", 2.806, None, True),
    ("m_eps1_floor", "m(eps_1(alpha)) > 2.806", 2.806, None, True),
)


# the paper's probes: every bound in _CHECK_TABLE is fitted to them
_EPS_PROBE = 0.846
_R_PROBE = 0.945


def run_ledger(alpha_max: float = 0.034, grid: int = 1000) -> dict:
    """Check every ledger inequality on alpha = alpha_max * i / grid, i = 1..grid.

    The probes are the paper's eps = 0.846 and R = 0.945, fixed because
    each claimed bound is a constant fitted to them; at these probes every
    row is finite for alpha_max in (0, 0.5].  alpha_max must lie in
    (0, 0.5], the domain of the comparison density rho0 that every grid
    point evaluates; anything else raises DomainError naming alpha_max
    before any point is computed, as does a grid that is not an integer of
    at least 2.  The first solver error of the walk propagates; an
    inequality that merely fails is reported with "pass" false and the
    violating extreme.  Returns the dict described by ledger_report in
    schemas/output.schema.json, which the command line writes as is.
    """
    if not 0.0 < alpha_max <= 0.5:
        raise DomainError(f"run_ledger: alpha_max must lie in (0, 0.5], got {alpha_max}")
    if not (isinstance(grid, int) and grid >= 2):
        raise DomainError(f"run_ledger: grid must be an integer of at least 2, got {grid!r}")

    # the running extremes of each row, by its position in _CHECK_TABLE,
    # and the first alpha that reaches each
    rows = len(_CHECK_TABLE)
    min_val, max_val = [math.inf] * rows, [-math.inf] * rows
    min_at, max_at = [0.0] * rows, [0.0] * rows

    alphas = (alpha_max * i / grid for i in range(1, grid + 1))
    for k, _, masses, failures in walk(alphas, "run_ledger"):
        if failures:
            raise failures[0]
        # one constants record per grid point serves every row, the Gamma
        # rows included, and the walk's three root solves
        rho0_probe = k.rho0(_R_PROBE)
        d0 = k.c0(_EPS_PROBE)
        d1 = k.c1(d0)
        d3 = k.c3(d0)
        values = (
            k.g2a, k.g2ah, k.g3ah, k.g1a, k.m_c1,
            d0, d3, k.f1(_EPS_PROBE, d0, d3), d1, k.c2, k.f2(_EPS_PROBE, d0, d1),
            k.r_c1, k.rho_c1, rho0_probe, rho0_probe - k.rho_c1, *masses,
        )
        alpha = k.alpha
        for i, value in enumerate(values):
            if value < min_val[i]:
                min_val[i], min_at[i] = value, alpha
            if value > max_val[i]:
                max_val[i], max_at[i] = value, alpha

    checks = []
    for i, (name, claim, lo, hi, strict) in enumerate(_CHECK_TABLE):
        # (margin, attained, bound, worst_alpha) per given side; the
        # smaller margin is reported, lo on a tie (min keeps the first)
        sides = []
        if lo is not None:
            sides.append((min_val[i] - lo, min_val[i], lo, min_at[i]))
        if hi is not None:
            sides.append((hi - max_val[i], max_val[i], hi, max_at[i]))
        margin, attained, bound, worst = min(sides, key=lambda side: side[0])
        checks.append(
            {
                "name": name,
                "claim": claim,
                "attained": attained,
                "bound": bound,
                "margin": margin,
                "pass": margin > 0.0 if strict else margin >= 0.0,
                "worst_alpha": worst,
            }
        )

    return {
        "passed": all(c["pass"] for c in checks),
        "grid_points": grid,
        "alpha_max": alpha_max,
        "eps_probe": _EPS_PROBE,
        "r_probe": _R_PROBE,
        "checks": checks,
    }
