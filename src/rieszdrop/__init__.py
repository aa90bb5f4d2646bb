"""Threshold computations for the planar perimeter-plus-Riesz droplet energy.

A set F in the plane with area m pays its perimeter plus the repulsive
self-energy of the kernel |x - y|^(-alpha), 0 < alpha < 2.  Small droplets
stay round, large ones shatter.  This package computes the quantitative
boundary between those regimes in pure double precision arithmetic:

* closed-form disk quantities (specfun, splitting): the disk potential,
  the per-mass energy density of n-disk configurations, and the critical
  radii where n and n+1 disks tie;
* threshold masses (thresholds): the largest mass m_c1 where one disk is
  optimal among disk splittings, the nonexistence threshold m_2, and the
  convexity and rigidity masses m(eps_0), m(eps_1) above which minimizers
  cannot be single near-disks;
* the crossing exponent alpha0 where the constructive upper regime meets
  m_2, near 0.0427 (solve_alpha0);
* a machine check (verify.run_ledger) of the eighteen closed-form
  inequalities behind those orderings, on a fine exponent grid.

Everything runs on the standard library; numerics are deterministic
bit-for-bit across runs.  The command line tool is `rieszdrop`.
"""

from .errors import BracketError, ConvergenceError, DomainError
from .specfun import disk_potential, gamma, hyp2f1
from .splitting import (
    envelope_rows,
    r_cn,
    rho_c1,
    rho_min,
    rho_n,
    v0_const,
)
from .thresholds import (
    c0,
    c1,
    c2,
    c3,
    delta_bound,
    disk_potential_max_slope,
    f1,
    f2,
    m_at_crossing,
    m_c1,
    m_of_eps,
    rho0,
    solve_alpha0,
    solve_eps0,
    solve_eps1,
    solve_m2,
    solve_r0,
    walk,
)
from .verify import f3, run_ledger

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "ConvergenceError",
    "DomainError",
    "__version__",
    "c0",
    "c1",
    "c2",
    "c3",
    "delta_bound",
    "disk_potential",
    "disk_potential_max_slope",
    "envelope_rows",
    "f1",
    "f2",
    "f3",
    "gamma",
    "hyp2f1",
    "m_at_crossing",
    "m_c1",
    "m_of_eps",
    "r_cn",
    "rho0",
    "rho_c1",
    "rho_min",
    "rho_n",
    "run_ledger",
    "solve_alpha0",
    "solve_eps0",
    "solve_eps1",
    "solve_m2",
    "solve_r0",
    "v0_const",
    "walk",
]
