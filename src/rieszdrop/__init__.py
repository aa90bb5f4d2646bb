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

# each layer module's __all__ is the one declaration of its public names,
# and the package re-exports them all, in layer order
from . import errors, specfun, splitting, thresholds, verify
from .errors import *
from .specfun import *
from .splitting import *
from .thresholds import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *specfun.__all__,
    *splitting.__all__,
    *thresholds.__all__,
    *verify.__all__,
]
