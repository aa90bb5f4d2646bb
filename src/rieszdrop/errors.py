"""Exception types shared across the library, and its two domain rules.

check_alpha is the rule for an exponent argument: it raises DomainError
naming the function unless alpha lies in the function's interval.  finite
is the rule for a result: a public quantity that leaves double range (a
power that overflows, a value that reads inf or nan) raises one
DomainError naming the function, the quantity and the argument it left
range at.  A few places keep their own handling, each for a stated reason
in its own docstring or comment: specfun.gamma, specfun.hyp2f1,
specfun.disk_potential and splitting.envelope_rows.
"""

import math
from collections.abc import Callable

__all__ = ["DomainError", "ConvergenceError", "BracketError"]


class DomainError(ValueError):
    """An argument lies outside the validated parameter domain."""


class ConvergenceError(RuntimeError):
    """An iterative scheme exhausted its term or iteration budget."""


class BracketError(RuntimeError):
    """A root bracket with a sign change could not be established."""


def check_alpha(
    alpha: float, what: str, hi: float, lo_open: bool = False, hi_open: bool = False
) -> None:
    """Raise DomainError naming `what` unless alpha lies between 0 and hi.

    lo_open and hi_open exclude the endpoints; NaN is always rejected.  The
    message writes hi with :g, so 2 and 2.0 both read "[0, 2)".
    """
    ok = (alpha > 0.0 if lo_open else alpha >= 0.0) and (alpha < hi if hi_open else alpha <= hi)
    if not ok:
        lo_b = "(" if lo_open else "["
        hi_b = ")" if hi_open else "]"
        raise DomainError(f"{what}: alpha must lie in {lo_b}0, {hi:g}{hi_b}, got {alpha}")


def finite(compute: Callable[[], float], stage: str, what: str, name: str, x: float) -> float:
    """compute(), or DomainError where that result is out of double range.

    An ArithmeticError or ValueError from compute (a power that overflows,
    a DomainError of a helper) and a value that is not finite all raise
    "{stage}: the {what} is out of double range at {name} = {x}".
    """
    try:
        value = compute()
    except (ArithmeticError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"{stage}: the {what} is out of double range at {name} = {x}")
    return value
