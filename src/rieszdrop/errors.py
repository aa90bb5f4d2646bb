"""Exception types shared across the library, and the exponent-domain check."""


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
    message writes hi as given, so 2 reads "[0, 2)" and 2.0 reads "[0, 2.0)".
    """
    ok = (alpha > 0.0 if lo_open else alpha >= 0.0) and (alpha < hi if hi_open else alpha <= hi)
    if not ok:
        lo_b = "(" if lo_open else "["
        hi_b = ")" if hi_open else "]"
        raise DomainError(f"{what}: alpha must lie in {lo_b}0, {hi}{hi_b}, got {alpha}")
