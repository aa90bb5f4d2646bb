"""Fixtures shared by the work-count tests."""

import pytest

from rieszdrop.thresholds import AlphaConstants


@pytest.fixture
def evals(monkeypatch):
    """The number of calls of the objectives the root solves evaluate.

    Wraps AlphaConstants.f1, f2 and rho0; a known C0 or C3 passed to f1 or
    f2 is forwarded.
    """
    count = [0]

    def counting(fn):
        def wrapper(self, x, *known):
            count[0] += 1
            return fn(self, x, *known)

        return wrapper

    for name in ("f1", "f2", "rho0"):
        monkeypatch.setattr(AlphaConstants, name, counting(getattr(AlphaConstants, name)))
    return count
