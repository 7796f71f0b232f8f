import numpy as np
import pytest

from aitax import (
    planner,
    regime_a_economy,
    regime_b_economy,
    solve_steady_state,
    symmetric_economy,
)


@pytest.fixture(scope="session")
def symmetric_solution():
    return solve_steady_state(symmetric_economy())


@pytest.fixture(scope="session")
def regime_a_solution():
    return solve_steady_state(regime_a_economy())


@pytest.fixture(scope="session")
def regime_b_solution():
    return solve_steady_state(regime_b_economy())


@pytest.fixture
def count_evals(monkeypatch):
    """``count_evals(call)``: the residual evaluations ``call()`` makes,
    counted exactly through ``planner.newton_solve``.

    An evaluation is one point: a call on a stack of G points counts G.
    ``count_evals.calls`` holds the residual calls the last ``call()`` made.
    """
    evals = calls = 0
    newton_solve = planner.newton_solve

    def counted(f, x0, **kw):
        def residual(x):
            nonlocal evals, calls
            evals += len(x) if np.ndim(x) > 1 else 1
            calls += 1
            return f(x)
        return newton_solve(residual, x0, **kw)

    monkeypatch.setattr(planner, "newton_solve", counted)

    def count(call) -> int:
        nonlocal evals, calls
        evals = calls = 0
        call()
        count.calls = calls
        return evals

    return count
