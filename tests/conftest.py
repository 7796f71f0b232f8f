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
    counted exactly through ``planner.newton_solve``."""
    evals = 0
    newton_solve = planner.newton_solve

    def counted(f, x0, **kw):
        def residual(x):
            nonlocal evals
            evals += 1
            return f(x)
        return newton_solve(residual, x0, **kw)

    monkeypatch.setattr(planner, "newton_solve", counted)

    def count(call) -> int:
        nonlocal evals
        evals = 0
        call()
        return evals

    return count
