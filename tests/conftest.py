import importlib.util
from pathlib import Path

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


@pytest.fixture(scope="session")
def bench_draws() -> dict:
    """The 24 seed-0 draws of ``bench/fuzz.py``, the fuzz workload's: each
    economy's config text by name."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("fuzz", root / "bench" / "fuzz.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    return dict(fuzz.draw_economies(root / "configs", 0, 24))


@pytest.fixture(scope="session")
def unsolved_end_economy() -> str:
    """Config text of a drawn threshold-preset economy (bench/fuzz.py, seed
    0, draw 3) with no interior steady state: holding AI does not pay, so
    its capital presolve's stocks sit at the AI corner, which the presolve
    proves as AI falls below 1e-8, and its z_c sweep on [0.5, 4] solves
    only its five lowest points."""
    return """
agents.cognitive.pi = 0.2634941473047342
agents.cognitive.z = 2.1189470642771253
agents.manual.pi = 0.7365058526952658
agents.manual.z = 0.9332713238591842
prefs.beta = 0.9612987124356377
prefs.u_form = log
prefs.psi = 1.0464365270901592
prefs.phi = 1.7635783210801643
tech.form = nest_substitute_cognitive
tech.a = 1.6599408640913729
tech.mu_top = 0.66291676851545
tech.lambda_c = 0.5350028138117313
tech.theta_m = 0.5492774744749123
tech.sigma_top = -0.27393777750633513
tech.rho_c = -1.7459713904322316
tech.rho_m = -0.7945238661158907
tech.a_ai = 0.09860172744622586
tech.delta_k = 0.06254718621890895
tech.delta_ai = 0.11671470511186588
"""


@pytest.fixture
def count_evals(monkeypatch):
    """``count_evals(call)``: the residual evaluations ``call()`` makes,
    counted exactly through ``planner.newton_solve``.

    Every evaluation is one call on one point.  ``count_evals.iterations``
    holds the sum of the last ``call()``'s solves' Newton iterations.
    """
    evals = iterations = 0
    newton_solve = planner.newton_solve

    def counted(f, x0, **kw):
        nonlocal iterations

        def residual(x):
            nonlocal evals
            evals += 1
            return f(x)
        result = newton_solve(residual, x0, **kw)
        iterations += result.iterations
        return result

    monkeypatch.setattr(planner, "newton_solve", counted)

    def count(call) -> int:
        nonlocal evals, iterations
        evals = iterations = 0
        call()
        count.iterations = iterations
        return evals

    return count
