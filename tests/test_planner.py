import dataclasses
import importlib.util
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from aitax import (
    AgentKind,
    Regime,
    SolveMode,
    cobb_douglas_economy,
    first_best,
    foc_residuals,
    planner,
    production,
    regime_a_economy,
    regime_b_economy,
    solve_finite_horizon,
    solve_steady_state,
    symmetric_economy,
    threshold_economy,
)
from aitax.configio import load_config, parse_config
from aitax.economy import TechForm, UtilityForm
from aitax.errors import (
    ConfigError,
    DomainError,
    NoInteriorSolutionError,
    NoRegimeFoundError,
    SolverError,
)
from aitax.planner import TOL_ICC, violated_side
from aitax.preferences import nu_eval, u_eval
from aitax.production import evaluate
from aitax.reporting import dumps, solution_payload
from aitax.wedges import compute_wedge_report
from incentives import icc_slack


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def max_residual(residuals):
    return max(float(np.max(np.abs(np.atleast_1d(v)))) for v in residuals.values())


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

def test_symmetric_steady_state(symmetric_solution):
    s = symmetric_solution
    a = s.allocation
    assert s.regime is Regime.NONE_BIND
    assert s.multipliers.mu_c == 0.0 and s.multipliers.mu_m == 0.0
    assert float(a.c_c[0]) == pytest.approx(float(a.c_m[0]), abs=1e-12)
    assert float(a.l_c[0]) == pytest.approx(float(a.l_m[0]), abs=1e-12)
    # technology is fully symmetric, so the two stocks coincide as well
    assert float(a.k[0]) == pytest.approx(float(a.ai[0]), abs=1e-10)
    assert float(s.wages_c[0]) == pytest.approx(float(s.wages_m[0]), abs=1e-12)
    assert s.foc_residual <= 1e-10


def test_first_best_of_skewed_economy_violates_cognitive_icc():
    fb = first_best(regime_a_economy())
    assert fb.slack_c < 0.0
    assert fb.slack_m > 0.0


@pytest.mark.parametrize("preset", [symmetric_economy, regime_a_economy, regime_b_economy,
                                    threshold_economy, cobb_douglas_economy])
@pytest.mark.parametrize("z_c", [0.7, 2.0])
def test_first_best_earnings_gap_decides_the_violated_constraint(preset, z_c):
    """At a first best consumption is equal across types, so both slacks
    vanish exactly at equal earnings, and the sign of w_c l_c - w_m l_m says
    which constraint is violated (the side ``violated_side`` reports)."""
    base = preset()
    fb = first_best(dataclasses.replace(base, cognitive=dataclasses.replace(base.cognitive, z=z_c)))
    a = fb.allocation
    assert float(a.c_c[0]) == pytest.approx(float(a.c_m[0]), rel=1e-12)
    gap = float(fb.wages_c[0] * a.l_c[0] - fb.wages_m[0] * a.l_m[0])
    if base.tech.form is TechForm.COBB_DOUGLAS:
        # fixed, equal labor shares and equal populations: equal earnings at any z_c
        assert gap == pytest.approx(0.0, abs=1e-12)
    if abs(gap) <= 1e-12:
        assert abs(fb.slack_c) <= 1e-12 and abs(fb.slack_m) <= 1e-12
    elif gap > 0.0:
        assert fb.slack_c < 0.0 < fb.slack_m
        assert violated_side(fb) is AgentKind.COGNITIVE
    else:
        assert fb.slack_m < 0.0 < fb.slack_c
        assert violated_side(fb) is AgentKind.MANUAL


def test_regime_a_structure(regime_a_solution):
    s = regime_a_solution
    assert s.regime is Regime.COGNITIVE_BINDS
    assert s.multipliers.mu_c > 0.0
    assert s.multipliers.mu_m == 0.0
    assert abs(s.slack_c) <= TOL_ICC
    assert s.slack_m > 0.0
    # binding cognitive constraint twists returns: the planner holds extra K
    # (X^K < 0 raises the required return) and starves AI (X^AI > 0)
    assert float(s.multipliers.x_k[0]) < 0.0
    assert float(s.multipliers.x_ai[0]) > 0.0
    tech, a = s.config.tech, s.allocation
    ev = evaluate(tech, a.eff_l_c[0], a.eff_l_m[0], a.k[0], a.ai[0])
    assert ev.y + (1.0 - tech.delta_k) * a.k[0] + (1.0 - tech.delta_ai) * a.ai[0] > 0.0
    assert s.foc_residual <= 1e-10


def test_regime_b_structure(regime_b_solution):
    s = regime_b_solution
    assert s.regime is Regime.MANUAL_BINDS
    assert s.multipliers.mu_m > 0.0
    assert s.multipliers.mu_c == 0.0
    assert abs(s.slack_m) <= TOL_ICC
    assert s.slack_c > 0.0
    assert float(s.multipliers.x_k[0]) > 0.0
    assert float(s.multipliers.x_ai[0]) < 0.0


def test_slacks_match_independent_icc_evaluation(regime_a_solution):
    s = regime_a_solution
    for kind, expected in ((AgentKind.COGNITIVE, s.slack_c), (AgentKind.MANUAL, s.slack_m)):
        ev = icc_slack(s.config.prefs, s.allocation, s.wages_c, s.wages_m, kind)
        assert ev.slack == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_objective_matches_lifetime_utilities(regime_b_solution):
    s = regime_b_solution
    prefs = s.config.prefs
    a = s.allocation
    flow = 0.0
    for agent, c, l in (
        (s.config.cognitive, a.c_c[0], a.l_c[0]),
        (s.config.manual, a.c_m[0], a.l_m[0]),
    ):
        flow += agent.pi * (float(u_eval(prefs, c)) - float(nu_eval(prefs, l)))
    assert s.objective == pytest.approx(flow / (1.0 - prefs.beta), rel=1e-12)


def test_determinism_bit_identical():
    a = solve_steady_state(regime_a_economy())
    b = solve_steady_state(regime_a_economy())
    assert float(a.allocation.c_c[0]) == float(b.allocation.c_c[0])
    assert float(a.allocation.k[0]) == float(b.allocation.k[0])
    assert a.multipliers.mu_c == b.multipliers.mu_c
    assert a.objective == b.objective


def test_warm_start_agrees_with_cold():
    cfg = regime_a_economy()
    cold = solve_steady_state(cfg)
    nearby = dataclasses.replace(cfg, tech=dataclasses.replace(cfg.tech, a_ai=0.11))
    warm = solve_steady_state(nearby, warm=cold)
    cold2 = solve_steady_state(nearby)
    assert float(warm.allocation.c_c[0]) == pytest.approx(
        float(cold2.allocation.c_c[0]), abs=1e-7)
    assert warm.regime == cold2.regime


def unbounded_economy():
    """A substitute nest whose AI-only return exceeds the discount rate: no
    interior steady state, and the capital presolve's log stocks run off
    upward."""
    cfg = threshold_economy()
    tech = dataclasses.replace(
        cfg.tech, form=TechForm.NEST_SUBSTITUTE_COGNITIVE,
        sigma_top=0.5, mu_top=0.5, rho_c=-1.0, a_ai=2.0,
    )
    return dataclasses.replace(cfg, tech=tech)


def test_unbounded_technology_raises():
    """The solver must refuse rather than fabricate an interior steady state."""
    with pytest.raises(SolverError):
        solve_steady_state(unbounded_economy())


def test_invalid_config_rejected():
    cfg = symmetric_economy()
    bad = dataclasses.replace(cfg, prefs=dataclasses.replace(cfg.prefs, beta=1.5))
    with pytest.raises(ConfigError):
        solve_steady_state(bad)


def test_a_warm_start_in_one_regime_still_validates_the_config(regime_a_solution):
    """A warm start with one binding constraint is solved in that regime
    without a first best, whose solve validates the config elsewhere, so
    this path validates it itself.  Shares summing to 1 + 1e-6 leave the
    warm regime solvable and admissible: only the check refuses them."""
    cfg = regime_a_economy()
    cognitive = dataclasses.replace(cfg.cognitive, pi=cfg.cognitive.pi + 1e-6)
    bad = dataclasses.replace(cfg, cognitive=cognitive)
    assert regime_a_solution.regime is Regime.COGNITIVE_BINDS
    with pytest.raises(ConfigError, match="population shares must sum to 1"):
        solve_steady_state(bad, warm=regime_a_solution)


@pytest.mark.parametrize("a_ai, why", [(10.0, "did not converge from 1 start"),
                                        (0.2, "converged but inadmissible (mu=(-")],
                         ids=["newton_fails", "inadmissible"])
def test_a_warm_start_on_the_wrong_side_falls_back_to_the_ladder(a_ai, why):
    """Warm from the cognitive solution at a_AI = 0.1, a manual-side
    economy gets its predicted regime tried first, from that start alone.
    At a_AI = 10 Newton does not converge there; at 0.2 it converges with
    mu_c < 0.  Either way the first best and the ladder give the cold
    solve's regime."""
    cfg = threshold_economy()
    lo = solve_steady_state(dataclasses.replace(cfg, tech=dataclasses.replace(cfg.tech, a_ai=0.1)))
    hi = dataclasses.replace(cfg, tech=dataclasses.replace(cfg.tech, a_ai=a_ai))
    assert lo.regime is Regime.COGNITIVE_BINDS
    layout = planner._Layout((AgentKind.COGNITIVE,))
    try:
        start = layout.start(planner._steady_point(lo))
        why_not = planner._rejection(planner._newton(hi, layout, [start]), layout.active)
    except SolverError as exc:
        why_not = str(exc)
    assert why in why_not
    warm, cold = solve_steady_state(hi, warm=lo), solve_steady_state(hi)
    assert warm.regime is cold.regime is Regime.MANUAL_BINDS
    assert warm.first_best is not None  # the fallback solved the first best
    assert warm.foc_residual <= 1e-10


def test_a_warm_start_binding_both_constraints_predicts_no_regime(monkeypatch):
    """Only a warm point in one binding regime predicts it.  One that binds
    both starts the first best and every rung, the both-bind rung too, from
    itself first: here every rung is rejected, so the ladder runs out."""
    cfg = regime_a_economy()
    point = planner._steady_point(solve_steady_state(cfg))[:8] + (0.01,)
    assert point[7] > TOL_ICC and point[8] > TOL_ICC
    starts = []
    newton_solve = planner.newton_solve

    def recorded(f, x0, **kw):
        starts.append(x0.tobytes())
        return newton_solve(f, x0, **kw)

    monkeypatch.setattr(planner, "newton_solve", recorded)
    monkeypatch.setattr(planner, "_rejection", lambda att, active: "rejected")
    with pytest.raises(NoRegimeFoundError, match="^rejected; rejected; rejected; rejected$"):
        planner._steady_attempt(cfg, point)
    for active in ((), (AgentKind.COGNITIVE,), (AgentKind.MANUAL,),
                   (AgentKind.COGNITIVE, AgentKind.MANUAL)):
        assert planner._Layout(active).start(point).tobytes() in starts, active


def test_a_path_solution_given_as_warm_is_ignored(count_evals):
    """No steady state repeats a path: warm from the regime_a_t20 path, a
    steady solve makes the cold solve's residual calls and gives its
    payload, byte for byte."""
    config, _ = load_config(CONFIGS / "regime_a_t20.cfg")
    path = solve_finite_horizon(config)
    steady = dataclasses.replace(config, mode=SolveMode.STEADY_STATE, horizon=None)
    assert not path.stationary and path.regime is not Regime.NONE_BIND
    got = []
    evals = [count_evals(lambda: got.append(solve_steady_state(steady, **kw)))
             for kw in ({"warm": path}, {})]
    assert evals[0] == evals[1]
    warm, cold = (dumps(solution_payload(s, compute_wedge_report(s))) for s in got)
    assert warm == cold


# ---------------------------------------------------------------------------
# finite horizon
# ---------------------------------------------------------------------------

def finite_config(T, k0=None, ai0=None):
    cfg = regime_a_economy()
    ss = solve_steady_state(cfg)
    k_ss = float(ss.allocation.k[0])
    ai_ss = float(ss.allocation.ai[0])
    return dataclasses.replace(
        cfg, mode=SolveMode.FINITE_HORIZON, horizon=T,
        k0=k0 if k0 is not None else k_ss,
        ai0=ai0 if ai0 is not None else ai_ss,
    ), ss


def test_finite_horizon_from_steady_state_is_constant():
    cfg, ss = finite_config(8)
    path = solve_finite_horizon(cfg)
    a = path.allocation
    for arr, ref in (
        (a.c_c, ss.allocation.c_c[0]), (a.c_m, ss.allocation.c_m[0]),
        (a.l_c, ss.allocation.l_c[0]), (a.l_m, ss.allocation.l_m[0]),
        (a.k, ss.allocation.k[0]), (a.ai, ss.allocation.ai[0]),
    ):
        assert float(np.max(np.abs(arr - float(ref)))) <= 1e-8
    assert path.regime == ss.regime


def test_finite_horizon_transition_monotone():
    cfg, ss = finite_config(12)
    cfg = dataclasses.replace(cfg, k0=cfg.k0 / 2, ai0=cfg.ai0 / 2)
    path = solve_finite_horizon(cfg)
    k = path.allocation.k
    assert k[0] == pytest.approx(cfg.k0)
    assert np.all(np.diff(k) >= -1e-9)  # accumulation toward the steady state
    assert k[-1] == pytest.approx(float(ss.allocation.k[0]), rel=1e-6)
    assert path.foc_residual <= 1e-9


def test_finite_horizon_config_checks():
    cfg = regime_a_economy()
    with pytest.raises(ConfigError):
        solve_finite_horizon(cfg)  # steady-state mode
    bad = dataclasses.replace(cfg, mode=SolveMode.FINITE_HORIZON, horizon=5, k0=0.0, ai0=1.0)
    with pytest.raises(ConfigError):
        solve_finite_horizon(bad)


# ---------------------------------------------------------------------------
# the KKT residual map is the gradient of the Lagrangian (finite differences)
# ---------------------------------------------------------------------------

def lagrangian(config, alloc, mults):
    """Value of the T-period Lagrangian at an arbitrary candidate.

    Written independently from the solver's residual assembly: utilities and
    technology are evaluated directly, the incentive terms recompute the
    mimicking labor from period wages.  Multipliers are held fixed, so the
    gradient with respect to allocation entries must reproduce the named
    residual rows up to the documented beta**t normalization.
    """
    prefs, tech = config.prefs, config.tech
    pi_c, pi_m = config.cognitive.pi, config.manual.pi
    n = alloc.n_periods
    disc = prefs.beta ** np.arange(n)

    u_cc = u_eval(prefs, alloc.c_c)
    u_cm = u_eval(prefs, alloc.c_m)
    nu_lc = nu_eval(prefs, alloc.l_c)
    nu_lm = nu_eval(prefs, alloc.l_m)
    flows = pi_c * (u_cc - nu_lc) + pi_m * (u_cm - nu_lm)

    k_now, ai_now = alloc.k[:n], alloc.ai[:n]
    ev = evaluate(tech, alloc.eff_l_c, alloc.eff_l_m, k_now, ai_now)
    wealth = ev.y + (1.0 - tech.delta_k) * k_now + (1.0 - tech.delta_ai) * ai_now
    resource = (wealth - pi_c * alloc.c_c - pi_m * alloc.c_m
                - alloc.k[1:] - alloc.ai[1:] - config.g)

    w_c, w_m = ev.f_lc * config.cognitive.z, ev.f_lm * config.manual.z
    lt_c = alloc.l_m * w_m / w_c
    lt_m = alloc.l_c * w_c / w_m
    slack_c = (u_cc - nu_lc) - (u_cm - nu_eval(prefs, lt_c))
    slack_m = (u_cm - nu_lm) - (u_cc - nu_eval(prefs, lt_m))

    return float(
        np.dot(disc, flows + mults.lam * resource)
        + mults.mu_c * np.dot(disc, slack_c)
        + mults.mu_m * np.dot(disc, slack_m)
    )


def perturbed_candidate(seed=7):
    cfg, _ = finite_config(3)
    cfg = dataclasses.replace(cfg, k0=cfg.k0 * 0.9, ai0=cfg.ai0 * 1.1)
    path = solve_finite_horizon(cfg)
    rng = np.random.default_rng(seed)
    noise = lambda arr: arr * (1.0 + 1e-3 * rng.standard_normal(len(arr)))

    a = path.allocation
    n = a.n_periods
    k = a.k.copy()
    ai = a.ai.copy()
    k[1:n] = noise(k[1:n])  # endpoints stay pinned
    ai[1:n] = noise(ai[1:n])
    l_c, l_m = noise(a.l_c), noise(a.l_m)
    z_c, z_m = cfg.cognitive.z, cfg.manual.z
    alloc = dataclasses.replace(
        a, c_c=noise(a.c_c), c_m=noise(a.c_m), l_c=l_c, l_m=l_m,
        eff_l_c=cfg.cognitive.pi * z_c * l_c, eff_l_m=cfg.manual.pi * z_m * l_m,
        k=k, ai=ai,
    )
    mults = dataclasses.replace(
        path.multipliers, lam=noise(path.multipliers.lam),
        mu_c=path.multipliers.mu_c * 1.002, mu_m=path.multipliers.mu_m,
    )
    return cfg, alloc, mults


def fd_gradient(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_residual_rows_are_lagrangian_gradients():
    cfg, alloc, mults = perturbed_candidate()
    rows = foc_residuals(cfg, alloc, mults)
    n = alloc.n_periods
    disc = cfg.prefs.beta ** np.arange(n)
    pi_c, pi_m = cfg.cognitive.pi, cfg.manual.pi
    z_c, z_m = cfg.cognitive.z, cfg.manual.z

    def replace_field(field, arr, eff=None):
        extra = {}
        if eff is not None:
            extra[eff[0]] = eff[1]
        return dataclasses.replace(alloc, **{field: arr}, **extra)

    def check(row, got, expected):
        assert got == pytest.approx(expected, rel=1e-4, abs=1e-6), row

    for t in range(n):
        h = 1e-6 * float(alloc.c_c[t])

        def l_of_cc(v, t=t):
            arr = alloc.c_c.copy(); arr[t] = v
            return lagrangian(cfg, replace_field("c_c", arr), mults)

        check("c_c", float(rows["c_c"][t]),
              fd_gradient(l_of_cc, float(alloc.c_c[t]), h) / disc[t])

        def l_of_lc(v, t=t):
            arr = alloc.l_c.copy(); arr[t] = v
            return lagrangian(
                cfg, replace_field("l_c", arr, eff=("eff_l_c", pi_c * z_c * arr)), mults)

        h = 1e-6 * float(alloc.l_c[t])
        check("l_c", float(rows["l_c"][t]),
              fd_gradient(l_of_lc, float(alloc.l_c[t]), h) / disc[t])

        def l_of_lm(v, t=t):
            arr = alloc.l_m.copy(); arr[t] = v
            return lagrangian(
                cfg, replace_field("l_m", arr, eff=("eff_l_m", pi_m * z_m * arr)), mults)

        h = 1e-6 * float(alloc.l_m[t])
        check("l_m", float(rows["l_m"][t]),
              fd_gradient(l_of_lm, float(alloc.l_m[t]), h) / disc[t])

        def l_of_lam(v, t=t):
            m = dataclasses.replace(mults, lam=np.where(np.arange(n) == t, v, mults.lam))
            return lagrangian(cfg, alloc, m)

        h = 1e-6 * float(mults.lam[t])
        check("feasibility", float(rows["feasibility"][t]),
              fd_gradient(l_of_lam, float(mults.lam[t]), h) / disc[t])

    # interior stocks K_1 .. K_{n-1}: row t times lam_{t+1} is -dL/dK_{t+1} / beta**t
    for t in range(n - 1):
        s = t + 1

        def l_of_k(v, s=s):
            arr = alloc.k.copy(); arr[s] = v
            return lagrangian(cfg, replace_field("k", arr), mults)

        h = 1e-6 * float(alloc.k[s])
        check("k", float(rows["k"][t] * mults.lam[s]),
              -fd_gradient(l_of_k, float(alloc.k[s]), h) / disc[t])

        def l_of_ai(v, s=s):
            arr = alloc.ai.copy(); arr[s] = v
            return lagrangian(cfg, replace_field("ai", arr), mults)

        h = 1e-6 * float(alloc.ai[s])
        check("ai", float(rows["ai"][t] * mults.lam[s]),
              -fd_gradient(l_of_ai, float(alloc.ai[s]), h) / disc[t])


def test_complementary_slackness_rows_match_icc(regime_a_solution):
    s = regime_a_solution
    rows = foc_residuals(s.config, s.allocation, s.multipliers)
    beta = s.config.prefs.beta
    ev = icc_slack(s.config.prefs, s.allocation, s.wages_c, s.wages_m, AgentKind.COGNITIVE)
    # both vanish at the optimum: the row holds the flow slack, ev.slack the lifetime one
    assert rows["comp_slack_c"] == pytest.approx(s.multipliers.mu_c * ev.slack, abs=1e-10)
    assert rows["comp_slack_m"] == 0.0
    assert beta < 1.0


def test_residuals_vanish_at_solutions(symmetric_solution, regime_a_solution, regime_b_solution):
    for s in (symmetric_solution, regime_a_solution, regime_b_solution):
        rows = foc_residuals(s.config, s.allocation, s.multipliers)
        assert max_residual(rows) <= 1e-10


# a seeded economy whose stationary complementary-slackness row, scaled to
# lifetime units, once reported a KKT residual above the Newton tolerance
FUZZ21_REGIME_A = """
agents.cognitive.pi = 0.38545466171429527
agents.cognitive.z = 2.4954881689500015
agents.manual.pi = 0.6145453382857047
agents.manual.z = 0.758547011633573
prefs.beta = 0.9688234772309193
prefs.u_form = log
prefs.psi = 0.8479398241511225
prefs.phi = 0.7591007393234936
tech.form = nest_complements
tech.a = 0.7476435769171857
tech.mu_top = 0.6146056913091646
tech.lambda_c = 0.36134065912532126
tech.theta_m = 0.3263200287998008
tech.sigma_top = 0.502999815563407
tech.rho_c = -0.7593457138695971
tech.rho_m = -0.9985428406285435
tech.a_ai = 0.08100103077116738
tech.delta_k = 0.08785404269551243
tech.delta_ai = 0.10597313278472385
g = 0.0
k0 = 0.0
ai0 = 0.0
mode = steady_state
"""


def test_stored_residual_is_within_the_newton_tolerance():
    solution = solve_steady_state(parse_config(FUZZ21_REGIME_A))
    assert solution.regime is Regime.COGNITIVE_BINDS
    assert solution.foc_residual <= 1e-10


def test_path_rows_repeat_the_stationary_rows(regime_a_solution):
    """The kernel's one branch: a steady state repeated over n periods.

    The path form must give all seven stationary rows, and its
    complementary-slackness rows sum n discounted periods of the
    stationary flow row.
    The candidate is moved off the optimum so that the rows are far from
    zero.
    """
    s = regime_a_solution
    cfg, beta, n = s.config, s.config.prefs.beta, 6
    a, m = s.allocation, s.multipliers
    l_m = a.l_m * 0.98
    one = dataclasses.replace(a, c_c=a.c_c * 1.01, l_m=l_m, eff_l_m=cfg.manual.pi * l_m * cfg.manual.z,
                              k=a.k * 0.95, ai=a.ai * 1.03)
    mults = dataclasses.replace(m, lam=m.lam * 1.02)
    rep = lambda v, size=n: np.full(size, float(v[0]))
    path = dataclasses.replace(
        one, **{f: rep(getattr(one, f)) for f in ("c_c", "c_m", "l_c", "l_m", "eff_l_c", "eff_l_m")},
        k=rep(one.k, n + 1), ai=rep(one.ai, n + 1),
    )
    path_mults = dataclasses.replace(
        mults, **{f: rep(getattr(mults, f)) for f in ("lam", "x_k", "x_ai", "y_term")})

    stationary = foc_residuals(cfg, one, mults)
    rows = foc_residuals(cfg, path, path_mults)
    assert max(abs(stationary[r]) for r in ("c_c", "l_m", "k", "ai", "feasibility")) > 1e-3
    for row in planner._ROWS:
        size = n - 1 if row in ("k", "ai") else n
        np.testing.assert_allclose(rows[row], np.full(size, stationary[row]), rtol=1e-12, atol=1e-12)
    for row in ("comp_slack_c", "comp_slack_m"):
        assert rows[row] == pytest.approx(stationary[row] * (1.0 - beta**n) / (1.0 - beta),
                                          rel=1e-12, abs=1e-12)


# exact KKT residual evaluations per solve of each bundled config, one
# point per call: every Jacobian is exact and costs none.  The path's
# grouped forward-difference Jacobians took 97 points in 27 calls, 5 of
# them its Jacobians, in the same iterations.
EVALS_PER_SOLVE = {
    "symmetric": 10, "regime_a": 16, "regime_b": 16, "threshold": 18, "cobb_douglas": 11,
    "regime_a_t20": 22,
}
# and the Newton iterations of all their solves, the capital presolve's too:
# the forward-difference Jacobians they replace took the same (57 for the
# five desks)
ITERATIONS_PER_SOLVE = {
    "symmetric": 8, "regime_a": 13, "regime_b": 13, "threshold": 14, "cobb_douglas": 9,
    "regime_a_t20": 18,
}


def solve(config):
    if config.mode is SolveMode.FINITE_HORIZON:
        return solve_finite_horizon(config)
    return solve_steady_state(config)


@pytest.mark.parametrize("name", sorted(EVALS_PER_SOLVE))
def test_residual_evaluations_per_solve(name, count_evals):
    """Solver work, counted exactly: a change to the residuals or the start
    schedule that moves the Newton path shows up here."""
    config, _ = load_config(CONFIGS / f"{name}.cfg")
    assert count_evals(lambda: solve(config)) == EVALS_PER_SOLVE[name]
    assert count_evals.iterations == ITERATIONS_PER_SOLVE[name]


def test_residual_evaluations_do_not_grow_with_the_horizon(count_evals):
    """A path's exact Jacobian costs no evaluation at any T, so T = 160
    takes the evaluations and Newton iterations of T = 20 (a forward
    difference with one evaluation per unknown took 5727)."""
    config, _ = load_config(CONFIGS / "regime_a_t20.cfg")
    evals = count_evals(lambda: solve(dataclasses.replace(config, horizon=160)))
    assert evals == EVALS_PER_SOLVE["regime_a_t20"]
    assert count_evals.iterations == ITERATIONS_PER_SOLVE["regime_a_t20"]


@pytest.mark.parametrize("horizon", [20, 160])
def test_one_residual_call_per_path_jacobian(horizon, monkeypatch):
    """A path Jacobian is exact and evaluates no KKT residual, and every
    residual call is one point of a path's unknowns, so at any T the
    transition takes one Jacobian per Newton iteration and its 22 residual
    calls in 18 iterations (a grouped forward difference took 27 calls on
    97 points, 5 of them its Jacobians)."""
    kkt, newton_solve = planner._kkt, planner.newton_solve
    kkt_calls = residual_calls = 0
    in_path_jac, path_sizes, path_iterations, iterations = [], set(), [], []

    def counted_kkt(*args):
        nonlocal kkt_calls
        kkt_calls += 1
        return kkt(*args)

    def counted_newton(f, x0, *, jac, band=None, **kw):
        def residual(x):
            nonlocal residual_calls
            residual_calls += 1
            if band is not None:
                path_sizes.add(np.shape(x))
            return f(x)

        def jacobian(x):
            before = kkt_calls
            storage = jac(x)
            in_path_jac.append(kkt_calls - before)
            return storage

        result = newton_solve(residual, x0, jac=jac if band is None else jacobian,
                              band=band, **kw)
        iterations.append(result.iterations)
        if band is not None:
            path_iterations.append(result.iterations)
        return result

    monkeypatch.setattr(planner, "_kkt", counted_kkt)
    monkeypatch.setattr(planner, "newton_solve", counted_newton)
    config, _ = load_config(CONFIGS / "regime_a_t20.cfg")
    solve(dataclasses.replace(config, horizon=horizon))
    # periods 0 .. T of five flows and lam, the interior stocks, then the mus
    n = horizon + 1
    assert path_sizes and path_sizes <= {(7 * n - 2 + a,) for a in range(3)}
    assert in_path_jac and set(in_path_jac) == {0}
    assert len(in_path_jac) == sum(path_iterations)
    assert (residual_calls, sum(iterations)) == (EVALS_PER_SOLVE["regime_a_t20"],
                                                 ITERATIONS_PER_SOLVE["regime_a_t20"])


def test_a_long_path_holds_few_newton_matrices(monkeypatch):
    """A path solve's traced peak grows linearly with T and holds no m x m
    float matrix, m the path's unknowns: Jacobian entries go into band
    storage, and the step eliminates period blocks.  Measured: 2.11 MB at
    T = 160 (0.21 of one m x m matrix) and 4.19 MB at T = 320 (1.99 and
    3.95 MB with a grouped forward-difference Jacobian).  A complex-
    step ratio gradient peaked at 3.79 MB at T = 160, 2.8 MB of it in one
    stacked residual evaluation, and the dense LU at 2.1 m x m matrices."""
    config, _ = load_config(CONFIGS / "regime_a_t20.cfg")
    sizes = []
    newton_solve = planner.newton_solve

    def sized(f, x0, **kw):
        sizes.append(len(x0))
        return newton_solve(f, x0, **kw)

    monkeypatch.setattr(planner, "newton_solve", sized)
    peaks = []
    for horizon in (160, 320):
        tracemalloc.start()
        try:
            solve_finite_horizon(dataclasses.replace(config, horizon=horizon))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if horizon == 160:
            m = max(sizes)
    assert peaks[0] < m * m * 8 / 4
    assert peaks[1] <= 2.2 * peaks[0]


def test_a_path_step_solves_period_blocks(monkeypatch):
    """No dense path LU: every matrix ``np.linalg.solve`` gets in a T = 160
    solve is at most 9 x 9 (a 7 x 7 period block, two at once from the two
    ends, a steady state's 7 to 9 unknowns, the capital presolve's 2 x 2 or
    the border's Schur complement), where the path has 1,126 unknowns."""
    config, _ = load_config(CONFIGS / "regime_a_t20.cfg")
    shapes = []
    solve = np.linalg.solve

    def recorded(a, b):
        shapes.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    solve_finite_horizon(dataclasses.replace(config, horizon=160))
    assert (2, 7, 7) in shapes
    assert max(shape[-1] for shape in shapes) <= 9


def test_only_a_path_builds_a_band(monkeypatch):
    """A steady state's Newton system is dense and never touches band
    storage: the five desk solves build no ``Band``.  A path builds one per
    active set it tries, for all its starts; ``regime_a_t20`` tries one."""
    built = []
    band = planner.Band

    def counted(m, *args):
        built.append(m)
        return band(m, *args)

    monkeypatch.setattr(planner, "Band", counted)
    for name in ("symmetric", "regime_a", "regime_b", "threshold", "cobb_douglas"):
        solve_steady_state(load_config(CONFIGS / f"{name}.cfg")[0])
    assert built == []
    config, _ = load_config(CONFIGS / "regime_a_t20.cfg")
    solve_finite_horizon(config)
    assert built == [146]  # the T = 20 path's unknowns


# a drawn threshold-preset economy (bench/fuzz.py, seed 0, draw 7) whose
# first best has no interior steady state: AI is not worth holding there
REFUSED_ECONOMY = """
agents.cognitive.pi = 0.19949676417354628
agents.cognitive.z = 2.395507563638893
agents.manual.pi = 0.8005032358264537
agents.manual.z = 1.2997624216467083
prefs.beta = 0.9663764955353238
prefs.u_form = log
prefs.psi = 0.7510143987750478
prefs.phi = 1.9127050176416178
tech.form = nest_substitute_cognitive
tech.a = 1.574672496908257
tech.mu_top = 0.6926769033530505
tech.lambda_c = 0.4228872779779747
tech.theta_m = 0.5460789325047403
tech.sigma_top = -0.7763727757491845
tech.rho_c = -2.23944725528662
tech.rho_m = -0.7070589107664993
tech.a_ai = 0.09140923990709769
tech.delta_k = 0.06603714426363262
tech.delta_ai = 0.10021842852087343
"""


def test_a_refusal_costs_one_start(count_evals):
    """A cold solve with no interior solution fails fast: one capital
    presolve and one Newton start, counted exactly (eight rescaled restarts
    took 860 evaluations, and forward-difference Jacobians 132)."""
    config = parse_config(REFUSED_ECONOMY)

    def refused():
        with pytest.raises(NoInteriorSolutionError, match=r"from 1 start\(s\)"):
            solve_steady_state(config)

    assert count_evals(refused) == 60


def test_a_presolve_refusal_names_its_stocks(count_evals, unsolved_end_economy):
    """Where holding AI does not pay, the capital presolve's AI falls toward
    the stock floor, and the first point it evaluates at AI <= 1e-8 with a
    falling AI row is checked for the AI corner: AI pinned at its floor, K
    solved alone.  The AI row is negative there, so the solve refuses at
    once, naming the corner's K and AI row, and tries no other start.  (The
    presolve walked on to the floor and stopped unconverged at K = 6.631e-01
    in 83 calls; with forward-difference Jacobians it took 109 points in 96
    calls.)"""
    config = parse_config(unsolved_end_economy)

    def refused():
        with pytest.raises(NoInteriorSolutionError, match=r"^none: the capital presolve's "
                           r"stocks, at labor 0\.5, sit at the AI corner: beta\*\(1 - delta_ai "
                           r"\+ F_AI\) = 1 - 3\.878e-02 < 1 at K=7\.152e-01, AI=1\.000e-10$"):
            solve_steady_state(config)

    assert count_evals(refused) == 11


def test_a_presolve_whose_stocks_run_off_upward_names_where_it_stopped(monkeypatch):
    """The corner check is for a falling AI: the unbounded economy's stocks
    run off upward, never near AI's floor, so no check runs and the solve
    still refuses naming where its presolve stopped."""
    corners = _corner_checks(monkeypatch)
    with pytest.raises(NoInteriorSolutionError, match=r"^none: the capital presolve stopped at "
                       r"K=\S+, AI=\S+ \(residual \S+\)$"):
        solve_steady_state(unbounded_economy())
    assert corners == []


def _corner_checks(monkeypatch) -> list:
    """The result of each corner check's 1-unknown Newton, in order, from
    here on."""
    newton_solve, results = planner.newton_solve, []

    def recorded(f, x0, **kw):
        result = newton_solve(f, x0, **kw)
        if len(x0) == 1:
            results.append(result)
        return result

    monkeypatch.setattr(planner, "newton_solve", recorded)
    return results


def _floor_rows(config, k: float) -> tuple:
    """The presolve's K and AI rows, beta fw - 1, at labor 0.5, K = ``k``
    and AI at its floor, evaluated apart from the solver."""
    ev = evaluate(config.tech, config.cognitive.pi * 0.5 * config.cognitive.z,
                  config.manual.pi * 0.5 * config.manual.z, k, 1e-10)
    return config.prefs.beta * ev.fw_k - 1.0, config.prefs.beta * ev.fw_ai - 1.0


# two drawn economies (bench/fuzz.py, seed 7, both spreads 1.0) whose
# presolve reaches AI <= 1e-8 with a falling AI row, but not a corner: at
# draw 87's K that solves the K row with AI at its floor, AI pays; at draw
# 197's floor no K solves it (K falls to its floor too)
NOT_A_CORNER = {
    "seed7_draw87": ("""
agents.cognitive.pi = 0.3026728149039095
agents.cognitive.z = 0.7871010578993606
agents.manual.pi = 0.6973271850960905
agents.manual.z = 1.027089955705569
prefs.beta = 0.962972045443141
prefs.u_form = log
prefs.psi = 0.4468436925670865
prefs.phi = 2.6825534837270375
tech.form = nest_substitute_cognitive
tech.a = 0.9579936466141531
tech.mu_top = 0.9350430867109241
tech.lambda_c = 0.372542090693269
tech.theta_m = 0.3891767091303386
tech.sigma_top = 0.3830911083524793
tech.rho_c = -2.3367382585264487
tech.rho_m = -0.3154078625922945
tech.a_ai = 0.13858162992983988
tech.delta_k = 0.04084544739297434
tech.delta_ai = 0.051653875529137916
""", True, "K=1.277e+45, AI=5.802e+45 (residual 1.581e-02)", 99),
    "seed7_draw197": ("""
agents.cognitive.pi = 0.33932957779519346
agents.cognitive.z = 3.2636316901023066
agents.manual.pi = 0.6606704222048065
agents.manual.z = 1.298405700216159
prefs.beta = 0.9618374357039351
prefs.u_form = log
prefs.psi = 2.3623189455532074
prefs.phi = 1.403937314763892
tech.form = nest_complements
tech.a = 0.36899227931714895
tech.mu_top = 0.2121429079802834
tech.lambda_c = 0.15832562002533745
tech.theta_m = 0.348888744103512
tech.sigma_top = -0.09544180697688187
tech.rho_c = -0.2877046414596982
tech.rho_m = -1.1727884363331584
tech.a_ai = 0.038831585232365975
tech.delta_k = 0.0842669176583777
tech.delta_ai = 0.10429210157821416
""", False, "K=1.000e-10, AI=5.450e-10 (residual 4.956e-02)", 19),
}


@pytest.mark.parametrize("name", sorted(NOT_A_CORNER))
def test_a_corner_check_that_fails_leaves_the_presolve_as_it_was(name, count_evals, monkeypatch):
    """Where the corner check proves nothing, the presolve's 2-D Newton
    goes on from where it was and refuses where it stopped before the check
    existed, with the same message (draw 87 took 76 calls without the
    check, draw 197 12): the check sets the cost, never the outcome.  At
    draw 87's K, with AI at its floor, the AI row is not below -1e-9."""
    text, solved_k, stopped, calls = NOT_A_CORNER[name]
    corners = _corner_checks(monkeypatch)
    config = parse_config(text)

    def refused():
        with pytest.raises(NoInteriorSolutionError, match=r"^none: the capital presolve stopped at "
                           + re.escape(stopped) + "$"):
            solve_steady_state(config)

    assert count_evals(refused) == calls
    assert [res.converged for res in corners] == [solved_k]
    if solved_k:
        k_row, ai_row = _floor_rows(config, float(np.exp(corners[0].x[0])))
        assert abs(k_row) <= 1e-9
        assert ai_row >= -1e-9


def _bench_draws() -> dict:
    """The 24 seed-0 draws of ``bench/fuzz.py``, the fuzz workload's, by name."""
    spec = importlib.util.spec_from_file_location("fuzz", CONFIGS.parent / "bench" / "fuzz.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    return dict(fuzz.draw_economies(CONFIGS, 0, 24))


CORNER = re.compile(r"^none: the capital presolve's stocks, at labor 0\.5, sit at the AI corner: "
                    r"beta\*\(1 - delta_ai \+ F_AI\) = 1 - (\S+) < 1 at K=(\S+), AI=1\.000e-10$")


def test_the_ai_corner_refusal_is_sound_and_exact(count_evals, monkeypatch, unsolved_end_economy):
    """Exactly the fuzz workload's three AI-corner draws refuse with the
    corner, and each corner is one: at its K with AI at the floor, the
    technology evaluated apart from the solver gives a zero K row and an AI
    row below -1e-9.  fuzz07, whose presolve converges, still refuses in its
    first best's Newton.  The 24 solves take exactly 419 residual calls (the
    presolve walked the three corners to the floor in 83, 250 and 133 of
    847)."""
    corners = _corner_checks(monkeypatch)
    draws = _bench_draws()
    refusals = {}

    def solve_all():
        for name, text in draws.items():
            try:
                solve_steady_state(parse_config(text))
            except SolverError as exc:
                refusals[name] = str(exc)

    assert count_evals(solve_all) == 419
    certified = {name for name, text in refusals.items() if CORNER.match(text)}
    assert certified == {"fuzz03_threshold", "fuzz11_threshold", "fuzz15_threshold"}
    assert set(refusals) == certified | {"fuzz07_threshold"}
    assert "Newton did not converge" in refusals["fuzz07_threshold"]
    assert len(corners) == 3 and all(res.converged for res in corners)

    checked = [(draws[name], refusals[name], res) for name, res in zip(sorted(certified), corners)]
    corners.clear()
    with pytest.raises(NoInteriorSolutionError) as refused:
        solve_steady_state(parse_config(unsolved_end_economy))
    checked.append((unsolved_end_economy, str(refused.value), corners[0]))
    for text, message, res in checked:
        config = parse_config(text)
        k = float(np.exp(res.x[0]))
        k_row, ai_row = _floor_rows(config, k)
        assert abs(k_row) <= 1e-9
        assert ai_row < -1e-9
        assert CORNER.match(message).groups() == (f"{-ai_row:.3e}", f"{k:.3e}")


# the kernels the planner calls through its module globals
KERNELS = ("evaluate", "mpl_ratio_gradient", "hessian", "mpl_ratio_hessian", "u_prime",
           "u_second", "u_eval", "nu_prime", "nu_second", "nu_eval")


def test_kernels_only_see_their_domain(monkeypatch, unsolved_end_economy):
    """The kernels check no domain, so the solver must never hand them a
    value outside it: every input finite and strictly positive, labor
    (the disutility's argument) nonnegative.  An input is any float or
    array argument; parameters and evaluation records are skipped."""
    calls = dict.fromkeys(KERNELS, 0)
    bad = []

    def checked(name, kernel):
        def call(*args):
            calls[name] += 1
            for v in args:
                if not isinstance(v, (float, np.ndarray)):
                    continue
                v = np.asarray(v)
                low_ok = v >= 0.0 if name.startswith("nu_") else v > 0.0
                if not (np.all(np.isfinite(v)) and np.all(low_ok)):
                    bad.append((name, v))
            return kernel(*args)
        return call

    for name in KERNELS:
        monkeypatch.setattr(planner, name, checked(name, getattr(planner, name)))
    for name in ("symmetric", "regime_a", "regime_b", "threshold", "cobb_douglas", "regime_a_t20"):
        solve(load_config(CONFIGS / f"{name}.cfg")[0])
    # draw 3's presolve reaches the AI corner, whose check pins AI at the
    # stock floor, which alone keeps it positive; the unbounded economy's
    # stocks run off upward
    for refused in (parse_config(REFUSED_ECONOMY), parse_config(unsolved_end_economy),
                    unbounded_economy()):
        with pytest.raises(SolverError):
            solve_steady_state(refused)
    assert all(calls.values()), calls
    assert bad == []


@pytest.mark.parametrize("name", ["regime_a", "regime_a_t20"])
def test_a_residual_call_makes_one_core_pass(monkeypatch, name):
    """Every residual call Newton makes evaluates the technology once: the
    ratio gradient reads the marginal products of the KKT rows' own
    evaluation, and the capital presolve's stock FOCs need one pass too.
    A Jacobian, taken at the point the residual has just evaluated, and the
    judging of a converged vector read that pass and make none."""
    passes, per_call, per_jacobian, per_judge = 0, set(), set(), set()
    core, newton_solve, judge = production._core, planner.newton_solve, planner._judge

    def counted_core(*args):
        nonlocal passes
        passes += 1
        return core(*args)

    def counting(call, seen):
        def counted(*args):
            nonlocal passes
            passes = 0
            out = call(*args)
            seen.add(passes)
            return out
        return counted

    def counted_newton(f, x0, *, jac, **kw):
        return newton_solve(counting(f, per_call), x0, jac=counting(jac, per_jacobian), **kw)

    monkeypatch.setattr(production, "_core", counted_core)
    monkeypatch.setattr(planner, "newton_solve", counted_newton)
    monkeypatch.setattr(planner, "_judge", counting(judge, per_judge))
    solve(load_config(CONFIGS / f"{name}.cfg")[0])
    assert (per_call, per_jacobian, per_judge) == ({1}, {0}, {0})


# far outside the domain: (index in the steady Newton vector, value)
OUT_OF_RANGE = ((2, 1e200), (5, 1e300), (2, 1e-300), (3, 1e-300))


@pytest.mark.parametrize("active", [(), (AgentKind.COGNITIVE,)], ids=["first_best", "cognitive"])
@pytest.mark.parametrize("name", ["threshold", "regime_a", "cobb_douglas"])
def test_out_of_range_points_read_as_non_finite(name, active):
    """A steady state's residual runs on Python floats, which raise
    OverflowError or ZeroDivisionError where numpy scalars give inf or
    nan.  At l_c = 1e200, AI = 1e300, l_c = 1e-300 and l_m = 1e-300 the
    residual raises nothing: it is the numpy-scalar kernel's, bit for bit,
    where that is finite, and non-finite where that is not, which is at
    three of the four points here."""
    config = load_config(CONFIGS / f"{name}.cfg")[0]
    layout = planner._Layout(active)
    f = planner._residual_fn(config, layout)
    start = layout.start(planner._steady_point(solve_steady_state(config)))
    non_finite = 0
    for i, value in OUT_OF_RANGE:
        x = start.copy()
        x[i] = value
        point = layout.unpack(x)
        assert {type(v) for v in point} == {float}
        r = f(x)
        with np.errstate(all="ignore"):
            rows, slack_c, slack_m, _ = planner._kkt(config, *(np.float64(v) for v in point))
            want = np.array(rows + [s for s, kind in zip((slack_c, slack_m), AgentKind)
                                    if kind in active])
        if np.all(np.isfinite(want)):
            assert r.tobytes() == want.tobytes()
        else:
            assert not np.all(np.isfinite(r))
            non_finite += 1
    assert non_finite == 3


def _numpy_scalar_route(config, alloc, mults) -> list:
    """``foc_residuals``'s values for a stationary candidate, from the kernel
    on numpy scalars."""
    a = alloc
    point = (np.float64(v[0]) for v in (a.c_c, a.c_m, a.l_c, a.l_m, a.k, a.ai, mults.lam))
    rows, slack_c, slack_m, _ = planner._kkt(config, *point, mults.mu_c, mults.mu_m)
    return [*rows, mults.mu_c * slack_c, mults.mu_m * slack_m]


@pytest.mark.parametrize("g", [0.0, 0.05])
@pytest.mark.parametrize("utility", ["log", "crra2"])
@pytest.mark.parametrize("name", ["symmetric", "regime_a", "regime_b", "threshold", "cobb_douglas"])
def test_foc_residuals_on_floats_are_the_numpy_scalar_route(monkeypatch, name, utility, g):
    """A stationary candidate's KKT map runs the kernel on Python floats,
    and gives the bits the kernel gives on numpy scalars: on the five desks,
    with log and CRRA (gamma = 2) utility and g = 0 and 0.05."""
    config = load_config(CONFIGS / f"{name}.cfg")[0]
    if utility == "crra2":
        config = dataclasses.replace(config, prefs=dataclasses.replace(
            config.prefs, u_form=UtilityForm.CRRA, gamma=2.0))
    config = dataclasses.replace(config, g=g)
    s = solve_steady_state(config)
    kinds = set()
    kkt = planner._kkt

    def recorded(config, *point):
        kinds.update(type(v) for v in point)
        return kkt(config, *point)

    monkeypatch.setattr(planner, "_kkt", recorded)
    got = foc_residuals(config, s.allocation, s.multipliers)
    assert kinds == {float}
    assert {type(v) for v in got.values()} == {float}
    want = _numpy_scalar_route(config, s.allocation, s.multipliers)
    assert np.array(list(got.values())).tobytes() == np.array(want, dtype=float).tobytes()


def test_foc_residuals_that_overflow_floats_are_the_numpy_scalar_route(regime_a_solution):
    """At l_c = 1e200 the float kernel raises; the map then reads the
    numpy-scalar kernel's rows, non-finite where an overflow reaches them,
    instead of raising."""
    s = regime_a_solution
    alloc = dataclasses.replace(s.allocation, l_c=np.array([1e200]))
    with np.errstate(all="ignore"):
        got = list(foc_residuals(s.config, alloc, s.multipliers).values())
        want = _numpy_scalar_route(s.config, alloc, s.multipliers)
    assert not np.all(np.isfinite(got))
    assert np.array(got).tobytes() == np.array(want, dtype=float).tobytes()


@pytest.mark.parametrize("field,value", [
    ("c_c", [0.0]), ("c_m", [1.0, -1.0]), ("l_m", [-0.1]), ("l_c", [-1.0]),
    ("k", [np.inf]), ("lam", [np.nan]),
])
def test_foc_residuals_rejects_values_outside_the_domain(regime_a_solution, field, value):
    """Candidates are checked where they enter: allocation entries and lam
    must be finite and strictly positive, since the kernels check nothing."""
    s = regime_a_solution
    alloc, mults = s.allocation, s.multipliers
    if field == "lam":
        mults = dataclasses.replace(mults, lam=np.array(value))
    else:
        alloc = dataclasses.replace(alloc, **{field: np.array(value)})
    with pytest.raises(DomainError, match=f"^{field} must be finite and strictly positive"):
        foc_residuals(s.config, alloc, mults)
