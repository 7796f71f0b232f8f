import dataclasses
from pathlib import Path

import numpy as np
import pytest

from aitax import (
    AgentKind,
    Regime,
    SolveMode,
    cobb_douglas_economy,
    detect_regime,
    first_best,
    foc_residuals,
    planner,
    regime_a_economy,
    regime_b_economy,
    solve_finite_horizon,
    solve_steady_state,
    symmetric_economy,
    threshold_economy,
)
from aitax.configio import load_config, parse_config
from aitax.economy import TechForm
from aitax.errors import (
    ConfigError,
    DomainError,
    InconsistentMultipliersError,
    NoInteriorSolutionError,
    SolverError,
)
from aitax.planner import TOL_ICC, violated_side
from aitax.preferences import icc_slack, nu_eval, u_eval
from aitax.production import total_wealth, wages


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
    beta = s.config.prefs.beta
    ev_wealth = total_wealth(
        s.config.tech, s.allocation.eff_l_c[0], s.allocation.eff_l_m[0],
        s.allocation.k[0], s.allocation.ai[0],
    )
    assert ev_wealth > 0.0
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


def test_detect_regime_consistency(symmetric_solution, regime_a_solution):
    assert detect_regime(symmetric_solution) is Regime.NONE_BIND
    assert detect_regime(regime_a_solution) is Regime.COGNITIVE_BINDS


def test_detect_regime_rejects_contradictory_multipliers(regime_a_solution):
    s = regime_a_solution
    bad = dataclasses.replace(
        s, multipliers=dataclasses.replace(s.multipliers, mu_c=0.1), slack_c=5.0)
    with pytest.raises(InconsistentMultipliersError):
        detect_regime(bad)


def unbounded_economy():
    """A substitute nest whose AI-only return exceeds the discount rate: no
    interior steady state, and the capital presolve's log stocks run off
    until ``exp`` leaves the kernels' domain."""
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
    wealth = total_wealth(tech, alloc.eff_l_c, alloc.eff_l_m, k_now, ai_now)
    resource = (wealth - pi_c * alloc.c_c - pi_m * alloc.c_m
                - alloc.k[1:] - alloc.ai[1:] - config.g)

    w_c, w_m = wages(tech, config, alloc.eff_l_c, alloc.eff_l_m, k_now, ai_now)
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


# exact KKT residual evaluations per solve of each bundled config
EVALS_PER_SOLVE = {
    "symmetric": 51, "regime_a": 91, "regime_b": 91, "threshold": 95, "cobb_douglas": 54,
    "regime_a_t20": 172,
}
# and the residual calls they take: every Jacobian, dense or grouped, is one call
CALLS_PER_SOLVE = {
    "symmetric": 18, "regime_a": 29, "regime_b": 29, "threshold": 32, "cobb_douglas": 20,
    "regime_a_t20": 40,
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
    evals = count_evals(lambda: solve(config))
    assert (evals, count_evals.calls) == (EVALS_PER_SOLVE[name], CALLS_PER_SOLVE[name])


def test_residual_evaluations_do_not_grow_with_the_horizon(count_evals):
    """The grouped Jacobian costs the same number of evaluations at any T
    (T = 160 took 5727 with one evaluation per unknown)."""
    config, _ = load_config(CONFIGS / "regime_a_t20.cfg")
    evals = count_evals(lambda: solve(dataclasses.replace(config, horizon=160)))
    assert evals == EVALS_PER_SOLVE["regime_a_t20"]


@pytest.mark.parametrize("horizon", [20, 160])
def test_one_residual_call_per_path_jacobian(horizon, count_evals):
    """A path Jacobian's grouped columns are one stacked call, and so are
    the dense Jacobians of the steady state the path ends at, so the
    transition's 172 evaluated points take 40 residual calls at any T."""
    config, _ = load_config(CONFIGS / "regime_a_t20.cfg")
    evals = count_evals(lambda: solve(dataclasses.replace(config, horizon=horizon)))
    assert (evals, count_evals.calls) == (EVALS_PER_SOLVE["regime_a_t20"],
                                          CALLS_PER_SOLVE["regime_a_t20"])


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
    took 860 evaluations)."""
    config = parse_config(REFUSED_ECONOMY)

    def refused():
        with pytest.raises(NoInteriorSolutionError, match=r"from 1 start\(s\)"):
            solve_steady_state(config)

    assert count_evals(refused) == 132


# kernel -> index of its first numeric argument; every later argument is an input
KERNEL_INPUTS = {
    "evaluate": 2, "mpl_ratio_gradient": 1, "marginal_products": 1,
    "u_prime": 1, "u_eval": 1, "nu_prime": 1, "nu_eval": 1,
}


def test_kernels_only_see_their_domain(monkeypatch):
    """The kernels check no domain, so the solver must never hand them a
    value outside it: every input finite and strictly positive, labor
    (the disutility's argument) nonnegative."""
    calls = dict.fromkeys(KERNEL_INPUTS, 0)
    bad = []

    def checked(name, kernel):
        def call(*args):
            calls[name] += 1
            for v in args[KERNEL_INPUTS[name]:]:
                v = np.asarray(v)
                low_ok = v >= 0.0 if name.startswith("nu_") else v > 0.0
                if not (np.all(np.isfinite(v)) and np.all(low_ok)):
                    bad.append((name, v))
            return kernel(*args)
        return call

    for name in KERNEL_INPUTS:
        monkeypatch.setattr(planner, name, checked(name, getattr(planner, name)))
    for name in ("symmetric", "regime_a", "regime_b", "threshold", "cobb_douglas", "regime_a_t20"):
        solve(load_config(CONFIGS / f"{name}.cfg")[0])
    for refused in (parse_config(REFUSED_ECONOMY), unbounded_economy()):
        with pytest.raises(SolverError):
            solve_steady_state(refused)
    assert all(calls.values()), calls
    assert bad == []


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
