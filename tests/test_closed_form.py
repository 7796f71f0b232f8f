"""A closed-form ground truth: the Cobb-Douglas economy.

With output shares a_K = mu lambda_c, a_Lc = mu (1 - lambda_c),
a_AI = (1 - mu) theta_m and a_Lm = (1 - mu) (1 - theta_m), and
rho = 1 / beta - 1, the first best solves by hand:

* the Euler rows give K = a_K Y / (rho + delta_k) and
  AI = a_AI Y / (rho + delta_ai);
* feasibility gives c = s Y - g with
  s = 1 - delta_k a_K / (rho + delta_k) - delta_ai a_AI / (rho + delta_ai);
* each labor row gives psi l_h**(1 + phi) = u'(s Y - g) a_Lh Y / pi_h,
  which is a_Lh / (pi_h s), free of Y, under log utility with g = 0;
* Y then solves one scalar equation, Y = F(K, L_c, AI, L_m).

Each draw is checked with log utility and with CRRA utility (gamma = 2),
each with g = 0 and with g = 0.05.  The wage ratio of a Cobb-Douglas
economy is free of both stocks, so in every regime the incentive terms of
the stock rows vanish: the constrained solution keeps the first best's
K / Y and AI / Y, and both stocks go untaxed.  Everything here is written
apart from the program, which only solves the sampled economies.
"""

import math
import random
from dataclasses import replace

import pytest

from aitax import cobb_douglas_economy, first_best, solve_steady_state
from aitax.economy import AgentKind, UtilityForm
from aitax.wedges import compute_wedge_report

# margins over the worst these draws give at a KKT residual of 1e-10, over
# the four variants: 2.7e-11 (first best), 7.2e-12 (stock ratios) and
# 9.0e-13 (a tax)
FIRST_BEST_REL = 1e-9
SHARE_REL = 1e-9
TAX_ABS = 1e-10


def _draws(count: int, seed: int = 0) -> list:
    """Seeded economies around the cobb_douglas desk, every positive
    parameter scaled by exp(U(-0.3, 0.3)); none is filtered by outcome."""
    rng = random.Random(seed)
    scale = lambda v: v * math.exp(rng.uniform(-0.3, 0.3))
    base = cobb_douglas_economy()
    out = []
    for _ in range(count):
        pi_c = scale(base.cognitive.pi)
        out.append(replace(
            base,
            cognitive=replace(base.cognitive, pi=pi_c, z=scale(base.cognitive.z)),
            manual=replace(base.manual, pi=1.0 - pi_c, z=scale(base.manual.z)),
            prefs=replace(base.prefs, beta=1.0 - scale(1.0 - base.prefs.beta),
                          psi=scale(base.prefs.psi), phi=scale(base.prefs.phi)),
            tech=replace(base.tech, **{name: scale(getattr(base.tech, name)) for name in (
                "a", "mu_top", "lambda_c", "theta_m", "a_ai", "delta_k", "delta_ai")}),
        ))
    return out


# each variant's CRRA curvature gamma (None: log utility) and spending g
VARIANTS = {"log": (None, 0.0), "crra2": (2.0, 0.0), "g005": (None, 0.05),
            "crra2_g005": (2.0, 0.05)}


def _variant(config, gamma, g):
    if gamma is not None:
        config = replace(config, prefs=replace(config.prefs, u_form=UtilityForm.CRRA, gamma=gamma))
    return replace(config, g=g)


# every draw in every variant; a log, g = 0 case's id is its draw's index
CASES = [pytest.param(_variant(config, *VARIANTS[name]),
                      id=str(index) if name == "log" else f"{name}-{index}")
         for name in VARIANTS for index, config in enumerate(_draws(50))]


def _shares(t):
    return (t.mu_top * t.lambda_c, t.mu_top * (1.0 - t.lambda_c),
            (1.0 - t.mu_top) * t.theta_m, (1.0 - t.mu_top) * (1.0 - t.theta_m))


def _output(config, l_c, l_m, k, ai) -> float:
    a_k, a_lc, a_ai, a_lm = _shares(config.tech)
    eff_c = config.cognitive.pi * config.cognitive.z * l_c
    eff_m = config.manual.pi * config.manual.z * l_m
    return (config.tech.a * k**a_k * eff_c**a_lc * (config.tech.a_ai * ai)**a_ai
            * eff_m**a_lm)


def _capital_ratios(config) -> tuple:
    """K / Y and AI / Y, from the two Euler rows."""
    t = config.tech
    rho = 1.0 / config.prefs.beta - 1.0
    a_k, _, a_ai, _ = _shares(t)
    return a_k / (rho + t.delta_k), a_ai / (rho + t.delta_ai)


def closed_form_first_best(config) -> dict:
    """The first best's c (both types), l_c, l_m, K and AI.

    Y solves gap(Y) = log F(k_y Y, L_c(Y), ai_y Y, L_m(Y)) - log Y = 0 on
    s Y > g, with log l_h(Y) = (log(a_Lh / (pi_h psi)) + log Y - gamma
    log(s Y - g)) / (1 + phi) (gamma = 1 for log utility).  Its slope in
    log Y is -(a_Lc + a_Lm) (1 - (1 - gamma s Y / (s Y - g)) / (1 + phi)),
    and gamma s Y / (s Y - g) >= 1 when gamma >= 1 and g >= 0: so gap falls
    strictly, from +inf as s Y falls to g to -inf as Y grows, and has one
    root, which bisection keeps bracketed until the bracket's ends are
    adjacent floats.
    """
    t, p = config.tech, config.prefs
    a_k, a_lc, a_ai, a_lm = _shares(t)
    k_y, ai_y = _capital_ratios(config)
    s = 1.0 - t.delta_k * k_y - t.delta_ai * ai_y
    gamma = 1.0 if p.u_form is UtilityForm.LOG else p.gamma

    def labor(y):
        # psi l_h**(1 + phi) = u'(s Y - g) a_Lh Y / pi_h
        scale = (s * y - config.g) ** -gamma * y / p.psi
        return tuple((a_l / pi * scale) ** (1.0 / (1.0 + p.phi))
                     for a_l, pi in ((a_lc, config.cognitive.pi), (a_lm, config.manual.pi)))

    def gap(y):
        return math.log(_output(config, *labor(y), k_y * y, ai_y * y)) - math.log(y)

    lo = config.g / s  # c = s Y - g is positive above it, where gap starts at +inf
    hi = lo + 1.0
    while gap(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if gap(mid) > 0.0 else (lo, mid)
    y = hi
    l_c, l_m = labor(y)
    return {"c": s * y - config.g, "l_c": l_c, "l_m": l_m, "k": k_y * y, "ai": ai_y * y}


@pytest.mark.parametrize("config", CASES)
def test_the_first_best_is_the_closed_form(config):
    want = closed_form_first_best(config)
    a = first_best(config).allocation
    got = {("c", "c_c"): a.c_c, ("c", "c_m"): a.c_m, ("l_c", "l_c"): a.l_c,
           ("l_m", "l_m"): a.l_m, ("k", "k"): a.k, ("ai", "ai"): a.ai}
    for (name, field), value in got.items():
        assert abs(value[0] / want[name] - 1.0) <= FIRST_BEST_REL, field


@pytest.mark.parametrize("config", CASES)
def test_the_constrained_solution_keeps_the_stock_ratios_untaxed(config):
    solution = solve_steady_state(config)
    a = solution.allocation
    y = _output(config, a.l_c[0], a.l_m[0], a.k[0], a.ai[0])
    k_y, ai_y = _capital_ratios(config)
    assert abs(a.k[0] / y / k_y - 1.0) <= SHARE_REL
    assert abs(a.ai[0] / y / ai_y - 1.0) <= SHARE_REL
    wedges = compute_wedge_report(solution)
    for kind in AgentKind:
        assert abs(wedges.tau_k[kind]) <= TAX_ABS
        assert abs(wedges.tau_ai[kind]) <= TAX_ABS
