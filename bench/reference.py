"""Independent checks of the documents the CLI writes.

The formulas here are written from the README and the module docstrings,
not imported from ``aitax``: a nested CES technology (or its Cobb-Douglas
limit), log or CRRA utility, and the labor disutility
nu(l) = psi * l**(1+phi) / (1+phi).  Marginal products come from a
complex-step derivative of the reference output, a route the program does
not use for them.  Every check raises ``CheckError`` with a message that
names the document and the quantity that failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TOL_RESIDUAL = 1e-10  # the solver's own KKT tolerance
TOL_SLACK = 1e-8  # binding: |slack| <= TOL_SLACK; non-binding: slack >= -TOL_SLACK
TOL_REL = 1e-8  # feasibility, wages and wedges against the reference formulas
_CS_STEP = 1e-20
_LOG_LIMIT = 1e-6

BINDING = {
    "none_bind": (),
    "cognitive_binds": ("c",),
    "manual_binds": ("m",),
    "both_bind": ("c", "m"),
}


class CheckError(Exception):
    """An output failed an independent check."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


def close(a, b, tol: float = TOL_REL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def read_doc(path: Path) -> tuple[dict, str]:
    """Parsed JSON document plus the exact text of its payload."""
    text = path.read_text()
    marker = '\n  "payload": '
    require(marker in text, f"{path.name}: no payload key")
    return json.loads(text), text[text.index(marker):]


# ---------------------------------------------------------------------------
# reference economy
# ---------------------------------------------------------------------------

def _ces(share, x, y, rho):
    if abs(rho) < _LOG_LIMIT:
        return x**share * y ** (1.0 - share)
    return (share * x**rho + (1.0 - share) * y**rho) ** (1.0 / rho)


def output(tech: dict, l_c, l_m, k, ai):
    """F(L_c, L_m, K, AI) for the three technologies."""
    sigma, rho_c, rho_m = tech["sigma_top"], tech["rho_c"], tech["rho_m"]
    if tech["form"] == "cobb_douglas":
        sigma = rho_c = rho_m = 0.0
    if tech["form"] == "nest_substitute_cognitive":
        x_c = _ces(tech["lambda_c"], k, l_c + tech["a_ai"] * ai, rho_c)
        x_m = l_m
    else:
        x_c = _ces(tech["lambda_c"], k, l_c, rho_c)
        x_m = _ces(tech["theta_m"], tech["a_ai"] * ai, l_m, rho_m)
    return tech["a"] * _ces(tech["mu_top"], x_c, x_m, sigma)


def marginal_products(tech: dict, point):
    """(F_Lc, F_Lm, F_K, F_AI) by complex step on ``output``."""
    point = [np.asarray(v, dtype=float) for v in point]
    grads = []
    for i in range(4):
        args = [v.astype(complex) for v in point]
        step = _CS_STEP * point[i]
        args[i] = args[i] + 1j * step
        grads.append(np.imag(output(tech, *args)) / step)
    return grads


def u(prefs: dict, c):
    if prefs["u_form"] == "log":
        return np.log(c)
    g = prefs["gamma"]
    return c ** (1.0 - g) / (1.0 - g)


def u_prime(prefs: dict, c):
    return 1.0 / c if prefs["u_form"] == "log" else c ** (-prefs["gamma"])


def nu(prefs: dict, l):
    return prefs["psi"] * l ** (1.0 + prefs["phi"]) / (1.0 + prefs["phi"])


def nu_prime(prefs: dict, l):
    return prefs["psi"] * l ** prefs["phi"]


# ---------------------------------------------------------------------------
# solution documents
# ---------------------------------------------------------------------------

def check_solution(name: str, payload: dict, cfg: dict) -> dict:
    """Check one solution payload against the reference economy.

    ``cfg`` is the config the CLI was given, as flat ``key = value`` text
    pairs; the payload's echoed config must match it.  Checks per-period
    feasibility, wages, the incentive slacks and multipliers, the capital
    wedges from consumption growth and the labor wedges.
    Returns the reference wedges for workload-specific expectations.
    """
    conf = payload["config"]
    prefs, tech = conf["prefs"], conf["tech"]
    pi_c, z_c = conf["agents"]["cognitive"]["pi"], conf["agents"]["cognitive"]["z"]
    pi_m, z_m = conf["agents"]["manual"]["pi"], conf["agents"]["manual"]["z"]
    echoed = {
        "agents.cognitive.pi": pi_c, "agents.cognitive.z": z_c,
        "agents.manual.pi": pi_m, "agents.manual.z": z_m,
        "prefs.beta": prefs["beta"], "tech.a_ai": tech["a_ai"], "tech.form": tech["form"],
    }
    for key, value in echoed.items():
        want = cfg[key] if key == "tech.form" else float(cfg[key])
        require(value == want, f"{name}: config echoes {key} = {value}, given {want}")

    beta, g = prefs["beta"], conf["g"]
    a = {key: np.asarray(v, dtype=float) for key, v in payload["allocation"].items()
         if key != "n_periods"}
    n = payload["allocation"]["n_periods"]
    require(len(a["c_c"]) == n and len(a["k"]) == n + 1, f"{name}: allocation lengths")
    require(close(a["eff_l_c"], pi_c * z_c * a["l_c"]) and close(a["eff_l_m"], pi_m * z_m * a["l_m"]),
            f"{name}: effective labor is not pi * l * z")

    k_now, ai_now = a["k"][:n], a["ai"][:n]
    y = output(tech, a["eff_l_c"], a["eff_l_m"], k_now, ai_now)
    f_lc, f_lm, f_k, f_ai = marginal_products(tech, (a["eff_l_c"], a["eff_l_m"], k_now, ai_now))
    spend = pi_c * a["c_c"] + pi_m * a["c_m"] + g
    if n == 1:
        gap = y - spend - tech["delta_k"] * k_now - tech["delta_ai"] * ai_now
    else:
        gap = (y + (1.0 - tech["delta_k"]) * k_now + (1.0 - tech["delta_ai"]) * ai_now
               - spend - a["k"][1:] - a["ai"][1:])
    require(np.all(np.abs(gap) <= TOL_REL * np.maximum(1.0, y)),
            f"{name}: resource constraint off by {float(np.max(np.abs(gap))):.3e}")

    w_c, w_m = f_lc * z_c, f_lm * z_m
    require(close(payload["wages_c"], w_c) and close(payload["wages_m"], w_m),
            f"{name}: wages differ from z * F_L")

    # each type mimicking the other earns the other's income at its own wage
    lt_c = a["l_m"] * w_m / w_c
    lt_m = a["l_c"] * w_c / w_m
    flow_c = u(prefs, a["c_c"]) - nu(prefs, a["l_c"]) - (u(prefs, a["c_m"]) - nu(prefs, lt_c))
    flow_m = u(prefs, a["c_m"]) - nu(prefs, a["l_m"]) - (u(prefs, a["c_c"]) - nu(prefs, lt_m))
    weights = np.full(1, 1.0 / (1.0 - beta)) if n == 1 else beta ** np.arange(n)
    slacks = {"c": float(weights @ flow_c), "m": float(weights @ flow_m)}
    binding = BINDING[payload["regime"]]
    for side, slack in slacks.items():
        require(abs(slack - payload[f"slack_{side}"]) <= TOL_SLACK,
                f"{name}: slack_{side} {payload[f'slack_{side}']:.6e}, reference {slack:.6e}")
        if side in binding:
            require(abs(slack) <= TOL_SLACK, f"{name}: binding slack_{side} = {slack:.3e}")
        else:
            require(slack >= -TOL_SLACK, f"{name}: violated slack_{side} = {slack:.3e}")
    mults = payload["multipliers"]
    for side in "cm":
        mu = mults[f"mu_{side}"]
        require(mu > 0.0 if side in binding else mu <= TOL_SLACK,
                f"{name}: mu_{side} = {mu} under regime {payload['regime']}")

    # wedges on the first transition (stationary: the same period twice)
    nxt = 0 if n == 1 else 1
    wedges = {"tau_k": {}, "tau_ai": {}, "tau_y": {}}
    for kind, c, l, w in (("cognitive", a["c_c"], a["l_c"], w_c), ("manual", a["c_m"], a["l_m"], w_m)):
        growth = u_prime(prefs, c[0]) / (beta * u_prime(prefs, c[nxt]))
        wedges["tau_k"][kind] = 1.0 - growth / (f_k[nxt] + 1.0 - tech["delta_k"])
        wedges["tau_ai"][kind] = 1.0 - growth / (f_ai[nxt] + 1.0 - tech["delta_ai"])
        wedges["tau_y"][kind] = 1.0 - nu_prime(prefs, l[0]) / (w[0] * u_prime(prefs, c[0]))
    for key, by_kind in wedges.items():
        for kind, ref in by_kind.items():
            got = payload["wedges"][key][kind]
            require(abs(got - ref) <= TOL_REL, f"{name}: {key}[{kind}] {got:.6e}, reference {ref:.6e}")
    return wedges


def check_verdicts(name: str, payload: dict, keys: tuple[str, ...]) -> None:
    verdicts = payload["wedges"]["verdicts"]
    for key in keys:
        require(verdicts[key]["verdict"] == "pass", f"{name}: {key} is {verdicts[key]['verdict']}")


def check_desk(name: str, payload: dict, wedges: dict) -> None:
    """Expectations from theory and the preset documentation."""
    regime = payload["regime"]
    want = {
        "symmetric": "none_bind", "cobb_douglas": "none_bind",
        "regime_a": "cognitive_binds", "threshold": "cognitive_binds",
        "regime_b": "manual_binds",
    }[name]
    require(regime == want, f"{name}: regime {regime}, expected {want}")
    tau_k, tau_ai = wedges["tau_k"]["cognitive"], wedges["tau_ai"]["cognitive"]
    if want == "none_bind":
        for key, by_kind in wedges.items():
            for kind, value in by_kind.items():
                require(abs(value) <= TOL_REL, f"{name}: {key}[{kind}] = {value:.3e}, expected 0")
    if name == "regime_a":
        check_verdicts(name, payload, ("P1", "P2", "P3"))
        require(tau_k > 0.0 > tau_ai, f"{name}: expected K taxed, AI subsidized")
    if name == "regime_b":
        check_verdicts(name, payload, ("P1p", "P2p", "P3p"))
        require(tau_ai > 0.0 > tau_k, f"{name}: expected AI taxed, K subsidized")


def check_assumption_doc(name: str, payload: dict, rc: int) -> None:
    verdicts = {key: c["verdict"] for key, c in payload["checks"].items()}
    if name == "cobb_douglas":
        require(rc == 1 and verdicts["A1"] == verdicts["A2"] == "non_strict",
                f"{name}: check-assumptions exit {rc}, verdicts {verdicts}")
    else:
        require(rc == 0 and set(verdicts.values()) == {"pass"},
                f"{name}: check-assumptions exit {rc}, verdicts {verdicts}")


def check_oracle_doc(name: str, payload: dict) -> None:
    require(payload["kkt_ok"] and payload["regime_ok"] and payload["objective_ok"],
            f"{name}: oracle-verify report {payload}")


def check_transition(payload: dict, cfg: dict, steady: dict) -> None:
    """Stored KKT residual, and boundary stocks: k0 and ai0 at the start, the
    steady state at the end."""
    a = payload["allocation"]
    require(payload["foc_residual"] <= TOL_RESIDUAL,
            f"transition: stored KKT residual {payload['foc_residual']:.3e} > {TOL_RESIDUAL}")
    require(payload["regime"] == steady["regime"] == "cognitive_binds",
            f"transition: regimes {payload['regime']} / {steady['regime']}")
    require(a["n_periods"] == int(cfg["T"]) + 1, f"transition: {a['n_periods']} periods")
    require(a["k"][0] == float(cfg["k0"]) and a["ai"][0] == float(cfg["ai0"]),
            "transition: initial stocks differ from k0, ai0")
    ss = steady["allocation"]
    require(close(a["k"][-1], ss["k"][0], 1e-12) and close(a["ai"][-1], ss["ai"][0], 1e-12),
            "transition: terminal stocks differ from the steady state")


def check_threshold(sidecar: dict, bracket: dict, rows: list[dict], lo: float, hi: float,
                    points: int) -> None:
    """Zero failures, exactly one cognitive-to-manual flip, a tight bracket inside it."""
    pts = sidecar["points"]
    require(sidecar["n_failures"] == 0 and len(pts) == points == len(rows),
            f"threshold: {sidecar['n_failures']} failures, {len(pts)} points, {len(rows)} rows")
    grid = [lo * (hi / lo) ** (i / (points - 1)) for i in range(points)]
    for i, (p, row) in enumerate(zip(pts, rows)):
        require(math.isclose(p["value"], grid[i], rel_tol=1e-12), f"threshold: grid value {i}")
        require(float(row["value"]) == p["value"] and row["regime"] == p["regime"],
                f"threshold: CSV row {i} differs from the manifest")
    regimes = [p["regime"] for p in pts]
    flips = [i for i in range(points - 1) if regimes[i] != regimes[i + 1]]
    require(len(flips) == 1, f"threshold: {len(flips)} regime changes")
    i = flips[0]
    require(set(regimes[:i + 1]) == {"cognitive_binds"} and set(regimes[i + 1:]) == {"manual_binds"},
            "threshold: sweep is not cognitive below the flip and manual above it")
    b = bracket
    require(b["converged"] and b["lo_regime"] == "cognitive_binds" and b["hi_regime"] == "manual_binds",
            f"threshold: bracket regimes {b['lo_regime']} / {b['hi_regime']}")
    require(pts[i]["value"] <= b["lo"] < b["hi"] <= pts[i + 1]["value"],
            f"threshold: bracket [{b['lo']}, {b['hi']}] outside the flip "
            f"[{pts[i]['value']}, {pts[i + 1]['value']}]")
    require(b["hi"] - b["lo"] <= b["tol"], f"threshold: bracket width {b['hi'] - b['lo']} > {b['tol']}")
