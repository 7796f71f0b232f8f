"""The exact KKT Jacobian in matrix form, kept as a reference.

The solver writes each partial as one entry expression
(``planner._jacobian_entries``).  This is the same Jacobian computed the
earlier way, on 4-vectors and 4 x 4 matrices: both Hessians as matrices,
each period's partials filled into three blocks (the period's rows in its
own unknowns and the multipliers, the same rows in the next period's
unknowns, and each slack's terms), and a path's blocks placed into one
dense matrix.  Same formulas, other arithmetic layout: the tests hold the
entry expressions to it within a stated number of ulps.
"""

import numpy as np

from aitax import planner
from aitax.economy import AgentKind, TechForm
from aitax.preferences import nu_prime, nu_second, u_prime, u_second
from aitax.production import LOG_LIMIT, _exponents

_NEST_BUNDLES = np.array([0, 1, 0, 1])
_SUBSTITUTE_BUNDLES = np.array([0, 1, 0, 0])


def _vectors(*entries):
    out = np.empty(np.broadcast(*entries).shape + (len(entries),))
    for i, e in enumerate(entries):
        out[..., i] = e
    return out


_ONE_POINT = (lambda *entries: np.array(entries)), (lambda v: v)
_POINTS = _vectors, (lambda v: v[..., None, None])


def hessian(tech, ev, l_c, l_m, k, ai):
    """Hessian of F in (L_c, L_m, K, AI), 4 x 4 on the last two axes."""
    sigma, rho_c, rho_m = (0.0 if abs(e) < LOG_LIMIT else e for e in _exponents(tech))
    vector, scale = _POINTS if isinstance(ev.y, np.ndarray) else _ONE_POINT
    f = vector(ev.f_lc, ev.f_lm, ev.f_k, ev.f_ai)
    xf = (l_c * ev.f_lc, l_m * ev.f_lm, k * ev.f_k, ai * ev.f_ai)
    if tech.form is TechForm.NEST_SUBSTITUTE_COGNITIVE:
        bundle, rho = _SUBSTITUTE_BUNDLES, np.array([rho_c, 1.0])
        via_n = np.array([1.0, 0.0, 0.0, tech.a_ai])
        own = scale((1.0 - rho_c) * (ev.f_lc / (l_c + tech.a_ai * ai))) * (via_n[:, None] * via_n)
        own[..., 2, 2] = (1.0 - rho_c) * ev.f_k / k
        share = vector((xf[0] + xf[2] + xf[3]) / ev.y, xf[1] / ev.y)
    else:
        bundle, rho = _NEST_BUNDLES, np.array([rho_c, rho_m])
        own = ((1.0 - rho[bundle]) * f / vector(l_c, l_m, k, ai))[..., None] * np.eye(4)
        share = vector((xf[0] + xf[2]) / ev.y, (xf[1] + xf[3]) / ev.y)
    within = ((sigma - rho) / share)[..., None, bundle]
    m = np.where(bundle[:, None] == bundle, within, 0.0) + (1.0 - sigma)
    return f[..., :, None] * f[..., None, :] / scale(ev.y) * m - own


def mpl_ratio_hessian(tech, ev, grad, l_c, l_m, k, ai):
    """Hessian of F_Lc / F_Lm in (L_c, L_m, K, AI), 4 x 4 on the last two axes."""
    sigma, rho_c, rho_m = (0.0 if abs(e) < LOG_LIMIT else e for e in _exponents(tech))
    vector, scale = _POINTS if isinstance(ev.y, np.ndarray) else _ONE_POINT
    g = vector(*grad)
    r = ev.f_lc / ev.f_lm
    kf = k * ev.f_k
    outer = lambda v: v[..., :, None] * v[..., None, :]
    if tech.form is TechForm.NEST_SUBSTITUTE_COGNITIVE:
        n = l_c + tech.a_ai * ai
        s_k = kf / (kf + n * ev.f_lc)
        v = vector(-1.0 / n, 0.0, 1.0 / k, -tech.a_ai / n)
        curved = scale((sigma - rho_c) * rho_c * s_k * (1.0 - s_k)) * outer(v)
        via_n = np.array([1.0, 0.0, 0.0, tech.a_ai])
        own = scale(g[..., 0] / n) * (via_n[:, None] * via_n)
        own[..., 1, 1], own[..., 2, 2] = g[..., 1] / l_m, g[..., 2] / k
    else:
        s_k = kf / (kf + l_c * ev.f_lc)
        af = ai * ev.f_ai
        s_a = af / (af + l_m * ev.f_lm)
        v_c = vector(-1.0 / l_c, 0.0, 1.0 / k, 0.0)
        v_m = vector(0.0, -1.0 / l_m, 0.0, 1.0 / ai)
        curved = (scale((sigma - rho_c) * rho_c * s_k * (1.0 - s_k)) * outer(v_c)
                  + scale((rho_m - sigma) * rho_m * s_a * (1.0 - s_a)) * outer(v_m))
        own = (g / vector(l_c, l_m, k, ai))[..., None] * np.eye(4)
    return outer(g) / scale(r) + scale(r) * curved - own


def _path_indices(layout):
    """Each (row, unknown) of the three blocks of an n-period path, with -1
    where the row or the unknown does not exist."""
    n, active = layout.n, len(layout.active)
    head = 7 * n - 2
    kind = np.repeat(np.arange(7), layout.sizes)
    period = np.concatenate([np.arange(n)] * 4 + [np.arange(1, n)] * 2 + [np.arange(n)])
    at = np.full((7, n + 1), -1)
    at[kind, period] = np.arange(head)
    row = at[:, :n].copy()
    row[4:6] = at[4:6, 1:]
    mus = head + np.arange(active)
    cols = np.concatenate([at[:, :n], np.repeat(mus[:, None], n, axis=1)])
    return [np.broadcast_arrays(row[:, None], cols[None]),
            np.broadcast_arrays(row[:, None], at[None, :, 1:]),
            np.broadcast_arrays(mus[:, None, None], at[None, :, :n])]


def jacobian(config, layout, x):
    """The m x m exact Jacobian of ``planner._residual_fn(config, layout)`` at ``x``."""
    prefs, tech, beta = config.prefs, config.tech, config.prefs.beta
    pi_c, z_c = config.cognitive.pi, config.cognitive.z
    pi_m, z_m = config.manual.pi, config.manual.z
    zr = z_m / z_c
    d = np.array([pi_c * z_c, pi_m * z_m, 1.0, 1.0])
    spent = np.array([0.0, 0.0, tech.delta_k, tech.delta_ai])
    m = 7 + len(layout.active)
    now, nxt = planner._now_next(layout.stationary)
    if layout.stationary:
        periods_last = lambda h: h
    else:
        n = layout.n
        discount = beta ** np.arange(n)
        d, spent = d[:, None], spent[:, None]
        periods_last = lambda h: np.moveaxis(h, 0, -1)
    dd = d[:, None] * d

    c_c, c_m, l_c, l_m, k, ai, lam, mu_c, mu_m = layout.unpack(x)
    k, ai = now(k), now(ai)
    ch = planner._chain_terms(config, l_c, l_m, k, ai, mu_c, mu_m)
    ev, el_c, el_m = ch.ev, ch.el_c, ch.el_m
    f_q = np.array([ev.f_lc, ev.f_lm, ev.f_k, ev.f_ai]) * d
    h_q = lam * dd * periods_last(hessian(tech, ev, el_c, el_m, k, ai))
    up_c, up_m = u_prime(prefs, c_c), u_prime(prefs, c_m)
    if layout.stationary:
        j_own = j_nxt = j = np.zeros((m, m))
        j_slack = j[7:]
    else:
        j_own, j_nxt, j_slack = np.zeros((7, m, n)), np.zeros((7, 7, n)), np.zeros((m - 7, 7, n))
    j_own[0, 0] = u_second(prefs, c_c) * (pi_c + mu_c - mu_m)
    j_own[1, 1] = u_second(prefs, c_m) * (pi_m + mu_m - mu_c)
    j_own[0, 6] = j_own[6, 0] = -pi_c
    j_own[1, 6] = j_own[6, 1] = -pi_m
    j_own[6, 2:6] = f_q - spent
    j_own[2:4, 6] = f_q[:2]
    if layout.active:
        grad = ch.grad
        ratio = ev.f_lc / ev.f_lm
        g_q = np.array(grad) * d
        hr_q = dd * periods_last(mpl_ratio_hessian(tech, ev, grad, el_c, el_m, k, ai))
        x_q = 0.0
        for col, kind in enumerate(layout.active, 7):
            if kind is AgentKind.COGNITIVE:
                mu, own, other, w = mu_c, 0, 1, zr / ratio
                dw = -w / ratio * g_q
                d2w = w / ratio * (2.0 / ratio * (g_q[:, None] * g_q) - hr_q)
                signs = (1.0, -1.0)
            else:
                mu, own, other, w = mu_m, 1, 0, ratio / zr
                dw, d2w = g_q / zr, hr_q / zr
                signs = (-1.0, 1.0)
            l_other = (l_c, l_m)[other]
            lt = l_other * w
            d_lt = l_other * dw
            d_lt[other] += w
            d2_lt = l_other * d2w
            d2_lt[other] += dw
            d2_lt[:, other] += dw
            nup = nu_prime(prefs, lt)
            d_nu = nup * d_lt
            h_q += mu * (nu_second(prefs, lt) * (d_lt[:, None] * d_lt) + nup * d2_lt)
            x_q += mu * d_nu
            row = j_slack[col - 7]
            row[0:2] = signs[0] * up_c, signs[1] * up_m
            row[2:6] = d_nu
            row[2 + own] -= nu_prime(prefs, (l_c, l_m)[own])
            j_own[0:4, col] = row[0:4]
            now(j_own)[4:6, col] = -beta / nxt(lam) * nxt(d_nu)[2:]
        now(j_nxt)[4:6, 6] = beta / nxt(lam) ** 2 * nxt(x_q)[2:]
    j_own[2:4, 2:6] = h_q[:2]
    now(j_nxt)[4:6, 2:6] = -beta / nxt(lam) * nxt(h_q)[2:]
    j_own[2, 2] -= (pi_c + mu_c) * nu_second(prefs, l_c)
    j_own[3, 3] -= (pi_m + mu_m) * nu_second(prefs, l_m)
    if layout.stationary:
        return j
    j_own[6, 4:6] += 1.0
    j_nxt[6, 4:6] = -1.0
    j_own[4:6, 6, :-1] = 1.0 / lam[1:]
    j_nxt[4:6, 6, :-1] -= lam[:-1] / lam[1:] ** 2
    dense = np.zeros((len(x), len(x)))
    for (rows, cols), block in zip(_path_indices(layout), (j_own, j_nxt, discount * j_slack)):
        there = (rows >= 0) & (cols >= 0)
        dense[rows[there], cols[there]] = block[there]
    return dense
