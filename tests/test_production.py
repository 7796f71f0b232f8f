import dataclasses
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aitax import (
    cobb_douglas_economy,
    regime_a_economy,
    regime_b_economy,
    symmetric_economy,
    threshold_economy,
)
from aitax.configio import parse_config
from aitax.economy import TechForm, TechnologyParams
from aitax import production
from aitax.errors import DomainError
from aitax.production import check_assumptions, evaluate, mpl_ratio_gradient
from test_acceptance import grad_check
import reference_verdicts

COMPLEMENTS = symmetric_economy().tech
SUBSTITUTE = threshold_economy().tech
COBB = cobb_douglas_economy().tech
ALL_FORMS = (COMPLEMENTS, SUBSTITUTE, COBB)
ROOT = Path(__file__).resolve().parents[1]


def random_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(n, 4)))


def ratio(tech, *point):
    """The wage ratio F_Lc / F_Lm."""
    ev = evaluate(tech, *point)
    return ev.f_lc / ev.f_lm


def gradient(tech, *point):
    """The closed-form ratio gradient at ``point``, on its own evaluation."""
    return mpl_ratio_gradient(tech, evaluate(tech, *point), *point)


@pytest.mark.parametrize("tech", ALL_FORMS, ids=lambda t: t.form.value)
def test_gradients_match_central_differences(tech):
    worst = 0.0
    for pt in random_points(100):
        step = 1e-5 * min(pt)
        worst = max(worst, grad_check(tech, pt, step))
    assert worst <= 1e-6


@pytest.mark.parametrize("tech", ALL_FORMS, ids=lambda t: t.form.value)
def test_euler_identity(tech):
    """Degree-1 homogeneity: inputs times marginal products add up to output."""
    for pt in random_points(50, seed=1):
        ev = evaluate(tech, *pt)
        total = pt[0] * ev.f_lc + pt[1] * ev.f_lm + pt[2] * ev.f_k + pt[3] * ev.f_ai
        assert total == pytest.approx(ev.y, rel=1e-8)


@settings(max_examples=60)
@given(
    scale=st.floats(1e-3, 1e3),
    pt=st.tuples(*[st.floats(0.05, 20.0)] * 4),
)
def test_output_homogeneous_degree_one(scale, pt):
    for tech in ALL_FORMS:
        y = evaluate(tech, *pt).y
        scaled = evaluate(tech, *(scale * v for v in pt)).y
        assert scaled == pytest.approx(scale * y, rel=1e-9)


@pytest.mark.parametrize("tech", ALL_FORMS, ids=lambda t: t.form.value)
def test_marginal_products_positive(tech):
    for pt in random_points(25, seed=2):
        ev = evaluate(tech, *pt)
        for v in (ev.f_lc, ev.f_lm, ev.f_k, ev.f_ai):
            assert v > 0.0


def test_wealth_returns_add_undepreciated_stock():
    pt = (1.0, 1.0, 2.0, 3.0)
    for tech in ALL_FORMS:
        ev = evaluate(tech, *pt)
        assert ev.fw_k == pytest.approx(ev.f_k + 1.0 - tech.delta_k)
        assert ev.fw_ai == pytest.approx(ev.f_ai + 1.0 - tech.delta_ai)


def test_evaluate_bundles_everything():
    """One record holds the core pass's output and marginal products, bit
    for bit, and the wealth returns built on them."""
    cfg = threshold_economy()
    pt = (0.7, 1.3, 2.0, 0.5)
    ev = evaluate(cfg.tech, *pt)
    y, f_lc, f_lm, f_k, f_ai = production._core(cfg.tech, *pt)
    assert (ev.y, ev.f_lc, ev.f_lm, ev.f_k, ev.f_ai) == (y, f_lc, f_lm, f_k, f_ai)
    tech = cfg.tech
    assert (ev.fw_k, ev.fw_ai) == (f_k + (1.0 - tech.delta_k), f_ai + (1.0 - tech.delta_ai))


def test_mpl_ratio_gradient_vs_finite_differences():
    pt = [0.8, 1.2, 1.5, 0.6]
    for tech in ALL_FORMS:
        grad = gradient(tech, *pt)
        for i in range(4):
            h = 1e-6 * pt[i]
            hi, lo = list(pt), list(pt)
            hi[i] += h
            lo[i] -= h
            fd = (ratio(tech, *hi) - ratio(tech, *lo)) / (2 * h)
            # abs floor covers central-difference roundoff on flat directions
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("tech", ALL_FORMS, ids=lambda t: t.form.value)
def test_ratio_gradient_on_arrays_is_the_per_point_one(tech):
    """Arrays and scalars take the same formulas; they agree to rounding
    (6.6e-16 relative at most on these points), since array and scalar
    ``**`` round apart."""
    pts = random_points(8, seed=3)
    stacked = gradient(tech, *pts.T)
    for g, pt in enumerate(pts):
        one = gradient(tech, *pt)
        np.testing.assert_allclose([d[g] for d in stacked], one, rtol=1e-14, atol=0.0)


def complex_step_ratio_gradient(tech, l_c, l_m, k, ai):
    """Reference gradient of F_Lc / F_Lm: a complex step of relative size
    1e-20 in each of the four directions through ``production._core``, which
    has no subtractive cancellation, so it is exact to rounding."""
    base = [np.asarray(v, dtype=float) for v in (l_c, l_m, k, ai)]
    grad = []
    for i in range(4):
        args = [v.astype(complex) for v in base]
        step = 1e-20 * base[i]
        args[i] = args[i] + 1j * step
        _, f_lc, f_lm, _, _ = production._core(tech, *args)
        grad.append((f_lc / f_lm).imag / step)
    return grad


def _fuzz_techs():
    """The technologies of the 24 seed-0 draws of ``bench/fuzz.py``, by name."""
    spec = importlib.util.spec_from_file_location("fuzz", ROOT / "bench" / "fuzz.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    return {name: parse_config(text).tech
            for name, text in fuzz.draw_economies(ROOT / "configs", 0, 24)}


REFERENCE_TECHS = {
    "symmetric": COMPLEMENTS,
    "regime_a": regime_a_economy().tech,
    "regime_b": regime_b_economy().tech,
    "threshold": SUBSTITUTE,
    "cobb_douglas": COBB,
    **_fuzz_techs(),
    # an exponent inside LOG_LIMIT of zero on either nest
    "near_log_limit": dataclasses.replace(regime_a_economy().tech, rho_c=5e-7, rho_m=-5e-7),
}


@pytest.mark.parametrize("tech", REFERENCE_TECHS.values(), ids=REFERENCE_TECHS.keys())
def test_closed_form_ratio_gradient_is_the_complex_step(tech):
    """The closed form agrees with the complex step to 1e-13 relative,
    component by component, at random points over a box of e^-3 to e^3
    (measured: 2.2e-15 at most).  Cobb-Douglas's K and AI partials are
    exactly zero, where the complex step reads rounding noise."""
    rng = np.random.default_rng(7)
    pts = np.exp(rng.uniform(-3.0, 3.0, size=(4, 400)))
    closed = gradient(tech, *pts)
    reference = complex_step_ratio_gradient(tech, *pts)
    axes = (0, 1) if tech.form is TechForm.COBB_DOUGLAS else range(4)
    for a in axes:
        np.testing.assert_allclose(closed[a], reference[a], rtol=1e-13, atol=0.0)
    if tech.form is TechForm.COBB_DOUGLAS:
        for a in (2, 3):
            assert np.all(closed[a] == 0.0)


def central_jacobian(partials, point, rel_step=1e-5):
    """Central differences, column by column, of the 4-vector ``partials(point)``."""
    cols = []
    for j in range(4):
        step = np.zeros(4)
        step[j] = rel_step * point[j]
        cols.append((np.asarray(partials(point + step)) - partials(point - step)) / (2.0 * step[j]))
    return np.column_stack(cols)


def marginal_products(tech, point):
    ev = evaluate(tech, *point)
    return ev.f_lc, ev.f_lm, ev.f_k, ev.f_ai


def symmetric(entries):
    """The 4 x 4 matrix whose entries in ``production.PAIRS`` order are ``entries``."""
    assert len(entries) == len(production.PAIRS)
    matrix = np.empty((4, 4))
    for value, (a, b) in zip(entries, production.PAIRS):
        matrix[a, b] = matrix[b, a] = value
    return matrix


def bits(values) -> bytes:
    """The bytes of a sequence of floats, numpy scalars or 1-element arrays."""
    return np.array([np.float64(np.reshape(v, -1)[0]) for v in values]).tobytes()


@pytest.mark.parametrize("tech", REFERENCE_TECHS.values(), ids=REFERENCE_TECHS.keys())
def test_hessians_are_central_differences_of_the_partials(tech):
    """The technology's Hessian is the central difference of ``evaluate``'s
    marginal products, and the wage ratio's that of ``mpl_ratio_gradient``,
    to 1e-8 of the matrix's largest entry at random points over a box of
    e^-1 to e^1 (measured: 2.9e-10 and 4.3e-10 at most).  Both give each
    pair of inputs one entry, so both are symmetric by construction."""
    rng = np.random.default_rng(11)
    for point in np.exp(rng.uniform(-1.0, 1.0, size=(20, 4))):
        ev = evaluate(tech, *point)
        grad = mpl_ratio_gradient(tech, ev, *point)
        for entries, partials in (
            (production.hessian(tech, ev, *point), lambda p: marginal_products(tech, p)),
            (production.mpl_ratio_hessian(tech, ev, grad, *point), lambda p: gradient(tech, *p)),
        ):
            exact = symmetric(entries)
            np.testing.assert_allclose(exact, central_jacobian(partials, point), rtol=0.0,
                                       atol=1e-8 * np.max(np.abs(exact)))


@pytest.mark.parametrize("tech", REFERENCE_TECHS.values(), ids=REFERENCE_TECHS.keys())
def test_hessians_at_arrays_of_points_are_the_per_point_ones(tech):
    """Both Hessians are one set of entry expressions for every number
    type: at a path's periods at once, each entry an array over the
    points, every point's entries are bit for bit the ones that point's
    values give alone, as numpy scalars and as Python floats."""
    points = np.exp(np.random.default_rng(12).uniform(-1.0, 1.0, size=(6, 4)))
    inputs = tuple(points.T)
    ev = evaluate(tech, *inputs)
    grad = mpl_ratio_gradient(tech, ev, *inputs)
    batched = (production.hessian(tech, ev, *inputs),
               production.mpl_ratio_hessian(tech, ev, grad, *inputs))
    for i, point in enumerate(points):
        for number in (np.float64, float):
            ev_i = production.TechEvaluation(*(number(getattr(ev, f.name)[i])
                                               for f in dataclasses.fields(ev)))
            grad_i = tuple(number(g[i]) for g in grad)
            point_i = tuple(number(v) for v in point)
            alone = (production.hessian(tech, ev_i, *point_i),
                     production.mpl_ratio_hessian(tech, ev_i, grad_i, *point_i))
            for at_once, one in zip(batched, alone):
                assert {type(v) for v in one} == {number}
                assert bits(e[i] for e in at_once) == bits(one)


@pytest.mark.parametrize("tech", ALL_FORMS, ids=lambda t: t.form.value)
@pytest.mark.parametrize("center", [(1.0, 1.0, 1.0, 1.0), (0.3, 0.7, 2.0, 0.5)])
def test_worst_values_are_the_gradient_at_the_worst_point(tech, center):
    """Every check reports the gradient's own partial at its worst point:
    the grid takes ``mpl_ratio_gradient`` once, on arrays."""
    report = check_assumptions(tech, center)
    axes = {"L_c": 0, "L_m": 1, "K": 2, "AI": 3}
    for check in report.checks():
        expected = gradient(tech, *check.worst_point)[axes[check.axis]]
        assert check.worst_value == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_assumptions_complements_desk():
    # AI complements manual labor: ratio rises in K, falls in AI and own labor
    report = check_assumptions(COMPLEMENTS)
    assert report.all_pass
    assert [c.verdict for c in report.checks()] == ["pass", "pass", "pass"]


def test_assumptions_substitute_desk():
    report = check_assumptions(SUBSTITUTE)
    assert report.all_pass


def test_assumptions_substitute_low_complementarity():
    # a loose cognitive nest still leaves AI substituting for cognitive labor
    tech = TechnologyParams(
        form=TechForm.NEST_SUBSTITUTE_COGNITIVE,
        mu_top=0.5, lambda_c=0.5, sigma_top=0.5, rho_c=0.5,
    )
    report = check_assumptions(tech)
    assert report.a2.verdict == "pass"


def test_assumptions_cobb_douglas_degenerate():
    # with unit elasticities the wage ratio is independent of both stocks
    report = check_assumptions(COBB)
    assert report.a1.verdict == "non_strict"
    assert report.a2.verdict == "non_strict"
    assert not report.all_pass
    # every K and AI partial is exactly 0, so the first grid point, the
    # default box's lower corner, is the worst
    for check in (report.a1, report.a2):
        assert check.worst_value == 0.0
        assert check.worst_point == (0.5, 0.5, 0.5, 0.5)


def test_a_wide_grid_reads_no_rounding_noise():
    """At factor 1e6 threshold's K partial is tiny but positive at the far
    corners (3.8e-30 at least): A1 is ``non_strict``, where central
    differences once read -0.078125 there, a false ``fail``.  They also
    failed Cobb-Douglas's A1 and A2 from factor 1e3 on; its K and AI
    partials are exactly 0 at any factor."""
    report = check_assumptions(SUBSTITUTE, factor=1e6)
    assert [c.verdict for c in report.checks()] == ["non_strict"] * 3
    assert 0.0 < report.a1.worst_value <= production.TOL_STRICT
    report = check_assumptions(COBB, factor=1e6)
    assert [c.verdict for c in report.checks()] == ["non_strict"] * 3
    assert (report.a1.worst_value, report.a2.worst_value) == (0.0, 0.0)


@pytest.mark.parametrize("factor", [1e80, 1e150])
def test_overflowing_assumption_derivatives_are_no_verdict(factor):
    """A grid whose far corners overflow the CES kernels once gave a
    ``fail`` (1e80) or ``non_strict`` (1e150) verdict on NaN derivatives,
    and a RuntimeWarning under ``-W error``; it names the grid instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"derivatives must be finite.* K \[{1 / factor:g}, "):
            check_assumptions(regime_a_economy().tech, factor=factor)


DESK_TECHS = tuple(e().tech for e in (symmetric_economy, regime_a_economy, regime_b_economy,
                                       threshold_economy, cobb_douglas_economy))


def _report(check, *args) -> str:
    """The report's repr, or the DomainError's message."""
    try:
        return repr(check(*args))
    except DomainError as exc:
        return f"DomainError: {exc}"


def test_stacked_verdicts_are_the_per_condition_ones():
    """The stacked pass gives the report one ``_judge`` per assumption
    gives (``tests/reference_verdicts.py``), repr for repr: on 2,000 seeded
    grids over the five desks' technologies, centers 10**U(-2, 2) on each
    axis, factors from 1.5 to 1e6 and 3, 5 or 7 points."""
    rng = np.random.default_rng(0)
    for case in range(2000):
        args = (DESK_TECHS[case % 5], tuple(10.0 ** rng.uniform(-2.0, 2.0, 4)),
                (1.5, 2.0, 10.0, 1e3, 1e6)[rng.integers(5)], (3, 5, 7)[rng.integers(3)])
        assert _report(check_assumptions, *args) == _report(reference_verdicts.check_assumptions,
                                                            *args), args


@pytest.mark.parametrize("args", [
    # sigma below rho_c and rho_m: A1 and A2 fail
    (dataclasses.replace(COMPLEMENTS, sigma_top=-1.0, rho_c=0.5, rho_m=0.8),),
    (dataclasses.replace(SUBSTITUTE, sigma_top=-1.0, rho_c=0.5), (0.3, 0.7, 2.0, 0.5), 10.0, 7),
    # sigma above 1, which no valid config has: A3 fails on its L_c partial
    (dataclasses.replace(COMPLEMENTS, sigma_top=3.0), (0.3, 0.7, 2.0, 0.5), 4.0, 5),
    (regime_a_economy().tech, (1.0, 1.0, 1.0, 1.0), 1e80),
    (COMPLEMENTS, (1.0, 1.0, np.nan, 1.0)),
], ids=["complements_fail", "substitute_fail", "a3_fail", "overflow", "nan_center"])
def test_stacked_verdicts_fail_and_refuse_as_before(args):
    """Failing verdicts, and the non-finite-grid DomainError's message, are
    the per-condition reference's too."""
    want = _report(reference_verdicts.check_assumptions, *args)
    assert _report(check_assumptions, *args) == want
    assert "verdict='fail'" in want or want.startswith("DomainError: ratio derivatives")


# partials at and around the strictness margin: a margin just beyond, at
# and within TOL_STRICT on either side
_EDGES = (-1e-7, -2e-8, -1e-8, -5e-9, -0.0, 0.0, 5e-9, 1e-8, 2e-8, 1e-7)


@settings(max_examples=300)
@given(st.dictionaries(st.integers(0, 4 * 3**4 - 1), st.sampled_from(_EDGES), max_size=6))
def test_stacked_verdicts_on_partials_at_the_margin(edges):
    """On a 3-point grid whose four partials all have the required sign,
    margin 1, except at a few entries drawn at the strictness margin, the
    stacked pass gives the per-condition reference's report: the margins
    tie across the grid and across A3's two conditions, and straddle
    -TOL_STRICT and TOL_STRICT."""
    partials = np.repeat([-1.0, 1.0, 1.0, -1.0], 3**4)  # each partial's required sign
    for at, value in edges.items():
        partials[at] = value
    fake = lambda tech, ev, *mesh: tuple(partials.reshape(4, 3, 3, 3, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(production, "mpl_ratio_gradient", fake)
        mp.setattr(reference_verdicts, "mpl_ratio_gradient", fake)
        assert repr(check_assumptions(COMPLEMENTS, points=3)) == repr(
            reference_verdicts.check_assumptions(COMPLEMENTS, points=3))


def test_grid4_validation(monkeypatch):
    """The grid is checked where it enters: a factor of at most 1 or fewer
    than 3 points is refused.  The box is log-spaced over [x / factor,
    x * factor] on each axis around the center."""
    with pytest.raises(DomainError, match="grid points must be at least 3"):
        check_assumptions(COMPLEMENTS, points=2)
    with pytest.raises(DomainError, match="grid factor must be finite and exceed 1"):
        check_assumptions(COMPLEMENTS, factor=1.0)
    meshes = []

    def recorded(tech, *mesh):
        meshes.append(mesh)
        return evaluate(tech, *mesh)

    monkeypatch.setattr(production, "evaluate", recorded)
    center = (1.0, 0.5, 2.0, 3.0)
    check_assumptions(COMPLEMENTS, center, factor=2.0, points=5)
    (mesh,) = meshes
    for axis, (values, c) in enumerate(zip(mesh, center)):
        assert values.shape == tuple(5 if a == axis else 1 for a in range(4))
        np.testing.assert_array_equal(values.ravel(), np.geomspace(c / 2.0, c * 2.0, 5))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_grid4_rejects_non_finite_axes(value):
    """A center coordinate that is not finite gives a NaN grid axis, and
    the check names the grid instead of giving a verdict."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"derivatives must be finite.* K \[nan, nan\]"):
            check_assumptions(COMPLEMENTS, (1.0, 1.0, value, 1.0))


def test_output_domain():
    with pytest.raises(DomainError):
        grad_check(COMPLEMENTS, (1.0, 1.0, 1.0), 1e-6)
    with pytest.raises(DomainError):
        grad_check(COMPLEMENTS, (1.0, 1.0, 1.0, 1.0), 2.0)
