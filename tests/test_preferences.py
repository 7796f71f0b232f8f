import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aitax.economy import PreferenceParams, UtilityForm
from aitax.errors import DomainError
from aitax.preferences import nu_eval, nu_prime, nu_second, u_eval, u_prime, u_second
from incentives import lifetime_utility, mimic_labor

LOG = PreferenceParams(beta=0.96)
CRRA2 = PreferenceParams(beta=0.96, u_form=UtilityForm.CRRA, gamma=2.0)


def test_log_values():
    assert u_eval(LOG, 1.0) == 0.0
    assert u_prime(LOG, 0.5) == 2.0


def test_crra_values():
    assert u_eval(CRRA2, 2.0) == pytest.approx(-0.5)
    assert u_prime(CRRA2, 2.0) == pytest.approx(0.25)


def test_nu_values():
    prefs = PreferenceParams(beta=0.9, psi=2.0, phi=3.0)
    assert nu_eval(prefs, 1.0) == pytest.approx(0.5)
    assert nu_prime(prefs, 2.0) == pytest.approx(16.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        mimic_labor(1.0, 1.0, 0.0)


@given(c=st.floats(1e-6, 1e6), d=st.floats(1e-6, 1e6))
def test_u_increasing_and_concave(c, d):
    """u' > 0 everywhere, and u' decreasing (checked pairwise)."""
    for prefs in (LOG, CRRA2):
        assert u_prime(prefs, c) > 0.0
        lo, hi = min(c, d), max(c, d)
        assert u_prime(prefs, lo) >= u_prime(prefs, hi)


@given(l=st.floats(0.0, 1e3), m=st.floats(0.0, 1e3))
def test_nu_increasing_and_convex(l, m):
    for prefs in (LOG, PreferenceParams(beta=0.9, psi=0.5, phi=2.0)):
        lo, hi = min(l, m), max(l, m)
        assert nu_eval(prefs, lo) <= nu_eval(prefs, hi)
        assert nu_prime(prefs, lo) <= nu_prime(prefs, hi)


@given(
    l=st.floats(0.0, 100.0),
    w_other=st.floats(1e-3, 1e3),
    w_own=st.floats(1e-3, 1e3),
)
def test_mimic_labor_matches_income(l, w_other, w_own):
    lm = mimic_labor(l, w_other, w_own)
    assert lm * w_own == pytest.approx(l * w_other, rel=1e-12, abs=1e-300)


def test_lifetime_utility_stationary_vs_path():
    # a constant path converges to the stationary value as T grows
    prefs = LOG
    stationary = lifetime_utility(prefs, 0.8, 0.5)
    T = 2000
    path = lifetime_utility(prefs, np.full(T, 0.8), np.full(T, 0.5))
    assert path == pytest.approx(stationary, rel=1e-8)
    truncation = stationary * prefs.beta**T
    assert abs(path - (stationary - truncation)) < 1e-9


def test_lifetime_utility_finite_sum():
    prefs = PreferenceParams(beta=0.5)
    got = lifetime_utility(prefs, np.array([1.0, math.e]), np.zeros(2))
    assert got == pytest.approx(0.0 + 0.5 * 1.0)


@pytest.mark.parametrize("phi", [1.0, 1.7636])
@pytest.mark.parametrize("u_form", ["log", "crra"])
def test_floats_and_numpy_scalars_give_the_same_bits(u_form, phi):
    """A steady state's Newton residual runs on Python floats and
    ``foc_residuals`` on numpy scalars; both reproduce the same residual
    because each of the six formulas gives the same bits on either.  Arrays
    are not held to it: numpy's vector power loop can round a last bit
    apart from libm's."""
    prefs = PreferenceParams(beta=0.96, u_form=UtilityForm(u_form),
                             gamma=2.0 if u_form == "crra" else None, psi=0.7, phi=phi)
    rng = np.random.default_rng(0)
    points = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 2000)).tolist()
    for fn in (u_eval, u_prime, u_second, nu_eval, nu_prime, nu_second):
        on_floats = [fn(prefs, x) for x in points]
        on_scalars = [fn(prefs, np.float64(x)) for x in points]
        assert np.array(on_floats).tobytes() == np.array(on_scalars).tobytes(), fn.__name__
