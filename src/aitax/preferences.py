"""Preferences: consumption utility and labor disutility.

u, u', u'', nu, nu' and nu'' are plain formulas with no domain check:
consumption must be strictly positive and labor nonnegative, which their
callers ensure.  They take Python floats, numpy scalars or arrays, and
give the same bits on floats and on numpy scalars, which lets
``foc_residuals`` reproduce the Newton residual; on arrays a power can
round a last bit apart (numpy's vector loop is not libm).  Only log utility
is a numpy call (``np.log``); on Python floats the others raise
ZeroDivisionError or OverflowError where numpy would return inf.
"""

from __future__ import annotations

import numpy as np

from .economy import PreferenceParams, UtilityForm


def u_eval(prefs: PreferenceParams, c):
    """Consumption utility u(c)."""
    if prefs.u_form is UtilityForm.LOG:
        return np.log(c)
    g = prefs.gamma
    return c ** (1.0 - g) / (1.0 - g)


def u_prime(prefs: PreferenceParams, c):
    """Marginal utility u'(c)."""
    if prefs.u_form is UtilityForm.LOG:
        return 1.0 / c
    return c ** (-prefs.gamma)


def u_second(prefs: PreferenceParams, c):
    """Curvature u''(c) of consumption utility."""
    if prefs.u_form is UtilityForm.LOG:
        return -1.0 / (c * c)
    return -prefs.gamma * c ** (-prefs.gamma - 1.0)


def nu_eval(prefs: PreferenceParams, l):
    """Labor disutility nu(l) = psi * l**(1+phi) / (1+phi)."""
    return prefs.psi * l ** (1.0 + prefs.phi) / (1.0 + prefs.phi)


def nu_prime(prefs: PreferenceParams, l):
    """Marginal disutility nu'(l) = psi * l**phi."""
    return prefs.psi * l**prefs.phi


def nu_second(prefs: PreferenceParams, l):
    """Curvature nu''(l) = psi * phi * l**(phi-1) of labor disutility."""
    return prefs.psi * prefs.phi * l ** (prefs.phi - 1.0)
