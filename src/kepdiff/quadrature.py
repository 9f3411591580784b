"""Small adaptive quadrature utility.

Adaptive Simpson with Richardson correction; plenty for the smooth
periodic integrands that appear in the measure module.  Kept in-repo so
the dual closed-form / quadrature checks do not share an implementation
with any library routine used as a test oracle.
"""

from __future__ import annotations

from .params import ConvergenceError

#: Bisection depth at which :func:`adaptive_quad` gives up.
MAX_DEPTH = 48


def _simpson(a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(a, fa, m, fm, flm)
    right = _simpson(m, fm, b, fb, frm)
    err = left + right - whole
    if abs(err) <= 15.0 * tol or (b - a) < 1e-14:
        return left + right + err / 15.0
    if depth <= 0:
        raise ConvergenceError("adaptive quadrature hit max depth")
    half = 0.5 * tol
    return (_adapt(f, a, fa, m, fm, lm, flm, left, half, depth - 1)
            + _adapt(f, m, fm, b, fb, rm, frm, right, half, depth - 1))


def adaptive_quad(f, a, b, tol=1e-12):
    """Integrate a scalar callable on [a, b] to absolute tolerance tol."""
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(a, fa, b, fb, fm)
    return _adapt(f, a, fa, b, fb, m, fm, whole, tol, MAX_DEPTH)
