"""Small adaptive quadrature utility.

Adaptive Simpson with Richardson correction to the absolute tolerance
TOL; plenty for the smooth periodic integrands of the measure module.
Kept in-repo so the dual closed-form / quadrature checks do not share an
implementation with any library routine used as a test oracle.

The integrand is vectorised: bisection runs breadth first, one call of f
per level for every interval of a batch, with the depth-first
recursion's nodes, tolerance test and additions, hence its bits.
"""

from __future__ import annotations

import numpy as np

from .params import ConvergenceError

#: Absolute tolerance of every integral :func:`adaptive_quad` returns.
TOL = 1e-12

#: Bisection depth at which :func:`adaptive_quad` gives up.
MAX_DEPTH = 48

#: Bisections in one call at which :func:`adaptive_quad` gives up: a
#: level holds every open interval, so an integrand that never meets the
#: tolerance would otherwise grow the levels toward 2**MAX_DEPTH.
MAX_BISECTIONS = 1 << 20


def _simpson(a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _values(f, x):
    y = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(y)):
        raise ConvergenceError("adaptive quadrature met a non-finite "
                               "integrand value")
    return y


def adaptive_quad(f, a, b):
    """Integrate f on [a, b] to absolute tolerance TOL.

    f maps a 1-d array of abscissae to the integrand's values there.  a
    and b broadcast against each other, one integral per interval:
    scalar ends give a float, other ends an array of their broadcast
    shape.  Each interval is bisected until the Simpson estimates of
    its halves agree with the whole to 15 TOL, the tolerance halving
    with each level; a reversed interval gives the negated integral.
    Raises ConvergenceError when f returns a non-finite value, or when
    an interval still needs bisecting after MAX_DEPTH levels or after
    MAX_BISECTIONS bisections.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    out = np.zeros(a.shape)
    live = a != b
    if live.any():
        a, b = a[live], b[live]
        m = 0.5 * (a + b)
        fa, fb, fm = np.split(_values(f, np.concatenate([a, b, m])), 3)
        whole = _simpson(a, fa, b, fb, fm)
        levels = []  # per level: the nodes' leaf values, the nodes split
        bisections, tol = 0, TOL
        for depth in range(MAX_DEPTH, -1, -1):
            lm = 0.5 * (a + m)
            rm = 0.5 * (m + b)
            flm, frm = np.split(_values(f, np.concatenate([lm, rm])), 2)
            left = _simpson(a, fa, m, fm, flm)
            right = _simpson(m, fm, b, fb, frm)
            err = left + right - whole
            split = np.flatnonzero(~((np.abs(err) <= 15.0 * tol)
                                     | (np.abs(b - a) < 1e-14)))
            levels.append((left + right + err / 15.0, split))
            if split.size == 0:
                break
            bisections += split.size
            if depth == 0:
                raise ConvergenceError("adaptive quadrature hit max depth")
            if bisections > MAX_BISECTIONS:
                raise ConvergenceError(
                    f"adaptive quadrature exceeded {MAX_BISECTIONS} "
                    "bisections")
            tol = 0.5 * tol
            # the next level: the split nodes' left halves, then their
            # right halves
            kids = np.stack([a, fa, m, fm, lm, flm, left,
                             m, fm, b, fb, rm, frm, right])[:, split]
            a, fa, b, fb, m, fm, whole = np.hstack([kids[:7], kids[7:]])
        # bottom-up: a split node is the sum of its halves, the addition
        # the recursion made
        total = None
        for value, split in reversed(levels):
            if total is not None:
                value[split] = total[:split.size] + total[split.size:]
            total = value
        out[live] = total
    return float(out) if out.ndim == 0 else out
