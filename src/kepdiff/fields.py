"""Closed-form fields of the limiting diffusion.

Every analytic quantity lives here: the complex nodal coordinate, the
principal drift root and its real/imaginary parts (alpha, beta), the
complex velocity field, the gradients of the log-amplitude and phase of
the limiting wave function, the drift itself, the drift jump set in the
y = 0 plane, and the cylindrical Keplerian elliptic coordinates.

All evaluators are vectorised: points are arrays of shape (..., 3) and
results broadcast over the leading axes.  Scalar convenience falls out of
passing a single (3,) point.

The spatial nu and |x| of the drift and the wave come from one unchecked
kernel, :func:`_nodal`.  :func:`nodal_coordinate` and :func:`drift_root`
reject the origin on top of it; :func:`drift_root` also rejects the
focal ray nu = 0, warns at nu = 4 and hands nu and |x| back with the
root, so its callers compute neither again and divide by no zero |x|.
Two other routes stay apart from it: :func:`eccentric_angle` forms the
planar nu of the (u, v) coordinates with ``np.hypot``, and
:func:`radius` gives |x| to :func:`alpha_beta` and
:func:`wave_gradients`, the explicit-radical route that the tests hold
against :func:`drift_root`.

Conventions fixed here (and exercised by the test suite):

* the drift root w = sqrt(1 - 4/nu) uses the principal square root
  (branch cut on the negative real axis, Re >= 0), so alpha = Re w >= 0
  and beta = Im w;
* writing the wave function as exp(R + iS), the complex velocity is
  Z = eps^2 * grad(S - i R), hence grad R = -Im Z / eps^2 and
  grad S = Re Z / eps^2;
* the drift is b = Re Z - Im Z = eps^2 * grad(R + S).
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.spatial import cKDTree

from .params import BranchPointWarning, PhysParams, SingularPointError

#: Points closer to the origin than this multiple of the semimajor axis
#: are treated as singular (the drift blows up at |x| = 0).
ORIGIN_TOL = 1e-12

#: Polyline points per jump-set boundary curve in :func:`jump_distance_many`.
JUMP_MESH = 2048


def as_points(pt):
    """The input as a float array of points, shape (..., 3)."""
    pt = np.asarray(pt, dtype=float)
    if pt.shape[-1] != 3:
        raise ValueError(f"points must have shape (..., 3), got {pt.shape}")
    return pt


def radius(pt):
    """Euclidean norm |x| over the last axis."""
    return np.sqrt(np.sum(pt * pt, axis=-1))


def _check_origin(p: PhysParams, r):
    if np.any(r <= ORIGIN_TOL * p.a):
        raise SingularPointError("field evaluation at the origin")
    if not np.all(np.isfinite(r)):  # a NaN coordinate, or squares overflowed
        raise SingularPointError("field evaluation where |x| is not finite")


def _nodal(p: PhysParams, X):
    """(|x|, nu) at stacked coordinates X, shape (3, ...); unchecked.

    p.ecc, p.axis_ratio and p.nodal_scale may be arrays that broadcast
    against X[0] (the simulator's per-lane parameters); a lane's values
    are then the same bit for bit as with that lane's PhysParams.
    """
    e = p.ecc
    XX = X * X
    r = np.sqrt(XX[0] + XX[1] + XX[2])
    return r, p.nodal_scale * (r - X[0] / e - 1j * X[1] * p.axis_ratio / e)


def nodal_coordinate(p: PhysParams, pt):
    """Complex coordinate locating a point relative to the nodal set.

    Returns (mu/lam^2) * (|x| - x/e - i y sqrt(1-e^2)/e).  The drift jump
    set corresponds to real values in (0, 4); the attracting ellipse is
    the curve traced by 2 - cos(v)(1+e^2)/e - i sin(v)(1-e^2)/e.
    """
    r, nu = _nodal(p, np.moveaxis(as_points(pt), -1, 0))
    _check_origin(p, r)
    return nu


def drift_root(p: PhysParams, pt):
    """Principal square root w = sqrt(1 - 4/nu) of the nodal coordinate.

    Returns (w, nu, |x|).  alpha = Re w >= 0 and beta = Im w are the two
    scalars that assemble the drift.  Rejects the origin and the focal
    ray nu = 0; warns when |1 - 4/nu| is within 1e-12 of the branch point.
    """
    r, nu = _nodal(p, np.moveaxis(as_points(pt), -1, 0))
    _check_origin(p, r)
    if np.any(nu == 0):
        raise SingularPointError("nodal coordinate vanished (focal ray)")
    arg = 1 - 4 / nu
    if np.any(np.abs(arg) < 1e-12):
        warnings.warn("evaluation at the branch point of the drift root",
                      BranchPointWarning, stacklevel=2)
    return np.sqrt(arg), nu, r


def alpha_beta(p: PhysParams, pt):
    """The pair (alpha, beta) from the explicit Cartesian radicals.

    This is the closed-form route; it agrees with the real/imaginary
    parts of :func:`drift_root` to rounding (a property test pins that).
    Raises on the degenerate focal ray where e|x| = x and y = 0.
    """
    pt = as_points(pt)
    x, y = pt[..., 0], pt[..., 1]
    r = radius(pt)
    _check_origin(p, r)
    e = p.ecc
    c = 4 * p.lam ** 2 * e / p.mu
    A = e * r - x
    B2 = (1 - e * e) * y * y
    D = A * A + B2
    if np.any(D <= 0):
        raise SingularPointError(
            "degenerate denominator on the focal ray (e|x| = x, y = 0)")
    # w^2 = 1 - 4/nu has modulus 2 t1 and real part 2 t2, so
    # alpha^2 = t1 + t2 and beta^2 = t1 - t2.  Near the jump set one of
    # the two radicands cancels; take the larger of alpha and |beta| from
    # the one that cannot, and the other from
    # alpha beta = Im(1 - 4/nu)/2 = -c sqrt(1-e^2) y / (2 D).
    t1 = 0.5 * np.sqrt(((A - c) ** 2 + B2) / D)
    t2 = 0.5 * ((A - c / 2) ** 2 + B2 - c * c / 4) / D
    big = np.sqrt(t1 + np.abs(t2))
    # big = 0 only at the branch point nu = 4, where y = 0 and so small = 0
    small = -c / 2 * p.axis_ratio * y / (D * np.where(big > 0, big, 1.0))
    re_pos = t2 >= 0
    alpha = np.where(re_pos, big, np.abs(small))
    # principal root: beta >= 0 on the jump set itself (y = 0)
    beta = np.where(re_pos, small, np.where(small < 0, -big, big))
    return alpha, beta


def complex_velocity(p: PhysParams, pt):
    """Limiting complex velocity field Z, shape (..., 3) complex.

    Z = (i mu / 2 lam)(1 + w) x/|x|
        + (mu / 2 lam e)(1 - w) (i, -sqrt(1-e^2), 0),
    with w the principal drift root.  Satisfies the energy identity
    Z.Z/2 - mu/|x| = -mu^2/(2 lam^2) everywhere it is defined.
    """
    pt = as_points(pt)
    w, _, r = drift_root(p, pt)
    unit = pt / r[..., None]
    fixed = np.array([1j, -p.axis_ratio, 0.0])
    out = (1j * p.mu / (2 * p.lam)) * (1 + w)[..., None] * unit \
        + (p.mu / (2 * p.lam * p.ecc)) * (1 - w)[..., None] * fixed
    return out


def wave_gradients(p: PhysParams, pt):
    """Gradients of the log-amplitude R and phase S of the limiting state.

    Returns (grad_R, grad_S), each shape (..., 3), for the eps stored in
    ``p``.  Built from (alpha, beta) with the prefactor -mu/(2 e lam eps^2);
    the two vectors are orthogonal and reconstruct the complex velocity
    through Z = eps^2 (grad_S - i grad_R).
    """
    pt = as_points(pt)
    alpha, beta = alpha_beta(p, pt)
    e, sq = p.ecc, p.axis_ratio
    pre = -p.mu / (2 * e * p.lam * p.eps ** 2)
    unit = pt / radius(pt)[..., None]
    grad_r = pre * ((1 + alpha)[..., None] * e * unit
                    + np.stack([1 - alpha, beta * sq,
                                np.zeros_like(alpha)], axis=-1))
    grad_s = pre * (beta[..., None] * e * unit
                    + np.stack([-beta, (1 - alpha) * sq,
                                np.zeros_like(alpha)], axis=-1))
    return grad_r, grad_s


def drift(p: PhysParams, pt):
    """Drift b of the limiting diffusion, shape (..., 3).

    :func:`drift_components` on the points, after rejecting the origin
    and the focal ray (nu = 0), where the drift is undefined.  It
    equals Re Z - Im Z.  On the attracting ellipse the drift is tangent
    with the Kepler speed (mu/lam) sqrt((1+e cos v)/(1-e cos v)).
    """
    X = np.moveaxis(as_points(pt), -1, 0)
    r, nu = _nodal(p, X)
    _check_origin(p, r)
    if np.any(nu == 0):
        raise SingularPointError("drift on the focal ray (e|x| = x, y = 0)")
    return np.moveaxis(_drift(p, X, r, nu), 0, -1)


def drift_components(p: PhysParams, X):
    """The drift (b_x, b_y, b_z) at stacked coordinates X; unchecked.

    X has shape (3, ...), one leading row per coordinate (a (3,) point
    included), and the drift comes back in a new array of the same
    shape.  With w = alpha + i beta the principal drift root,
        b_x = (mu/2lam) ((alpha+beta-1)/e - (alpha+beta+1) x/|x|)
        b_y = (mu/2lam) ((alpha-beta-1) sqrt(1-e^2)/e - (alpha+beta+1) y/|x|)
        b_z = -(mu/2lam) (alpha+beta+1) z/|x|
    with |x| = sqrt((x^2 + y^2) + z^2).  This is the one implementation
    of the drift: :func:`drift`, the simulator, the orbit integrator and
    the generator assembly all call it.  The origin and the focal ray
    give non-finite values instead of an error; use :func:`drift` where
    the input is not known to be valid.  As in :func:`_nodal`, p.ecc,
    p.axis_ratio, p.nodal_scale and p.drift_scale may be arrays that
    broadcast against X[0].
    """
    return _drift(p, X, *_nodal(p, X))


def _drift(p: PhysParams, X, r, nu):
    """:func:`drift_components` from |x| and nu already at hand."""
    e, sq, k = p.ecc, p.axis_ratio, p.drift_scale
    w = np.sqrt(1 - 4 / nu)
    alpha, beta = w.real, w.imag
    ab = alpha + beta
    s = (ab + 1) / r
    sxy = s * X[:2]
    B = np.empty(X.shape)
    # B[i, ...] is a view even when X is a single (3,) point
    np.multiply(k, (ab - 1) / e - sxy[0], out=B[0, ...])
    np.multiply(k, (alpha - beta - 1) * sq / e - sxy[1], out=B[1, ...])
    np.multiply(-k * s, X[2], out=B[2, ...])
    return B


def field_report(p: PhysParams, pt) -> dict:
    """Every local field quantity at one (3,) point, as JSON-ready lists:
    nu, alpha, beta, the complex velocity z (as [re, im] per component),
    grad_r, grad_s and the drift."""
    pt = as_points(pt)
    nu = complex(nodal_coordinate(p, pt))
    alpha, beta = alpha_beta(p, pt)
    grad_r, grad_s = wave_gradients(p, pt)
    return {
        "nu": [nu.real, nu.imag],
        "alpha": float(alpha),
        "beta": float(beta),
        "z": [[zc.real, zc.imag] for zc in complex_velocity(p, pt)],
        "grad_r": list(map(float, grad_r)),
        "grad_s": list(map(float, grad_s)),
        "drift": list(map(float, drift(p, pt))),
    }


# ---------------------------------------------------------------------------
# the drift jump set (the y = 0 region where the drift root is imaginary)
# ---------------------------------------------------------------------------

def jump_interval(p: PhysParams, z):
    """x-interval of the drift jump set in the y = 0 plane at height z.

    The set is { (x, 0, z) : left(z) < x < right(z) } with
        left(z)  = e (sqrt(16 a^2 e^2 + z^2 (1-e^2)) - 4a) / (1-e^2)
        right(z) = e |z| / sqrt(1-e^2).
    The interval is nonempty for every z; its width tends to
    4 a e / (1-e^2) as |z| grows.
    """
    z = np.asarray(z, dtype=float)
    e, a = p.ecc, p.a
    left = e * (np.sqrt(16 * a * a * e * e + z * z * (1 - e * e)) - 4 * a) \
        / (1 - e * e)
    right = e * np.abs(z) / p.axis_ratio
    return left, right


def in_jump_set(p: PhysParams, x, z, pad=0.0):
    """Whether (x, 0, z) lies in the (closed, optionally padded) jump set."""
    left, right = jump_interval(p, z)
    return (np.asarray(x) >= left - pad) & (np.asarray(x) <= right + pad)


def near_jump_set(p: PhysParams, pts, tol):
    """Fast conservative proximity test against the jump set.

    True whenever a point is within tol of the set (and possibly for a
    thin shell slightly beyond, since the planar interval is inflated by
    the worst-case boundary slope).  Suited to carving exclusion tubes
    out of large samples without computing exact distances.
    """
    pts = as_points(pts)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    pad = 2.0 * tol / p.axis_ratio
    return (np.abs(y) <= tol) & in_jump_set(p, x, z, pad=pad)


def jump_distance_many(p: PhysParams, pts, z_max=None):
    """Euclidean distance from points to (the closure of) the jump set.

    Zero inside the set.  The planar part is the distance to the nearest
    vertex of a JUMP_MESH-point polyline along each boundary curve,
    found with a k-d tree; its accuracy is set by the polyline
    resolution, plenty for the recorded diagnostics.  The polyline spans
    |z| <= max(2 z_max, 8a), z_max being the points' largest |z| unless
    given: pieces of one point set measure against one polyline when
    each is passed the whole set's z_max.
    """
    pts = as_points(pts)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    if z_max is None:
        z_max = float(np.max(np.abs(z), initial=0.0))
    zmax = max(2.0 * z_max, 8 * p.a)
    zs = np.linspace(-zmax, zmax, JUMP_MESH)
    left, right = jump_interval(p, zs)
    tree = cKDTree(np.column_stack([np.concatenate([left, right]),
                                    np.concatenate([zs, zs])]))
    plane, _ = tree.query(np.column_stack([x.ravel(), z.ravel()]))
    plane = np.where(in_jump_set(p, x, z), 0.0, plane.reshape(x.shape))
    return np.sqrt(plane * plane + y * y)


# ---------------------------------------------------------------------------
# cylindrical Keplerian elliptic coordinates
# ---------------------------------------------------------------------------

def from_elliptic(p: PhysParams, coords):
    """Map a (u, v, z) triple of scalars or arrays to Cartesian points.

    u in (-e, 1] labels a family of nested ellipses with one focus at the
    origin (u = ecc is the attracting ellipse, u = 1 the jump segment,
    u -> -e the ellipse at infinity); v in [0, 2 pi) is the eccentric
    angle on the attracting ellipse; z passes through.
    x = 2 a e (cos v - u)/(e + u),  y = 2 a e sqrt(1-u^2) sin v/(e + u).
    """
    u, v, z = coords
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    z = np.asarray(z, dtype=float)
    e, a = p.ecc, p.a
    if np.any(u <= -e) or np.any(u > 1):
        raise SingularPointError(f"u out of range (-e, 1]")
    s = 2 * a * e / (e + u)
    x = s * (np.cos(v) - u)
    y = s * np.sqrt(np.maximum(1 - u * u, 0.0)) * np.sin(v)
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def eccentric_angle(p: PhysParams, x, y):
    """Complex eccentric angle w = v - i xi at coordinate arrays x, y.

    w = arccos(1 - nu/2), or 2 pi minus it where y < 0, for the planar
    nodal coordinate nu = (hypot(x, y) - x/e - i y sqrt(1-e^2)/e)/a.
    xi >= 0 labels the u-ellipse, cosh xi = (1 + e u)/(e + u); the segment
    u = 1 is xi = 0, with ends w = 0 (nu = 0) and w = pi (nu = 4).
    """
    e, a = p.ecc, p.a
    nu = (np.hypot(x, y) - x / e - 1j * y * p.axis_ratio / e) / a
    w = np.arccos(1 - nu / 2)
    return np.where(y < 0, 2 * np.pi - w, w)


def elliptic_uv(p: PhysParams, x, y):
    """(u, v) at Cartesian coordinate arrays x, y; unchecked, vectorised.

    v = Re w and u = (1 - e cosh xi)/(cosh xi - e) for the complex angle
    w = v - i xi of :func:`eccentric_angle`.  The planar origin maps to
    (1, 0).
    """
    w = eccentric_angle(p, x, y)
    ch = np.cosh(w.imag)
    return (1 - p.ecc * ch) / (ch - p.ecc), w.real


def to_elliptic(p: PhysParams, pt):
    """(u, v, z) at Cartesian points, each of the points' leading shape.

    Rejects the planar origin, where v is undefined, then evaluates
    :func:`elliptic_uv`.  Round-trips with :func:`from_elliptic` to
    1e-10 max(a, hypot(x, y)) while u <= 1 - 1e-6; nearer the segment
    u = 1, a float u holds sqrt(1 - u^2), and so y, less well.
    """
    pt = as_points(pt)
    x, y, z = pt[..., 0], pt[..., 1], pt[..., 2]
    if np.any(np.hypot(x, y) <= 0):
        raise SingularPointError("coordinate inversion at the planar origin")
    u, v = elliptic_uv(p, x, y)
    return u, v, np.asarray(z, dtype=float)


def ellipse_point(p: PhysParams, v):
    """Point of the attracting ellipse at eccentric angle v (z = 0).

    x(v) = (a (cos v - e), a sqrt(1-e^2) sin v, 0); the radius is
    a (1 - e cos v).
    """
    v = np.asarray(v, dtype=float)
    e, a = p.ecc, p.a
    return np.stack(np.broadcast_arrays(
        a * (np.cos(v) - e), a * p.axis_ratio * np.sin(v),
        np.zeros_like(v)), axis=-1)


def ellipse_tangent(p: PhysParams, v):
    """Unit tangent of the attracting ellipse at eccentric angle v."""
    v = np.asarray(v, dtype=float)
    a = p.a
    t = np.stack(np.broadcast_arrays(
        -a * np.sin(v), a * p.axis_ratio * np.cos(v),
        np.zeros_like(v)), axis=-1)
    return t / np.linalg.norm(t, axis=-1, keepdims=True)


def kepler_speed(p: PhysParams, v):
    """Deterministic orbit speed on the ellipse (vis-viva form)."""
    v = np.asarray(v, dtype=float)
    e = p.ecc
    return (p.mu / p.lam) * np.sqrt((1 + e * np.cos(v)) / (1 - e * np.cos(v)))
