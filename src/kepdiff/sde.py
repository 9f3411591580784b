"""Ensemble Euler-Maruyama simulation of dX = b(X) dt + eps dB.

The drift is discontinuous across the jump set and blows up only at the
origin, so Euler-Maruyama is the right tool; higher-order schemes buy
nothing here.  The drift and the recorded (u, v) coordinates come from
the unchecked kernels :func:`fields.drift_components` and
:func:`fields.elliptic_uv`; the zero-noise orbit integrates the same
drift with an adaptive ODE solver.  Paths that fall into the origin
ball, or whose step leaves the finite numbers, are truncated (kept
frozen and flagged), never aborted, and excluded from stationary
statistics.

The ensemble step loop vectorises across paths and is bound by the
number of numpy calls per step, not by arithmetic: the state is one
contiguous array per coordinate, every update writes into a
preallocated buffer, the noise is scaled by eps sqrt(dt) once per chunk
of steps, and the masks for truncated paths only run after a path has
truncated.  None of this changes the arithmetic, so the output is the
same bit for bit as a plain (n_paths, 3) implementation.

Reproducibility: noise comes from one Philox4x64-10 bit generator per
path, keyed by (seed, path_index).  A path's noise is its generator's
standard-normal stream consumed in (step, component) row-major order,
so ensembles are bit-identical for identical configurations and paths
are independent streams regardless of how the runner batches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .fields import (drift_components, elliptic_uv, in_jump_set,
                     jump_distance_many)
from .params import ConfigError, ConvergenceError, PhysParams, SingularPointError

#: Convergence-tube half-widths used by the diagnostics (acceptance
#: parameters: a path counts as converged when |u - e| < CONV_U_TOL and
#: |z| < CONV_Z_TOL).
CONV_U_TOL = 0.15
CONV_Z_TOL = 0.2

_NOISE_CHUNK = 2048

#: Capped steps stop adding to ``TrajectoryEnsemble.cap_reject_points``
#: once it holds this many points (the step that crosses the limit
#: still adds all of its points).
MAX_CAP_REJECT_POINTS = 10_000


@dataclass(frozen=True)
class RingStart:
    """Start paths evenly spaced on a circle of given radius in a z-plane."""

    radius: float
    z: float = 0.0

    def points(self, n_paths: int) -> np.ndarray:
        th = 2 * np.pi * np.arange(n_paths) / n_paths
        return np.stack([self.radius * np.cos(th),
                         self.radius * np.sin(th),
                         np.full(n_paths, self.z)], axis=1)

    def as_dict(self):
        return {"ring": {"radius": self.radius, "z": self.z}}


def default_drift_cap(p: PhysParams) -> float:
    """Cap on |b| before a step's drift is rescaled.

    10 mu/(lam eps): large enough that only the genuine origin blowup is
    capped (the drift on physical scales is O(mu/lam)).
    """
    return 10 * p.mu / (p.lam * p.eps)


@dataclass
class SimConfig:
    params: PhysParams
    dt: float = None
    n_steps: int = 50_000
    n_paths: int = 256
    seed: int = 0
    x0: object = None           # (3,) point or RingStart
    drift_cap: float = None
    record_stride: int = 10
    compute_jump_dist: bool = True

    def __post_init__(self):
        p = self.params
        if self.dt is None:
            self.dt = 1e-3 * p.lam ** 3 / p.mu ** 2  # milli-periods
        if self.drift_cap is None:
            self.drift_cap = default_drift_cap(p)
        if self.x0 is None:
            self.x0 = RingStart(3 * p.a)
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if self.record_stride < 1:
            raise ConfigError("record_stride must be >= 1")
        if not self.dt * self.drift_cap < 0.5 * p.a:
            raise ConfigError(
                "dt * drift_cap must stay below 0.5 a; a capped step may "
                f"not jump across the system scale (got {self.dt * self.drift_cap})")
        if not np.all(np.isfinite(self.start_points())):
            raise ConfigError("start points must be finite")

    def start_points(self) -> np.ndarray:
        if isinstance(self.x0, RingStart):
            return self.x0.points(self.n_paths)
        pt = np.asarray(self.x0, dtype=float).reshape(3)
        return np.tile(pt, (self.n_paths, 1))

    def record_times(self) -> np.ndarray:
        """Times of the recorded states: every record_stride-th step."""
        return np.arange(0, self.n_steps + 1, self.record_stride) * self.dt

    def as_dict(self) -> dict:
        x0 = self.x0.as_dict() if isinstance(self.x0, RingStart) \
            else list(map(float, np.asarray(self.x0).reshape(3)))
        return {"params": self.params.as_dict(), "dt": self.dt,
                "n_steps": self.n_steps, "n_paths": self.n_paths,
                "seed": self.seed, "x0": x0, "drift_cap": self.drift_cap,
                "record_stride": self.record_stride}


@dataclass
class TrajectoryEnsemble:
    """Recorded ensemble with per-step diagnostics.

    pos has shape (n_paths, n_rec, 3); u, v and dist_sigma align with it.
    Truncated paths stay frozen at their last valid position from the
    truncation step onward.  cap_reject_points holds the pre-step
    positions of capped steps, whole steps at a time, and stops growing
    after the step that brings it to MAX_CAP_REJECT_POINTS (10,000);
    cap_rejections counts every capped step.
    """

    config: SimConfig
    times: np.ndarray
    pos: np.ndarray
    u: np.ndarray
    v: np.ndarray
    dist_sigma: np.ndarray
    truncated: np.ndarray
    truncate_step: np.ndarray
    cap_rejections: np.ndarray
    cap_reject_points: np.ndarray
    jump_crossings: np.ndarray
    start_u: np.ndarray

    @property
    def n_paths(self):
        return self.pos.shape[0]

    @property
    def record_dt(self):
        return self.config.dt * self.config.record_stride

    @property
    def final_positions(self):
        return self.pos[:, -1, :]

    def converged_mask(self, k=-1):
        e = self.config.params.ecc
        return (np.abs(self.u[:, k] - e) < CONV_U_TOL) \
            & (np.abs(self.pos[:, k, 2]) < CONV_Z_TOL) & ~self.truncated

    def stationary_samples(self, burn_in):
        """(u, v, pos) samples past burn_in from non-truncated paths."""
        keep_t = self.times >= burn_in
        keep_p = ~self.truncated
        ix = np.ix_(keep_p, keep_t)
        return self.u[ix], self.v[ix], self.pos[np.ix_(keep_p, keep_t)]


def step(cfg: SimConfig, x, gauss):
    """One Euler-Maruyama step from a single point.

    x + b(x) dt + eps sqrt(dt) gauss, with the drift rescaled to
    magnitude drift_cap when it exceeds the cap.  Raises within
    1e-8 a of the origin, where the drift blows up.
    """
    x = np.asarray(x, dtype=float).reshape(3)
    gauss = np.asarray(gauss, dtype=float).reshape(3)
    p = cfg.params
    r = float(np.linalg.norm(x))
    if r < 1e-8 * p.a:
        raise SingularPointError("step requested inside the origin ball")
    bx, by, bz = drift_components(p, x[0], x[1], x[2])
    b = np.array([bx, by, bz])
    nb = float(np.linalg.norm(b))
    if nb > cfg.drift_cap:
        b *= cfg.drift_cap / nb
    return x + b * cfg.dt + p.eps * math.sqrt(cfg.dt) * gauss


def _path_generators(seed, n_paths):
    return [np.random.Generator(np.random.Philox(key=[seed, i]))
            for i in range(n_paths)]


def simulate_ensemble(cfg: SimConfig) -> TrajectoryEnsemble:
    """Run the full ensemble; bit-identical output for identical cfg.

    The state is a (3, n_paths) array, one contiguous row per
    coordinate.  Each step writes the drift from
    :func:`fields.drift_components` at every lane into a second such
    buffer, turns it into the candidate in place and copies the result
    back into the state.  Where |b| = sqrt((b_x^2 + b_y^2) + b_z^2)
    exceeds drift_cap on an active lane, that lane's drift is rescaled
    by drift_cap / |b| and the step counts as a cap rejection.  The
    candidate is x + b dt plus the noise, which is scaled by
    eps sqrt(dt) once per chunk of _NOISE_CHUNK steps.  An active lane
    truncates at the first step whose candidate has a non-finite
    coordinate or sqrt((x^2 + y^2) + z^2) < 1e-8 a; finite coordinates
    whose squares overflow do not truncate.  After the first
    truncation, inactive lanes keep their position and are left out of
    the cap and crossing counts.  A jump crossing is a sign change of y
    whose midpoint (x, 0, z) lies in the jump set.
    """
    p = cfg.params
    dt, cap = cfg.dt, cfg.drift_cap
    n_paths, n_steps = cfg.n_paths, cfg.n_steps
    origin_r = 1e-8 * p.a

    X0 = cfg.start_points()
    S = X0.T.copy()             # the state, one row per coordinate
    Sn = np.empty_like(S)       # the step's drift, then its candidate
    x, y, z = S
    gens = _path_generators(cfg.seed, n_paths)
    active = np.sqrt(np.sum(X0 * X0, axis=1)) >= origin_r
    frozen = None if np.all(active) else ~active
    truncate_step = np.where(active, -1, 0).astype(np.int64)
    cap_rejections = np.zeros(n_paths, dtype=np.int64)
    reject_pts = []
    crossings = np.zeros(n_paths, dtype=np.int64)

    rec_t = cfg.record_times()
    rec_pos = np.empty((n_paths, rec_t.size, 3))
    rec_pos[:, 0] = X0
    rec_i = 1

    u0, _ = elliptic_uv(p, X0[:, 0], X0[:, 1])

    squares = np.empty_like(S)
    norm = np.empty(n_paths)
    hit = np.empty(n_paths, dtype=bool)
    ok = np.empty(n_paths, dtype=bool)

    def row_norm(A):
        # sqrt((a_x^2 + a_y^2) + a_z^2), the order of np.sum(axis=1)
        np.multiply(A, A, out=squares)
        np.add(squares[0], squares[1], out=norm)
        np.add(norm, squares[2], out=norm)
        return np.sqrt(norm, out=norm)

    scale = p.eps * math.sqrt(dt)
    k = 0
    with np.errstate(all="ignore"):
        while k < n_steps:
            chunk = min(_NOISE_CHUNK, n_steps - k)
            noise = np.empty((chunk, 3, n_paths))
            for i, g in enumerate(gens):
                noise[:, :, i] = g.standard_normal((chunk, 3))
            noise *= scale
            for j in range(chunk):
                Sn[0], Sn[1], Sn[2] = drift_components(p, x, y, z)
                np.greater(row_norm(Sn), cap, out=hit)
                if frozen is not None:
                    hit &= active
                if np.count_nonzero(hit):
                    cap_rejections[hit] += 1
                    if len(reject_pts) < MAX_CAP_REJECT_POINTS:
                        reject_pts.extend(S[:, hit].T.tolist())
                    Sn[:, hit] *= cap / norm[hit]
                Sn *= dt
                Sn += S
                Sn += noise[j]
                # origin_r <= r < inf: every coordinate finite, outside
                # the origin ball; the other lanes get the exact predicate
                r = row_norm(Sn)
                np.greater_equal(r, origin_r, out=ok)
                np.less(r, np.inf, out=hit)
                ok &= hit
                if frozen is not None:
                    ok |= frozen
                if np.count_nonzero(ok) < n_paths:
                    lanes = np.flatnonzero(~ok)
                    bad = lanes[~np.all(np.isfinite(Sn[:, lanes]), axis=0)
                                | (r[lanes] < origin_r)]
                    if bad.size:
                        truncate_step[bad] = k
                        active[bad] = False
                        frozen = ~active
                if frozen is not None:
                    Sn[:, frozen] = S[:, frozen]
                # frozen lanes have Sn == S, so y * y >= 0 keeps them out
                np.multiply(y, Sn[1], out=norm)
                np.less(norm, 0.0, out=hit)
                if np.count_nonzero(hit):
                    xm = 0.5 * (x[hit] + Sn[0, hit])
                    zm = 0.5 * (z[hit] + Sn[2, hit])
                    crossings[hit] += in_jump_set(p, xm, zm)
                S[...] = Sn
                k += 1
                if k % cfg.record_stride == 0:
                    rec_pos[:, rec_i] = S.T
                    rec_i += 1

    flat = rec_pos.reshape(-1, 3)
    u, v = elliptic_uv(p, flat[:, 0], flat[:, 1])
    u = u.reshape(n_paths, rec_t.size)
    v = v.reshape(n_paths, rec_t.size)
    if cfg.compute_jump_dist:
        dist = jump_distance_many(p, flat).reshape(n_paths, rec_t.size)
    else:
        dist = np.full((n_paths, rec_t.size), np.nan)

    return TrajectoryEnsemble(
        config=cfg, times=rec_t, pos=rec_pos, u=u, v=v, dist_sigma=dist,
        truncated=truncate_step >= 0, truncate_step=truncate_step,
        cap_rejections=cap_rejections,
        cap_reject_points=np.array(reject_pts).reshape(-1, 3),
        jump_crossings=crossings, start_u=u0)


def deterministic_orbit(p: PhysParams, n_periods=5):
    """Zero-noise orbit from perihelion; returns (period, time integrated).

    Integrates xdot = b(x) in the z = 0 plane with an adaptive
    Dormand-Prince 8(5,3) solver, together with the eccentric angle
    v = atan2(y / sqrt(1-e^2), x + a e) through its time derivative, and
    stops on the event that v has wound n_periods full turns.  The
    period is the event time over n_periods.  Raises ConvergenceError
    when the winding is not reached within five third-law periods per
    requested turn.
    """
    e, a = p.ecc, p.a
    sq = math.sqrt(1 - e * e)
    target = 2 * math.pi * n_periods

    def rhs(t, state):
        x, y, _ = state
        bx, by, _ = drift_components(p, x, y, 0.0)
        cx, cy = x + a * e, y / sq
        return [bx, by, (cx * by / sq - cy * bx) / (cx * cx + cy * cy)]

    def wound(t, state):
        return state[2] - target
    wound.terminal = True

    sol = solve_ivp(rhs, (0.0, 5 * n_periods * p.orbital_period),
                    [a * (1 - e), 0.0, 0.0], method="DOP853", rtol=1e-10,
                    atol=1e-12 * a, events=wound)
    if sol.t_events[0].size == 0:
        raise ConvergenceError("orbit did not complete the requested windings")
    t_end = float(sol.t_events[0][0])
    return t_end / n_periods, t_end


def areal_velocity(ens: TrajectoryEnsemble):
    """Per-record-interval areal velocity (x dy - y dx)/(2 dt) estimates."""
    x = ens.pos[..., 0]
    y = ens.pos[..., 1]
    dt = ens.record_dt
    return (x[:, :-1] * y[:, 1:] - y[:, :-1] * x[:, 1:]) / (2 * dt)


def orbital_period(ens: TrajectoryEnsemble, path=0):
    """Orbit period measured by winding of the eccentric angle.

    Unwraps the recorded angle of one path, counts whole turns and
    interpolates the crossing time of the last complete turn.
    """
    v = np.unwrap(ens.v[path])
    t = ens.times
    total = v[-1] - v[0]
    n_turn = int(abs(total) // (2 * np.pi))
    if n_turn < 1:
        raise ConfigError("path did not complete a full turn")
    target = v[0] + np.sign(total) * 2 * np.pi * n_turn
    k = int(np.searchsorted(v if total > 0 else -v,
                            target if total > 0 else -target))
    k = min(max(k, 1), len(v) - 1)
    frac = (target - v[k - 1]) / (v[k] - v[k - 1])
    t_cross = t[k - 1] + frac * (t[k] - t[k - 1])
    return (t_cross - t[0]) / n_turn


def kepler_diagnostics(ens: TrajectoryEnsemble, p: PhysParams) -> dict:
    """Summary report: convergence fractions, areal velocity, counters."""
    if ens.n_paths == 0:
        raise ConfigError("empty ensemble")
    e = p.ecc
    conv = (np.abs(ens.u - e) < CONV_U_TOL) \
        & (np.abs(ens.pos[..., 2]) < CONV_Z_TOL) \
        & ~ens.truncated[:, None]
    frac_t = conv.mean(axis=0)
    half = ens.times >= 0.5 * ens.times[-1]
    av = areal_velocity(ens)[:, half[1:]]
    return {
        "n_paths": int(ens.n_paths),
        "t_final": float(ens.times[-1]),
        "fraction_converged_final": float(frac_t[-1]),
        "convergence_curve": {"t": ens.times.tolist(),
                              "fraction": frac_t.tolist()},
        "areal_velocity_mean": float(np.mean(av)),
        "areal_velocity_rel_spread": float(np.std(np.mean(av, axis=1))
                                           / max(abs(np.mean(av)), 1e-300)),
        "mean_abs_z_final": float(np.mean(np.abs(
            ens.pos[~ens.truncated][:, half][..., 2]))),
        "truncated_paths": int(np.sum(ens.truncated)),
        "interior_starts": int(np.sum(ens.start_u > e)),
        "cap_rejections": int(np.sum(ens.cap_rejections)),
        "jump_crossings": int(np.sum(ens.jump_crossings)),
    }
