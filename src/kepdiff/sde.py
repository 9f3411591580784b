"""Ensemble Euler-Maruyama simulation of dX = b(X) dt + eps dB.

The drift is discontinuous across the jump set and blows up at the
origin and on the focal cone nu = 0 (the jump set's right edge,
x = e|z|/sqrt(1-e^2) at y = 0), so Euler-Maruyama is the right tool;
higher-order schemes buy nothing here.  The drift and the recorded
(u, v) coordinates come from the unchecked kernels
:func:`fields.drift_components` and :func:`fields.elliptic_uv`; the
zero-noise orbit integrates the same drift with an adaptive ODE solver.
Paths that fall into the origin ball, or whose step leaves the finite
numbers, are truncated (kept frozen and flagged), never aborted, and
excluded from stationary statistics.  The production ensembles (the
autocorrelation, marginal and figure-1 runs) are built by the
:class:`SimConfig` class methods of the same names, the one place each
run recipe is written down.

The ensemble step loop vectorises across lanes and is bound by the
number of numpy calls per step, not by arithmetic, so the one lever is
more lanes per call.  The engine runs a lane table: every lane carries
its own params, noise scale eps sqrt(dt), drift cap, origin radius,
Philox key and start point, and only dt, the step count, the record
stride and whether jump distances are measured are shared.  Several
configurations (C7's four autocorrelation ensembles) thus run as one
pass (:func:`simulate_ensembles`); :func:`simulate_ensemble` is the
one-config case.  The table is cut by lane range into one shard per
CPU when every shard keeps at least :data:`parallel.MIN_SHARD` lanes;
forked workers step the shards, then map their records to (u, v) and
jump distances, and each pass is merged back.  One shard runs in this
process, through the same code, and its arrays are the table's.  An
ensemble stores its config and views of what its lanes made, no more.

A step does only what every lane needs: the drift, the cap and the
update x + b dt + noise, written into the row of a preallocated chunk
buffer that already holds the step's noise, scaled once per chunk.  The
work that rarely finds anything is settled once per chunk of
_NOISE_CHUNK steps, vectorised over the chunk: truncation (one exact
test of every step's new state), the cap counts, the jump crossings
and the records.  None of this changes the arithmetic, so the output
is the same bit for bit as a plain step-by-step (n_paths, 3)
implementation of one config.

Reproducibility: noise comes from one Philox4x64-10 bit generator per
path, keyed by (seed, path_index).  A path's noise is its generator's
standard-normal stream consumed in (step, component) row-major order,
and the field kernels give a lane the same bits with per-lane params
as with its config's scalars.  So ensembles are bit-identical for
identical configurations, independent of batching, lane table and
shard count, and paths are independent streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import (drift_components, elliptic_uv, in_jump_set,
                     jump_distance_many)
from .parallel import imap, shard_count, shard_ranges
from .params import ConfigError, ConvergenceError, PhysParams

#: Convergence-tube half-widths used by the diagnostics (acceptance
#: parameters: a path counts as converged when |u - e| < CONV_U_TOL and
#: |z| < CONV_Z_TOL).
CONV_U_TOL = 0.15
CONV_Z_TOL = 0.2

_NOISE_CHUNK = 2048
#: Records per elliptic_uv and jump_distance_many call, at least a lane's.
_RECORD_BLOCK = 1 << 16
#: Lanes whose noise is drawn into one contiguous tile before it is
#: scaled into the lane-strided chunk buffer.
_NOISE_TILE = 16

#: Time discarded from the start of the autocorrelation and the
#: marginal ensembles before their statistics are taken.
AUTOCORR_BURN_IN = 20.0
MARGINAL_BURN_IN = 24.0


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

    10 mu/(lam eps), against a drift of O(mu/lam) on physical scales.
    Steps are capped near the two blowups of the drift: the origin and
    the focal cone nu = 0 at the jump set's right edge (at ecc 0.5, eps
    0.1 and z = a, |b| is about 199 at 1e-4 a from the cone, twice the
    cap of 100).
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
        if self.n_steps // self.record_stride + 1 > np.iinfo(np.intp).max:
            raise ConfigError(
                f"n_steps {self.n_steps} at record_stride "
                f"{self.record_stride} gives more records than numpy can "
                "index")
        if not self.dt * self.drift_cap < 0.5 * p.a:
            raise ConfigError(
                "dt * drift_cap must stay below 0.5 a; a capped step may "
                f"not jump across the system scale (got {self.dt * self.drift_cap})")
        if not np.all(np.isfinite(self.start_points())):
            raise ConfigError("start points must be finite")

    @classmethod
    def autocorrelation(cls, p: PhysParams, seed):
        """The autocovariance-gap ensemble: 64 paths of 240k steps of
        1e-3, every 20th recorded, no jump distances."""
        return cls(params=p, dt=1e-3, n_steps=240_000, n_paths=64, seed=seed,
                   record_stride=20, compute_jump_dist=False)

    @classmethod
    def marginal(cls, p: PhysParams, seed, samples):
        """The angular-marginal ensemble: 64 paths recording every 12th
        step of 1e-3, run MARGINAL_BURN_IN and then ceil(samples / 64)
        records further, no jump distances."""
        n_paths, stride, dt = 64, 12, 1e-3
        n_steps = int(MARGINAL_BURN_IN / dt) \
            + math.ceil(samples / n_paths) * stride
        return cls(params=p, dt=dt, n_steps=n_steps, n_paths=n_paths,
                   seed=seed, record_stride=stride, compute_jump_dist=False)

    @classmethod
    def figure1(cls, p: PhysParams, seed):
        """The showcase ensemble: 256 paths from a ring at 3a, 50k steps
        of 1e-3, every 50th recorded."""
        return cls(params=p, dt=1e-3, n_steps=50_000, n_paths=256, seed=seed,
                   x0=RingStart(3 * p.a), record_stride=50)

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

    pos has shape (n_paths, n_rec, 3), record 0 the start; u, v and
    dist_sigma align with it.  Truncated paths (truncate_step >= 0) stay
    frozen from the truncation step on.  cap_rejections counts every
    capped step.
    """

    config: SimConfig
    pos: np.ndarray
    u: np.ndarray
    v: np.ndarray
    dist_sigma: np.ndarray
    truncate_step: np.ndarray
    cap_rejections: np.ndarray
    jump_crossings: np.ndarray

    @property
    def n_paths(self):
        return self.pos.shape[0]

    @property
    def times(self):
        return self.config.record_times()

    @property
    def truncated(self):
        return self.truncate_step >= 0

    @property
    def record_dt(self):
        return self.config.dt * self.config.record_stride

    def converged_mask(self):
        """(n_paths, n_rec) mask of the records inside the convergence
        tube |u - e| < CONV_U_TOL, |z| < CONV_Z_TOL; truncated paths are
        never inside."""
        e = self.config.params.ecc
        return (np.abs(self.u - e) < CONV_U_TOL) \
            & (np.abs(self.pos[..., 2]) < CONV_Z_TOL) \
            & ~self.truncated[:, None]

    def stationary_samples(self, burn_in):
        """(u, v, pos) samples past burn_in from non-truncated paths."""
        ix = np.ix_(~self.truncated, self.times >= burn_in)
        return self.u[ix], self.v[ix], self.pos[ix]


@dataclass(frozen=True)
class _LaneTable:
    """The lanes of one run of one or more configurations.

    Per lane, a (lanes,) array of: the fields of its config's
    PhysParams that the field kernels read (ecc, axis_ratio,
    nodal_scale, drift_scale and a), so that the table stands in for a
    PhysParams there, its constants made once and not on every step; its
    noise scale eps sqrt(dt), drift cap and origin radius 1e-8 a; its
    Philox key (seed, path), path being its index in its config; the
    index of its config in cfgs; and, in x0, its start point (a
    (lanes, 3) array).  A config's lanes are contiguous and in path
    order.  dt, n_steps and stride are shared.
    """

    cfgs: tuple
    ecc: np.ndarray
    axis_ratio: np.ndarray
    nodal_scale: np.ndarray
    drift_scale: np.ndarray
    a: np.ndarray
    scale: np.ndarray
    cap: np.ndarray
    origin_r: np.ndarray
    seed: np.ndarray
    path: np.ndarray
    config: np.ndarray
    x0: np.ndarray
    dt: float
    n_steps: int
    stride: int

    @classmethod
    def of(cls, cfgs):
        cfgs = tuple(cfgs)
        if not cfgs:
            raise ConfigError("a lane table needs at least one configuration")
        shared = {(c.dt, c.n_steps, c.record_stride, c.compute_jump_dist)
                  for c in cfgs}
        if len(shared) > 1:
            raise ConfigError(
                "configurations run as one lane table must share dt, "
                "n_steps, record_stride and compute_jump_dist")
        counts = [c.n_paths for c in cfgs]
        sdt = math.sqrt(cfgs[0].dt)

        def per_lane(values):
            return np.repeat(values, counts)

        ps = [c.params for c in cfgs]
        return cls(
            cfgs=cfgs,
            ecc=per_lane([p.ecc for p in ps]),
            axis_ratio=per_lane([p.axis_ratio for p in ps]),
            nodal_scale=per_lane([p.nodal_scale for p in ps]),
            drift_scale=per_lane([p.drift_scale for p in ps]),
            a=per_lane([p.a for p in ps]),
            scale=per_lane([p.eps * sdt for p in ps]),
            cap=per_lane([c.drift_cap for c in cfgs]),
            origin_r=per_lane([1e-8 * p.a for p in ps]),
            seed=per_lane([c.seed for c in cfgs]),
            path=np.concatenate([np.arange(n) for n in counts]),
            config=per_lane(np.arange(len(cfgs))),
            x0=np.concatenate([c.start_points() for c in cfgs]),
            dt=cfgs[0].dt, n_steps=cfgs[0].n_steps,
            stride=cfgs[0].record_stride)

    def __getitem__(self, lanes):
        """The table of the given lanes (a slice or an index array)."""
        return replace(self, **{
            f: getattr(self, f)[lanes] for f in _LANE_FIELDS})

    @property
    def n_lanes(self):
        return self.config.size

    def segments(self):
        """(config index, lane slice) of each config in the table."""
        cuts = (np.flatnonzero(np.diff(self.config)) + 1).tolist()
        bounds = [0, *cuts, self.n_lanes]
        return [(int(self.config[lo]), slice(lo, hi))
                for lo, hi in zip(bounds, bounds[1:])]


_LANE_FIELDS = ("ecc", "axis_ratio", "nodal_scale", "drift_scale", "a",
                "scale", "cap", "origin_r", "seed", "path", "config", "x0")


def simulate_ensemble(cfg: SimConfig) -> TrajectoryEnsemble:
    """Run the full ensemble; bit-identical output for identical cfg.

    The one-config case of :func:`simulate_ensembles`.
    """
    return simulate_ensembles([cfg])[0]


def simulate_ensembles(cfgs) -> list:
    """Run configurations as one lane table; one ensemble per config.

    The configs must share dt, n_steps, record_stride and
    compute_jump_dist (ConfigError otherwise); everything else, the
    params, seed, start and drift cap included, is per lane.  Each
    config's ensemble is the same bit for bit as its own run.

    The table is cut into contiguous lane ranges
    (:func:`parallel.shard_count`), each run in a forked worker of its
    own, or in this process when there is one shard, in two passes that
    hand over through :func:`_merge`: :func:`_run_steps`, then
    :func:`_record_coordinates` on the merged records.  The jump
    distances take each config's largest |z| from the merged records,
    so that a config measures against one polyline
    (:func:`fields.jump_distance_many`).
    """
    table = _LaneTable.of(cfgs)
    bounds = shard_ranges(table.n_lanes, shard_count(table.n_lanes))
    shards = [table[lo:hi] for lo, hi in bounds]
    rec = _merge(bounds, imap(_run_steps, shards, len(shards)))
    z_max = None
    if table.cfgs[0].compute_jump_dist:
        z_max = [float(np.max(np.abs(rec["pos"][lanes, :, 2]), initial=0.0))
                 for _, lanes in table.segments()]
    jobs = [(shard, rec["pos"][lo:hi], z_max)
            for shard, (lo, hi) in zip(shards, bounds)]
    rec |= _merge(bounds, imap(_record_coordinates, jobs, len(jobs)))
    if z_max is None:
        rec["dist_sigma"] = np.full(rec["u"].shape, np.nan)
    return [TrajectoryEnsemble(config=table.cfgs[c],
                               **{k: a[lanes] for k, a in rec.items()})
            for c, lanes in table.segments()]


def _merge(bounds, parts):
    """The table's arrays from parts, one dict of arrays per (lo, hi) of
    bounds: a lone shard's own, else each part copied in and freed as
    the next arrives."""
    if len(bounds) == 1:
        (whole,) = parts
        return whole
    whole = {}
    for (lo, hi), part in zip(bounds, parts, strict=True):
        whole = whole or {k: np.empty((bounds[-1][1], *a.shape[1:]), a.dtype)
                          for k, a in part.items()}
        for k, a in part.items():
            whole[k][lo:hi] = a
    return whole


def _record_coordinates(job):
    """u, v and, given each config's largest |z|, dist_sigma of a shard's
    records, job = (table, records, z_max or None); _RECORD_BLOCK records
    (at least a lane's) per call keep the temporaries small beside them."""
    table, pos, z_max = job
    keys = ("u", "v") if z_max is None else ("u", "v", "dist_sigma")
    out = {k: np.empty(pos.shape[:2]) for k in keys}
    block = max(1, _RECORD_BLOCK // pos.shape[1])
    for c, lanes in table.segments():
        p = table.cfgs[c].params
        for lo in range(lanes.start, lanes.stop, block):
            ix = slice(lo, min(lo + block, lanes.stop))
            with np.errstate(all="ignore"):
                out["u"][ix], out["v"][ix] = elliptic_uv(
                    p, pos[ix, :, 0], pos[ix, :, 1])
            if z_max is not None:
                out["dist_sigma"][ix] = jump_distance_many(
                    p, pos[ix], z_max=z_max[c])
    return out


def _run_steps(table):
    """The step loop and the chunk settle of a lane table.

    The steps run in chunks of _NOISE_CHUNK, on a (chunk + 1, 3, lanes)
    buffer whose row 0 is the state before the chunk and whose row
    j + 1 first holds step j's noise, scaled by the lane's eps sqrt(dt),
    and then the state after step j.  Each step does four things on
    every lane: it takes the drift b from :func:`fields.drift_components`
    with the lane's params; where |b| = sqrt((b_x^2 + b_y^2) + b_z^2)
    exceeds the lane's drift cap it rescales b by cap / |b| and marks
    the step as capped; it forms b dt + x; and it adds that to the noise
    in the next row.

    Once per chunk, vectorised over its steps, the settle applies what
    the steps skipped.  truncate_step is the one truncation state: -1
    while a lane runs, else the step it froze at (0 for a start inside
    the origin ball).  All rows of a lane truncated before the chunk are
    reset to its frozen state.  Every other lane truncates at the first
    step whose new state is bad, by one exact test: a coordinate is not
    finite or sqrt((x^2 + y^2) + z^2) is below its origin radius 1e-8 a
    (finite coordinates whose squares overflow give inf and do not
    truncate); from that step on its rows are reset to its last valid
    state.  Lanes are independent, so what a lane computes after its
    truncation touches no other lane.  cap_rejections counts the capped
    steps up to the truncation step, that step included.  A jump
    crossing is a sign change of y between consecutive settled states
    whose midpoint (x, 0, z) lies in the lane's jump set.  Every
    stride-th settled state is recorded.

    Returns the records (pos), truncate_step, cap_rejections and
    jump_crossings, keyed by those names; its buffers are freed on
    return.
    """
    dt, stride, n_steps = table.dt, table.stride, table.n_steps
    cap, origin_r, scale = table.cap, table.origin_r, table.scale
    X0 = table.x0
    n_paths = table.n_lanes
    n_rec = n_steps // stride + 1
    with np.errstate(all="ignore"):  # finite starts whose squares overflow
        r0 = np.sqrt(np.sum(X0 * X0, axis=1))
    truncate_step = np.where(r0 >= origin_r, -1, 0).astype(np.int64)
    gens = [np.random.Generator(np.random.Philox(key=[seed, i]))
            for seed, i in zip(table.seed.tolist(), table.path.tolist())]
    cap_rejections = np.zeros(n_paths, dtype=np.int64)
    crossings = np.zeros(n_paths, dtype=np.int64)
    rec_pos = np.empty((n_paths, n_rec, 3))
    rec_pos[:, 0] = X0
    rec_i = 1

    m = min(_NOISE_CHUNK, n_steps)
    states = np.empty((m + 1, 3, n_paths))
    states[0] = X0.T
    capped = np.empty((m, n_paths), dtype=bool)
    tile = np.empty((min(_NOISE_TILE, n_paths), m, 3))
    # row views made once: a list index is cheaper than an array index
    rows, cap_rows = list(states), list(capped)
    squares = np.empty((3, n_paths))
    bx2, by2, bz2 = squares
    norm = np.empty(n_paths)

    k = 0
    with np.errstate(all="ignore"):
        while k < n_steps:
            chunk = min(m, n_steps - k)
            S = states[:chunk + 1]
            # each lane's draws go to a contiguous tile row, and one
            # multiply per tile scales them into the strided lane columns
            for b in range(0, n_paths, _NOISE_TILE):
                block = gens[b:b + _NOISE_TILE]
                T = tile[:len(block), :chunk]
                for t, g in zip(T, block):
                    g.standard_normal(out=t)
                np.multiply(T.transpose(1, 2, 0), scale[b:b + len(block)],
                            out=S[1:, :, b:b + len(block)])
            for j in range(chunk):
                X = rows[j]
                B = drift_components(table, X)
                np.multiply(B, B, out=squares)
                np.add(bx2, by2, out=norm)
                np.add(norm, bz2, out=norm)
                np.sqrt(norm, out=norm)
                hit = np.greater(norm, cap, out=cap_rows[j])
                if np.count_nonzero(hit):
                    B[:, hit] *= cap[hit] / norm[hit]
                B *= dt
                B += X
                rows[j + 1] += B

            # the settle: first truncation, which fixes the steps each
            # lane ran, then the caps, the crossings and the records
            hits, Y = capped[:chunk], S[1:]
            frozen = truncate_step >= 0
            Y[:, :, frozen] = S[0][:, frozen]
            hits[:, frozen] = False
            r = np.sqrt((Y[:, 0] * Y[:, 0] + Y[:, 1] * Y[:, 1])
                        + Y[:, 2] * Y[:, 2])
            bad = (r < origin_r) | ~np.all(np.isfinite(Y), axis=1)
            bad[:, frozen] = False
            # np.nonzero runs step-major, so a lane's first entry is its
            # first bad step
            js, lanes = np.nonzero(bad)
            lanes, first = np.unique(lanes, return_index=True)
            for lane, j in zip(lanes, js[first]):
                truncate_step[lane] = k + j
                S[j + 1:, :, lane] = S[j, :, lane]
                hits[j + 1:, lane] = False
            cap_rejections += np.count_nonzero(hits, axis=0)

            # frozen lanes have equal consecutive states, so y * y >= 0
            # keeps them out
            js, lanes = np.nonzero(S[:-1, 1] * S[1:, 1] < 0)
            xm = 0.5 * (S[js, 0, lanes] + S[js + 1, 0, lanes])
            zm = 0.5 * (S[js, 2, lanes] + S[js + 1, 2, lanes])
            crossings += np.bincount(
                lanes[in_jump_set(table[lanes], xm, zm)], minlength=n_paths)

            recs = S[stride - k % stride::stride]
            rec_pos[:, rec_i:rec_i + len(recs)] = recs.transpose(2, 0, 1)
            rec_i += len(recs)
            k += chunk
            states[0] = S[chunk]
    return {"pos": rec_pos, "truncate_step": truncate_step,
            "cap_rejections": cap_rejections, "jump_crossings": crossings}


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
    # imported here, its only use, so that other runs do not load it
    from scipy.integrate import solve_ivp

    e, a, sq = p.ecc, p.a, p.axis_ratio
    target = 2 * math.pi * n_periods

    def rhs(t, state):
        x, y, _ = state
        bx, by, _ = drift_components(p, np.array([x, y, 0.0]))
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


def kepler_diagnostics(ens: TrajectoryEnsemble) -> dict:
    """Summary report: convergence fractions, areal velocity, counters.

    The areal velocity and final |z| leave truncated paths out; they are
    null when no path is left."""
    frac_t = ens.converged_mask().mean(axis=0)
    half = ens.times >= 0.5 * ens.times[-1]
    kept = ~ens.truncated
    av = areal_velocity(ens)[kept][:, half[1:]]
    z = ens.pos[kept][:, half][..., 2]
    av_mean = float(np.mean(av)) if av.size else None
    return {
        "n_paths": int(ens.n_paths),
        "t_final": float(ens.times[-1]),
        "fraction_converged_final": float(frac_t[-1]),
        "convergence_curve": {"t": ens.times.tolist(),
                              "fraction": frac_t.tolist()},
        "areal_velocity_mean": av_mean,
        "areal_velocity_rel_spread": None if av_mean is None else float(
            np.std(np.mean(av, axis=1)) / max(abs(av_mean), 1e-300)),
        "mean_abs_z_final": float(np.mean(np.abs(z))) if z.size else None,
        "truncated_paths": int(np.sum(ens.truncated)),
        "interior_starts": int(np.sum(ens.u[:, 0] > ens.config.params.ecc)),
        "cap_rejections": int(np.sum(ens.cap_rejections)),
        "jump_crossings": int(np.sum(ens.jump_crossings)),
    }
