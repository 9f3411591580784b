import dataclasses
import math

import numpy as np
import pytest

from kepdiff import (ConfigError, GAUSS_WIDTH_FACTOR, PhysParams, RingStart,
                     SimConfig, SingularPointError, TrajectoryEnsemble,
                     cross_section_widths, drift, ellipse_average,
                     jump_distance_many, kepler_diagnostics, orbital_period,
                     sde, simulate_ensemble, step)
from kepdiff.fields import elliptic_uv, in_jump_set
from kepdiff.sde import deterministic_orbit

SQ3 = math.sqrt(3.0)


def small_cfg(p, **kw):
    base = dict(params=p, dt=1e-3, n_steps=2000, n_paths=16, seed=7,
                record_stride=10)
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------

def test_step_pure_drift(p):
    cfg = small_cfg(p)
    x0 = np.array([0.5, 0.0, 0.0])
    x1 = step(cfg, x0, np.zeros(3))
    np.testing.assert_allclose(x1, x0 + cfg.dt * np.array([0.0, SQ3, 0.0]),
                               atol=1e-14)


def test_step_noise_term(p):
    cfg = small_cfg(p)
    g = np.array([0.3, -1.2, 0.7])
    x0 = np.array([0.5, 0.0, 0.0])
    x1 = step(cfg, x0, g)
    expected = x0 + cfg.dt * np.array([0.0, SQ3, 0.0]) \
        + p.eps * math.sqrt(cfg.dt) * g
    np.testing.assert_allclose(x1, expected, atol=1e-14)


def test_step_cap_contract(p):
    cfg = small_cfg(p, drift_cap=1e-3, dt=1e-3)
    g = np.array([0.5, 0.5, -0.5])
    x0 = np.array([-1.5, 0.4, 0.2])
    x1 = step(cfg, x0, g)
    disp = x1 - x0 - p.eps * math.sqrt(cfg.dt) * g
    assert np.linalg.norm(disp) <= 1e-3 * cfg.dt * (1 + 1e-12)


def test_step_origin_raises(p):
    cfg = small_cfg(p)
    with pytest.raises(SingularPointError):
        step(cfg, [1e-10, 0.0, 0.0], np.zeros(3))


def test_step_approximates_kepler_flow(p):
    # zero-noise iterated steps: one period of the deterministic orbit
    cfg = small_cfg(p, dt=1e-4)
    x = np.array([0.5, 0.0, 0.0])
    for _ in range(200):
        x = step(cfg, x, np.zeros(3))
    # still essentially on the ellipse and advanced along +v
    from kepdiff import to_elliptic
    c = to_elliptic(p, x)
    assert abs(c.u - p.ecc) < 1e-3
    assert 0 < c.v < 0.2


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_step_scale_invariant(p):
    with pytest.raises(ConfigError):
        SimConfig(params=p, dt=0.01, drift_cap=100.0)


@pytest.mark.parametrize("x0", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0],
                                RingStart(math.nan)])
def test_config_non_finite_start_rejected(p, x0):
    with pytest.raises(ConfigError):
        SimConfig(params=p, x0=x0)


def test_config_defaults(p):
    cfg = SimConfig(params=p)
    assert cfg.dt == pytest.approx(1e-3)
    assert cfg.drift_cap == pytest.approx(10 * p.mu / (p.lam * p.eps))
    assert isinstance(cfg.x0, RingStart)


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

def test_determinism_bit_identical(p):
    cfg = small_cfg(p)
    a = simulate_ensemble(cfg)
    b = simulate_ensemble(small_cfg(p))
    np.testing.assert_array_equal(a.pos, b.pos)
    np.testing.assert_array_equal(a.v, b.v)


@pytest.mark.parametrize("k", [1, 5, 8])
def test_paths_independent_of_batching(p, k):
    # path i's stream depends only on [seed, i] and its start point, so
    # the first k paths of a 13-path run equal a k-path run bit for bit;
    # the low drift cap makes cap rejections occur on every path
    def run(n):
        return simulate_ensemble(small_cfg(p, n_paths=n, x0=[-0.3, 1e-3, 0.0],
                                           drift_cap=3.0))
    full, part = run(13), run(k)
    assert np.all(full.cap_rejections > 0)
    for name in ("pos", "u", "v", "dist_sigma", "truncate_step",
                 "cap_rejections"):
        np.testing.assert_array_equal(getattr(full, name)[:k],
                                      getattr(part, name))


def test_seed_changes_output(p):
    a = simulate_ensemble(small_cfg(p))
    b = simulate_ensemble(small_cfg(p, seed=8))
    assert not np.array_equal(a.pos, b.pos)


def test_record_grid(p):
    ens = simulate_ensemble(small_cfg(p))
    assert ens.times[0] == 0.0
    assert np.all(np.diff(ens.times) > 0)
    assert ens.pos.shape == (16, len(ens.times), 3)


def test_no_origin_crossing_without_flag(stationary_ensemble):
    r = np.linalg.norm(stationary_ensemble.pos, axis=2)
    ok = (r > 1e-8) | stationary_ensemble.truncated[:, None]
    assert np.all(ok)
    assert np.all(np.isfinite(stationary_ensemble.pos))


def test_cap_rejections_not_near_jump_set(p, stationary_ensemble):
    # the drift is bounded across the jump set; any capped step must be
    # an origin blowup, not a jump-set artefact
    pts = stationary_ensemble.cap_reject_points
    if pts.size:
        near = jump_distance_many(p, pts) < 0.1 * p.a
        inside_origin_ball = np.linalg.norm(pts, axis=1) < 0.1 * p.a
        assert np.all(~near | inside_origin_ball)


def test_jump_crossings_logged(stationary_ensemble):
    assert stationary_ensemble.jump_crossings.dtype.kind == "i"
    assert np.all(stationary_ensemble.jump_crossings >= 0)


def test_z_marginal_stays_centred(p, stationary_ensemble):
    # drift's out-of-plane component is odd in z and the start is in-plane
    z = stationary_ensemble.pos[:, -1, 2]
    se = np.std(z) / math.sqrt(len(z))
    assert abs(np.mean(z)) < 4 * se + 1e-3


def test_mean_abs_z_half_normal(p, stationary_ensemble):
    # ensemble mean |z| ~ sqrt(2/pi) x (stationary-average Gaussian width)
    u, v, pos = stationary_ensemble.stationary_samples(burn_in=30.0)
    mean_abs = float(np.mean(np.abs(pos[..., 2])))
    pred = ellipse_average(
        p, lambda vv: float(cross_section_widths(p, vv)[1])
        * GAUSS_WIDTH_FACTOR) * math.sqrt(2 / math.pi)
    assert abs(mean_abs / pred - 1) < 0.15


def test_z_empirical_width_selects_gauss_convention(p, stationary_ensemble):
    # the empirical z std in an angle window matches the effective width
    # divided by sqrt(2); the undivided convention is rejected
    from kepdiff import z_spread_by_angle
    _, emp, pred = z_spread_by_angle(stationary_ensemble, p, burn_in=30.0)
    assert np.all(np.abs(emp / pred - 1) < 0.25)
    assert np.all(np.abs(emp / (pred * math.sqrt(2)) - 1) > 0.2)


def test_weak_order_dt_halving(p):
    ref = dict(n_paths=256, n_steps=10_000, seed=77, record_stride=100,
               compute_jump_dist=False)
    e1 = simulate_ensemble(SimConfig(params=p, dt=2e-3, **ref))
    e2 = simulate_ensemble(SimConfig(params=p, dt=1e-3,
                                     **{**ref, "n_steps": 20_000}))
    m1, m2 = np.mean(e1.u[:, -1]), np.mean(e2.u[:, -1])
    se = math.hypot(np.std(e1.u[:, -1]), np.std(e2.u[:, -1])) / math.sqrt(256)
    assert abs(m1 - m2) < 2.5 * se


def _simulate_reference(cfg):
    """The step loop as it stood before the per-coordinate rewrite.

    One (n_paths, 3) state array, a stacked drift and a full set of
    masks on every step; :func:`simulate_ensemble` must equal it bit for
    bit.  The drift is looked up on ``sde`` so a monkeypatch reaches both.
    """
    p = cfg.params
    dt, eps = cfg.dt, p.eps
    sdt = math.sqrt(dt)
    n_paths, n_steps = cfg.n_paths, cfg.n_steps
    origin_r = 1e-8 * p.a

    X = cfg.start_points().copy()
    gens = [np.random.Generator(np.random.Philox(key=[cfg.seed, i]))
            for i in range(n_paths)]
    active = np.sqrt(np.sum(X * X, axis=1)) >= origin_r
    truncate_step = np.where(active, -1, 0).astype(np.int64)
    cap_rejections = np.zeros(n_paths, dtype=np.int64)
    reject_pts = []
    crossings = np.zeros(n_paths, dtype=np.int64)

    n_rec = n_steps // cfg.record_stride + 1
    rec_pos = np.empty((n_paths, n_rec, 3))
    rec_t = np.empty(n_rec)
    rec_pos[:, 0] = X
    rec_t[0] = 0.0
    rec_i = 1

    u0, _ = elliptic_uv(p, X[:, 0], X[:, 1])

    k = 0
    with np.errstate(all="ignore"):
        while k < n_steps:
            chunk = min(sde._NOISE_CHUNK, n_steps - k)
            noise = np.empty((n_paths, chunk, 3))
            for i, g in enumerate(gens):
                noise[i] = g.standard_normal((chunk, 3))
            for j in range(chunk):
                bx, by, bz = sde.drift_components(p, X[:, 0], X[:, 1], X[:, 2])
                nb = np.sqrt(bx * bx + by * by + bz * bz)
                over = active & (nb > cfg.drift_cap)
                if np.any(over):
                    cap_rejections[over] += 1
                    if len(reject_pts) < 10_000:
                        reject_pts.extend(X[over].tolist())
                    f = np.where(over, cfg.drift_cap / np.where(nb > 0, nb, 1.0), 1.0)
                    bx, by, bz = bx * f, by * f, bz * f
                Xn = X + np.stack([bx, by, bz], axis=1) * dt
                Xn += eps * sdt * noise[:, j]
                bad = active & (~np.all(np.isfinite(Xn), axis=1)
                                | (np.sqrt(np.sum(Xn * Xn, axis=1)) < origin_r))
                if np.any(bad):
                    Xn[bad] = X[bad]
                    truncate_step[bad] = k
                    active &= ~bad
                Xn[~active] = X[~active]
                flip = active & (X[:, 1] * Xn[:, 1] < 0)
                if np.any(flip):
                    xm = 0.5 * (X[flip, 0] + Xn[flip, 0])
                    zm = 0.5 * (X[flip, 2] + Xn[flip, 2])
                    crossings[flip] += in_jump_set(p, xm, zm)
                X = Xn
                k += 1
                if k % cfg.record_stride == 0:
                    rec_pos[:, rec_i] = X
                    rec_t[rec_i] = k * dt
                    rec_i += 1

    rec_pos = rec_pos[:, :rec_i]
    rec_t = rec_t[:rec_i]
    flat = rec_pos.reshape(-1, 3)
    u, v = elliptic_uv(p, flat[:, 0], flat[:, 1])
    u = u.reshape(n_paths, rec_i)
    v = v.reshape(n_paths, rec_i)
    if cfg.compute_jump_dist:
        dist = jump_distance_many(p, flat).reshape(n_paths, rec_i)
    else:
        dist = np.full((n_paths, rec_i), np.nan)

    return TrajectoryEnsemble(
        config=cfg, times=rec_t, pos=rec_pos, u=u, v=v, dist_sigma=dist,
        truncated=truncate_step >= 0, truncate_step=truncate_step,
        cap_rejections=cap_rejections,
        cap_reject_points=np.array(reject_pts).reshape(-1, 3),
        jump_crossings=crossings, start_u=u0)


def _assert_same_arrays(ens, ref):
    for field in dataclasses.fields(TrajectoryEnsemble):
        if field.name == "config":
            continue
        a, b = getattr(ens, field.name), getattr(ref, field.name)
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        np.testing.assert_array_equal(a, b, err_msg=field.name)


def _assert_matches_reference(cfg):
    ens = simulate_ensemble(cfg)
    _assert_same_arrays(ens, _simulate_reference(cfg))
    return ens


def test_ensemble_matches_reference_c7_like():
    # C7's 64-lane shape at e = 0.5, eps = 0.3, shortened
    cfg = SimConfig(params=PhysParams(ecc=0.5, eps=0.3), dt=1e-3,
                    n_steps=3000, n_paths=64, seed=11, record_stride=20,
                    compute_jump_dist=False)
    _assert_matches_reference(cfg)


def test_ensemble_matches_reference_capped(p):
    # fixed-point start with cap 3: cap rejections on every lane, crossings,
    # and a step count off both the record stride and the noise chunk
    n_steps = 2 * sde._NOISE_CHUNK + 7
    ens = _assert_matches_reference(small_cfg(
        p, n_paths=13, n_steps=n_steps, x0=[-0.3, 1e-3, 0.0], drift_cap=3.0))
    assert np.all(ens.cap_rejections > 0)
    assert ens.jump_crossings.sum() > 0
    assert n_steps % 10 and n_steps % sde._NOISE_CHUNK


def test_ensemble_matches_reference_all_inactive(p):
    # a ring inside the origin ball: every lane is truncated at step 0
    ens = _assert_matches_reference(small_cfg(
        p, n_paths=5, n_steps=300, x0=RingStart(1e-9), record_stride=3))
    assert np.all(ens.truncate_step == 0)


def test_ensemble_matches_reference_mid_run_truncation(monkeypatch):
    # lane 2 is sent into the origin ball at step 4, lane 4's drift turns
    # NaN from step 300 and lane 6's infinite from step 600; the other
    # lanes run on beside the frozen ones
    pp = PhysParams(ecc=0.5, eps=1e-9)
    cfg = SimConfig(params=pp, dt=1e-3, n_steps=1500, n_paths=9, seed=3,
                    x0=[0.3, 0.2, 0.0], drift_cap=450.0, record_stride=10)
    calls = [0]
    real = sde.drift_components

    def drift_with_faults(pp, x, y, z):
        bx, by, bz = real(pp, x, y, z)
        calls[0] += 1
        if calls[0] == 5:
            bx[2], by[2], bz[2] = -np.array([x[2], y[2], z[2]]) / cfg.dt
        if calls[0] > 300:
            bx[4] = np.nan
        if calls[0] > 600:
            by[6] = np.inf
        return bx, by, bz

    monkeypatch.setattr(sde, "drift_components", drift_with_faults)
    ens = simulate_ensemble(cfg)
    calls[0] = 0
    _assert_same_arrays(ens, _simulate_reference(cfg))
    np.testing.assert_array_equal(ens.truncate_step,
                                  [-1, -1, 4, -1, 300, -1, 600, -1, -1])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:divide by zero:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("x0, b_x, truncated", [
    # finite coordinates whose squares overflow (r^2 = inf) keep running
    (1e160, 0.0, False),
    # a step that overflows a coordinate to inf truncates; |b|^2 must stay
    # finite, or the cap zeroes the drift, hence the huge dt and a
    (np.finfo(float).max, 5e153, True)])
def test_ensemble_overflowing_radius(monkeypatch, x0, b_x, truncated):
    monkeypatch.setattr(sde, "drift_components",
                        lambda pp, x, y, z: (0.0 * x + b_x, 0.0 * y, 0.0 * z))
    cfg = SimConfig(params=PhysParams(lam=1e148), dt=1e140, n_steps=50,
                    n_paths=4, seed=7, x0=[x0, 0.0, 0.0], drift_cap=1e154,
                    record_stride=10, compute_jump_dist=False)
    ens = _assert_matches_reference(cfg)
    np.testing.assert_array_equal(ens.truncate_step, 0 if truncated else -1)


def test_truncation_freezes_path(p):
    # a start almost at the origin trips the proximity guard immediately
    cfg = SimConfig(params=p, dt=1e-3, n_steps=50, n_paths=2, seed=1,
                    x0=np.array([5e-9, 0.0, 0.0]), record_stride=5)
    ens = simulate_ensemble(cfg)
    assert np.all(ens.truncated)
    np.testing.assert_array_equal(ens.pos[:, -1], ens.pos[:, 0])


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_areal_velocity_deterministic(p):
    cfg = small_cfg(p, dt=1e-4, n_steps=4000, n_paths=1,
                    x0=np.array([0.5, 0.0, 0.0]))
    # suppress the noise by zeroing eps through a deterministic stepper
    x = np.array([0.5, 0.0, 0.0])
    xs = [x]
    for _ in range(4000):
        x = x + drift(p, x) * 1e-4
        xs.append(x)
    xs = np.array(xs)
    av = (xs[:-1, 0] * xs[1:, 1] - xs[:-1, 1] * xs[1:, 0]) / (2 * 1e-4)
    assert np.std(av) / abs(np.mean(av)) < 0.01
    # orbital angular momentum is lam sqrt(1-e^2)
    L = p.lam * math.sqrt(1 - p.ecc ** 2)
    assert np.mean(av) == pytest.approx(L / 2, rel=0.01)


def test_deterministic_orbit_period():
    for ecc in (0.1, 0.5, 0.9):
        pp = PhysParams(lam=1.3, mu=0.7, ecc=ecc)
        period, t_end = deterministic_orbit(pp, n_periods=2)
        assert period == pytest.approx(pp.orbital_period, rel=1e-9)
        assert t_end == pytest.approx(2 * period)


def test_orbital_period_from_records(p):
    pnoise = PhysParams(p.lam, p.mu, p.ecc, 1e-3)  # nearly deterministic
    ens = simulate_ensemble(SimConfig(params=pnoise, dt=1e-4, n_steps=70_000,
                                      n_paths=1, seed=5, drift_cap=100.0,
                                      x0=np.array([0.5, 0.0, 0.0]),
                                      record_stride=20))
    period = orbital_period(ens)
    assert period == pytest.approx(p.orbital_period, rel=0.01)


def test_orbital_period_requires_full_turn(p, stationary_ensemble):
    short = simulate_ensemble(small_cfg(p, n_steps=100))
    with pytest.raises(ConfigError):
        orbital_period(short)


def test_diagnostics_report(p, stationary_ensemble):
    rep = kepler_diagnostics(stationary_ensemble, p)
    assert 0 <= rep["fraction_converged_final"] <= 1
    assert rep["interior_starts"] == 0          # ring start at 3a
    assert len(rep["convergence_curve"]["t"]) == len(stationary_ensemble.times)
    assert rep["truncated_paths"] == 0


def test_interior_start_detected(p):
    cfg = small_cfg(p, n_steps=200, n_paths=4, x0=np.array([0.3, 0.0, 0.0]))
    rep = kepler_diagnostics(simulate_ensemble(cfg), p)
    assert rep["interior_starts"] == 4


def test_convergence_fraction_reference(p):
    # the analysis value for the showcase ensemble: ~0.92 of paths end
    # inside the |u - e| < 0.15, |z| < 0.2 tube (regression guard; the
    # 0.95 criterion itself is checked, and expected red, in acceptance)
    cfg = SimConfig(params=p, dt=1e-3, n_steps=50_000, n_paths=256, seed=1,
                    record_stride=500, compute_jump_dist=False)
    frac = simulate_ensemble(cfg).converged_mask().mean()
    assert 0.85 <= frac <= 0.97
