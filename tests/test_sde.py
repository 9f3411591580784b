import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import assert_bitwise_equal, ellipse_average
from kepdiff import (ConfigError, GAUSS_WIDTH_FACTOR, PhysParams, RingStart,
                     SimConfig, TrajectoryEnsemble, cross_section_widths,
                     drift, jump_distance_many, kepler_diagnostics, sde,
                     simulate_ensemble)
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

def one_step(p, x0, **kw):
    """One simulated step of one path: (cfg, x1, the step's gauss draw).

    Path 0's draw is the first three normals of its Philox stream.
    """
    cfg = small_cfg(p, n_steps=1, n_paths=1, record_stride=1, x0=x0,
                    compute_jump_dist=False, **kw)
    x1 = simulate_ensemble(cfg).pos[0, 1]
    gen = np.random.Generator(np.random.Philox(key=[cfg.seed, 0]))
    return cfg, x1, gen.standard_normal(3)


def test_step_pure_drift():
    # eps = 1e-9 leaves the noise below 1e-10
    pp = PhysParams(ecc=0.5, eps=1e-9)
    x0 = np.array([0.5, 0.0, 0.0])
    cfg, x1, _ = one_step(pp, x0, drift_cap=100.0)
    np.testing.assert_allclose(x1, x0 + cfg.dt * np.array([0.0, SQ3, 0.0]),
                               atol=1e-9)


def test_step_noise_term(p):
    x0 = np.array([0.5, 0.0, 0.0])
    cfg, x1, g = one_step(p, x0)
    expected = x0 + cfg.dt * np.array([0.0, SQ3, 0.0]) \
        + p.eps * math.sqrt(cfg.dt) * g
    np.testing.assert_allclose(x1, expected, atol=1e-14)


def test_step_cap_contract(p):
    x0 = np.array([-1.5, 0.4, 0.2])
    cfg, x1, g = one_step(p, x0, drift_cap=1e-3, dt=1e-3)
    # the drift there exceeds the cap, so it is rescaled to the cap
    disp = x1 - x0 - p.eps * math.sqrt(cfg.dt) * g
    assert np.linalg.norm(disp) == pytest.approx(1e-3 * cfg.dt, rel=1e-8)


def test_step_approximates_kepler_flow():
    # 200 nearly noiseless steps from perihelion
    pp = PhysParams(ecc=0.5, eps=1e-9)
    ens = simulate_ensemble(small_cfg(pp, dt=1e-4, n_steps=200, n_paths=1,
                                      x0=[0.5, 0.0, 0.0], drift_cap=100.0,
                                      record_stride=200))
    # still essentially on the ellipse and advanced along +v
    assert abs(ens.u[0, -1] - pp.ecc) < 1e-3
    assert 0 < ens.v[0, -1] < 0.2


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


@pytest.mark.parametrize("stride", [1, 10])
def test_config_record_count_within_numpy_index(p, stride):
    # n_steps // stride + 1 records; numpy indexes at most intp max
    top = np.iinfo(np.intp).max
    SimConfig(params=p, n_steps=(top - 1) * stride, record_stride=stride)
    with pytest.raises(ConfigError, match="more records"):
        SimConfig(params=p, n_steps=top * stride, record_stride=stride)


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
    _, emp, pred = z_spread_by_angle(stationary_ensemble, burn_in=30.0)
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

    One (n_paths, 3) state array, and the truncation, cap, crossing and
    record work with a full set of masks on every step;
    :func:`simulate_ensemble`, which settles that work once per noise
    chunk, must equal it bit for bit.  The drift is looked up on ``sde``
    so a monkeypatch reaches both.  Returns the ensemble's arrays by
    field name, and the record times, truncation flags and start u it
    computes on its own under "times", "truncated" and "start_u".
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
                bx, by, bz = sde.drift_components(p, X.T)
                nb = np.sqrt(bx * bx + by * by + bz * bz)
                over = active & (nb > cfg.drift_cap)
                if np.any(over):
                    cap_rejections[over] += 1
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

    return dict(times=rec_t, pos=rec_pos, u=u, v=v, dist_sigma=dist,
                truncated=truncate_step >= 0, truncate_step=truncate_step,
                cap_rejections=cap_rejections, jump_crossings=crossings,
                start_u=u0)


def _assert_same_arrays(ens, ref):
    # every stored array, and the derived times, truncation flags and
    # start u (record 0), bit for bit
    names = [f.name for f in dataclasses.fields(TrajectoryEnsemble)[1:]]
    got = {name: getattr(ens, name) for name in names}
    got.update(times=ens.times, truncated=ens.truncated, start_u=ens.u[:, 0])
    assert got.keys() == ref.keys()
    for name, a in got.items():
        assert_bitwise_equal(a, ref[name])


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


def test_ensemble_matches_reference_partial_noise_tile(p):
    # two full noise tiles and a remainder of five lanes, over two full
    # chunks and a short last one
    n_paths = 2 * sde._NOISE_TILE + 5
    _assert_matches_reference(small_cfg(
        p, n_paths=n_paths, n_steps=2 * sde._NOISE_CHUNK + 3,
        compute_jump_dist=False))


@pytest.mark.parametrize("n_steps", [300, 2 * sde._NOISE_CHUNK + 3])
def test_ensemble_matches_reference_all_inactive(p, n_steps):
    # a ring inside the origin ball: every lane is truncated at step 0,
    # and stays so over later noise chunks, whose frozen rows are still
    # inside the ball
    ens = _assert_matches_reference(small_cfg(
        p, n_paths=5, n_steps=n_steps, x0=RingStart(1e-9), record_stride=3))
    assert np.all(ens.truncate_step == 0)


def _assert_matches_reference_with_faults(monkeypatch, cfg, fault):
    """Like _assert_matches_reference, with ``sde.drift_components``
    routed through fault(k, X, B) in both runs: k counts the calls from
    0, one per simulated step, and fault may change the drift B in
    place."""
    real = sde.drift_components
    calls = [0]

    def drift_with_faults(pp, X):
        B = real(pp, X)
        fault(calls[0], X, B)
        calls[0] += 1
        return B

    monkeypatch.setattr(sde, "drift_components", drift_with_faults)
    ens = simulate_ensemble(cfg)
    calls[0] = 0
    _assert_same_arrays(ens, _simulate_reference(cfg))
    return ens


def test_ensemble_matches_reference_mid_run_truncation(monkeypatch):
    # lane 2 is sent into the origin ball at step 4, lane 4's drift turns
    # NaN from step 300 and lane 6's infinite from step 600; the other
    # lanes run on beside the frozen ones
    pp = PhysParams(ecc=0.5, eps=1e-9)
    cfg = SimConfig(params=pp, dt=1e-3, n_steps=1500, n_paths=9, seed=3,
                    x0=[0.3, 0.2, 0.0], drift_cap=450.0, record_stride=10)

    def fault(k, X, B):
        if k == 4:
            B[:, 2] = -X[:, 2] / cfg.dt
        if k >= 300:
            B[0, 4] = np.nan
        if k >= 600:
            B[1, 6] = np.inf

    ens = _assert_matches_reference_with_faults(monkeypatch, cfg, fault)
    np.testing.assert_array_equal(ens.truncate_step,
                                  [-1, -1, 4, -1, 300, -1, 600, -1, -1])


@pytest.mark.parametrize("step", [sde._NOISE_CHUNK - 1, sde._NOISE_CHUNK])
def test_ensemble_matches_reference_truncation_at_chunk_edge(monkeypatch, step):
    # lane 1's drift turns NaN on the last step of the first noise chunk,
    # or on the first step of the second, and nowhere else
    cfg = SimConfig(params=PhysParams(ecc=0.5, eps=0.2), dt=1e-3,
                    n_steps=2 * sde._NOISE_CHUNK + 5, n_paths=4, seed=5,
                    record_stride=10, compute_jump_dist=False)

    def fault(k, X, B):
        if k == step:
            B[0, 1] = np.nan

    ens = _assert_matches_reference_with_faults(monkeypatch, cfg, fault)
    np.testing.assert_array_equal(ens.truncate_step, [-1, step, -1, -1])
    # every record from step count step + 1 on holds the frozen state
    assert np.all(ens.pos[1, -(-(step + 1) // 10):] == ens.pos[1, -1])


@pytest.mark.parametrize("n_paths, fault_step", [(7, 100), (6, 4)])
def test_ensemble_matches_reference_cap_bookkeeping(p, monkeypatch, n_paths,
                                                    fault_step):
    # a cap below |b| everywhere caps every step of every lane.  Lane 1's
    # drift is infinite on fault_step alone: that step is capped and
    # truncates, and the lane stays frozen where its drift would still
    # be capped, so none of its later steps may count.
    n_steps = sde._NOISE_CHUNK + 50
    cfg = small_cfg(p, n_paths=n_paths, n_steps=n_steps,
                    x0=[-0.3, 1e-3, 0.0], drift_cap=1e-3,
                    compute_jump_dist=False)

    def fault(k, X, B):
        if k == fault_step:
            B[1, 1] = np.inf

    ens = _assert_matches_reference_with_faults(monkeypatch, cfg, fault)
    want = np.full(n_paths, -1)
    want[1] = fault_step
    np.testing.assert_array_equal(ens.truncate_step, want)
    want = np.full(n_paths, n_steps)
    want[1] = fault_step + 1
    np.testing.assert_array_equal(ens.cap_rejections, want)


@pytest.mark.parametrize("n_steps, stride", [
    (100, 7),                           # shorter than one chunk
    (2 * sde._NOISE_CHUNK + 3, 7),      # a stride that does not divide it
    (2 * sde._NOISE_CHUNK + 7, 3000)])  # a stride longer than a chunk
def test_ensemble_matches_reference_record_grid(p, n_steps, stride):
    ens = _assert_matches_reference(small_cfg(
        p, n_paths=5, n_steps=n_steps, x0=[-0.3, 1e-3, 0.0], drift_cap=3.0,
        record_stride=stride))
    assert ens.pos.shape[1] == n_steps // stride + 1
    assert np.all(ens.cap_rejections > 0)


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
                        lambda pp, X: 0.0 * X + [[b_x], [0.0], [0.0]])
    cfg = SimConfig(params=PhysParams(lam=1e148), dt=1e140, n_steps=50,
                    n_paths=4, seed=7, x0=[x0, 0.0, 0.0], drift_cap=1e154,
                    record_stride=10, compute_jump_dist=False)
    ens = _assert_matches_reference(cfg)
    np.testing.assert_array_equal(ens.truncate_step, 0 if truncated else -1)


def test_ensemble_overflowing_start_is_silent(monkeypatch):
    # the start norm and the u/v of a finite start whose squares overflow
    # raise no RuntimeWarning
    monkeypatch.setattr(sde, "drift_components", lambda pp, X: 0.0 * X)
    cfg = SimConfig(params=PhysParams(lam=1e148), dt=1e140, n_steps=50,
                    n_paths=4, seed=7, x0=[1e160, 0.0, 0.0], drift_cap=1e154,
                    record_stride=10, compute_jump_dist=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ens = simulate_ensemble(cfg)
    np.testing.assert_array_equal(ens.truncate_step, -1)


def test_truncation_freezes_path(p):
    # a start almost at the origin trips the proximity guard immediately
    cfg = SimConfig(params=p, dt=1e-3, n_steps=50, n_paths=2, seed=1,
                    x0=np.array([5e-9, 0.0, 0.0]), record_stride=5)
    ens = simulate_ensemble(cfg)
    assert np.all(ens.truncated)
    np.testing.assert_array_equal(ens.pos[:, -1], ens.pos[:, 0])


# ---------------------------------------------------------------------------
# lane table and shards
# ---------------------------------------------------------------------------

#: A lam whose square by ** (libm pow) differs in the last bit from
#: lam * lam, as numpy squares an array.
LAM_POW_NOT_SQUARE = 1.8903560604397107


def _lane_table_cfgs(n_steps=2 * sde._NOISE_CHUNK + 7, n_paths=(5, 3, 7, 4)):
    """Four configs that differ in everything a lane carries: params,
    seed, start (a ring or a fixed point), drift cap (3 caps every step
    from the fixed point) and path count.  The last starts above
    z = 4a, where its jump-distance polyline depends on its largest
    |z|."""
    params = (PhysParams(ecc=0.5, eps=0.1),
              PhysParams(lam=LAM_POW_NOT_SQUARE, mu=0.7, ecc=0.3, eps=0.2),
              PhysParams(ecc=0.5, eps=0.1),
              PhysParams(ecc=0.9, eps=0.3))
    x0s = (RingStart(3.0), None, [-0.3, 1e-3, 0.0], RingStart(2.0, z=4.5))
    caps = (None, None, 3.0, None)
    return [SimConfig(params=pp, dt=1e-3, n_steps=n_steps, n_paths=n,
                      seed=seed, x0=x0, drift_cap=cap, record_stride=10)
            for pp, n, seed, x0, cap in zip(params, n_paths, (7, 8, 7, 0),
                                            x0s, caps)]


def _assert_same_ensembles(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.config is b.config
        for field in dataclasses.fields(TrajectoryEnsemble)[1:]:
            assert_bitwise_equal(getattr(a, field.name), getattr(b, field.name))


def test_lane_drift_components_equals_per_config_calls():
    # a (lanes,) array per param gives every lane the bits of its own
    # config's batch, y = +0 and y = -0 on the jump-set plane included
    cfgs = _lane_table_cfgs(n_paths=(64, 64, 64, 64))
    table = sde._LaneTable.of(cfgs)
    X = np.random.default_rng(5).uniform(-3.0, 3.0, (3, table.n_lanes))
    X[1, ::5] = 0.0
    X[1, 2::5] = -0.0
    with np.errstate(all="ignore"):
        got = sde.drift_components(table, X)
        want = np.concatenate(
            [sde.drift_components(cfg.params, X[:, lanes])
             for cfg, (_, lanes) in zip(cfgs, table.segments())], axis=1)
    assert got.tobytes() == want.tobytes()


def _nan_drift_at_step_300(monkeypatch):
    """Route ``sde.drift_components`` so that on step 300 the drift of
    every lane with x > 0 is NaN, which truncates those lanes there.
    Returns the call counter, to be reset to 0 before each run."""
    real = sde.drift_components
    calls = [0]

    def drift_with_fault(pp, X):
        B = real(pp, X)
        if calls[0] == 300:
            B[:, X[0] > 0] = np.nan
        calls[0] += 1
        return B

    monkeypatch.setattr(sde, "drift_components", drift_with_fault)
    return calls


def test_lane_table_equals_single_config_runs(monkeypatch):
    # every lane of a four-config table equals its own config's run bit
    # for bit: the fixed-point config is capped on every step, and the
    # lanes with x > 0 at step 300 truncate there in both runs
    calls = _nan_drift_at_step_300(monkeypatch)
    cfgs = _lane_table_cfgs()
    table = sde.simulate_ensembles(cfgs)
    singles = []
    for cfg in cfgs:
        calls[0] = 0
        singles.append(simulate_ensemble(cfg))
    _assert_same_ensembles(table, singles)
    assert np.all(table[2].cap_rejections > 0)
    truncated = np.concatenate([ens.truncate_step for ens in table])
    assert np.any(truncated == 300) and np.any(truncated == -1)


def test_sharded_run_equals_one_shard(monkeypatch):
    # two and three forced shards (more workers than this machine may
    # have CPUs) cut the table inside its last config, whose jump
    # distances must still measure against one polyline; so does one
    # lane per record-pass block
    cfgs = _lane_table_cfgs(n_steps=1500, n_paths=(5, 3, 4, 18))
    runs = []
    for n in (1, 2, 3):
        monkeypatch.setattr(sde, "shard_count", lambda n_lanes, n=n: n)
        runs.append(sde.simulate_ensembles(cfgs))
    monkeypatch.setattr(sde, "_RECORD_BLOCK", 1)
    runs.append(sde.simulate_ensembles(cfgs))
    for run in runs[1:]:
        _assert_same_ensembles(run, runs[0])


@pytest.mark.parametrize("compute_jump_dist", [False, True])
def test_lone_shard_holds_its_records_once(compute_jump_dist):
    # 64 lanes run in this process; recording every step of 8000 makes
    # the records (24.6 MB) outweigh the step buffers about fourfold.
    # The ensemble holds the shard's own arrays, not a copy, and (u, v)
    # and the jump distances are evaluated a block of lanes at a time.
    cfg = SimConfig(params=PhysParams(ecc=0.5, eps=0.2), dt=1e-3,
                    n_steps=8000, n_paths=64, seed=3, record_stride=1,
                    compute_jump_dist=compute_jump_dist)
    tracemalloc.start()
    try:
        ens = simulate_ensemble(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    records = sum(a.nbytes for a in (ens.pos, ens.u, ens.v, ens.dist_sigma))
    assert peak < 1.5 * records


def test_lane_table_rejects_mixed_shared_settings(p):
    base = dict(params=p, dt=1e-3, n_steps=100, n_paths=2, record_stride=10)
    for change in ({"dt": 2e-3}, {"n_steps": 200}, {"record_stride": 5},
                   {"compute_jump_dist": False}):
        with pytest.raises(ConfigError):
            sde.simulate_ensembles([SimConfig(**base),
                                    SimConfig(**{**base, **change})])
    with pytest.raises(ConfigError):
        sde.simulate_ensembles([])


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


def test_diagnostics_report(p, stationary_ensemble):
    rep = kepler_diagnostics(stationary_ensemble)
    assert 0 <= rep["fraction_converged_final"] <= 1
    assert rep["interior_starts"] == 0          # ring start at 3a
    assert len(rep["convergence_curve"]["t"]) == len(stationary_ensemble.times)
    assert rep["truncated_paths"] == 0


def test_diagnostics_leave_truncated_paths_out(p, monkeypatch):
    # the lanes with x > 0 at step 300 truncate there, and their frozen
    # records add no areal velocity
    _nan_drift_at_step_300(monkeypatch)
    ens = simulate_ensemble(small_cfg(p, n_steps=1000, n_paths=8))
    kept = ~ens.truncated
    assert np.any(ens.truncate_step == 300) and np.any(kept)
    half = ens.times >= 0.5 * ens.times[-1]
    av = sde.areal_velocity(ens)[kept][:, half[1:]]
    rep = kepler_diagnostics(ens)
    assert rep["truncated_paths"] == np.count_nonzero(~kept)
    assert rep["areal_velocity_mean"] == np.mean(av)
    assert rep["areal_velocity_rel_spread"] == pytest.approx(
        np.std(np.mean(av, axis=1)) / abs(np.mean(av)), rel=1e-12)


def test_interior_start_detected(p):
    cfg = small_cfg(p, n_steps=200, n_paths=4, x0=np.array([0.3, 0.0, 0.0]))
    rep = kepler_diagnostics(simulate_ensemble(cfg))
    assert rep["interior_starts"] == 4


def test_convergence_fraction_reference(p):
    # the analysis value for the showcase ensemble: ~0.92 of paths end
    # inside the |u - e| < 0.15, |z| < 0.2 tube (regression guard; the
    # 0.95 criterion itself is checked, and expected red, in acceptance)
    cfg = SimConfig(params=p, dt=1e-3, n_steps=50_000, n_paths=256, seed=1,
                    record_stride=500, compute_jump_dist=False)
    frac = simulate_ensemble(cfg).converged_mask()[:, -1].mean()
    assert 0.85 <= frac <= 0.97
