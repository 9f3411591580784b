"""Command-line entry point.

Subcommands: field, simulate, measure, spectral, verify.  Configuration
comes from a single JSON document with sections {params, sim, grid,
spectral, output}; command-line flags override file values, and every
artifact embeds the fully resolved configuration.  Stochastic commands
require an explicit --seed (no wall-clock seeding anywhere).

Exit codes: 0 success, 1 verification failure, 2 configuration error
(malformed input, or too few samples for the requested statistic),
3 domain or singularity error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import acceptance, fields, measure, sde, spectral
from .io import read_json, write_csv, write_json
from .params import (ConfigError, ConvergenceError, InsufficientSamplesError,
                     NodeError, PhysParams, ResolutionError,
                     SingularPointError)

_SECTIONS = {"params", "sim", "grid", "spectral", "output"}
_KEYS = {
    "params": {"lambda", "mu", "ecc", "eps"},
    "sim": {"dt", "n_steps", "n_paths", "seed", "x0", "drift_cap",
            "record_stride"},
    "grid": {"dim", "box", "n", "excluded"},
    "spectral": {"C"},
    "output": {"dir", "prefix"},
}


def load_config(path):
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - _SECTIONS
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for sec, keys in _KEYS.items():
        bad = set(cfg.get(sec, {})) - keys
        if bad:
            raise ConfigError(f"unknown keys in '{sec}': {sorted(bad)}")
    return cfg


def _params_from(cfg, args):
    sec = dict(cfg.get("params", {}))
    for flag, key in (("lam", "lambda"), ("mu", "mu"), ("ecc", "ecc"),
                      ("eps", "eps")):
        val = getattr(args, flag, None)
        if val is not None:
            sec[key] = val
    return PhysParams(lam=sec.get("lambda", 1.0), mu=sec.get("mu", 1.0),
                      ecc=sec.get("ecc", 0.5), eps=sec.get("eps", 0.1))


def _x0_from(spec, p):
    if spec is None:
        return None
    if isinstance(spec, dict):
        ring = spec.get("ring")
        if ring is None or set(spec) != {"ring"} \
                or set(ring) - {"radius", "z"}:
            raise ConfigError(f"bad x0 spec: {spec}")
        return sde.RingStart(float(ring["radius"]), float(ring.get("z", 0.0)))
    arr = [float(v) for v in spec]
    if len(arr) != 3:
        raise ConfigError("x0 point must have three components")
    return arr


def _sim_config(cfg, args, p):
    sec = dict(cfg.get("sim", {}))
    for flag, key in (("dt", "dt"), ("n_steps", "n_steps"),
                      ("n_paths", "n_paths"), ("seed", "seed"),
                      ("record_stride", "record_stride")):
        val = getattr(args, flag, None)
        if val is not None:
            sec[key] = val
    if "seed" not in sec or sec["seed"] is None:
        raise ConfigError("stochastic commands require --seed "
                          "(no wall-clock seeding)")
    kwargs = {k: sec[k] for k in
              ("dt", "n_steps", "n_paths", "seed", "drift_cap",
               "record_stride") if k in sec}
    return sde.SimConfig(params=p, x0=_x0_from(sec.get("x0"), p), **kwargs)


def _out_dir(cfg, args):
    sec = cfg.get("output", {})
    d = getattr(args, "out_dir", None) or sec.get("dir", ".")
    os.makedirs(d, exist_ok=True)
    return d, sec.get("prefix", "")


def _parse_floats(flag, text, count):
    """The flag's comma-separated finite numbers, exactly count of them
    unless count is None; ConfigError when malformed."""
    try:
        vals = np.array([float(v) for v in text.split(",")])
    except ValueError:
        vals = None
    if vals is None or not np.all(np.isfinite(vals)):
        raise ConfigError(f"{flag} wants finite numbers, got {text!r}")
    if count is not None and vals.size != count:
        raise ConfigError(f"{flag} wants {count} numbers, got {text!r}")
    return vals


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_field(args):
    cfg = load_config(args.config) if args.config else {}
    p = _params_from(cfg, args)
    if args.check_identities:
        n = args.n or 10_000
        en, orth = acceptance.identity_residuals(p, n)
        print(json.dumps({"config": p.as_dict(), "n_points": n,
                          "max_energy_residual": en,
                          "max_orthogonality": orth}, sort_keys=True))
        return 0 if (en < acceptance.IDENTITY_ENERGY_TOL
                     and orth < acceptance.IDENTITY_ORTH_TOL) else 1
    if args.grid:
        if not args.box:
            raise ConfigError("--grid needs --box x0,x1,y0,y1")
        x0, x1, y0, y1 = _parse_floats("--box", args.box, 4)
        n = args.grid
        xs = np.linspace(x0, x1, n)
        ys = np.linspace(y0, y1, n)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([X, Y, np.full_like(X, args.z)], axis=-1).reshape(-1, 3)
        with np.errstate(all="ignore"):
            alpha, beta = fields.alpha_beta(p, pts)
            b = fields.drift(p, pts)
            ld = measure.log_invariant_density(p, pts)
        rows = [(pt[0], pt[1], pt[2], float(al), float(be),
                 float(bb[0]), float(bb[1]), float(bb[2]), float(l))
                for pt, al, be, bb, l in zip(pts, alpha, beta, b, ld)]
        out = args.out or "field_grid.csv"
        write_csv(out, ["x", "y", "z", "alpha", "beta", "b_x", "b_y", "b_z",
                        "log_density"], rows,
                  metadata={"params": p.as_dict(), "grid": n,
                            "box": [x0, x1, y0, y1], "z": args.z})
        print(f"wrote {out}")
        return 0
    if args.point is None:
        raise ConfigError("field wants --point, --grid or --check-identities")
    pt = _parse_floats("--point", args.point, 3)
    sample = fields.FieldSample.at(p, pt)
    print(json.dumps({"config": p.as_dict(), "point": pt.tolist(),
                      **sample.as_dict()}, sort_keys=True))
    return 0


def _figure1_config(p, seed):
    return sde.SimConfig(params=p, dt=1e-3, n_steps=50_000, n_paths=256,
                         seed=seed, x0=sde.RingStart(3 * p.a),
                         record_stride=50)


def cmd_simulate(args):
    cfg = load_config(args.config) if args.config else {}
    p = _params_from(cfg, args)
    out_dir, prefix = _out_dir(cfg, args)

    if args.deterministic:
        period, _ = sde.deterministic_orbit(p, n_periods=args.n_periods)
        theory = 2 * math.pi * math.sqrt(p.a ** 3 / p.mu)
        report = {"config": {"params": p.as_dict(), "mode": "deterministic",
                             "n_periods": args.n_periods},
                  "period": period,
                  "period_theory": theory,
                  "relative_error": abs(period / theory - 1)}
        path = os.path.join(out_dir, prefix + "deterministic.json")
        write_json(path, report)
        print(json.dumps(report, sort_keys=True))
        return 0

    if args.figure1:
        sim = _figure1_config(p, args.seed)
        if args.seed is None:
            raise ConfigError("--figure1 requires --seed")
    else:
        sim = _sim_config(cfg, args, p)
    ens = sde.simulate_ensemble(sim)
    rep = sde.kepler_diagnostics(ens, p)
    meta = sim.as_dict()
    traj_path = os.path.join(out_dir, prefix + "trajectories.csv")
    rows = []
    for i in range(ens.n_paths):
        for k in range(len(ens.times)):
            rows.append((i, float(ens.times[k]),
                         float(ens.pos[i, k, 0]), float(ens.pos[i, k, 1]),
                         float(ens.pos[i, k, 2]), float(ens.u[i, k]),
                         float(ens.v[i, k]), float(ens.dist_sigma[i, k])))
    write_csv(traj_path, ["path", "t", "x", "y", "z", "u", "v", "dist_sigma"],
              rows, metadata=meta)
    diag_path = os.path.join(out_dir, prefix + "diagnostics.json")
    write_json(diag_path, {"config": meta, **rep})
    print(json.dumps({"trajectories": traj_path, "diagnostics": diag_path,
                      "fraction_converged_final":
                          rep["fraction_converged_final"]}, sort_keys=True))
    return 0


def cmd_measure(args):
    cfg = load_config(args.config) if args.config else {}
    p = _params_from(cfg, args)
    out_dir, prefix = _out_dir(cfg, args)
    did = False
    if args.widths:
        vs = np.linspace(0, 2 * np.pi, args.bins, endpoint=False)
        sn, sz = measure.cross_section_widths(p, vs)
        path = os.path.join(out_dir, prefix + "widths.csv")
        write_csv(path, ["v", "sigma_normal", "sigma_z"],
                  list(zip(map(float, vs), map(float, sn), map(float, sz))),
                  metadata={"params": p.as_dict()})
        print(f"wrote {path}")
        did = True
    if args.marginal:
        if args.seed is None:
            raise ConfigError("--marginal requires --seed")
        samples = int(_parse_floats("--samples", args.samples, 1)[0])
        n_paths = 64
        stride = 12
        burn = 24.0
        dt = 1e-3
        per_path = math.ceil(samples / n_paths)
        n_steps = int(burn / dt) + per_path * stride
        sim = sde.SimConfig(params=p, dt=dt, n_steps=n_steps,
                            n_paths=n_paths, seed=args.seed,
                            record_stride=stride, compute_jump_dist=False)
        # truncated paths can only lower this bound, so it is checked
        # again on the ensemble
        most = n_paths * int(np.count_nonzero(sim.record_times() >= burn))
        if most < measure.MIN_MARGINAL_SAMPLES:
            raise InsufficientSamplesError(
                f"--samples {samples} yields at most {most} post-burn-in "
                f"samples; need >= {measure.MIN_MARGINAL_SAMPLES}")
        ens = sde.simulate_ensemble(sim)
        marg = measure.empirical_marginal(ens, bins=args.bins, burn_in=burn)
        emp = marg.probabilities
        ana = marg.analytic_probs(p.ecc)
        meta = {"sim": sim.as_dict(), "bins": args.bins, "burn_in": burn}
        mpath = os.path.join(out_dir, prefix + "marginal.csv")
        write_csv(mpath, ["bin_center", "empirical", "analytic"],
                  list(zip(map(float, marg.centers), map(float, emp),
                           map(float, ana))), metadata=meta)
        summary = {"config": meta, "l1": marg.l1_distance(p.ecc),
                   "chi2": marg.chi2(p.ecc), "samples": marg.total}
        spath = os.path.join(out_dir, prefix + "marginal_summary.json")
        write_json(spath, summary)
        print(json.dumps(summary, sort_keys=True))
        did = True
    if not did:
        raise ConfigError("measure wants --marginal and/or --widths")
    return 0


def cmd_spectral(args):
    cfg = load_config(args.config) if args.config else {}
    p = _params_from(cfg, args)
    out_dir, prefix = _out_dir(cfg, args)
    if args.scan:
        sec = cfg.get("spectral", {})
        if args.C is not None:
            scfg = spectral.SpectralConfig(params=p, C=args.C)
        elif isinstance(sec.get("C"), (int, float)):
            scfg = spectral.SpectralConfig(params=p, C=float(sec["C"]))
        else:
            scfg = spectral.SpectralConfig.from_measurement(p)
        if args.radii:
            radii = _parse_floats("--radii", args.radii, None)
        else:
            radii = np.geomspace(0.1, 100.0, 25) * p.a
        scan = spectral.osmotic_radial_scan(p, scfg, radii)
        path = os.path.join(out_dir, prefix + "radial_scan.csv")
        write_csv(path, ["r", "max_Gu", "bound"], scan.rows(),
                  metadata={"params": p.as_dict(), "C": scfg.C,
                            "C_tilde": scfg.C_tilde})
        print(json.dumps({"scan": path, "r1_hat": scan.r1_hat,
                          "sup_grad_log_T": scan.sup_grad_log_T,
                          "C": scfg.C}, sort_keys=True))
        return 0
    if not args.gap:
        raise ConfigError("spectral wants --gap or --scan")
    gsec = cfg.get("grid", {})
    dim = args.dim or gsec.get("dim", 2)
    if dim == 2:
        grid = spectral.production_grid_2d(p, n=args.n or gsec.get("n"))
    else:
        grid = spectral.default_grid(p, dim=dim,
                                     n=args.n or gsec.get("n"))
    G = spectral.build_generator(p, grid)
    res = spectral.gap_from_matrix(G)
    report = {"params": p.as_dict(), "grid": grid.as_dict(),
              **res.as_dict()}
    if not args.no_autocorr:
        if args.seed is None:
            raise ConfigError("--gap with autocorrelation requires --seed "
                              "(pass --no-autocorr to skip)")
        sim = sde.SimConfig(params=p, dt=1e-3, n_steps=240_000, n_paths=64,
                            seed=args.seed, record_stride=20,
                            compute_jump_dist=False)
        ens = sde.simulate_ensemble(sim)
        ac = spectral.gap_from_autocorrelation(ens, burn_in=20.0)
        report.update(ac.as_dict())
        report["agreement_ratio"] = max(ac.gamma / res.gap,
                                        res.gap / ac.gamma)
    path = os.path.join(out_dir, prefix + "gap_report.json")
    write_json(path, report)
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_verify(args):
    which = acceptance.QUICK if args.quick else acceptance.ALL
    results = acceptance.run_acceptance(which)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="kepdiff",
        description="simulation and verification toolkit for the "
                    "Kepler-ellipse-localised diffusion")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_params(sp):
        sp.add_argument("--lambda", dest="lam", type=float, default=None)
        sp.add_argument("--mu", type=float, default=None)
        sp.add_argument("--ecc", type=float, default=None)
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out-dir", dest="out_dir", default=None)

    sp = sub.add_parser("field", help="evaluate closed-form fields")
    add_params(sp)
    sp.add_argument("--point", default=None, help="x,y,z")
    sp.add_argument("--grid", type=int, default=None,
                    help="emit an N x N field table")
    sp.add_argument("--box", default=None, help="x0,x1,y0,y1 for --grid")
    sp.add_argument("--z", type=float, default=0.0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--check-identities", action="store_true")
    sp.add_argument("--n", type=int, default=None)
    sp.set_defaults(func=cmd_field)

    sp = sub.add_parser("simulate", help="run a trajectory ensemble")
    add_params(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--n-steps", dest="n_steps", type=int, default=None)
    sp.add_argument("--n-paths", dest="n_paths", type=int, default=None)
    sp.add_argument("--record-stride", dest="record_stride", type=int,
                    default=None)
    sp.add_argument("--figure1", action="store_true",
                    help="showcase ensemble preset (ecc 0.5, eps 0.1)")
    sp.add_argument("--deterministic", action="store_true",
                    help="zero-noise orbit, reports the measured period")
    sp.add_argument("--n-periods", dest="n_periods", type=int, default=5)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("measure", help="invariant-measure reports")
    add_params(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--marginal", action="store_true")
    sp.add_argument("--widths", action="store_true")
    sp.add_argument("--samples", default="1e6")
    sp.add_argument("--bins", type=int, default=64)
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("spectral", help="gap estimation and scans")
    add_params(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--gap", action="store_true")
    sp.add_argument("--scan", action="store_true")
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--no-autocorr", dest="no_autocorr", action="store_true")
    sp.add_argument("--radii", default=None)
    sp.add_argument("--C", type=float, default=None)
    sp.set_defaults(func=cmd_spectral)

    sp = sub.add_parser("verify", help="run the acceptance criteria")
    sp.add_argument("--quick", action="store_true",
                    help="closed-form-only subset")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InsufficientSamplesError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SingularPointError, NodeError, ResolutionError,
            ConvergenceError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
