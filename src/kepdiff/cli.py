"""Command-line entry point.

Subcommands: field, simulate, measure, spectral, verify.  Configuration
comes from a single JSON document with sections {params, sim, grid,
output}; command-line flags override file values, and every artifact
embeds the fully resolved configuration.  Stochastic commands
require an explicit --seed (no wall-clock seeding anywhere).
`spectral --gap` solves the planar z = 0 restriction on
`spectral.production_grid_2d`, whose points per axis are the grid
section's only key, n.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(malformed input, too few samples for the requested statistic, or a run
that does not fit in memory), 3 domain or singularity error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import acceptance, fields, measure, sde, spectral
from .io import (TRAJECTORY_COLUMNS, read_json, trajectory_blocks,
                 write_csv, write_json)
from .params import (ConfigError, ConvergenceError, InsufficientSamplesError,
                     NodeError, PhysParams, ResolutionError,
                     SingularPointError)


def _integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v):
    try:
        return _number(v) and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _start(v):
    if isinstance(v, dict):
        ring = v.get("ring")
        return set(v) == {"ring"} and isinstance(ring, dict) \
            and "radius" in ring and not set(ring) - {"radius", "z"} \
            and all(map(_number, ring.values()))
    return isinstance(v, list) and len(v) == 3 and all(map(_number, v))


_INT = (_integer, "an integer")
_REAL = (_finite, "a finite number")
_TEXT = (lambda v: isinstance(v, str), "a string")
#: Each section's keys, with the check a value must pass and its wording.
_KEYS = {
    "params": {"lambda": _REAL, "mu": _REAL, "ecc": _REAL, "eps": _REAL},
    "sim": {"dt": _REAL, "n_steps": _INT, "n_paths": _INT, "seed": _INT,
            "x0": (_start, "a point [x, y, z] or a ring "
                           "{'ring': {'radius': r, 'z': z}} of numbers"),
            "drift_cap": _REAL, "record_stride": _INT},
    "grid": {"n": _INT},
    "output": {"dir": _TEXT, "prefix": _TEXT},
}
#: Config keys whose flag (and PhysParams field) has another name.
_FLAG_NAMES = {"lambda": "lam"}


def load_config(path):
    """The config document, checked: known sections and keys only, each
    value of its key's type.  A null value counts as not given; with no
    path every section is empty."""
    if path is None:
        return {sec: {} for sec in _KEYS}
    try:
        cfg = read_json(path)
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
        raise ConfigError(f"config {path} is not readable JSON: {exc}") \
            from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for sec, keys in _KEYS.items():
        body = cfg.setdefault(sec, {})
        if not isinstance(body, dict):
            raise ConfigError(f"config section '{sec}' must be an object")
        bad = set(body) - set(keys)
        if bad:
            raise ConfigError(f"unknown keys in '{sec}': {sorted(bad)}")
        cfg[sec] = {k: v for k, v in body.items() if v is not None}
        for key, val in cfg[sec].items():
            check, kind = keys[key]
            if not check(val):
                raise ConfigError(f"{sec}.{key} must be {kind}, got {val!r}")
    return cfg


def _given(cfg, sec, args):
    """Section sec of cfg keyed by flag name, with each of its keys'
    flags that was given on the command line laid over it."""
    body = {_FLAG_NAMES.get(k, k): v for k, v in cfg[sec].items()}
    for key in _KEYS[sec]:
        flag = _FLAG_NAMES.get(key, key)
        if getattr(args, flag, None) is not None:
            body[flag] = getattr(args, flag)
    return body


def _sim_config(cfg, args, p):
    sec = _given(cfg, "sim", args)
    if "seed" not in sec:
        raise ConfigError("stochastic commands require --seed "
                          "(no wall-clock seeding)")
    x0 = sec.pop("x0", None)
    if isinstance(x0, dict):
        ring = x0["ring"]
        x0 = sde.RingStart(float(ring["radius"]), float(ring.get("z", 0.0)))
    elif x0 is not None:
        x0 = [float(v) for v in x0]
    return sde.SimConfig(params=p, x0=x0, **sec)


def _out_dir(cfg, args):
    """The output directory (made here; an empty name is refused) and file
    prefix; called after every input check, so a refused command leaves
    nothing behind."""
    sec = cfg["output"]
    d = sec.get("dir", ".") if args.out_dir is None else args.out_dir
    if not d:
        raise ConfigError("the output directory is empty (use '.')")
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


def _at_least_one(name, value):
    """value, which must be >= 1; ConfigError otherwise."""
    if not value >= 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
    return value


def _refuse(mode, args, *flags, extra=()):
    """ConfigError naming each of flags given on the command line, and
    each entry of extra: mode would ignore them, so they are refused
    rather than silently dropped."""
    values = [getattr(args, flag[2:].replace("-", "_")) for flag in flags]
    # identity tests: a given 0 compares equal to False
    ignored = [flag for flag, v in zip(flags, values)
               if v is not None and v is not False] + [*extra]
    if ignored:
        raise ConfigError(f"{mode} would ignore {', '.join(ignored)}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_field(args):
    # field prints, or writes --grid's table to --out
    _refuse("field", args, "--out-dir")
    cfg = load_config(args.config)
    p = PhysParams(**_given(cfg, "params", args))
    if args.check_identities:
        _refuse("--check-identities", args, "--point", "--grid", "--box",
                "--z", "--out")
        n = acceptance.IDENTITY_SAMPLES if args.n is None \
            else _at_least_one("--n", args.n)
        en, orth = acceptance.identity_residuals(p, n)
        print(json.dumps({"config": p.as_dict(), "n_points": n,
                          "max_energy_residual": en,
                          "max_orthogonality": orth}, sort_keys=True))
        return 0 if (en < acceptance.IDENTITY_ENERGY_TOL
                     and orth < acceptance.IDENTITY_ORTH_TOL) else 1
    if args.grid is not None:
        _refuse("--grid", args, "--point", "--n")
        n = _at_least_one("--grid", args.grid)
        if not args.box:
            raise ConfigError("--grid needs --box x0,x1,y0,y1")
        x0, x1, y0, y1 = _parse_floats("--box", args.box, 4)
        z = 0.0 if args.z is None else args.z
        if not math.isfinite(z):
            raise ConfigError(f"--z wants a finite number, got {z}")
        xs = np.linspace(x0, x1, n)
        ys = np.linspace(y0, y1, n)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([X, Y, np.full_like(X, z)], axis=-1).reshape(-1, 3)
        with np.errstate(all="ignore"):
            alpha, beta = fields.alpha_beta(p, pts)
            b = fields.drift(p, pts)
            ld = measure.log_invariant_density(p, pts)
        out = args.out or "field_grid.csv"
        cols = (*pts.T, alpha, beta, *b.T, ld)
        # one block per grid line: the text of one line is held at a time
        write_csv(out, ["x", "y", "z", "alpha", "beta", "b_x", "b_y", "b_z",
                        "log_density"], zip(*(np.split(c, n) for c in cols)),
                  metadata={"params": p.as_dict(), "grid": n,
                            "box": [x0, x1, y0, y1], "z": z})
        print(f"wrote {out}")
        return 0
    if args.point is None:
        raise ConfigError("field wants --point, --grid or --check-identities")
    _refuse("--point", args, "--box", "--z", "--out", "--n")
    pt = _parse_floats("--point", args.point, 3)
    print(json.dumps({"config": p.as_dict(), "point": pt.tolist(),
                      **fields.field_report(p, pt)}, sort_keys=True))
    return 0


def cmd_simulate(args):
    cfg = load_config(args.config)
    p = PhysParams(**_given(cfg, "params", args))
    # a preset fixes the run: flags and config values shaping it are
    # refused, and only --deterministic reads --n-periods
    preset = ("--dt", "--n-steps", "--n-paths", "--record-stride")
    sim_section = ["the config's sim section"] if cfg["sim"] else []
    if args.deterministic:
        _refuse("--deterministic", args, *preset, "--figure1", "--seed",
                extra=sim_section)
        n_periods = 5 if args.n_periods is None else _at_least_one(
            "--n-periods", args.n_periods)
    elif args.figure1:
        _refuse("--figure1", args, *preset, "--n-periods", extra=sim_section)
        if args.seed is None:
            raise ConfigError("--figure1 requires --seed")
        sim = sde.SimConfig.figure1(p, args.seed)
    else:
        _refuse("simulate without --deterministic", args, "--n-periods")
        sim = _sim_config(cfg, args, p)
    out_dir, prefix = _out_dir(cfg, args)

    if args.deterministic:
        period, _ = sde.deterministic_orbit(p, n_periods=n_periods)
        theory = 2 * math.pi * math.sqrt(p.a ** 3 / p.mu)
        report = {"config": {"params": p.as_dict(), "mode": "deterministic",
                             "n_periods": n_periods},
                  "period": period,
                  "period_theory": theory,
                  "relative_error": abs(period / theory - 1)}
        path = os.path.join(out_dir, prefix + "deterministic.json")
        write_json(path, report)
        print(json.dumps(report, sort_keys=True))
        return 0

    ens = sde.simulate_ensemble(sim)
    rep = sde.kepler_diagnostics(ens)
    meta = sim.as_dict()
    traj_path = os.path.join(out_dir, prefix + "trajectories.csv")
    write_csv(traj_path, TRAJECTORY_COLUMNS, trajectory_blocks(ens),
              metadata=meta)
    diag_path = os.path.join(out_dir, prefix + "diagnostics.json")
    write_json(diag_path, {"config": meta, **rep})
    print(json.dumps({"trajectories": traj_path, "diagnostics": diag_path,
                      "fraction_converged_final":
                          rep["fraction_converged_final"]}, sort_keys=True))
    return 0


def cmd_measure(args):
    cfg = load_config(args.config)
    p = PhysParams(**_given(cfg, "params", args))
    if not (args.marginal or args.widths):
        raise ConfigError("measure wants --marginal and/or --widths")
    if not args.marginal:
        _refuse("--widths", args, "--seed", "--samples")
    _at_least_one("--bins", args.bins)
    if args.marginal:
        if args.seed is None:
            raise ConfigError("--marginal requires --seed")
        text = "1e6" if args.samples is None else args.samples
        samples = int(_parse_floats("--samples", text, 1)[0])
        burn = sde.MARGINAL_BURN_IN
        sim = sde.SimConfig.marginal(p, args.seed, samples)
        # truncated paths can only lower this bound, so it is checked
        # again on the ensemble
        most = sim.n_paths * int(np.count_nonzero(sim.record_times() >= burn))
        if most < measure.MIN_MARGINAL_SAMPLES:
            raise InsufficientSamplesError(
                f"--samples {samples} yields at most {most} post-burn-in "
                f"samples; need >= {measure.MIN_MARGINAL_SAMPLES}")
    out_dir, prefix = _out_dir(cfg, args)
    if args.widths:
        vs = np.linspace(0, 2 * np.pi, args.bins, endpoint=False)
        sn, sz = measure.cross_section_widths(p, vs)
        path = os.path.join(out_dir, prefix + "widths.csv")
        write_csv(path, ["v", "sigma_normal", "sigma_z"], [(vs, sn, sz)],
                  metadata={"params": p.as_dict()})
        print(f"wrote {path}")
    if args.marginal:
        ens = sde.simulate_ensemble(sim)
        marg = measure.empirical_marginal(ens, bins=args.bins, burn_in=burn)
        emp = marg.probabilities
        ana = marg.analytic_probs(p.ecc)
        meta = {"sim": sim.as_dict(), "bins": args.bins, "burn_in": burn}
        mpath = os.path.join(out_dir, prefix + "marginal.csv")
        write_csv(mpath, ["bin_center", "empirical", "analytic"],
                  [(marg.centers, emp, ana)], metadata=meta)
        v, zemp, zpred = measure.z_spread_by_angle(ens, burn_in=burn)
        summary = {"config": meta, "l1": marg.l1_distance(p.ecc),
                   "chi2": marg.chi2(p.ecc), "samples": marg.total,
                   "z_spread": {"v": v.tolist(), "empirical": zemp.tolist(),
                                "gaussian_prediction": zpred.tolist(),
                                "width_factor": measure.GAUSS_WIDTH_FACTOR}}
        spath = os.path.join(out_dir, prefix + "marginal_summary.json")
        write_json(spath, summary)
        print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_spectral(args):
    cfg = load_config(args.config)
    p = PhysParams(**_given(cfg, "params", args))
    if not (args.scan or args.gap):
        raise ConfigError("spectral wants --gap or --scan")
    # each mode refuses the other's flags; config sections pass, as one
    # document may serve both modes
    if args.scan:
        _refuse("--scan", args, "--gap", "--n", "--seed", "--no-autocorr")
        if args.radii is not None:
            radii = _parse_floats("--radii", args.radii, None)
        else:
            radii = spectral.SCAN_RADII * p.a
        scan = spectral.osmotic_radial_scan(p, radii)
        out_dir, prefix = _out_dir(cfg, args)
        path = os.path.join(out_dir, prefix + "radial_scan.csv")
        rows = (scan.radii, scan.max_gu, np.full(len(scan.radii), scan.bound))
        write_csv(path, ["r", "max_Gu", "bound"], [rows],
                  metadata={"params": p.as_dict(), "C": scan.C,
                            "C_tilde": scan.C_tilde})
        # no radius past which the bound holds: null, not Infinity
        r1 = scan.r1_hat if math.isfinite(scan.r1_hat) else None
        print(json.dumps({"scan": path, "r1_hat": r1, "C": scan.C},
                         sort_keys=True))
        return 0
    _refuse("--gap", args, "--radii")
    if args.no_autocorr:
        _refuse("--no-autocorr", args, "--seed")
    elif args.seed is None:
        raise ConfigError("--gap with autocorrelation requires --seed "
                          "(pass --no-autocorr to skip)")
    grid = spectral.production_grid_2d(p, n=_given(cfg, "grid", args).get("n"))
    G = spectral.build_generator(p, grid)  # the resolution gate on n
    out_dir, prefix = _out_dir(cfg, args)
    res = spectral.gap_from_matrix(G)
    report = {"params": p.as_dict(), "grid": grid.as_dict(),
              **res.as_dict()}
    if not args.no_autocorr:
        ens = sde.simulate_ensemble(
            sde.SimConfig.autocorrelation(p, args.seed))
        ac = spectral.gap_from_autocorrelation(
            ens, burn_in=sde.AUTOCORR_BURN_IN)
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
    sp.add_argument("--z", type=float, default=None)
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
    sp.add_argument("--n-periods", dest="n_periods", type=int, default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("measure", help="invariant-measure reports")
    add_params(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--marginal", action="store_true")
    sp.add_argument("--widths", action="store_true")
    sp.add_argument("--samples", default=None)
    sp.add_argument("--bins", type=int, default=64)
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("spectral", help="gap estimation and scans")
    add_params(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--gap", action="store_true")
    sp.add_argument("--scan", action="store_true")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--no-autocorr", dest="no_autocorr", action="store_true")
    sp.add_argument("--radii", default=None)
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
    except MemoryError as exc:  # numpy's message names the size asked for
        print(f"config error: {exc}; the run does not fit in memory",
              file=sys.stderr)
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
