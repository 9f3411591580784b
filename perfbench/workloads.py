"""The benchmark's workloads, their outputs and the checks on them.

Each workload is a configuration of an acceptance criterion or of the
CLI, changed only in step count or selection, so a gain measured here
carries over to ``kepdiff verify`` and ``kepdiff simulate``:

ensemble_narrow  C7's four 64-lane autocorrelation ensembles, 25k steps
                 each instead of 240k, each followed by the
                 autocorrelation gap.  Per-step numpy overhead dominates;
                 no jump distances, no matrix solver, no file output.
figure1          ``kepdiff simulate --figure1`` in-process: 256 lanes,
                 jump distances on every record, a 33 MB CSV.
gap_matrix       C7's production matrix gaps at e = 0.5, eps 0.3/0.2/0.1.
                 Generator assembly, sparse LU, no SDE.
proof_checks     C1, C3, C6 and C8: special functions, quadrature and the
                 adjoint/Dirichlet/radial-scan checks.

A pass returns a raw result; ``summarize`` turns it into a dict of
plain values (digests, exact float reprs, flags) outside the timed
region, and ``checks`` compares that dict against the program's own
gates and the stored references.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from kepdiff import acceptance, cli, fields, sde, spectral
from kepdiff.params import PhysParams

ENSEMBLE_CONFIGS = ((0.3, 0.2), (0.3, 0.3), (0.5, 0.2), (0.5, 0.3))
#: C7 runs 240k steps; 25k keeps 5 time units past C7's burn-in of 20.
ENSEMBLE_STEPS = 25_000
ENSEMBLE_BURN_IN = 20.0
#: C7's production grid sizes (acceptance._model_grid).
GAP_GRID_N = {0.3: 160, 0.2: 240, 0.1: 340}
FIGURE1 = {"e": 0.5, "eps": 0.1, "n_paths": 256, "n_steps": 50_000}
PROOF_CRITERIA = ("C1", "C3", "C6", "C8")

#: u and v may move by rounding when the coordinate inversion changes
#: (a closed form differs from the bisection at about 1e-14).
UV_MEAN_TOL = 1e-9
#: Bound on the round-trip error times (1 - u^2).  Near the u = 1
#: segment v is recovered from y / sqrt(1 - u^2), so a rounding error du
#: in u moves the round trip by about du / (1 - u^2); to_elliptic
#: promises 1e-10 only away from that segment, and a path 1e-5 from it
#: can round-trip to 1e-6.  At u = 0.5 the raw error may reach 1.3e-8;
#: only near the segment does the bound widen further.
UV_ROUNDTRIP_TOL = 1e-8
GAMMA_REL_TOL = 1e-8
DIST_REL_TOL = 1e-6
#: Far below C7's own tolerances and far above solver rounding; catches
#: a solver that converges to the wrong mode.
GAP_REL_TOL = 1e-3


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _uv_summary(p, pos, u, v):
    """Means of u, cos v, sin v and the worst weighted round trip."""
    back = fields.from_elliptic(p, (u, v, pos[..., 2]))
    err = np.max(np.abs(back - pos), axis=-1)
    weight = np.maximum(1 - u * u, 0.0)
    return {"u_mean": float(np.mean(u)),
            "cos_v_mean": float(np.mean(np.cos(v))),
            "sin_v_mean": float(np.mean(np.sin(v))),
            "uv_roundtrip_weighted_err": float(np.max(err * weight))}


def _uv_checks(prefix, out, ref):
    res = [(f"{prefix}uv_roundtrip",
            out["uv_roundtrip_weighted_err"] < UV_ROUNDTRIP_TOL)]
    for key in ("u_mean", "cos_v_mean", "sin_v_mean"):
        res.append((f"{prefix}{key}",
                    None if ref is None
                    else abs(out[key] - ref[key]) <= UV_MEAN_TOL))
    return res


def _same(prefix, key, out, ref):
    return (f"{prefix}{key}", None if ref is None else out[key] == ref[key])


# ---------------------------------------------------------------------------
# ensemble_narrow
# ---------------------------------------------------------------------------

def _ensemble_key(e, eps):
    return f"e{e}_eps{eps}"


def ensemble_pass(seed, workdir, span):
    out = []
    for e, eps in ENSEMBLE_CONFIGS:
        p = PhysParams(ecc=e, eps=eps)
        cfg = sde.SimConfig(params=p, dt=1e-3, n_steps=ENSEMBLE_STEPS,
                            n_paths=64, seed=seed, record_stride=20,
                            compute_jump_dist=False)
        ens = sde.simulate_ensemble(cfg)
        ac = spectral.gap_from_autocorrelation(ens, burn_in=ENSEMBLE_BURN_IN)
        out.append((e, eps, ens, ac))
    return out


def ensemble_summarize(result):
    summary = {}
    for e, eps, ens, ac in result:
        p = ens.config.params
        summary[_ensemble_key(e, eps)] = {
            "pos_sha256": _sha256(ens.pos),
            "truncated_sha256": _sha256(ens.truncated),
            "gamma": float(ac.gamma),
            **_uv_summary(p, ens.pos, ens.u, ens.v)}
    return summary


def ensemble_checks(summary, ref):
    res = []
    for key, out in summary.items():
        r = None if ref is None else ref[key]
        pre = f"{key}."
        res.append(_same(pre, "pos_sha256", out, r))
        res.append(_same(pre, "truncated_sha256", out, r))
        res.extend(_uv_checks(pre, out, r))
        res.append((f"{pre}gamma_positive", out["gamma"] > 0))
        res.append((f"{pre}gamma", None if r is None else
                    abs(out["gamma"] / r["gamma"] - 1) <= GAMMA_REL_TOL))
    return res


def ensemble_work(summary):
    return len(ENSEMBLE_CONFIGS) * 64 * ENSEMBLE_STEPS


# ---------------------------------------------------------------------------
# figure1
# ---------------------------------------------------------------------------

def figure1_pass(seed, workdir, span):
    out_dir = tempfile.mkdtemp(prefix="figure1-", dir=workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["simulate", "--figure1", "--seed", str(seed),
                       "--out-dir", out_dir])
    return rc, out_dir


def figure1_summarize(result):
    rc, out_dir = result
    try:
        summary = {"exit_code": rc}
        if rc != 0:
            return summary
        with open(os.path.join(out_dir, "diagnostics.json")) as fh:
            diag = json.load(fh)
        csv_path = os.path.join(out_dir, "trajectories.csv")
        with open(csv_path, "rb") as fh:
            summary["csv_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        # path, t, x, y, z, u, v, dist_sigma; rows are path-major
        rows = np.loadtxt(csv_path, delimiter=",", comments="#", skiprows=2)
        n_paths = FIGURE1["n_paths"]
        pos = rows[:, 2:5].reshape(n_paths, -1, 3)
        p = PhysParams(ecc=FIGURE1["e"], eps=FIGURE1["eps"])
        summary.update({
            "pos_sha256": _sha256(pos),
            "fraction_converged_final": diag["fraction_converged_final"],
            "truncated_paths": diag["truncated_paths"],
            "dist_sigma_mean": float(np.mean(rows[:, 7])),
            **_uv_summary(p, pos, rows[:, 5].reshape(n_paths, -1),
                          rows[:, 6].reshape(n_paths, -1))})
        return summary
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def figure1_checks(summary, ref):
    res = [("exit_code", summary["exit_code"] == 0)]
    if summary["exit_code"] != 0:
        return res
    res.append(_same("", "pos_sha256", summary, ref))
    res.append(_same("", "truncated_paths", summary, ref))
    res.append(_same("", "fraction_converged_final", summary, ref))
    res.extend(_uv_checks("", summary, ref))
    res.append(("dist_sigma_mean", None if ref is None else
                abs(summary["dist_sigma_mean"] / ref["dist_sigma_mean"] - 1)
                <= DIST_REL_TOL))
    return res


def figure1_work(summary):
    return FIGURE1["n_paths"] * FIGURE1["n_steps"]


# ---------------------------------------------------------------------------
# gap_matrix
# ---------------------------------------------------------------------------

def gap_pass(seed, workdir, span):
    out = []
    for eps in (0.3, 0.2, 0.1):
        p = PhysParams(ecc=0.5, eps=eps)
        with span(f"gap_matrix.eps{eps}"):
            G = spectral.build_generator(
                p, spectral.production_grid_2d(p, n=GAP_GRID_N[eps]))
            res = spectral.gap_from_matrix(G)
        out.append((eps, G.n_nodes, res))
        del G
    return out


def gap_summarize(result):
    return {f"eps{eps}": {"nodes": n, "gap": res.gap,
                          "residual_weighted": res.residual_weighted}
            for eps, n, res in result}


def gap_checks(summary, ref):
    res = []
    for key, out in summary.items():
        res.append((f"{key}.gap_positive", out["gap"] > 0))
        res.append((f"{key}.residual_weighted",
                    out["residual_weighted"] < 1e-8))
        res.append((f"{key}.gap_vs_reference", None if ref is None else
                    abs(out["gap"] / ref[key]["gap"] - 1) <= GAP_REL_TOL))
    return res


def gap_work(summary):
    return sum(out["nodes"] for out in summary.values())


# ---------------------------------------------------------------------------
# proof_checks
# ---------------------------------------------------------------------------

def proof_pass(seed, workdir, span):
    return [getattr(acceptance, f"criterion_{cid[1:]}")()
            for cid in PROOF_CRITERIA]


def proof_summarize(result):
    return {r.cid: {"passed": bool(r.passed), "details": r.details}
            for r in result}


def proof_checks(summary, ref):
    return [(f"{cid}.passed", out["passed"]) for cid, out in summary.items()]


def proof_work(summary):
    return len(PROOF_CRITERIA)


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable          # (seed, workdir, span) -> raw result; timed
    summarize: Callable    # raw result -> dict of plain values
    checks: Callable       # (summary, reference or None) -> [(name, ok)]
    work: Callable         # summary -> units of work in one pass
    work_unit: str
    seeded: bool           # whether the outputs depend on the seed


WORKLOADS = {w.name: w for w in (
    Workload("ensemble_narrow", ensemble_pass, ensemble_summarize,
             ensemble_checks, ensemble_work, "path-steps", True),
    Workload("figure1", figure1_pass, figure1_summarize, figure1_checks,
             figure1_work, "path-steps", True),
    Workload("gap_matrix", gap_pass, gap_summarize, gap_checks, gap_work,
             "generator nodes", False),
    Workload("proof_checks", proof_pass, proof_summarize, proof_checks,
             proof_work, "criteria", False),
)}


def warm_up(workdir):
    """Touch every code path the workloads use, at toy sizes."""
    p = PhysParams(ecc=0.5, eps=0.3)
    cfg = sde.SimConfig(params=p, dt=1e-3, n_steps=400, n_paths=4, seed=0,
                        record_stride=20)
    ens = sde.simulate_ensemble(cfg)
    spectral.gap_from_autocorrelation(ens, burn_in=0.0)
    G = spectral.build_generator(
        p, spectral.GridSpec(dim=1, box=((0.0, 1.0),), n=120),
        drift_fn=None, weight_fn=None, check_resolution=False)
    spectral.gap_from_matrix(G)
    fields.wave_gradients(p, np.array([[0.5, 0.2, 0.1]]))
    out_dir = tempfile.mkdtemp(prefix="warmup-", dir=workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["simulate", "--seed", "0", "--n-steps", "100",
                      "--n-paths", "2", "--out-dir", out_dir])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
