#!/usr/bin/env python3
"""Stationary angular-marginal experiment.

Simulates a long stationary ensemble at small eps, histograms the
eccentric angle against the (1 - e cos v)/2pi law, and profiles the
empirical z-spread against the predicted Gaussian cross-section widths.

    python scripts/run_marginal_experiment.py --seed 11 --samples 1e6
"""

import argparse
import json
import os

import numpy as np

from kepdiff import (GAUSS_WIDTH_FACTOR, PhysParams, SimConfig,
                     cross_section_widths, empirical_marginal,
                     simulate_ensemble, z_spread_by_angle)
from kepdiff.io import write_csv, write_json
from kepdiff.sde import MARGINAL_BURN_IN


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--samples", default="1e6")
    ap.add_argument("--eps", type=float, default=0.05)
    ap.add_argument("--ecc", type=float, default=0.5)
    ap.add_argument("--bins", type=int, default=64)
    args = ap.parse_args()

    p = PhysParams(ecc=args.ecc, eps=args.eps)
    burn = MARGINAL_BURN_IN
    cfg = SimConfig.marginal(p, args.seed, float(args.samples))
    ens = simulate_ensemble(cfg)
    marg = empirical_marginal(ens, bins=args.bins, burn_in=burn)
    centers, emp, pred = z_spread_by_angle(ens, p, burn_in=burn)

    os.makedirs(args.out_dir, exist_ok=True)
    meta = {"sim": cfg.as_dict(), "bins": args.bins, "burn_in": burn}
    write_csv(os.path.join(args.out_dir, "marginal.csv"),
              ["bin_center", "empirical", "analytic"],
              [(marg.centers, marg.probabilities, marg.analytic_probs(p.ecc))],
              metadata=meta)
    vs = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    sn, sz = cross_section_widths(p, vs)
    write_csv(os.path.join(args.out_dir, "widths.csv"),
              ["v", "sigma_normal", "sigma_z"],
              [(vs, sn, sz)], metadata={"params": p.as_dict()})
    summary = {
        "config": meta,
        "l1": marg.l1_distance(p.ecc),
        "chi2": marg.chi2(p.ecc),
        "samples": marg.total,
        "z_spread": {"v": centers.tolist(), "empirical": emp.tolist(),
                     "gaussian_prediction": pred.tolist(),
                     "width_factor": GAUSS_WIDTH_FACTOR},
    }
    write_json(os.path.join(args.out_dir, "marginal_summary.json"), summary)
    print(json.dumps({"l1": summary["l1"], "samples": summary["samples"],
                      "max_z_dev": float(np.max(np.abs(emp / pred - 1)))},
                     sort_keys=True))


if __name__ == "__main__":
    main()
