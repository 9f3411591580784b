#!/usr/bin/env python3
"""Spectral-gap curve: matrix and autocovariance estimators vs eps.

Tabulates the generator gap on the planar restriction over a range of
diffusion scales, together with the autocovariance relaxation rate of
cos(v), and writes one row per (ecc, eps).  The measured curve is the
artifact's record of how the gap actually behaves in eps (the theory
gives only a one-sided exponential lower bound).

    python scripts/run_gap_curve.py --seed 21
"""

import argparse
import json
import os

import numpy as np

from kepdiff import (PhysParams, SimConfig, build_generator,
                     gap_from_autocorrelation, gap_from_matrix,
                     simulate_ensemble)
from kepdiff.io import write_csv
from kepdiff.sde import AUTOCORR_BURN_IN
from kepdiff.spectral import production_grid_2d


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--eccs", default="0.3,0.5")
    ap.add_argument("--epss", default="0.1,0.2,0.3")
    ap.add_argument("--skip-autocorr", action="store_true")
    args = ap.parse_args()

    rows = []
    for ecc in (float(v) for v in args.eccs.split(",")):
        for eps in (float(v) for v in args.epss.split(",")):
            p = PhysParams(ecc=ecc, eps=eps)
            res = gap_from_matrix(build_generator(p, production_grid_2d(p)))
            gamma, ratio = float("nan"), float("nan")
            if not args.skip_autocorr:
                ens = simulate_ensemble(
                    SimConfig.autocorrelation(p, args.seed))
                ac = gap_from_autocorrelation(ens, burn_in=AUTOCORR_BURN_IN)
                gamma = ac.gamma
                ratio = max(gamma / res.gap, res.gap / gamma)
            rows.append((ecc, eps, res.gap, res.eigenvalue.imag,
                         res.residual_weighted, gamma, ratio))
            print(json.dumps({"ecc": ecc, "eps": eps, "gap": res.gap,
                              "autocorr_gap": gamma,
                              "agreement_ratio": ratio}, sort_keys=True))

    os.makedirs(args.out_dir, exist_ok=True)
    write_csv(os.path.join(args.out_dir, "gap_curve.csv"),
              ["ecc", "eps", "gap", "mode_frequency", "eigen_residual",
               "autocorr_gap", "agreement_ratio"],
              [tuple(np.array(rows).T)], metadata={"seed": args.seed})


if __name__ == "__main__":
    main()
