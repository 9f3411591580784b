#!/usr/bin/env python3
"""Showcase trajectory ensemble: 256 paths from a ring at 3a.

Reproduces the qualitative picture of paths collapsing rapidly onto a
neighbourhood of the attracting ellipse at ecc 0.5, eps 0.1, and writes
plot-ready trajectory data plus the convergence-fraction curve.

    python scripts/run_showcase_ensemble.py --seed 1 --out-dir out/
"""

import argparse
import dataclasses
import json
import os

from kepdiff import PhysParams, SimConfig, kepler_diagnostics, \
    simulate_ensemble
from kepdiff.io import (TRAJECTORY_COLUMNS, trajectory_blocks, write_csv,
                        write_json)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--ecc", type=float, default=0.5)
    ap.add_argument("--t-final", type=float, default=50.0)
    ap.add_argument("--n-paths", type=int, default=256)
    args = ap.parse_args()

    p = PhysParams(ecc=args.ecc, eps=args.eps)
    cfg = SimConfig.figure1(p, args.seed)
    cfg = dataclasses.replace(cfg, n_steps=int(args.t_final / cfg.dt),
                              n_paths=args.n_paths)
    ens = simulate_ensemble(cfg)
    rep = kepler_diagnostics(ens, p)

    os.makedirs(args.out_dir, exist_ok=True)
    write_csv(os.path.join(args.out_dir, "showcase_trajectories.csv"),
              TRAJECTORY_COLUMNS, trajectory_blocks(ens),
              metadata=cfg.as_dict())
    write_json(os.path.join(args.out_dir, "showcase_diagnostics.json"),
               {"config": cfg.as_dict(), **rep})
    print(json.dumps({"fraction_converged_final":
                      rep["fraction_converged_final"],
                      "t_final": rep["t_final"]}, sort_keys=True))


if __name__ == "__main__":
    main()
