"""Record the reference outputs that the benchmark's checks compare to.

    python3 perfbench/record_reference.py --workload figure1 --seeds 0 1 2

Runs one pass per seed with the current sources and stores its outputs
in reference.json under the workload (and the seed, for workloads whose
outputs depend on it).  Only record on a commit whose outputs are known
to be right: the benchmark treats these values as ground truth.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, OUT, nullspan, timed_setup


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args(argv)
    _, workloads = timed_setup()
    workload = workloads.WORKLOADS[args.workload]
    path = HERE / "reference.json"
    with open(path) as fh:
        ref = json.load(fh)
    seeds = args.seeds if workload.seeded else args.seeds[:1]
    for seed in seeds:
        summary = workload.summarize(workload.run(seed, str(OUT), nullspan))
        if workload.seeded:
            ref.setdefault(workload.name, {})[str(seed)] = summary
        else:
            ref[workload.name] = summary
        with open(path, "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {workload.name} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
