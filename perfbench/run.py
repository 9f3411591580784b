"""kepdiff benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; kepdiff is imported from
``src/``.  The run sets up (imports plus a toy-sized warm-up) once in
this process and twice more in fresh processes, then repeats the
workload's pass until ``--seconds`` have elapsed (at least one pass).

--trace 0 reports the end-to-end metrics: medians over passes of wall
and CPU time and of work per second, the peak RSS after the first pass
and the median set-up time.  --trace 1 runs traced passes, then one
untraced pass, and reports per-layer metrics (medians over the traced
passes) plus the tracing overhead; every traced pass must produce the
untraced pass's outputs exactly.  Spans go to ``.bench_out/`` at exit.

Every pass's outputs are checked against the program's own gates and
the references in ``reference.json``; a check whose reference is
missing for this seed is reported as skipped, not passed.  The last
stdout line is the result JSON; the line before it is the run record
(provenance, checks, per-pass times).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3


def timed_setup():
    """Import kepdiff and warm every workload path; returns (s, module)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    OUT.mkdir(exist_ok=True)
    workloads.warm_up(str(OUT))
    return time.perf_counter() - t0, workloads


def _fresh_setups(n):
    times = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              capture_output=True, text=True, timeout=150,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _blas_threads():
    """OpenBLAS builds loaded in this process and their thread counts."""
    import ctypes
    symbols = [(f"{stem}_get_num_threads{sfx}", f"{stem}_get_config{sfx}")
               for stem in ("scipy_openblas", "openblas")
               for sfx in ("64_", "")]
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return {}
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for n_sym, cfg_sym in symbols:
            if hasattr(lib, n_sym):
                get_cfg = getattr(lib, cfg_sym)
                get_cfg.restype = ctypes.c_char_p
                found[os.path.basename(path)] = {
                    "threads": int(getattr(lib, n_sym)()),
                    "config": get_cfg().decode()}
                break
    return found


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def provenance():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": _git_sha(), "src_sha256": _src_sha256(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def _reference(workload, seed):
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh).get(workload.name)
    if ref is not None and workload.seeded:
        ref = ref.get(str(seed))
    return ref


def run_passes(workload, seed, seconds, span, tracer=None):
    """Repeat the workload's pass until ``seconds`` have elapsed."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.pass_id = len(passes)
        c0, t0 = _cpu_s(), time.perf_counter()
        with span("pass"):
            result = workload.run(seed, str(OUT), span)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summary = workload.summarize(result)
        del result
        passes.append({"wall_s": wall, "cpu_s": cpu, "rss_mb": rss_mb,
                       "work": workload.work(summary), "summary": summary})
    return passes


def evaluate(workload, passes, ref, baseline, baseline_name):
    """Run every check on every pass; returns (attempted, failed, skipped)."""
    attempted, failed, skipped = 0, [], set()
    for k, ps in enumerate(passes):
        results = workload.checks(ps["summary"], ref)
        if ps["summary"] is not baseline:
            results.append((baseline_name, ps["summary"] == baseline))
        for name, ok in results:
            if ok is None:
                skipped.add(name)
                continue
            attempted += 1
            if not ok:
                failed.append(f"pass{k}:{name}")
    return attempted, failed, sorted(skipped)


def nullspan(name):
    return contextlib.nullcontext()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("ensemble_narrow", "figure1", "gap_matrix",
                             "proof_checks"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kepdiff" / "__init__.py").is_file():
        print(f"perfbench: no kepdiff sources under {SRC}", file=sys.stderr)
        return 2
    load_start = _loadavg()
    setup_main, workloads = timed_setup()
    import kepdiff
    if Path(kepdiff.__file__).resolve().parent != SRC / "kepdiff":
        print(f"perfbench: kepdiff imported from {kepdiff.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    setup = [setup_main] + _fresh_setups(SETUP_SAMPLES - 1)
    workload = workloads.WORKLOADS[args.workload]
    ref = _reference(workload, args.seed)

    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_samples_s": setup, "work_unit": workload.work_unit}
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes = run_passes(workload, args.seed, args.seconds,
                                tracer.span, tracer)
        finally:
            tracer.uninstall()
        # after the traced passes, so the first-pass cost falls on those
        untraced = run_passes(workload, args.seed, 0, nullspan)[0]
        attempted, failed, skipped = evaluate(
            workload, [untraced] + passes, ref, untraced["summary"],
            "trace_neutral")
        walls = [ps["wall_s"] for ps in passes]
        metrics = tracing.median_metrics(
            [tracer.pass_metrics(k) for k in range(len(passes))])
        metrics["trace.untraced_wall_s"] = untraced["wall_s"]
        metrics["trace.traced_wall_s"] = statistics.median(walls)
        metrics["trace.overhead_s"] = (metrics["trace.traced_wall_s"]
                                       - untraced["wall_s"])
        units = {k: tracing.unit(k) for k in metrics}
        record["missing_targets"] = tracer.missing
        tracer.dump(str(OUT / f"trace-{workload.name}-seed{args.seed}.json"),
                    {"workload": workload.name, "seed": args.seed})
    else:
        passes = run_passes(workload, args.seed, args.seconds, nullspan)
        attempted, failed, skipped = evaluate(
            workload, passes, ref, passes[0]["summary"], "deterministic")
        walls = [ps["wall_s"] for ps in passes]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(ps["cpu_s"] for ps in passes),
            "peak_rss_mb": passes[0]["rss_mb"],
            "work_per_s": statistics.median(ps["work"] / ps["wall_s"]
                                            for ps in passes),
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                 "peak_rss_mb": "MB", "work_per_s": "1/s"}

    record.update({
        "passes": len(passes),
        "pass_wall_s": walls,
        "pass_cpu_s": [ps["cpu_s"] for ps in passes],
        "work_per_pass": passes[0]["work"],
        "checks_attempted": attempted,
        "checks_failed": failed,
        "checks_skipped": skipped,
        "failed_frac": len(failed) / attempted,
        "outputs": passes[0]["summary"],
        "provenance": provenance(),
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
    })
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
