"""One workload process: set up, run the timed phases, check, report.

Started by run.py with one BLAS thread set in its environment. An untraced
process samples the host's speed while it works and reports its timings at
a reference speed (hostspeed.py), with the wall times beside them. Writes
one JSON document to --out; its stdout is not part of the result.
"""

import argparse
import ctypes
import glob
import json
import os
import pathlib
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))   # the acceptance configs

import numpy as np  # noqa: E402

import zsgen  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import BLAS_BOUND, WORKLOADS, Run  # noqa: E402

# Set-up repeats, at least MIN_SETUPS and until SETUP_BUDGET_S of set-up has
# been measured (cheap set-ups get more samples); setup_s is their median.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 100, 2.0


def blas_facts():
    """BLAS name, version and the thread count it actually runs with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def machine_facts():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **blas_facts(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu": platform.processor() or platform.machine(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--setups", type=int, default=0,
                    help="number of set-ups; 0 repeats them as MIN_SETUPS/SETUP_BUDGET_S say")
    args = ap.parse_args(argv)

    if pathlib.Path(zsgen.__file__).resolve().parent != ROOT / "src" / "zsgen":
        print(f"zsgen imported from {zsgen.__file__}, not this checkout", file=sys.stderr)
        return 2
    setup, run_round = WORKLOADS[args.workload]
    workdir = pathlib.Path(args.workdir)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_facts(), "error": None}

    # the host is sampled in untraced processes only, so spans hold no samples
    host = HostSpeed()
    tracer = Tracer() if args.trace else None
    run = Run(tracer)
    reports = []
    setups = []
    with nullcontext() if tracer else host.sampling():
        for i in range(args.setups or MAX_SETUPS):
            if not args.setups and i >= MIN_SETUPS and sum(e - s for s, e in setups) >= SETUP_BUDGET_S:
                break
            sub = workdir / f"setup{i}"
            sub.mkdir(parents=True)
            inp = None  # free the previous inputs before building new ones
            start = time.perf_counter()
            inp = setup(args.seed, sub)
            setups.append((start, time.perf_counter()))
            if i:
                shutil.rmtree(workdir / f"setup{i - 1}")

        start = elapsed = time.perf_counter()
        try:
            with tracer.install() if tracer else nullcontext():
                # start another round only if one more of average length fits in --seconds
                while not reports or elapsed * (len(reports) + 1) / len(reports) <= args.seconds:
                    reports.append(run_round(inp, run))
                    elapsed = time.perf_counter() - start
        except Exception as exc:  # a failed operation; the process still reports
            result["error"] = traceback.format_exc()
            print(result["error"], file=sys.stderr)
            run.escaped(exc)

    def corrected(name, intervals):
        ref = "gemm" if name in BLAS_BOUND.get(args.workload, ()) else "python"
        return [host.seconds(s, e, ref) for s, e in intervals]

    result["setup_s"] = corrected("setup", setups)
    result["setup_wall_s"] = [host.busy(s, e) for s, e in setups]
    result["rounds"] = len(reports)
    result["phases"] = {k: corrected(k, v) for k, v in run.intervals.items()}
    result["phases_wall"] = {k: [host.busy(s, e) for s, e in v] for k, v in run.intervals.items()}
    result["timed_total_s"] = sum(sum(v) for v in result["phases_wall"].values())
    result["host_ref_ms"] = host.reference_ms()
    result["attempted"] = len(run.ops)
    result["failed"] = run.failed
    result["errors"] = [f"{op.name}: {e}" for op in run.ops for e in op.errors]
    if reports:
        result["top1_unseen_pct"] = reports[0].top1_unseen
        result["ausuc"] = reports[0].ausuc
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["layers"] = layer_metrics(tracer)
        if args.trace_file:
            tracer.write(args.trace_file)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
