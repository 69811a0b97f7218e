"""zsgen benchmark entry point.

    python3 perfbench/run.py --workload desk-ssl --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports zsgen from its `src/`.
Each workload runs in its own process (measure.py) whose BLAS thread pools
are set to one thread through its environment.

--trace 0 reports the end-to-end metrics of one untraced process, its
timings corrected to a reference speed of the host (hostspeed.py).
--trace 1 runs one round untraced and then one round traced, and reports the
per-layer metrics of the traced process plus the tracing overhead.

The last stdout line is the result: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk-ssl", "paper")
DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS runs on one thread. On a small shared VM a second thread waits on
# the other vCPU, and the host-speed correction (hostspeed.py) samples the
# core the workload's main thread runs on.
BLAS_THREADS = 1
# Phases of a round. train and eval are end-to-end metrics. Only paper has
# encode, load and label phases, and every end-to-end metric must be one of
# every workload, so those are per-layer metrics.
END_TO_END_PHASES = ("train", "eval")
LAYER_PHASES = ("encode", "load", "label")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_facts():
    """Git commit when the checkout is a repository, and a digest of src/zsgen."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "zsgen").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and pathlib.Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def child_env():
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure(args, trace, seconds, workdir, deadline, trace_file=None):
    out = workdir / f"result-{trace}.json"
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir / f"work-{trace}"), "--out", str(out)]
    if args.trace:
        # setup_s is not reported with --trace 1: one set-up per process
        cmd += ["--setups", "1"]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"measure.py exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(res):
    """End-to-end metrics, leaving out those that a failed operation left without a value."""
    metrics = {"setup_s": (statistics.median(res["setup_s"]), "s")}
    for phase in END_TO_END_PHASES:
        if res["phases"].get(phase):
            metrics[f"{phase}_s"] = (statistics.median(res["phases"][phase]), "s")
    for key, unit in (("top1_unseen_pct", "%"), ("ausuc", "fraction")):
        if key in res:
            metrics[key] = (res[key], unit)
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "zsgen" / "__init__.py").is_file():
        return _fail(f"no zsgen sources under {ROOT / 'src'}; run from a source checkout")

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workdir.mkdir(parents=True)
        # a traced comparison pair runs exactly one round each
        plain = measure(args, 0, 0 if args.trace else args.seconds, workdir, deadline)
        runs = [plain]
        if args.trace:
            traced = measure(args, 1, 0, workdir, deadline,
                             trace_file=out_dir / f"trace-{tag}.jsonl")
            runs.append(traced)
            metrics = {k: tuple(v) for k, v in traced["layers"].items()}
            for phase in LAYER_PHASES:   # untraced, at reference speed; 0 where a workload lacks it
                samples = plain["phases"].get(phase)
                metrics[f"phase.{phase}_s"] = (statistics.median(samples) if samples else 0.0, "s")
            for ref, ms in plain["host_ref_ms"].items():
                metrics[f"host.{ref}_ms"] = (ms, "ms")
            if plain["timed_total_s"] > 0:
                metrics["trace.overhead_frac"] = (
                    traced["timed_total_s"] / plain["timed_total_s"] - 1.0, "fraction")
        else:
            metrics = end_to_end(plain)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(f"{args.workload} seed {args.seed}: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and all(r["error"] is None for r in runs)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": {**plain["machine"], **source_facts()},
              "rounds": [r["rounds"] for r in runs], "phases": [r["phases"] for r in runs],
              "phases_wall": [r["phases_wall"] for r in runs],
              "setup_s": [r["setup_s"] for r in runs],
              "setup_wall_s": [r["setup_wall_s"] for r in runs],
              "host_ref_ms": [r["host_ref_ms"] for r in runs],
              "errors": [e for r in runs for e in r["errors"]], "metrics": metrics}
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for err in record["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
