#!/usr/bin/env python3
"""End-to-end benchmark of wknng: builds bench/e2e and runs its workloads.

    python3 bench/e2e/run.py --workload d64-layout --seed 4242 --seconds 10 --trace 0
    python3 bench/e2e/run.py --seed 4242            # every workload, one process each
    python3 bench/e2e/run.py --trace 1 --out results/   # per-layer metrics + traces
    python3 bench/e2e/run.py --smoke                # all workloads at 1/16 scale

Each workload runs in its own e2e_bench process. This script prints every
metric by name with its unit and every correctness gate, then, as the last
line of stdout, one JSON object: {"correct", "attempted", "failed",
"metrics"}. The metrics are the end-to-end metrics of BENCHMARK.json with
--trace 0 and its per-layer metrics with --trace 1. With several workloads
the last line maps each workload to that object. The exit code is non-zero
when the build fails, a run fails, or any gate fails.

The program is built from the sources of the checkout into .bench_build/e2e
(an incremental build on every call; under a second when nothing changed).
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 16
SMOKE_SECONDS = 0.6


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(build_dir):
    """Configures and builds e2e_bench (incrementally); returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "e2e_bench",
              "-j", jobs]]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return build_dir / "e2e_bench"


def run_workload(binary, workload, seed, seconds, trace_path, scale, workdir):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir", str(workdir)]
    if trace_path is not None:
        cmd += ["--trace-out", str(trace_path)]
    if scale != 1:
        cmd += ["--scale", str(scale)]
    workdir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.monotonic() - started
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload}: e2e_bench exited with "
                           f"{done.returncode}")
    report = json.loads(lines[-1])
    report["wall_s"] = wall
    return report


def select(report, spec, trace):
    """The result object the benchmark contract defines for one run."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError(f"{report['workload']}: metric {m['name']} "
                               "missing from the run")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def show(report, spec):
    """Every metric by name and unit (declared ones first), then the gates."""
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {report['workload']}  seed={report['seed']}  "
          f"wall={report['wall_s']:.1f}s  attempted={report['attempted']}  "
          f"failed={report['failed']}")
    for group, names in (
            ("end-to-end", [m["name"] for m in spec["end_to_end"]]),
            ("per-layer", [m["name"] for m in spec["per_layer"]]),
            ("other", sorted(set(report["metrics"]) - declared))):
        present = [n for n in names if n in report["metrics"]]
        if present:
            print(f"  [{group}]")
        for name in present:
            m = report["metrics"][name]
            print(f"    {name:34s} {m['value']:>16.6g} {m['unit']}")
    for name, gate in report["gates"].items():
        print(f"  gate {name:24s} {'ok  ' if gate['ok'] else 'FAIL'} "
              f"{gate['detail']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting the per-layer metrics")
    ap.add_argument("--out", type=Path,
                    help="directory for per-run result files and traces")
    ap.add_argument("--build", type=Path, default=ROOT / ".bench_build" / "e2e",
                    help="build directory")
    ap.add_argument("--binary", type=Path,
                    help="use this e2e_bench instead of building one")
    ap.add_argument("--smoke", action="store_true",
                    help=f"every workload at 1/{SMOKE_SCALE} scale, traced, "
                         "all gates on")
    args = ap.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise RuntimeError(f"unknown workload {args.workload!r}; one of "
                               + ", ".join(names))
        binary = args.binary or build(args.build)
        trace = bool(args.trace) or args.smoke
        seconds = SMOKE_SECONDS if args.smoke else (
            args.seconds or spec["run_seconds"])
        scale = SMOKE_SCALE if args.smoke else 1
        workdir = args.build / "work"
        trace_dir = args.out or (args.build / "traces")
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
        if trace:
            trace_dir.mkdir(parents=True, exist_ok=True)

        results = {}
        ok = True
        for name in ([args.workload] if args.workload else names):
            stem = f"{name}-seed{args.seed}" + ("-trace" if trace else "")
            trace_path = trace_dir / (stem + ".trace.json") if trace else None
            report = run_workload(binary, name, args.seed, seconds,
                                  trace_path, scale, workdir)
            show(report, spec)
            if trace_path is not None:
                print(f"  trace {trace_path}")
            result = select(report, spec, trace)
            ok = ok and result["correct"]
            results[name] = result
            if args.out:
                with open(args.out / (stem + ".result.json"), "w") as f:
                    json.dump({"report": report, "result": result}, f,
                              indent=1)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        return 2

    last = results[args.workload] if args.workload else results
    print(json.dumps(last))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
