#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload al_smoke --seed 3 --seconds 24 --trace 0

Run from the root of a source checkout. The first run builds the library and
the perfbench binary into .bench_build/ and prepares the build's artifacts
(the pretrained model and the saved serving bundle), keyed by a
hash of the binary, so two builds never share a pretrained model. A timed
run splits its budget over PROCESSES workload processes and reports the
median of each metric; their human-readable reports go to stdout and the
last stdout line is the result as one JSON object.

--trace 1 runs the traced breakdown of every workload (each in its own
process) and reports every per-layer metric; the end-to-end metrics come from
--trace 0 runs only.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("al_smoke", "serve_match", "serve_mixed")
# A timed run is split over this many workload processes, each with its own
# heap, threads and server, and reports the median of their metrics. On a
# shared 4-vCPU VM a whole process can run 20-40% slow, so a run that is
# one process reads that state instead of the code.
PROCESSES = 3
# A run must end within 180 s; its workload processes share a little less.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    cmake_dir = os.path.join(BUILD, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("perfbench: build failed (see .bench_build/build.log)")
    return os.path.join(cmake_dir, "perfbench")


def prepare(binary, artifacts):
    """One-time per build: pretrain + bundle training, timed outside setup_s."""
    stamp = os.path.join(artifacts, "prepared.json")
    if os.path.isfile(stamp):
        with open(stamp) as f:
            return json.load(f)
    parent = os.path.dirname(artifacts)
    if os.path.isdir(parent):
        for stale in os.listdir(parent):  # artifacts of earlier builds
            shutil.rmtree(os.path.join(parent, stale), ignore_errors=True)
    os.makedirs(artifacts)
    start = time.monotonic()
    proc = subprocess.run(
        [binary, "prepare", f"--artifacts={artifacts}"],
        cwd=artifacts, env=child_env(artifacts), stdout=subprocess.PIPE, text=True,
        timeout=900)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        shutil.rmtree(artifacts, ignore_errors=True)
        raise SystemExit("perfbench: preparation failed")
    record = {"prepare_s": time.monotonic() - start}
    with open(stamp, "w") as f:
        json.dump(record, f)
    return record


def child_env(artifacts):
    env = dict(os.environ)
    env["DIAL_CACHE_DIR"] = os.path.join(artifacts, "model_cache")
    return env


def run_workload(binary, artifacts, workload, seed, seconds, trace, deadline):
    cmd = [
        binary, "run", f"--workload={workload}", f"--seed={seed}",
        f"--seconds={seconds}", f"--trace={'true' if trace else 'false'}",
        f"--artifacts={artifacts}",
    ]
    proc = subprocess.run(cmd, cwd=artifacts, env=child_env(artifacts),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"perfbench: {workload} exited with {proc.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no source tree at {ROOT} (expected CMakeLists.txt and src/)")
        return 2
    binary = build()
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    artifacts = os.path.join(BUILD, "artifacts", digest)
    prepared = prepare(binary, artifacts)
    print(f"preparation of build {digest} (once, outside setup_s): "
          f"{prepared['prepare_s']:.1f} s")

    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        # The traced breakdown of every workload, one process each.
        results = [run_workload(binary, artifacts, workload, args.seed, args.seconds,
                                True, deadline) for workload in WORKLOADS]
        metrics = {}
        for result in results:
            metrics.update(result["metrics"])
    else:
        results = [run_workload(binary, artifacts, args.workload, args.seed,
                                args.seconds / PROCESSES, False, deadline)
                   for _ in range(PROCESSES)]
        metrics = {name: {"value": statistics.median(r["metrics"][name]["value"]
                                                     for r in results),
                          "unit": unit["unit"]}
                   for name, unit in results[0]["metrics"].items()}
    correct = all(r["correct"] for r in results)
    # Identical inputs: a workload's outputs must repeat in every process.
    outputs = {r.get("outputs", "") for r in results}
    if len(outputs) > 1:
        log("outputs differ between processes: " + " | ".join(sorted(outputs)))
        correct = False
    if not args.trace:
        for name, value in metrics.items():
            print(f"  median of {PROCESSES}: {name:<12} {value['value']:16.6f} "
                  f"{value['unit']}")
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
