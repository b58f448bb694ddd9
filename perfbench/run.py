#!/usr/bin/env python3
"""Benchmark entry point: build the harness from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The harness (perfbench/harness.cpp) and the
repository's libraries are configured and built with CMake under
.bench_build/ (or $CARGO_TARGET_DIR when set); the first run builds, later
runs only check that the build is current.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end metrics, with --trace 1 its per_layer metrics. A per-layer metric
of a layer the workload never calls reads 0 (perfbench/metrics.json names the
workloads of each). The full record (stamp, configuration, every metric)
goes to <build dir>/records/, and a traced run writes its spans beside it.

Exit status: 0 when every gate passed, 1 on a failed gate or a build or run
error, 2 on bad arguments.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analyze", "sweep", "sweep_crn", "contend", "track")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(out_dir):
    """Configure once, then bring the harness up to date. Returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the repository sources (CMakeLists.txt, src/) are not beside perfbench/")
    cmake_dir = os.path.join(out_dir, "perfbench")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "perfbench-build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(out_dir, "perfbench-build.lock"), "w") as lock, open(
        log_path, "w"
    ) as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(
                ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            )
        steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench_harness", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")
    return os.path.join(cmake_dir, "perfbench_harness")


def source_rev():
    """git revision when the checkout is a repository, else a digest of the
    library and benchmark sources (the checkout the benchmark runs in has no
    .git)."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def load_json(name):
    with open(name) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's small inputs")
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    catalog = load_json(os.path.join(HERE, "metrics.json"))
    out_dir = build_dir()
    harness = build(out_dir)

    records = os.path.join(out_dir, "records")
    os.makedirs(records, exist_ok=True)
    stem = os.path.join(
        records, f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    )
    cmd = [
        harness, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--rev", source_rev(), "--work", out_dir,
    ]
    if args.trace:
        cmd += ["--spans", stem + "-spans.json"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    record = None
    for line in lines:
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
        else:
            print(line)
    if record is None:
        fail(f"harness exited {proc.returncode} without a record")
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    # The result carries exactly the metrics BENCHMARK.json lists for this
    # mode. A layer the workload does not call reads 0; a metric the
    # workload should have measured but did not is an error.
    measured = record["metrics"]
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in measured:
            if measured[name]["unit"] != m["unit"] or measured[name]["value"] is None:
                fail(f"metric {name}: bad value or unit {measured[name]}")
            metrics[name] = measured[name]
        elif args.trace and args.workload not in catalog["per_layer"][name]["workloads"]:
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            fail(f"workload {args.workload} did not report {name}")
    failed = record["failed"]
    result = {
        "correct": failed == 0 and proc.returncode == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
