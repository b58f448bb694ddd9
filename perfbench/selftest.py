#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload through run.py at --size tiny, untraced and traced, and
checks that the gates pass, that the result line carries exactly
BENCHMARK.json's metrics for the mode with their units, that each record
holds every metric perfbench/metrics.json lists for the workload (and no
other), and that a traced run wrote its spans. Exit 0 when all hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark's directory
import run  # noqa: E402  (run.WORKLOADS, run.build_dir)

errors = []


def check(ok, what):
    if not ok:
        errors.append(what)
        print(f"  FAIL {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        catalog = json.load(f)

    for mode in ("end_to_end", "per_layer"):
        for m in bench[mode]:
            entry = catalog[mode].get(m["name"])
            check(entry is not None and entry["unit"] == m["unit"],
                  f"BENCHMARK.json {mode} {m['name']} missing from metrics.json or unit differs")
    for w in bench["workloads"]:
        check(w["name"] in run.WORKLOADS, f"BENCHMARK.json workload {w['name']} unknown to run.py")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            mode = "per_layer" if trace else "end_to_end"
            print(f"{workload} trace {trace}")
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            check(proc.returncode == 0, f"{workload}/{trace}: exit {proc.returncode} "
                                        f"{proc.stderr.strip()[-300:]}")
            lines = proc.stdout.strip().splitlines()
            if not lines:
                continue
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}/{trace}: result keys {sorted(result)}")
            check(result.get("correct") is True and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1, f"{workload}/{trace}: gates failed")
            got = result.get("metrics", {})
            check(set(got) == {m["name"] for m in bench[mode]},
                  f"{workload}/{trace}: result metrics differ from BENCHMARK.json {mode}")
            for m in bench[mode]:
                check(got.get(m["name"], {}).get("unit") == m["unit"],
                      f"{workload}/{trace}: {m['name']} unit")

            stem = os.path.join(run.build_dir(), "records",
                                f"{workload}-seed1-trace{trace}-tiny")
            with open(stem + ".json") as f:
                record = json.load(f)
            measured = record["metrics"]
            expected = {name for name, e in catalog[mode].items() if workload in e["workloads"]}
            # A traced run also reports the end-to-end metrics it measured.
            allowed = expected | (set(catalog["end_to_end"]) if trace else set())
            check(expected <= set(measured),
                  f"{workload}/{trace}: record lacks {sorted(expected - set(measured))}")
            check(set(measured) <= allowed,
                  f"{workload}/{trace}: uncatalogued {sorted(set(measured) - allowed)}")
            for name in expected & set(measured):
                check(measured[name]["unit"] == catalog[mode][name]["unit"],
                      f"{workload}/{trace}: {name} unit {measured[name]['unit']}")
            for key in ("git_rev", "build_type", "nproc", "threads", "simd_path",
                        "cpu_features", "host_class"):
                check(key in record["stamp"], f"{workload}/{trace}: stamp lacks {key}")
            if trace:
                with open(stem + "-spans.json") as f:
                    check(len(json.load(f)) > 0, f"{workload}: no spans written")

    print("selftest:", "FAILED" if errors else "ok", f"({len(errors)} failures)")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
