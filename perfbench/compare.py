#!/usr/bin/env python3
"""Compare two sets of benchmark records against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files or directories of them (run.py writes one per
run under .bench_build/records/). Records are grouped by workload and size;
untraced records give the end-to-end metrics, and each metric is compared
as the median over a group's records (one per seed).

Records are comparable only when their stamps agree on threads, SIMD path
and host class: a 1-core record must not gate a 4-core run, nor an AVX2 run
an AVX-512 one. A mismatch is refused (exit 2). A metric worse than the base
by more than its bound is a regression (exit 1).
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
IDENTITY = ("threads", "simd_path", "host_class")


def load(path):
    files = (
        [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
        if os.path.isdir(path)
        else [path]
    )
    groups = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if not isinstance(rec, dict) or "stamp" not in rec or rec.get("trace") != 0:
            continue  # span files and traced records
        groups.setdefault((rec["workload"], rec["size"]), []).append(rec)
    return groups


def identity(recs, where):
    ids = {tuple(r["stamp"][k] for k in IDENTITY) for r in recs}
    if len(ids) != 1:
        sys.exit(f"compare: {where} mixes stamps {sorted(ids)}")
    return dict(zip(IDENTITY, ids.pop()))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    regressions = 0
    for key in sorted(set(base) & set(new)):
        b_id = identity(base[key], f"base {key}")
        n_id = identity(new[key], f"new {key}")
        if b_id != n_id:
            print(f"compare: refusing {key[0]}: base stamp {b_id} != new stamp {n_id}",
                  file=sys.stderr)
            sys.exit(2)
        print(f"{key[0]} ({key[1]}; {len(base[key])} base / {len(new[key])} new records)")
        for name, spec in bounds.items():
            b = statistics.median(r["metrics"][name]["value"] for r in base[key])
            n = statistics.median(r["metrics"][name]["value"] for r in new[key])
            worse = (n - b) / b if spec["better"] == "lower" else (b - n) / b
            flag = "REGRESSION" if worse > spec["bound"] else "ok"
            regressions += flag != "ok"
            print(f"  {name:14s} {b:12.6g} -> {n:12.6g} {spec['unit']:4s} "
                  f"{100 * worse:+7.1f}% worse (bound {100 * spec['bound']:.0f}%) {flag}")
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"compare: workloads in only one set: {missing}", file=sys.stderr)
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
