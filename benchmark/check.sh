#!/usr/bin/env bash
# The noise gate: is the benchmark repeatable on this machine, today?
#
# Runs every workload as two interleaved sets of three runs (A B A B A B, a
# different seed each run), prints each end-to-end metric's median per set,
# and exits non-zero if the two medians of any metric differ by more than that
# metric's bound in BENCHMARK.json, or if any operation failed. About twelve
# minutes. Run from anywhere; it works on the checkout this file is in.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec python3 - "$@" <<'PY'
import json, statistics, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
seconds = str(spec["run_seconds"])
bad = []
for workload in (w["name"] for w in spec["workloads"]):
    sets = {"A": [], "B": []}
    for run in range(6):
        which = "AB"[run % 2]
        cmd = spec["command"] + ["--workload", workload, "--seed", str(1000 + run),
                                 "--seconds", seconds, "--trace", "0", "--json"]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{workload} run {run} exited {done.returncode}: {done.stderr.strip()}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if result["failed"] or not result["correct"]:
            bad.append(f"{workload} run {run}: {result['failed']} of {result['attempted']} operations failed")
        sets[which].append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"  {workload} {which}{run // 2 + 1} done", file=sys.stderr, flush=True)
    print(f"{workload}")
    for name, bound in bounds.items():
        a, b = (statistics.median(r[name] for r in sets[s]) for s in "AB")
        apart = abs(a - b) / min(a, b)
        verdict = "ok" if apart <= bound else "APART"
        print(f"  {name:<20} A {a:>14.4f}  B {b:>14.4f}  apart {apart:7.2%}  bound {bound:.0%}  {verdict}")
        if apart > bound:
            bad.append(f"{workload}/{name}: set medians {a:.4f} and {b:.4f} are {apart:.1%} apart, bound {bound:.0%}")
if bad:
    print("\n".join(["", "NOT REPEATABLE:"] + bad))
    sys.exit(1)
print("\nevery metric's two set medians agree within its bound")
PY
