#!/usr/bin/env bash
# Parent against change, by the rule of choosing-metrics section 8.
#
#   tools/pairs.sh <parent-dir> <change-dir> <workload> <pairs> [seconds] [first-seed] [pr]
#
# Builds the benchmark of both checkouts, then runs <pairs> pairs of (parent,
# change) on <workload>, alternating which side goes first. Pair i runs both
# sides on seed first-seed + i (default 1000: pass one the change was not
# written against). Every run's JSON line is kept under bench-artifacts/ of
# the checkout this script is in; for each end-to-end metric of BENCHMARK.json
# it prints both sides' median and quartiles, the pairs the change won, and
# whether that is a gain by the rule (ten pairs or more, nine tenths of them
# won, medians apart by more than the parent's own interquartile distance).
# PAST BOUND marks a metric whose change median is worse than the parent's by
# more than the metric's BENCHMARK.json bound: the rule a change is rejected
# by. NOISY marks a metric whose parent runs spread wider than that bound
# ((q3 - q1) / median): a PAST BOUND beside it is not resolved by these
# pairs. Both marks are informational; neither changes the
# exit code.
# With <pr>, the same figures are appended to BENCH_trajectory.json as that
# PR's rows, one per metric, their source the kept file.
# Judges nothing else and exits non-zero only when a run failed.
set -euo pipefail
[ $# -ge 4 ] || { sed -n '2,4p' "$0" >&2; exit 2; }
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd)
workload=$3 pairs=$4 first_seed=${6:-1000} pr=${7:-}
here=$(cd "$(dirname "$0")/.." && pwd)
seconds=${5:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/BENCHMARK.json")}
out="$here/bench-artifacts/pairs-$workload-$(date +%Y%m%dT%H%M%S).jsonl"
mkdir -p "$here/bench-artifacts"

for side in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml"
done

run() { # side name, checkout, pair, seed
    local line
    line=$(cd "$2" && ./benchmark/target/release/ogsa-benchmark \
        --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0 --json | tail -n 1)
    printf '{"side": "%s", "pair": %d, "seed": %d, "result": %s}\n' "$1" "$3" "$4" "$line" >>"$out"
    echo "  pair $3 $1 (seed $4) done" >&2
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run parent "$parent" "$i" "$seed"; run change "$change" "$i" "$seed"
    else
        run change "$change" "$i" "$seed"; run parent "$parent" "$i" "$seed"
    fi
done

python3 - "$here/BENCHMARK.json" "$out" "$here" "$workload" "$pr" <<'PY'
import json, os, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
bad = [r for r in runs if r["result"]["failed"] or not r["result"]["correct"]]
sides = {s: sorted((r for r in runs if r["side"] == s), key=lambda r: r["pair"]) for s in ("parent", "change")}
print(f"{sys.argv[2]}: {len(sides['parent'])} pairs")
here, workload, pr, rows = sys.argv[3], sys.argv[4], int(sys.argv[5] or 0), []
seeds = [r["seed"] for r in sides["parent"]]
for metric in spec["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    p, c = ([r["result"]["metrics"][name]["value"] for r in sides[s]] for s in ("parent", "change"))
    won = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))

    def spread(xs):
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        return statistics.median(xs), q[0], q[2]

    (pm, p1, p3), (cm, c1, c3) = spread(p), spread(c)
    apart = (cm - pm) if higher else (pm - cm)
    gain = len(p) >= 10 and won * 10 >= 9 * len(p) and apart > p3 - p1
    past = -apart > metric["bound"] * abs(pm)
    noisy = p3 - p1 > metric["bound"] * abs(pm)
    print(f"  {name:<18} parent {pm:>12.3f} [{p1:.3f}, {p3:.3f}]  change {cm:>12.3f} [{c1:.3f}, {c3:.3f}]"
          f"  {(cm - pm) / pm:+7.2%}  won {won}/{len(p)} ties {ties}  {'GAIN' if gain else '-'}"
          f"{'  PAST BOUND' if past else ''}{'  NOISY' if noisy else ''}")
    rows.append({"pr": pr, "workload": workload, "metric": name, "unit": metric["unit"],
                 "parent": pm, "change": cm, "q1": p1, "q3": p3, "change_q1": c1, "change_q3": c3,
                 "pairs_won": won, "pairs": len(p), "seeds": f"{min(seeds)}-{max(seeds)}",
                 "source": os.path.relpath(sys.argv[2], here)})
if pr:
    path = os.path.join(here, "BENCH_trajectory.json")
    rows = json.load(open(path)) + rows
    open(path, "w").write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"  appended PR {pr}'s {len(spec['end_to_end'])} rows to {path}")
for r in bad:
    print(f"  FAILED: {r['side']} pair {r['pair']}: {r['result']['failed']} of {r['result']['attempted']} operations")
sys.exit(1 if bad else 0)
PY
