#!/usr/bin/env bash
# bench-pairs.sh — paired benchmark trials of a base commit against the
# working tree, one workload at a time.
#
#	bash scripts/bench-pairs.sh [<base>]    (default HEAD)
#	WORKLOAD=sim_sharded SEED=1 N=10 bash scripts/bench-pairs.sh HEAD~1
#	WORKLOAD=sim_observed,sim_sharded,live_floor bash scripts/bench-pairs.sh HEAD~1
#
# WORKLOAD is one workload or a comma-separated list: both sides are built
# once, and the workloads run in turn, each with its own pairs, table and
# rows, so one command checks a claimed workload beside the ones that must
# not move.
#
# The base commit is `git archive`d into a temporary directory (no worktree,
# .git untouched) and the benchmark (bench/) is built once on each side,
# with bench/run.sh's environment: GOTOOLCHAIN=local, GOPROXY=off, and the
# Go build cache under .bench_build/ at the root of this checkout. The
# script then runs N pairs of fresh-process trials (`bench -trial`, one
# process per trial, each in its own side's checkout), alternating which
# side goes first: the base in odd pairs, the tree in even ones.
#
# For every end-to-end metric in BENCHMARK.json it prints both sides'
# medians, the base's interquartile range, the ratio tree/base, the
# absolute change of the median (tree - base, in the metric's unit, so a
# move on a metric whose base IQR is zero shows its size), and in how many
# pairs the tree did better. Each trial's metrics are computed as the
# benchmark computes them (bench/workloads.go): throughput is completed /
# elapsed_s, CPU is cpu_s × 1e6 / completed, retained bytes are
# retained_b / completed, and the latencies and set-up time are read as
# reported. A median that moved by no more than the base's IQR prints
# "within spread", never a win or a loss; one that moved further is a win
# or a loss only when at least nine in ten pairs agree, and "mixed"
# otherwise. A trial that fails, or reports a failed operation or a wrong
# output, fails the run. Every trial's report is kept as one JSON line in
# .bench_build/pairs/<workload>-seed<S>.jsonl, tagged with its side and
# pair. The run fails after the first workload that fails, with the tables
# of the workloads before it printed. `make bench-pairs` runs this script with BASE, WORKLOAD, SEED and
# N; after committing, compare against the parent with BASE=HEAD~1.
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:-HEAD}
workloads=${WORKLOAD:-live_floor}
seed=${SEED:-1}
n=${N:-10}
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/pairs"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$out/config"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
go build -C "$tmp/src/bench" -o "$tmp/bench-base" .
go build -C bench -o "$tmp/bench-tree" .

# trial runs one fresh-process trial of one side of one workload and files
# its report.
trial() {
	local side=$1 pair=$2 dir=$3 report
	report=$(cd "$dir" && "$tmp/bench-$side" -trial -workload "$workload" -seed "$seed") ||
		{ echo "bench-pairs: the $side trial of $workload pair $pair failed" >&2; exit 1; }
	jq -c --arg side "$side" --argjson pair "$pair" '{side: $side, pair: $pair} + .' <<<"$report" >>"$rows"
}

IFS=, read -ra list <<<"$workloads"
for workload in "${list[@]}"; do
	rows="$out/pairs/$workload-seed$seed.jsonl"
	: >"$rows"
	for i in $(seq 1 "$n"); do
		if [ $((i % 2)) -eq 1 ]; then
			trial base "$i" "$tmp/src"
			trial tree "$i" "$root"
		else
			trial tree "$i" "$root"
			trial base "$i" "$tmp/src"
		fi
	done

	echo "bench-pairs: $workload seed $seed, $n pairs, $base -> working tree (rows in ${rows#"$root"/})"
	python3 - "$rows" BENCHMARK.json <<'EOF'
import json, statistics, sys

rows = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
bad = [r for r in rows if r["failed"] or not r["correct"] or r["completed"] == 0]
for r in bad:
    print(f"bench-pairs: {r['side']} trial of pair {r['pair']}: {r['failed']} failed operations, correct {r['correct']}, {r['completed']} completed")
if bad:
    sys.exit(1)

def metrics(r):
    n = r["completed"]
    return {
        "throughput_rps": n / r["elapsed_s"],
        "latency_p50_ms": r["p50_ms"],
        "latency_p99_ms": r["p99_ms"],
        "cpu_us_per_req": r["cpu_s"] * 1e6 / n,
        "retained_b_per_req": r["retained_b"] / n,
        "setup_s": r["setup_s"],
    }

pairs = {}
for r in rows:
    pairs.setdefault(r["pair"], {})[r["side"]] = metrics(r)
print(f"{'metric':<20} {'base median':>12} {'base IQR':>25} {'tree median':>12} {'ratio':>7} {'change':>10} {'tree wins':>10}  verdict")
for m in spec["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    base = [p["base"][name] for p in pairs.values()]
    tree = [p["tree"][name] for p in pairs.values()]
    q1, _, q3 = statistics.quantiles(base, n=4)
    bm, tm = statistics.median(base), statistics.median(tree)
    better = lambda a, b: a > b if higher else a < b
    wins = sum(better(p["tree"][name], p["base"][name]) for p in pairs.values())
    losses = sum(better(p["base"][name], p["tree"][name]) for p in pairs.values())
    if abs(tm - bm) <= q3 - q1:
        verdict = "within spread"
    elif better(tm, bm):
        verdict = "win" if wins >= 0.9 * len(pairs) else "mixed"
    else:
        verdict = "loss" if losses >= 0.9 * len(pairs) else "mixed"
    ratio = tm / bm if bm else float("nan")
    print(f"{name:<20} {bm:>12.4g} {f'{q1:.4g}..{q3:.4g}':>25} {tm:>12.4g} {ratio:>7.3f} {tm - bm:>+10.3g} {f'{wins}/{len(pairs)}':>10}  {verdict}")
EOF
done
