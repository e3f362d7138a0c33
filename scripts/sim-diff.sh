#!/usr/bin/env bash
# sim-diff.sh — the seeded simulator outputs at a base commit and at the
# working tree, compared byte for byte.
#
#	bash scripts/sim-diff.sh [<base>]    (default HEAD)
#
# The base commit is `git archive`d into a temporary directory (no worktree,
# .git untouched) and microfaas-sim is built there and here. Each command
# below then runs on both sides, each side in its own checkout (so a rule
# file is read from the side that runs it), and the two outputs are `cmp`d:
# `all` at seeds 1-4 with -parallel 1 and -parallel 4, shardedrack,
# rackscale10k, shardfailover with the SLO rules at seeds 1-4, powermgmt
# with the SLO rules and the predictive arm, and report. Every command
# runs; each output that differs is printed with the head of its diff, and
# the script then exits non-zero, naming how many differed. A change that
# claims its seeded outputs are unchanged proves it with this, and one that
# moves some shows which; `make sim-diff` runs it with BASE (after
# committing, BASE=HEAD~1). About 1 min in all on 2 cores.
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:-HEAD}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src" "$tmp/out"
git archive "$base" | tar -x -C "$tmp/src"
go build -C "$tmp/src" -o "$tmp/sim-base" ./cmd/microfaas-sim
go build -o "$tmp/sim-tree" ./cmd/microfaas-sim

n=0
differ=0
# same runs one command on both sides and reports whether they differ.
same() {
	n=$((n + 1))
	(cd "$tmp/src" && "$tmp/sim-base" "$@") >"$tmp/out/$n-base.txt"
	"$tmp/sim-tree" "$@" >"$tmp/out/$n-tree.txt"
	if ! cmp -s "$tmp/out/$n-base.txt" "$tmp/out/$n-tree.txt"; then
		differ=$((differ + 1))
		echo "differs: microfaas-sim $*"
		diff "$tmp/out/$n-base.txt" "$tmp/out/$n-tree.txt" | head -20 || true
		return
	fi
	echo "same: microfaas-sim $*"
}

for seed in 1 2 3 4; do
	same -seed "$seed" -parallel 1 all
	same -seed "$seed" -parallel 4 all
done
same shardedrack
same rackscale10k
for seed in 1 2 3 4; do
	same -seed "$seed" -slo examples/slo/rules.json shardfailover
done
same -slo examples/slo/rules.json -predict powermgmt
same report
if [ "$differ" -gt 0 ]; then
	echo "sim-diff: $differ of $n outputs differ between $base and the working tree"
	exit 1
fi
echo "sim-diff: $n outputs byte-identical between $base and the working tree"
