#!/usr/bin/env bash
# bench-diff.sh — the benchmark at a base commit and at the working tree,
# run one after the other on this machine, then compared.
#
#	bash scripts/bench-diff.sh [<base>]    (default HEAD)
#
# The base commit is `git archive`d into a temporary directory (no worktree,
# .git untouched) and bench/run.sh runs there, then here. bench/run.sh
# -compare then judges every end-to-end metric of the working tree against
# the base with BENCHMARK.json's bounds: better, within, worse, or
# unresolved when the runs' own spread is wider than the bound. The script
# exits with -compare's status, so one worse metric fails it. Nothing is
# kept as a baseline. Each side is one full run (about 2 min on 2 cores).
# `make bench-diff` runs this script with BASE, which defaults to HEAD:
# after committing, compare against the parent with BASE=HEAD~1.
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:-HEAD}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
echo "== bench at $base"
(cd "$tmp/src" && bash bench/run.sh -out "$tmp/base")
echo "== bench at the working tree"
bash bench/run.sh -out "$tmp/tree"
echo "== $base -> working tree"
bash bench/run.sh -compare -spec BENCHMARK.json "$tmp/base/result.json" "$tmp/tree/result.json"
