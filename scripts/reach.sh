#!/usr/bin/env bash
# reach.sh — what the shipped binaries reach of the tree.
#
# Builds microfaas-sim, microfaas-live, faasctl, slolint, docslint and every
# examples/* program with -cover -coverpkg=./..., and the benchmark (bench/,
# a module of its own) with -coverpkg=microfaas/..., drives each through
# what it ships, merges the coverage with `go tool covdata`, and prints the
# statements reached per package under internal/ and cmd/ and in the root
# package (the facade) plus every function no run entered, each with its reason from scripts/reach-allow.txt.
#
#	bash scripts/reach.sh <min-percent> <store-min-percent>
#
# The drive checks what it drives: a command that exits wrongly, or a route
# that answers without the fact it exists for, fails the run. It also fails
# when the total is under <min-percent>, when the four backing stores
# together are under <store-min-percent>, when a never-entered function is
# not in the allowlist, and when the allowlist names a function that no
# longer exists or that the drive enters. The report is left in .reach/:
# table.txt, never-entered.txt, and the merged profile. `make reach` runs
# this script.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: reach.sh <min-percent> <store-min-percent>"
min=${1:?$usage}
storemin=${2:?$usage}
allow=scripts/reach-allow.txt
stores="kvstore sqlstore objstore mq"

tmp=$(mktemp -d)
serving=""
cleanup() {
	if [ -n "$serving" ]; then kill -9 "$serving" 2>/dev/null || true; fi
	rm -rf "$tmp"
}
trap cleanup EXIT

die() {
	echo "reach: $*" >&2
	exit 1
}

# run CMD... runs one driven command, which must exit 0; its output is left
# in $tmp/out.
run() {
	local st=0
	"$@" >"$tmp/out" 2>&1 || st=$?
	if [ "$st" -ne 0 ]; then
		tail -n 20 "$tmp/out" >&2
		die "exit $st: $*"
	fi
}

# refused TEXT CMD... runs a command that must exit non-zero saying TEXT.
refused() {
	local text=$1 st=0
	shift
	"$@" >"$tmp/out" 2>&1 || st=$?
	[ "$st" -ne 0 ] || die "exit 0, want a refusal: $*"
	grep -qF -- "$text" "$tmp/out" || { cat "$tmp/out" >&2; die "want \"$text\" from: $*"; }
}

# says TEXT requires TEXT in the last command's output.
says() {
	grep -qF -- "$1" "$tmp/out" || { cat "$tmp/out" >&2; die "want \"$1\" in the output"; }
}

bin=$tmp/bin
mkdir -p "$bin" "$tmp/cov"
go build -cover -coverpkg=./... -o "$bin/" \
	./cmd/microfaas-sim ./cmd/microfaas-live ./cmd/faasctl ./cmd/slolint ./cmd/docslint ./examples/...
go build -C bench -cover -coverpkg=microfaas/... -o "$bin/microfaas-bench" .
export GOCOVERDIR=$tmp/cov
sim=$bin/microfaas-sim
live=$bin/microfaas-live
rules=examples/slo/rules.json

# --- microfaas-sim: every row, the five `all` omits, every output ---
run "$sim" -h
says "shardfailover"
refused "-n" "$sim" -n 5 fig4
run "$sim" all
says "Table II"
run "$sim" shardedrack
run "$sim" -shards 8 -slo "$rules" shardfailover
says "firing"
run "$sim" -slo "$rules" -predict powermgmt
run "$sim" rackscale10k
run "$sim" report
for e in fig3 fig4 fig5 loadsweep keepwarm; do
	run "$sim" -format csv "$e"
	[ "$(grep -c , "$tmp/out")" -gt 1 ] || die "-format csv $e printed no CSV rows"
done
run "$sim" -n 20 -csv "$tmp/fig3.csv" -prom "$tmp/fig3.prom" -trace "$tmp/fig3.json" fig3
for f in fig3.csv fig3.prom fig3.json; do
	[ -s "$tmp/$f" ] || die "fig3 wrote no $f"
done

# --- the linters, passing and failing, and the examples ---
run "$bin/docslint"
lint=$tmp/lint
for p in core node gpio power powermgr forecast trace telemetry; do mkdir -p "$lint/internal/$p"; done
printf 'package core\n\nfunc F() {}\n\ntype T struct{}\n\nfunc (T) M() {}\n\nconst C = 1\n' >"$lint/internal/core/core.go"
refused "F is exported but undocumented" "$bin/docslint" -root "$lint"
run "$bin/slolint" "$rules" examples/slo/diurnal.json
# A rule without windows runs on DefaultWindows; serve session two uses it.
printf '[{"name": "errors", "kind": "error_ratio", "target": 0.99}]\n' >"$tmp/default-windows.json"
run "$bin/slolint" "$tmp/default-windows.json"
for d in examples/*/main.go; do
	d=${d%/main.go}
	run "$bin/${d#examples/}"
done

# --- microfaas-live: load and replay modes ---
run "$live" -jobs 200
says "completed 200/200"
refused "-slo is read only in serve mode" "$live" -jobs 17 -slo "$rules"
printf 'at_ms,function\n0,CascSHA\n5,RegExMatch\n10,RedisInsert\n' >"$tmp/trace.csv"
run "$live" -replay "$tmp/trace.csv" -speedup 10
says "completed 3/3"

# --- the benchmark: a live workload's per-layer pass (its trials and the
# ladder) and one simulator trial, each reporting correct outputs ---
run "$bin/microfaas-bench" -workload live_suite -trace 1 -seconds 2 -out "$tmp/bench"
says '"correct":true'
run "$bin/microfaas-bench" -workload sim_sharded -trial -out "$tmp/bench"
says '"correct":true'

# --- microfaas-live: serve sessions ---
# serve LOG FLAGS... starts microfaas-live on a free port and sets $serving
# and $gw (host:port, parsed from its banner).
serve() {
	local log=$1 i
	shift
	"$live" -listen 127.0.0.1:0 "$@" >"$log" 2>&1 &
	serving=$!
	gw=""
	for i in $(seq 300); do
		gw=$(sed -n 's|^gateway listening on http://\([^ ]*\).*|\1|p' "$log")
		[ -n "$gw" ] && return
		kill -0 "$serving" 2>/dev/null || { cat "$log" >&2; die "serve exited before listening: $*"; }
		sleep 0.1
	done
	die "serve printed no address: $*"
}

# stop LOG sends SIGINT: the session must drain and exit 0.
stop() {
	local st=0
	kill -INT "$serving"
	wait "$serving" || st=$?
	serving=""
	[ "$st" -eq 0 ] || { cat "$1" >&2; die "serve exited $st after SIGINT"; }
	grep -q '^draining' "$1" && grep -q '^shutting down' "$1" || { cat "$1" >&2; die "serve did not drain"; }
}

ctl() { "$bin/faasctl" -gateway "$gw" "$@"; }

# get PATH fetches a route, which must answer 2xx, into $tmp/out.
get() {
	curl -sS -f -o "$tmp/out" "http://$gw$1" || die "GET $1 failed"
}

# Session one: power management under a cap, SLO rules, forecasting
# and pprof. The boot delay makes every job outlast the poll that
# follows its submission, so `job <id>` always parks.
serve "$tmp/serve1.log" -workers 4 -boot-delay 200ms -power-idle 300ms -power-cap 12 \
	-policy energy-aware -predict -slo "$rules" -pprof -scrape-interval 50ms
run ctl functions
says CascSHA
run ctl invoke CascSHA '{"rounds":1000,"seed":"hi"}'
says '"output"'
run ctl invoke RedisInsert '{"key":"k1","value":"v"}'
run ctl invoke SQLSelect '{"region":"us-east","min_balance":0,"limit":5}'
# A function error on a managed worker power-cycles it.
refused "422" ctl invoke CascSHA '{"rounds":"many"}'
run ctl -async invoke MatMul '{"n":512,"seed":7}'
job=$(sed -n 's/.*"job_id": *\([0-9]*\).*/\1/p' "$tmp/out")
[ -n "$job" ] || die "async invoke returned no job id"
# HEAD on a job is refused: its GET spends the result, which the polls
# below must still get.
code=$(curl -sS -o /dev/null -D "$tmp/out" -w '%{http_code}' -I "http://$gw/jobs/$job")
[ "$code" = 405 ] || die "HEAD /jobs/$job answered $code, want 405"
grep -qiE '^allow: GET[[:space:]]*$' "$tmp/out" || { cat "$tmp/out" >&2; die "HEAD /jobs/$job: no Allow header naming GET"; }
for i in 1 2 3 4 5; do # each poll holds up to a second
	run ctl job "$job"
	grep -q '"pending"' "$tmp/out" || break
done
says '"output"'
refused "already-fetched" ctl job "$job"
run ctl workers
says live-001
run ctl workers -v
run ctl stats
says '"completed"'
run ctl shards
says shard-00
run ctl top -once
run ctl top -once -json
run ctl watch -once microfaas_jobs_submitted_total
run ctl slo
says latency-burn
run ctl alerts
run ctl power
run ctl power cap 9
says '"cap_w": 9'
run ctl forecast
run ctl trace "$job"
says MatMul
run ctl trace --slowest 3
refused "not in the record window" ctl trace 999999
get '/query?metric=microfaas_invocation_latency_seconds&op=quantile&q=0.99'
[ "$(grep -o '"value"' "$tmp/out" | wc -l)" -eq 1 ] || die "quantile query: want one series, got $(cat "$tmp/out")"
get '/query?metric=microfaas_jobs_submitted_total&op=rate'
get '/query?metric=microfaas_worker_busy&label=worker=live-001'
sleep 0.3 # a scrape after the ask records the worker's own series
get '/query?metric=microfaas_worker_busy&label=worker=live-001'
says '"worker":"live-001"'
get '/query?metric=microfaas_jobs_submitted_total&format=ndjson'
get '/traces?format=ndjson'
says '"job"'
get '/traces?format=chrome'
get '/traces?limit=5'
traced=$(grep -o '"job":[0-9]*' "$tmp/out" | head -n 1 | cut -d: -f2)
[ -n "$traced" ] || die "no job id in /traces"
get "/traces/$traced"
says '"spans"'
get /budgets
curl -sS -f -o "$tmp/out" -d '{"function":"MatMul","limit_j":100}' "http://$gw/budgets" || die "POST /budgets failed"
says '"limit_joules":100'
code=$(curl -sS -o "$tmp/out" -w '%{http_code}' -d '{"function":"nope-1","limit_j":5}' "http://$gw/budgets")
[ "$code" = 404 ] || die "POST /budgets for an unknown function answered $code, want 404"
get /metrics
says microfaas_gateway_polls_parked
says 'shard="shard-00"'
# The route table is the mux's: a method a route does not serve answers 405
# naming the ones it does, and HEAD is served wherever GET is.
code=$(curl -sS -o /dev/null -D "$tmp/out" -w '%{http_code}' -X DELETE "http://$gw/metrics")
[ "$code" = 405 ] || die "DELETE /metrics answered $code, want 405"
grep -qiE '^allow: GET, HEAD[[:space:]]*$' "$tmp/out" || { cat "$tmp/out" >&2; die "DELETE /metrics: no Allow header naming GET"; }
code=$(curl -sS -o /dev/null -w '%{http_code}' -I "http://$gw/metrics")
[ "$code" = 200 ] || die "HEAD /metrics answered $code, want 200"
get /healthz
get /debug/pprof/
stop "$tmp/serve1.log"

# Session two: deadlines, retries and breakers, and a store scraped every
# 2 ms for 6 s (~3,000 scrapes) so samples rotate into the downsample
# tiers the default windows read.
serve "$tmp/serve2.log" -workers 2 -scrape-interval 2ms -job-timeout 50ms -max-attempts 3 \
	-retry-base 1ms -breaker-threshold 2 -breaker-probe 100ms -slo "$tmp/default-windows.json"
refused "deadline" ctl invoke MatMul '{"n":1024,"seed":1}'
run ctl workers
says open
sleep 0.3 # past the breaker probe: the next assignment takes workers off parole
run ctl invoke CascSHA '{"rounds":10,"seed":"ok"}'
sleep 6
get '/query?metric=microfaas_jobs_submitted_total&op=increase&window=1h'
run ctl slo
says errors
stop "$tmp/serve2.log"

# Session three: a deadline and a retry under least-loaded, whose retry
# goes to the least-loaded worker other than the one it timed out on.
serve "$tmp/serve3.log" -workers 2 -policy least-loaded -job-timeout 50ms -max-attempts 2
refused "deadline" ctl invoke MatMul '{"n":1024,"seed":1}'
stop "$tmp/serve3.log"

# --- the report ---
mkdir -p .reach
# The benchmark's own package is another module's, which `go tool cover`
# cannot resolve from here: its blocks leave the profile.
go tool covdata textfmt -i="$tmp/cov" -o "$tmp/profile.txt"
grep -v '^microfaas/bench/' "$tmp/profile.txt" >.reach/profile.txt
go tool cover -func=.reach/profile.txt >.reach/funcs.txt

# Statements per package under internal/ and cmd/ and in the facade, each
# block once.
st=0
awk -v stores="$stores" -v min="$min" -v storemin="$storemin" '
	NR == 1 { next }
	{
		split($1, loc, ":"); pkg = loc[1]; sub(/^microfaas\//, "", pkg)
		if (pkg ~ /^[^\/]+\.go$/) pkg = "microfaas (the facade)"
		else if (pkg ~ /^(internal|cmd)\//) sub(/\/[^\/]*$/, "", pkg)
		else next
		if (!($1 in seen)) { seen[$1] = 1; all[pkg] += $2 }
		if ($3 > 0 && !($1 in reached)) { reached[$1] = 1; hit[pkg] += $2 }
	}
	END {
		for (p in all) order[++k] = p
		for (i = 2; i <= k; i++) for (j = i; j > 1 && order[j-1] > order[j]; j--) { t = order[j]; order[j] = order[j-1]; order[j-1] = t }
		for (i = 1; i <= k; i++) {
			p = order[i]; h += hit[p]; a += all[p]
			printf "%5d / %5d  %5.1f%%  %s\n", hit[p], all[p], 100*hit[p]/all[p], p
		}
		n = split(stores, st, " ")
		for (i = 1; i <= n; i++) { sh += hit["internal/" st[i]]; sa += all["internal/" st[i]] }
		printf "%5d / %5d  %5.1f%%  the four stores (minimum %d%%)\n", sh, sa, 100*sh/sa, storemin
		printf "%5d / %5d  %5.1f%%  total (minimum %d%%)\n", h, a, 100*h/a, min
		if (100*h < min*a) print "reach: total under " min "%" >"/dev/stderr"
		if (100*sh < storemin*sa) print "reach: the four stores under " storemin "%" >"/dev/stderr"
		exit 100*h < min*a || 100*sh < storemin*sa
	}' .reach/profile.txt >.reach/table.txt || st=1
cat .reach/table.txt

# Functions never entered, named "<file> <Receiver.>Name" with the receiver
# read off the declaring line, each with the allowlist's reason. `go tool
# cover -func` prints 0.0% for a function none of whose statements ran, and
# for one that has no statements.
awk -v allow="$allow" '
	FNR == NR {
		if ($0 ~ /^[ \t]*(#|$)/) next
		key = $1 " " $2
		why[key] = $0; sub(/^[^ \t]+[ \t]+[^ \t]+[ \t]+/, "", why[key])
		next
	}
	{
		split($1, loc, ":"); file = loc[1]; sub(/^microfaas\//, "", file)
		if (file !~ /^((internal|cmd)\/|[^\/]+\.go$)/) next
		if (!(file in read)) {
			read[file] = 1; n = 0
			while ((getline line < file) > 0) src[file, ++n] = line
			close(file)
		}
		decl = src[file, loc[2]]; name = $2
		if (decl ~ /^func \(/) {
			sub(/^func \(/, "", decl); sub(/\).*/, "", decl); sub(/\[.*/, "", decl)
			k = split(decl, recv, " "); t = recv[k]; sub(/^\*/, "", t)
			name = t "." name
		}
		key = file " " name
		exists[key] = 1
		if ($NF == "0.0%") never[key] = 1
	}
	END {
		for (key in never) {
			if (key in why) print key "  -- " why[key]
			else { print "reach: never entered and not in " allow " (delete it, drive it, or list it with a reason): " key >"/dev/stderr"; bad = 1 }
		}
		for (key in why) {
			if (!(key in exists)) { print "reach: " allow " names a function that no longer exists: " key >"/dev/stderr"; bad = 1 }
			else if (!(key in never)) { print "reach: " allow " names a function the drive enters: " key >"/dev/stderr"; bad = 1 }
		}
		exit bad
	}' "$allow" .reach/funcs.txt >"$tmp/never" || st=1
sort "$tmp/never" >.reach/never-entered.txt
echo
echo "never entered ($(wc -l <.reach/never-entered.txt)), each with its reason:"
sed 's/^/  /' .reach/never-entered.txt
exit "$st"
