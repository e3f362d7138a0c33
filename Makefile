GO ?= go

# `make check` is the CI gate: gofmt, vet, full build, the documentation
# gate, the SLO rule-file gate, the line and knob ceilings (loc, knobs),
# the benchmark module's own vet and tests, and the race-enabled test
# suite (-count=1 defeats the test cache so every run really runs).
.PHONY: check
check: fmt-check vet build docslint slolint loc knobs bench-module race

# `make fmt-check` fails, listing them, if any Go file (bench/ included) is
# not gofmt-clean.
.PHONY: fmt-check
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race -count=1 ./...

# `make docslint` fails if any exported identifier in the API packages
# lacks a doc comment, any relative link in the top-level docs is broken,
# or a documented microfaas-sim command names an experiment or passes a
# flag the suite table does not have. See cmd/docslint.
.PHONY: docslint
docslint:
	$(GO) run ./cmd/docslint

# `make slolint` validates the shipped SLO rule files: structure, window
# ordering, and that every referenced metric exists in the platform's
# catalogue. See cmd/slolint.
.PHONY: slolint
slolint:
	$(GO) run ./cmd/slolint examples/slo/rules.json examples/slo/diurnal.json

# `make bench-module` vets and tests bench/, which is a Go module of its
# own (replace microfaas => ../): the root `go build ./...` never compiles
# it, so only this proves the facade it is written against still fits.
.PHONY: bench-module
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# `make loc` prints non-test Go lines per internal/* and cmd/* package and
# the total — "net-negative line counts are a feature; report them"
# (ROADMAP needle 2), read off CI instead of hand-counted. Fails if the
# total is over LOC_MAX.
.PHONY: loc
loc:
	@for d in internal/* cmd/*; do \
		printf '%6d %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" $$d; \
	done
	@total=$$(find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	printf '%6d total\n' $$total; \
	test $$total -le $(LOC_MAX) || { echo "loc: $$total lines, over LOC_MAX=$(LOC_MAX)"; exit 1; }

# `make knobs` prints the settable fields of every *Config, *Options and
# *Policy struct in non-test Go under internal/ and cmd/, per struct and in
# total (scripts/knobs.sh) — each is a configuration the tests must cover
# (ROADMAP needle 2). Fails if the total is over KNOBS_MAX.
.PHONY: knobs
knobs:
	@bash scripts/knobs.sh $(KNOBS_MAX)

# `make reach` builds every binary — microfaas-sim, microfaas-live, faasctl,
# slolint, docslint, examples/* and the benchmark — with coverage of the
# whole module, drives each through what it ships (scripts/reach.sh: every
# simulator row, load and replay runs, a live and a simulated benchmark
# workload, two serve sessions poked by every faasctl command),
# and prints the statements reached per package under internal/ and cmd/
# plus every function no run entered, each with its reason from
# scripts/reach-allow.txt. Fails if a driven command or route answers
# wrongly, the total is under REACH_MIN percent, the four backing stores
# together are under STORE_REACH_MIN percent, a never-entered function is
# not on the allowlist, or an allowlist entry is gone or now entered. The
# report stays in .reach/.
REACH_MIN := 83
STORE_REACH_MIN := 70

# LOC_MAX and KNOBS_MAX are ratchets, like REACH_MIN: the `make loc` and
# `make knobs` totals may not grow past them. A change that lowers a total
# lowers its ceiling to match; one that must raise a ceiling says why in
# CHANGES.md.
LOC_MAX := 23155
KNOBS_MAX := 139

.PHONY: reach
reach:
	bash scripts/reach.sh $(REACH_MIN) $(STORE_REACH_MIN)

# `make bench-diff` runs the benchmark (bench/run.sh) at the commit BASE and
# then at the working tree, and fails if bench/run.sh -compare finds an
# end-to-end metric worse than BENCHMARK.json's bound (scripts/bench-diff.sh;
# about 4 min). After committing, compare with the parent: BASE=HEAD~1.
BASE ?= HEAD

.PHONY: bench-diff
bench-diff:
	bash scripts/bench-diff.sh $(BASE)

# `make bench-pairs` runs N alternating fresh-process trial pairs of a
# benchmark workload (WORKLOAD: one, or a comma-separated list run in
# turn on one build of each side) at the commit BASE and at the working
# tree, and prints per end-to-end metric both medians, the base's IQR, the
# ratio and the win count; a median inside the base's IQR is "within
# spread", never a win
# (scripts/bench-pairs.sh; the trials' rows stay in .bench_build/pairs/).
# About 1 min per workload at N=10. After committing, BASE=HEAD~1.
WORKLOAD ?= live_floor
SEED ?= 1
N ?= 10

.PHONY: bench-pairs
bench-pairs:
	WORKLOAD=$(WORKLOAD) SEED=$(SEED) N=$(N) bash scripts/bench-pairs.sh $(BASE)

# `make sim-diff` builds microfaas-sim at the commit BASE and at the working
# tree and cmps their seeded outputs (scripts/sim-diff.sh: `all` at seeds
# 1-4 serial and -parallel 4, shardedrack, rackscale10k, shardfailover and
# powermgmt with the SLO rules, report); it prints every output that
# differs and then fails (about 1 min). After committing, compare with the
# parent: BASE=HEAD~1.
.PHONY: sim-diff
sim-diff:
	bash scripts/sim-diff.sh $(BASE)
