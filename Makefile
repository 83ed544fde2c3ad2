# Development gate for the VeriDP reproduction. `make check` is what CI
# runs: vet + formatting + the repo's own static analysis (veridp-lint)
# + the full test suite under the race detector.

GO ?= go

# Per-target budget for `make fuzz`. CI smoke runs keep the default;
# a local soak can say `make fuzz FUZZTIME=5m`.
FUZZTIME ?= 10s

# Packages with Fuzz* targets and committed seed corpora.
FUZZ_PKGS = . ./internal/core ./internal/openflow ./internal/packet ./internal/pcap ./internal/storm

# `make storm` settings: one seeded fuzzing campaign against a live
# deployment (see internal/storm). CI runs storm-smoke as a gate.
STORM_TOPO ?= ft4
STORM_STEPS ?= 500
STORM_SEED ?= 1

# `make bench` settings: packages with benchmarks, selection regex, and
# repeat count (6 runs is what benchstat wants for a stable comparison).
BENCH_PKGS = .
BENCH ?= .
BENCHTIME ?= 200ms
BENCHCOUNT ?= 6

.PHONY: build test vet fmt lint race fuzz check bench bench-check storm storm-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

lint:
	$(GO) run ./cmd/veridp-lint -timing -baseline lint.baseline ./...

# The publication paths the collector's reader races against — snapshot
# epochs, verdict caches, the FlowMod hook — and the reader's own races
# with Close and with /metrics scrapes run ten times over on top of the
# one pass the whole suite gets.
RACE_HOT = 'Handle|VerdictCache|ProxyHooks|FlowMod'

race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run $(RACE_HOT) ./internal/core .
	$(GO) test -race -count=10 -run Collector ./internal/report

# Short fuzzing pass over every Fuzz* target. `go test -fuzz` accepts a
# regex that must match exactly one target, so enumerate with -list and
# run them one at a time.
fuzz:
	@set -e; \
	for pkg in $(FUZZ_PKGS); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Network-state fuzzing: one seeded campaign with the invariant oracles
# armed. A failure writes storm-failure.json for replay/minimization:
#   go run ./cmd/veridp-storm -replay storm-failure.json -minimize
storm:
	$(GO) run ./cmd/veridp-storm -topo $(STORM_TOPO) -steps $(STORM_STEPS) -seed $(STORM_SEED)

# CI smoke: a shorter campaign on each topology.
storm-smoke:
	@set -e; \
	for topo in ft4 ft6 figure5; do \
		$(GO) run ./cmd/veridp-storm -topo $$topo -steps 200 -seed $(STORM_SEED); \
	done

# Micro-benchmark run: plain `go test -bench` text (feed BENCH.txt pairs
# to benchstat for before/after comparisons). End-to-end numbers come from
# the socket-level harness: `bash bench/run.sh`.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) $(BENCH_PKGS) | tee BENCH.txt

# The benchmark harness is a nested module (bench/go.mod) that the root
# `go build ./...` cannot see: vet and test it on its own, including the
# -quick fattree4 smoke, so an API change that breaks `bash bench/run.sh`
# fails here instead of at benchmark time. veridp-lint runs on it too,
# with no baseline: the harness has no findings to tolerate.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) run veridp/cmd/veridp-lint ./... && $(GO) test ./...

check: vet fmt lint race
