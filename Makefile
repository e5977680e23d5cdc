# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint lint-fixtures test benchmark-module race obs faults loadsmoke profsmoke fuzz-smoke bench bench-full bench-all bench-check figures report clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# project-specific static analysis (see internal/lint, DESIGN.md §6 and
# §11). Wall-clock is recorded and budgeted: the eleven-analyzer suite must
# stay under 30 seconds or it stops being something people run pre-push.
lint:
	@start=$$(date +%s); $(GO) run ./cmd/ccslint; status=$$?; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "ccslint wall-clock: $${elapsed}s (budget 30s)"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	if [ $$elapsed -ge 30 ]; then echo "ccslint exceeded its 30s budget"; exit 1; fi

# the analyzers' own test suite: // want fixtures (single- and
# multi-package), the fact store, and the driver's -json/exit-code contract
lint-fixtures:
	$(GO) test ./internal/lint ./cmd/ccslint

test:
	$(GO) test ./...

# the end-to-end benchmark is a Go module of its own (benchmark/go.mod),
# so the root `go vet ./...` and `go test ./...` never compile it; this
# vets it and runs its smoke test (~10 s), so a deleted name it uses
# fails here instead of when the benchmark is run
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# observability suite: the obs package itself, then the instrumented
# layers (mining core, counting engines, HTTP server) under the race
# detector — counters and histograms are hammered concurrently while the
# exposition renders; see DESIGN.md §8
obs:
	$(GO) test ./internal/obs
	$(GO) test -race ./internal/obs ./internal/core ./internal/counting ./internal/server

# fault-injection and cancellation suite under the race detector: injected
# I/O faults (dataset/counting), per-algorithm cancellation (core/freq),
# HTTP truncation + shutdown (server/ccsserve); see DESIGN.md §7
faults:
	$(GO) test -race -run 'Fault|Cancel|Truncat|Budget|Transient|Retry|Drain|Signal|Recover|Timeout' \
		./internal/dataset ./internal/counting ./internal/core ./internal/freq ./internal/server ./cmd/ccsserve

# overload soak: 64 clients against 16 admission slots (4x capacity) for
# 5 seconds via the in-process load harness. Exits non-zero on any
# no-collapse invariant violation — a 5xx, a 429 without Retry-After,
# leaked goroutines after drain; see DESIGN.md §12 and cmd/ccsload
loadsmoke:
	$(GO) run ./cmd/ccsload -clients 64 -duration 5s \
		-max-inflight 16 -queue-depth 16 -queue-wait 50ms

# profiler smoke: generate a small dataset, mine it at workers=1 and
# workers=8 with -explain-analyze (profile JSON on the side), then ccsprof
# diffs the two records and names the dominant source of the gap. Exits
# non-zero when a mine fails or either profile JSON is malformed — ccsprof
# rejects records without wall_seconds/phases; see DESIGN.md §13
profsmoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; set -e; \
	$(GO) run ./cmd/ccsgen -method 1 -items 60 -baskets 4000 -seed 7 -o $$tmp/smoke.ccs; \
	$(GO) run ./cmd/ccsmine -data $$tmp/smoke.ccs -algo bms++ -q 'max(price) <= 30' \
		-workers 1 -explain-analyze -profile-json $$tmp/serial.json > $$tmp/serial.txt; \
	$(GO) run ./cmd/ccsmine -data $$tmp/smoke.ccs -algo bms++ -q 'max(price) <= 30' \
		-workers 8 -explain-analyze -profile-json $$tmp/parallel.json > $$tmp/parallel.txt; \
	grep -q '^profile: ' $$tmp/serial.txt && grep -q '^profile: ' $$tmp/parallel.txt || \
		{ echo "profsmoke: -explain-analyze printed no profile"; exit 1; }; \
	$(GO) run ./cmd/ccsprof $$tmp/serial.json $$tmp/parallel.json

# ~40 seconds of fuzzing across the parser, the binary reader, the bitset
# algebra, and the roaring-style TID-list containers — the CI smoke; run
# with a larger -fuzztime to dig deeper
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/cql
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=10s ./internal/dataset
	$(GO) test -run='^$$' -fuzz=FuzzSetOps -fuzztime=10s ./internal/bitset
	$(GO) test -run='^$$' -fuzz=FuzzTidlistOps -fuzztime=10s ./internal/tidlist

# tracked benchmark baselines: counting kernels and the sparse-corpus
# backend comparison (BenchmarkCountSparse, BenchmarkCountBackendDense) to
# BENCH_counting.json, end-to-end mining algorithms (serial + parallel,
# with speedup metrics, plus BenchmarkAlgoSparse) to BENCH_core.json (see
# DESIGN.md §9-10, §14-15 and cmd/ccsperf). Runs in short mode, so the
# large-lattice corpus (BenchmarkAlgoLarge) uses 10^5 baskets; the basket
# count is part of every benchmark name, so these baselines never
# cross-compare with full-corpus runs. bench-check enforces the 0.5x
# compressed/dense bytes floor on the sparse corpus once a committed
# baseline achieves it.
bench:
	$(GO) run ./cmd/ccsperf -short -out BENCH_counting.json -core-out BENCH_core.json

# the full 10^6-basket large-lattice corpus, one iteration per benchmark.
# Run this on a multi-core machine and commit the result as BENCH_core.json
# to arm the 2.0x 8-worker speedup floor that bench-check enforces.
bench-full:
	$(GO) run ./cmd/ccsperf -benchtime 1x \
		-out BENCH_counting.full.json -core-out BENCH_core.full.json

# CI variant: small fixed iteration counts, compared against the committed
# baselines (allocation regressions fail, wall-clock only warns)
bench-check:
	$(GO) run ./cmd/ccsperf -short \
		-out BENCH_counting.ci.json -check BENCH_counting.json \
		-core-out BENCH_core.ci.json -core-check BENCH_core.json

# every testing.B benchmark in the repo, including the paper figures
bench-all:
	$(GO) test -bench=. -benchmem ./...

# regenerate every figure of the paper into results/
figures:
	mkdir -p results
	$(GO) run ./cmd/ccsbench -all -speedups \
		-csv results/figures.csv -report results/report.md \
		| tee results/figures.txt

clean:
	rm -rf bin
