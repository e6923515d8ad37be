# Tier-1 verification plus the race/vet/lint/bench gates for the parallel
# execution engine. `make ci` is the one-command gate.

GO ?= go

.PHONY: all build test race vet fmt lint vuln bench bench-smoke fuzz-smoke perfbench-check ci clean

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package; the worker pool, the multi-start
# mapper and the experiment fan-out all have tests that exercise shared
# state concurrently.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting gate: every tracked Go file, perfbench/ included, must be
# gofmt-clean. vet, lint and test all pass unformatted code, so nothing
# else enforces it.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

# The repo's own invariant suite (internal/lint via cmd/mapcheck):
# determinism-contract, zero-alloc-contract, and registry-wiring analyzers
# over every package. Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/mapcheck ./...

# Known-vulnerability scan. Non-blocking: govulncheck is not vendored, so
# the target no-ops (with a note) where the tool is not installed, and CI
# runs it as a separate continue-on-error step.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... ; \
	else \
		echo "vuln: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Every benchmark once, no test re-run. Includes the sequential-versus-
# parallel Table 2 / Sweep comparisons and the multi-start mapper.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Fast benchmark gate for CI: the refinement-kernel, per-refiner search
# and problem-parse Go benchmarks at a short benchtime, so none can rot
# unnoticed. BenchmarkRefiners covers every registered strategy, portfolio
# included, on a single chain; the Table 1 portfolio run additionally
# smokes the multi-start lockstep path (elite exchange across chains).
# Timing proper lives in the end-to-end benchmark (BENCHMARK.json,
# perfbench/).
bench-smoke:
	$(GO) test -bench Refine -benchtime 10x -run '^$$' ./internal/schedule/
	$(GO) test -bench Refiners -benchtime 10x -run '^$$' ./internal/search/
	$(GO) test -bench ReadProblem -benchtime 10x -run '^$$' ./internal/graph/
	$(GO) run ./cmd/mapbench -table 1 -refiner portfolio -starts 4 -trials 2 > /dev/null

# Short fuzzing pass so the checked-in fuzzers actually run in CI instead
# of only replaying their corpus seeds: ~10s each on the problem and
# system text-format parsers, the topology spec parser, and the server's
# request decoding/solve, remap and fleet forwarding paths.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseProblem$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSystem$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzTopologySpec$$' -fuzztime 10s ./internal/topology/
	$(GO) test -run '^$$' -fuzz '^FuzzSolveRequest$$' -fuzztime 10s ./cmd/mapserve/
	$(GO) test -run '^$$' -fuzz '^FuzzRemapRequest$$' -fuzztime 10s ./cmd/mapserve/
	$(GO) test -run '^$$' -fuzz '^FuzzForwardRequest$$' -fuzztime 10s ./cmd/mapserve/

# The end-to-end benchmark harness (perfbench/, run by `bash
# perfbench/run.sh` as BENCHMARK.json declares) is its own Go module, so
# `./...` above never compiles it: vet and test it separately, so an API
# change that breaks the harness fails here instead of at benchmark time.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: build vet fmt lint test race bench-smoke fuzz-smoke perfbench-check

clean:
	$(GO) clean ./...
