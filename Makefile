GO ?= go

# Total-statement coverage must not regress below the seed baseline
# (85% at the time the observability layer landed).
COVER_FLOOR ?= 84.0

.PHONY: build test race vet fmt-check lint cover check fuzz-smoke bench-e2e experiments load-smoke e18-smoke loc

# Generous wall-time ceiling for the whole lint run (call-graph build +
# fixed point over every package). Today's run is well under a second;
# blowing past this means the engine has regressed algorithmically.
LINT_TIME_BUDGET ?= 90s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails (listing the files) if anything is not gofmt-clean.
fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "FAIL: not gofmt-clean:"; echo "$$files"; exit 1; \
	fi

# lint runs the project's own invariant analyzers (see
# docs/static-analysis.md) — per-package rules (the forbid table's
# rawclock, rawsend, envhops, rawevent, rawfsync, plus rawspawn) and the
# whole-program set (lockorder, blockheld, hotalloc, deadcode). Any
# finding fails; the one way to excuse one is a //lint:ignore <rule>
# <reason> at the site. The loader type-checks against the standard
# library's export data, found with one `go list -export` in the build
# cache that vet has already filled; a type error fails the run. Prints
# the lint wall time and fails past the budget.
# Exit 1 = findings, exit 2 = the linter could not run or was slow.
lint:
	$(GO) run ./cmd/pgridlint -time-budget $(LINT_TIME_BUDGET) ./...

# internal/experiments runs ~9 minutes under the race detector (E9 PDE
# scaling dominates), right at go test's default 10m package timeout —
# give it explicit headroom so a loaded machine doesn't flake the gate.
race:
	$(GO) test -race -count=1 -timeout 30m ./...

# cover enforces the repository-wide statement coverage floor.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{gsub(/%/,"",$$3); print $$3}'); \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { \
		if (t+0 < f+0) { printf "FAIL: coverage %.1f%% below floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", t, f }'

# The verification gate: static analysis, the full suite under the race
# detector, the coverage floor, a short fuzz of every decoder and the
# end-to-end scenario smoke. The
# agent platform, transports, and solvers must stay race-clean.
check: vet fmt-check lint race cover fuzz-smoke load-smoke e18-smoke

# fuzz-smoke fuzzes each decoder that reads hostile bytes for FUZZTIME
# (go test only replays the seed corpus): the agent wire frame, the WAL
# frame, the flight recorder's record, the query parser, the telemetry
# report and the broker's discovery bodies (their direct JSON codec against
# encoding/json); the journal's reg and dereg records, written by the same
# codec, against encoding/json; the discovery constraint predicate, read
# from the registry view's columns against the profiles' maps, on arbitrary
# property values; and the registry's posting-list walk against the linear
# reference.
# Two workers each, to stay small on a shared box.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/agent
	$(GO) test -run '^$$' -fuzz '^FuzzWALFrame$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzFlightRecord$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzJournalRecord$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzReport$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzDiscoveryCodec$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzColumnSatisfies$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/discovery
	$(GO) test -run '^$$' -fuzz '^FuzzLookupEqualsReference$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/discovery

# load-smoke runs both disaster scenarios end to end (real TCP, open-loop
# load) at rates any CI box sustains, and fails unless the priority lane
# stayed spotless: zero dead letters, ≥99% control-plane delivery, and —
# at smoke rates — zero sheds in the storm. See docs/load-testing.md.
load-smoke:
	$(GO) run ./cmd/pgridload -scenario storm -smoke
	$(GO) run ./cmd/pgridload -scenario flood -smoke

# e18-smoke regenerates the adaptive re-composition table end to end:
# providers die mid-plan (crash-loop and partition) and the adaptive
# executor must finish the conversations the static engine abandons.
e18-smoke:
	$(GO) run ./cmd/pgridbench -only E18

# experiments regenerates every E1–E18 table into results.txt (a build
# output, not a tracked file).
experiments:
	$(GO) run ./cmd/pgridbench -o results.txt
	@echo "wrote results.txt"

# bench-e2e runs the repo's benchmark (bench/README.md, BENCHMARK.json):
# closed-loop clients over loopback TCP against one in-process node, end to
# end and then layer by layer. All five workloads take about 2.5 minutes;
# W=<workload> runs one. The results, the trace files and the journal go to
# BENCH_E2E_OUT, outside bench/. To compare two commits, run the same
# workload and seed on each in interleaved pairs and count wins, as
# bench/README.md says; `go run ./bench -compare a.json b.json` checks one
# pair against the bounds.
BENCH_E2E_OUT ?= .bench_out
bench-e2e:
	@mkdir -p $(BENCH_E2E_OUT)
	$(GO) run ./bench $(if $(W),-workload $(W)) -out $(BENCH_E2E_OUT)/bench.json -dir $(BENCH_E2E_OUT)

# loc prints non-test Go lines per package directory (testdata fixtures
# excluded) and the total — the figure each consolidation PR reports
# before/after (ROADMAP item 8).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2
