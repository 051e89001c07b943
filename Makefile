# Repro of "A Comprehensive I/O Knowledge Cycle for Modular and Automated
# HPC Workload Analysis". Go stdlib only; no external tools beyond the Go
# toolchain are required.

GO ?= go

.PHONY: check build fmt vet test race bench benchsmoke benchtest tier1 loadsmoke

# check is the full gate: what CI (and scripts/check.sh) runs.
check: fmt vet build race tier1 benchsmoke benchtest loadsmoke

build:
	$(GO) build ./...

# fmt fails if any file is not gofmt-clean (prints the offenders).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# tier1 is the repo's baseline acceptance suite.
tier1:
	$(GO) test ./...

# race re-runs the concurrency-heavy packages under the race detector:
# kdb's concurrent Exec/Query/Compact and server stress tests, colstore's
# concurrent analytic reads racing writers and lazy rebuilds, repl's
# follower/router chaos scenarios, shard's scatter-gather coordinator,
# schema's batched saves, the campaign scheduler's worker pool, core's
# shared-store cycle runs, telemetry's lock-free metric registry, and
# vcs's commit/checkout/merge paths racing store writers, the api's
# LSN-invalidated cache racing ingest, and loadgen's concurrent clients.
race:
	$(GO) test -race ./internal/kdb/... ./internal/colstore/... ./internal/repl/... ./internal/shard/... ./internal/schema/... ./internal/campaign/... ./internal/core/... ./internal/telemetry/... ./internal/vcs/... ./internal/api/... ./internal/loadgen/...

test: tier1

bench:
	$(GO) test -bench=. -benchmem

# benchsmoke compiles and runs every benchmark exactly once so a broken
# benchmark cannot hide until someone runs the full suite.
benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# benchtest runs the tests of the nested bench/ module (the repository's
# benchmark, BENCHMARK.json), which tier-1 `go test ./...` never descends
# into: it compiles against the kdb/colstore/vcs/schema surfaces and
# smokes all four workloads at --scale 0.02, so a change that breaks the
# benchmark's build or its correctness checks fails here, not in the
# driver.
benchtest:
	cd bench && $(GO) test ./...

# loadsmoke drives the in-process self-test target with 1k concurrent
# clients for 10s and fails if the telemetry-histogram p99 regresses past
# the (deliberately generous) 750ms ceiling or errors exceed 1%. This is
# the CI-sized slice of EXPERIMENTS E13; the full 10k-connection run uses
# separate server and loadgen processes.
loadsmoke:
	$(GO) run ./cmd/iokc loadgen --selftest --conns 1000 --duration 10s --objects 200 --io500 200 --max-p99 750ms --max-error-rate 0.01
