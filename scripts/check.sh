#!/bin/sh
# The verification gate, and its only definition: `make check` and CI run
# this script, and every make target of the same name runs one step of it,
# so it also serves environments without make.
#
#   scripts/check.sh            the whole gate, in order
#   scripts/check.sh STEP...    only the named steps
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}

# The packages re-run under the race detector, one per line (adding one is
# a one-line change): kdb's concurrent Exec/Query/Compact and server stress
# tests, colstore's analytic reads racing writers and refreshes, repl's
# follower/router chaos scenarios, shard's scatter-gather coordinator,
# schema's batched saves, the campaign scheduler's worker pool, core's
# shared-store cycle runs, telemetry's lock-free metric registry, vcs's
# commit/checkout/merge paths racing store writers, the api's
# LSN-invalidated cache racing ingest, loadgen's concurrent clients, and the
# explorer, whose /traces walks the shared trace store while hops record.
RACE_PKGS="
./internal/kdb/...
./internal/colstore/...
./internal/repl/...
./internal/shard/...
./internal/schema/...
./internal/campaign/...
./internal/core/...
./internal/telemetry/...
./internal/vcs/...
./internal/api/...
./internal/loadgen/...
./internal/explorer/...
"

# fmt fails if any file is not gofmt-clean (prints the offenders).
step_fmt() {
	echo "== gofmt =="
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed:"
		echo "$unformatted"
		exit 1
	fi
}

step_vet() {
	echo "== go vet =="
	$GO vet ./...
}

step_build() {
	echo "== go build =="
	$GO build ./...
}

step_race() {
	echo "== go test -race (concurrency-heavy packages) =="
	# shellcheck disable=SC2086 # the list is split on purpose
	$GO test -race $RACE_PKGS
}

# tier1 is the repo's baseline acceptance suite.
step_tier1() {
	echo "== go test (tier 1) =="
	$GO test ./...
}

# benchsmoke compiles and runs every benchmark exactly once so a broken
# benchmark cannot hide until someone runs the full suite; -benchmem puts
# B/op and allocs/op for each in the gate log.
step_benchsmoke() {
	echo "== bench smoke (1 iteration) =="
	$GO test -run='^$' -bench=. -benchtime=1x -benchmem ./...
}

# fuzzsmoke runs every fuzz target for a few seconds, so the gate exercises
# more than each target's seed corpus (which tier1 already replays). Targets
# are discovered from the test binaries — `go test -list` prints a package's
# Fuzz functions above its "ok" line — and run one at a time, as -fuzz
# requires; adding a target is a zero-line change here.
step_fuzzsmoke() {
	echo "== fuzz smoke (3s per target) =="
	listing=$($GO test -list '^Fuzz' ./...)
	printf '%s\n' "$listing" |
		awk '/^Fuzz/ { names = names " " $1 } /^ok/ { n = split(names, t, " "); for (i = 1; i <= n; i++) print $2, t[i]; names = "" }' |
		while read -r pkg target; do
			echo "-- $pkg $target"
			$GO test -run='^$' -fuzz="^$target\$" -fuzztime=3s "$pkg"
		done
}

# benchtest runs the tests of the nested bench/ module (the repository's
# benchmark, BENCHMARK.json), which tier-1 `go test ./...` never descends
# into: it compiles against the kdb/colstore/vcs/schema surfaces and smokes
# all four workloads at --scale 0.02, so a change that breaks the
# benchmark's build or its correctness checks fails here, not in the driver.
step_benchtest() {
	echo "== bench module tests (cd bench && go test ./...) =="
	(cd bench && $GO test ./...)
}

# loadsmoke drives the in-process self-test target with 1k concurrent
# clients for 10s and fails if the telemetry-histogram p99 regresses past
# the (deliberately generous) 750ms ceiling or errors exceed 1%. This is
# the CI-sized slice of EXPERIMENTS E13; the full 10k-connection run uses
# separate server and loadgen processes.
step_loadsmoke() {
	echo "== load smoke (1k conns, 10s, p99 gate) =="
	$GO run ./cmd/iokc loadgen --selftest --conns 1000 --duration 10s --objects 200 --io500 200 --max-p99 750ms --max-error-rate 0.01
}

step_check() {
	for s in fmt vet build race tier1 fuzzsmoke benchsmoke benchtest loadsmoke; do
		"step_$s"
	done
	echo "OK"
}

[ $# -gt 0 ] || set -- check
for s; do
	case $s in
	check | fmt | vet | build | race | tier1 | fuzzsmoke | benchsmoke | benchtest | loadsmoke) "step_$s" ;;
	*)
		echo "check.sh: unknown step '$s'" >&2
		exit 2
		;;
	esac
done
