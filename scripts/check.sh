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
# LSN-invalidated cache racing ingest and its many keep-alive clients, and
# the explorer, whose /traces walks the shared trace store while hops record.
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

# benchab gates the change on a same-host A/B of the repository benchmark
# against the commit it branches from (scripts/benchab.sh): three seed pairs
# of 3-second runs. It fails on a regressed end-to-end metric, a failed
# correctness check or a larger failed-operation share, never on an
# unresolved verdict. Three short pairs on a shared host read noise as a
# regression of some metric in about one pass in five (4 of 20 A/A passes),
# while a real regression reproduces. So a pass that failed on regressions
# alone is run again, and the step fails only on a workload's metric that
# regressed in both passes, or on any other failure. Everything it writes
# stays under .bench_build/.
step_benchab() {
	echo "== bench A/B against the merge-base with main (3 pairs, 3 s) =="
	base=$(git merge-base HEAD main)
	mkdir -p .bench_build
	for pass in 1 2; do
		log=.bench_build/benchab-check-$pass.log
		if bash scripts/benchab.sh "$base" --pairs 3 --seconds 3 --out ".bench_build/benchab-check-$pass.json" >"$log" 2>&1; then
			cat "$log"
			return 0
		fi
		cat "$log"
		grep -q '^benchab: FAIL' "$log" && return 1
		awk '/^[a-z_]+ / && $NF == "regressed" { print $1, $2 }' "$log" | sort >"$log.regressed"
		[ -s "$log.regressed" ] || return 1 # it stopped before a verdict
		echo "benchab: pass $pass regressed; $([ "$pass" = 1 ] && echo 'running it again' || echo 'comparing the passes')"
	done
	both=$(comm -12 .bench_build/benchab-check-1.log.regressed .bench_build/benchab-check-2.log.regressed)
	if [ -n "$both" ]; then
		echo "benchab: regressed in both passes:"
		echo "$both"
		return 1
	fi
	echo "benchab: no metric regressed in both passes"
}

step_check() {
	for s in fmt vet build race tier1 fuzzsmoke benchsmoke benchtest benchab; do
		"step_$s"
	done
	echo "OK"
}

[ $# -gt 0 ] || set -- check
for s; do
	case $s in
	check | fmt | vet | build | race | tier1 | fuzzsmoke | benchsmoke | benchtest | benchab) "step_$s" ;;
	*)
		echo "check.sh: unknown step '$s'" >&2
		exit 2
		;;
	esac
done
