#!/usr/bin/env bash
# Same-host A/B of the repository benchmark (bench/, BENCHMARK.json): the
# working tree against BASE, seed by seed, each side built from its own
# source and run by its own bench/run.sh.
#
#   scripts/benchab.sh BASE [--pairs N] [--seconds S] [--out FILE]
#
# BASE is checked out in a git worktree under .bench_build/, removed on
# exit. Seed k (1..N) runs BASE first when k is odd and the working tree
# first when k is even, so neither side always follows the other. The
# per-seed result files of each side are merged with jq, compared with
# `bench/run.sh compare`, and written to FILE (default
# .bench_build/benchab.json) as {base, head, pairs, seconds, old, new}:
# `jq .old FILE` and `jq .new FILE` are ordinary result sets, every run
# kept with its host.calib_*_ms, that `bench/run.sh compare` reads again.
#
# Exits 1 when an end-to-end metric regressed (compare's table says which),
# or on a failure that is not a verdict — a correctness check of the
# working tree failed, the working tree failed a larger share of a
# workload's operations than BASE, a side wrote no result — each printed
# as a "benchab: FAIL" line. An unresolved verdict never fails.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

usage() {
	echo "usage: scripts/benchab.sh BASE [--pairs N] [--seconds S] [--out FILE]" >&2
	exit 2
}
[ $# -ge 1 ] || usage
base_ref=$1
shift
pairs=10 seconds=12 out=.bench_build/benchab.json
while [ $# -gt 0 ]; do
	case $1 in
	--pairs) pairs=${2:?}; shift 2 ;;
	--seconds) seconds=${2:?}; shift 2 ;;
	--out) out=${2:?}; shift 2 ;;
	*) usage ;;
	esac
done

base=$(git rev-parse --verify "$base_ref^{commit}")
head=$(git rev-parse HEAD)
[ -z "$(git status --porcelain)" ] || head="$head+dirty"

work="$root/.bench_build/benchab"
wt="$work/base"
rm -rf "$work"
git worktree prune
mkdir -p "$work"
trap 'git worktree remove --force "$wt" 2>/dev/null || true; git worktree prune' EXIT
git worktree add --quiet --detach "$wt" "$base"
# One build cache for both sides, so BASE recompiles only what differs.
mkdir -p "$root/.bench_build/gocache" "$wt/.bench_build"
ln -s "$root/.bench_build/gocache" "$wt/.bench_build/gocache"

# run SIDE DIR SEED: one full pass of DIR's benchmark for one seed.
run() {
	local res="$work/$1-seed$3.json" log="$work/$1-seed$3.log" t0=$SECONDS
	if bash "$2/bench/run.sh" --seed "$3" --seconds "$seconds" --out "$res" >"$log" 2>&1; then
		echo "seed $3 $1: ok ($((SECONDS - t0)) s)"
	else
		echo "seed $3 $1: exit $? ($((SECONDS - t0)) s, log $log)"
	fi
	[ -s "$res" ] || { echo "benchab: FAIL $1 wrote no result for seed $3" >&2; tail -20 "$log" >&2; exit 1; }
}
echo "benchab: base ${base:0:12} vs head ${head:0:12}, $pairs pairs of $seconds s"
for k in $(seq 1 "$pairs"); do
	if [ $((k % 2)) -eq 1 ]; then
		run old "$wt" "$k"
		run new "$root" "$k"
	else
		run new "$root" "$k"
		run old "$wt" "$k"
	fi
done

# Merge each side's per-seed sets in seed order, so runs pair by position.
for side in old new; do
	files=()
	for k in $(seq 1 "$pairs"); do files+=("$work/$side-seed$k.json"); done
	jq -s '{schema: .[0].schema, runs: [.[].runs[]]}' "${files[@]}" >"$work/$side.json"
done
mkdir -p "$(dirname "$out")"
jq -n --arg base "$base" --arg head "$head" --argjson pairs "$pairs" --argjson seconds "$seconds" \
	--slurpfile old "$work/old.json" --slurpfile new "$work/new.json" \
	'{base: $base, head: $head, pairs: $pairs, seconds: $seconds, old: $old[0], new: $new[0]}' >"$out"
echo "benchab: wrote $out"

status=0
bash bench/run.sh compare "$work/old.json" "$work/new.json" || status=1
failures=$(jq -r -n --slurpfile old "$work/old.json" --slurpfile new "$work/new.json" '
	def share($set; $w): [$set.runs[] | select(.workload == $w)]
		| ((map(.failed) | add) // 0) / ([(map(.attempted) | add) // 0, 1] | max);
	($new[0].runs[] | . as $r | .checks[] | select(.ok | not)
		| "\($r.workload) seed \($r.fingerprint.seed): check \(.name) failed: \(.detail)"),
	([$new[0].runs[].workload] | unique[] as $w
		| select(share($new[0]; $w) > share($old[0]; $w))
		| "\($w): failed-operation share \(share($new[0]; $w)) > base \(share($old[0]; $w))")')
if [ -n "$failures" ]; then
	sed 's/^/benchab: FAIL /' <<<"$failures"
	status=1
fi
exit "$status"
