#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes — the
# Go build cache, the binary, temporary databases, result and span files —
# goes under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/iokc-bench" .)
cd "$root"
exec "$out/iokc-bench" "$@"
