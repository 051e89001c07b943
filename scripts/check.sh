#!/bin/sh
# Full verification gate, equivalent to `make check`, for environments
# without make. Runs gofmt, vet, build, the race-enabled concurrency
# suites, the tier-1 test suite, a one-iteration benchmark smoke pass,
# the nested bench/ module's tests, and a 1k-connection load smoke with a
# p99 regression gate.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed:"
	echo "$unformatted"
	exit 1
fi
echo "== go vet =="
go vet ./...
echo "== go build =="
go build ./...
echo "== go test -race (kdb, colstore, repl, shard, schema, campaign, core, telemetry, vcs, api, loadgen) =="
go test -race ./internal/kdb/... ./internal/colstore/... ./internal/repl/... ./internal/shard/... ./internal/schema/... ./internal/campaign/... ./internal/core/... ./internal/telemetry/... ./internal/vcs/... ./internal/api/... ./internal/loadgen/...
echo "== go test (tier 1) =="
go test ./...
echo "== bench smoke (1 iteration) =="
go test -run='^$' -bench=. -benchtime=1x ./... > /dev/null
echo "== bench module tests (cd bench && go test ./...) =="
(cd bench && go test ./...)
echo "== load smoke (1k conns, 10s, p99 gate) =="
go run ./cmd/iokc loadgen --selftest --conns 1000 --duration 10s --objects 200 --io500 200 --max-p99 750ms --max-error-rate 0.01
echo "OK"
