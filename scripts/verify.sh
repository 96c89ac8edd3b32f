#!/bin/sh
# Tier-1 verification gate: every PR must leave this green.
set -eux
cd "$(dirname "$0")/.."
go build ./...
go vet ./...
# chollint: domain-specific analyzers (internal/analysis) enforcing the
# determinism, hot-path-allocation, and plumbing invariants statically.
go run ./cmd/chollint ./...
# Race-enabled tests: the -race run is load-bearing for the parallel CP
# search (internal/cpsolve parallel_test.go, internal/core optimize_test.go)
# — it is what proves the shared-incumbent/claim-counter synchronization
# sound while the determinism digests prove the results identical.
go test -race ./...
# The repository benchmark (perfbench/) is a nested Go module that
# `./...` skips: vet and test it here so an API change that breaks its
# build fails the gate, not the next benchmark run. Offline, ~1 s.
(cd perfbench && go vet . && go test .)
# Benchmark harness smoke: a fixed-iteration subset of the pinned suite
# (<60s) proving the hot paths still run end to end. Writes nothing.
go run ./cmd/cholbench -smoke
