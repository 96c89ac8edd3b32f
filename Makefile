.PHONY: build test lint verify bench bench-pinned bench-repo smoke-live serve

build:
	go build ./...

test:
	go test ./...

# chollint: the repo's domain-specific static-analysis suite (determinism,
# hot-path allocation, context and recorder plumbing, interprocedural purity
# proofs and leak checks — see internal/analysis and DESIGN.md). -time pins
# the load/analyze wall-clock on stderr so a slow regression in the
# whole-program engine is visible in every lint run. Also runnable through
# the stock vet driver:
#   go build -o bin/chollint ./cmd/chollint && go vet -vettool=$$PWD/bin/chollint ./...
lint:
	go run ./cmd/chollint -time ./...

# Tier-1 gate (ROADMAP.md): build + vet + chollint + race-enabled tests +
# cholbench smoke.
verify:
	./scripts/verify.sh

bench:
	go test -bench=. -benchmem

# Full pinned benchmark suite (see "Benchmarking & perf trajectory" in
# README.md). Compare against a previous PR's file with -baseline-from.
bench-pinned:
	go run ./cmd/cholbench -out BENCH_PR16.json -baseline-from BENCH_PR15.json

# Repository benchmark (BENCHMARK.json, perfbench/): one workload, built
# offline into .bench_build/; the last stdout line is the JSON result.
#   make bench-repo W=repro SEED=7 SECS=20 TRACE=0
W ?= repro
SEED ?= 7
SECS ?= 20
TRACE ?= 0
bench-repo:
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds $(SECS) --trace $(TRACE)

# Live-observability smoke: cholserved up, one recorded run, SSE frames and
# phase histograms asserted end to end (also a verify.yml step).
smoke-live:
	./scripts/smoke_live.sh

serve:
	go run ./cmd/cholserved
