GO ?= go
# PR number stamped into the benchmark snapshot file name; bump (or
# override: `make bench-snapshot PR=5`) each PR so trajectories of all
# PRs stay side by side.
PR ?= 10

# Pipelines (bench-snapshot) must fail when any stage fails, not just
# the last one, or a broken benchmark run would silently overwrite the
# snapshot with a partial one.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build vet test test-race soak chaos bot-smoke serve-smoke crash-matrix bench bench-smoke bench-worldfile bench-snapshot bench-compare examples-smoke

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrency-heavy packages (the sharded
# pipeline, parallel substrate build and artefact fan-out all have
# dedicated concurrent tests).
test-race:
	$(GO) test -race ./...

# Churn soak: 1000 randomized join/leave/re-join deltas through one
# persistent engine under the race detector, with the incremental
# report checked byte-for-byte against a cold rebuild every 100
# deltas. Env-gated so the tier-1 suite stays fast.
soak:
	RPEER_SOAK=1 $(GO) test -race -run 'TestChurnSoak' ./pkg/rpi -count=1 -v

# Fault injection through the load harness: rpi-bot's fleet load
# (readers, streamers, appliers, plus a stalled streamer and a 1 ms
# deadline storm per tenant) against an in-process host under tight
# admission limits, while CHAOS_CYCLES fault cycles alternate an engine
# panic mid-apply with a WAL append failure. Fails unless every fault
# heals to a writable engine within 30s, served bytes equal a cold
# rebuild after each recovery, sequence continuity holds, shedding is
# observed, admitted-read p99 stays under 2s and the plane answers at
# the end. Runs under the race detector; CHAOS_CYCLES=8 is the long
# soak.
CHAOS_CYCLES ?= 2
chaos:
	$(GO) run -race ./cmd/rpi-bot -tenants 1 -faults $(CHAOS_CYCLES)

# Fleet load generator smoke: an in-process 4-tenant host driven by
# mixed readers/appliers/streamers for a few seconds under the race
# detector, then the per-tenant byte-identity check (host bytes == a
# cold engine's bytes over the same inputs). Fails on any protocol
# violation (a status outside the allowed set, or a 503 without
# Retry-After) or identity mismatch.
bot-smoke:
	$(GO) run -race ./cmd/rpi-bot -tenants 4 -duration 3s

# The rpi-serve binary end to end: start it on a fresh data dir, wait
# for /readyz to answer 200 (the default tenant has opened), require
# the short /v1/infer alias and /v1/t/default/infer to serve identical
# bytes, apply one delta (a leave of the first served membership), then
# SIGTERM it and require a clean exit (status 0) that left a final
# snapshot in the default tenant's directory. Needs curl and jq.
SERVE_SMOKE_ADDR ?= 127.0.0.1:18090
serve-smoke:
	tmp=$$(mktemp -d); pid=; \
	trap 'if [ -n "$$pid" ]; then kill $$pid 2>/dev/null; fi; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/rpi-serve ./cmd/rpi-serve; \
	$$tmp/rpi-serve -addr $(SERVE_SMOKE_ADDR) -data-dir $$tmp/data & pid=$$!; \
	base=http://$(SERVE_SMOKE_ADDR); \
	for i in $$(seq 1 240); do \
		if [ "$$(curl -s -o /dev/null -w '%{http_code}' $$base/readyz)" = 200 ]; then break; fi; \
		kill -0 $$pid || { echo "serve-smoke: rpi-serve exited before ready"; exit 1; }; \
		sleep 0.5; \
	done; \
	curl -sf $$base/readyz; \
	curl -sf -o $$tmp/alias.json $$base/v1/infer; \
	curl -sf -o $$tmp/tenant.json $$base/v1/t/default/infer; \
	cmp $$tmp/alias.json $$tmp/tenant.json; \
	jq -c '{leaves: [.inferences[0] | {ixp, iface}]}' $$tmp/alias.json \
		| curl -sf -o /dev/null -X POST --data-binary @- $$base/v1/apply; \
	kill -TERM $$pid; status=0; wait $$pid || status=$$?; pid=; \
	[ $$status -eq 0 ] || { echo "serve-smoke: exit status $$status"; exit 1; }; \
	ls $$tmp/data/tenants/default/snap-* > /dev/null; \
	echo "serve-smoke: PASS ($$(wc -c < $$tmp/alias.json) identical bytes, clean shutdown, final snapshot)"

# The fault-injection matrix: kill the simulated machine at every
# filesystem operation across an engine lifetime and prove recovery
# lands on the acknowledged prefix with byte-identical reports, plus
# the torn-tail / interior-corruption / replay suites around it.
crash-matrix:
	$(GO) test -run 'TestCrashRecovery|TestTornTail|TestInteriorCorruption|TestOpenCloseReopen|TestOpenBaseMismatch|TestReplayToAnyIndex|TestBrokenPersistence|TestCheckpointRotates' ./pkg/rpi ./internal/wal ./internal/snapshot -count=1

# Full benchmark sweep (slow).
bench:
	$(GO) test -run '^$$' -bench . -benchmem

# One-iteration smoke of the headline benchmarks (CI): the pipeline,
# the substrate build, the engine apply path, the HTTP front end and
# the 1x scaling rung all execute once, so a benchmark that rots (or
# an API drift that only benchmarks exercise) fails the build instead
# of surfacing at the next snapshot. The heavy scaling rungs (4x+)
# stay out — they build multi-gigabyte worlds.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFullPipeline$$|BenchmarkContextBuild|BenchmarkColdFirstRun/1x|BenchmarkEngineApply/1x|BenchmarkServeHTTP|BenchmarkServeOverload|BenchmarkHostServe|BenchmarkScaleWorld/1x|BenchmarkRecovery/1x' -benchmem -benchtime=1x

# Compare a fresh run of the fast headline benchmarks against a
# committed baseline snapshot and fail on >20% ns/op regression
# (override: THRESHOLD=0.5; CI uses a loose threshold because runner
# hardware differs from the snapshot machine). The fresh run covers
# the same cheap set as bench-smoke, at 3 iterations to damp noise,
# plus the baseline and alias-coverage ablations, whose ACC%/COV%/FPR%
# rpi-benchdiff requires to equal the snapshot's exactly: a verdict
# moved by alias work fails the comparison.
BASE ?= BENCH_PR$(PR).json
THRESHOLD ?= 0.20
bench-compare:
	tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/rpi-benchsnap \
		-bench 'BenchmarkFullPipeline$$|BenchmarkContextBuild$$|BenchmarkEngineApply/1x|BenchmarkServeHTTP|BenchmarkScaleWorld/1x$$|BenchmarkScaleWorld/16x-worldfile|BenchmarkAblationBaselinePipeline$$|BenchmarkAblationAliasCoverageMode$$' \
		-benchtime 3x -o $$tmp; \
	$(GO) run ./cmd/rpi-benchdiff -base $(BASE) -new $$tmp -threshold $(THRESHOLD)

# The world-interchange rungs at the 16x scale: binary world-file load,
# cold-to-serving from the file, and the pipeline over the loaded
# world. The 16x .rpw is generated once into .benchcache (or
# $$RPI_WORLD_CACHE) and reused across runs — CI restores it from the
# actions cache so the rungs measure loading, not generation.
bench-worldfile:
	$(GO) test -run '^$$' -timeout 30m -bench 'BenchmarkScaleWorld/16x-worldfile' -benchmem -benchtime=1x

# Build and run every example binary once (the public-API canaries;
# CI runs this alongside the test jobs).
examples-smoke:
	$(GO) build ./examples/...
	set -e; for d in examples/*/; do echo "== $$d"; $(GO) run "./$$d" > /dev/null; done

# Snapshot the perf-critical benchmarks to BENCH_PR$(PR).json so
# future PRs have a trajectory to compare against. The scaling suite
# runs at one iteration (the 16x world alone costs tens of seconds).
# All go-test stages land in a temp file first and the snapshot is
# written only if every stage succeeded — a mid-run failure must not
# leave a plausible-looking partial snapshot behind (the -e shell
# aborts on the failing stage; the EXIT trap cleans the temp file up).
# The fleet SLO rows (per-tenant p50/p99/shed% from the rpi-bot load
# run) merge into the same file last.
bench-snapshot:
	tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -run '^$$' -timeout 30m -bench 'BenchmarkFullPipeline$$|BenchmarkFullPipelineCold|BenchmarkContextBuild|BenchmarkAblation|BenchmarkAllArtefacts|BenchmarkParallelPingCampaign|BenchmarkEngineApply|BenchmarkServeHTTP|BenchmarkServeOverload|BenchmarkHostServe' \
		-benchmem -benchtime=3x > $$tmp; \
	$(GO) test -run '^$$' -timeout 120m -bench 'BenchmarkScaleWorld|BenchmarkRecovery' -benchmem -benchtime=1x >> $$tmp; \
	$(GO) run ./cmd/rpi-benchsnap -o BENCH_PR$(PR).json < $$tmp; \
	$(GO) run ./cmd/rpi-bot -tenants 4 -duration 5s -o BENCH_PR$(PR).json -merge
