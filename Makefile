GO ?= go

.PHONY: check build vet staticcheck test race perfbench-test smoke bench-trace bench-analyze bench-scale bench-scale-quick bench-chaos bench-chaos-quick bench-reliability bench-reliability-quick profile profile-quick perf-gate fuzz-smoke clean

# The full gate: what CI (and the tier-1 driver) should run.
check: vet staticcheck build race perfbench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck is optional tooling: run it when present, skip (loudly) when
# the box doesn't have it. CI installs it explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Self-test of the repo benchmark. perfbench is a nested module, so the
# root ./... patterns above neither build nor test it.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Quick -race pass over the two execution models only: the discrete-event
# engine (sim) and the message layer (phys) are where data races would live.
smoke:
	$(GO) test -race -count=1 ./internal/sim/ ./internal/phys/

# Regenerate the tracing-overhead baseline in results/.
bench-trace:
	$(GO) run ./cmd/tracebench -out results/BENCH_trace_overhead.json

# Benchmark the tracectl analysis pipeline (Scanner -> Analysis) on a
# synthetic trace and pin the throughput baseline in results/.
bench-analyze:
	$(GO) run ./cmd/tracectl bench -events 500000 -nodes 256 -reps 5 -out results/BENCH_tracectl.json

# Scale bench for the sharded parallel round executor: parallel vs the
# Workers=1 schedule at n in {10k, 100k} on regular graphs, with an
# equal-final-graph cross-check. Writes results/BENCH_scale.json.
bench-scale:
	$(GO) run ./cmd/ssrsim -mode scale -sizes 10000,100000 -out results/BENCH_scale.json

# CI smoke variant: small size, tight round caps, throwaway output.
bench-scale-quick:
	$(GO) run ./cmd/ssrsim -mode scale -quick -sizes 4000 -workers 2 -out /tmp/BENCH_scale_quick.json

# Chaos suite: replay the committed fault scenarios (loss bursts,
# partition+heal, churn, jitter, corruption) over every registered
# bootstrap protocol with the online invariant checker attached. Exits
# non-zero on any invariant violation or missed reconvergence. Writes
# results/BENCH_chaos.json.
bench-chaos:
	$(GO) run ./cmd/ssrsim -mode chaos -n 24 -seed 1 -out results/BENCH_chaos.json

# CI smoke variant: smaller network, one scenario per fault family.
bench-chaos-quick:
	$(GO) run ./cmd/ssrsim -mode chaos -quick -n 16 -seed 1 -out /tmp/BENCH_chaos_quick.json

# Reliability sweep: cold-start bootstrap under sustained loss (0/5/15/30%)
# over every protocol on both the raw network and the reliable-delivery
# sublayer. Exits non-zero unless every reliable-transport run converges
# with zero invariant violations. Writes results/BENCH_reliability.json.
bench-reliability:
	$(GO) run ./cmd/ssrsim -mode reliability -n 24 -seed 1 -out results/BENCH_reliability.json

# CI smoke variant: n=256 at 15% loss, reliable arm only — the cold-start
# convergence claim at scale, without the raw control arms.
bench-reliability-quick:
	$(GO) run ./cmd/ssrsim -mode reliability -quick -n 256 -seed 1 -out /tmp/BENCH_reliability_quick.json

# Per-phase profiler over every linearization variant at n=10k: span
# instrumentation into results/BENCH_profile.json plus CPU/heap pprof
# bundles into results/prof/. `tracectl perf` consumes the -trace output.
profile:
	$(GO) run ./cmd/ssrsim -mode profile -n 10000 -seed 1 -out results/BENCH_profile.json

# CI smoke variant: tight round caps, fixed worker count, no pprof capture.
# These flags must match the committed baseline's meta header exactly, or
# perf-gate's compare refuses the diff.
profile-quick:
	$(GO) run ./cmd/ssrsim -mode profile -quick -n 10000 -workers 2 -seed 1 -out /tmp/BENCH_profile_quick.json

# The perf-regression gate: rerun the quick profile and diff the
# machine-independent fields (rounds, interior/boundary activation split,
# convergence) against the committed baseline. Fails on any gated drift,
# and on a gated field present in only one of the two files.
perf-gate: profile-quick
	$(GO) run ./cmd/tracectl bench compare results/BENCH_profile_quick.json /tmp/BENCH_profile_quick.json

# Short native-fuzz pass over the frame-decoding and linearize-step
# targets (one -fuzz run per target; Go allows a single fuzz target per
# invocation). The committed corpora under testdata/fuzz replay in plain
# `go test` as well.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzFramePayloadDecoding -fuzztime=10s ./internal/ssr/
	$(GO) test -run=^$$ -fuzz=FuzzRouteOps -fuzztime=10s ./internal/sroute/
	$(GO) test -run=^$$ -fuzz=FuzzLinearizeStep -fuzztime=10s ./internal/linearize/
	$(GO) test -run=^$$ -fuzz=FuzzRelFrameDecoding -fuzztime=10s ./internal/rel/

clean:
	$(GO) clean ./...
