# Convenience targets for the dxbar reproduction.

GO ?= go

# Every example program, derived from the directory listing so adding an
# example never requires touching this file.
EXAMPLES := $(notdir $(wildcard examples/*))

.PHONY: all build test test-race race lint bench bench-smoke bench-trend figures figures-full examples examples-smoke telemetry-smoke dashboard-smoke diag-smoke checkpoint-smoke determinism clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test: test-race examples-smoke
	$(GO) vet ./...
	$(GO) test ./...

# Race-detector pass over the packages plus the concurrent paths of the root
# package: the RunMany batch runner, the sharded cycle engine and the
# fast-vs-reference arbitration identity suite (which drives every design's
# bit-parallel core against its branchy oracle, sharded runs included).
test-race:
	$(GO) test -race ./internal/...
	$(GO) test -race -run 'TestRunMany|TestShard|TestArbitrationBitIdentity' .

race:
	$(GO) test -race ./...

# Static analysis beyond go vet. staticcheck is not vendored; install it with
#   go install honnef.co/go/tools/cmd/staticcheck@latest
# shellcheck covers the smoke scripts. Both skip gracefully where missing
# (offline containers) — CI installs and enforces them.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v shellcheck >/dev/null 2>&1; then \
		shellcheck scripts/*.sh; \
	else \
		echo "lint: shellcheck not installed, skipping (apt install shellcheck)"; \
	fi

# Every paper table/figure plus the ablation and extension harnesses.
bench:
	$(GO) test -bench=. -benchmem

# One quick pass of the per-design cycle-engine benchmarks; emits
# bench/BENCH_<date>.json and compares against the newest earlier baseline.
# The bitarb micro-benchmarks (bit-parallel arbitration kernels vs their
# branchy references) run alongside and land in bench/BITARB_bench.txt so CI
# can archive kernel-level numbers next to the whole-engine ones; the routing
# micro-benchmarks (per-query routing-table cost at 8x8 and 64x64) land in
# bench/ROUTING_bench.txt.
bench-smoke:
	$(GO) run ./cmd/dxbar-bench -quick -out bench -suffix _ci
	$(GO) test -run '^$$' -bench . -benchmem ./internal/bitarb | tee bench/BITARB_bench.txt
	$(GO) test -run '^$$' -bench . -benchmem ./internal/routing | tee bench/ROUTING_bench.txt

# Chronological trend tables over the committed bench history: every
# BENCH_*.json and SCALE_*.json under bench/, date-sorted, as markdown on
# stdout. CI runs it after bench-smoke and uploads the report next to the
# records.
bench-trend:
	$(GO) run ./cmd/dxbar-report -trend bench

# Regenerate every figure as CSV + SVG + Markdown under results/.
figures:
	$(GO) run ./cmd/dxbar-sweep -fig all -quality quick -out results -svg -md

figures-full:
	$(GO) run ./cmd/dxbar-sweep -fig all -quality full -out results -svg -md

examples:
	for e in $(EXAMPLES); do \
		echo "=== $$e ==="; $(GO) run ./examples/$$e || exit 1; \
	done

# Build and run every example with DXBAR_SMOKE=1, which caps the open-loop
# windows (warmup <= 200, measure <= 800 cycles) so the whole suite finishes
# in seconds — a compile+runtime regression gate, not a demo.
examples-smoke:
	for e in $(EXAMPLES); do \
		echo "=== $$e (smoke) ==="; DXBAR_SMOKE=1 $(GO) run ./examples/$$e > /dev/null || exit 1; \
	done
	rm -f flightrecorder_trace.json

# Launch a sharded dxbar-sim with -http and assert /healthz and /metrics
# serve the expected series while the simulation runs (needs curl).
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# Run-ledger + live-dashboard smoke: a short run must archive its Result
# under its content key (and a -ledger-reuse re-run must be served from the
# archive), then a live run with -http must serve the dashboard page at /
# and stream SSE frames from /events (needs curl).
dashboard-smoke:
	sh scripts/dashboard_smoke.sh

# Force an anomaly on a saturated run and SIGQUIT a live one; assert both
# leave complete post-mortem bundles under diag-artifacts/.
diag-smoke:
	sh scripts/diag_smoke.sh diag-artifacts

# Crash-recovery drill: kill -9 a checkpointed dxbar-sim mid-flight, resume
# from the newest surviving checkpoint and assert the resumed run's metrics
# match an uninterrupted reference exactly.
checkpoint-smoke:
	sh scripts/checkpoint_smoke.sh

# The checkpoint/replay determinism suite under the race detector: resume
# bit-identity across designs, seeds and both engine backends, snapshot
# round-trip byte stability, corrupt-input robustness, rewind renormalization
# and the committed golden checkpoint (cross-version format stability).
determinism:
	$(GO) test -race -count=1 -run 'TestCheckpoint|TestSnapshot|TestGolden|TestRewind|TestRestoreEngine' .
	$(GO) test -race -count=1 ./internal/snapshot/

clean:
	rm -rf results flightrecorder_trace.json diag-artifacts
