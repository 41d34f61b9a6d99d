GO ?= go

# staticcheck version `make lint` and CI both use, so local and CI lint agree.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: build test test-short test-race vet lint install-staticcheck check audit chaos bench bench-engine bench-smoke bench-profile bench-history bench-golden test-backends test-backends-short golden golden-update clean

build:
	$(GO) build ./...

# Full suite, including the per-workload simulations and the idle-skip
# bit-identity differential (several minutes).
test:
	$(GO) test ./...

# Unit tests only: skips the full-simulation tests.
test-short:
	$(GO) test -short ./...

# Race detector over the short suite (covers the parallel sweep runner).
test-race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# Style gate: gofmt cleanliness, go vet, and staticcheck when it is on PATH
# (CI installs it; locally the target degrades gracefully).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (make install-staticcheck)"; \
	fi

# Install the pinned staticcheck (the version CI runs) into GOBIN.
install-staticcheck:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# Pre-PR gate: build everything, vet, run the short suite, then the race
# detector over the packages with concurrent test harnesses. Run this (plus
# `make audit` when the memory system or protocol changed) before sending
# a change out.
check: build vet test-short test-backends-short
	$(GO) test -race -short -timeout 20m ./internal/sim ./internal/noc ./internal/timing ./internal/experiments

# Invariant audit: every Table 1 workload under baseline, naive-NDP, and
# dynamic-NDP with all runtime invariant checkers enabled (internal/audit),
# cross-checked bit-for-bit against the reference interpreter. Also exposed
# as `ndpsim -audit`.
audit:
	$(GO) test ./internal/sim -run Audit -v

# Chaos differential suite: every Table 1 workload under every pinned fault
# schedule (killed link, failed NSU, frozen vault, lossy mesh) plus seeded
# random schedules, all three modes, memory cross-checked bit-for-bit against
# the fault-free reference interpreter. The schedules and seeds are pinned in
# internal/sim/chaos.go, so the matrix is fully deterministic. The default
# `make test` runs a representative subset; this is the exhaustive matrix.
chaos:
	NDPGPU_CHAOS_FULL=1 $(GO) test ./internal/sim -run 'Chaos|FaultNoOp' -timeout 45m -v

# Macro benchmark: one full VADD simulation per iteration (see BENCH_pr1.json
# for the recorded before/after numbers).
bench:
	$(GO) test -run '^$$' -bench BenchmarkSingleRunVADD -benchmem -benchtime 5x .

# Micro benchmark: engine edge dispatch, idle skipping on/off.
bench-engine:
	$(GO) test -run '^$$' -bench BenchmarkEngineIdleSkip -benchmem ./internal/timing

# Architecture-backend suite: the placement/translation policy unit tests plus
# the oracle-differential and memory-invariance legs for every non-default
# backend (coda, coda-ft, ndpage). The short form runs the VADD subset; CI's
# backends job runs the full matrix.
test-backends:
	$(GO) test -v ./internal/backend
	$(GO) test -run '^TestBackend' -timeout 30m -v ./internal/sim

test-backends-short:
	$(GO) test -short ./internal/backend
	$(GO) test -short -run '^TestBackend' -timeout 10m ./internal/sim

# Golden-digest regression gate: recompute the per-workload x mode statistic
# digests (deterministic) and diff them against the committed file. Any drift
# is a behavior change — either a bug or an intended change that needs
# `make golden-update` plus a PR note explaining the new numbers.
golden:
	$(GO) run ./cmd/ndpreport golden -out /tmp/ndpgpu_golden.json
	$(GO) run ./cmd/ndpreport diff testdata/golden_digests.json /tmp/ndpgpu_golden.json

# Refresh the committed golden digests after an intended behavior change.
golden-update:
	$(GO) run ./cmd/ndpreport golden -out testdata/golden_digests.json
	@echo "testdata/golden_digests.json refreshed; commit it with an explanation."

# One-iteration benchmark smoke with the ±25% wall-clock gate and the +10%
# allocs/op gate against the recorded reference (fails only on regressions; a
# faster host just warns). On a host whose fingerprint differs from the
# reference the wall-clock gate is report-only — see `ndpreport benchgate`.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSingleRunVADD$$' -benchmem -benchtime 1x . | tee bench_smoke.txt
	$(GO) run ./cmd/ndpreport benchgate -bench bench_smoke.txt -ref BENCH_pr9.json

# CPU + allocation profiles of the macro benchmark, for chasing wake-wheel
# and allocator regressions. View with `go tool pprof bench_cpu.pprof`.
bench-profile:
	$(GO) test -run '^$$' -bench 'BenchmarkSingleRunVADD$$' -benchmem -benchtime 3x \
		-cpuprofile bench_cpu.pprof -memprofile bench_mem.pprof .
	@echo "wrote bench_cpu.pprof bench_mem.pprof (go tool pprof <file>)"

# Simulator benchmark on the Table 2 machine (simbench/, its own module): the
# benchmark's own tests, then one short untraced run of each workload at
# placement 42. run.sh exits 1 on any verify failure or any digest that
# differs from simbench/golden_table2.json, so this is the golden gate for
# the 64-SM legs, where the credit-retry path runs millions of times.
bench-golden:
	cd simbench && $(GO) test ./...
	bash simbench/run.sh --workload baseline-suite --seed 42 --seconds 1 --trace 0
	bash simbench/run.sh --workload dyn-mixed --seed 42 --seconds 1 --trace 0

# Trend table across every recorded BENCH_*.json.
bench-history:
	$(GO) run ./cmd/ndpreport bench-history

clean:
	$(GO) clean ./...
