# Standard local CI gate: `make ci` is what a change must pass before it
# lands. Individual stages are exposed for faster iteration.

GO ?= go

# Tier-1 performance benches: the headline simulation-kernel numbers.
# (-bench patterns are slash-separated: the second element selects the
# workers=1 sub-benchmark of the Figure 6 sweep.)
TIER1_BENCH = BenchmarkEndToEndSimulation$$|BenchmarkConfigOptimizer$$|BenchmarkFigure6Sweep$$/workers=1$$

# ns/op baselines are machine-specific. The committed BENCH_baseline.json
# is the reference box's; on other hardware snapshot your own once
# (`make bench-baseline BENCH_BASELINE=BENCH_baseline.local.json`) and gate
# against it.
BENCH_BASELINE ?= BENCH_baseline.json

.PHONY: ci build vet lint test race race-engine race-reconfig race-market race-serve chaos fuzz bench figures bench-baseline bench-check bench-record cover cover-floor examples daemon-smoke

ci: build vet lint race-engine race-reconfig race-market race-serve chaos race examples daemon-smoke cover bench-check

# Smoke gate: every example must build and run to completion (stdout is
# discarded; a non-zero exit or panic fails the gate). examples/daemon is
# gated separately by daemon-smoke, which checks its output contracts.
EXAMPLES = quickstart spotmarket autoscale faulttolerance scenarios
examples:
	$(GO) build ./examples/...
	@for ex in $(EXAMPLES); do \
		echo "go run ./examples/$$ex"; \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism lint: detlint statically enforces the byte-identity
# contract (no order-sensitive map iteration, wall-clock reads or
# non-canonical float formatting in the kernel packages; no global rand
# anywhere in internal/). Exits non-zero on any unsuppressed finding;
# suppressions require `//detlint:allow <analyzer> — <reason>`. See
# docs/ANALYSIS.md. Also usable as `go vet -vettool`:
#   go build -o /tmp/detlint ./cmd/detlint && go vet -vettool=/tmp/detlint ./...
lint:
	$(GO) run ./cmd/detlint ./...

test:
	$(GO) test ./...

# The experiments package hosts the parallel sweep worker pool; the full
# suite under -race is the concurrency gate.
race:
	$(GO) test -race ./...

# Focused race gate on the decode hot path: the span-commit engine and the
# simulation kernel own the pooled state (span scratch buffers, event slabs,
# free lists) that the sweep pool runs on every worker — fast to iterate on
# when touching either.
race-engine:
	$(GO) test -race ./internal/engine/ ./internal/sim/

# Focused race gate on the reconfiguration pipeline and the control plane
# that drives it: the per-server memos and the process-wide shared cost
# profile are exercised concurrently by the sweep pool, so these two
# packages get an explicit first-class -race run (fast to iterate on).
race-reconfig:
	$(GO) test -race ./internal/reconfig/ ./internal/core/

# Focused race gate on the spot-market subsystem: price processes and the
# scenario axes that regenerate per-replica markets/traces inside the
# parallel sweep pool.
race-market:
	$(GO) test -race ./internal/market/ ./internal/scenario/

# Focused race gate on the serving daemon: many HTTP clients share one
# warm process (job registry, cell cache, stream fan-out), so the package
# gets a first-class -race run.
race-serve:
	$(GO) test -race ./internal/serve/

# Chaos gate: the fault-injection suite. The harness itself (schedule
# determinism) and the daemon's degraded paths run under -race — fault
# isolation is concurrency machinery — plus the focused fault-tolerance
# tests in the sweep pool (isolation, retry, cancellation: TestIsolated*,
# Test*Retry*, TestRetries*) and the grid layer (error rows:
# TestGridSweepTolerant*). A -run pattern that matches nothing passes
# silently, so check it with `go test -list` after renaming those tests.
chaos:
	$(GO) test -race ./internal/faults/ ./internal/serve/
	$(GO) test -race -run 'Isolated|Retry|Retries|Tolerant' ./internal/experiments/ ./internal/scenario/

# Daemon smoke gate: start spotserved's engine, submit a small grid over
# HTTP, assert the streamed NDJSON rows fingerprint-match the equivalent
# CLI run, assert a resubmit is served entirely from the cell cache, and
# shut down cleanly. Any violation exits non-zero.
daemon-smoke:
	$(GO) run ./examples/daemon > /dev/null

# Short fuzz pass over the JSON wire formats (CI smoke; run longer locally
# with -fuzztime=5m when touching a parser). Seed corpora live under each
# package's testdata/fuzz/<FuzzName>/ and run as plain tests in `make test`.
fuzz:
	$(GO) test -fuzz=FuzzParseTrace$$ -fuzztime=15s ./internal/trace/
	$(GO) test -fuzz=FuzzParseTraceEvents -fuzztime=15s ./internal/trace/
	$(GO) test -fuzz=FuzzParseObservedTrace -fuzztime=15s ./internal/calibrate/
	$(GO) test -fuzz=FuzzParseJobSpec -fuzztime=15s ./internal/scenario/

# Coverage gate: per-package statement coverage must not drop below the
# committed floors in COVER_floor.json (calibrate/scenario/serve). The test
# run lands in a temp file first so a failing test fails the target instead
# of vanishing down an unchecked pipe.
cover:
	$(GO) test -cover ./... > cover-out.tmp \
		|| { cat cover-out.tmp; rm -f cover-out.tmp; exit 1; }
	$(GO) run ./cmd/covercheck -check -floor COVER_floor.json < cover-out.tmp; \
		st=$$?; rm -f cover-out.tmp; exit $$st

# Re-record the coverage floors after deliberately moving coverage.
cover-floor:
	$(GO) test -cover ./... > cover-out.tmp \
		|| { cat cover-out.tmp; rm -f cover-out.tmp; exit 1; }
	$(GO) run ./cmd/covercheck -write -floor COVER_floor.json < cover-out.tmp; \
		st=$$?; rm -f cover-out.tmp; exit $$st

# Replay the paper's full evaluation as benchmarks.
bench:
	$(GO) test -bench=. -benchmem .

# Snapshot the tier-1 benches to $(BENCH_BASELINE) (min ns/op of 3 runs).
# Re-run on the reference machine after deliberate performance changes.
# The bench run lands in a temp file first so a failing/panicking benchmark
# fails the target instead of vanishing down an unchecked pipe.
bench-baseline:
	$(GO) test -run='^$$' -bench='$(TIER1_BENCH)' -benchmem -count=3 . > bench-out.tmp \
		|| { cat bench-out.tmp; rm -f bench-out.tmp; exit 1; }
	$(GO) run ./cmd/benchcheck -write -baseline $(BENCH_BASELINE) < bench-out.tmp; \
		st=$$?; rm -f bench-out.tmp; exit $$st

# Gate: BenchmarkEndToEndSimulation may not regress >10% in ns/op OR
# allocs/op vs the baseline (other tier-1 benches are reported, not gated).
# Allocations gate alongside time so pooling wins cannot quietly erode.
bench-check:
	$(GO) test -run='^$$' -bench='$(TIER1_BENCH)' -benchmem -count=3 . > bench-out.tmp \
		|| { cat bench-out.tmp; rm -f bench-out.tmp; exit 1; }
	$(GO) run ./cmd/benchcheck -check -baseline $(BENCH_BASELINE) -max-regress 0.10 < bench-out.tmp; \
		st=$$?; rm -f bench-out.tmp; exit $$st

# Record the current tier-1 numbers as one labeled point in the committed
# performance trajectory (separate from the gating baseline, so a record
# never moves the regression gate). Re-recording a label replaces its entry.
#   make bench-record BENCH_LABEL="PR 9" BENCH_COMMENT="what changed"
BENCH_LABEL ?=
BENCH_COMMENT ?=
bench-record:
	@test -n '$(BENCH_LABEL)' || { echo 'bench-record: set BENCH_LABEL="PR N"'; exit 2; }
	$(GO) test -run='^$$' -bench='$(TIER1_BENCH)' -benchmem -count=3 . > bench-out.tmp \
		|| { cat bench-out.tmp; rm -f bench-out.tmp; exit 1; }
	$(GO) run ./cmd/benchcheck -record -trajectory BENCH_trajectory.json \
		-label '$(BENCH_LABEL)' -comment '$(BENCH_COMMENT)' < bench-out.tmp; \
		st=$$?; rm -f bench-out.tmp; exit $$st

# Regenerate every table and figure on all cores.
figures:
	$(GO) run ./cmd/experiments -parallel 0 -seeds 1
