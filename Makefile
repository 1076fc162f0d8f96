# Tier-1 verification for the dnsbackscatter reproduction.
#
#   make verify      # everything below, in order — the pre-merge gate
#   make lint        # just the project static-analysis suite (bslint)
#   make race        # race detector on the concurrent packages (slow:
#                    # internal/report rebuilds datasets under -race)
#
# `go build ./... && go test ./...` remains the quick inner loop; verify
# adds formatting, go vet, bslint, and the race pass on the packages that
# actually share state across goroutines.

GO ?= go
RACE_PKGS = ./internal/cache ./internal/dnsserver ./internal/obs ./internal/report \
	./internal/parallel ./internal/features ./internal/ml ./internal/classify \
	./internal/stream ./internal/alert

.PHONY: verify fmt vet lint build test race bench bench-check budget prof-artifacts docs determinism chaos fuzz cover tracecheck trace-artifacts soak examples

verify: fmt vet lint build test race fuzz tracecheck budget docs
	@echo "verify: all checks passed"

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/bslint ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order each run, flushing out
# inter-test state dependence; failures print the shuffle seed to replay.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Per-package coverage with a floor: writes the merged profile to
# coverage.out (the CI job publishes it as an artifact) and fails if any
# tested package drops below the floor. Untested packages (cmd mains,
# examples) are exempt — the build exercises them. internal/lint holds a
# higher floor: the linters gate every other invariant, so their own
# coverage must not rot. cmd/bsserve holds a lower one: its handler
# mux is fully tested, but main() is an operational UDP/signal loop no
# unit test can drive.
cover:
	$(GO) test -coverprofile=coverage.out ./... > cover-packages.txt \
		|| { cat cover-packages.txt; rm -f cover-packages.txt; exit 1; }
	$(GO) run ./cmd/covercheck -floor 80 \
		-pkgfloor dnsbackscatter/internal/lint=85 \
		-pkgfloor dnsbackscatter/internal/prof=85 \
		-pkgfloor dnsbackscatter/internal/stream=85 \
		-pkgfloor dnsbackscatter/internal/hhh=85 \
		-pkgfloor dnsbackscatter/internal/hll=90 \
		-pkgfloor dnsbackscatter/internal/alert=85 \
		-pkgfloor dnsbackscatter/cmd/bsserve=35 < cover-packages.txt
	@rm -f cover-packages.txt

# Short fuzz smoke on every parser of outside input — the wire codec,
# log lines, alert rule files, fault specs, pprof profiles — and on the
# streaming engine: ten seconds per target. Crashers land in the
# package's testdata/fuzz/ and from then on run as plain regression
# tests on every `go test`.
fuzz:
	$(GO) test ./internal/dnswire -run '^$$' -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/dnswire -run '^$$' -fuzz FuzzRoundTrip -fuzztime 10s
	$(GO) test ./internal/stream -run '^$$' -fuzz FuzzStreamIngest -fuzztime 10s
	$(GO) test ./internal/dnslog -run '^$$' -fuzz FuzzParseRecord -fuzztime 10s
	$(GO) test ./internal/alert -run '^$$' -fuzz FuzzAlertParse -fuzztime 10s
	$(GO) test ./internal/faults -run '^$$' -fuzz FuzzFaultsParse -fuzztime 10s
	$(GO) test ./internal/prof -run '^$$' -fuzz FuzzParseProfile -fuzztime 10s

# Run every example program end to end (the build only compiles them).
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
	done

# Streaming-engine soak: ~700k records across 12 epochs at >10x the
# engine's originator capacity, asserting the resource contract (hard
# state bound, plateaued heap peaks, zero goroutine leaks, verdicts at
# every tick). SOAK_DIR collects the per-epoch resource report, final
# snapshot, and windowed series — the CI soak job uploads them.
soak:
	BS_SOAK=1 $(GO) test ./internal/stream -run TestStreamSoak -count=1 -v

# Docs lint: exported-API doc comments (bslint apidoc) and Markdown
# relative-link integrity (cmd/mdlint).
docs:
	$(GO) run ./cmd/bslint -determinism=false -locksafe=false -errcheck=false ./...
	$(GO) run ./cmd/mdlint

# End-to-end worker-count determinism under the race detector — the
# CI job runs this with GOMAXPROCS=2 so parallel paths really interleave.
# TestScratchReuseInvariance extends the matrix with the PR 8 contract:
# disabling every scratch-reuse/pooling optimization (DatasetSpec.NoReuse)
# changes no output byte. TestStreamWorkerDeterminism extends it to the
# PR 9 streaming engine: byte-identical snapshots, status, and replay
# comparisons at workers {1, 8}. TestAlertDeterminism extends it to the
# PR 10 alert engine: byte-identical transition logs with a full
# pending -> firing -> resolved cycle under servfail-storm.
determinism:
	$(GO) test -race -run 'TestSeedMatrixDeterminism|TestScratchReuseInvariance|TestStreamWorkerDeterminism|TestAlertDeterminism' -v .

# Chaos seed matrix: the full pipeline under deterministic fault
# profiles (none / lossy / servfail-storm) × seeds × worker counts,
# byte-comparing snapshots and classification reports. The CI job runs
# this under -race with GOMAXPROCS=2. TestChaosTraceDeterminism extends
# the matrix to the PR 5 artifacts: trace JSONL and windowed series.
chaos:
	$(GO) test -race -run 'TestChaos' -v .

# Trace determinism: byte-identical trace JSONL and windowed time-series
# snapshots at workers {1, 2, 8} under fault injection. Part of verify;
# the chaos job re-runs it under -race.
tracecheck:
	$(GO) test -run TestChaosTraceDeterminism -count=1 .

# Reference tracing artifacts: a small faulted reproduction run whose
# end-to-end traces, windowed time series, and alert transition log CI
# uploads from the chaos job. Render the traces with `go run
# ./cmd/bstrace -in traces.jsonl`; replay the alerts with `go run
# ./cmd/bswatch -timeseries timeseries.json -traces traces.jsonl`.
trace-artifacts:
	$(GO) run ./cmd/bsrepro -scale 0.08 -experiment figure3 -faults lossy@7 \
		-trace traces.jsonl -trace-sample 8 \
		-timeseries timeseries.json -window 2h \
		-alerts alerts.jsonl > /dev/null

# Benchmark trajectory: run the paper-reproduction benchmark suite once
# per benchmark and record name/ns/op/B/op/allocs into BENCH_PR8.json so
# later PRs can diff performance against the checked-in BENCH_PR3/PR4/PR5
# baselines. BS_SCALE tunes dataset size as usual; the BenchmarkParallel*
# entries compare worker counts 1 and 8, and BenchmarkTraceOverhead
# records the off/sampled/full tracing cost on the resolver hot path
# (the disabled path must stay within noise of the PR 4 baseline).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . | $(GO) run ./cmd/bsbench -o BENCH_PR8.json

# Benchmark regression gate: run the suite once, then apply both gates to
# the same output — the trajectory diff (bsbench -against latest, which
# resolves to the newest checked-in BENCH_*.json; 15% alloc / 100% time
# tolerance) and the absolute allocation budgets (bsprof -check against
# alloc.budgets). The run is saved to a temp file so one bench pass feeds
# both gates. `make bench` regenerates the reference after a deliberate
# perf change, and the latest-resolution retargets this gate on its own.
bench-check:
	@tmp=$$(mktemp); \
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . > $$tmp || { cat $$tmp; rm -f $$tmp; exit 1; }; \
	$(GO) run ./cmd/bsbench -against latest < $$tmp || { rm -f $$tmp; exit 1; }; \
	$(GO) run ./cmd/bsprof -check -budgets alloc.budgets -bench $$tmp || { rm -f $$tmp; exit 1; }; \
	rm -f $$tmp

# Fast allocation-budget gate, part of verify: the BenchmarkParallel*
# suite (seconds, and it covers the pipeline's hot fan-out paths) plus
# BenchmarkProfOverhead, whose off case pins the zero-cost-when-disabled
# accounting contract. Budgets for the rest of the suite are enforced by
# bench-check / CI; budgeted benchmarks outside the subset are logged as
# skipped.
budget:
	$(GO) test -run '^$$' -bench 'BenchmarkParallel|BenchmarkProfOverhead' -benchmem -benchtime 1x . | \
		$(GO) run ./cmd/bsprof -check -budgets alloc.budgets

# Resource-observatory artifacts for CI: a scaled reproduction run's
# per-stage resource report (ops channel, scheduling-dependent) plus
# heap and CPU profiles from the benchmark suite, for bsprof to inspect.
prof-artifacts:
	$(GO) run ./cmd/bsrepro -scale 0.08 -experiment figure3 -resources resources.json > /dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkParallelExtract' -benchmem -benchtime 1x \
		-memprofile heap.pprof -cpuprofile cpu.pprof . > /dev/null
	$(GO) run ./cmd/bsprof -report resources.json
	$(GO) run ./cmd/bsprof -heap heap.pprof -paths -top 3
