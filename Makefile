GO ?= go

# Per-target budget for `make fuzz` — short on purpose: CI runs it on
# every push, the committed seed corpora under testdata/fuzz/ double as
# plain regression tests, and longer exploratory runs are a local
# `FUZZTIME=10m make fuzz` away.
FUZZTIME ?= 10s

# External analysis tools are pinned in tools/tools.go (the single
# source of truth) and invoked module-free via `go run pkg@version`.
STATICCHECK_VERSION := $(shell sed -n 's/.*StaticcheckVersion = "\(.*\)".*/\1/p' tools/tools.go)
GOVULNCHECK_VERSION := $(shell sed -n 's/.*GovulncheckVersion = "\(.*\)".*/\1/p' tools/tools.go)

# `go run pkg@version` asks the module proxy for any module it has not
# cached, so a pinned tool is probed only in CI (GitHub Actions sets $CI)
# or when its module zip is already in the local module cache; otherwise
# lint and vulncheck print their "unavailable" line without touching the
# network. Expanded only when a recipe uses them.
TOOL_CACHE = $(shell $(GO) env GOMODCACHE)/cache/download
STATICCHECK_CACHED = $(wildcard $(TOOL_CACHE)/honnef.co/go/tools/@v/$(STATICCHECK_VERSION).zip)
GOVULNCHECK_CACHED = $(wildcard $(TOOL_CACHE)/golang.org/x/vuln/@v/$(GOVULNCHECK_VERSION).zip)

.PHONY: all build test test-full race check-ci-tests bench-smoke bench-json bench-ingest bench-merge vet lint ldpload-vet vulncheck fuzz audit ci

all: build test

build:
	$(GO) build ./...

# Tier-1: everything must build and every test must pass. -short skips
# the end-to-end example runs; `make test-full` includes them.
test: build
	$(GO) test -short ./...

test-full: build
	$(GO) test ./...

# Race-detector suite for the concurrent aggregation engine, the
# epoch-streamed pipeline built on it, the persistence layer (WAL
# appends race seals/snapshots), the trial runner, and the HTTP serving
# layer — single-node and cluster (epoch sealing under concurrent
# ingest lives in internal/ldp and internal/stream; the tally merge
# barrier and the cluster e2e live in internal/stream and
# cmd/ldprecover).
race:
	$(GO) test -race ./internal/ldp/... ./internal/stream/... ./internal/persist/... ./internal/experiment/... ./cmd/ldprecover/...

# Every name in a focused CI step's -run list must still match a test in
# that step's packages: `go test -run` silently matches nothing once a
# test is deleted or renamed, which would turn the step into a no-op.
check-ci-tests:
	@grep -oE "go test -count=1 -run '[^']+'[^|&]*" .github/workflows/ci.yml | while read -r line; do \
		names=$$(echo "$$line" | sed -E "s/.*-run '([^']+)'.*/\1/" | tr '|' ' '); \
		pkgs=$$(echo "$$line" | sed -E "s/.*-run '[^']+'//"); \
		listed=$$($(GO) test -list . $$pkgs) || exit 1; \
		for name in $$names; do \
			echo "$$listed" | grep -qE -- "^$$name" || { echo "ci.yml: -run name $$name matches no test in$$pkgs"; exit 1; }; \
		done; \
	done

# Native Go fuzzing over every wire surface — report frames, batch
# frames, sealed-tally frames, and WAL segment recovery — plus the OLH
# sweep kernels, the z-score outlier scan and the KKT refinement against
# their one-at-a-time references, and the estimate body's float formatter
# and its repeat memo against encoding/json. Each target gets a short
# FUZZTIME budget (go's fuzzer accepts one target per invocation);
# corrupt input must error, never panic. Seed corpora are committed
# under testdata/fuzz/ and also run in plain `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalReport$$'      -fuzztime $(FUZZTIME) ./internal/ldp
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalReportBatch$$' -fuzztime $(FUZZTIME) ./internal/ldp
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalTally$$'       -fuzztime $(FUZZTIME) ./internal/ldp
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalPartial$$'     -fuzztime $(FUZZTIME) ./internal/ldp
	$(GO) test -run '^$$' -fuzz 'FuzzReportBatchFrame$$'     -fuzztime $(FUZZTIME) ./internal/ldp
	$(GO) test -run '^$$' -fuzz 'FuzzSweepOLH$$'             -fuzztime $(FUZZTIME) ./internal/ldp
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalAnnounce$$'    -fuzztime $(FUZZTIME) ./internal/ldp
	$(GO) test -run '^$$' -fuzz 'FuzzWALOpen$$'              -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz 'FuzzZScoreOutliersMinSD$$'  -fuzztime $(FUZZTIME) ./internal/detect
	$(GO) test -run '^$$' -fuzz 'FuzzRefineKKT$$'            -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzJSONFloat$$'            -fuzztime $(FUZZTIME) ./cmd/ldprecover
	$(GO) test -run '^$$' -fuzz 'FuzzEncodeFloatArray$$'     -fuzztime $(FUZZTIME) ./cmd/ldprecover

# One iteration of every benchmark: catches bit-rot in the paper figure
# generators and the ingest benchmarks without burning CI minutes.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Machine-readable perf baseline: run the bench suite once and emit
# BENCH_report.json (ns/op plus the recovery-quality metrics such as
# mse-after / fg-after), the artifact CI archives per commit so future
# changes can diff against a recorded trajectory. Staged through a temp
# file (not a pipe) so a failing benchmark fails the target.
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... > BENCH_output.tmp
	cat BENCH_output.tmp
	$(GO) run ./cmd/benchjson -o BENCH_report.json BENCH_output.tmp
	rm -f BENCH_output.tmp

# Tally-first ingest micro-suite: re-baselines the two durable ingest
# lanes (zero-copy report frame, partial-tally) plus the raw WAL append
# at a real benchtime, five samples each (benchjson keeps the median
# sample and records the spread), folds the rows into BENCH_report.json
# in place, and gates the run on the medians: the partial-tally lane must move at least 5x the
# MB/s of the zero-copy report lane, or the target (and CI) fails.
bench-ingest:
	$(GO) test -run '^$$' -bench 'BenchmarkDurableIngest|BenchmarkWALAppend' -benchtime 300ms -count 5 . > BENCH_ingest.tmp
	cat BENCH_ingest.tmp
	$(GO) run ./cmd/benchjson -merge BENCH_report.json -o BENCH_report.json \
		-gate-num 'BenchmarkDurableIngest/partial-tally' \
		-gate-den 'BenchmarkDurableIngest/zero-copy' \
		-gate-min 5 BENCH_ingest.tmp
	rm -f BENCH_ingest.tmp

# Merge-on-arrival micro-suite: re-baselines the per-tally accept cost
# (the pre-refactor clone + seal-time fold vs the single-pass fold into
# the epoch accumulator) and the root's barrier-seal latency across
# fan-ins, five samples each (median kept, spread recorded), folds the
# rows into BENCH_report.json in place, and gates the run on the medians: fold-on-arrival must move at least 2x the MB/s of clone+fold at
# d=65536, or the target (and CI) fails. RootSealLatency's flatness
# across nodes=4..64 is recorded for the report, eyeballed not gated —
# a ±10% band is too tight for shared CI runners to assert on.
bench-merge:
	$(GO) test -run '^$$' -bench 'BenchmarkMergeParallel' -benchtime 300ms -count 5 ./internal/ldp > BENCH_merge.tmp
	$(GO) test -run '^$$' -bench 'BenchmarkRootSealLatency' -benchtime 200ms -count 5 ./internal/stream >> BENCH_merge.tmp
	cat BENCH_merge.tmp
	$(GO) run ./cmd/benchjson -merge BENCH_report.json -o BENCH_report.json \
		-gate-num 'BenchmarkMergeParallel/d=65536/parallel' \
		-gate-den 'BenchmarkMergeParallel/d=65536/sequential' \
		-gate-min 2 BENCH_merge.tmp
	rm -f BENCH_merge.tmp

# Reports observed per neighboring input per audit cell — short on
# purpose, like FUZZTIME: the CI sweep certifies ~e^-0.03 of the true
# budget in seconds, and a tighter local certification is a
# `AUDIT_TRIALS=5000000 make audit` away.
AUDIT_TRIALS ?= 200000

# Empirical privacy + recovery audit (DESIGN.md §11): certify eps_emp
# for every protocol x client path x budget cell with exact
# Clopper-Pearson bounds, replay the streamed MGA grid, and fold the
# rows into BENCH_report.json next to the figure benchmarks. The gate
# lives in ldpaudit itself — it exits 1 if any cell certifies
# eps_emp > eps + slack or the recovery violation-rate bound exceeds its
# cap — so a privacy leak fails this target (and CI) before the merge
# runs.
audit:
	$(GO) run ./cmd/ldpaudit -mode all -protocol all -path all -eps 1,4 \
		-trials $(AUDIT_TRIALS) -bench > BENCH_audit.tmp
	cat BENCH_audit.tmp
	$(GO) run ./cmd/benchjson -merge BENCH_report.json -o BENCH_report.json BENCH_audit.tmp
	rm -f BENCH_audit.tmp

vet:
	$(GO) vet ./...

# The full static-analysis gate: go vet, go vet of the kernel packages
# for arm64 (so the portable !amd64 build of the OLH sweep keeps
# compiling; on amd64 vet's asmdecl check covers the assembly frame),
# gofmt over every tracked Go file, the in-tree ldplint invariant suite
# (DESIGN.md §10), and pinned staticcheck in CI or when its module is
# cached locally. ldplint exits 2 on any finding, so a seeded violation fails
# this target (and CI). The binary lands in .bin/ so it can also be used
# as `go vet -vettool=.bin/ldplint`.
lint: vet
	GOARCH=arm64 $(GO) vet ./internal/ldp ./internal/hashx
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	@mkdir -p .bin
	$(GO) build -o .bin/ldplint ./cmd/ldplint
	./.bin/ldplint ./...
	@if [ -n "$$CI$(STATICCHECK_CACHED)" ] && \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		echo "staticcheck $(STATICCHECK_VERSION) ./..."; \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) unavailable (offline toolchain); ldplint and go vet still gate"; \
	fi

# cmd/ldpload is a module of its own that imports internal/ldp,
# internal/stream and internal/persist, so the root `go build ./...` and
# `go vet ./...` skip it: without this target a change to those packages
# could break the load generator unnoticed.
ldpload-vet:
	cd cmd/ldpload && $(GO) vet ./...

# Known-vulnerability scan, pinned like staticcheck. Informational by
# design: new CVE disclosures in dependencies must not brick unrelated
# CI runs, so findings are reported but never fail the build.
vulncheck:
	@if [ -n "$$CI$(GOVULNCHECK_CACHED)" ] && \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./... || \
			echo "govulncheck reported findings (informational, non-blocking)"; \
	else \
		echo "govulncheck $(GOVULNCHECK_VERSION) unavailable (offline toolchain); skipping"; \
	fi

ci: build lint ldpload-vet test race fuzz audit
