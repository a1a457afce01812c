# Development targets for the ARIES/RH reproduction.
#
#   make check     vet + build + full test suite + short race pass
#   make ci        the CI pipeline; .github/workflows/ci.yml runs exactly this
#   make fmt       gofmt gate: fails if any Go file needs reformatting
#   make race      race-detector run of the concurrency-sensitive packages
#   make torture   fixed-seed fault-injection crash sweep (nightly CI job)
#   make standby-demo  end-to-end log-shipping failover over TCP
#   make bench-e8  regenerate BENCH_E8.json (quick sizes)
#   make bench-e11 regenerate BENCH_E11.json (quick sizes)
#   make bench-e12 regenerate BENCH_E12.json (quick sizes)
#   make bench-e13 regenerate BENCH_E13.json (quick sizes)
#   make bench-e14 regenerate BENCH_E14.json (quick sizes)
#   make bench-e15 regenerate BENCH_E15.json (quick sizes)

GO ?= go

.PHONY: check ci fmt vet staticcheck build test perfbench-test race fuzz-short torture standby-demo bench bench-e8 bench-e11 bench-e12 bench-e13 bench-e14 bench-e15

check: vet build test race

# The CI pipeline, defined once: .github/workflows/ci.yml only installs
# the tools and runs this target.  Full race (not -short) on the
# latch-heavy packages, the short torture pass, the TCP failover demo,
# and a short fuzz pass over every wire-format decoder.
ci: fmt vet staticcheck build test perfbench-test
	$(GO) test -race ./internal/core ./internal/wal ./internal/repl ./internal/shard
	$(GO) test -race -short ./internal/torture ./internal/fault
	$(MAKE) standby-demo
	$(MAKE) fuzz-short

# staticcheck is optional tooling: CI installs it, dev environments may
# only have the go toolchain — skip (loudly) where it isn't on PATH
# rather than failing the whole pipeline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

fuzz-short:
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 30s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodeManifest -fuzztime 20s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodeSegmentHeader -fuzztime 15s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodePrepare -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime 30s

# gofmt -l lists the files whose formatting differs; any output fails.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark harness is its own module (perfbench/go.mod), so
# `go test ./...` does not reach its self-test.
perfbench-test:
	$(GO) -C perfbench test .

# The packages whose hot paths drop and re-take latches: the core engine
# (group commit, DelegateAll), the WAL (leader flusher and tail
# subscriptions), the replication stream, and the sim stress tests that
# drive them concurrently.
race:
	$(GO) test -race -short ./internal/core ./internal/wal ./internal/repl ./internal/sim ./internal/shard ./internal/torture

# Full fault-injection pass under the race detector, every sweep uncapped
# at its pinned seeds (no -short boundary cap).  All six crash sweeps run
# on one driver: the core sweep (both seeds, over the engine matrix:
# group commit off, group commit on, group commit on + early lock
# release), reads during parallel recovery (both seeds), replication
# promote-under-crash, rotation/archive, early lock release (both seeds),
# and the 3-shard cross-shard sweep (both seeds, over the same matrix,
# its early-lock-release row also recovering in parallel).  Then the
# driver's own test, the scope audit, the transient/persistent fault
# paths, and the fault package.  Budgeted for the nightly CI job; a
# laptop run takes on the order of a minute.
torture:
	$(GO) test -race -count=1 -timeout 20m ./internal/torture ./internal/fault

# The README quickstart, executed: bootstrap backup, stream over TCP,
# crash the primary, promote the standby, verify.
standby-demo:
	$(GO) run ./cmd/rhstandby -demo

bench:
	$(GO) test -bench . -benchtime 0.5s .

bench-e8:
	$(GO) run ./cmd/rhbench -exp e8 -quick -json BENCH_E8.json

bench-e11:
	$(GO) run ./cmd/rhbench -exp e11 -quick -json BENCH_E11.json

bench-e12:
	$(GO) run ./cmd/rhbench -exp e12 -quick -json BENCH_E12.json

bench-e13:
	$(GO) run ./cmd/rhbench -exp e13 -quick -json BENCH_E13.json

bench-e14:
	$(GO) run ./cmd/rhbench -exp e14 -quick -json BENCH_E14.json

bench-e15:
	$(GO) run ./cmd/rhbench -exp e15 -quick -json BENCH_E15.json
