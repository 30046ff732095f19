# Development entry points. Everything is stdlib Go; no tools beyond the
# toolchain are required.

GO ?= go

.PHONY: all build vet lint lint-fix test race bench bench-smoke experiments examples serve-smoke mutate-smoke clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Repo-specific invariants (float equality, global rand, panics in public
# packages, metric naming); see DESIGN.md "Static analysis & determinism
# policy".
lint:
	$(GO) run ./cmd/lan-lint ./...

# Format the tree, then lint with a per-analyzer tally — the loop for
# working a finding list down to zero.
lint-fix:
	gofmt -w .
	$(GO) run ./cmd/lan-lint -counts ./...

test:
	$(GO) test ./...

# Race-detect the concurrent paths (the parallel build, distance-table and
# ground-truth fan-outs, searches beside writes) on the fast test subset.
race:
	$(GO) test -race -short ./...

# Micro-benchmarks (mat kernels, GED arena kernels beside their reference
# twins — A*, ensemble, Hungarian, VJ, beam — and BenchmarkEnsembleMembers,
# the split of one ensemble call by member, the model kernels beside
# theirs — BenchmarkCrossInfer, BenchmarkRankerCall/{aids,syn} (syn is the
# shape models.us_per_ranker_call is measured at on syn_hung),
# BenchmarkHeads/{miss,hit} (the heads' share of one score) —, one training
# step on a warm tape, BenchmarkRankTrainStep (M_rk, beside the ranking call
# it trains) and BenchmarkMembershipTrainStep (M_nh), parallel
# vs sequential PG build, pool resize, lanserve's cache-hit handler
# (BenchmarkSearchCacheHit), root package ablations); see DESIGN.md
# "Performance architecture". End-to-end numbers come from `go run
# ./benchmark` (benchmark/README.md), not from here.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/mat ./internal/pg ./ged ./internal/cg ./internal/models ./lanserve .

# Benchmark smoke for CI: every benchmark runs exactly once so a
# regression that panics or deadlocks is caught without paying for
# statistically meaningful timings. Then one short traced run of the
# program PRs are judged by (./benchmark, ~6 s), so it cannot rot between
# judged PRs: its summary — the last stdout line — must report correct
# answers, no failed operation, and tracing that changed no result.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./internal/mat ./internal/pg ./ged ./internal/cg ./internal/models ./lanserve
	@summary=$$($(GO) run ./benchmark --workload syn_hung --seed 1 --seconds 3 --trace 1 | tail -n 1); \
	for want in '"correct":true' '"failed":0,' '"obs.trace_identical":{"value":1,'; do \
		case "$$summary" in *"$$want"*) ;; *) \
			echo "bench-smoke: ./benchmark summary lacks $$want:"; echo "$$summary"; exit 1;; \
		esac; \
	done; echo "bench-smoke: ./benchmark syn_hung ok"

# Regenerate the paper's evaluation on the dataset simulators.
experiments:
	$(GO) run ./cmd/lan-bench -exp all

# Boot lan-serve on a tiny generated database, hit /search and /metrics,
# and verify it drains within 5s of SIGTERM.
serve-smoke:
	$(GO) run ./scripts/serve-smoke

# Churn soak for the mutable index: concurrent searches, streaming
# inserts and deletes against one index (with a pinned snapshot checked
# for bit-identity throughout), then lan-serve's -writable endpoints,
# epoch-keyed cache invalidation and write metrics over HTTP.
mutate-smoke:
	$(GO) run ./scripts/mutate-smoke

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cheminformatics
	$(GO) run ./examples/codeclone
	$(GO) run ./examples/scalability

clean:
	$(GO) clean ./...
