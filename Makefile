# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Release identity stamped into server binaries (hyperdom_build_info on
# /metrics). Defaults to the git describe of the checkout; override with
# `make hyperdomd VERSION=v1.2.3`.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS  = -ldflags "-X hyperdom/internal/buildinfo.Version=$(VERSION)"

.PHONY: all build check test test-short bench bench-all bench-parallel bench-quant fuzz experiments examples serve serve-sharded hyperdomd trace cover clean

all: build check

build:
	$(GO) build ./...

# Static analysis, formatting and the full suite under the race detector —
# the gate a change must pass before it ships. staticcheck runs when
# installed (CI installs it; locally: go install honnef.co/go/tools/cmd/staticcheck@latest).
check:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) test -race ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The hot-kernel benchmarks (dominance criteria, prepared-pair, kNN
# traversals) plus the machine-readable BENCH_knn.json snapshot.
bench:
	$(GO) test -bench=. -benchmem ./internal/dominance ./internal/knn
	$(GO) run ./cmd/benchkernel -o BENCH_knn.json

# One testing.B benchmark per paper table/figure plus the package micro-benches.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Short fuzzing passes over the six fuzz targets.
fuzz:
	$(GO) test ./internal/poly -fuzz FuzzQuartic -fuzztime 30s
	$(GO) test ./internal/dominance -fuzz FuzzHyperbolaVsExact2D -fuzztime 30s
	$(GO) test ./internal/sstree -fuzz FuzzTreeOps -fuzztime 30s
	$(GO) test ./internal/packed -fuzz FuzzPackedMinDist -fuzztime 30s
	$(GO) test ./internal/packed -fuzz FuzzQuantizedLowerBound -fuzztime 30s
	$(GO) test ./internal/packed -fuzz FuzzSnapshotOpen -fuzztime 30s

# Batch-engine worker scaling over a frozen SS-tree: queries/s at pool
# widths 1/2/4/8 (scaling tops out at GOMAXPROCS).
bench-parallel:
	$(GO) run ./cmd/knnbench -parallel 1,2,4,8 -scale 0.05

# The quantized coarse-filter comparison: Fig 13 once per mode (exact
# packed baseline, float32 tier) on the same workload.
bench-quant:
	$(GO) run ./cmd/knnbench -fig 13 -scale 0.05 -quant none
	$(GO) run ./cmd/knnbench -fig 13 -scale 0.05 -quant f32

# Regenerate the paper's figures at a moderate scale.
experiments:
	$(GO) run ./cmd/dombench -scale 0.2 -timing 100ms
	$(GO) run ./cmd/knnbench -scale 0.05
	$(GO) run ./cmd/knnbench -fig 17 -scale 0.05

# Run the kNN figures with counters enabled and the observability server
# up for local profiling: /metrics, /debug/requests and /debug/pprof stay
# served on :6060 after the figures finish, until Ctrl-C.
serve:
	$(GO) run ./cmd/knnbench -serve :6060 -metrics

# Start the sharded scatter-gather kNN server on a synthetic corpus —
# the HTTP layer of DESIGN.md §13. See README "Running the server".
serve-sharded:
	$(GO) run $(LDFLAGS) ./cmd/hyperdomd -shards 4 -addr :8080

# Build the version-stamped server binary into ./bin/hyperdomd.
hyperdomd:
	$(GO) build $(LDFLAGS) -o bin/hyperdomd ./cmd/hyperdomd

# Record per-query execution traces from a Fig 13 run into trace.json —
# load it in chrome://tracing or https://ui.perfetto.dev. See README
# "Tracing a slow query".
trace:
	$(GO) run ./cmd/knnbench -fig 13 -scale 0.01 -trace trace.json -trace-every 8

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/uncertain_gis
	$(GO) run ./examples/image_retrieval
	$(GO) run ./examples/rknn_pruning
	$(GO) run ./examples/moving_objects

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -20

clean:
	rm -f cover.out trace.json
	rm -rf bin
