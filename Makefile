GO ?= go

.PHONY: all build test race vet fmt ci bench perf bench-lossless fuzz-short chaos loadtest

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

ci:
	sh scripts/ci.sh

# Hot-path throughput benchmarks for the sharded parallel pipeline.
bench:
	$(GO) test -run xxx -bench 'CompressBatch|DecompressBatch' -benchmem .

# The performance benchmark: all four workloads (in-situ encode, archive
# read, daemon), end-to-end and per-layer metrics. See
# internal/bench/perf/README.md for single workloads, -compare and -ab.
perf:
	bash internal/bench/perf/run.sh

# Short fuzz pass over every differential and parser fuzzer in the tree.
# CI invokes this with FUZZTIME=10s; the default is a slightly longer local
# smoke. Each fuzzer runs alone (-fuzz takes one pattern per package run).
# -fuzzminimizetime 1s: the first input that finds new coverage is otherwise
# minimized for up to 60 s, while the coordinator reports 0 execs/s, so a
# 10 s run of a slow target minimized one input and explored nothing.
FUZZTIME ?= 30s

fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzStreamReader$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointUnmarshal$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz '^FuzzErrorBound$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz '^FuzzReaderDifferential$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/bitstream
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDifferential$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/huffman
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeIntsReference$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/huffman
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeBytesEquivalence$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/huffman
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSection$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/huffman
	$(GO) test -run '^$$' -fuzz '^FuzzLZDifferential$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/lossless
	$(GO) test -run '^$$' -fuzz '^FuzzLZDecompress$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/lossless
	$(GO) test -run '^$$' -fuzz '^FuzzLZRoundTrip$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/lossless
	$(GO) test -run '^$$' -fuzz '^FuzzClusterDifferential$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/kmeans
	$(GO) test -run '^$$' -fuzz '^FuzzSZFamilyErrorBound$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/codec

# Fault-containment sweep, longer than the CI gate: the crash-consistency
# matrix at every output byte (MDZ_CHAOS_SWEEP), plus the stream fault
# matrix, cancellation, panic-isolation and budget tests, all under the
# race detector and repeated to vary goroutine schedules.
chaos:
	MDZ_CHAOS_SWEEP=1 $(GO) test -race -count=2 \
		-run 'CrashMatrix|StreamFault|StreamFragmented|Resync|Cancel|ContextDeadline|Panic|Budget|MaxDecode|NoFsync|Salvage' \
		. ./cmd/mdzc
	$(GO) test -race -count=2 ./internal/faultio ./internal/safeio ./internal/pool ./internal/budget

# Daemon soak: a few hundred concurrent streaming sessions against an
# in-process mdzd under the race detector, every tenth container verified
# byte-identical to a local library run. ci.sh runs a smaller smoke; this
# is the longer local version.
loadtest:
	$(GO) run -race ./cmd/mdzload -spawn -sessions 256 -frames 40 -atoms 300 -c 32 -verify 0.1

# Dictionary-coder hot path: LZ and byte-Huffman micro-benchmarks (with
# alloc counts), the pooled flate/zlib writers, and the pipeline-payload
# benchmark that replays the exact bytes the VQ pipeline hands the backend.
bench-lossless:
	$(GO) test -run xxx -bench 'LZCompress|LZDecompress|EncodeBytes|DecodeBytes|FlateCompress|ZlibCompress' -benchmem ./internal/lossless ./internal/huffman
	$(GO) test -run xxx -bench 'VQPayload' -benchmem ./internal/bench
