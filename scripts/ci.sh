#!/bin/sh
# CI gate: vet, build, full test suite, then the same suite under the race
# detector. The race pass is what guards the sharded parallel pipeline —
# run it locally before sending changes that touch internal/core,
# internal/pool, or the Compressor/Decompressor concurrency model.
set -eux

cd "$(dirname "$0")/.."

gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$'
go vet ./...
go build ./...

# Dead-code gate: every exported function or method of a package under
# internal/ must be referenced from non-test code of this module or of the
# internal/bench/perf harness (a method that implements an interface counts
# as referenced). Test oracles belong in _test.go files. Only
# internal/faultio and internal/codec/codectest, which exist to serve tests,
# are exempt.
go run ./scripts/deadcode

go test ./...
go test -race ./...

# Constrained-parallelism smoke: with only two Ps the pool's single helper
# slot is almost always taken, so nested trial and shard runs are picked up
# by whichever goroutine frees up first rather than by a new helper, and
# the chunked shard scheduler still splits every run into min(n, Workers)
# chunks. GOMAXPROCS=1 leaves a single P: helpers still exist but only
# interleave with their caller, which flushes out any wait that depends on
# true parallelism to make progress. -count=1: the test cache does not key
# on GOMAXPROCS, so a cached default-run result would otherwise stand in.
GOMAXPROCS=2 go test -count=1 ./internal/pool ./internal/core
GOMAXPROCS=1 go test -count=1 ./internal/pool ./internal/core

# The pool's scheduling tests (work conservation, hand-offs between
# callers and helpers, wake-ups) repeated under the race detector: twenty
# runs vary the interleavings enough to catch a lost wake-up or a racy
# hand-off that a single pass can miss.
go test -race -count=20 ./internal/pool

# Fault-containment matrix under the race detector, twice: stream
# corruption recovery, the CLI crash-consistency sweep, cancellation and
# panic isolation all unwind work across goroutines, and a second run
# varies the schedules. (The full -race suite above covers these once;
# this repeats exactly the containment surface.) `make chaos` is the
# longer local version with an every-byte crash sweep.
go test -race -count=2 \
  -run 'CrashMatrix|StreamFault|Resync|Cancel|ContextDeadline|Panic|Budget|MaxDecode' \
  . ./cmd/mdzc

# One-iteration benchmark smoke: compiles and executes every benchmark body
# once (including the telemetry-enabled throughput variants) so bit-rotted
# benchmark code fails the gate without paying for real measurement runs.
go test -run '^$' -bench . -benchtime 1x .

# Entropy-stage and dequantize micro-benchmarks once under the race
# detector: the word-at-a-time bitstream and table-driven Huffman paths use
# pooled scratch state, and one racing iteration of each body is a cheap
# guard on that reuse.
go test -race -run '^$' -bench . -benchtime 1x ./internal/bitstream ./internal/huffman ./internal/quant

# Daemon smoke: mdzload spawns an in-process mdzd and runs a couple dozen
# concurrent streaming sessions, byte-comparing every container against a
# local library run (-verify 1). `make loadtest` is the longer local soak.
go run ./cmd/mdzload -spawn -sessions 24 -frames 16 -atoms 100 -c 8 -verify 1

# Short fuzz smoke over every parser and differential fuzzer in the tree
# (stream framing, checkpoint parsing, Huffman sections coded and raw, the
# LZ stream parser FuzzLZDecompress and round trip FuzzLZRoundTrip, the
# public-API and SZ-family error-bound fuzzers, and the entropy/dictionary
# hot-path equivalence fuzzers). Ten seconds per fuzzer catches regressions
# without slowing the gate meaningfully.
make fuzz-short FUZZTIME=10s

# The performance harness is a nested module that the root `go test ./...`
# never compiles; its own tests (a few seconds) keep it building against
# the library it drives. That includes the deprecated no-op fields
# Config.PipelineDepth, Config.ADPRetrialInterval and ReaderOptions.Pipeline,
# which its -ab knobs still set: this step is what keeps them compiling
# until the harness stops setting them. Compression ratios are pinned by the
# golden hashes in TestKernelByteInvariance and
# TestADPSampleShardsAcceptance, so no wall-clock run gates CI.
(cd internal/bench/perf && go test ./...)

# Seek and ReadRange under the race detector, twice: each jump reseeds the
# per-axis decoders from a checkpoint and then decodes on the shared worker
# pool, so a reseed that raced with a shard decode would show here. The
# replayed-frame case seeks through a Resync index rebuild of a damaged
# stream.
go test -race -count=2 -run 'TestSeekIndexedStream|TestReadRangeWindows|TestSeekReplayedFrame' .
