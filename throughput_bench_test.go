package mdz

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// Throughput microbenchmarks for the sharded parallel pipeline. Unlike the
// paper-experiment benchmarks (bench_test.go), these measure the hot path
// directly: bytes/op and allocs/op across worker and shard counts.
//
//	go test -bench 'CompressBatch|DecompressBatch' -benchmem .

const (
	benchParticles = 131072 // large enough for DefaultShards to fan out (K=8)
	benchSnapshots = 5
)

var benchFrames = sync.OnceValue(func() []Frame {
	return makeFrames(benchSnapshots, benchParticles, 7)
})

func benchWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

func BenchmarkCompressBatch(b *testing.B) {
	frames := benchFrames()
	rawBytes := int64(benchSnapshots * benchParticles * 3 * 8)
	for _, shards := range []int{1, 0} { // 0 = auto (K=8 at this size)
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(b *testing.B) {
				c, err := NewCompressor(Config{ErrorBound: 1e-3, Shards: shards, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				// Warm the adaptive state and scratch pools outside the timer.
				if _, err := c.CompressBatch(frames); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(rawBytes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.CompressBatch(frames); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCompressBatchTelemetry measures the instrumented hot path under
// the same load as BenchmarkCompressBatch's auto-shard case. Comparing the
// two quantifies the telemetry overhead (acceptance: ≤2% throughput):
//
//	go test -bench 'CompressBatch(Telemetry)?/shards=0' -benchtime 3s .
func BenchmarkCompressBatchTelemetry(b *testing.B) {
	frames := benchFrames()
	rawBytes := int64(benchSnapshots * benchParticles * 3 * 8)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("shards=0/workers=%d", workers), func(b *testing.B) {
			c, err := NewCompressor(Config{ErrorBound: 1e-3, Workers: workers, Telemetry: true})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.CompressBatch(frames); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(rawBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.CompressBatch(frames); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecompressBatch(b *testing.B) {
	frames := benchFrames()
	rawBytes := int64(benchSnapshots * benchParticles * 3 * 8)
	for _, shards := range []int{1, 0} {
		c, err := NewCompressor(Config{ErrorBound: 1e-3, Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		blk, err := c.CompressBatch(frames)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(b *testing.B) {
				d := NewDecompressorWith(DecompressorOptions{Workers: workers})
				if _, err := d.DecompressBatch(blk); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(rawBytes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.DecompressBatch(blk); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
