package mdz

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/mdz/mdz/internal/pool"
)

// TestWorkerCountInvariance: output bytes must be a pure function of
// (input, config, shard count) — never of the worker pool size.
func TestWorkerCountInvariance(t *testing.T) {
	frames := makeFrames(20, 600, 51)
	for _, shards := range []int{0, 1, 3, 7} {
		var want []byte
		for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0) + 2} {
			c, err := NewCompressor(Config{ErrorBound: 1e-3, Shards: shards, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			for _, b := range Batch(frames, 10) {
				blk, err := c.CompressBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, blk...)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(want, got) {
				t.Fatalf("shards=%d: workers=%d output differs from workers=1", shards, workers)
			}
		}
	}
}

// TestWorkerCountInvarianceRepeatedRuns: repeated compression of the same
// input under a parallel pool yields identical bytes run after run.
func TestWorkerCountInvarianceRepeatedRuns(t *testing.T) {
	frames := makeFrames(10, 400, 52)
	var want []byte
	for run := 0; run < 5; run++ {
		c, _ := NewCompressor(Config{ErrorBound: 1e-3, Shards: 4, Workers: 8})
		blk, err := c.CompressBatch(frames)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = blk
		} else if !bytes.Equal(want, blk) {
			t.Fatalf("run %d produced different bytes", run)
		}
	}
}

// TestShardRoundTripGrid runs round-trip + error-bound checks over every
// (method, workers, shards) combination, decoding with both serial and
// parallel decompressors.
func TestShardRoundTripGrid(t *testing.T) {
	frames := makeFrames(20, 300, 53)
	const eb = 1e-3
	for _, m := range []Method{ADP, VQ, VQT, MT} {
		for _, workers := range []int{1, 4} {
			for _, shards := range []int{0, 1, 2, 5} {
				name := fmt.Sprintf("method=%v/workers=%d/shards=%d", m, workers, shards)
				c, err := NewCompressor(Config{
					ErrorBound: eb, Mode: Absolute, Method: m,
					Workers: workers, Shards: shards,
				})
				if err != nil {
					t.Fatal(err)
				}
				d := NewDecompressorWith(DecompressorOptions{Workers: workers})
				var got []Frame
				for _, b := range Batch(frames, 10) {
					blk, err := c.CompressBatch(b)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					out, err := d.DecompressBatch(blk)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got = append(got, out...)
				}
				if len(got) != len(frames) {
					t.Fatalf("%s: %d frames, want %d", name, len(got), len(frames))
				}
				for ti := range frames {
					for axis := 0; axis < 3; axis++ {
						w := axisSeries(frames[ti:ti+1], axis)[0]
						h := axisSeries(got[ti:ti+1], axis)[0]
						for i := range w {
							if e := math.Abs(w[i] - h[i]); e > eb {
								t.Fatalf("%s: axis %d frame %d particle %d: error %v", name, axis, ti, i, e)
							}
						}
					}
				}
			}
		}
	}
}

// TestShardedBlocksUseFormatV2 checks the inner per-axis block version:
// single-shard blocks must keep the legacy version-1 layout, multi-shard
// blocks must carry version 2.
func TestShardedBlocksUseFormatV2(t *testing.T) {
	frames := makeFrames(10, 200, 54)
	for _, tc := range []struct {
		shards  int
		wantVer byte
	}{{1, 1}, {0, 1} /* 200 particles → auto K=1 */, {4, 2}} {
		c, _ := NewCompressor(Config{ErrorBound: 1e-3, Shards: tc.shards})
		blk, err := c.CompressBatch(frames)
		if err != nil {
			t.Fatal(err)
		}
		// Outer layout: "MDZS" | 3 × section(core block) | CRC32 footer.
		// Each core block starts with "MDZB" followed by the version byte.
		sec := blk[4:]
		// Skip the uvarint section length (single byte for small blocks is
		// not guaranteed, so scan for the core magic instead).
		idx := bytes.Index(sec, []byte("MDZB"))
		if idx < 0 {
			t.Fatal("core block magic not found")
		}
		if ver := sec[idx+4]; ver != tc.wantVer {
			t.Errorf("shards=%d: block version %d, want %d", tc.shards, ver, tc.wantVer)
		}
	}
}

// TestSeedFormatBlockStillDecodes decodes a block written by the
// pre-sharding seed implementation (testdata fixture) and checks both the
// error bound and that the current encoder's Shards=1 block decodes to
// bit-identical values. (The bytes differ since byte sections gained their
// raw form.)
func TestSeedFormatBlockStillDecodes(t *testing.T) {
	seedBlk, err := os.ReadFile("testdata/seed_block_v1.bin")
	if err != nil {
		t.Skipf("fixture unavailable: %v", err)
	}
	frames := makeFrames(10, 500, 77) // exactly what generated the fixture
	d := NewDecompressor()
	got, err := d.DecompressBatch(seedBlk)
	if err != nil {
		t.Fatalf("seed-format block rejected: %v", err)
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	eps := 1e-3
	for axis := 0; axis < 3; axis++ {
		bound := eps * frameRange(frames, axis)
		if bound == 0 {
			bound = eps
		}
		for ti := range frames {
			w := axisSeries(frames[ti:ti+1], axis)[0]
			h := axisSeries(got[ti:ti+1], axis)[0]
			for i := range w {
				if e := math.Abs(w[i] - h[i]); e > bound+1e-15 {
					t.Fatalf("axis %d frame %d particle %d: error %v > %v", axis, ti, i, e, bound)
				}
			}
		}
	}
	// The Shards=1 re-encode reconstructs the same values.
	c, _ := NewCompressor(Config{ErrorBound: eps, Shards: 1})
	blk, err := c.CompressBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	again, err := NewDecompressor().DecompressBatch(blk)
	if err != nil {
		t.Fatal(err)
	}
	if frameValueHash(again) != frameValueHash(got) {
		t.Error("Shards=1 re-encode decodes to values other than the seed-format fixture's")
	}
}

// TestTruncatedFooter: blocks cut inside the CRC footer (or shorter) must
// fail with a clean error, not a slice panic.
func TestTruncatedFooter(t *testing.T) {
	frames := makeFrames(5, 80, 55)
	c, _ := NewCompressor(Config{ErrorBound: 1e-3})
	blk, err := c.CompressBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecompressor()
	for cut := 0; cut <= 8; cut++ {
		trunc := blk[:len(blk)-cut]
		if cut == 0 {
			if _, err := d.DecompressBatch(trunc); err != nil {
				t.Fatalf("pristine block rejected: %v", err)
			}
			continue
		}
		if _, err := NewDecompressor().DecompressBatch(trunc); err == nil {
			t.Errorf("cut=%d: truncated block accepted", cut)
		}
	}
	for _, n := range []int{0, 1, 4, 5, 7} {
		if _, err := NewDecompressor().DecompressBatch(blk[:n]); err == nil {
			t.Errorf("len=%d: truncated block accepted", n)
		}
	}
}

// TestConcurrentCompressorsSharedDecompressorPool hammers one Compressor
// per goroutine, each with internal shard/ADP parallelism, against a shared
// sync.Pool of Decompressors — the pattern a multi-stream ingest server
// would use. Run under -race this exercises the pool and scratch-buffer
// sharing across goroutines. VQ keeps blocks self-contained so pooled
// (stateful) decompressors can be reused across streams.
func TestConcurrentCompressorsSharedDecompressorPool(t *testing.T) {
	dpool := sync.Pool{New: func() any { return NewDecompressor() }}
	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			frames := makeFrames(12, 257, int64(100+g))
			c, err := NewCompressor(Config{
				ErrorBound: 1e-3, Mode: Absolute, Method: VQ,
				Workers: 4, Shards: 3,
			})
			if err != nil {
				errc <- err
				return
			}
			for _, b := range Batch(frames, 4) {
				blk, err := c.CompressBatch(b)
				if err != nil {
					errc <- err
					return
				}
				d := dpool.Get().(*Decompressor)
				out, err := d.DecompressBatch(blk)
				dpool.Put(d)
				if err != nil {
					errc <- err
					return
				}
				for ti := range b {
					for i := range b[ti].X {
						if math.Abs(b[ti].X[i]-out[ti].X[i]) > 1e-3 {
							errc <- fmt.Errorf("goroutine %d: bound violated", g)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// waitNoExtraGoroutines polls until the goroutine count returns to the
// recorded baseline, failing if pipeline goroutines outlive their run. A
// hand-rolled goleak: the pool guarantees started tasks are awaited, so any
// excess past the baseline is a leak.
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base)
}

// TestCompressContextDeadline cancels an 8-shard x 8-worker compression by
// deadline and checks the whole containment contract: the typed error, the
// response latency, no leaked goroutines, and a byte-identical retry on the
// same Compressor afterwards.
func TestCompressContextDeadline(t *testing.T) {
	frames := makeFrames(16, 4096, 60)
	cfg := Config{ErrorBound: 1e-3, Workers: 8, Shards: 8, Telemetry: true}
	ref, err := NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.CompressBatch(frames)
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	c, err := NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Slow every shard entry down so the batch cannot finish inside the
	// deadline regardless of machine speed; rows keep polling in between.
	c.setFaultHook(func(op string, shard int) { time.Sleep(10 * time.Millisecond) })
	const timeout = 25 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	_, err = c.CompressBatchContext(ctx, frames)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if late := elapsed - timeout; late > 100*time.Millisecond {
		t.Fatalf("returned %v past the deadline, want within 100ms", late)
	}
	waitNoExtraGoroutines(t, base)
	if got := c.Telemetry().Counters["pipeline.cancelled_runs"]; got == 0 {
		t.Error("pipeline.cancelled_runs not counted")
	}

	// State must not have advanced: the retried batch is byte-identical to
	// an uncancelled first batch.
	c.setFaultHook(nil)
	got, err := c.CompressBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("retry after cancellation differs from an uncancelled run")
	}
}

// TestCompressCancelMidADPTrial cancels from inside a shard encode of the
// ADP evaluation round — the deepest point of the trial fan-out — and
// checks clean unwinding plus an identical retry.
func TestCompressCancelMidADPTrial(t *testing.T) {
	frames := makeFrames(10, 2048, 64)
	cfg := Config{ErrorBound: 1e-3, Method: ADP, Workers: 8, Shards: 8}
	ref, _ := NewCompressor(cfg)
	want, err := ref.CompressBatch(frames)
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	c, _ := NewCompressor(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	c.setFaultHook(func(op string, shard int) {
		if op == "encode_shard" {
			once.Do(cancel)
		}
	})
	if _, err := c.CompressBatchContext(ctx, frames); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitNoExtraGoroutines(t, base)

	c.setFaultHook(nil)
	got, err := c.CompressBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("retry after mid-trial cancellation differs from an uncancelled run")
	}
}

// TestShardPanicSurfacesAsPanicError injects a panic into one shard of the
// encode and decode fan-outs: the pool must contain it, surface it as a
// typed *pool.PanicError with the stack attached, count it in telemetry,
// and leave the pipeline reusable.
func TestShardPanicSurfacesAsPanicError(t *testing.T) {
	frames := makeFrames(8, 2048, 65)
	cfg := Config{ErrorBound: 1e-3, Workers: 4, Shards: 4, Telemetry: true}

	c, err := NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.setFaultHook(func(op string, shard int) {
		if op == "encode_shard" && shard == 1 {
			panic("injected encode fault")
		}
	})
	_, err = c.CompressBatch(frames)
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("encode err = %v, want *pool.PanicError", err)
	}
	if pe.Value != "injected encode fault" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = {Value: %v, stack %d bytes}", pe.Value, len(pe.Stack))
	}
	if got := c.Telemetry().Counters["pool.panics_recovered"]; got == 0 {
		t.Error("pool.panics_recovered not counted on encode")
	}
	c.setFaultHook(nil)
	blk, err := c.CompressBatch(frames)
	if err != nil {
		t.Fatalf("compressor unusable after contained panic: %v", err)
	}

	d := NewDecompressorWith(DecompressorOptions{Workers: 4, Telemetry: true})
	d.setFaultHook(func(op string, shard int) {
		if op == "decode_shard" && shard == 0 {
			panic("injected decode fault")
		}
	})
	_, err = d.DecompressBatch(blk)
	if !errors.As(err, &pe) {
		t.Fatalf("decode err = %v, want *pool.PanicError", err)
	}
	if got := d.Telemetry().Counters["pool.panics_recovered"]; got == 0 {
		t.Error("pool.panics_recovered not counted on decode")
	}
	d.setFaultHook(nil)
	if _, err := d.DecompressBatch(blk); err != nil {
		t.Fatalf("decompressor unusable after contained panic: %v", err)
	}
}
