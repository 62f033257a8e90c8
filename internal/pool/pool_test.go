package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mdz/mdz/internal/telemetry"
)

func TestNilPoolRunsSerially(t *testing.T) {
	var p *Pool
	got := make([]int, 5)
	if err := p.RunContext(nil, 5, func(i int) error { got[i] = i + 1; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Errorf("task %d not run", i)
		}
	}
}

func TestRunAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13} {
		p := New(workers)
		if p.workers != workers {
			t.Errorf("workers = %d, want %d", p.workers, workers)
		}
		const n = 257
		var hits [n]atomic.Int32
		if err := p.RunContext(nil, n, func(i int) error { hits[i].Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		p := New(workers)
		err := p.RunContext(nil, 10, func(i int) error {
			switch i {
			case 3:
				return errA
			case 7:
				return errB
			}
			return nil
		})
		if err != errA {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, errA)
		}
	}
}

func TestNestedRunDoesNotDeadlock(t *testing.T) {
	p := New(4)
	var total atomic.Int32
	err := p.RunContext(nil, 8, func(i int) error {
		return p.RunContext(nil, 8, func(j int) error {
			return p.RunContext(nil, 3, func(k int) error {
				total.Add(1)
				return nil
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 8*8*3 {
		t.Errorf("ran %d inner tasks, want %d", total.Load(), 8*8*3)
	}
}

func TestZeroTasks(t *testing.T) {
	if err := New(4).RunContext(nil, 0, func(int) error { t.Error("task ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if New(0).workers < 1 {
		t.Error("default pool has no workers")
	}
	if New(-3).workers < 1 {
		t.Error("negative workers pool unusable")
	}
}

func TestRunRecoversPanicToPanicError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		err := p.RunContext(nil, 8, func(i int) error {
			if i == 5 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v (%T), want *PanicError", workers, err, err)
		}
		if pe.Task != 5 || pe.Value != "boom" {
			t.Errorf("workers=%d: PanicError = task %d value %v", workers, pe.Task, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
	}
}

func TestPanicErrorLowestIndexVsError(t *testing.T) {
	errA := errors.New("a")
	p := New(1) // serial: deterministic ordering
	err := p.RunContext(nil, 10, func(i int) error {
		switch i {
		case 2:
			panic("early")
		case 6:
			return errA
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Task != 2 {
		t.Fatalf("err = %v, want PanicError for task 2", err)
	}
}

func TestPanicErrorUnwrapsErrorValue(t *testing.T) {
	sentinel := errors.New("inner")
	err := New(1).RunContext(nil, 1, func(int) error { panic(sentinel) })
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is(err, sentinel) = false for %v", err)
	}
}

func TestPanicsRecoveredCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(2)
	p.SetTelemetry(Instruments(reg))
	_ = p.RunContext(nil, 4, func(i int) error {
		if i%2 == 0 {
			panic(i)
		}
		return nil
	})
	if got := reg.Counter("pool.panics_recovered").Value(); got != 2 {
		t.Fatalf("panics_recovered = %d, want 2", got)
	}
}

func TestRunContextCancelSkipsUnstartedTasks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		err := p.RunContext(ctx, 64, func(i int) error {
			started.Add(1)
			cancel()
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if s := started.Load(); s >= 64 {
			t.Errorf("workers=%d: all %d tasks ran despite cancellation", workers, s)
		}
	}
}

func TestRunContextNilAndUncancelled(t *testing.T) {
	p := New(4)
	var n atomic.Int32
	if err := p.RunContext(nil, 16, func(int) error { n.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := p.RunContext(context.Background(), 16, func(int) error { n.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 32 {
		t.Errorf("ran %d tasks, want 32", n.Load())
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := New(4).RunContext(ctx, 8, func(int) error {
		t.Error("task ran on pre-cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestChunkedCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13} {
		for _, n := range []int{1, 2, 7, 64, 257} {
			p := New(workers)
			hits := make([]atomic.Int32, n)
			var chunks atomic.Int32
			err := p.RunContextChunked(nil, n, func(lo, hi int) error {
				chunks.Add(1)
				if lo >= hi || lo < 0 || hi > n {
					t.Errorf("workers=%d n=%d: bad chunk [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, c)
				}
			}
			if c := int(chunks.Load()); c > workers || c > n {
				t.Errorf("workers=%d n=%d: %d chunks, want <= min(workers, n)", workers, n, c)
			}
		}
	}
}

func TestChunkedNilPoolSingleChunk(t *testing.T) {
	var p *Pool
	calls := 0
	err := p.RunContextChunked(nil, 9, func(lo, hi int) error {
		calls++
		if lo != 0 || hi != 9 {
			t.Errorf("chunk [%d,%d), want [0,9)", lo, hi)
		}
		return nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("err=%v calls=%d, want nil/1", err, calls)
	}
}

func TestChunkedLowestChunkError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		p := New(workers)
		err := p.RunContextChunked(nil, 16, func(lo, hi int) error {
			if lo <= 12 && 12 < hi {
				return errB
			}
			if lo <= 1 && 1 < hi {
				return errA
			}
			return nil
		})
		// Single-chunk runs see index 12's branch first (checked first);
		// multi-chunk runs must prefer the chunk containing index 1.
		want := errA
		if workers == 1 {
			want = errB
		}
		if err != want {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, want)
		}
	}
}

func TestChunkedRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := New(workers).RunContextChunked(nil, 8, func(lo, hi int) error {
			if lo == 0 {
				panic("chunk boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Task != 0 || pe.Value != "chunk boom" {
			t.Fatalf("workers=%d: err = %v, want PanicError{Task:0}", workers, err)
		}
	}
}

func TestChunkedPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := New(4).RunContextChunked(ctx, 8, func(lo, hi int) error {
		t.Error("chunk ran on pre-cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestChunkedNestedDoesNotDeadlock(t *testing.T) {
	p := New(4)
	var total atomic.Int32
	err := p.RunContextChunked(nil, 8, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := p.RunContextChunked(nil, 8, func(lo2, hi2 int) error {
				total.Add(int32(hi2 - lo2))
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 8*8 {
		t.Errorf("covered %d inner indices, want %d", total.Load(), 8*8)
	}
}

func TestChunkedZeroTasks(t *testing.T) {
	if err := New(4).RunContextChunked(nil, 0, func(int, int) error { t.Error("chunk ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// awaitTimeout bounds every wait in the scheduling tests below, so a pool
// that fails to hand work to an idle goroutine fails the test instead of
// hanging it.
const awaitTimeout = 5 * time.Second

// await waits for ch to be closed or receive, reporting false on timeout.
func await(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(awaitTimeout):
		return false
	}
}

// TestNestedRunUsesFreedWorker pins work conservation: an inner Run opened
// while the pool's only helper slot is taken must still run in parallel
// once that helper finishes its own task. Outer task T1 holds the helper
// until inner task x0 has started; x0 then waits for x1. A pool that runs
// the inner call serially on its caller reaches x1 only after x0 gives up.
func TestNestedRunUsesFreedWorker(t *testing.T) {
	p := New(2)
	published, x1ran := make(chan struct{}), make(chan struct{})
	err := p.RunContext(nil, 2, func(i int) error {
		if i == 1 { // T1
			if !await(published) {
				return errors.New("inner task x0 never started")
			}
			return nil
		}
		return p.RunContext(nil, 2, func(x int) error { // T0
			if x == 1 {
				close(x1ran)
				return nil
			}
			close(published)
			if !await(x1ran) {
				return errors.New("x1 not run while x0 waited: the freed worker stayed idle")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNestedChunkedRunUsesFreedWorker is the RunContextChunked twin of
// TestNestedRunUsesFreedWorker: chunk 0 of the inner call waits for chunk
// 1, which only a second goroutine can run.
func TestNestedChunkedRunUsesFreedWorker(t *testing.T) {
	p := New(2)
	ctx := context.Background()
	published, x1ran := make(chan struct{}), make(chan struct{})
	err := p.RunContextChunked(ctx, 2, func(lo, _ int) error {
		if lo == 1 { // T1
			if !await(published) {
				return errors.New("inner chunk 0 never started")
			}
			return nil
		}
		return p.RunContextChunked(ctx, 2, func(lo, hi int) error { // T0
			if lo > 0 {
				close(x1ran)
				return nil
			}
			close(published)
			if hi > 1 {
				return errors.New("inner call collapsed into one chunk")
			}
			if !await(x1ran) {
				return errors.New("chunk 1 not run while chunk 0 waited: the freed worker stayed idle")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChunkedSplitIgnoresSaturation: a chunked call nested in a run that
// holds every helper slot still splits into min(n, Workers) chunks.
func TestChunkedSplitIgnoresSaturation(t *testing.T) {
	for _, workers := range []int{2, 3} {
		p := New(workers)
		started := make(chan struct{})
		var calls atomic.Int32
		err := p.RunContext(nil, workers, func(i int) error {
			if i > 0 { // hold a helper slot until the inner call has started
				if !await(started) {
					return errors.New("inner call never started")
				}
				return nil
			}
			return p.RunContextChunked(nil, 8, func(lo, hi int) error {
				if calls.Add(1) == 1 {
					close(started)
				}
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(calls.Load()); got != min(8, workers) {
			t.Errorf("workers=%d: nested chunked call made %d chunk calls, want %d", workers, got, min(8, workers))
		}
	}
}

// TestConcurrencyBound: however the calls nest, no more goroutines run
// tasks at once than the caller plus Workers-1 helpers.
func TestConcurrencyBound(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(3)
	p.SetTelemetry(Instruments(reg))
	var running, peak, total atomic.Int32
	err := p.RunContext(nil, 4, func(int) error {
		return p.RunContextChunked(nil, 5, func(lo, hi int) error {
			return p.RunContext(nil, hi-lo, func(int) error {
				n := running.Add(1)
				for {
					m := peak.Load()
					if n <= m || peak.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(100 * time.Microsecond)
				running.Add(-1)
				total.Add(1)
				return nil
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 4*5 {
		t.Errorf("ran %d leaf tasks, want %d", total.Load(), 4*5)
	}
	if got := peak.Load(); got > 3 {
		t.Errorf("%d tasks ran at once on a 3-worker pool", got)
	}
	if got := reg.Gauge("pool.helpers_active").Value(); got != 0 {
		t.Errorf("helpers_active = %d after return, want 0", got)
	}
}

// TestConcurrentNestedCallers: several goroutines share one pool and nest
// calls of both kinds. Every task runs exactly once, nothing deadlocks, and
// no helper outlives the calls — including helpers handed from a finished
// call to another caller's open one.
func TestConcurrentNestedCallers(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(3)
	p.SetTelemetry(Instruments(reg))
	const callers, rounds = 4, 20
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				_ = p.RunContext(nil, 3, func(int) error {
					return p.RunContextChunked(nil, 7, func(lo, hi int) error {
						return p.RunContext(nil, hi-lo, func(int) error { total.Add(1); return nil })
					})
				})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if !await(done) {
		t.Fatal("concurrent nested calls did not finish")
	}
	if got := total.Load(); got != callers*rounds*3*7 {
		t.Errorf("ran %d leaf tasks, want %d", got, callers*rounds*3*7)
	}
	if got := reg.Gauge("pool.helpers_active").Value(); got != 0 {
		t.Errorf("helpers_active = %d after every caller returned, want 0", got)
	}
}

func TestChunkedTelemetry(t *testing.T) {
	// Two goroutines run the call's two chunks: chunk 0 waits until chunk 1
	// has started, which only the helper can do.
	reg := telemetry.NewRegistry()
	p := New(2)
	p.SetTelemetry(Instruments(reg))
	chunk1 := make(chan struct{})
	err := p.RunContextChunked(nil, 16, func(lo, hi int) error {
		if lo > 0 {
			close(chunk1)
		} else if !await(chunk1) {
			return errors.New("chunk 1 never started")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"pool.chunked_runs":        1,
		"pool.chunks":              2,
		"pool.serial_degradations": 0,
		"pool.helper_spawns":       1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("pool.helpers_active").Value(); got != 0 {
		t.Errorf("helpers_active = %d after return, want 0", got)
	}

	// A chunked call nested under a task that holds the only helper slot
	// runs both its chunks on its caller: one participant, one serial
	// degradation. The outer Run had two participants.
	reg = telemetry.NewRegistry()
	p = New(2)
	p.SetTelemetry(Instruments(reg))
	t1started, innerDone := make(chan struct{}), make(chan struct{})
	err = p.RunContext(nil, 2, func(i int) error {
		if i == 1 {
			close(t1started)
			if !await(innerDone) {
				return errors.New("inner call never finished")
			}
			return nil
		}
		if !await(t1started) {
			return errors.New("outer task 1 never started")
		}
		defer close(innerDone)
		return p.RunContextChunked(nil, 16, func(lo, hi int) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"pool.runs":                1,
		"pool.tasks":               2,
		"pool.chunked_runs":        1,
		"pool.chunks":              1,
		"pool.serial_degradations": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("saturated: %s = %d, want %d", name, got, want)
		}
	}
}
