// Package pool provides a bounded, work-conserving fork-join executor shared
// by the compression pipeline's three nesting levels (axes × ADP trials ×
// particle shards).
//
// A Pool holds workers−1 helper slots, and every call executes tasks on the
// calling goroutine as well. Each parallel call publishes its unclaimed
// tasks on one pool-wide list and starts helpers only into free slots, so
// the number of goroutines running tasks stays bounded by the callers plus
// workers−1 however deep the nesting goes. A goroutine that runs out of
// tasks in its own call does not block or exit while any open call still
// has unclaimed tasks: a caller waiting for stragglers and a helper whose
// call is drained both take unclaimed tasks from the newest open call. A
// nested call made while every slot is taken is therefore still run in
// parallel, by whichever goroutine frees up first.
//
// Waiting never deadlocks: a goroutine only waits for the call it opened
// last, and only when nothing is left to claim, so every task it waits for
// was claimed after that call opened and never sits beneath it on its own
// stack.
//
// Task results must be written into index-addressed slots by the callback,
// so outputs are assembled in deterministic order no matter which goroutine
// ran which task.
//
// Fault containment: a task that panics is recovered into a *PanicError
// (stack captured) and reported through the normal lowest-index-error
// return, so one poisoned shard degrades to an error instead of crashing
// the process. RunContext adds cooperative cancellation — tasks not yet
// started when the context is done are skipped and report ctx.Err();
// tasks already running always finish. Every call returns strictly after
// all its tasks have finished and every helper started on its behalf has
// exited (no leaks, and deferred scratch returns inside tasks always
// execute).
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"

	"github.com/mdz/mdz/internal/telemetry"
)

// Pool is a bounded executor. A nil *Pool is valid and runs everything
// serially on the caller's goroutine.
type Pool struct {
	workers int
	tel     *Telemetry // nil when uninstrumented

	mu      sync.Mutex
	wake    sync.Cond // on mu: work published, a call finished, a helper exited
	open    []*job    // calls with unclaimed parts, oldest first
	helpers int       // live helper goroutines, at most workers-1
	loops   int       // last claim-loop id handed out
}

// job is one parallel RunContext or RunContextChunked call: the index range
// [0, n) split into parts contiguous parts, each claimed and run whole by
// one goroutine. A RunContext call has one part per index.
type job struct {
	ctx     context.Context
	n       int
	parts   int
	chunked bool // a RunContextChunked call (for telemetry)
	f       func(lo, hi int) error
	errs    []error // one slot per part

	// Guarded by Pool.mu.
	next    int   // first unclaimed part
	left    int   // parts not yet finished
	helpers int   // live helpers charged to this call
	runners []int // distinct claim loops that ran a part (instrumented pools only)
}

// Telemetry is the pool's instrument set. All fields are nil-safe, so a
// partially populated struct is fine; a nil *Telemetry disables
// instrumentation entirely.
type Telemetry struct {
	// Runs counts parallel-eligible RunContext calls (n > 1 on a parallel pool).
	Runs *telemetry.Counter
	// Tasks counts tasks executed by those calls.
	Tasks *telemetry.Counter
	// HelperSpawns counts helper goroutines started into free slots.
	HelperSpawns *telemetry.Counter
	// SerialDegradations counts parallel-eligible RunContext and
	// RunContextChunked calls whose tasks all ran on the caller: no other
	// goroutine was free to claim one before the caller had run them all.
	// Its rate over Runs+ChunkedRuns is the share of fan-out the host's
	// cores could not absorb.
	SerialDegradations *telemetry.Counter
	// PanicsRecovered counts task panics converted into *PanicError.
	PanicsRecovered *telemetry.Counter
	// HelpersActive gauges the helper goroutines currently running.
	HelpersActive *telemetry.Gauge
	// ChunkedRuns counts parallel-eligible RunContextChunked calls.
	ChunkedRuns *telemetry.Counter
	// Chunks adds, per chunked call, the number of goroutines that actually
	// ran one of its chunks. Chunks/ChunkedRuns is the effective fan-out;
	// every call is split into min(n, Workers) chunks regardless.
	Chunks *telemetry.Counter
}

// Instruments builds the pool's instrument set on reg under the "pool."
// namespace. A nil registry yields nil (uninstrumented).
func Instruments(reg *telemetry.Registry) *Telemetry {
	if reg == nil {
		return nil
	}
	return &Telemetry{
		Runs:               reg.Counter("pool.runs"),
		Tasks:              reg.Counter("pool.tasks"),
		HelperSpawns:       reg.Counter("pool.helper_spawns"),
		SerialDegradations: reg.Counter("pool.serial_degradations"),
		PanicsRecovered:    reg.Counter("pool.panics_recovered"),
		HelpersActive:      reg.Gauge("pool.helpers_active"),
		ChunkedRuns:        reg.Counter("pool.chunked_runs"),
		Chunks:             reg.Counter("pool.chunks"),
	}
}

// SetTelemetry attaches (or detaches, with nil) the pool's instruments.
// Call it before the pool is shared between goroutines.
func (p *Pool) SetTelemetry(t *Telemetry) {
	if p != nil {
		p.tel = t
	}
}

// New returns a Pool allowing up to workers concurrently running tasks
// (including the goroutine that calls RunContext). workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 yields a serial pool.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	p.wake.L = &p.mu
	return p
}

// PanicError reports a task panic recovered by the pool. It satisfies
// error and carries the panic value plus the stack of the panicking
// goroutine, captured at recovery time.
type PanicError struct {
	// Task is the index of the task that panicked.
	Task int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: task %d panicked: %v", e.Task, e.Value)
}

// Unwrap exposes a wrapped error panic value (panic(err)) to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// callRange runs f(lo, hi), converting a panic into a *PanicError whose
// Task is the first index of the range.
func (p *Pool) callRange(f func(lo, hi int) error, lo, hi int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Task: lo, Value: v, Stack: debug.Stack()}
			if p != nil && p.tel != nil {
				p.tel.PanicsRecovered.Inc()
			}
		}
	}()
	return f(lo, hi)
}

// RunContext executes f(0) … f(n-1), sharing the work between the calling
// goroutine and any other pool goroutine that is free. It returns the error
// of the lowest-index failing task (all tasks still run). RunContext is safe
// to call concurrently and reentrantly.
//
// Once ctx is done, tasks that have not started are skipped and their slots
// report ctx.Err(), which participates in the usual lowest-index-error
// selection. Tasks already running are never interrupted — long tasks
// should poll ctx themselves. RunContext returns only after every started
// task has finished, so callers never observe in-flight tasks after it
// returns. A nil ctx disables cancellation.
func (p *Pool) RunContext(ctx context.Context, n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if p == nil || p.workers == 1 || n == 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			var err error
			if ctx != nil && ctx.Err() != nil {
				err = ctx.Err()
			} else {
				err = p.callRange(func(i, _ int) error { return f(i) }, i, i+1)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	return p.fork(&job{ctx: ctx, n: n, parts: n, f: func(i, _ int) error { return f(i) }})
}

// RunContextChunked executes f over the index range [0, n) split into
// min(n, Workers) contiguous chunks. Unlike RunContext — where every index
// is claimed on its own, so tasks migrate to whichever goroutine is free —
// each chunk is claimed whole by one goroutine, so state a participant
// acquires once per chunk (scratch buffers, Huffman slabs) serves every
// index in it instead of round-tripping through a global sync.Pool per
// index. The cost is static load balance: chunks are equal-sized, so one
// slow index stalls its chunk. Use it when per-index work is uniform
// (particle shards) and per-acquisition state dominates; use RunContext
// when task cost varies.
//
// The split does not depend on how busy the pool is: a call nested in a
// saturated pool still publishes min(n, Workers) chunks, and the caller
// runs those no other goroutine frees up to claim. f must poll ctx itself
// for cancellation inside a chunk; chunks not yet started when ctx is done
// are skipped and report ctx.Err(). The error of the lowest-indexed failing
// chunk is returned, and panics are contained as in RunContext.
func (p *Pool) RunContextChunked(ctx context.Context, n int, f func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if p == nil || p.workers == 1 || n == 1 {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return p.callRange(f, 0, n)
	}
	return p.fork(&job{ctx: ctx, n: n, parts: min(n, p.workers), chunked: true, f: f})
}

// fork publishes j, starts helpers into the free slots, and runs parts on
// the calling goroutine — j's own first, then any open call's — until j is
// finished and no helper is charged to it. It sleeps only while nothing
// anywhere is left to claim.
func (p *Pool) fork(j *job) error {
	j.errs = make([]error, j.parts)
	j.left = j.parts
	p.mu.Lock()
	p.loops++
	self := p.loops
	p.open = append(p.open, j)
	p.startHelpersLocked(j, min(p.workers-1-p.helpers, j.parts-1))
	p.wake.Broadcast() // sleeping callers can claim the new parts
	for j.left > 0 || j.helpers > 0 {
		if !p.runOneLocked(j, self) {
			p.wake.Wait()
		}
	}
	runners := len(j.runners)
	p.mu.Unlock()

	if t := p.tel; t != nil {
		if j.chunked {
			t.ChunkedRuns.Inc()
			t.Chunks.Add(int64(runners))
		} else {
			t.Runs.Inc()
			t.Tasks.Add(int64(j.n))
		}
		if runners == 1 {
			t.SerialDegradations.Inc()
		}
	}
	for _, err := range j.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runOneLocked claims one part — from prefer while it has any, else from
// the newest open call — and runs it with p.mu released. It reports false,
// without releasing p.mu, when no open call has an unclaimed part.
func (p *Pool) runOneLocked(prefer *job, loop int) bool {
	j := prefer
	if j.next == j.parts {
		if len(p.open) == 0 {
			return false
		}
		j = p.open[len(p.open)-1]
	}
	k := j.next
	j.next++
	if j.next == j.parts {
		i := slices.Index(p.open, j)
		p.open = slices.Delete(p.open, i, i+1)
	}
	if p.tel != nil && !slices.Contains(j.runners, loop) {
		j.runners = append(j.runners, loop)
	}
	p.mu.Unlock()
	if j.ctx != nil && j.ctx.Err() != nil {
		j.errs[k] = j.ctx.Err()
	} else {
		j.errs[k] = p.callRange(j.f, k*j.n/j.parts, (k+1)*j.n/j.parts)
	}
	p.mu.Lock()
	j.left--
	if j.left == 0 {
		p.wake.Broadcast() // j's caller may be asleep waiting for it
	}
	return true
}

// startHelpersLocked starts k helpers charged to j.
func (p *Pool) startHelpersLocked(j *job, k int) {
	if k <= 0 {
		return
	}
	p.helpers += k
	j.helpers += k
	if t := p.tel; t != nil {
		t.HelperSpawns.Add(int64(k))
		t.HelpersActive.Add(int64(k))
	}
	for ; k > 0; k-- {
		p.loops++
		go p.helper(j, p.loops)
	}
}

// helper runs parts, j's first, while j is unfinished and some open call
// has an unclaimed part. On leaving it frees its slot; if j finished while
// other calls still have unclaimed parts, it hands the slot to a fresh
// helper charged to the newest of them rather than leave the slot idle.
func (p *Pool) helper(j *job, loop int) {
	p.mu.Lock()
	for j.left > 0 {
		if !p.runOneLocked(j, loop) {
			break
		}
	}
	p.helpers--
	j.helpers--
	if p.tel != nil {
		p.tel.HelpersActive.Add(-1)
	}
	p.wake.Broadcast() // j's caller may be asleep waiting for us
	if len(p.open) > 0 {
		p.startHelpersLocked(p.open[len(p.open)-1], 1)
	}
	p.mu.Unlock()
}
