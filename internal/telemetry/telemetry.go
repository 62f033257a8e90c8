// Package telemetry is the stdlib-only observability substrate of the MDZ
// pipeline: atomic counters, gauges and fixed-bucket integer histograms
// collected in a Registry and exported as an immutable Snapshot (which
// marshals to JSON, as an expvar variable does) or as Prometheus text.
//
// # Design
//
// The hot path is lock-free: counters and gauges are single atomics, and a
// histogram observation is a short linear scan over its (immutable) bucket
// bounds plus two atomic adds. The Registry mutex guards only instrument
// registration, which happens once at pipeline construction.
//
// Every instrument is nil-safe: calling any method on a nil *Counter,
// *Gauge, *Histogram or *Registry is a no-op that performs no allocation
// and, for timers, never reads the clock. Pipeline code therefore holds
// plain instrument pointers that are nil when telemetry is disabled, so the
// disabled path compiles down to a predicted branch per call site.
//
// Histograms are integer-valued in an explicit base unit, conventionally
// nanoseconds for durations (DurationBounds) and bytes for sizes
// (SizeBounds); the unit belongs in the metric name (…".ns", …".bytes").
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is valid and ignores all updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative for Prometheus counter semantics).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value that may go up and down. The zero
// value is ready to use; a nil *Gauge is valid and ignores all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket integer histogram. Bounds are ascending
// inclusive upper limits; values above the last bound land in an implicit
// overflow bucket. The zero value is not usable — histograms come from
// Registry.Histogram — but a nil *Histogram is valid and ignores all
// observations.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is overflow
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Stopwatch times one operation into a duration histogram. The zero value
// (from a nil histogram) is valid: Stop is then a no-op and the clock is
// never read.
type Stopwatch struct {
	h  *Histogram
	t0 time.Time
}

// Start begins timing an operation. On a nil histogram it returns the zero
// Stopwatch without reading the clock, so a disabled timer costs one branch.
func (h *Histogram) Start() Stopwatch {
	if h == nil {
		return Stopwatch{}
	}
	return Stopwatch{h: h, t0: time.Now()}
}

// Stop records the elapsed nanoseconds since Start.
func (s Stopwatch) Stop() {
	if s.h == nil {
		return
	}
	s.h.Observe(time.Since(s.t0).Nanoseconds())
}

// DurationBounds returns the standard exponential duration bucket bounds in
// nanoseconds: 1µs to ~4.3s in ×4 steps. The slice is fresh and may be
// modified by the caller.
func DurationBounds() []int64 {
	bounds := make([]int64, 0, 12)
	for b := int64(1000); b <= 4<<30; b *= 4 { // 1µs … ~4.3s
		bounds = append(bounds, b)
	}
	return bounds
}

// SizeBounds returns the standard exponential size bucket bounds in bytes:
// 256B to 256MiB in ×4 steps.
func SizeBounds() []int64 {
	bounds := make([]int64, 0, 11)
	for b := int64(256); b <= 256<<20; b *= 4 {
		bounds = append(bounds, b)
	}
	return bounds
}

// CountBounds returns exponential bucket bounds for small cardinalities
// (alphabet sizes, shard counts): 4 to ~1M in ×4 steps.
func CountBounds() []int64 {
	bounds := make([]int64, 0, 10)
	for b := int64(4); b <= 1<<20; b *= 4 {
		bounds = append(bounds, b)
	}
	return bounds
}

// Registry is a named collection of instruments. Instruments are created
// on first lookup and shared thereafter, so independent pipeline components
// referring to the same metric name aggregate into one series. A nil
// *Registry is valid: every lookup returns a nil instrument and Snapshot
// returns nil, which disables instrumentation end to end.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if needed.
// A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds if needed (bounds must be ascending; they are
// copied). A later lookup of an existing histogram ignores bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		b := append([]int64(nil), bounds...)
		h = &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time export of a Registry, safe to retain, compare
// and serialize (it shares nothing with the live instruments).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is the exported state of one histogram. Buckets are
// cumulative (Prometheus "le" semantics) over the finite bounds; Count also
// covers the overflow bucket, so Count >= the last bucket's value.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one cumulative histogram bucket: the number of observations
// less than or equal to UpperBound.
type Bucket struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// Snapshot exports the registry's current state. A nil registry returns
// nil. Because observations are individually atomic but not coordinated,
// a snapshot taken while the pipeline runs is approximate (each instrument
// is internally consistent; cross-instrument invariants may lag).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Sum:     h.sum.Load(),
			Buckets: make([]Bucket, len(h.bounds)),
		}
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			hs.Buckets[i] = Bucket{UpperBound: b, Count: cum}
		}
		hs.Count = cum + h.buckets[len(h.bounds)].Load()
		s.Histograms[name] = hs
	}
	return s
}

// names returns the sorted instrument names of one kind, for deterministic
// exposition output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
