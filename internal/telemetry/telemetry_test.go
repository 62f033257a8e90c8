package telemetry

import (
	"encoding/json"
	"expvar"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 1+10+11+100+5000 {
		t.Fatalf("sum = %d", s.Sum)
	}
	// Cumulative: le=10 → 2, le=100 → 4, le=1000 → 4; overflow in Count.
	want := []Bucket{{10, 2}, {100, 4}, {1000, 4}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", DurationBounds())
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(5)
	h.Start().Stop()
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledPathAllocs asserts the disabled (nil-handle) hot path never
// allocates: this is what lets instrumentation stay compiled into the
// pipeline at near-zero cost when telemetry is off.
func TestDisabledPathAllocs(t *testing.T) {
	var r *Registry
	var c *Counter
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(7)
		h.Observe(42)
		sw := h.Start()
		sw.Stop()
		_ = r.Counter("name")
		_ = r.Histogram("name", nil)
		_ = r.Gauge("name")
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocated %v per op, want 0", allocs)
	}
}

// TestEnabledObserveAllocs asserts the enabled hot path (counter add,
// histogram observe) is allocation-free too — only registration allocates.
func TestEnabledObserveAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", DurationBounds())
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("enabled observe path allocated %v per op, want 0", allocs)
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", []int64{8})
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(int64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	s := r.Snapshot().Histograms["h"]
	if s.Count != workers*each {
		t.Fatalf("hist count = %d, want %d", s.Count, workers*each)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("compress.batches").Add(3)
	r.Gauge("pool.helpers_active").Set(2)
	h := r.Histogram("compress.stage.huffman.ns", []int64{1000, 1000000})
	h.Observe(500)
	h.Observe(2000000)

	rec := httptest.NewRecorder()
	Handler(r, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE mdz_compress_batches_total counter",
		"mdz_compress_batches_total 3",
		"# TYPE mdz_pool_helpers_active gauge",
		"mdz_pool_helpers_active 2",
		"# TYPE mdz_compress_stage_huffman_ns histogram",
		`mdz_compress_stage_huffman_ns_bucket{le="1000"} 1`,
		`mdz_compress_stage_huffman_ns_bucket{le="+Inf"} 2`,
		"mdz_compress_stage_huffman_ns_sum 2000500",
		"mdz_compress_stage_huffman_ns_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, body)
		}
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
}

func TestExpvarAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(9)
	r.Histogram("h", []int64{10}).Observe(3)
	// The JSON a published expvar.Func of the snapshot serves.
	raw := expvar.Func(func() any { return r.Snapshot() }).String()
	var decoded Snapshot
	if err := json.Unmarshal([]byte(raw), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Counters["c"] != 9 {
		t.Fatalf("roundtripped counter = %d, want 9", decoded.Counters["c"])
	}
	if decoded.Histograms["h"].Count != 1 {
		t.Fatalf("roundtripped hist count = %d, want 1", decoded.Histograms["h"].Count)
	}
}

func TestStandardBounds(t *testing.T) {
	for _, bounds := range [][]int64{DurationBounds(), SizeBounds(), CountBounds()} {
		if len(bounds) == 0 {
			t.Fatal("empty bounds")
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("bounds not ascending: %v", bounds)
			}
		}
	}
}
