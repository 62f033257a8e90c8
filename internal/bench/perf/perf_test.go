package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	mdz "github.com/mdz/mdz"
)

// tiny shrinks a workload to a few hundred atoms and a handful of batches,
// keeping its kind and configuration.
func tiny(w *workload) *workload {
	t := *w
	t.atoms, t.baseSnaps = 250, 10
	// At least 3 passes run, so 10 ops per pass give the 20 samples a tail
	// percentile needs even on a slow (race-detector) build.
	t.batches = min(t.batches, 10)
	t.ranges = min(t.ranges, 10)
	if t.ingestHz > 0 {
		t.ingestHz, t.readHz, t.rotateAfter = 300, 300, 3
	}
	return &t
}

func tinyEnv(t *testing.T, w *workload, seed int64, trace bool) *env {
	t.Helper()
	d, err := w.generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	return &env{
		base: toFrames(d), seed: seed, budget: 150 * time.Millisecond, trace: trace,
		res: newRunResult(w.name, seed, trace),
	}
}

// TestPerfSmoke runs every workload at a tiny scale, untraced and traced,
// with every correctness check on, and checks that each run reports its
// full metric set.
func TestPerfSmoke(t *testing.T) {
	for _, full := range workloads {
		w := tiny(full)
		for _, trace := range []bool{false, true} {
			e := tinyEnv(t, w, 7, trace)
			if err := w.run(w, e); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			r := e.res
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.name, trace, r.Correct, r.Attempted, r.Failed, r.Problems)
			}
			if !trace {
				r.set("peak_rss_mb", 1, "MB")
			}
			line, err := resultLine(r)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var got struct {
				Correct   bool                       `json:"correct"`
				Attempted int64                      `json:"attempted"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(got.Metrics) != len(defs) || !got.Correct {
				t.Fatalf("%s trace=%v: %s", w.name, trace, line)
			}
			if !trace {
				for _, d := range endToEnd {
					if v := r.Metrics[d.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v)
					}
				}
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {499, 95}, {500, 98}, {999, 98}, {1000, 99}, {1 << 20, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: at least 10 samples lie beyond the percentile.
		if p := tailPercentile(c.n); p > 0 && float64(c.n)*(100-p)/100 < minBeyond {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond it", c.n, p, minBeyond)
		}
	}
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, pct := tail(xs, 99); pct != 95 {
		t.Errorf("300 samples asked for p99: got p%v, want the fallback p95", pct)
	}
	if _, pct := tail(xs, 90); pct != 90 {
		t.Errorf("300 samples asked for p90: got p%v, want p90", pct)
	}
}

// TestWindows checks that a run's timings are medians over its windows: a
// stalled window moves none of them, a partial last window is dropped, and
// a run too short to fill one window keeps what it measured.
func TestWindows(t *testing.T) {
	clean := make([]float64, 100)
	for i := range clean {
		clean[i] = 1 + float64(i)/100
	}
	var w windows
	for k := 0; k < 9; k++ {
		ops, busy := clean, time.Second
		if k == 4 {
			ops, busy = make([]float64, len(clean)), 50*time.Second
			for i, x := range clean {
				ops[i] = 50 * x
			}
		}
		w.add(100e6, busy, ops...)
		w.cut()
	}
	w.add(1e6, 10*time.Millisecond, 1e3) // left open by the end of the run
	w.finish()
	thr, p50, tl := w.metrics(90)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"throughput", thr.Value, 100},
		{"p50", p50.Value, median(clean)},
		{"p90", tl.Value, rankPercentile(clean, 90)},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if p50.Windows != 9 || p50.Samples != 900 || tl.Pct != 90 {
		t.Errorf("windows=%d samples=%d pct=%v, want 9, 900, 90", p50.Windows, p50.Samples, tl.Pct)
	}

	var short windows
	short.add(1e6, 100*time.Millisecond, clean[:30]...)
	short.finish()
	if _, p50, _ := short.metrics(90); p50.Windows != 1 || p50.Value != median(clean[:30]) {
		t.Errorf("short run: %d windows, p50 %v", p50.Windows, p50.Value)
	}

	// A window's tail is a nearest-rank percentile: one of its own values,
	// never an extrapolation past the largest.
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the input need not be sorted
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{6, 90, 6}, {60, 90, 54}, {100, 90, 90}, {600, 99, 594}, {150, 95, 143}, {1, 99, 1},
	} {
		if got := rankPercentile(seq(c.n), c.pct); got != c.want {
			t.Errorf("p%v of 1..%d = %v, want %v", c.pct, c.n, got, c.want)
		}
	}
}

// TestQuantileMatchesPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which is what an external checker
// of the benchmark's spread computes.
func TestQuantileMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		for i, p := range []float64{0.25, 0.5, 0.75} {
			if got := quantile(c.xs, p); math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, p, got, c.want[i])
			}
		}
	}
}

func TestABVerdict(t *testing.T) {
	ramp := func(base, step float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	a := ramp(100, 1, 10) // median 102, IQR 2.5
	for _, c := range []struct {
		name         string
		b            []float64
		higherBetter bool
		want         string
	}{
		{"clear gain", ramp(110, 1, 10), true, "B is better"},
		{"gain within A's spread", ramp(102, 1, 10), true, "no difference shown"},
		{"clear loss", ramp(90, 1, 10), true, "B is worse"},
		{"lower is better", ramp(90, 1, 10), false, "B is better"},
		{"too few pairs", ramp(110, 1, 9), true, "unresolved: fewer than 10 pairs"},
	} {
		if _, got := abVerdict(a, c.b, c.higherBetter); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// 9 wins and 1 tie of 10 pairs is 9 of 10: ties count for neither side.
	b := ramp(120, 1, 10)
	b[3] = a[3]
	if wins, got := abVerdict(a, b, true); wins != 9 || got != "B is better" {
		t.Errorf("9 wins + 1 tie: %d wins, %q", wins, got)
	}
	// 8 of 10 is not enough however large the gap.
	b[4] = a[4] - 50
	if wins, got := abVerdict(a, b, true); wins != 8 || got != "no difference shown" {
		t.Errorf("8 wins: %d wins, %q", wins, got)
	}
}

func TestCompareVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name         string
		cur          []float64
		higherBetter bool
		want         string
	}{
		{"same", scale(base, 1.01), true, unchanged},
		{"throughput drop", scale(base, 0.9), true, worse},
		{"throughput gain", scale(base, 1.1), true, better},
		{"latency rise", scale(base, 1.1), false, worse},
		{"spread wider than the bound", wide, true, unresolved},
		{"wide but every run worse", scale(wide, 0.5), true, worse},
	} {
		if got, _ := verdict(base, c.cur, c.higherBetter, 0.05); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	// A seed-exact metric allows no loss on any shared seed, however small
	// against the bound, and falls back to the bound without shared seeds.
	cr := map[int64]float64{1: 9.5, 2: 9.6, 3: 9.4}
	for _, c := range []struct {
		name   string
		cur    map[int64]float64
		want   string
		shared bool
	}{
		{"identical", map[int64]float64{1: 9.5, 2: 9.6, 3: 9.4}, unchanged, true},
		{"one seed slightly lower", map[int64]float64{1: 9.5, 2: 9.599, 3: 9.41}, worse, true},
		{"higher on a subset", map[int64]float64{2: 9.7}, better, true},
		{"no shared seed", map[int64]float64{11: 9.0}, unchanged, false},
	} {
		if got, shared := seedVerdict(cr, c.cur, true); got != c.want || shared != c.shared {
			t.Errorf("%s: seed verdict %q shared=%v, want %q shared=%v", c.name, got, shared, c.want, c.shared)
		}
	}
}

// TestWorkloadInputs keeps the inputs honest: every base holds several
// distinct batches, and at least one workload writes a pass with no
// replayed batch, where a gain that only repeated input gives cannot show.
func TestWorkloadInputs(t *testing.T) {
	fresh := false
	for _, w := range workloads {
		if w.baseSnaps%bs != 0 || w.baseSnaps/bs < minBaseBatches {
			t.Errorf("%s: base of %d snapshots, want a multiple of %d with at least %d batches", w.name, w.baseSnaps, bs, minBaseBatches)
		}
		if w.ingestHz == 0 && w.batches*bs <= w.baseSnaps {
			fresh = true
		}
	}
	if !fresh {
		t.Error("every workload replays its base within a pass")
	}
}

// TestCorruptStreamIsAFailure checks that damaged containers surface as
// failed operations with an error, never as a crash.
func TestCorruptStreamIsAFailure(t *testing.T) {
	w := tiny(workloads[0])
	e := tinyEnv(t, w, 3, false)
	n := 3 * bs
	var buf bytes.Buffer
	if _, err := writePass(e, mdz.Config{ErrorBound: w.eps}, n, &buf); err != nil {
		t.Fatal(err)
	}
	b := axisBounds(e.base, w.eps)
	good := buf.Bytes()
	if _, err := verifyContainer(good, e, n, b, mdz.ReaderOptions{}, nil); err != nil {
		t.Fatalf("clean container: %v", err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x5a
	for name, c := range map[string][]byte{
		"flipped byte": flipped,
		"truncated":    good[:len(good)*2/3],
		"empty":        nil,
		"not mdz":      []byte("definitely not a container"),
	} {
		_, err := verifyContainer(c, e, n, b, mdz.ReaderOptions{}, nil)
		if err == nil {
			t.Errorf("%s: verified clean", name)
		}
		r := newRunResult(w.name, 3, false)
		r.op(err)
		if r.Correct || r.Failed != 1 || r.Attempted != 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", name, r.Correct, r.Failed, r.Attempted)
		}
	}
	for _, c := range [][]byte{nil, []byte("definitely not a container")} {
		if _, _, _, err := rangedRead(c, bs, mdz.ReaderOptions{}, nil); err == nil {
			t.Errorf("ranged read of %q succeeded", c)
		}
	}
	if _, err := dataFrames(good[:len(good)-1]); err == nil {
		t.Error("frame split of a cut container succeeded")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every workload and metric name against the
// benchmark contract's character set, and that BENCHMARK.json at the
// repository root lists exactly the workloads and metrics this program
// reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: reason is %d characters", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}

	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better || s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, s, d)
		}
	}
	for i, d := range perLayer {
		if s := spec.PerLayer[i]; s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, s, d)
		}
	}
}
