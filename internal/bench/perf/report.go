package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Metric is one reported number with its unit and the observations
// behind it. P25/P75 are the sample quartiles when Samples > 1, or the
// quartiles over windows for a windowed metric; Pct is the percentile a
// tail metric reports.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Windows int     `json:"windows,omitempty"`
	P25     float64 `json:"p25,omitempty"`
	P75     float64 `json:"p75,omitempty"`
	Pct     float64 `json:"pct,omitempty"`
}

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of MDZ sees. Every workload reports
// every one of them; "op" is the workload's defining operation (see
// README.md): a batch flush, a cold ranged read, or an ingest request.
var endToEnd = []metricDef{
	{"throughput_mbps", "MB/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"compression_ratio", "x", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, from the traced run. Every
// workload reports every one; a layer a workload does not exercise reads 0,
// and only counts, fractions and sizes can be such zeros.
var perLayer = []metricDef{
	{"kmeans.fit_ms", "ms", "lower"},
	{"quant.enc_ns_per_value", "ns/value", "lower"},
	{"quant.dec_ns_per_value", "ns/value", "lower"},
	{"quant.outlier_frac", "fraction", "lower"},
	{"huffman.enc_ns_per_value", "ns/value", "lower"},
	{"huffman.dec_ns_per_value", "ns/value", "lower"},
	{"huffman.table_bytes_per_shard", "B", "lower"},
	{"lossless.enc_ns_per_value", "ns/value", "lower"},
	{"lossless.dec_ns_per_value", "ns/value", "lower"},
	{"lossless.out_in_ratio", "fraction", "lower"},
	{"core.adp_evals", "count", "lower"},
	{"core.adp_useful_frac", "fraction", "higher"},
	{"core.enc_busy_ns_per_value", "ns/value", "lower"},
	{"core.dec_busy_ns_per_value", "ns/value", "lower"},
	{"pool.fanout", "count", "higher"},
	{"pool.serial_degradation_frac", "fraction", "lower"},
	{"mdz.write_self_ns_per_value", "ns/value", "lower"},
	{"mdz.framing_bytes_frac", "fraction", "lower"},
	{"mdz.checkpoint_bytes_frac", "fraction", "lower"},
	{"mdz.seek_p50_ms", "ms", "lower"},
	{"mdz.range_decode_p50_ms", "ms", "lower"},
	{"sink.write_ns_per_byte", "ns/B", "lower"},
	{"daemon.ingest_handler_frac", "fraction", "lower"},
	{"daemon.read_handler_frac", "fraction", "lower"},
	{"daemon.mem_peak_mb", "MB", "lower"},
	{"daemon.rejections", "count", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"runtime.alloc_b_per_value", "B/value", "lower"},
	{"harness.unattributed_frac", "fraction", "lower"},
	{"harness.trace_overhead_frac", "fraction", "lower"},
	{"harness.gen_late_frac", "fraction", "lower"},
}

// RunResult is everything one run of one workload measured. A child
// process prints it as its last line; the parent folds it into a Report.
type RunResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	GenS      float64           `json:"gen_s"`
	Metrics   map[string]Metric `json:"metrics"`
	// Info holds workload-specific numbers outside the BENCHMARK.json set,
	// such as mdzd's live-read latency.
	Info map[string]Metric `json:"info,omitempty"`
	AB   *ABResult         `json:"ab,omitempty"`
}

func newRunResult(workload string, seed int64, trace bool) *RunResult {
	return &RunResult{
		Workload: workload, Seed: seed, Trace: trace, Correct: true,
		Metrics: map[string]Metric{}, Info: map[string]Metric{},
	}
}

// op records the outcome of one operation. A failed one also makes the
// run incorrect; the first few causes are kept for the report.
func (r *RunResult) op(err error) {
	r.Attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failed operation or check.
func (r *RunResult) fail(err error) {
	r.Failed++
	r.Correct = false
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, err.Error())
	}
}

// set records a metric value measured once.
func (r *RunResult) set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, Samples: 1}
}

// resultLine renders a single run's result line: exactly correct,
// attempted, failed and metrics, where metrics holds the end-to-end set
// (untraced) or the per-layer set (traced), each as value and unit.
func resultLine(r *RunResult) ([]byte, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		ms[d.Name] = vu{m.Value, d.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct && r.Failed == 0, attempted, r.Failed, ms})
}

// Report is the one schema every -json file uses: the host, every run, and
// one row per workload × end-to-end metric aggregated over the runs.
type Report struct {
	Provenance Provenance  `json:"provenance"`
	Runs       []RunResult `json:"runs"`
	Rows       []Row       `json:"rows"`
}

// Row aggregates one workload × metric over a set of runs (seeds).
type Row struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	P25      float64   `json:"p25"`
	P75      float64   `json:"p75"`
	// Samples is the observation count behind each run's value, summed.
	Samples int `json:"samples"`
}

// buildRows aggregates the untraced runs into rows, in workload then
// metric order.
func buildRows(runs []RunResult) []Row {
	var rows []Row
	for _, w := range workloadNames() {
		for _, d := range endToEnd {
			row := Row{Workload: w, Metric: d.Name, Unit: d.Unit, Better: d.Better}
			for _, r := range runs {
				if r.Workload != w || r.Trace {
					continue
				}
				if m, ok := r.Metrics[d.Name]; ok {
					row.Values = append(row.Values, m.Value)
					row.Samples += m.Samples
				}
			}
			if len(row.Values) == 0 {
				continue
			}
			row.Median = median(row.Values)
			row.P25, row.P75 = quantile(row.Values, 0.25), quantile(row.Values, 0.75)
			rows = append(rows, row)
		}
	}
	return rows
}

func writeReport(path string, rep *Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// spec is the part of BENCHMARK.json the compare path reads: each
// end-to-end metric's regression bound. The direction comes from endToEnd,
// which a test keeps equal to BENCHMARK.json.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range s.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// Verdicts of a comparison row.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict compares one metric's runs against the base runs. A median that
// moved by more than bound (a share of the base median) in the worse
// direction is a regression. When either side's own spread is wider than
// the bound the median says nothing: the row is unresolved unless every
// run of one side beats every run of the other.
func verdict(base, cur []float64, higherBetter bool, bound float64) (string, float64) {
	sign := 1.0 // sign*(a-b) > 0 means a is better than b
	if !higherBetter {
		sign = -1
	}
	mb := median(base)
	change := sign * (median(cur) - mb) / math.Abs(mb)
	allBetter, allWorse := true, true
	for _, c := range cur {
		for _, b := range base {
			if sign*(c-b) <= 0 {
				allBetter = false
			}
			if sign*(c-b) >= 0 {
				allWorse = false
			}
		}
	}
	if spread(base) > bound || spread(cur) > bound {
		switch {
		case allBetter && change > bound:
			return better, change
		case allWorse && -change > bound:
			return worse, change
		}
		return unresolved, change
	}
	switch {
	case change < -bound:
		return worse, change
	case change > bound:
		return better, change
	}
	return unchanged, change
}

// seedExact names the end-to-end metrics that are exact functions of the
// seed. Where the base and the current report share seeds, compare pairs
// their runs by seed and allows no loss on any seed, whatever the bound.
var seedExact = map[string]bool{"compression_ratio": true}

// seedVerdict compares a seed-exact metric run by run: any seed on which
// the current value is worse makes the row worse. It reports whether the
// reports share a seed at all.
func seedVerdict(base, cur map[int64]float64, higherBetter bool) (string, bool) {
	v, shared := unchanged, false
	for seed, c := range cur {
		b, ok := base[seed]
		if !ok {
			continue
		}
		shared = true
		d := c - b
		if !higherBetter {
			d = -d
		}
		switch {
		case d < 0:
			return worse, true
		case d > 0:
			v = better
		}
	}
	return v, shared
}

// bySeed is a workload's untraced values of one metric, by seed.
func bySeed(runs []RunResult, workload, metric string) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out[r.Seed] = m.Value
		}
	}
	return out
}

// compare prints one line per workload × end-to-end metric and reports
// whether the current runs regressed: a "worse" row, a failed correctness
// check, or a higher share of failed operations than the base.
func compare(w io.Writer, base, cur *Report, bounds map[string]float64) (regressed bool) {
	baseRows := map[string]Row{}
	for _, r := range base.Rows {
		baseRows[r.Workload+"/"+r.Metric] = r
	}
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "base", "current", "change", "bound", "verdict")
	for _, r := range cur.Rows {
		b, ok := baseRows[r.Workload+"/"+r.Metric]
		bound, known := bounds[r.Metric]
		if !ok || !known {
			fmt.Fprintf(w, "%-13s %-18s %12s %12.4g %8s %6s  %s\n", r.Workload, r.Metric, "-", r.Median, "-", "-", "no base")
			continue
		}
		v, change := verdict(b.Values, r.Values, r.Better == "higher", bound)
		boundCol := fmt.Sprintf("%5.1f%%", 100*bound)
		if seedExact[r.Metric] {
			sv, shared := seedVerdict(bySeed(base.Runs, r.Workload, r.Metric), bySeed(cur.Runs, r.Workload, r.Metric), r.Better == "higher")
			if shared {
				v, boundCol = sv, "exact"
			}
		}
		if v == worse {
			regressed = true
		}
		fmt.Fprintf(w, "%-13s %-18s %12.4g %12.4g %+7.1f%% %6s  %s\n",
			r.Workload, r.Metric, b.Median, r.Median, 100*change, boundCol, v)
	}
	for _, wl := range workloadNames() {
		fb, fc := failShare(base.Runs, wl), failShare(cur.Runs, wl)
		if fc > fb {
			fmt.Fprintf(w, "%s: failed-operation share rose from %.4g to %.4g\n", wl, fb, fc)
			regressed = true
		}
	}
	for _, r := range cur.Runs {
		if !r.Correct {
			fmt.Fprintf(w, "%s seed %d: correctness check failed: %s\n", r.Workload, r.Seed, strings.Join(r.Problems, "; "))
			regressed = true
		}
	}
	return regressed
}

// failShare is failed ÷ attempted operations over a workload's runs.
func failShare(runs []RunResult, workload string) float64 {
	var a, f int64
	for _, r := range runs {
		if r.Workload == workload {
			a += r.Attempted
			f += r.Failed
		}
	}
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// printRun writes a run's metrics, one per line, with unit and sample
// count.
func printRun(w io.Writer, r *RunResult) {
	defs := endToEnd
	kind := "end-to-end"
	if r.Trace {
		defs, kind = perLayer, "per-layer"
	}
	fmt.Fprintf(w, "== %s seed %d (%s): correct=%v attempted=%d failed=%d gen_s=%.2f\n",
		r.Workload, r.Seed, kind, r.Correct, r.Attempted, r.Failed, r.GenS)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   FAILED: %s\n", p)
	}
	line := func(name string, m Metric) {
		pct := ""
		if m.Pct > 0 {
			pct = fmt.Sprintf(" (p%g)", m.Pct)
		}
		iqr := ""
		switch {
		case m.Windows > 0:
			iqr = fmt.Sprintf("  median of %d windows [p25 %.4g, p75 %.4g]", m.Windows, m.P25, m.P75)
		case m.Samples > 1 && m.Pct == 0:
			iqr = fmt.Sprintf("  [p25 %.4g, p75 %.4g]", m.P25, m.P75)
		}
		fmt.Fprintf(w, "   %-32s %14.6g %-9s n=%d%s%s\n", name, m.Value, m.Unit, m.Samples, pct, iqr)
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			line(d.Name, m)
		}
	}
	names := make([]string, 0, len(r.Info))
	for n := range r.Info {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line("info."+n, r.Info[n])
	}
}
