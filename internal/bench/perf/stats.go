package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 < p < 1) of xs by the "exclusive"
// rule Python's statistics.quantiles uses by default — including its
// extrapolation past the extremes for tiny samples — so the quartiles
// printed here match the ones an external checker computes from the same
// values. xs need not be sorted and is not modified.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(n+1) // 1-based rank
	j := int(math.Floor(pos))
	j = max(1, min(j, n-1))
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rankPercentile is the nearest-rank pct-th percentile of xs: the smallest
// value with at least pct% of xs at or below it. Unlike quantile it never
// extrapolates past the largest value, which matters for the few ops of a
// single window. xs must not be empty.
func rankPercentile(xs []float64, pct float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(pct*float64(len(s))/100-1e-9)) - 1
	return s[max(0, min(k, len(s)-1))]
}

// medianOr0 is the median, or 0 for a layer the run did not exercise.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// tailLadder lists the tail percentiles a report may use, highest first.
// A fixed ladder keeps a workload on one rung across runs whose sample
// counts differ slightly; a continuous "1 − 10/n" would move with every run.
var tailLadder = []float64{99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile reports the highest ladder percentile that has at least
// minBeyond of n samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 0
}

// tail reports xs at the workload's declared percentile want, or at the
// highest percentile the sample count supports when that is lower.
func tail(xs []float64, want float64) (value, pct float64) {
	pct = tailPercentile(len(xs))
	if want < pct {
		pct = want
	}
	if pct == 0 {
		return math.NaN(), 0
	}
	return quantile(xs, pct/100), pct
}

// windows splits a run's measured work into consecutive windows — a pass,
// or a second of mdzd's schedule — and reduces every timing per window.
// The run reports the median over its windows, so a stall or a slow phase
// of a shared host moves only the windows it falls in, not the run's value.
type windows struct {
	ops  [][]float64 // op times, ms, per closed window
	mbps []float64   // raw MB ÷ busy seconds, per closed window
	// The open window.
	cur   []float64
	bytes float64
	busy  time.Duration
}

// add records measured work into the open window: raw bytes processed in
// busy time, and the times of the ops it held, in ms.
func (w *windows) add(bytes int64, busy time.Duration, ops ...float64) {
	w.bytes += float64(bytes)
	w.busy += busy
	w.cur = append(w.cur, ops...)
}

// cut closes the open window, if it holds any work.
func (w *windows) cut() {
	if w.busy > 0 && len(w.cur) > 0 {
		w.ops = append(w.ops, w.cur)
		w.mbps = append(w.mbps, w.bytes/1e6/w.busy.Seconds())
	}
	w.cur, w.bytes, w.busy = nil, 0, 0
}

// finish ends the run. A partial last window is dropped, unless the run
// was too short to close any window at all.
func (w *windows) finish() {
	if len(w.ops) > 0 {
		w.cur, w.bytes, w.busy = nil, 0, 0
	}
	w.cut()
}

// pooled is every op time in the closed windows.
func (w *windows) pooled() []float64 {
	var all []float64
	for _, ops := range w.ops {
		all = append(all, ops...)
	}
	return all
}

// metrics reduces the windows to the run's throughput, median op time and
// tail op time at percentile want, or at the highest percentile the run's
// op count supports when that is lower. Each is the median over windows.
func (w *windows) metrics(want float64) (thr, p50, tailM Metric) {
	n := len(w.pooled())
	pct := min(want, tailPercentile(n))
	var p50s, tails []float64
	for _, ops := range w.ops {
		p50s = append(p50s, median(ops))
		tails = append(tails, rankPercentile(ops, pct))
	}
	thr, p50, tailM = windowed(w.mbps, "MB/s", n), windowed(p50s, "ms", n), windowed(tails, "ms", n)
	tailM.Pct = pct
	if pct == 0 {
		tailM.Value = math.NaN()
	}
	return thr, p50, tailM
}

// windowed is the median over per-window values, with the quartiles over
// windows and the run's op count as its sample count.
func windowed(perWindow []float64, unit string, ops int) Metric {
	m := summary(perWindow, unit)
	m.Samples, m.Windows = ops, len(perWindow)
	return m
}

// summary turns a sample into a reported metric: its median and quartiles.
func summary(xs []float64, unit string) Metric {
	return Metric{
		Value: median(xs), Unit: unit, Samples: len(xs),
		P25: quantile(xs, 0.25), P75: quantile(xs, 0.75),
	}
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	return math.Abs(quantile(xs, 0.75)-quantile(xs, 0.25)) / math.Abs(m)
}
