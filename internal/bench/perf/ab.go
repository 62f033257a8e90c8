package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	mdz "github.com/mdz/mdz"
)

// knobs are the execution and format settings an A/B run varies, by
// mdz.Config or mdz.ReaderOptions field name. Absent keys keep the
// workload's configuration.
type knobs map[string]int

// configKnobs are the mdz.Config fields -ab accepts; readerKnobs the
// mdz.ReaderOptions ones. Workers is both: it sizes the pool on each side.
var (
	configKnobs = []string{"FormatVersion", "PipelineDepth", "Workers", "Shards", "ADPSampleShards", "ADPRetrialInterval", "AdaptInterval"}
	readerKnobs = []string{"Pipeline", "Workers"}
)

func (k knobs) config(c mdz.Config) mdz.Config {
	for key, v := range k {
		switch key {
		case "FormatVersion":
			c.FormatVersion = v
		case "PipelineDepth":
			c.PipelineDepth = v
		case "Workers":
			c.Workers = v
		case "Shards":
			c.Shards = v
		case "ADPSampleShards":
			c.ADPSampleShards = v
		case "ADPRetrialInterval":
			c.ADPRetrialInterval = v
		case "AdaptInterval":
			c.AdaptInterval = v
		}
	}
	return c
}

func (k knobs) reader(o mdz.ReaderOptions) mdz.ReaderOptions {
	for key, v := range k {
		switch key {
		case "Pipeline":
			o.Pipeline = v
		case "Workers":
			o.Workers = v
		}
	}
	return o
}

// abSpec is a parsed -ab flag: one knob and the values of arms A and B.
type abSpec struct {
	Key  string
	A, B int
}

// parseAB parses "Key=v1,v2" and checks that the key means something on
// the workload: writer knobs shape the insitu passes, reader knobs and
// FormatVersion the archive-read passes.
func parseAB(s, workload string) (abSpec, error) {
	key, vals, ok := strings.Cut(s, "=")
	a, b, ok2 := strings.Cut(vals, ",")
	if !ok || !ok2 {
		return abSpec{}, fmt.Errorf("-ab %q: want Key=v1,v2", s)
	}
	va, err := strconv.Atoi(a)
	if err != nil {
		return abSpec{}, fmt.Errorf("-ab %q: %w", s, err)
	}
	vb, err := strconv.Atoi(b)
	if err != nil {
		return abSpec{}, fmt.Errorf("-ab %q: %w", s, err)
	}
	var allowed []string
	switch workload {
	case "insitu-long", "insitu-wide":
		allowed = configKnobs
	case "archive-read":
		allowed = append([]string{"FormatVersion"}, readerKnobs...)
	default:
		return abSpec{}, fmt.Errorf("-ab needs -workload insitu-long, insitu-wide or archive-read, got %q", workload)
	}
	for _, k := range allowed {
		if k == key {
			return abSpec{Key: key, A: va, B: vb}, nil
		}
	}
	return abSpec{}, fmt.Errorf("-ab: %s does not apply to %s (use one of %v)", key, workload, allowed)
}

// ABArm summarizes one arm: its pass throughputs and compression ratio.
type ABArm struct {
	Value  int       `json:"value"`
	Passes []float64 `json:"passes_mbps"`
	Median float64   `json:"median_mbps"`
	P25    float64   `json:"p25_mbps"`
	P75    float64   `json:"p75_mbps"`
	Ratio  float64   `json:"compression_ratio"`
}

// ABResult is an interleaved A/B comparison of one knob.
type ABResult struct {
	Key     string `json:"key"`
	A       ABArm  `json:"a"`
	B       ABArm  `json:"b"`
	Pairs   int    `json:"pairs"`
	WinsB   int    `json:"wins_b"`
	Verdict string `json:"verdict"`
}

// minPairs is the fewest A/B pairs a verdict may rest on.
const minPairs = 10

// abVerdict applies the gain rule to paired results (pair i is a[i],
// b[i]): an arm gains only when it wins at least 9 of every 10 pairs, ties
// counting for neither, and its median beats the other's by more than the
// interquartile range of A, the baseline. It returns B's wins and the
// verdict.
func abVerdict(a, b []float64, higherBetter bool) (int, string) {
	pairs := min(len(a), len(b))
	winsA, winsB := 0, 0
	for i := 0; i < pairs; i++ {
		d := b[i] - a[i]
		if !higherBetter {
			d = -d
		}
		switch {
		case d > 0:
			winsB++
		case d < 0:
			winsA++
		}
	}
	if pairs < minPairs {
		return winsB, "unresolved: fewer than 10 pairs"
	}
	gap := median(b) - median(a)
	if !higherBetter {
		gap = -gap
	}
	iqr := math.Abs(quantile(a, 0.75) - quantile(a, 0.25))
	switch {
	case 10*winsB >= 9*pairs && gap > iqr:
		return winsB, "B is better"
	case 10*winsA >= 9*pairs && -gap > iqr:
		return winsB, "B is worse"
	}
	return winsB, "no difference shown"
}

// runAB alternates the two arms pass by pass in ABBA order, so drift of
// the host over the run falls on both arms alike, and compares their pass
// throughput.
func runAB(w *workload, e *env, ab abSpec) error {
	arms := [2]knobs{{ab.Key: ab.A}, {ab.Key: ab.B}}
	var pass [2]func() (float64, error)
	var ratio [2]float64
	for i, k := range arms {
		p, r, err := abPass(w, e, k)
		if err != nil {
			return err
		}
		pass[i], ratio[i] = p, r
	}
	var got [2][]float64
	for arm := 0; arm < 2; arm++ { // warm-up, once per arm
		if _, err := pass[arm](); err != nil {
			return err
		}
	}
	start := time.Now()
	for len(got[0]) < minPairs || time.Since(start) < e.budget {
		for _, arm := range [4]int{0, 1, 1, 0} {
			v, err := pass[arm]()
			e.res.op(err)
			if err != nil {
				return nil
			}
			got[arm] = append(got[arm], v)
		}
	}
	res := &ABResult{Key: ab.Key}
	for i, dst := range []*ABArm{&res.A, &res.B} {
		*dst = ABArm{
			Value: []int{ab.A, ab.B}[i], Passes: got[i], Ratio: ratio[i],
			Median: median(got[i]), P25: quantile(got[i], 0.25), P75: quantile(got[i], 0.75),
		}
	}
	res.Pairs = min(len(got[0]), len(got[1]))
	res.WinsB, res.Verdict = abVerdict(got[0], got[1], true)
	e.res.AB = res
	return nil
}

// abPass prepares one arm and returns a function that runs one timed pass
// of it (reporting MB/s) and the arm's compression ratio. Insitu arms write
// the replayed base through a fresh Writer; archive-read arms stream-decode
// an archive written with the arm's configuration.
func abPass(w *workload, e *env, k knobs) (func() (float64, error), float64, error) {
	b := axisBounds(e.base, w.eps)
	n := w.batches * bs
	raw := float64(e.rawBytes(n))
	if w.name == "archive-read" {
		var buf bytes.Buffer
		cfg := k.config(w.config())
		if _, err := writePass(e, cfg, n, &buf); err != nil {
			return nil, 0, err
		}
		ro := k.reader(mdz.ReaderOptions{})
		c := buf.Bytes()
		if _, err := verifyContainer(c, e, n, b, ro, nil); err != nil {
			return nil, 0, err
		}
		return func() (float64, error) {
			t := time.Now()
			_, got, err := streamDecode(c, ro)
			if err == nil && got != n {
				err = fmt.Errorf("decoded %d snapshots, want %d", got, n)
			}
			return raw / 1e6 / time.Since(t).Seconds(), err
		}, raw / float64(len(c)), nil
	}
	cfg := k.config(w.config())
	var buf bytes.Buffer
	if _, err := writePass(e, cfg, n, &buf); err != nil {
		return nil, 0, err
	}
	if _, err := verifyContainer(buf.Bytes(), e, n, b, mdz.ReaderOptions{}, nil); err != nil {
		return nil, 0, err
	}
	var det determinism
	if err := det.check(buf.Bytes()); err != nil {
		return nil, 0, err
	}
	return func() (float64, error) {
		buf.Reset()
		s, err := writePass(e, cfg, n, &buf)
		if err == nil {
			err = det.check(buf.Bytes())
		}
		return raw / 1e6 / s.wall.Seconds(), err
	}, raw / float64(buf.Len()), nil
}

// printAB writes an A/B result.
func printAB(w io.Writer, r *ABResult) {
	fmt.Fprintf(w, "A/B %s: %d pairs, ABBA order\n", r.Key, r.Pairs)
	for _, arm := range []struct {
		name string
		a    ABArm
	}{{"A", r.A}, {"B", r.B}} {
		fmt.Fprintf(w, "   %s %s=%d  median %.1f MB/s  [p25 %.1f, p75 %.1f]  n=%d  CR %.3f\n",
			arm.name, r.Key, arm.a.Value, arm.a.Median, arm.a.P25, arm.a.P75, len(arm.a.Passes), arm.a.Ratio)
	}
	fmt.Fprintf(w, "   B won %d of %d pairs: %s\n", r.WinsB, r.Pairs, r.Verdict)
}
