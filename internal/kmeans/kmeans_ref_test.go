package kmeans

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/mdz/mdz/internal/dataset"
	"github.com/mdz/mdz/internal/gen"
)

// This file keeps the historical recursive layer fill verbatim as the
// reference for differential testing: Cluster1D with the stack-based
// fillLayer must produce a Result bit-identical to the same pipeline run
// with fillLayerRef.

// fillLayerRef is the historical recursive fillLayer.
func fillLayerRef(ps prefixSums, prev, cur []float64, row []int32, k, lo, hi, optLo, optHi int) {
	if lo > hi {
		return
	}
	mid := (lo + hi) / 2
	bestCost := math.Inf(1)
	bestI := optLo
	iHi := optHi
	if iHi > mid-1 {
		iHi = mid - 1 // last cluster i..mid-1 must be non-empty
	}
	iLo := optLo
	if iLo < k-1 {
		iLo = k - 1 // need at least k-1 points before the last cluster
	}
	for i := iLo; i <= iHi; i++ {
		// Last cluster covers points i..mid-1 (0-based), i.e. i+1..mid in
		// 1-based "count" terms with split H = i+1.
		c := prev[i] + ps.cost(i, mid-1)
		if c < bestCost {
			bestCost = c
			bestI = i
		}
	}
	cur[mid] = bestCost
	row[mid] = int32(bestI)
	fillLayerRef(ps, prev, cur, row, k, lo, mid-1, optLo, bestI)
	fillLayerRef(ps, prev, cur, row, k, mid+1, hi, bestI, optHi)
}

// checkMatchesReference clusters data with the production and reference
// layer fills and requires bit-identical Results (errors included).
func checkMatchesReference(t *testing.T, name string, data []float64, opts Options) {
	t.Helper()
	got, gerr := Cluster1D(data, opts)
	want, werr := cluster1D(data, opts, fillLayerRef)
	if gerr != werr {
		t.Fatalf("%s: err = %v, reference %v", name, gerr, werr)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.K != want.K || len(got.Centers) != len(want.Centers) ||
		!same(got.Cost, want.Cost) || !same(got.LevelDistance, want.LevelDistance) ||
		!same(got.LevelOrigin, want.LevelOrigin) || !same(got.SpacingRSD, want.SpacingRSD) {
		t.Fatalf("%s: result %+v, reference %+v", name, got, want)
	}
	for i := range got.Centers {
		if !same(got.Centers[i], want.Centers[i]) {
			t.Fatalf("%s: center %d = %v, reference %v", name, i, got.Centers[i], want.Centers[i])
		}
	}
}

func TestClusterMatchesReference(t *testing.T) {
	t.Run("md-analogs", func(t *testing.T) {
		if raceEnabled {
			// Simulating the analogs takes over a minute under the race
			// detector, which has nothing to check in the single-threaded
			// fit; the race-free run covers them.
			t.Skip("MD analog generation is too slow under -race")
		}
		for _, name := range gen.MDNames() {
			d, err := gen.Generate(name, gen.Options{Snapshots: 1, Atoms: 1000})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range dataset.Axes {
				for _, frac := range []float64{0.1, 1} {
					checkMatchesReference(t, name+"/"+a.String(), d.Frames[0].Axis(a), Options{SampleFraction: frac, Seed: 1})
				}
			}
		}
	})

	t.Run("synthetic", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 250; trial++ {
			n := 1 + rng.Intn(600)
			data := make([]float64, n)
			switch trial % 5 {
			case 0: // uniform random
				for i := range data {
					data[i] = rng.Float64()*200 - 100
				}
			case 1: // a few vibrating levels
				k, lambda := 1+rng.Intn(6), 0.5+rng.Float64()*3
				for i := range data {
					data[i] = float64(rng.Intn(k))*lambda + rng.NormFloat64()*0.02
				}
			case 2: // constant
				for i := range data {
					data[i] = 3.25
				}
			case 3: // an evenly spaced grid: symmetric, exactly tied splits
				data = data[:min(n, 2+trial%60)]
				for i := range data {
					data[i] = float64(i)
				}
			case 4: // NaN- and Inf-laden levels
				for i := range data {
					switch rng.Intn(8) {
					case 0:
						data[i] = math.NaN()
					case 1:
						data[i] = math.Inf(1 - 2*rng.Intn(2))
					default:
						data[i] = float64(rng.Intn(4)) + rng.NormFloat64()*0.05
					}
				}
			}
			opts := Options{SampleFraction: []float64{0.1, 0.5, 1}[rng.Intn(3)], Seed: int64(trial)}
			if trial%3 == 0 {
				opts.ElbowRatio = 1e-12 // no elbow: every layer up to MaxK
			}
			checkMatchesReference(t, fmt.Sprintf("trial %d", trial), data, opts)
		}

		// A full-size structure-less sample: the deepest layer trees, and
		// no elbow, so all MaxK layers run.
		wide := make([]float64, DefaultMaxSample)
		for i := range wide {
			wide[i] = rng.Float64()
		}
		checkMatchesReference(t, "uniform-20000", wide, Options{SampleFraction: 1})
	})
}

// FuzzClusterDifferential fuzzes the production fit against the reference
// layer fill: raw bytes become float64 inputs (NaN and Inf included), and
// the fuzzer also picks the sampling rate, the K cap and whether the elbow
// may stop the DP early.
func FuzzClusterDifferential(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 1.1, 0.9, 5, 5.1, 4.9, 9, 9.2), 1.0, 0, false)
	f.Add(seed(3, 3, 3, 3), 0.5, 2, true)
	f.Add(seed(0, 1, 2, 3, 4, 5), 1.0, 0, false)
	f.Add(seed(math.NaN(), 2, math.Inf(-1), 7, 7.5, -1e300, 1e300), 1.0, 0, true)
	f.Fuzz(func(t *testing.T, raw []byte, frac float64, maxK int, noElbow bool) {
		data := make([]float64, len(raw)/8)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		opts := Options{SampleFraction: frac, MaxK: maxK}
		if noElbow {
			opts.ElbowRatio = 1e-12
		}
		checkMatchesReference(t, "fuzz", data, opts)
	})
}

// bruteForce computes the exact optimal clustering cost of sorted data into
// k groups in O(k·n²), the cross-check for the layered dynamic program.
func bruteForce(sorted []float64, k int) float64 {
	n := len(sorted)
	if k >= n {
		return 0
	}
	ps := newPrefixSums(sorted)
	prev := make([]float64, n+1)
	cur := make([]float64, n+1)
	for m := 1; m <= n; m++ {
		prev[m] = ps.cost(0, m-1)
	}
	for kk := 2; kk <= k; kk++ {
		for m := 0; m <= n; m++ {
			if m < kk {
				cur[m] = 0
				continue
			}
			best := math.Inf(1)
			for i := kk - 1; i <= m; i++ {
				c := prev[i] + ps.cost(i, m-1)
				if c < best {
					best = c
				}
			}
			cur[m] = best
		}
		prev, cur = cur, prev
	}
	return prev[n]
}
