// Package kmeans implements the sampling-based optimal 1-D k-means used by
// MDZ's VQ predictor (paper §VI-A).
//
// Optimally partitioning N sorted scalars into K clusters is solved exactly
// by dynamic programming over prefix sums:
//
//	F(n,k) = min_{0<i<=n} F(i-1,k-1) + Cost(i,n)
//
// where Cost(l,r) is the within-cluster squared deviation, O(1) per query
// via prefix sums of d and d². Each DP layer is filled with
// divide-and-conquer argmin exploitation of the monotone optimal split
// (O(N log N) per layer; the paper cites the O(KN) SMAWK variant of
// Grønlund et al. — the D&C form has identical output and is the standard
// practical implementation). The layer fill is an iterative, bounds-check
// free form of the recursive one; TestClusterMatchesReference and
// FuzzClusterDifferential (kmeans_ref_test.go) pin every Result field bit
// for bit against the recursive reference.
//
// Performance boosts from the paper: the DP runs once per compressor
// lifetime on a sample of the first snapshot (default 10 %), and layer
// computation stops early at the elbow κ where the improvement ratio
// G(k) = F(N,k)/F(N,k-1) collapses. K is capped at 150 because more levels
// harm the compressibility of the vector-quantization indexes.
package kmeans

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// MaxK is the paper's cap on the number of levels tested.
const MaxK = 150

// DefaultSampleFraction is the paper's sampling rate (10 % of the first
// snapshot).
const DefaultSampleFraction = 0.10

// DefaultMaxSample bounds the DP input size regardless of snapshot size,
// keeping clustering cost negligible next to compression.
const DefaultMaxSample = 20000

// ErrEmpty is returned when no finite data is available to cluster.
var ErrEmpty = errors.New("kmeans: no finite data")

// Result describes an optimal 1-D clustering and the derived equal-distant
// level model λ, μ used by the VQ predictor: level j sits at μ + j·λ.
type Result struct {
	// K is the selected number of clusters.
	K int
	// Centers holds the cluster centroids in ascending order.
	Centers []float64
	// Cost is the within-cluster squared deviation of the selected K.
	Cost float64
	// LevelDistance is λ, the fitted spacing between adjacent levels.
	LevelDistance float64
	// LevelOrigin is μ, the fitted value of level 0 (the lowest level).
	LevelOrigin float64
	// SpacingRSD is the relative standard deviation of consecutive center
	// spacings: ~0 for perfectly equal-distant levels, large for irregular
	// clusters. Callers can use it to judge VQ suitability.
	SpacingRSD float64
}

// Options configures Cluster1D.
type Options struct {
	// MaxK caps the number of clusters tested (default MaxK).
	MaxK int
	// SampleFraction in (0,1] selects the sampling rate (default 10 %).
	SampleFraction float64
	// MaxSample bounds the absolute sample size (default DefaultMaxSample).
	MaxSample int
	// Seed makes sampling deterministic.
	Seed int64
	// ElbowRatio is the G(κ) collapse threshold that stops the layer
	// computation (default 0.05): when the improvement ratio
	// G(κ) = F(N,κ)/F(N,κ−1) suddenly collapses below it — far below the
	// smooth ((κ−1)/κ)² decay of structure-less data — κ has matched the
	// data's true level count and the DP stops there.
	ElbowRatio float64
}

func (o *Options) fill() {
	if o.MaxK <= 0 || o.MaxK > MaxK {
		o.MaxK = MaxK
	}
	if o.SampleFraction <= 0 || o.SampleFraction > 1 {
		o.SampleFraction = DefaultSampleFraction
	}
	if o.MaxSample <= 0 {
		o.MaxSample = DefaultMaxSample
	}
	if o.ElbowRatio <= 0 || o.ElbowRatio >= 1 {
		o.ElbowRatio = 0.05
	}
}

// Cluster1D computes the sampled optimal 1-D k-means of data and fits the
// equal-distant level model. It never modifies data.
func Cluster1D(data []float64, opts Options) (Result, error) {
	return cluster1D(data, opts, fillLayer)
}

// layerFiller fills one DP layer (see fillLayer). Cluster1D always uses
// fillLayer; the reference test runs the same pipeline with the historical
// recursive filler.
type layerFiller func(ps prefixSums, prev, cur []float64, row []int32, k, lo, hi, optLo, optHi int)

func cluster1D(data []float64, opts Options, filler layerFiller) (Result, error) {
	opts.fill()
	sample := sampleFinite(data, opts.SampleFraction, opts.MaxSample, opts.Seed)
	if len(sample) == 0 {
		return Result{}, ErrEmpty
	}
	sort.Float64s(sample)
	return clusterSorted(sample, opts, filler)
}

func sampleFinite(data []float64, frac float64, maxN int, seed int64) []float64 {
	want := int(float64(len(data)) * frac)
	if want < 1 {
		want = len(data)
	}
	if want > maxN {
		want = maxN
	}
	out := make([]float64, 0, want)
	if len(data) <= want {
		for _, v := range data {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				out = append(out, v)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	// Reservoir-free strided sample with random phase: cheap and stable.
	stride := float64(len(data)) / float64(want)
	off := rng.Float64() * stride
	for i := 0; i < want; i++ {
		v := data[int(off+float64(i)*stride)]
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, v)
		}
	}
	return out
}

// prefixSums enables O(1) within-cluster cost queries.
type prefixSums struct {
	s, s2 []float64 // s[i] = sum of d[0..i), s2 likewise for squares
}

func newPrefixSums(d []float64) prefixSums {
	p := prefixSums{s: make([]float64, len(d)+1), s2: make([]float64, len(d)+1)}
	for i, v := range d {
		p.s[i+1] = p.s[i] + v
		p.s2[i+1] = p.s2[i] + v*v
	}
	return p
}

// cost returns the squared deviation of clustering d[l..r] (inclusive,
// 0-based) into one group around its mean.
func (p prefixSums) cost(l, r int) float64 {
	n := float64(r - l + 1)
	s := p.s[r+1] - p.s[l]
	s2 := p.s2[r+1] - p.s2[l]
	c := s2 - s*s/n
	if c < 0 {
		return 0 // numerical floor
	}
	return c
}

func clusterSorted(d []float64, opts Options, filler layerFiller) (Result, error) {
	n := len(d)
	ps := newPrefixSums(d)

	maxK := opts.MaxK
	if maxK > n {
		maxK = n
	}

	// F rows and split-point rows per layer, for backtracking.
	prev := make([]float64, n+1) // prev[m] = F(m, k-1), m = number of points
	cur := make([]float64, n+1)
	splits := make([][]int32, 1, maxK+1) // splits[k][m] = H(m,k); layer 0 unused

	prev[0] = 0
	for m := 1; m <= n; m++ {
		prev[m] = ps.cost(0, m-1) // k = 1
	}
	layerCosts := []float64{math.NaN(), prev[n]} // index by k
	splits = append(splits, nil)                 // k=1 has no split row

	bestK := 1
	found := false
	for k := 2; k <= maxK; k++ {
		fPrev := layerCosts[k-1]
		if fPrev == 0 {
			// Already a perfect clustering at k-1.
			bestK, found = k-1, true
			break
		}
		row := make([]int32, n+1)
		cur[0] = 0
		// cur[m] for m < k is 0 (each point its own cluster).
		for m := 1; m < k && m <= n; m++ {
			cur[m] = 0
			row[m] = int32(m) // degenerate: last cluster is the single point m
		}
		if n >= k {
			filler(ps, prev, cur, row, k, k, n, 1, n)
		}
		splits = append(splits, row)
		layerCosts = append(layerCosts, cur[n])
		fCur := cur[n]

		// Elbow: G(k) collapsing far below the smooth decay of
		// structure-less data means k matches the true level count. Tiny
		// samples can reach near-zero cost by overfitting (one cluster per
		// point); require at least 4 sample points per cluster before
		// accepting the collapse as structure.
		if g := fCur / fPrev; (g < opts.ElbowRatio || fCur == 0) && n >= 4*k {
			bestK, found = k, true
			break
		}
		if n < 4*k {
			break // deeper layers would only overfit the sample
		}
		prev, cur = cur, prev
	}
	if !found {
		// No collapse: data has no strong level structure (e.g. uniform
		// distributions, Fig 4 (b)(e)(f)). Pick a small k that balances
		// residual cost against level-index entropy.
		bestScore := math.Inf(1)
		for k := 1; k < len(layerCosts); k++ {
			score := layerCosts[k]/layerCosts[1] + 0.01*float64(k)
			if score < bestScore {
				bestScore = score
				bestK = k
			}
		}
	}
	bestCost := layerCosts[bestK]

	centers := backtrack(d, ps, splits, bestK)
	res := Result{K: bestK, Centers: centers, Cost: bestCost}
	res.LevelDistance, res.LevelOrigin, res.SpacingRSD = fitLevels(centers, d)
	return res, nil
}

// fillLayer computes cur[lo..hi] = F(m,k) with divide-and-conquer over the
// monotone optimal split point. optLo/optHi bound the candidate split range.
//
// It is the hot loop of the fit — every layer scans O(N log N) candidate
// splits — so it walks the recursion tree with an explicit stack, collapses
// each subtree whose window has narrowed to a single split (over half the
// nodes on MD data) into one pass, and inlines cost(i, mid-1) with the
// mid-side prefix sums hoisted and the window resliced, leaving the scan
// free of bounds checks. The arithmetic, the c < 0 floor and the strict-<
// first-minimum tie-break are exactly those of cost and the recursive form
// (kmeans_ref_test.go), so results are bit-identical.
func fillLayer(ps prefixSums, prev, cur []float64, row []int32, k, lo, hi, optLo, optHi int) {
	type span struct{ lo, hi, optLo, optHi int }
	// Depth-first, left half first: at most one pending right half per
	// level of a tree of depth log2(N), so the stack stays in buf.
	var buf [64]span
	stack := append(buf[:0], span{lo, hi, optLo, optHi})
	for len(stack) > 0 {
		sp := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if sp.lo > sp.hi {
			continue
		}
		if sp.optLo == sp.optHi {
			// A one-split window stays one split all the way down, so the
			// subtree collapses to a pass over its points with the same
			// per-point arithmetic: cost if the split is valid, else +Inf.
			i := sp.optLo
			for m := sp.lo; m <= sp.hi; m++ {
				c := math.Inf(1)
				if i >= k-1 && i <= m-1 {
					if v := prev[i] + ps.cost(i, m-1); v < c {
						c = v
					}
				}
				cur[m] = c
				row[m] = int32(i)
			}
			continue
		}
		mid := (sp.lo + sp.hi) / 2
		bestCost := math.Inf(1)
		bestI := sp.optLo
		iHi := min(sp.optHi, mid-1) // last cluster i..mid-1 must be non-empty
		iLo := max(sp.optLo, k-1)   // need at least k-1 points before the last cluster
		if iLo <= iHi {
			// Last cluster covers points i..mid-1 (0-based), i.e. i+1..mid in
			// 1-based "count" terms with split H = i+1.
			sMid, s2Mid := ps.s[mid], ps.s2[mid]
			pv := prev[iLo : iHi+1]
			s := ps.s[iLo : iHi+1]
			s2 := ps.s2[iLo : iHi+1]
			s, s2 = s[:len(pv)], s2[:len(pv)]
			for t, f := range pv {
				n := float64(mid - iLo - t)
				sum := sMid - s[t]
				c := (s2Mid - s2[t]) - sum*sum/n
				if c < 0 {
					c = 0 // numerical floor
				}
				if c = f + c; c < bestCost {
					bestCost = c
					bestI = iLo + t
				}
			}
		}
		cur[mid] = bestCost
		row[mid] = int32(bestI)
		stack = append(stack, span{mid + 1, sp.hi, bestI, sp.optHi}, span{sp.lo, mid - 1, sp.optLo, bestI})
	}
}

// backtrack recovers cluster centroids for the chosen k from split rows.
func backtrack(d []float64, ps prefixSums, splits [][]int32, k int) []float64 {
	n := len(d)
	bounds := make([]int, k+1) // bounds[j] = first index of cluster j; bounds[k] = n
	bounds[k] = n
	m := n
	for j := k; j >= 2; j-- {
		i := int(splits[j][m])
		bounds[j-1] = i
		m = i
	}
	bounds[0] = 0
	centers := make([]float64, 0, k)
	for j := 0; j < k; j++ {
		l, r := bounds[j], bounds[j+1]
		if l >= r {
			continue // empty cluster from degenerate layers
		}
		centers = append(centers, (ps.s[r]-ps.s[l])/float64(r-l))
	}
	return centers
}

// fitLevels derives λ and μ from the centroids. With K ≥ 2 it least-squares
// fits center_j ≈ μ + λ·j; with K = 1 it falls back to a λ that spans the
// data range so the single-level model still quantizes sensibly.
func fitLevels(centers []float64, d []float64) (lambda, mu, rsd float64) {
	k := len(centers)
	if k == 0 {
		return 1, 0, 0
	}
	if k == 1 {
		lo, hi := d[0], d[len(d)-1]
		span := hi - lo
		if span <= 0 {
			span = math.Abs(centers[0])
			if span == 0 {
				span = 1
			}
		}
		return span, centers[0], 0
	}
	// Least squares of centers against indices 0..k-1.
	var sx, sy, sxx, sxy float64
	for j, c := range centers {
		x := float64(j)
		sx += x
		sy += c
		sxx += x * x
		sxy += x * c
	}
	nf := float64(k)
	den := nf*sxx - sx*sx
	lambda = (nf*sxy - sx*sy) / den
	mu = (sy - lambda*sx) / nf
	if lambda <= 0 {
		lambda = (centers[k-1] - centers[0]) / float64(k-1)
		mu = centers[0]
	}
	// Spacing regularity.
	var mean float64
	sp := make([]float64, k-1)
	for j := 1; j < k; j++ {
		sp[j-1] = centers[j] - centers[j-1]
		mean += sp[j-1]
	}
	mean /= float64(k - 1)
	var varsum float64
	for _, s := range sp {
		varsum += (s - mean) * (s - mean)
	}
	if mean != 0 {
		rsd = math.Sqrt(varsum/float64(k-1)) / math.Abs(mean)
	}
	return lambda, mu, rsd
}
