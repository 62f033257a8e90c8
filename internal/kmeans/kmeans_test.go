package kmeans

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// levels generates n points clustered around k equal-distant levels μ+j·λ
// with Gaussian vibration σ, mimicking crystalline MD coordinates.
func levels(n, k int, mu, lambda, sigma float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		j := rng.Intn(k)
		out[i] = mu + float64(j)*lambda + rng.NormFloat64()*sigma
	}
	return out
}

func TestClusterRecoverLevels(t *testing.T) {
	for _, k := range []int{2, 3, 5, 8, 12} {
		data := levels(5000, k, 10.0, 2.0, 0.05, int64(k))
		res, err := Cluster1D(data, Options{Seed: 1, SampleFraction: 1})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.K != k {
			t.Errorf("k=%d: selected K=%d", k, res.K)
			continue
		}
		if math.Abs(res.LevelDistance-2.0) > 0.05 {
			t.Errorf("k=%d: λ=%v, want ≈2.0", k, res.LevelDistance)
		}
		if math.Abs(res.LevelOrigin-10.0) > 0.1 {
			t.Errorf("k=%d: μ=%v, want ≈10.0", k, res.LevelOrigin)
		}
		if res.SpacingRSD > 0.1 {
			t.Errorf("k=%d: SpacingRSD=%v, want near 0 for equal-distant levels", k, res.SpacingRSD)
		}
	}
}

func TestClusterMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(60)
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.Float64() * 100
		}
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		// Force a specific K by disabling the elbow (huge ratio threshold
		// never triggers) and capping MaxK; then compare the final layer cost
		// at the selected K against brute force at the same K.
		res, err := Cluster1D(data, Options{SampleFraction: 1, MaxK: 6, ElbowRatio: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(sorted, res.K)
		if math.Abs(res.Cost-want) > 1e-6*(1+want) {
			t.Errorf("trial %d: DP cost %v != brute force %v at K=%d", trial, res.Cost, want, res.K)
		}
	}
}

func TestDPLayerOptimalEveryK(t *testing.T) {
	// Validate the D&C layer fill against brute force for every layer.
	rng := rand.New(rand.NewSource(4))
	data := make([]float64, 40)
	for i := range data {
		data[i] = rng.NormFloat64() * 10
	}
	sort.Float64s(data)
	ps := newPrefixSums(data)
	n := len(data)
	prev := make([]float64, n+1)
	cur := make([]float64, n+1)
	for m := 1; m <= n; m++ {
		prev[m] = ps.cost(0, m-1)
	}
	for k := 2; k <= 8; k++ {
		row := make([]int32, n+1)
		for m := 1; m < k; m++ {
			cur[m] = 0
		}
		fillLayer(ps, prev, cur, row, k, k, n, 1, n)
		if want := bruteForce(data, k); math.Abs(cur[n]-want) > 1e-9*(1+want) {
			t.Errorf("k=%d: layer cost %v != brute %v", k, cur[n], want)
		}
		prev, cur = cur, prev
	}
}

func TestSingleCluster(t *testing.T) {
	data := levels(1000, 1, 5.0, 0, 0.01, 3)
	res, err := Cluster1D(data, Options{SampleFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 1 {
		t.Fatalf("K=%d", res.K)
	}
	if res.LevelDistance <= 0 {
		t.Errorf("λ=%v must be positive", res.LevelDistance)
	}
}

func TestConstantData(t *testing.T) {
	data := make([]float64, 100)
	for i := range data {
		data[i] = 42
	}
	res, err := Cluster1D(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 && res.Cost != 0 {
		t.Errorf("constant data: K=%d cost=%v", res.K, res.Cost)
	}
	if res.LevelDistance <= 0 {
		t.Errorf("λ=%v must be positive even for constant data", res.LevelDistance)
	}
}

func TestEmptyAndNaN(t *testing.T) {
	if _, err := Cluster1D(nil, Options{}); err != ErrEmpty {
		t.Errorf("nil data: err=%v", err)
	}
	if _, err := Cluster1D([]float64{math.NaN(), math.Inf(1)}, Options{}); err != ErrEmpty {
		t.Errorf("all-NaN data: err=%v", err)
	}
	// NaNs mixed with real data are skipped.
	res, err := Cluster1D([]float64{1, math.NaN(), 1.1, 0.9, 5, 5.1, 4.9}, Options{SampleFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Errorf("expected 2 clusters, got %d (centers %v)", res.K, res.Centers)
	}
}

func TestSamplingBoundsWork(t *testing.T) {
	data := levels(200000, 6, 0, 1.5, 0.02, 8)
	res, err := Cluster1D(data, Options{Seed: 2, MaxSample: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 6 {
		t.Errorf("sampled clustering selected K=%d, want 6", res.K)
	}
	if math.Abs(res.LevelDistance-1.5) > 0.05 {
		t.Errorf("λ=%v, want ≈1.5", res.LevelDistance)
	}
}

func TestKCap(t *testing.T) {
	// 200 distinct well-separated levels must still respect MaxK=150.
	data := levels(20000, 200, 0, 10, 0.001, 5)
	res, err := Cluster1D(data, Options{SampleFraction: 1, ElbowRatio: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.K > MaxK {
		t.Errorf("K=%d exceeds cap %d", res.K, MaxK)
	}
}

func TestPrefixSumCost(t *testing.T) {
	d := []float64{1, 2, 3, 10}
	ps := newPrefixSums(d)
	// cost of {1,2,3}: mean 2, deviation 2.
	if got := ps.cost(0, 2); math.Abs(got-2) > 1e-12 {
		t.Errorf("cost(0,2)=%v want 2", got)
	}
	if got := ps.cost(3, 3); got != 0 {
		t.Errorf("singleton cost=%v", got)
	}
}

func TestCostNonNegativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		d := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				d = append(d, v)
			}
		}
		if len(d) == 0 {
			return true
		}
		sort.Float64s(d)
		ps := newPrefixSums(d)
		for l := 0; l < len(d); l++ {
			for r := l; r < len(d) && r < l+10; r++ {
				if ps.cost(l, r) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCostMonotoneInK(t *testing.T) {
	// F(N,k) must be non-increasing in k.
	data := levels(500, 4, 0, 3, 0.2, 11)
	sort.Float64s(data)
	prevCost := math.Inf(1)
	for k := 1; k <= 8; k++ {
		c := bruteForce(data, k)
		if c > prevCost+1e-9 {
			t.Errorf("F(N,%d)=%v > F(N,%d)=%v", k, c, k-1, prevCost)
		}
		prevCost = c
	}
}

func BenchmarkCluster1D(b *testing.B) {
	data := levels(100000, 10, 0, 2, 0.05, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster1D(data, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
