package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mdz/mdz/internal/predictor"
)

// level is the VQ predictor's per-value reference (paper Algorithm 1,
// lines 4-5): the level index L = round((d−μ)/λ), clamped to the int32
// range, and its centroid μ + λ·L. QuantizeBlockVQ inlines the same
// expressions; TestQuantizeBlockVQMatchesLevel keeps the two in lock-step.
func level(d, lambda, mu float64) (int64, float64) {
	l := math.Round((d - mu) / lambda)
	if l > math.MaxInt32 {
		l = math.MaxInt32
	} else if l < math.MinInt32 {
		l = math.MinInt32
	}
	lvl := int64(l)
	return lvl, predictor.Centroid(lvl, lambda, mu)
}

// TestQuantizeBlockVQMatchesLevel: the fused kernel's level deltas follow
// the per-value level chain, and each code and reconstruction is what
// Quantize gives against that value's centroid — including values whose
// level clamps at ±1e300, non-finite values and outliers.
func TestQuantizeBlockVQMatchesLevel(t *testing.T) {
	const lam, mu = 0.37, -1.5
	q, err := New(1e-3, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	data := make([]float64, 4000)
	for i := range data {
		data[i] = mu + lam*float64(rng.Intn(40)-20) + rng.NormFloat64()*0.05
	}
	copy(data[100:], []float64{1e300, -1e300, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), 1e9, -3e7})
	for _, stride := range []int{1, 3} {
		codes := make([]int, len(data)*stride)
		levels := make([]int, len(data))
		recon := make([]float64, len(data))
		q.QuantizeBlockVQ(data, lam, mu, codes, 0, stride, levels, recon)
		prev := int64(0)
		for i, d := range data {
			lvl, centroid := level(d, lam, mu)
			if want := int(lvl - prev); levels[i] != want {
				t.Fatalf("stride %d value %d (%v): level delta %d, want %d", stride, i, d, levels[i], want)
			}
			prev = lvl
			code, rec, ok := q.Quantize(d, centroid)
			if !ok {
				rec = d
			}
			if codes[i*stride] != code || math.Float64bits(recon[i]) != math.Float64bits(rec) {
				t.Fatalf("stride %d value %d (%v): code %d recon %v, want %d %v", stride, i, d, codes[i*stride], recon[i], code, rec)
			}
		}
	}
}

func TestLevelRoundTrip(t *testing.T) {
	lambda, mu := 2.0, 10.0
	for want := int64(-50); want <= 50; want++ {
		d := mu + lambda*float64(want) + 0.3 // within half a level
		lvl, centroid := level(d, lambda, mu)
		if lvl != want {
			t.Fatalf("level(%v) = %d, want %d", d, lvl, want)
		}
		if got := predictor.Centroid(lvl, lambda, mu); got != centroid {
			t.Fatalf("Centroid mismatch: %v vs %v", got, centroid)
		}
		if math.Abs(centroid-d) > lambda/2+1e-9 {
			t.Fatalf("centroid %v too far from %v", centroid, d)
		}
	}
}

func TestLevelNearestProperty(t *testing.T) {
	f := func(dRaw int32, lRaw uint8) bool {
		lambda := 0.5 + float64(lRaw%40)
		mu := -3.0
		d := float64(dRaw) / 100
		lvl, centroid := level(d, lambda, mu)
		// The chosen centroid must be within λ/2 of d (nearest level).
		if math.Abs(centroid-d) > lambda/2+1e-9 {
			return false
		}
		// Neighbors cannot be closer.
		for _, nb := range []int64{lvl - 1, lvl + 1} {
			if math.Abs(predictor.Centroid(nb, lambda, mu)-d) < math.Abs(centroid-d)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLevelClamp(t *testing.T) {
	lvl, _ := level(1e300, 1e-10, 0)
	if lvl != math.MaxInt32 {
		t.Errorf("positive overflow clamp: %d", lvl)
	}
	lvl, _ = level(-1e300, 1e-10, 0)
	if lvl != math.MinInt32 {
		t.Errorf("negative overflow clamp: %d", lvl)
	}
}
