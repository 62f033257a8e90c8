package quant

import (
	"math"
	"math/rand"
	"testing"
)

// encodedRow quantizes n values (about 1% of them far out of scope) into
// codes[i*stride], by reference prediction or, with vq set, by the
// level-centroid predictor (lam, mu) = (0.5, 0), whose level index clamps
// at int32 for the far values. It returns what a decoder receives: the
// codes, the level deltas, the predictions and the outlier bytes in
// traversal order.
func encodedRow(q *Quantizer, n, stride int, vq bool) (codes, levels []int, preds []float64, outliers []byte) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, n)
	preds = make([]float64, n)
	for i := range data {
		preds[i] = rng.Float64() * 10
		data[i] = preds[i] + rng.NormFloat64()*0.05
		if rng.Float64() < 0.01 {
			data[i] += rng.NormFloat64() * 1e12
		}
	}
	codes = make([]int, n*stride)
	levels = make([]int, n)
	recon := make([]float64, n)
	if vq {
		q.QuantizeBlockVQ(data, 0.5, 0, codes, 0, stride, levels, recon)
	} else {
		q.QuantizeBlock(data, preds, codes, 0, stride, recon)
	}
	for i, v := range recon {
		if codes[i*stride] == Reserved {
			outliers, _ = AppendBounded(outliers, v, q.eb)
		}
	}
	return codes, levels, preds, outliers
}

// TestQuantizeBlockInPlace: predicting from recon and overwriting it, as
// time-chained rows do, gives the codes and reconstruction of a call with
// separate prediction and output buffers, outliers included.
func TestQuantizeBlockInPlace(t *testing.T) {
	q, err := New(1e-3, DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	const n, stride = 4096, 3
	rng := rand.New(rand.NewSource(2))
	prev := make([]float64, n)
	data := make([]float64, n)
	for i := range data {
		prev[i] = rng.Float64() * 10
		data[i] = prev[i] + rng.NormFloat64()*0.05
		if rng.Float64() < 0.01 {
			data[i] += rng.NormFloat64() * 1e12
		}
	}
	codes := make([]int, n*stride)
	recon := make([]float64, n)
	wantOut := q.QuantizeBlock(data, prev, codes, 1, stride, recon)

	inPlace := append([]float64(nil), prev...)
	got := make([]int, n*stride)
	if out := q.QuantizeBlock(data, inPlace, got, 1, stride, inPlace); out != wantOut {
		t.Fatalf("in place: %d out-of-scope values, want %d", out, wantOut)
	}
	if wantOut == 0 {
		t.Fatal("no out-of-scope values exercised")
	}
	for i := range codes {
		if got[i] != codes[i] {
			t.Fatalf("in place: code %d = %d, want %d", i, got[i], codes[i])
		}
	}
	for i := range recon {
		if math.Float64bits(inPlace[i]) != math.Float64bits(recon[i]) {
			t.Fatalf("in place: recon %d = %v, want %v", i, inPlace[i], recon[i])
		}
	}
}

// BenchmarkDequantizeBlock times both dequantize kernels on one Seq-2 row
// of a 10-snapshot batch, outliers restored inline.
func BenchmarkDequantizeBlock(b *testing.B) {
	q, err := New(1e-3, DefaultScale)
	if err != nil {
		b.Fatal(err)
	}
	const n, stride = 1 << 14, 10
	for _, vq := range []bool{false, true} {
		name := "prev-row"
		if vq {
			name = "vq"
		}
		b.Run(name, func(b *testing.B) {
			codes, levels, preds, outliers := encodedRow(q, n, stride, vq)
			out := make([]float64, n)
			b.SetBytes(8 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if vq {
					_, err = q.DequantizeBlockVQ(codes, 0, stride, levels, 0.5, 0, out, outliers, 0)
				} else {
					_, err = q.DequantizeBlock(codes, 0, stride, preds, out, outliers, 0)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
