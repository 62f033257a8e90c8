// Package asn reimplements the adjacent-snapshot N-body compressor of Li et
// al. 2018 ("Optimizing lossy compression with adjacent snapshots for
// N-body simulation data") as an evaluation baseline: each snapshot after
// the first is predicted from the previous one or two reconstructed
// snapshots — order-1 (previous value) or order-2 (linear extrapolation
// 2·prev − prev2), whichever predicts the snapshot better on a sample — and
// the first snapshot falls back to spatial Lorenzo prediction. Residuals go
// through the shared SZ-family quantization + Huffman + dictionary stage
// (internal/resid), with the per-snapshot selectors as its side section.
package asn

import (
	"math"

	"github.com/mdz/mdz/internal/resid"
)

// Compressor is a stateless per-batch ASN codec.
type Compressor struct{}

// Name implements the benchmark Codec naming convention.
func (c *Compressor) Name() string { return "ASN" }

var format = resid.Format{Magic: "ASNB", Side: true}

// Per-snapshot predictor selector codes. A selector never exceeds its
// snapshot index: order-k prediction needs k earlier snapshots.
const (
	predLorenzo = 0 // spatial previous-value (first snapshot)
	predOrder1  = 1 // previous snapshot
	predOrder2  = 2 // linear extrapolation from two previous snapshots
)

// CompressSeries compresses one axis batch under absolute error bound eb.
func (c *Compressor) CompressSeries(batch [][]float64, eb float64) ([]byte, error) {
	return format.Encode(batch, eb, nil, walk)
}

// DecompressSeries inverts CompressSeries.
func (c *Compressor) DecompressSeries(blk []byte) ([][]float64, error) {
	return format.Decode(blk, walk)
}

// walk is ASN's walk: snapshot-major, each snapshot under its selector.
// Encoding chooses the selectors into the side section; decoding reads
// them back.
func walk(c *resid.Coder) {
	r := c.Recon
	bs, n := c.Shape()
	if c.Data != nil {
		c.Side = make([]byte, bs)
	} else if len(c.Side) != bs {
		c.Fail()
		return
	}
	for t := 0; t < bs; t++ {
		if c.Data != nil {
			c.Side[t] = choose(t, c.Data[t], r)
		}
		sel := c.Side[t]
		if sel > predOrder2 || int(sel) > t {
			c.Fail()
			return
		}
		last := 0.0
		for i := 0; i < n; i++ {
			var pred float64
			switch sel {
			case predLorenzo:
				pred = last
			case predOrder1:
				pred = r[t-1][i]
			default:
				pred = 2*r[t-1][i] - r[t-2][i]
			}
			last = c.Code(t, i, pred)
		}
	}
}

// choose selects snapshot t's predictor: Lorenzo for the first snapshot,
// order-1 for the second, then whichever of order-1 and order-2 predicts
// snap better on a sample of the reconstructed rows r.
func choose(t int, snap []float64, r [][]float64) byte {
	switch {
	case t == 0:
		return predLorenzo
	case t >= 2 && sampleErr(snap, r[t-1], r[t-2], true) < sampleErr(snap, r[t-1], r[t-2], false):
		return predOrder2
	}
	return predOrder1
}

// sampleErr estimates the mean absolute prediction error over a stride
// sample; order2 selects the extrapolation predictor.
func sampleErr(snap, prev, prev2 []float64, order2 bool) float64 {
	stride := len(snap)/256 + 1
	var sum float64
	cnt := 0
	for i := 0; i < len(snap); i += stride {
		var p float64
		if order2 {
			p = 2*prev[i] - prev2[i]
		} else {
			p = prev[i]
		}
		sum += math.Abs(snap[i] - p)
		cnt++
	}
	return sum / float64(cnt)
}
