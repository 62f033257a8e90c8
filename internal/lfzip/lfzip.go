// Package lfzip reimplements the LFZip lossy floating-point time-series
// compressor baseline (Chandak et al., DCC 2020) with its NLMS (normalized
// least-mean-squares) adaptive linear predictor; as in the paper's
// evaluation, the neural-network predictor variant is omitted (the authors
// report it ~2000× slower for marginal gain).
//
// The batch is linearized particle-major (each particle's time series
// contiguous, the layout matching LFZip's per-variable streams), predicted
// by an order-32 NLMS filter over reconstructed values, and coded by the
// shared SZ-family quantization + Huffman + dictionary stage
// (internal/resid).
package lfzip

import (
	"math"

	"github.com/mdz/mdz/internal/resid"
)

// order is LFZip's default NLMS filter order, written as the block's
// parameter byte; the decoder builds its filter from that byte.
const order = 32

// Compressor is a stateless per-batch LFZip codec.
type Compressor struct{}

// Name implements the benchmark Codec naming convention.
func (c *Compressor) Name() string { return "LFZip" }

var format = resid.Format{Magic: "LFZB", Params: 1}

// nlms is the normalized least-mean-squares adaptive filter. Encoder and
// decoder run identical instances over reconstructed values.
type nlms struct {
	w    []float64 // filter weights
	hist []float64 // ring buffer of past reconstructed values
	pos  int
	mu   float64
	n    int // values seen
}

func newNLMS(order int) *nlms {
	return &nlms{
		w:    make([]float64, order),
		hist: make([]float64, order),
		mu:   0.5,
	}
}

// predict returns the filter output for the next value.
func (f *nlms) predict() float64 {
	if f.n == 0 {
		return 0
	}
	if f.n < len(f.w) {
		// Cold start: previous value.
		return f.hist[(f.pos+len(f.hist)-1)%len(f.hist)]
	}
	var y float64
	for i := range f.w {
		y += f.w[i] * f.hist[(f.pos+i)%len(f.hist)]
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return f.hist[(f.pos+len(f.hist)-1)%len(f.hist)]
	}
	return y
}

// update feeds the reconstructed value back and adapts the weights.
func (f *nlms) update(recon, pred float64) {
	if f.n >= len(f.w) && !math.IsNaN(recon) && !math.IsInf(recon, 0) {
		e := recon - pred
		var norm float64
		for i := range f.w {
			h := f.hist[(f.pos+i)%len(f.hist)]
			norm += h * h
		}
		g := f.mu * e / (1 + norm)
		if !math.IsNaN(g) && !math.IsInf(g, 0) {
			for i := range f.w {
				f.w[i] += g * f.hist[(f.pos+i)%len(f.hist)]
			}
		}
	}
	f.hist[f.pos] = recon
	f.pos = (f.pos + 1) % len(f.hist)
	f.n++
}

// CompressSeries compresses one axis batch under absolute error bound eb.
func (c *Compressor) CompressSeries(batch [][]float64, eb float64) ([]byte, error) {
	return format.Encode(batch, eb, []byte{order}, walk)
}

// DecompressSeries inverts CompressSeries.
func (c *Compressor) DecompressSeries(blk []byte) ([][]float64, error) {
	return format.Decode(blk, walk)
}

// walk is LFZip's walk: particle-major, one NLMS filter of the block's
// order running across the whole batch.
func walk(c *resid.Coder) {
	if c.Params[0] == 0 {
		c.Fail()
		return
	}
	f := newNLMS(int(c.Params[0]))
	bs, n := c.Shape()
	for i := 0; i < n; i++ {
		for t := 0; t < bs; t++ {
			pred := f.predict()
			f.update(c.Code(t, i, pred), pred)
		}
	}
}
