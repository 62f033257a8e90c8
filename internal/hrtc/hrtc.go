// Package hrtc reimplements the HRTC trajectory compressor baseline (Huwald
// et al., "Compressing molecular dynamics trajectories: breaking the
// one-bit-per-sample barrier"): each atom's per-axis trajectory within a
// buffer is approximated by a greedy piecewise-linear function whose
// interpolation error stays within the bound; segment endpoints are
// quantized and stored as variable-length integers.
//
// The paper reports HRTC runtime exceptions on Copper-A, Helium-A, Pt and
// LJ — every dataset above ~10⁵ atoms; CompressSeries reproduces that
// behavior by returning ErrUnsupported above MaxAtoms.
package hrtc

import (
	"errors"
	"fmt"
	"math"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/lossless"
)

// MaxAtoms is the emulated per-frame atom limit; the smallest dataset HRTC
// failed on in the paper was Helium-A with 106,711 atoms.
const MaxAtoms = 100_000

// ErrUnsupported reproduces HRTC's runtime exception on oversized frames.
var ErrUnsupported = errors.New("hrtc: atom count exceeds supported limit")

// ErrCorrupt is returned for malformed blocks.
var ErrCorrupt = errors.New("hrtc: corrupt block")

// Compressor is a stateless per-batch HRTC-style codec.
type Compressor struct {
	// LimitAtoms overrides MaxAtoms for testing; 0 selects MaxAtoms.
	LimitAtoms int
}

// Name implements the benchmark Codec naming convention.
func (c *Compressor) Name() string { return "HRTC" }

func (c *Compressor) limit() int {
	if c.LimitAtoms > 0 {
		return c.LimitAtoms
	}
	return MaxAtoms
}

const blockMagic = "HRTB"

// CompressSeries compresses one axis batch under absolute error bound eb.
// The piecewise-linear fit runs along each atom's time series; endpoints
// are quantized to an eb/2 grid so interpolation error plus quantization
// error stays within eb.
func (c *Compressor) CompressSeries(batch [][]float64, eb float64) ([]byte, error) {
	if len(batch) == 0 {
		return nil, errors.New("hrtc: empty batch")
	}
	n := len(batch[0])
	if n > c.limit() {
		return nil, ErrUnsupported
	}
	for i, s := range batch {
		if len(s) != n {
			return nil, fmt.Errorf("hrtc: snapshot %d has %d values, want %d", i, len(s), n)
		}
	}
	if !(eb > 0) {
		return nil, errors.New("hrtc: error bound must be positive")
	}
	bs := len(batch)
	// Endpoints are quantized to half-bound cells; linear fitting then gets
	// the other half of the budget.
	qStep := eb / 2
	fitTol := eb / 2
	var body []byte // per atom: varint segment count, then (dt, qvalue delta) pairs
	var raw []byte  // escape storage for non-finite / overflow values
	for i := 0; i < n; i++ {
		series := make([]float64, bs)
		ok := true
		for t := 0; t < bs; t++ {
			series[t] = batch[t][i]
			// Escape non-finite values and any value whose quantized knot
			// reconstruction would violate the endpoint error budget (float
			// rounding at extreme magnitudes, or index overflow).
			v := series[t]
			if math.IsNaN(v) || math.Abs(v) > float64(uint64(1)<<51)*qStep ||
				math.Abs(math.Round(v/qStep)*qStep-v) > eb/2 {
				ok = false
			}
		}
		if !ok {
			// Whole-series escape: store exactly.
			body = bitstream.AppendUvarint(body, 0)
			for t := 0; t < bs; t++ {
				raw = bitstream.AppendFloat64(raw, series[t])
			}
			continue
		}
		segs := fitPiecewiseLinear(series, fitTol, qStep)
		body = bitstream.AppendUvarint(body, uint64(len(segs)))
		prevQ := int64(0)
		prevT := 0
		for si, sg := range segs {
			dt := sg.t - prevT
			if si == 0 {
				dt = sg.t // first knot is at t=0 anyway
			}
			body = bitstream.AppendUvarint(body, uint64(dt))
			body = bitstream.AppendVarint(body, sg.q-prevQ)
			prevQ = sg.q
			prevT = sg.t
		}
	}
	var payload []byte
	payload = bitstream.AppendSection(payload, body)
	payload = bitstream.AppendSection(payload, raw)
	compressed, err := lossless.LZ{}.Compress(payload)
	if err != nil {
		return nil, err
	}
	out := append([]byte{}, blockMagic...)
	out = bitstream.AppendFloat64(out, eb)
	out = bitstream.AppendUvarint(out, uint64(bs))
	out = bitstream.AppendUvarint(out, uint64(n))
	out = bitstream.AppendSection(out, compressed)
	return out, nil
}

// knot is a quantized trajectory breakpoint.
type knot struct {
	t int   // snapshot index
	q int64 // quantized value (units of qStep)
}

// fitPiecewiseLinear greedily extends segments between quantized knots
// while every intermediate sample stays within tol of the interpolant.
// Knot quantization error is bounded by qStep/2.
func fitPiecewiseLinear(series []float64, tol, qStep float64) []knot {
	quantize := func(v float64) int64 { return int64(math.Round(v / qStep)) }
	value := func(q int64) float64 { return float64(q) * qStep }
	knots := []knot{{t: 0, q: quantize(series[0])}}
	start := 0
	for start < len(series)-1 {
		startV := value(knots[len(knots)-1].q)
		end := start + 1
		// Extend as far as interpolation holds.
		for cand := start + 2; cand < len(series); cand++ {
			candV := value(quantize(series[cand]))
			good := true
			for m := start + 1; m < cand; m++ {
				frac := float64(m-start) / float64(cand-start)
				interp := startV + frac*(candV-startV)
				if math.Abs(interp-series[m]) > tol {
					good = false
					break
				}
			}
			if !good {
				break
			}
			end = cand
		}
		knots = append(knots, knot{t: end, q: quantize(series[end])})
		start = end
	}
	return knots
}

// DecompressSeries inverts CompressSeries.
func (c *Compressor) DecompressSeries(blk []byte) ([][]float64, error) {
	br := bitstream.NewByteReader(blk)
	magic, err := br.ReadBytes(4)
	if err != nil || string(magic) != blockMagic {
		return nil, ErrCorrupt
	}
	eb, err := br.ReadFloat64()
	if err != nil {
		return nil, err
	}
	bs64, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	n64, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	bs, n := int(bs64), int(n64)
	if bs <= 0 || n < 0 || uint64(bs)*uint64(n) > 1<<33 || !(eb > 0) {
		return nil, ErrCorrupt
	}
	compressed, err := br.ReadSection()
	if err != nil {
		return nil, err
	}
	payload, err := lossless.LZ{}.Decompress(compressed)
	if err != nil {
		return nil, err
	}
	pr := bitstream.NewByteReader(payload)
	body, err := pr.ReadSection()
	if err != nil {
		return nil, err
	}
	raw, err := pr.ReadSection()
	if err != nil {
		return nil, err
	}
	bodyR := bitstream.NewByteReader(body)
	rawR := bitstream.NewByteReader(raw)
	qStep := eb / 2
	out := make([][]float64, bs)
	for t := range out {
		out[t] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		nSegs, err := bodyR.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if nSegs == 0 {
			for t := 0; t < bs; t++ {
				v, err := rawR.ReadFloat64()
				if err != nil {
					return nil, ErrCorrupt
				}
				out[t][i] = v
			}
			continue
		}
		if nSegs > uint64(bs) {
			return nil, ErrCorrupt
		}
		knots := make([]knot, nSegs)
		prevQ := int64(0)
		prevT := 0
		for k := range knots {
			dt, err := bodyR.ReadUvarint()
			if err != nil {
				return nil, err
			}
			dq, err := bodyR.ReadVarint()
			if err != nil {
				return nil, err
			}
			knots[k] = knot{t: prevT + int(dt), q: prevQ + dq}
			prevT = knots[k].t
			prevQ = knots[k].q
			if knots[k].t >= bs {
				return nil, ErrCorrupt
			}
		}
		// Reconstruct by linear interpolation between knots.
		for k := 0; k+1 < len(knots); k++ {
			a, b := knots[k], knots[k+1]
			va, vb := float64(a.q)*qStep, float64(b.q)*qStep
			span := b.t - a.t
			if span <= 0 {
				return nil, ErrCorrupt
			}
			for t := a.t; t <= b.t; t++ {
				frac := float64(t-a.t) / float64(span)
				out[t][i] = va + frac*(vb-va)
			}
		}
		if len(knots) == 1 {
			out[knots[0].t][i] = float64(knots[0].q) * qStep
		}
	}
	return out, nil
}
