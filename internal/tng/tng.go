// Package tng reimplements the TNG trajectory-compression baseline
// (Lundborg et al., the GROMACS TNG format): positions are quantized onto a
// fixed-point grid, encoded as intra-frame (previous atom) or inter-frame
// (previous frame) integer deltas, and packed with variable-length integer
// coding followed by a dictionary stage.
//
// The paper reports TNG runtime exceptions on the Pt and LJ datasets,
// attributed to an atom-count upper limit; CompressSeries reproduces that
// behavior by returning ErrUnsupported above MaxAtoms.
package tng

import (
	"errors"
	"fmt"
	"math"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/lossless"
)

// MaxAtoms is the emulated per-frame atom limit; the paper's TNG failed on
// Pt (2.37M atoms) and LJ (6.9M) but ran on Copper-A (1.08M).
const MaxAtoms = 2_000_000

// ErrUnsupported reproduces TNG's runtime exception on oversized frames.
var ErrUnsupported = errors.New("tng: atom count exceeds format limit")

// ErrCorrupt is returned for malformed blocks.
var ErrCorrupt = errors.New("tng: corrupt block")

// Compressor is a stateless per-batch TNG-style codec.
type Compressor struct {
	// LimitAtoms overrides MaxAtoms for testing; 0 selects MaxAtoms.
	LimitAtoms int
}

// Name implements the benchmark Codec naming convention.
func (c *Compressor) Name() string { return "TNG" }

func (c *Compressor) limit() int {
	if c.LimitAtoms > 0 {
		return c.LimitAtoms
	}
	return MaxAtoms
}

const blockMagic = "TNGB"

// Per-frame delta mode.
const (
	modeIntra = 0 // delta vs previous atom in the same frame
	modeInter = 1 // delta vs the same atom in the previous frame
)

// CompressSeries compresses one axis batch under absolute error bound eb.
func (c *Compressor) CompressSeries(batch [][]float64, eb float64) ([]byte, error) {
	if len(batch) == 0 {
		return nil, errors.New("tng: empty batch")
	}
	n := len(batch[0])
	if n > c.limit() {
		return nil, ErrUnsupported
	}
	for i, s := range batch {
		if len(s) != n {
			return nil, fmt.Errorf("tng: snapshot %d has %d values, want %d", i, len(s), n)
		}
	}
	if !(eb > 0) {
		return nil, errors.New("tng: error bound must be positive")
	}
	// Fixed-point grid: index = round(v / (2eb)) keeps |recon − v| ≤ eb.
	step := 2 * eb
	bs := len(batch)
	grid := make([][]int64, bs)
	var raw []byte // exact values that overflow the fixed-point grid
	for t, snap := range batch {
		grid[t] = make([]int64, n)
		for i, v := range snap {
			g := math.Round(v / step)
			// Verify the decoder's reconstruction g·step at encode time:
			// float rounding at extreme magnitudes can break the bound, in
			// which case the value is stored exactly behind a sentinel.
			if math.Abs(g) > 1<<51 || math.IsNaN(g) || math.Abs(float64(int64(g))*step-v) > eb {
				grid[t][i] = math.MinInt64
				raw = bitstream.AppendFloat64(raw, v)
				continue
			}
			grid[t][i] = int64(g)
		}
	}
	var body []byte
	modes := make([]byte, bs)
	for t := 0; t < bs; t++ {
		// Pick intra vs inter by sampled cost.
		mode := modeIntra
		if t > 0 && sampleCost(grid[t], grid[t-1], true) < sampleCost(grid[t], grid[t-1], false) {
			mode = modeInter
		}
		modes[t] = byte(mode)
		var prev int64
		for i := 0; i < n; i++ {
			g := grid[t][i]
			if g == math.MinInt64 {
				// Sentinel marker: encode a reserved escape varint.
				body = bitstream.AppendVarint(body, math.MinInt64/2)
				continue
			}
			var ref int64
			if mode == modeInter && grid[t-1][i] != math.MinInt64 {
				ref = grid[t-1][i]
			} else if mode == modeIntra {
				ref = prev
			}
			body = bitstream.AppendVarint(body, g-ref)
			prev = g
		}
	}
	var payload []byte
	payload = bitstream.AppendSection(payload, modes)
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

func sampleCost(cur, prev []int64, inter bool) float64 {
	stride := len(cur)/256 + 1
	var sum float64
	var last int64
	for i := 0; i < len(cur); i += stride {
		if cur[i] == math.MinInt64 {
			continue
		}
		var ref int64
		if inter {
			if prev[i] != math.MinInt64 {
				ref = prev[i]
			}
		} else {
			ref = last
		}
		d := cur[i] - ref
		if d < 0 {
			d = -d
		}
		sum += math.Log2(float64(d) + 1)
		last = cur[i]
	}
	return sum
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
	modes, err := pr.ReadSection()
	if err != nil {
		return nil, err
	}
	if len(modes) != bs {
		return nil, ErrCorrupt
	}
	body, err := pr.ReadSection()
	if err != nil {
		return nil, err
	}
	raw, err := pr.ReadSection()
	if err != nil {
		return nil, err
	}
	rr := bitstream.NewByteReader(raw)
	bodyR := bitstream.NewByteReader(body)
	step := 2 * eb
	grid := make([][]int64, bs)
	out := make([][]float64, bs)
	for t := 0; t < bs; t++ {
		grid[t] = make([]int64, n)
		out[t] = make([]float64, n)
		mode := int(modes[t])
		if mode != modeIntra && mode != modeInter {
			return nil, ErrCorrupt
		}
		var prev int64
		for i := 0; i < n; i++ {
			d, err := bodyR.ReadVarint()
			if err != nil {
				return nil, err
			}
			if d == math.MinInt64/2 {
				v, err := rr.ReadFloat64()
				if err != nil {
					return nil, ErrCorrupt
				}
				grid[t][i] = math.MinInt64
				out[t][i] = v
				continue
			}
			var ref int64
			if mode == modeInter && t > 0 && grid[t-1][i] != math.MinInt64 {
				ref = grid[t-1][i]
			} else if mode == modeIntra {
				ref = prev
			}
			g := ref + d
			grid[t][i] = g
			out[t][i] = float64(g) * step
			prev = g
		}
	}
	return out, nil
}
