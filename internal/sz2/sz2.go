// Package sz2 reimplements the SZ2 error-bounded lossy compressor baseline
// (Tao et al. / Liang et al.) for the comparison study: Lorenzo prediction
// from reconstructed neighbors, linear-scale quantization, Huffman coding,
// and a dictionary-coding (Zstd-role) final stage. Everything after the
// prediction is the shared SZ-family stage (internal/resid).
//
// Both evaluation modes of the paper's Table IV are provided: Mode1D treats
// each batch as a flat stream with previous-value (1-D Lorenzo) prediction;
// Mode2D lays the batch out as a snapshots × particles grid and predicts
// each point from its left, up and diagonal reconstructed neighbors,
// exploiting spatial and temporal continuity at once.
package sz2

import (
	"fmt"

	"github.com/mdz/mdz/internal/resid"
)

// Mode selects the prediction dimensionality.
type Mode uint8

// Prediction modes (Table IV).
const (
	Mode2D Mode = iota // default: the stronger mode, used in the evaluation
	Mode1D
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Mode1D {
		return "1D"
	}
	return "2D"
}

// Compressor is a stateless per-batch SZ2 codec.
type Compressor struct {
	// Mode selects 1-D or 2-D Lorenzo prediction (default Mode2D).
	Mode Mode
}

// Name implements the benchmark Codec naming convention.
func (c *Compressor) Name() string { return "SZ2-" + c.Mode.String() }

// format carries the mode as its one parameter byte.
var format = resid.Format{Magic: "SZ2B", Params: 1}

// CompressSeries compresses one axis batch (snapshots × particles) under
// absolute error bound eb.
func (c *Compressor) CompressSeries(batch [][]float64, eb float64) ([]byte, error) {
	if c.Mode != Mode1D && c.Mode != Mode2D {
		return nil, fmt.Errorf("sz2: unknown mode %d", c.Mode)
	}
	return format.Encode(batch, eb, []byte{byte(c.Mode)}, lorenzo)
}

// DecompressSeries inverts CompressSeries.
func (c *Compressor) DecompressSeries(blk []byte) ([][]float64, error) {
	return format.Decode(blk, lorenzo)
}

// lorenzo is SZ2's walk: snapshot-major, each value predicted by the
// block's mode from its reconstructed neighbors.
func lorenzo(c *resid.Coder) {
	mode := Mode(c.Params[0])
	if mode != Mode1D && mode != Mode2D {
		c.Fail()
		return
	}
	r := c.Recon
	bs, n := c.Shape()
	for t := 0; t < bs; t++ {
		for i := 0; i < n; i++ {
			var pred float64
			switch {
			case mode == Mode1D:
				// Flat stream: previous value, crossing snapshot borders.
				if i > 0 {
					pred = r[t][i-1]
				} else if t > 0 {
					pred = r[t-1][n-1]
				}
			case i > 0 && t > 0: // left + up - diagonal
				pred = r[t][i-1] + r[t-1][i] - r[t-1][i-1]
			case i > 0:
				pred = r[t][i-1]
			case t > 0:
				pred = r[t-1][i]
			}
			c.Code(t, i, pred)
		}
	}
}
