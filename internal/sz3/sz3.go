// Package sz3 implements an interpolation-based error-bounded compressor in
// the style of SZ3 / SZ-Interp (Zhao et al., ICDE 2021 — the paper's
// reference [31]). It is not part of the paper's comparison set (the paper
// cites prior work showing interpolation compressors are sub-optimal on MD
// data because they rely on smoothness along the interpolated dimension);
// it is included as an extension baseline so that claim can be checked
// directly (experiment "ext1").
//
// Mechanism: per particle time series, a multi-level cubic/linear
// interpolation cascade predicts each point from already-reconstructed
// points at coarser strides (level ℓ predicts odd multiples of 2^ℓ from
// neighbors at 2^(ℓ+1)); residuals go through the shared SZ-family
// quantization + Huffman + dictionary stage (internal/resid).
package sz3

import "github.com/mdz/mdz/internal/resid"

// Compressor is a stateless per-batch interpolation codec.
type Compressor struct{}

// Name implements the benchmark Codec naming convention.
func (c *Compressor) Name() string { return "SZ3i" }

var format = resid.Format{Magic: "SZ3B"}

// CompressSeries compresses one axis batch under absolute error bound eb.
// Interpolation runs along each particle's time dimension (the layout that
// favors interpolation most on trajectory data).
func (c *Compressor) CompressSeries(batch [][]float64, eb float64) ([]byte, error) {
	return format.Encode(batch, eb, nil, interpolate)
}

// DecompressSeries inverts CompressSeries.
func (c *Compressor) DecompressSeries(blk []byte) ([][]float64, error) {
	return format.Decode(blk, interpolate)
}

// interpOrder enumerates, for a series of length m, the prediction schedule:
// anchors at the coarsest stride are predicted from their predecessors, then
// each finer level interpolates midpoints from reconstructed neighbors.
//
// For every index it returns (a, b): the indices whose reconstructed values
// predict it (b < 0 means single-point prediction from a; a < 0 means no
// prediction, i.e. the very first anchor predicted as 0).
func interpOrder(m int) (order []int, pa, pb []int) {
	pa = make([]int, m)
	pb = make([]int, m)
	for i := range pa {
		pa[i], pb[i] = -1, -1
	}
	// Coarsest power-of-two stride <= m.
	stride := 1
	for stride*2 < m {
		stride *= 2
	}
	// Anchors: 0, stride, 2*stride... predicted from the previous anchor.
	prev := -1
	for i := 0; i < m; i += stride {
		order = append(order, i)
		pa[i] = prev
		prev = i
	}
	// Refinement levels.
	for s := stride; s >= 2; s /= 2 {
		half := s / 2
		for i := half; i < m; i += s {
			order = append(order, i)
			lo := i - half
			hi := i + half
			if hi >= m {
				// Right edge: extrapolate from the left neighbor only.
				pa[i] = lo
			} else {
				pa[i], pb[i] = lo, hi
			}
		}
	}
	return order, pa, pb
}

// interpolate is SZ3i's walk: particle by particle, the time series in
// interpOrder's schedule, each point predicted from its reconstructed
// interpolation neighbors.
func interpolate(c *resid.Coder) {
	r := c.Recon
	bs, n := c.Shape()
	order, pa, pb := interpOrder(bs)
	for i := 0; i < n; i++ {
		for _, t := range order {
			var pred float64
			switch a, b := pa[t], pb[t]; {
			case a < 0: // the first anchor is predicted as 0
			case b < 0:
				pred = r[a][i]
			default:
				pred = (r[a][i] + r[b][i]) / 2
			}
			c.Code(t, i, pred)
		}
	}
}
