// Package quant implements the error-controlled linear-scale quantization
// stage shared by MDZ and the SZ-family baselines (paper §VI-C).
//
// A Quantizer maps a prediction residual r = d − pred to an integer bin
// code = round(r / (2·eb)); reconstruction is pred + code·2·eb, which keeps
// every decompressed value within the absolute error bound eb. Codes are
// biased by Scale/2 so the common near-zero residual lands mid-range, and
// residuals that fall outside the configured quantization scale are flagged
// as outliers (the paper's "out-of-scope" points): they carry the reserved
// code 0 and their exact value is stored separately.
package quant

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShort is returned when a bounded-value decode runs out of input.
var ErrShort = errors.New("quant: short buffer")

// DefaultScale is the paper's chosen quantization scale: 1024 bins balances
// Huffman-tree size against the number of out-of-scope points (Fig 9).
const DefaultScale = 1024

// Reserved is the bin code that marks an out-of-scope (outlier) value.
const Reserved = 0

// Quantizer performs error-bounded linear-scale quantization with a fixed
// absolute error bound and scale. The zero value is not usable; use New.
type Quantizer struct {
	eb     float64 // absolute error bound
	twoEB  float64
	mid    int // bias: code for zero residual
	maxMag int // max |quantized| residual representable
}

// New returns a Quantizer with absolute error bound eb and the given scale
// (number of bins). Scale must be at least 4 and eb positive.
func New(eb float64, scale int) (*Quantizer, error) {
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("quant: error bound must be positive and finite, got %v", eb)
	}
	if scale < 4 {
		return nil, fmt.Errorf("quant: scale must be >= 4, got %d", scale)
	}
	mid := scale / 2
	return &Quantizer{
		eb:     eb,
		twoEB:  2 * eb,
		mid:    mid,
		maxMag: mid - 1, // codes 1..scale-1 usable; 0 reserved
	}, nil
}

// Quantize maps value d with prediction pred to a bin code and the
// reconstructed (decompressed) value. ok is false when the residual is out
// of scope; the caller must then store d exactly and use code Reserved.
func (q *Quantizer) Quantize(d, pred float64) (code int, recon float64, ok bool) {
	r := d - pred
	k := math.Round(r / q.twoEB)
	if math.Abs(k) > float64(q.maxMag) || math.IsNaN(k) {
		return Reserved, d, false
	}
	recon = pred + k*q.twoEB
	// Floating-point rounding can nudge the reconstruction just past the
	// bound for extreme magnitudes; fall back to exact storage in that case.
	if math.Abs(recon-d) > q.eb || math.IsInf(recon, 0) {
		return Reserved, d, false
	}
	return int(k) + q.mid, recon, true
}

// Dequantize reconstructs a value from a bin code and prediction. The code
// must not be Reserved (outliers are restored from exact storage).
func (q *Quantizer) Dequantize(code int, pred float64) float64 {
	return pred + float64(code-q.mid)*q.twoEB
}

// Code is Quantize with the out-of-scope case resolved: d is appended to
// outliers with AppendBounded under code Reserved. recon is what Decode
// reconstructs either way, so an encoder predicting from it stays in
// lock-step with the decoder.
func (q *Quantizer) Code(d, pred float64, outliers []byte) (code int, recon float64, _ []byte) {
	code, recon, ok := q.Quantize(d, pred)
	if !ok {
		outliers, recon = AppendBounded(outliers, d, q.eb)
	}
	return code, recon, outliers
}

// Decode inverts Code: a Reserved code reads the next stored value from
// outliers at cursor opos, any other code dequantizes against pred. It
// returns the value and the advanced cursor, or ErrShort when the outlier
// bytes run out.
func (q *Quantizer) Decode(code int, pred float64, outliers []byte, opos int) (float64, int, error) {
	if code != Reserved {
		return q.Dequantize(code, pred), opos, nil
	}
	v, nb, err := ReadBounded(outliers[opos:], q.eb)
	return v, opos + nb, err
}

// AbsBound converts a value-range-based relative error bound ε into the
// absolute bound value_range × ε used throughout the paper's evaluation.
func AbsBound(epsilon, lo, hi float64) float64 {
	r := hi - lo
	if r <= 0 {
		// Degenerate (constant) data: any positive bound works; use ε
		// against unit range so compression still proceeds.
		return epsilon
	}
	return epsilon * r
}

// AppendBounded appends a compact error-bounded encoding of v and returns
// the value ReadBounded will decode from it. The value is snapped to a
// 2·eb grid and stored as a varint grid index, mirroring the SZ family's
// truncated storage of unpredictable ("out-of-scope") data. Values that
// cannot be represented on the grid within eb (non-finite or extreme
// magnitudes) fall back to the exact 8-byte bit pattern behind a flag, so
// the bound always holds.
func AppendBounded(dst []byte, v, eb float64) ([]byte, float64) {
	if eb > 0 {
		k := math.Round(v / (2 * eb))
		if math.Abs(k) <= 1<<51 && !math.IsNaN(k) {
			recon := float64(int64(k)) * 2 * eb
			if math.Abs(recon-v) <= eb {
				u := uint64((int64(k)<<1)^(int64(k)>>63)) << 1 // zigzag, flag 0
				return binary.AppendUvarint(dst, u), recon
			}
		}
	}
	dst = binary.AppendUvarint(dst, 1) // flag 1: raw bits follow
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v)), v
}

// ReadBounded decodes a value written by AppendBounded, returning the value
// and the number of bytes consumed.
func ReadBounded(buf []byte, eb float64) (float64, int, error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, ErrShort
	}
	if u&1 == 1 {
		if len(buf) < n+8 {
			return 0, 0, ErrShort
		}
		bits := binary.LittleEndian.Uint64(buf[n:])
		return math.Float64frombits(bits), n + 8, nil
	}
	z := u >> 1
	k := int64(z>>1) ^ -int64(z&1)
	return float64(k) * 2 * eb, n, nil
}

// Range scans values and returns (min, max). It ignores NaNs; if all values
// are NaN it returns (0, 0).
func Range(values []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}
