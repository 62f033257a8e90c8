package lossless

import (
	"errors"
	"math"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/huffman"
)

// FPZip is a simplified reimplementation of fpzip's mechanism: each double
// is predicted from its predecessor (the 1-D Lorenzo predictor), the
// prediction residual is formed on a *monotone integer* remapping of the
// IEEE-754 bit pattern (so numerically close floats have numerically small
// residuals), and residuals are entropy coded. The original fpzip uses a
// range coder over residual group sizes; we varint-pack residuals and
// write the resulting bytes as one byte section (huffman.EncodeBytes:
// Huffman coded, or raw where coding would not shrink them), which
// captures the same prediction+entropy structure with stdlib-only code.
type FPZip struct{}

// Name implements FloatCompressor.
func (FPZip) Name() string { return "fpzip*" }

// floatToOrdered maps float64 bit patterns to uint64 such that the integer
// order matches the IEEE total order: negatives map below positives and
// magnitude ordering is preserved within each sign.
func floatToOrdered(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | (1 << 63)
}

// orderedToFloat inverts floatToOrdered.
func orderedToFloat(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// CompressFloats implements FloatCompressor.
func (FPZip) CompressFloats(src []float64) ([]byte, error) {
	var resid []byte
	prev := uint64(1 << 63) // ordered encoding of +0
	for _, v := range src {
		m := floatToOrdered(v)
		resid = bitstream.AppendVarint(resid, int64(m-prev))
		prev = m
	}
	out := bitstream.AppendUvarint(nil, uint64(len(src)))
	return huffman.EncodeBytes(out, resid)
}

// DecompressFloats implements FloatCompressor.
func (FPZip) DecompressFloats(src []byte) ([]float64, error) {
	br := bitstream.NewByteReader(src)
	n, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	resid, err := new(huffman.DecodeScratch).DecodeBytesTx(br, nil, nil)
	if err != nil {
		if errors.Is(err, huffman.ErrByteRange) {
			err = ErrCorrupt
		}
		return nil, err
	}
	// Every value has a residual varint of at least one byte, so the
	// residuals bound the count before it sizes the output.
	if n > uint64(len(resid)) {
		return nil, ErrCorrupt
	}
	rr := bitstream.NewByteReader(resid)
	out := make([]float64, n)
	prev := uint64(1 << 63)
	for i := range out {
		d, err := rr.ReadVarint()
		if err != nil {
			return nil, err
		}
		m := prev + uint64(d)
		out[i] = orderedToFloat(m)
		prev = m
	}
	return out, nil
}
