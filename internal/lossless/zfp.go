package lossless

import (
	"errors"
	"math"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/huffman"
)

// ZFP is a simplified reimplementation of ZFP's reversible (lossless) mode
// for 1-D streams: values are processed in blocks of 4, promoted to a
// common-exponent fixed-point representation, decorrelated with a
// reversible integer lifting transform (two Haar stages), and the transform
// coefficients are varint-packed into one byte section (huffman.EncodeBytes:
// Huffman coded, or raw where coding would not shrink it). Blocks whose
// promotion would lose bits (mixed exponents beyond 52 bits of headroom, or
// non-finite values) fall back to verbatim storage, preserving exactness —
// the same escape hatch ZFP's reversible mode uses.
type ZFP struct{}

// Name implements FloatCompressor.
func (ZFP) Name() string { return "zfp*" }

const zfpBlock = 4

// CompressFloats implements FloatCompressor.
func (ZFP) CompressFloats(src []float64) ([]byte, error) {
	var flags []byte // 1 byte per block: 1 = transformed, 0 = raw
	var body []byte  // varint coefficients or raw bits
	for start := 0; start < len(src); start += zfpBlock {
		end := start + zfpBlock
		if end > len(src) {
			end = len(src)
		}
		blk := src[start:end]
		coef, emax, ok := promoteBlock(blk)
		if ok && len(blk) == zfpBlock {
			fwdLift(coef)
			flags = append(flags, 1)
			body = bitstream.AppendVarint(body, int64(emax))
			for _, c := range coef {
				body = bitstream.AppendVarint(body, c)
			}
		} else {
			flags = append(flags, 0)
			for _, v := range blk {
				body = bitstream.AppendUint64(body, math.Float64bits(v))
			}
		}
	}
	out := bitstream.AppendUvarint(nil, uint64(len(src)))
	out = bitstream.AppendSection(out, flags)
	return huffman.EncodeBytes(out, body)
}

// DecompressFloats implements FloatCompressor.
func (ZFP) DecompressFloats(src []byte) ([]float64, error) {
	br := bitstream.NewByteReader(src)
	n, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	flags, err := br.ReadSection()
	if err != nil {
		return nil, err
	}
	// Every block of zfpBlock values has a flag byte, so the flags bound the
	// count before it sizes the output.
	if n > zfpBlock*uint64(len(flags)) {
		return nil, ErrCorrupt
	}
	body, err := new(huffman.DecodeScratch).DecodeBytesTx(br, nil, nil)
	if err != nil {
		if errors.Is(err, huffman.ErrByteRange) {
			err = ErrCorrupt
		}
		return nil, err
	}
	rb := bitstream.NewByteReader(body)
	out := make([]float64, 0, n)
	for bi := 0; uint64(len(out)) < n; bi++ {
		if bi >= len(flags) {
			return nil, ErrCorrupt
		}
		size := zfpBlock
		if rem := int(n) - len(out); rem < size {
			size = rem
		}
		if flags[bi] == 1 {
			if size != zfpBlock {
				return nil, ErrCorrupt
			}
			emax, err := rb.ReadVarint()
			if err != nil {
				return nil, err
			}
			var coef [zfpBlock]int64
			for i := range coef {
				coef[i], err = rb.ReadVarint()
				if err != nil {
					return nil, err
				}
			}
			c := coef[:]
			invLift(c)
			scale := math.Ldexp(1, int(emax)-52)
			for _, ci := range c {
				out = append(out, float64(ci)*scale)
			}
		} else {
			for i := 0; i < size; i++ {
				u, err := rb.ReadUint64()
				if err != nil {
					return nil, err
				}
				out = append(out, math.Float64frombits(u))
			}
		}
	}
	return out, nil
}

// promoteBlock converts blk to common-exponent fixed point with 52
// fractional bits relative to the block's max exponent. ok is false when
// any value cannot be represented exactly (the caller stores the block raw).
func promoteBlock(blk []float64) (coef []int64, emax int, ok bool) {
	emax = math.MinInt32
	for _, v := range blk {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, 0, false
		}
		if v != 0 {
			_, e := math.Frexp(v)
			if e > emax {
				emax = e
			}
		}
	}
	if emax == math.MinInt32 {
		emax = 0 // all-zero block
	}
	scale := math.Ldexp(1, 52-emax)
	inv := math.Ldexp(1, emax-52)
	coef = make([]int64, len(blk))
	for i, v := range blk {
		f := v * scale
		if math.Abs(f) >= 1<<62 {
			return nil, 0, false
		}
		c := int64(f)
		if float64(c) != f || float64(c)*inv != v {
			return nil, 0, false // promotion would lose bits
		}
		coef[i] = c
	}
	return coef, emax, true
}

// fwdLift applies two reversible Haar lifting stages to a 4-coefficient
// block: pairwise (sum, diff), then one more stage on the two sums.
func fwdLift(c []int64) {
	c[0], c[1] = haarFwd(c[0], c[1])
	c[2], c[3] = haarFwd(c[2], c[3])
	c[0], c[2] = haarFwd(c[0], c[2])
}

// invLift inverts fwdLift.
func invLift(c []int64) {
	c[0], c[2] = haarInv(c[0], c[2])
	c[0], c[1] = haarInv(c[0], c[1])
	c[2], c[3] = haarInv(c[2], c[3])
}

// haarFwd returns (approx, detail) for the reversible Haar lifting step:
// d = a - b, s = b + (d >> 1).
func haarFwd(a, b int64) (s, d int64) {
	d = a - b
	s = b + (d >> 1)
	return s, d
}

// haarInv inverts haarFwd.
func haarInv(s, d int64) (a, b int64) {
	b = s - (d >> 1)
	a = b + d
	return a, b
}
