// Package resid is the residual-coding stage shared by the SZ-family
// baselines (SZ2, SZ3i, ASN, LFZip): linear-scale quantization of
// prediction residuals with exactly stored outliers, Huffman coding of the
// bin codes and a dictionary (LZ) final stage, in one block layout:
//
//	magic | params | eb | scale | bs | n | section(LZ(side | Huffman(codes) | section(outliers)))
//
// params are a codec's fixed-size header bytes (SZ2's mode, LFZip's filter
// order) and side is an optional section a codec fills while encoding and
// reads back while decoding (ASN's per-snapshot predictor selectors).
//
// Each baseline keeps only its traversal and predictor, written once as a
// Walk. The stage drives that one walk in both directions, so a baseline's
// encoder and decoder cannot predict differently.
package resid

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/huffman"
	"github.com/mdz/mdz/internal/lossless"
	"github.com/mdz/mdz/internal/quant"
)

// Scale is the quantization interval count of every SZ-family block
// written here: SZ2's default of 65536.
const Scale = 65536

// maxValues caps the geometry (bs × n) a block header may claim.
const maxValues = 1 << 33

// ErrCorrupt is returned for malformed blocks.
var ErrCorrupt = errors.New("resid: corrupt block")

// Format identifies one codec's blocks.
type Format struct {
	Magic  string // 4-byte block magic
	Params int    // number of codec parameter bytes after the magic
	Side   bool   // the payload opens with a side section
}

// A Walk visits every value of a bs × n batch exactly once, in a codec's
// traversal order, predicting each from values already visited: it passes
// the prediction to Coder.Code, which codes the value and returns its
// reconstruction. The same walk encodes and decodes.
type Walk func(c *Coder)

// Coder is one direction of the stage, as a Walk sees it.
type Coder struct {
	// Params are the block's codec parameter bytes.
	Params []byte
	// Data is the batch being encoded; nil when decoding.
	Data [][]float64
	// Recon holds the reconstruction of every value Code has returned so
	// far; a decoded block's values.
	Recon [][]float64
	// Side is the format's side section: set by the walk when encoding,
	// read by it when decoding.
	Side []byte

	q         *quant.Quantizer
	codes     []int
	outliers  []byte
	pos, opos int // decode cursors into codes and outliers
	err       error
}

// Shape returns the batch geometry: bs snapshots of n values.
func (c *Coder) Shape() (bs, n int) { return len(c.Recon), len(c.Recon[0]) }

// Code codes value (t, i) against pred and returns its reconstruction,
// which it also stores in Recon[t][i]. When encoding, the value is
// quantized (or stored as an outlier); when decoding, the next code is
// read. After a decode error Code returns 0 and the block fails.
func (c *Coder) Code(t, i int, pred float64) float64 {
	var v float64
	if c.Data != nil {
		var code int
		code, v, c.outliers = c.q.Code(c.Data[t][i], pred, c.outliers)
		c.codes = append(c.codes, code)
	} else if c.err == nil {
		v, c.opos, c.err = c.q.Decode(c.codes[c.pos], pred, c.outliers, c.opos)
		c.pos++
	}
	c.Recon[t][i] = v
	return v
}

// Fail marks the block corrupt (invalid params or side section); the walk
// may return at once.
func (c *Coder) Fail() { c.err = ErrCorrupt }

// scratch holds the pooled Huffman state and code buffer of one call.
type scratch struct {
	enc   huffman.Scratch
	dec   huffman.DecodeScratch
	codes []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Encode compresses batch (snapshots × particles) under absolute error
// bound eb: params follow the magic, and walk predicts.
func (f Format) Encode(batch [][]float64, eb float64, params []byte, walk Walk) ([]byte, error) {
	if len(batch) == 0 {
		return nil, errors.New("resid: empty batch")
	}
	bs, n := len(batch), len(batch[0])
	for i, s := range batch {
		if len(s) != n {
			return nil, fmt.Errorf("resid: snapshot %d has %d values, want %d", i, len(s), n)
		}
	}
	q, err := quant.New(eb, Scale)
	if err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	c := &Coder{Params: params, Data: batch, Recon: matrix(bs, n), q: q, codes: slices.Grow(sc.codes[:0], bs*n)}
	walk(c)
	sc.codes = c.codes
	if c.err != nil {
		return nil, c.err
	}
	var payload []byte
	if f.Side {
		payload = bitstream.AppendSection(payload, c.Side)
	}
	if payload, err = sc.enc.EncodeInts(payload, c.codes); err != nil {
		return nil, err
	}
	payload = bitstream.AppendSection(payload, c.outliers)
	compressed, err := lossless.LZ{}.Compress(payload)
	if err != nil {
		return nil, err
	}
	out := append([]byte(f.Magic), params...)
	out = bitstream.AppendFloat64(out, eb)
	out = bitstream.AppendUvarint(out, Scale)
	out = bitstream.AppendUvarint(out, uint64(bs))
	out = bitstream.AppendUvarint(out, uint64(n))
	return bitstream.AppendSection(out, compressed), nil
}

// Decode inverts Encode, driving walk to reconstruct the batch.
func (f Format) Decode(blk []byte, walk Walk) ([][]float64, error) {
	br := bitstream.NewByteReader(blk)
	magic, err := br.ReadBytes(len(f.Magic))
	if err != nil || string(magic) != f.Magic {
		return nil, ErrCorrupt
	}
	params, err := br.ReadBytes(f.Params)
	if err != nil {
		return nil, err
	}
	eb, err := br.ReadFloat64()
	if err != nil {
		return nil, err
	}
	scale, err := br.ReadUvarint()
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
	// An empty row counts as one value, so a block of zero-length rows
	// cannot claim an unbounded row count.
	if bs <= 0 || n < 0 || bs > maxValues/max(n, 1) {
		return nil, ErrCorrupt
	}
	q, err := quant.New(eb, int(scale))
	if err != nil {
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
	var side []byte
	if f.Side {
		if side, err = pr.ReadSection(); err != nil {
			return nil, err
		}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	codes, err := sc.dec.DecodeIntsTx(pr, sc.codes, nil)
	if err != nil {
		return nil, err
	}
	sc.codes = codes
	outliers, err := pr.ReadSection()
	if err != nil {
		return nil, err
	}
	if len(codes) != bs*n {
		return nil, ErrCorrupt
	}
	c := &Coder{Params: params, Recon: matrix(bs, n), Side: side, q: q, codes: codes, outliers: outliers}
	walk(c)
	if c.err != nil {
		return nil, ErrCorrupt
	}
	// A walk visits every value once, and an encoder stores exactly the
	// outliers it codes: anything left unread marks a forged block.
	if c.pos != len(codes) || c.opos != len(outliers) {
		return nil, ErrCorrupt
	}
	return c.Recon, nil
}

// matrix returns a zeroed bs × n matrix backed by one allocation.
func matrix(bs, n int) [][]float64 {
	slab := make([]float64, bs*n)
	m := make([][]float64, bs)
	for t := range m {
		m[t] = slab[t*n : (t+1)*n : (t+1)*n]
	}
	return m
}
