package lossless

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/huffman"
)

// This file keeps the historical allocating LZ implementation verbatim as
// the reference for differential testing. Its match finder is the oracle
// for the reworked one: both must emit the same literal and sequence
// streams. Its Huffman-only writer and reader stand in for the format from
// before byte sections gained their raw form: the current decoder must read
// every stream the old writer wrote exactly as the old reader does, and the
// old reader must refuse, without panicking, every current stream that
// holds a raw section.

func bytesToInts(b []byte) []int {
	out := make([]int, len(b))
	for i, v := range b {
		out[i] = int(v)
	}
	return out
}

func intsToBytes(v []int) ([]byte, error) {
	out := make([]byte, len(v))
	for i, x := range v {
		if x < 0 || x > 255 {
			return nil, ErrCorrupt
		}
		out[i] = byte(x)
	}
	return out, nil
}

func lzRefMatchLen(src []byte, a, b int) int {
	n := 0
	for b+n < len(src) && src[a+n] == src[b+n] {
		n++
	}
	return n
}

func lzRefHash(b []byte) uint32 {
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	return (v * 2654435761) >> (32 - lzHashBits)
}

// lzRefParse is the historical LZ.Compress's match finder: it returns the
// literal and sequence streams.
func lzRefParse(src []byte) (literals, seq []byte) {
	maxChain := lzMaxChain
	if len(src) >= lzMinMatch {
		head := make([]int32, lzHashSize)
		for i := range head {
			head[i] = -1
		}
		prev := make([]int32, len(src))
		litStart := 0
		i := 0
		for i+lzMinMatch <= len(src) {
			h := lzRefHash(src[i:])
			bestLen, bestDist := 0, 0
			cand := head[h]
			for depth := 0; cand >= 0 && depth < maxChain; depth++ {
				d := i - int(cand)
				if d > lzWindow {
					break
				}
				l := lzRefMatchLen(src, int(cand), i)
				if l > bestLen {
					bestLen, bestDist = l, d
				}
				cand = prev[cand]
			}
			if bestLen >= lzMinMatch {
				litRun := i - litStart
				literals = append(literals, src[litStart:i]...)
				seq = bitstream.AppendUvarint(seq, uint64(litRun))
				seq = bitstream.AppendUvarint(seq, uint64(bestLen))
				seq = bitstream.AppendUvarint(seq, uint64(bestDist))
				end := i + bestLen
				step := 1
				if bestLen > 64 {
					step = 4
				}
				for ; i+lzMinMatch <= len(src) && i < end; i += step {
					hh := lzRefHash(src[i:])
					prev[i] = head[hh]
					head[hh] = int32(i)
				}
				i = end
				litStart = i
			} else {
				prev[i] = head[h]
				head[h] = int32(i)
				i++
			}
		}
		if litStart < len(src) {
			run := len(src) - litStart
			literals = append(literals, src[litStart:]...)
			seq = bitstream.AppendUvarint(seq, uint64(run))
			seq = bitstream.AppendUvarint(seq, 0)
			seq = bitstream.AppendUvarint(seq, 0)
		}
	} else if len(src) > 0 {
		literals = append(literals, src...)
		seq = bitstream.AppendUvarint(seq, uint64(len(src)))
		seq = bitstream.AppendUvarint(seq, 0)
		seq = bitstream.AppendUvarint(seq, 0)
	}
	return literals, seq
}

// lzRefCompress is the historical LZ.Compress, which Huffman-codes both
// sections.
func lzRefCompress(src []byte) ([]byte, error) {
	literals, seq := lzRefParse(src)
	out := bitstream.AppendUvarint(nil, uint64(len(src)))
	var err error
	out, err = new(huffman.Scratch).EncodeInts(out, bytesToInts(literals))
	if err != nil {
		return nil, err
	}
	out, err = new(huffman.Scratch).EncodeInts(out, bytesToInts(seq))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// lzRefDecompress is the historical LZ.Decompress. On certain crafted
// streams (>=2^63 run lengths slipping past the additive overflow) it
// panics on a slice bound; callers recover and treat that as "must error".
func lzRefDecompress(src []byte) ([]byte, error) {
	br := bitstream.NewByteReader(src)
	origSize, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if origSize > 1<<34 {
		return nil, ErrCorrupt
	}
	litInts, err := new(huffman.DecodeScratch).DecodeIntsTx(br, nil, nil)
	if err != nil {
		return nil, err
	}
	literals, err := intsToBytes(litInts)
	if err != nil {
		return nil, err
	}
	seqInts, err := new(huffman.DecodeScratch).DecodeIntsTx(br, nil, nil)
	if err != nil {
		return nil, err
	}
	seq, err := intsToBytes(seqInts)
	if err != nil {
		return nil, err
	}

	capHint := origSize
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	out := make([]byte, 0, capHint)
	sr := bitstream.NewByteReader(seq)
	litPos := 0
	for sr.Len() > 0 {
		litRun, err := sr.ReadUvarint()
		if err != nil {
			return nil, err
		}
		mLen, err := sr.ReadUvarint()
		if err != nil {
			return nil, err
		}
		dist, err := sr.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if litPos+int(litRun) > len(literals) {
			return nil, ErrCorrupt
		}
		if uint64(len(out))+litRun+mLen > origSize {
			return nil, ErrCorrupt
		}
		out = append(out, literals[litPos:litPos+int(litRun)]...)
		litPos += int(litRun)
		if mLen > 0 {
			d := int(dist)
			if d <= 0 || d > len(out) {
				return nil, ErrCorrupt
			}
			start := len(out) - d
			for k := 0; k < int(mLen); k++ {
				out = append(out, out[start+k])
			}
		}
	}
	if uint64(len(out)) != origSize {
		return nil, ErrCorrupt
	}
	return out, nil
}

// refDecompressRecover runs the historical decoder, converting its known
// crafted-stream panic into a sentinel.
var errRefPanic = errors.New("reference decoder panicked")

func refDecompressRecover(src []byte) (out []byte, err error) {
	defer func() {
		if recover() != nil {
			out, err = nil, errRefPanic
		}
	}()
	return lzRefDecompress(src)
}

// lzSections splits an LZ stream into its literal and sequence streams
// with the current section decoder.
func lzSections(t *testing.T, stream []byte) (literals, seq []byte) {
	t.Helper()
	br := bitstream.NewByteReader(stream)
	if _, err := br.ReadUvarint(); err != nil {
		t.Fatalf("size: %v", err)
	}
	var s huffman.DecodeScratch
	for _, dst := range []*[]byte{&literals, &seq} {
		var err error
		if *dst, err = s.DecodeBytesTx(br, nil, nil); err != nil {
			t.Fatalf("section: %v", err)
		}
	}
	return literals, seq
}

// lzStreamHasRaw reports whether the reference reader meets a raw section
// in stream: it walks the size and up to two sections until one is raw or
// the layout breaks.
func lzStreamHasRaw(stream []byte) bool {
	br := bitstream.NewByteReader(stream)
	if _, err := br.ReadUvarint(); err != nil {
		return false
	}
	for range 2 {
		table, err := br.ReadSection()
		if err != nil {
			return false
		}
		if len(table) == 0 {
			return true
		}
		if _, err := br.ReadUvarint(); err != nil {
			return false
		}
		if _, err := br.ReadSection(); err != nil {
			return false
		}
	}
	return false
}

// checkLZDifferential asserts old-vs-new equivalence on one input. The
// current coder emits the reference's literal and sequence streams and
// round-trips. Its output equals the reference's when no section is raw,
// and is never longer. Both readers decode the reference's output alike,
// and the reference reader refuses the current output when it holds a raw
// section.
func checkLZDifferential(t *testing.T, in []byte) {
	t.Helper()
	z := LZ{}
	newC, err := z.Compress(in)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	literals, seq := lzSections(t, newC)
	refLit, refSeq := lzRefParse(in)
	if !bytes.Equal(literals, refLit) || !bytes.Equal(seq, refSeq) {
		t.Fatalf("streams diverge: %d/%d literal and %d/%d sequence bytes (new/ref)",
			len(literals), len(refLit), len(seq), len(refSeq))
	}
	out, err := z.Decompress(newC)
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("round trip: err %v, %d bytes out of %d", err, len(out), len(in))
	}
	refC, err := lzRefCompress(in)
	if err != nil {
		t.Fatalf("reference compress: %v", err)
	}
	if raw := lzStreamHasRaw(newC); len(newC) > len(refC) || (!raw && !bytes.Equal(newC, refC)) {
		t.Fatalf("%d bytes against the reference's %d (raw section: %v)", len(newC), len(refC), raw)
	}
	checkLZDecompressDifferential(t, z, refC)
	checkLZDecompressDifferential(t, z, newC)
}

// checkLZDecompressDifferential runs both readers on stream. A stream in
// which the reference reader meets a raw section must be refused by it
// with an error, not a panic; the current reader must not panic on it.
// Any other stream must decode to identical bytes or fail with identical
// errors (a reference panic counts as "the current reader must fail").
func checkLZDecompressDifferential(t *testing.T, z LZ, stream []byte) {
	t.Helper()
	newOut, newErr := z.Decompress(stream)
	refOut, refErr := refDecompressRecover(stream)
	if lzStreamHasRaw(stream) {
		if refErr == nil || errors.Is(refErr, errRefPanic) {
			t.Fatalf("reference reader on a raw section: err %v, want a refusal", refErr)
		}
		return
	}
	if errors.Is(refErr, errRefPanic) {
		if newErr == nil {
			t.Fatalf("reference panicked but new decoder accepted the stream (%d bytes out)", len(newOut))
		}
		return
	}
	if !errors.Is(newErr, refErr) || !errors.Is(refErr, newErr) {
		t.Fatalf("decompress err: %v (new) vs %v (ref)", newErr, refErr)
	}
	if newErr == nil && !bytes.Equal(newOut, refOut) {
		t.Fatalf("decompressed bytes diverge: %d vs %d bytes", len(newOut), len(refOut))
	}
}

// TestLZDifferentialSeeded is the always-on slice of the differential fuzz:
// structured inputs, each whole and cut to four shorter prefixes so that
// section sizes cross between the coded and raw forms, plus corrupted
// current and reference streams.
func TestLZDifferentialSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	inputs := [][]byte{
		nil,
		{},
		{1},
		{1, 2, 3},
		{1, 2, 3, 4},
		bytes.Repeat([]byte{7}, 300),
		bytes.Repeat([]byte("abcd"), 200),
		bytes.Repeat([]byte("molecular dynamics "), 64),
		[]byte("abcabcabcXabcabcabc"),
	}
	random := make([]byte, 8192)
	rng.Read(random)
	inputs = append(inputs, random)
	skewed := make([]byte, 20000)
	for i := range skewed {
		if rng.Float64() < 0.8 {
			skewed[i] = 0
		} else {
			skewed[i] = byte(rng.Intn(16))
		}
	}
	inputs = append(inputs, skewed)
	// MD-pipeline-like payload: Huffman-coded quantization residuals.
	inputs = append(inputs, FloatsToBytes(mdLikeFloats(4096, 11)))

	for _, shift := range []uint{0, 1, 3, 5, 7} {
		for _, in := range inputs {
			t.Run("", func(t *testing.T) {
				checkLZDifferential(t, in[:len(in)>>shift])
			})
		}
	}
	// Corrupted/truncated streams must fail identically, or be refused by
	// the reference reader where it meets a raw section.
	z := LZ{}
	xylo := bytes.Repeat([]byte("xylophone"), 300)
	comp, _ := z.Compress(xylo)
	refComp, _ := lzRefCompress(xylo)
	for _, c := range [][]byte{comp, refComp} {
		for cut := 0; cut < len(c); cut += 1 + len(c)/97 {
			checkLZDecompressDifferential(t, z, c[:cut])
		}
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), c...)
			for k := 0; k < 1+trial%4; k++ {
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			}
			checkLZDecompressDifferential(t, z, mut)
		}
	}
}

// FuzzLZDifferential fuzzes new-vs-old over both directions: arbitrary
// inputs through the match finders and the round trip
// (checkLZDifferential), and the same bytes reinterpreted as a compressed
// stream through both readers (checkLZDecompressDifferential).
func FuzzLZDifferential(f *testing.F) {
	f.Add([]byte("seed data seed data seed data"))
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 50))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, in []byte) {
		checkLZDifferential(t, in)
		checkLZDecompressDifferential(t, LZ{}, in)
	})
}
