package lossless

import (
	"bytes"
	"testing"
)

// FuzzLZDecompress must never panic or hang on arbitrary input. Seeds
// cover both section forms: a stream whose sections are both raw (sixteen
// distinct bytes with no match), and one in the format from before raw
// sections, both sections Huffman coded.
func FuzzLZDecompress(f *testing.F) {
	z := LZ{}
	seed, _ := z.Compress([]byte("seed data seed data seed data"))
	raw, _ := z.Compress([]byte("0123456789abcdef"))
	old, _ := lzRefCompress([]byte("seed data seed data seed data"))
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Add(raw)
	f.Add(old)
	f.Fuzz(func(t *testing.T, in []byte) {
		out, err := z.Decompress(in)
		if err == nil && len(out) > 1<<26 {
			t.Fatalf("suspiciously large expansion: %d bytes", len(out))
		}
	})
}

// FuzzLZRoundTrip: compress-then-decompress must be the identity.
func FuzzLZRoundTrip(f *testing.F) {
	f.Add([]byte("hello hello hello"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 100))
	z := LZ{}
	f.Fuzz(func(t *testing.T, in []byte) {
		comp, err := z.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := z.Decompress(comp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("round trip mismatch: %d in, %d out", len(in), len(out))
		}
	})
}

// FuzzFPCDecompress exercises the FPC decoder on arbitrary bytes.
func FuzzFPCDecompress(f *testing.F) {
	seed, _ := FPC{}.CompressFloats([]float64{1, 2, 3})
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		out, _ := (FPC{}).DecompressFloats(in)
		if len(out) > 1<<24 {
			t.Fatalf("oversized output %d", len(out))
		}
	})
}

// FuzzZFPDecompress exercises the ZFP decoder on arbitrary bytes.
func FuzzZFPDecompress(f *testing.F) {
	seed, _ := ZFP{}.CompressFloats([]float64{1.5, -2.25, 3, 4})
	f.Add(seed)
	f.Fuzz(func(t *testing.T, in []byte) {
		out, _ := (ZFP{}).DecompressFloats(in)
		if len(out) > 1<<24 {
			t.Fatalf("oversized output %d", len(out))
		}
	})
}
