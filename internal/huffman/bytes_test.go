package huffman

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
)

// byteCases covers the byte-path shapes that matter: degenerate alphabets,
// the short-section histogram path (<512 bytes), the striped path, skewed
// and near-uniform distributions.
func byteCases() [][]byte {
	rng := rand.New(rand.NewSource(17))
	full := make([]byte, 4096)
	for i := range full {
		full[i] = byte(rng.Intn(256))
	}
	skew := make([]byte, 8192)
	for i := range skew {
		if rng.Float64() < 0.8 {
			skew[i] = 0
		} else {
			skew[i] = byte(rng.Intn(16))
		}
	}
	walk := make([]byte, 3000)
	x := 0.0
	for i := range walk {
		x += rng.NormFloat64()
		walk[i] = byte(int(x) & 0x3F)
	}
	return [][]byte{
		nil,
		{},
		{0},
		{255},
		bytes.Repeat([]byte{7}, 1),
		bytes.Repeat([]byte{7}, 600),
		{1, 2},
		{1, 2, 1, 1, 1, 2},
		full,
		skew,
		walk,
	}
}

func widen(data []byte) []int {
	wide := make([]int, len(data))
	for i, b := range data {
		wide[i] = int(b)
	}
	return wide
}

// TestEncodeBytesMatchesEncodeInts pins the load-bearing identity: the byte
// encoder emits exactly the bytes the generic int encoder emits for the
// widened data.
func TestEncodeBytesMatchesEncodeInts(t *testing.T) {
	for ci, data := range byteCases() {
		got, err := EncodeBytes(nil, data)
		if err != nil {
			t.Fatalf("case %d: EncodeBytes: %v", ci, err)
		}
		want, err := encodeInts(nil, widen(data))
		if err != nil {
			t.Fatalf("case %d: EncodeInts: %v", ci, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d (%d bytes): encodings differ: %d vs %d bytes", ci, len(data), len(got), len(want))
		}
	}
}

// TestDecodeBytesMatchesDecodeInts checks both decode paths (pooled scratch
// and the convenience wrapper) against DecodeInts on shared streams, with
// the scratch reused across cases as the LZ hot path reuses it.
func TestDecodeBytesMatchesDecodeInts(t *testing.T) {
	var s DecodeScratch
	var buf []byte
	for ci, data := range byteCases() {
		enc, err := EncodeBytes(nil, data)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		buf, err = s.DecodeBytes(bitstream.NewByteReader(enc), buf[:0])
		if err != nil {
			t.Fatalf("case %d: scratch DecodeBytes: %v", ci, err)
		}
		if !bytes.Equal(buf, data) {
			t.Errorf("case %d: scratch decode mismatch", ci)
		}
		out, err := DecodeBytes(bitstream.NewByteReader(enc))
		if err != nil {
			t.Fatalf("case %d: DecodeBytes: %v", ci, err)
		}
		if !bytes.Equal(out, data) {
			t.Errorf("case %d: DecodeBytes mismatch", ci)
		}
		ints, err := decodeInts(bitstream.NewByteReader(enc))
		if err != nil {
			t.Fatalf("case %d: DecodeInts: %v", ci, err)
		}
		if len(ints) != len(data) {
			t.Fatalf("case %d: DecodeInts length %d, want %d", ci, len(ints), len(data))
		}
		for i, v := range ints {
			if v != int(data[i]) {
				t.Fatalf("case %d: DecodeInts[%d] = %d, want %d", ci, i, v, data[i])
			}
		}
	}
}

// TestDecodeBytesWideSymbol: a stream whose alphabet leaves the byte range
// decodes via DecodeInts but must fail DecodeBytes with ErrByteRange — and
// only after the stream itself parsed cleanly.
func TestDecodeBytesWideSymbol(t *testing.T) {
	syms := []int{300, 1, 2, 1, 300, 2, 1, 1}
	enc, err := encodeInts(nil, syms)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeInts(bitstream.NewByteReader(enc)); err != nil {
		t.Fatalf("DecodeInts: %v", err)
	}
	var s DecodeScratch
	if _, err := s.DecodeBytes(bitstream.NewByteReader(enc), nil); err != ErrByteRange {
		t.Errorf("scratch DecodeBytes: err = %v, want ErrByteRange", err)
	}
	if _, err := DecodeBytes(bitstream.NewByteReader(enc)); err != ErrByteRange {
		t.Errorf("DecodeBytes: err = %v, want ErrByteRange", err)
	}
}

// appendTableEntry serializes one (delta, length) table pair.
func appendTableEntry(dst []byte, delta int64, l uint8) []byte {
	dst = bitstream.AppendVarint(dst, delta)
	return append(dst, l)
}

// TestReadTableNonAscendingFallback: tables whose symbols are not strictly
// ascending (unreachable from our encoders, but valid input) must take the
// map fallback and agree exactly with the historical map-based ReadTable —
// including last-entry-wins on duplicate symbols.
func TestReadTableNonAscendingFallback(t *testing.T) {
	cases := []struct {
		name  string
		pairs []struct {
			sym int64
			l   uint8
		}
	}{
		{"descending", []struct {
			sym int64
			l   uint8
		}{{5, 1}, {3, 2}, {7, 2}}},
		{"duplicate-last-wins", []struct {
			sym int64
			l   uint8
		}{{5, 2}, {3, 1}, {5, 3}, {5, 2}, {6, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			table := bitstream.AppendUvarint(nil, uint64(len(tc.pairs)))
			prev := int64(0)
			for _, p := range tc.pairs {
				table = appendTableEntry(table, p.sym-prev, p.l)
				prev = p.sym
			}
			want, err := ReadTable(bitstream.NewByteReader(table))
			if err != nil {
				t.Fatalf("ReadTable: %v", err)
			}
			var s DecodeScratch
			got, err := s.ReadTable(bitstream.NewByteReader(table))
			if err != nil {
				t.Fatalf("scratch ReadTable: %v", err)
			}
			// Equivalent decoders decode identical symbol sequences from
			// identical bits (and fail at the same point).
			rng := rand.New(rand.NewSource(99))
			raw := make([]byte, 64)
			rng.Read(raw)
			r1 := bitstream.NewReader(raw)
			r2 := bitstream.NewReader(raw)
			for i := 0; i < 200; i++ {
				s1, e1 := want.Decode(r1)
				s2, e2 := got.Decode(r2)
				if s1 != s2 || (e1 == nil) != (e2 == nil) {
					t.Fatalf("symbol %d: map decoder (%d, %v) vs scratch decoder (%d, %v)", i, s1, e1, s2, e2)
				}
				if e1 != nil {
					break
				}
			}
		})
	}
}

// FuzzEncodeBytesEquivalence fuzzes the full byte-path identity: same wire
// bytes as the widened int path, and a clean byte-for-byte round trip.
func FuzzEncodeBytesEquivalence(f *testing.F) {
	for _, data := range byteCases() {
		f.Add(data)
	}
	var s DecodeScratch
	var buf []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := EncodeBytes(nil, data)
		if err != nil {
			t.Fatalf("EncodeBytes: %v", err)
		}
		want, err := encodeInts(nil, widen(data))
		if err != nil {
			t.Fatalf("EncodeInts: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encodings differ for %d input bytes", len(data))
		}
		buf, err = s.DecodeBytes(bitstream.NewByteReader(got), buf[:0])
		if err != nil {
			t.Fatalf("DecodeBytes: %v", err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatal("round trip mismatch")
		}
	})
}

func benchBytes(n int) []byte {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, n)
	x := 0.0
	for i := range data {
		x += rng.NormFloat64()
		data[i] = byte(int(x) & 0x3F)
		if rng.Float64() < 0.3 {
			data[i] = byte(rng.Intn(256))
		}
	}
	return data
}

func BenchmarkEncodeBytes(b *testing.B) {
	data := benchBytes(1 << 17)
	var dst []byte
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = EncodeBytes(dst[:0], data)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBytes(b *testing.B) {
	data := benchBytes(1 << 17)
	enc, err := EncodeBytes(nil, data)
	if err != nil {
		b.Fatal(err)
	}
	var s DecodeScratch
	var buf []byte
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = s.DecodeBytes(bitstream.NewByteReader(enc), buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}
