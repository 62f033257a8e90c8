package huffman

import (
	"bytes"
	"errors"
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

// isRaw reports whether sec starts with an empty table section.
func isRaw(sec []byte) bool {
	table, err := bitstream.NewByteReader(sec).ReadSection()
	return err == nil && len(table) == 0
}

// checkEncodeBytes pins EncodeBytes' output for data against the int
// encoder: the bytes EncodeInts writes for the widened data where those are
// shorter than the raw section, and the raw section, never longer, where
// they are not. Empty data is always coded.
func checkEncodeBytes(t *testing.T, data []byte) (raw bool) {
	t.Helper()
	got, err := EncodeBytes(nil, data)
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	coded, err := encodeInts(nil, widen(data))
	if err != nil {
		t.Fatalf("EncodeInts: %v", err)
	}
	want := coded
	if r := section(nil, uint64(len(data)), data); len(data) > 0 && len(r) <= len(coded) {
		want = r
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%d input bytes: got %d bytes (raw %v), want %d (raw %v; coded %d)",
			len(data), len(got), isRaw(got), len(want), isRaw(want), len(coded))
	}
	return isRaw(got)
}

// TestEncodeBytesMatchesEncodeInts pins the byte encoder to the int
// encoder (see checkEncodeBytes), and checks that the cases reach both
// forms.
func TestEncodeBytesMatchesEncodeInts(t *testing.T) {
	forms := map[bool]int{}
	for _, data := range byteCases() {
		forms[checkEncodeBytes(t, data)]++
	}
	if forms[true] == 0 || forms[false] == 0 {
		t.Fatalf("cases wrote %d raw and %d coded sections; want both forms", forms[true], forms[false])
	}
}

// TestDecodeBytesMatchesDecodeInts checks DecodeBytesTx, on a scratch
// reused across cases as the LZ hot path reuses it and on fresh scratches,
// against DecodeIntsTx on shared streams. A coded section decodes the same
// through both; a raw one decodes through DecodeBytesTx only.
func TestDecodeBytesMatchesDecodeInts(t *testing.T) {
	var s DecodeScratch
	var buf []byte
	for ci, data := range byteCases() {
		enc, err := EncodeBytes(nil, data)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		buf, err = s.DecodeBytesTx(bitstream.NewByteReader(enc), buf[:0], nil)
		if err != nil {
			t.Fatalf("case %d: reused scratch: %v", ci, err)
		}
		if !bytes.Equal(buf, data) {
			t.Errorf("case %d: reused scratch decode mismatch", ci)
		}
		out, err := new(DecodeScratch).DecodeBytesTx(bitstream.NewByteReader(enc), nil, nil)
		if err != nil {
			t.Fatalf("case %d: fresh scratch: %v", ci, err)
		}
		if !bytes.Equal(out, data) {
			t.Errorf("case %d: fresh scratch decode mismatch", ci)
		}
		ints, err := decodeInts(bitstream.NewByteReader(enc))
		if isRaw(enc) {
			if err == nil {
				t.Errorf("case %d: DecodeInts accepted a raw section", ci)
			}
			continue
		}
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
// decodes via DecodeIntsTx but must fail DecodeBytesTx with ErrByteRange —
// and only after the stream itself parsed cleanly.
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
	if _, err := s.DecodeBytesTx(bitstream.NewByteReader(enc), nil, nil); err != ErrByteRange {
		t.Errorf("DecodeBytesTx: err = %v, want ErrByteRange", err)
	}
}

// TestReadTableRefusesNonAscending: a table whose symbols are not strictly
// ascending — descending, repeated, or past the top of the symbol range —
// is corrupt through both section decoders. No encoder writes one:
// AppendTable lists the alphabet ascending.
func TestReadTableRefusesNonAscending(t *testing.T) {
	cases := []struct {
		name   string
		deltas []int64
		lens   []uint8
	}{
		// Symbols 5, 3, 7: a complete code, decodable but for the order.
		{"descending", []int64{5, -2, 4}, []uint8{1, 2, 2}},
		// Symbols 5, 3, 5, 5, 6.
		{"duplicate", []int64{5, -2, 2, 0, 1}, []uint8{2, 1, 3, 2, 2}},
		// Symbol 3 twice: a complete code with no negative delta.
		{"repeated", []int64{3, 0}, []uint8{1, 1}},
		// Symbols 2^62, then 2^63, which wraps below the first.
		{"overflow", []int64{1 << 62, 1 << 62}, []uint8{1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			table := bitstream.AppendUvarint(nil, uint64(len(tc.deltas)))
			for i, d := range tc.deltas {
				table = bitstream.AppendVarint(table, d)
				table = append(table, tc.lens[i])
			}
			sec := bitstream.AppendSection(nil, table)
			sec = bitstream.AppendUvarint(sec, 4)
			sec = bitstream.AppendSection(sec, []byte{0x5A, 0xC3})
			var s DecodeScratch
			if _, err := s.DecodeIntsTx(bitstream.NewByteReader(sec), nil, nil); !errors.Is(err, ErrCorrupt) {
				t.Errorf("DecodeIntsTx: err = %v, want ErrCorrupt", err)
			}
			if _, err := s.DecodeBytesTx(bitstream.NewByteReader(sec), nil, nil); !errors.Is(err, ErrCorrupt) {
				t.Errorf("DecodeBytesTx: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzEncodeBytesEquivalence fuzzes the byte encoder against the int
// encoder (see checkEncodeBytes) and the byte-for-byte round trip.
func FuzzEncodeBytesEquivalence(f *testing.F) {
	for _, data := range byteCases() {
		f.Add(data)
	}
	var s DecodeScratch
	var buf []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEncodeBytes(t, data)
		got, err := EncodeBytes(nil, data)
		if err != nil {
			t.Fatalf("EncodeBytes: %v", err)
		}
		buf, err = s.DecodeBytesTx(bitstream.NewByteReader(got), buf[:0], nil)
		if err != nil {
			t.Fatalf("DecodeBytesTx: %v", err)
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
		buf, err = s.DecodeBytesTx(bitstream.NewByteReader(enc), buf[:0], nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}
