package lossless

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/huffman"
)

func backends() []Backend {
	return []Backend{Flate{Level: 6}, Flate{Level: 9, Label: "brotli*"}, Zlib{}, LZ{}}
}

func floatCompressors() []FloatCompressor {
	return []FloatCompressor{
		FloatAdapter{B: LZ{}},
		FloatAdapter{B: Zlib{}},
		FloatAdapter{B: Flate{Level: 9}},
		FPC{},
		FPZip{},
		ZFP{},
	}
}

func TestBackendRoundTrip(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0},
		[]byte("a"),
		[]byte("abcabcabcabcabcabcabcabc"),
		bytes.Repeat([]byte{0x55}, 10000),
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 4096)
	rng.Read(random)
	inputs = append(inputs, random)
	// Realistic pipeline payload: skewed Huffman output bytes.
	skewed := make([]byte, 50000)
	for i := range skewed {
		if rng.Float64() < 0.8 {
			skewed[i] = 0
		} else {
			skewed[i] = byte(rng.Intn(16))
		}
	}
	inputs = append(inputs, skewed)

	for _, b := range backends() {
		for i, in := range inputs {
			comp, err := b.Compress(in)
			if err != nil {
				t.Fatalf("%s input %d: compress: %v", b.Name(), i, err)
			}
			out, err := b.Decompress(comp)
			if err != nil {
				t.Fatalf("%s input %d: decompress: %v", b.Name(), i, err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("%s input %d: round trip mismatch (len in=%d out=%d)", b.Name(), i, len(in), len(out))
			}
		}
	}
}

func TestLZCompressesRepetitive(t *testing.T) {
	in := bytes.Repeat([]byte("molecular dynamics "), 1000)
	comp, err := LZ{}.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(in)/10 {
		t.Errorf("LZ on repetitive input: %d -> %d, expected >10x", len(in), len(comp))
	}
}

func TestLZQuickRoundTrip(t *testing.T) {
	z := LZ{}
	f := func(in []byte) bool {
		comp, err := z.Compress(in)
		if err != nil {
			return false
		}
		out, err := z.Decompress(comp)
		if err != nil {
			return false
		}
		return bytes.Equal(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLZOverlappingMatch(t *testing.T) {
	// RLE-style input forces overlapping copies (dist < matchLen).
	in := append([]byte{1, 2, 3, 4}, bytes.Repeat([]byte{1, 2, 3, 4}, 100)...)
	z := LZ{}
	comp, err := z.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := z.Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, in) {
		t.Fatal("overlapping-match round trip failed")
	}
}

// TestLZRefusesNonAscendingTable: a literal section whose code table lists
// its symbols out of order, or one symbol twice, is corrupt, as it is for
// the Huffman section decoders, although the code it describes is complete
// and the rest of the stream is valid.
func TestLZRefusesNonAscendingTable(t *testing.T) {
	cases := []struct {
		name   string
		deltas []int64
		lens   []byte
	}{
		// Symbols 5, 3, 7 with code lengths 1, 2, 2; 0x5A decodes to
		// 5, 3, 7, 5.
		{"descending", []int64{5, -2, 4}, []byte{1, 2, 2}},
		// Symbol 3 twice with one-bit codes; 0x5A decodes to 3, 3, 3, 3.
		{"repeated", []int64{3, 0}, []byte{1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			table := bitstream.AppendUvarint(nil, uint64(len(tc.deltas)))
			for i, d := range tc.deltas {
				table = append(bitstream.AppendVarint(table, d), tc.lens[i])
			}
			src := bitstream.AppendUvarint(nil, 4)
			src = bitstream.AppendSection(src, table)
			src = bitstream.AppendUvarint(src, 4)
			src = bitstream.AppendSection(src, []byte{0x5A})
			// One sequence, a 4-literal run with no match, coded as an
			// int section so that both readers reach the table.
			src, err := new(huffman.Scratch).EncodeInts(src, []int{4, 0, 0})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := (LZ{}).Decompress(src); !errors.Is(err, huffman.ErrCorrupt) {
				t.Errorf("Decompress: err = %v, want huffman.ErrCorrupt", err)
			}
			checkLZDecompressDifferential(t, LZ{}, src)
		})
	}
}

// TestLZBoundedExpansion: random bytes, which neither matches nor Huffman
// coding can shrink, come out of LZ at most lzExpansion bytes longer than
// they went in. Both sections are then raw, and the framing is four
// uvarints of the input length (three bytes each up to 2 MiB), three
// section lengths of one byte and the two zero uvarints of the one
// sequence, plus a few bytes for the 4-byte matches random input holds by
// chance (each turns four literal bytes into a sequence of up to seven).
func TestLZBoundedExpansion(t *testing.T) {
	const lzExpansion = 24
	rng := rand.New(rand.NewSource(41))
	worst := 0
	for _, n := range []int{0, 1, 2, 3, 4, 5, 16, 100, 255, 256, 1000, 1024, 4096, 10000, 16384, 65535, 65536} {
		for trial := 0; trial < 4; trial++ {
			in := make([]byte, n)
			rng.Read(in)
			out, err := LZ{}.Compress(in)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) > len(in)+lzExpansion {
				t.Errorf("%d random bytes compressed to %d", n, len(out))
			}
			worst = max(worst, len(out)-len(in))
		}
	}
	t.Logf("largest expansion: %d bytes", worst)
}

func TestLZCorrupt(t *testing.T) {
	z := LZ{}
	comp, _ := z.Compress(bytes.Repeat([]byte("xy"), 500))
	for _, cut := range []int{0, 1, len(comp) / 2, len(comp) - 1} {
		if _, err := z.Decompress(comp[:cut]); err == nil {
			t.Errorf("decompress of %d-byte prefix should fail", cut)
		}
	}
}

func mdLikeFloats(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	x := 10.0
	for i := range out {
		x += rng.NormFloat64() * 0.01
		out[i] = x
	}
	return out
}

func TestFloatCompressorsRoundTrip(t *testing.T) {
	inputs := [][]float64{
		nil,
		{},
		{0},
		{1.5, -2.25, 3.125},
		{math.Pi, math.E, math.Sqrt2, math.Ln2, -math.Pi},
		mdLikeFloats(5000, 7),
		{math.Inf(1), math.Inf(-1), 0, -0.0, math.MaxFloat64, math.SmallestNonzeroFloat64},
	}
	for _, fc := range floatCompressors() {
		for i, in := range inputs {
			comp, err := fc.CompressFloats(in)
			if err != nil {
				t.Fatalf("%s input %d: compress: %v", fc.Name(), i, err)
			}
			out, err := fc.DecompressFloats(comp)
			if err != nil {
				t.Fatalf("%s input %d: decompress: %v", fc.Name(), i, err)
			}
			if len(out) != len(in) {
				t.Fatalf("%s input %d: len %d != %d", fc.Name(), i, len(out), len(in))
			}
			for j := range in {
				if math.Float64bits(out[j]) != math.Float64bits(in[j]) {
					t.Fatalf("%s input %d elem %d: %v != %v", fc.Name(), i, j, out[j], in[j])
				}
			}
		}
	}
}

func TestFloatCompressorsNaN(t *testing.T) {
	in := []float64{1, math.NaN(), 3}
	for _, fc := range floatCompressors() {
		comp, err := fc.CompressFloats(in)
		if err != nil {
			t.Fatalf("%s: %v", fc.Name(), err)
		}
		out, err := fc.DecompressFloats(comp)
		if err != nil {
			t.Fatalf("%s: %v", fc.Name(), err)
		}
		if !math.IsNaN(out[1]) || out[0] != 1 || out[2] != 3 {
			t.Errorf("%s: NaN round trip: %v", fc.Name(), out)
		}
	}
}

func TestFloatQuickRoundTrip(t *testing.T) {
	for _, fc := range []FloatCompressor{FPC{}, FPZip{}, ZFP{}} {
		fc := fc
		f := func(in []float64) bool {
			comp, err := fc.CompressFloats(in)
			if err != nil {
				return false
			}
			out, err := fc.DecompressFloats(comp)
			if err != nil || len(out) != len(in) {
				return false
			}
			for i := range in {
				if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("%s: %v", fc.Name(), err)
		}
	}
}

func TestOrderedFloatMapMonotone(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -1e-300, 0, 1e-300, 1, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		if floatToOrdered(vals[i-1]) >= floatToOrdered(vals[i]) {
			t.Errorf("ordering violated between %v and %v", vals[i-1], vals[i])
		}
	}
	f := func(x float64) bool { return orderedToFloat(floatToOrdered(x)) == x || math.IsNaN(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHaarLiftReversible(t *testing.T) {
	f := func(a, b int32) bool {
		s, d := haarFwd(int64(a), int64(b))
		ga, gb := haarInv(s, d)
		return ga == int64(a) && gb == int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZFPSmoothBeatsRaw(t *testing.T) {
	in := make([]float64, 4096)
	for i := range in {
		in[i] = 100 + math.Sin(float64(i)*0.001) // very smooth, shared exponent
	}
	comp, err := (ZFP{}).CompressFloats(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(in)*8 {
		t.Errorf("ZFP on smooth input: %d floats -> %d bytes (no gain)", len(in), len(comp))
	}
}

func TestFloatAdapterRejectsMisaligned(t *testing.T) {
	comp, err := Zlib{}.Compress([]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (FloatAdapter{B: Zlib{}}).DecompressFloats(comp); err == nil {
		t.Error("expected error for misaligned byte count")
	}
}

func TestFPCCorrupt(t *testing.T) {
	comp, _ := FPC{}.CompressFloats(mdLikeFloats(100, 1))
	if _, err := (FPC{}).DecompressFloats(comp[:len(comp)/2]); err == nil {
		t.Error("expected error on truncated FPC stream")
	}
}

// TestForgedValueCountNoAlloc: a ZFP or fpzip stream claiming 2^22 values
// that its bytes cannot hold (a ZFP flag byte per four values, an fpzip
// varint byte per value) is corrupt before its output is sized.
func TestForgedValueCountNoAlloc(t *testing.T) {
	const claim = 1 << 22
	zfp := bitstream.AppendSection(bitstream.AppendUvarint(nil, claim), []byte{1})
	zfp, err := huffman.EncodeBytes(zfp, []byte{0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	fpz, err := huffman.EncodeBytes(bitstream.AppendUvarint(nil, claim), []byte{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		c   FloatCompressor
		src []byte
	}{{ZFP{}, zfp}, {FPZip{}, fpz}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tc.c.DecompressFloats(tc.src)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %d values claimed in %d bytes: err %v, want ErrCorrupt", tc.c.Name(), claim, len(tc.src), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: %d values claimed in %d bytes: allocated %d bytes", tc.c.Name(), claim, len(tc.src), got)
		}
	}
}

func BenchmarkLZCompressMDBytes(b *testing.B) {
	in := FloatsToBytes(mdLikeFloats(1<<14, 3))
	b.SetBytes(int64(len(in)))
	z := LZ{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := z.Compress(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFPCCompress(b *testing.B) {
	in := mdLikeFloats(1<<14, 3)
	b.SetBytes(int64(len(in) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (FPC{}).CompressFloats(in); err != nil {
			b.Fatal(err)
		}
	}
}

// huffLikeBytes synthesizes bytes statistically similar to the pipeline's
// lossless-stage input: the Huffman-packed quantization codes of an MD run
// (high-entropy bit packing with residual structure).
func huffLikeBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	x := 0.0
	for i := range out {
		x += rng.NormFloat64()
		b := byte(int(x) & 0x3F)
		if rng.Float64() < 0.3 {
			b = byte(rng.Intn(256))
		}
		out[i] = b
	}
	return out
}

func BenchmarkLZDecompressMDBytes(b *testing.B) {
	in := FloatsToBytes(mdLikeFloats(1<<14, 3))
	z := LZ{}
	comp, err := z.Compress(in)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := z.Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLZCompressHuffLike(b *testing.B) {
	in := huffLikeBytes(1<<17, 3)
	b.SetBytes(int64(len(in)))
	z := LZ{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := z.Compress(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLZDecompressHuffLike(b *testing.B) {
	in := huffLikeBytes(1<<17, 3)
	z := LZ{}
	comp, err := z.Compress(in)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := z.Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLZCompressSkewed(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	in := make([]byte, 1<<17)
	for i := range in {
		if rng.Float64() < 0.8 {
			in[i] = 0
		} else {
			in[i] = byte(rng.Intn(16))
		}
	}
	b.SetBytes(int64(len(in)))
	z := LZ{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := z.Compress(in); err != nil {
			b.Fatal(err)
		}
	}
}
