package huffman

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/mdz/mdz/internal/bitstream"
)

func roundTrip(t *testing.T, syms []int) {
	t.Helper()
	buf, err := encodeInts(nil, syms)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeInts(bitstream.NewByteReader(buf))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(syms) == 0 && len(got) == 0 {
		return
	}
	if !reflect.DeepEqual(got, syms) {
		t.Fatalf("round trip mismatch: got %v want %v", got, syms)
	}
}

func TestRoundTripBasic(t *testing.T) {
	roundTrip(t, []int{1, 2, 3, 1, 1, 1, 2, 0, -5, 1024, -1024, 1, 1})
}

func TestRoundTripSingleSymbol(t *testing.T) {
	roundTrip(t, []int{7, 7, 7, 7, 7})
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, []int{})
}

func TestRoundTripNegativeSymbols(t *testing.T) {
	roundTrip(t, []int{-1, -2, -3, -1000000, 1000000, 0})
}

func TestRoundTripSkewed(t *testing.T) {
	// Heavily skewed distribution typical of quantization bins.
	rng := rand.New(rand.NewSource(42))
	syms := make([]int, 20000)
	for i := range syms {
		r := rng.Float64()
		switch {
		case r < 0.85:
			syms[i] = 512 // the "zero residual" bin
		case r < 0.95:
			syms[i] = 511 + rng.Intn(3)
		default:
			syms[i] = rng.Intn(1024)
		}
	}
	buf, err := encodeInts(nil, syms)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeInts(bitstream.NewByteReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, syms) {
		t.Fatal("round trip mismatch on skewed data")
	}
	// Entropy coding must beat the 2-byte naive encoding on skewed data.
	if len(buf) > len(syms) {
		t.Errorf("compressed size %d exceeds %d symbols at 1B/sym on skewed data", len(buf), len(syms))
	}
}

func TestSkewedCodesShorter(t *testing.T) {
	freq := map[int]uint64{0: 1000, 1: 100, 2: 10, 3: 1}
	e, err := buildFreq(freq)
	if err != nil {
		t.Fatal(err)
	}
	if codeLen(e, 0) > codeLen(e, 3) {
		t.Errorf("frequent symbol has longer code: len(0)=%d len(3)=%d", codeLen(e, 0), codeLen(e, 3))
	}
	if codeLen(e, 0) != 1 {
		t.Errorf("dominant symbol should get a 1-bit code, got %d", codeLen(e, 0))
	}
}

func TestKraftInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		freq := map[int]uint64{}
		n := 2 + rng.Intn(300)
		for i := 0; i < n; i++ {
			freq[rng.Intn(2000)-1000] = uint64(1 + rng.Intn(10000))
		}
		e, err := buildFreq(freq)
		if err != nil {
			t.Fatal(err)
		}
		var kraft float64
		for _, c := range e.codes {
			kraft += 1.0 / float64(uint64(1)<<c.n)
		}
		if kraft > 1.0000001 {
			t.Fatalf("trial %d: Kraft sum %v > 1", trial, kraft)
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	freq := map[int]uint64{5: 3, -2: 3, 9: 3, 0: 7}
	a, _ := buildFreq(freq)
	b, _ := buildFreq(freq)
	if !reflect.DeepEqual(a.AppendTable(nil), b.AppendTable(nil)) {
		t.Error("build is not deterministic")
	}
}

func TestEncodeUnknownSymbol(t *testing.T) {
	e, _ := buildFreq(map[int]uint64{1: 1, 2: 1})
	w := &bitstream.Writer{}
	if err := e.Encode(w, 99); err == nil {
		t.Error("expected error encoding unknown symbol")
	}
}

func TestCorruptTable(t *testing.T) {
	// Length byte of 0 is invalid.
	var buf []byte
	buf = bitstream.AppendUvarint(buf, 1)
	buf = bitstream.AppendVarint(buf, 5)
	buf = append(buf, 0)
	if _, err := new(DecodeScratch).ReadTable(bitstream.NewByteReader(buf), nil); err == nil {
		t.Error("expected error on zero code length")
	}
}

func TestCorruptOversubscribed(t *testing.T) {
	// Three symbols of length 1 oversubscribe the code space.
	_, err := newDecoder(map[int]uint8{1: 1, 2: 1, 3: 1})
	if err == nil {
		t.Error("expected error on oversubscribed lengths")
	}
}

func TestTruncatedPayload(t *testing.T) {
	syms := make([]int, 100)
	for i := range syms {
		syms[i] = i % 7
	}
	buf, err := encodeInts(nil, syms)
	if err != nil {
		t.Fatal(err)
	}
	// Chop off the tail; decode must error, not hang or panic.
	_, err = decodeInts(bitstream.NewByteReader(buf[:len(buf)-5]))
	if err == nil {
		t.Error("expected error on truncated payload")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []int16) bool {
		syms := make([]int, len(raw))
		for i, v := range raw {
			syms[i] = int(v)
		}
		buf, err := encodeInts(nil, syms)
		if err != nil {
			return false
		}
		got, err := decodeInts(bitstream.NewByteReader(buf))
		if err != nil {
			return false
		}
		if len(syms) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, syms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestScratchEncodeIntsAllocs pins the reuse of a Scratch across encodes
// with a reused dst: an empty stream (the level section of every MT-coded
// shard), a near-contiguous alphabet, the two alternating as core's shards
// encode bins then levels, and a sparse alphabet (37 symbols spread over
// 3.6 million, counted in a map) all allocate nothing.
func TestScratchEncodeIntsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dense := make([]int, 100000)
	for i := range dense {
		dense[i] = 512 + int(rng.NormFloat64()*5)
	}
	sparse := make([]int, 10000)
	for i := range sparse {
		sparse[i] = rng.Intn(37) * 100000
	}
	cases := []struct {
		name   string
		inputs [][]int
	}{
		{"empty", [][]int{{}}},
		{"dense", [][]int{dense}},
		{"dense-then-empty", [][]int{dense, {}}},
		{"sparse", [][]int{sparse}},
	}
	for _, tc := range cases {
		var s Scratch
		var dst []byte
		var err error
		run := func() {
			dst = dst[:0]
			for _, in := range tc.inputs {
				if dst, err = s.EncodeInts(dst, in); err != nil {
					return
				}
			}
		}
		run() // warm the scratch and dst
		if got := testing.AllocsPerRun(20, run); got != 0 || err != nil {
			t.Errorf("%s: %v allocs/op (err %v), want 0", tc.name, got, err)
		}
	}
}

func BenchmarkEncodeSkewed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]int, 1<<16)
	for i := range syms {
		if rng.Float64() < 0.9 {
			syms[i] = 512
		} else {
			syms[i] = rng.Intn(1024)
		}
	}
	b.SetBytes(int64(len(syms) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeInts(nil, syms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSkewed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]int, 1<<16)
	for i := range syms {
		if rng.Float64() < 0.9 {
			syms[i] = 512
		} else {
			syms[i] = rng.Intn(1024)
		}
	}
	buf, err := encodeInts(nil, syms)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(syms) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeInts(bitstream.NewByteReader(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

// encodeInts and decodeInts run one int section through fresh scratches.
func encodeInts(dst []byte, syms []int) ([]byte, error) {
	return new(Scratch).EncodeInts(dst, syms)
}

func decodeInts(br *bitstream.ByteReader) ([]int, error) {
	return new(DecodeScratch).DecodeIntsTx(br, nil, nil)
}

// buildFreq builds the code of a symbol→frequency map through a fresh
// Scratch, ignoring zero frequencies.
func buildFreq(freq map[int]uint64) (*Encoder, error) {
	syms := make([]int, 0, len(freq))
	for s, f := range freq {
		if f > 0 {
			syms = append(syms, s)
		}
	}
	sort.Ints(syms)
	weights := make([]uint64, len(syms))
	for i, s := range syms {
		weights[i] = freq[s]
	}
	return new(Scratch).build(syms, weights)
}

// codeLen reports the code length of symbol s, 0 outside the alphabet.
func codeLen(e *Encoder, s int) int {
	c, _ := e.lookup(s)
	return int(c.n)
}

// lengthsTable serializes a symbol→length map in AppendTable's layout,
// whether or not the lengths form a valid code.
func lengthsTable(lengths map[int]uint8) []byte {
	table := bitstream.AppendUvarint(nil, uint64(len(lengths)))
	prev := int64(0)
	for _, s := range alphabetOf(lengths) {
		table = bitstream.AppendVarint(table, int64(s)-prev)
		prev = int64(s)
		table = append(table, lengths[s])
	}
	return table
}

// newDecoder parses the table of a symbol→length map through a fresh
// DecodeScratch.
func newDecoder(lengths map[int]uint8) (*Decoder, error) {
	return new(DecodeScratch).ReadTable(bitstream.NewByteReader(lengthsTable(lengths)), nil)
}
