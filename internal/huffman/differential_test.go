package huffman

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
)

// refDecode is the historical tree-walking decoder — one ReadBit per level
// of the canonical tree, no lookup tables — kept test-only as the reference
// implementation for differential fuzzing of the table-driven decoder.
func refDecode(d *Decoder, r *bitstream.Reader) (int, error) {
	if len(d.symbols) == 0 {
		return 0, ErrCorrupt
	}
	var c uint64
	for l := uint8(1); l <= d.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		c = (c << 1) | uint64(b)
		if d.count[l] > 0 {
			offset := c - d.firstCode[l]
			if c >= d.firstCode[l] && offset < uint64(d.count[l]) {
				return d.symbols[d.firstIndex[l]+int(offset)], nil
			}
		}
	}
	return 0, ErrCorrupt
}

// runDecodeDifferential decodes up to n symbols from payload three ways —
// per-symbol table-driven Decode, per-symbol tree walk, and the batched
// DecodeAllBuf fast loop — and fails on any divergence in symbols, errors,
// or reader positions.
func runDecodeDifferential(t *testing.T, d *Decoder, payload []byte, n int) {
	t.Helper()
	rNew := bitstream.NewReader(payload)
	rRef := bitstream.NewReader(payload)
	syms := make([]int, 0, n)
	var refErr error
	for i := 0; i < n; i++ {
		sNew, eNew := d.Decode(rNew)
		sRef, eRef := refDecode(d, rRef)
		if !errors.Is(eNew, eRef) || !errors.Is(eRef, eNew) {
			t.Fatalf("symbol %d: err %v (table) vs %v (walk)", i, eNew, eRef)
		}
		if eNew != nil {
			refErr = eNew
			break
		}
		if sNew != sRef {
			t.Fatalf("symbol %d: %d (table) vs %d (walk)", i, sNew, sRef)
		}
		if rNew.BitsRemaining() != rRef.BitsRemaining() {
			t.Fatalf("symbol %d: BitsRemaining %d (table) vs %d (walk)", i, rNew.BitsRemaining(), rRef.BitsRemaining())
		}
		syms = append(syms, sNew)
	}
	got, err := d.DecodeAllBuf(bitstream.NewReader(payload), n, nil)
	if refErr != nil {
		if !errors.Is(err, refErr) {
			t.Fatalf("DecodeAllBuf err %v, walk err %v", err, refErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("DecodeAllBuf err %v, walk decoded %d cleanly", err, n)
	}
	for i := range got {
		if got[i] != syms[i] {
			t.Fatalf("DecodeAllBuf symbol %d: %d vs %d", i, got[i], syms[i])
		}
	}
}

// buildRandomDecoder makes a valid decoder from a random alphabet. Roughly
// half the trials go through the code builder (realistic skewed tables);
// the rest assemble explicit length maps, including long-code tables that
// exercise the second-level subtables and the slow-path fallback.
func buildRandomDecoder(rng *rand.Rand) *Decoder {
	if rng.Intn(2) == 0 {
		freq := map[int]uint64{}
		n := 1 + rng.Intn(300)
		for i := 0; i < n; i++ {
			freq[rng.Intn(1000)-500] = uint64(1 + rng.Intn(1<<uint(rng.Intn(20))))
		}
		d, err := newDecoder(lengthsOf(freq))
		if err != nil {
			panic(err)
		}
		return d
	}
	// Explicit Kraft-valid chain: lengths 1,2,3,... (possibly jumping deep
	// past lutBits+subMaxBits) always satisfy sum 2^-l <= 1.
	lengths := map[int]uint8{}
	l := uint8(1 + rng.Intn(3))
	for s := 0; l <= MaxCodeLen && s < 64; s++ {
		lengths[s] = l
		l += uint8(1 + rng.Intn(4))
	}
	d, err := newDecoder(lengths)
	if err != nil {
		panic(err)
	}
	return d
}

// TestDecodeDifferentialRandom is the seeded, always-on slice of the
// decoder differential fuzz: random valid tables against both valid
// payloads (round-trips) and random garbage (corrupt/short streams).
func TestDecodeDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		d := buildRandomDecoder(rng)
		payload := make([]byte, rng.Intn(128))
		rng.Read(payload)
		runDecodeDifferential(t, d, payload, 1+rng.Intn(200))
	}
}

// TestDecodeLongCodesTwoLevel forces codes past lutBits so decoding flows
// through the second-level subtables, and past lutBits+subMaxBits so the
// slow-path fallback runs, asserting exact round-trips either way.
func TestDecodeLongCodesTwoLevel(t *testing.T) {
	// 8192 equal-weight symbols: all codes are 13 bits (> lutBits=11),
	// resolved entirely by subtables.
	freq := map[int]uint64{}
	for s := 0; s < 8192; s++ {
		freq[s] = 1
	}
	syms := make([]int, 20000)
	rng := rand.New(rand.NewSource(5))
	for i := range syms {
		syms[i] = rng.Intn(8192)
	}
	buf, err := encodeInts(nil, syms)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeInts(bitstream.NewByteReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], syms[i])
		}
	}

	// Kraft-valid chain with a 58-bit code: beyond any subtable, decoded by
	// the slow path inside the fast loop. Encode by hand from the canonical
	// assignment.
	lengths := map[int]uint8{0: 1, 1: 58}
	d, err := newDecoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	w := &bitstream.Writer{}
	// Canonical codes: symbol 0 = "0"; symbol 1 = 1<<57 over 58 bits.
	w.WriteBits(0, 1)
	w.WriteBits(1<<57, 58)
	w.WriteBits(0, 1)
	out, err := d.DecodeAllBuf(bitstream.NewReader(w.Bytes()), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[1] != 1 || out[2] != 0 {
		t.Fatalf("deep-code decode: %v", out)
	}
	if len(d.sub) > maxSubEntries {
		t.Fatalf("subtable budget exceeded: %d entries", len(d.sub))
	}
}

// TestSubtableBudgetBounded builds an adversarial undersubscribed table
// with many distinct long-code prefixes and checks the second-level tables
// respect the global budget while still decoding correctly.
func TestSubtableBudgetBounded(t *testing.T) {
	// 2048 symbols of length 12 occupy half the 12-bit space (Kraft 0.5),
	// then symbols at length 23 (= lutBits+subMaxBits) pile width-12
	// subtables onto many distinct prefixes.
	lengths := map[int]uint8{}
	s := 0
	for i := 0; i < 1024; i++ {
		lengths[s] = 12
		s++
	}
	for i := 0; i < 512; i++ {
		lengths[s] = 23
		s++
	}
	d, err := newDecoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.sub) > maxSubEntries {
		t.Fatalf("subtable budget exceeded: %d entries", len(d.sub))
	}
	// Round-trip through the encoder side of the same table.
	enc, err := fromLengths(lengths)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	syms := make([]int, 5000)
	for i := range syms {
		syms[i] = rng.Intn(s)
	}
	w := &bitstream.Writer{}
	if err := enc.EncodeAll(w, syms); err != nil {
		t.Fatal(err)
	}
	got, err := d.DecodeAllBuf(bitstream.NewReader(w.Bytes()), len(syms), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], syms[i])
		}
	}
}

// FuzzDecodeDifferential fuzzes the table-driven decoder against the
// historical tree-walking decoder: identical symbols and identical error
// behavior over arbitrary tables and payloads.
func FuzzDecodeDifferential(f *testing.F) {
	f.Add([]byte{2, 2, 2, 2}, []byte{0x1B, 0xAD}, uint16(8))
	f.Add([]byte{1, 58}, []byte{0x80, 0, 0, 0, 0, 0, 0, 0}, uint16(4))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3}, []byte{0xFF, 0x00, 0x55}, uint16(8))
	f.Fuzz(func(t *testing.T, tbl, payload []byte, n uint16) {
		if len(tbl) == 0 || len(tbl) > 512 {
			t.Skip()
		}
		lengths := map[int]uint8{}
		for i, b := range tbl {
			lengths[i] = b%MaxCodeLen + 1
		}
		d, err := newDecoder(lengths)
		if err != nil {
			t.Skip() // oversubscribed random table
		}
		runDecodeDifferential(t, d, payload, int(n%1024))
	})
}
