package huffman

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
)

// decodeIntoRef is the symbol-at-a-time int decode loop the pair-table loop
// replaced, kept as the reference: one root probe per symbol through the
// reader's Peek and Skip, subtable probes for long codes, and the checked
// Decode for uncovered codes and the stream tail. Each probe follows a Fill
// that buffered at least need bits, so Peek and Skip stay inside the bit
// buffer and cannot fail.
func (d *Decoder) decodeIntoRef(r *bitstream.Reader, out []int) error {
	n := len(out)
	need := uint(lutBits)
	if m := uint(d.maxLen); m > need {
		need = m
	}
	lut, sub, symbols := d.lut, d.sub, d.symbols
	i := 0
	for i < n {
		if r.Buffered() < need && r.Fill() < need {
			break // near end of input: finish with the checked path
		}
		root, _ := r.Peek(lutBits)
		e := lut[root]
		if e.len != 0 {
			r.Skip(uint(e.len))
			out[i] = symbols[e.index]
			i++
			continue
		}
		if e.sub != 0 {
			w := uint(e.sub)
			long, _ := r.Peek(lutBits + w)
			se := sub[uint64(e.index)+(long&((1<<w)-1))]
			if se.len != 0 {
				r.Skip(uint(se.len))
				out[i] = symbols[se.index]
				i++
				continue
			}
		}
		// Uncovered long code or invalid prefix: one checked decode.
		s, err := d.Decode(r)
		if err != nil {
			return err
		}
		out[i] = s
		i++
	}
	for ; i < n; i++ {
		s, err := d.Decode(r)
		if err != nil {
			return err
		}
		out[i] = s
	}
	return nil
}

// refDecodeAll is DecodeAllBuf over decodeIntoRef.
func refDecodeAll(d *Decoder, r *bitstream.Reader, n int) ([]int, error) {
	out := make([]int, n)
	if n == 0 {
		return out, nil
	}
	if len(d.symbols) == 0 {
		return nil, ErrCorrupt
	}
	if err := d.decodeIntoRef(r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkIntsAgainstRef decodes n symbols of payload with d's pair-table loop
// and with the reference loop, each on its own reader, and fails on any
// difference in symbols, in errors (errors.Is both ways) or in the bits
// left unread.
func checkIntsAgainstRef(t *testing.T, d *Decoder, payload []byte, n int) {
	t.Helper()
	rGot, rWant := bitstream.NewReader(payload), bitstream.NewReader(payload)
	got, gotErr := d.DecodeAllBuf(rGot, n, nil)
	want, wantErr := refDecodeAll(d, rWant, n)
	if !errors.Is(gotErr, wantErr) || !errors.Is(wantErr, gotErr) {
		t.Fatalf("n=%d: err %v, reference %v", n, gotErr, wantErr)
	}
	if rGot.BitsRemaining() != rWant.BitsRemaining() {
		t.Fatalf("n=%d: %d bits left, reference %d", n, rGot.BitsRemaining(), rWant.BitsRemaining())
	}
	if gotErr != nil {
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: symbol %d is %d, reference %d", n, i, got[i], want[i])
		}
	}
}

// encodeWith bit-packs syms under the canonical code of lengths.
func encodeWith(t *testing.T, lengths map[int]uint8, syms []int) []byte {
	t.Helper()
	enc, err := fromLengths(lengths)
	if err != nil {
		t.Fatal(err)
	}
	var w bitstream.Writer
	if err := enc.EncodeAll(&w, syms); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// refTables is the table set of TestDecodeIntsMatchesReference: skewed and
// flat random codes, codes past lutBits (in subtables and past the
// subtable budget), one-symbol alphabets, and symbols outside int32.
func refTables(rng *rand.Rand) []map[int]uint8 {
	var tables []map[int]uint8
	for trial := 0; trial < 40; trial++ {
		freq := map[int]uint64{}
		k := 2 + rng.Intn(600)
		for j := 0; j < k; j++ {
			freq[rng.Intn(2000)-1000] = uint64(1 + rng.Intn(1<<uint(rng.Intn(22))))
		}
		tables = append(tables, lengthsOf(freq))
	}
	// Flat 4096-symbol code: every code is 12 bits, resolved by subtables.
	flat := map[int]uint64{}
	for s := 0; s < 4096; s++ {
		flat[s] = 1
	}
	tables = append(tables, lengthsOf(flat))
	// Kraft chain 1, 2, ..., 57, 58, 58: codes past lutBits+subMaxBits.
	chain := map[int]uint8{}
	for l := 1; l <= MaxCodeLen; l++ {
		chain[l] = uint8(l)
	}
	chain[MaxCodeLen+1] = MaxCodeLen
	tables = append(tables, chain)
	// Undersubscribed: short codes beside 23-bit codes that exhaust the
	// subtable budget, leaving invalid prefixes and uncovered codes.
	budget := map[int]uint8{}
	for s := 0; s < 1024; s++ {
		budget[s] = 12
	}
	for s := 1024; s < 1536; s++ {
		budget[s] = 23
	}
	budget[-1] = 2
	tables = append(tables, budget)
	// One-symbol alphabets, inside and outside int32.
	tables = append(tables, map[int]uint8{7: 1}, map[int]uint8{-1 << 40: 1})
	// Symbols outside int32 mixed with narrow ones, short and long codes.
	tables = append(tables,
		map[int]uint8{0: 2, 1 << 40: 2, -1 << 33: 3, 5: 3},
		map[int]uint8{1: 1, 2: 3, 1<<31 + 1: 3, 3: 14, -(1 << 31) - 1: 14})
	return tables
}

// alphabetOf lists a code's symbols in ascending order.
func alphabetOf(lengths map[int]uint8) []int {
	alphabet := make([]int, 0, len(lengths))
	for s := range lengths {
		alphabet = append(alphabet, s)
	}
	sort.Ints(alphabet)
	return alphabet
}

func lengthsOf(freq map[int]uint64) map[int]uint8 {
	enc, err := buildFreq(freq)
	if err != nil {
		panic(err)
	}
	lengths := map[int]uint8{}
	for i, s := range enc.symbols {
		lengths[s] = enc.codes[i].n
	}
	return lengths
}

// TestDecodeIntsMatchesReference pins the pair-table loop to the reference
// loop on valid streams of every length parity, on truncated streams and on
// garbage, across the table shapes of refTables.
func TestDecodeIntsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for ti, lengths := range refTables(rng) {
		d, err := newDecoder(lengths)
		if err != nil {
			t.Fatalf("table %d: %v", ti, err)
		}
		alphabet := alphabetOf(lengths)
		for _, n := range []int{1, 2, 3, 64, 999, 1000, 4097} {
			syms := make([]int, n)
			for i := range syms {
				syms[i] = alphabet[rng.Intn(len(alphabet))]
			}
			payload := encodeWith(t, lengths, syms)
			checkIntsAgainstRef(t, d, payload, n)
			got, err := d.DecodeAllBuf(bitstream.NewReader(payload), n, nil)
			if err != nil {
				t.Fatalf("table %d n=%d: %v", ti, n, err)
			}
			for i := range syms {
				if got[i] != syms[i] {
					t.Fatalf("table %d n=%d: symbol %d is %d, want %d", ti, n, i, got[i], syms[i])
				}
			}
			// Asking for more symbols than were written, and decoding a
			// truncated payload, reach the stream tail mid-code.
			checkIntsAgainstRef(t, d, payload, n+1+rng.Intn(40))
			if len(payload) > 1 {
				checkIntsAgainstRef(t, d, payload[:rng.Intn(len(payload))], n)
			}
			// Corrupt payloads: flipped bytes and garbage.
			bad := append([]byte(nil), payload...)
			for k := 0; k < 1+len(bad)/50; k++ {
				bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			}
			checkIntsAgainstRef(t, d, bad, n)
			garbage := make([]byte, rng.Intn(2*len(payload)+8))
			rng.Read(garbage)
			checkIntsAgainstRef(t, d, garbage, n)
		}
	}
}

// intsSection lays out one EncodeInts-layout section: the table of the
// canonical code of lengths (which may be undersubscribed, unlike any code
// EncodeInts builds), the symbol count n and the payload.
func intsSection(t *testing.T, lengths map[int]uint8, n int, payload []byte) []byte {
	t.Helper()
	enc, err := fromLengths(lengths)
	if err != nil {
		t.Fatal(err)
	}
	sec := bitstream.AppendSection(nil, enc.AppendTable(nil))
	sec = bitstream.AppendUvarint(sec, uint64(n))
	return bitstream.AppendSection(sec, payload)
}

// TestDecodeScratchIntsReuse decodes sections of different codes through
// one DecodeScratch, in an order that shrinks and regrows its tables, and
// checks each against a fresh scratch and against the reference loop: a
// rebuilt code must never decode through the previous code's pair table.
func TestDecodeScratchIntsReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	tables := refTables(rng)
	var shared DecodeScratch
	for trial := 0; trial < 3*len(tables); trial++ {
		lengths := tables[rng.Intn(len(tables))]
		alphabet := alphabetOf(lengths)
		n := 1 + rng.Intn(3000)
		syms := make([]int, n)
		for i := range syms {
			syms[i] = alphabet[rng.Intn(len(alphabet))]
		}
		payload := encodeWith(t, lengths, syms)
		sec := intsSection(t, lengths, n, payload)
		got, err := shared.DecodeIntsTx(bitstream.NewByteReader(sec), nil, nil)
		if err != nil {
			t.Fatalf("trial %d: shared scratch: %v", trial, err)
		}
		var fresh DecodeScratch
		want, err := fresh.DecodeIntsTx(bitstream.NewByteReader(sec), nil, nil)
		if err != nil {
			t.Fatalf("trial %d: fresh scratch: %v", trial, err)
		}
		d, err := newDecoder(lengths)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refDecodeAll(d, bitstream.NewReader(payload), n)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		for i := range syms {
			if got[i] != want[i] || got[i] != ref[i] || got[i] != syms[i] {
				t.Fatalf("trial %d: symbol %d: shared %d, fresh %d, reference %d, encoded %d",
					trial, i, got[i], want[i], ref[i], syms[i])
			}
		}
	}
}

// fuzzLengths derives a code from fuzz bytes: the first byte picks explicit
// lengths (possibly undersubscribed, nil if oversubscribed) or a
// Build-complete code over byte-valued weights, and whether the symbols sit
// outside int32.
func fuzzLengths(tbl []byte) map[int]uint8 {
	if len(tbl) < 2 || len(tbl) > 512 {
		return nil
	}
	mode, tbl := tbl[0], tbl[1:]
	off := 0
	if mode&2 != 0 {
		off = 1<<40 - 8
	}
	if mode&1 == 0 {
		lengths := map[int]uint8{}
		for i, b := range tbl {
			lengths[off+i] = b%MaxCodeLen + 1
		}
		if _, err := fromLengths(lengths); err != nil {
			return nil
		}
		return lengths
	}
	freq := map[int]uint64{}
	for i, b := range tbl {
		if b != 0 {
			freq[off+i] = uint64(b) << (b % 13)
		}
	}
	if len(freq) == 0 {
		return nil
	}
	return lengthsOf(freq)
}

// FuzzDecodeIntsReference fuzzes the pair-table loop against the reference
// loop on two codes decoded in turn through one DecodeScratch: identical
// symbols, errors and unread bits, and section decodes that match a
// fresh-decoder reference.
func FuzzDecodeIntsReference(f *testing.F) {
	f.Add([]byte{0, 2, 2, 2, 2}, []byte{1, 9, 1, 1, 200}, []byte{0x1B, 0xAD, 0x5E}, uint16(9))
	f.Add([]byte{2, 1, 58}, []byte{0, 12, 12, 3}, []byte{0x80, 0, 0, 0, 0, 0, 0, 0}, uint16(4))
	f.Add([]byte{3, 7}, []byte{1, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{0xFF, 0x00, 0x55}, uint16(1))
	f.Fuzz(func(t *testing.T, tbl1, tbl2, payload []byte, n uint16) {
		var s DecodeScratch
		for k, tbl := range [][]byte{tbl1, tbl2} {
			lengths := fuzzLengths(tbl)
			if lengths == nil {
				continue
			}
			count := int(n%2048) + k
			sec := intsSection(t, lengths, count, payload)
			got, gotErr := s.DecodeIntsTx(bitstream.NewByteReader(sec), nil, nil)

			d, err := newDecoder(lengths)
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			var wantErr error
			if uint64(count) > 8*uint64(len(payload)) {
				wantErr = ErrCorrupt
			} else {
				want, wantErr = refDecodeAll(d, bitstream.NewReader(payload), count)
			}
			if !errors.Is(gotErr, wantErr) || !errors.Is(wantErr, gotErr) {
				t.Fatalf("table %d: err %v, reference %v", k, gotErr, wantErr)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("table %d: symbol %d is %d, reference %d", k, i, got[i], want[i])
				}
			}
			// The scratch's rebuilt decoder against the reference loop on
			// its own tables, unread bits included.
			checkIntsAgainstRef(t, &s.dec, payload, count)
		}
	})
}
