package huffman

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
)

// section lays out one section from raw table bytes, a symbol count and a
// payload.
func section(table []byte, n uint64, payload []byte) []byte {
	sec := bitstream.AppendSection(nil, table)
	sec = bitstream.AppendUvarint(sec, n)
	return bitstream.AppendSection(sec, payload)
}

// decodeBoth runs sec through DecodeIntsTx and DecodeBytesTx, each on a
// fresh scratch under its own transaction of b (nil for no budget).
func decodeBoth(sec []byte, b *budget.Budget) (errInts, errBytes error) {
	tx := b.Begin()
	_, errInts = new(DecodeScratch).DecodeIntsTx(bitstream.NewByteReader(sec), nil, tx)
	tx.Close()
	tx = b.Begin()
	_, errBytes = new(DecodeScratch).DecodeBytesTx(bitstream.NewByteReader(sec), nil, tx)
	tx.Close()
	return errInts, errBytes
}

// TestForgedTableCountCorrupt: a table count the table's own bytes cannot
// hold (every entry takes at least a delta byte and a length byte) is
// corrupt under any budget, before anything is charged for it.
func TestForgedTableCountCorrupt(t *testing.T) {
	// A 4-byte table section claiming 2^24-1 entries.
	forged := bitstream.AppendUvarint(nil, 1<<24-1)
	// Two real entries (symbols 0 and 1, one bit each) under a count of 3.
	short := bitstream.AppendUvarint(nil, 3)
	short = append(short, 0, 1, 2, 1)
	for _, table := range [][]byte{forged, short} {
		sec := section(table, 1, []byte{0})
		for _, limit := range []int64{0, 1 << 20, 1 << 40} {
			var b *budget.Budget
			if limit > 0 {
				b = budget.New(limit)
			}
			errInts, errBytes := decodeBoth(sec, b)
			if !errors.Is(errInts, ErrCorrupt) || !errors.Is(errBytes, ErrCorrupt) {
				t.Errorf("table %x, budget %d: ints %v, bytes %v; want ErrCorrupt", table, limit, errInts, errBytes)
			}
		}
	}
}

// TestForgedSymbolCountNoAlloc: every code is at least one bit, so a
// section claiming more symbols than 8 per payload byte is corrupt before
// its output is sized. At the bound itself, one-bit codes decode cleanly.
func TestForgedSymbolCountNoAlloc(t *testing.T) {
	table := lengthsTable(map[int]uint8{0: 1, 1: 1})
	payload := make([]byte, 64<<10)
	var s DecodeScratch
	for _, n := range []uint64{64*uint64(len(payload)) + 64, 8*uint64(len(payload)) + 1} {
		sec := section(table, n, payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := s.DecodeIntsTx(bitstream.NewByteReader(sec), nil, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%d symbols in %d payload bytes: err %v, want ErrCorrupt", n, len(payload), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Errorf("%d symbols in %d payload bytes: allocated %d bytes", n, len(payload), got)
		}
		if _, err := s.DecodeBytesTx(bitstream.NewByteReader(sec), nil, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%d symbols in %d payload bytes: bytes err %v, want ErrCorrupt", n, len(payload), err)
		}
	}
	n := 8 * len(payload)
	got, err := s.DecodeBytesTx(bitstream.NewByteReader(section(table, uint64(n), payload)), nil, nil)
	if err != nil || !bytes.Equal(got, make([]byte, n)) {
		t.Errorf("%d one-bit symbols in %d payload bytes: err %v", n, len(payload), err)
	}
}

// TestForgedRawSectionNoAlloc: a raw section with a zero count, a count
// its payload does not match, or a count over the budget fails typed, and
// allocates nothing for its claim. DecodeIntsTx refuses every raw section.
func TestForgedRawSectionNoAlloc(t *testing.T) {
	const limit = 1 << 20
	payload := make([]byte, 4<<20)
	cases := []struct {
		name string
		sec  []byte
		want error
	}{
		{"zero count", section(nil, 0, nil), ErrCorrupt},
		{"zero count, bytes", section(nil, 0, payload[:16]), ErrCorrupt},
		{"count over payload", section(nil, uint64(len(payload))+1, payload), ErrCorrupt},
		{"count under payload", section(nil, 1, payload), ErrCorrupt},
		{"count over budget", section(nil, uint64(len(payload)), payload), budget.ErrExceeded},
	}
	b := budget.New(limit)
	var s DecodeScratch
	for _, tc := range cases {
		tx := b.Begin()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := s.DecodeBytesTx(bitstream.NewByteReader(tc.sec), nil, tx)
		runtime.ReadMemStats(&after)
		tx.Close()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: allocated %d bytes", tc.name, got)
		}
		if _, err := s.DecodeIntsTx(bitstream.NewByteReader(tc.sec), nil, nil); err == nil {
			t.Errorf("%s: DecodeIntsTx accepted a raw section", tc.name)
		}
	}
	tx := b.Begin()
	defer tx.Close()
	sec := section(nil, limit, payload[:limit])
	if got, err := s.DecodeBytesTx(bitstream.NewByteReader(sec), nil, tx); err != nil || len(got) != limit {
		t.Errorf("raw section at the budget: %d bytes, err %v", len(got), err)
	}
}

// FuzzDecodeSection feeds arbitrary bytes as one section to both section
// decoders under a 1 MiB budget, so the table count, the symbol deltas and
// their order, the code lengths and the symbol count are all parsed from
// unconstrained input. Decoding must not panic and may fail only with a
// typed error, and every transaction must release what it reserved. On a
// coded section the byte decoder must agree with the int decoder as
// documented. On a raw section the int decoder must fail, and the byte
// decoder must return the payload when its count is positive, equals the
// payload's length and fits the budget.
func FuzzDecodeSection(f *testing.F) {
	const limit = 1 << 20
	ints, _ := encodeInts(nil, []int{-3, 7, 7, 1 << 40, 7, 0, -3, 7})
	byts, _ := EncodeBytes(nil, []byte("molecular dynamics"))
	long := lengthsTable(map[int]uint8{0: 1, 1: 2, 2: 3, 3: 14, 4: 14, 5: 30})
	f.Add([]byte{})
	f.Add(ints)
	f.Add(byts)
	f.Add(section(bitstream.AppendUvarint(nil, 1<<24-1), 1, []byte{0}))
	f.Add(section([]byte{3, 10, 1, 3, 2, 8, 2}, 4, []byte{0x5A, 0xC3}))
	f.Add(section(lengthsTable(map[int]uint8{0: 1, 1: 1}), 1<<20, []byte{0}))
	f.Add(section(long, 9, []byte{0x80, 0x01, 0xFF, 0xFF, 0xFF, 0xFE, 0x00}))
	f.Add(section(nil, 3, []byte("mdz")))
	f.Add(section(nil, 0, nil))
	f.Add(section(nil, 0, []byte{7}))
	f.Add(section(nil, 4, []byte("mdz")))
	f.Add(section(nil, 1<<40, []byte("mdz")))
	f.Add(section(nil, limit+1, make([]byte, limit+1)))
	b := budget.New(limit)
	var s DecodeScratch
	f.Fuzz(func(t *testing.T, sec []byte) {
		tx := b.Begin()
		gotInts, errInts := s.DecodeIntsTx(bitstream.NewByteReader(sec), nil, tx)
		tx.Close()
		tx = b.Begin()
		gotBytes, errBytes := s.DecodeBytesTx(bitstream.NewByteReader(sec), nil, tx)
		tx.Close()
		if used := b.Used(); used != 0 {
			t.Fatalf("budget holds %d bytes after every transaction closed", used)
		}
		for _, err := range []error{errInts, errBytes} {
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrByteRange) &&
				!errors.Is(err, bitstream.ErrShortStream) && !errors.Is(err, budget.ErrExceeded) {
				t.Fatalf("untyped error: %v", err)
			}
		}
		if isRaw(sec) {
			if errInts == nil {
				t.Fatal("DecodeIntsTx accepted a raw section")
			}
			br := bitstream.NewByteReader(sec)
			br.ReadSection()
			n, errN := br.ReadUvarint()
			payload, errP := br.ReadSection()
			if errN == nil && errP == nil && n > 0 && n == uint64(len(payload)) && n <= limit &&
				(errBytes != nil || !bytes.Equal(gotBytes, payload)) {
				t.Fatalf("raw section of %d bytes: got %d bytes, err %v", n, len(gotBytes), errBytes)
			}
			return
		}
		if errors.Is(errInts, budget.ErrExceeded) || errors.Is(errBytes, budget.ErrExceeded) {
			return // ints are charged 8 bytes a symbol, bytes 1
		}
		if errInts != nil {
			if !errors.Is(errBytes, errInts) {
				t.Fatalf("ints failed with %v, bytes with %v", errInts, errBytes)
			}
			return
		}
		wide := false
		for _, v := range gotInts {
			wide = wide || uint(v) > 255
		}
		switch {
		case wide && !errors.Is(errBytes, ErrByteRange):
			t.Fatalf("symbol outside 0..255: bytes err %v, want ErrByteRange", errBytes)
		case !wide && errBytes != nil:
			t.Fatalf("ints decoded, bytes failed: %v", errBytes)
		case !wide && len(gotBytes) != len(gotInts):
			t.Fatalf("%d bytes, %d ints", len(gotBytes), len(gotInts))
		}
		for i := range gotBytes {
			if int(gotBytes[i]) != gotInts[i] {
				t.Fatalf("symbol %d: byte %d, int %d", i, gotBytes[i], gotInts[i])
			}
		}
	})
}
