package bitstream

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	w := NewWriter(16)
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 1)
	w.WriteBits(0xDEADBEEF, 32)
	w.WriteBits(1, 64)
	r := NewReader(w.Bytes())
	cases := []struct {
		n    uint
		want uint64
	}{{3, 0b101}, {8, 0xFF}, {1, 0}, {32, 0xDEADBEEF}, {64, 1}}
	for i, c := range cases {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.want {
			t.Errorf("case %d: got %#x want %#x", i, got, c.want)
		}
	}
}

func TestBitRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		vals := make([]uint64, n)
		widths := make([]uint, n)
		w := &Writer{}
		for i := range vals {
			widths[i] = uint(1 + rng.Intn(64))
			vals[i] = rng.Uint64()
			if widths[i] < 64 {
				vals[i] &= (1 << widths[i]) - 1
			}
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil {
				t.Fatalf("trial %d item %d: %v", trial, i, err)
			}
			if got != vals[i] {
				t.Fatalf("trial %d item %d: got %#x want %#x (width %d)", trial, i, got, vals[i], widths[i])
			}
		}
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); err != ErrShortStream {
		t.Errorf("want ErrShortStream, got %v", err)
	}
}

func TestZigZagProperty(t *testing.T) {
	f := func(v int64) bool { return UnZigZag(ZigZag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Small magnitudes map to small codes.
	for i, want := range []uint64{0, 1, 2, 3, 4} {
		v := int64(i+1) / 2
		if i%2 == 1 {
			v = -v
		}
		if got := ZigZag(v); got != want {
			t.Errorf("ZigZag(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		br := NewByteReader(AppendVarint(nil, v))
		got, err := br.ReadVarint()
		return err == nil && br.Len() == 0 && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestByteReaderSections(t *testing.T) {
	var buf []byte
	buf = AppendSection(buf, []byte("hello"))
	buf = AppendSection(buf, nil)
	buf = AppendSection(buf, bytes.Repeat([]byte{9}, 300))
	br := NewByteReader(buf)
	s1, err := br.ReadSection()
	if err != nil || string(s1) != "hello" {
		t.Fatalf("section 1: %q %v", s1, err)
	}
	s2, err := br.ReadSection()
	if err != nil || len(s2) != 0 {
		t.Fatalf("section 2: %v %v", s2, err)
	}
	s3, err := br.ReadSection()
	if err != nil || len(s3) != 300 {
		t.Fatalf("section 3: len=%d %v", len(s3), err)
	}
	if br.Len() != 0 {
		t.Errorf("expected empty reader, %d bytes left", br.Len())
	}
	if _, err := br.ReadSection(); err != ErrShortStream {
		t.Errorf("want ErrShortStream, got %v", err)
	}
}

func TestByteReaderScalars(t *testing.T) {
	var buf []byte
	buf = append(buf, 0x7F)
	buf = AppendUint32(buf, 0xCAFEBABE)
	buf = AppendUint64(buf, math.MaxUint64-5)
	buf = AppendFloat64(buf, -123.456)
	buf = AppendUvarint(buf, 1<<40)
	buf = AppendVarint(buf, -99999)
	br := NewByteReader(buf)
	if b, _ := br.ReadByte(); b != 0x7F {
		t.Errorf("byte: %#x", b)
	}
	if v, _ := br.ReadUint32(); v != 0xCAFEBABE {
		t.Errorf("u32: %#x", v)
	}
	if v, _ := br.ReadUint64(); v != math.MaxUint64-5 {
		t.Errorf("u64: %#x", v)
	}
	if f, _ := br.ReadFloat64(); f != -123.456 {
		t.Errorf("f64: %v", f)
	}
	if v, _ := br.ReadUvarint(); v != 1<<40 {
		t.Errorf("uvarint: %d", v)
	}
	if v, _ := br.ReadVarint(); v != -99999 {
		t.Errorf("varint: %d", v)
	}
}

func TestTruncatedScalars(t *testing.T) {
	br := NewByteReader([]byte{1, 2, 3})
	if _, err := br.ReadUint64(); err != ErrShortStream {
		t.Errorf("u64: want ErrShortStream, got %v", err)
	}
	if _, err := br.ReadUint32(); err != ErrShortStream {
		t.Errorf("u32 after 3 bytes: want ErrShortStream, got %v", err)
	}
}

func TestReaderReset(t *testing.T) {
	w := &Writer{}
	w.WriteBits(0xABC, 12)
	first := append([]byte(nil), w.Bytes()...)
	w.Reset()
	w.WriteBits(0x5, 3)
	second := append([]byte(nil), w.Bytes()...)

	r := NewReader(first)
	if got, err := r.ReadBits(12); err != nil || got != 0xABC {
		t.Fatalf("first read: %x, %v", got, err)
	}
	r.Reset(second)
	if got, err := r.ReadBits(3); err != nil || got != 0x5 {
		t.Errorf("after Reset: %x, %v", got, err)
	}
	if got := r.BitsRemaining(); got != 5 {
		t.Errorf("after Reset + 3 bits: %d bits remaining, want 5 (byte padding)", got)
	}
}

func TestByteReaderReset(t *testing.T) {
	br := NewByteReader([]byte{1, 2, 3})
	if _, err := br.ReadBytes(3); err != nil {
		t.Fatal(err)
	}
	br.Reset([]byte{9, 8})
	if br.Len() != 2 {
		t.Fatalf("after Reset: len %d", br.Len())
	}
	if b, err := br.ReadByte(); err != nil || b != 9 {
		t.Errorf("after Reset: %d, %v", b, err)
	}
}

// TestBitState checks the register-batching accessor pair: state read out,
// advanced exactly as the Decode hot loops advance it (left shifts), and
// written back must leave the Reader indistinguishable from one that
// consumed the same bits through ReadBits.
func TestBitState(t *testing.T) {
	w := &Writer{}
	w.WriteBits(0b1011, 4)
	w.WriteBits(0xDEAD, 16)
	w.WriteBits(0x3F, 6)
	r := NewReader(w.Bytes())
	r.Fill()
	cur, nbit := r.BitState()
	if cur>>(64-4) != 0b1011 {
		t.Fatalf("top nibble = %b", cur>>(64-4))
	}
	cur <<= 4
	nbit -= 4
	r.SetBitState(cur, nbit)
	if got, err := r.ReadBits(16); err != nil || got != 0xDEAD {
		t.Errorf("after SetBitState: %x, %v", got, err)
	}
	if got, err := r.ReadBits(6); err != nil || got != 0x3F {
		t.Errorf("tail: %x, %v", got, err)
	}
}

func TestWriterReset(t *testing.T) {
	w := &Writer{}
	w.WriteBits(0xFFFF, 16)
	w.Reset()
	w.WriteBits(0xA, 4)
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0xA0 {
		t.Errorf("after reset: % x", got)
	}
}

func TestPeekSkip(t *testing.T) {
	w := &Writer{}
	w.WriteBits(0b1011_0011_1100_0101, 16)
	r := NewReader(w.Bytes())
	bits, avail := r.Peek(8)
	if avail != 8 || bits != 0b1011_0011 {
		t.Fatalf("Peek(8) = %b avail %d", bits, avail)
	}
	// Peek must not consume.
	bits2, _ := r.Peek(8)
	if bits2 != bits {
		t.Fatal("Peek consumed bits")
	}
	if err := r.Skip(3); err != nil {
		t.Fatal(err)
	}
	bits, avail = r.Peek(8)
	if avail != 8 || bits != 0b1_0011_110 {
		t.Fatalf("after Skip(3): %b avail %d", bits, avail)
	}
	// Peek past end: zero-padded, avail reports truth.
	if err := r.Skip(10); err != nil {
		t.Fatal(err)
	}
	bits, avail = r.Peek(8)
	if avail != 3 {
		t.Fatalf("tail avail = %d", avail)
	}
	if bits != 0b101_00000 {
		t.Fatalf("tail bits = %b", bits)
	}
	if err := r.Skip(4); err != ErrShortStream {
		t.Fatalf("over-skip err = %v", err)
	}
}

func TestPeekMatchesReadBitsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		w := &Writer{}
		for i := 0; i < n; i++ {
			w.WriteBits(rng.Uint64(), uint(1+rng.Intn(24)))
		}
		data := w.Bytes()
		r1 := NewReader(data)
		r2 := NewReader(data)
		for {
			k := uint(1 + rng.Intn(20))
			peeked, avail := r1.Peek(k)
			if avail == 0 {
				break
			}
			take := avail
			got, err := r2.ReadBits(take)
			if err != nil {
				t.Fatal(err)
			}
			if err := r1.Skip(take); err != nil {
				t.Fatal(err)
			}
			if peeked>>(k-take) != got {
				t.Fatalf("trial %d: peek %b != read %b (k=%d take=%d)", trial, peeked>>(k-take), got, k, take)
			}
		}
	}
}
