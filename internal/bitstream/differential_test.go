package bitstream

import (
	"math/rand"
	"testing"
)

// oldReader is the historical byte-at-a-time Reader, cut down to the
// operations the word-buffered Reader still has, as the reference
// implementation for differential tests: the word-buffered Reader must match
// its values, errors, and observable state on every operation sequence.
type oldReader struct {
	buf  []byte
	pos  int  // next byte index
	cur  byte // current byte being consumed
	nbit uint // bits remaining in cur
}

func newOldReader(buf []byte) *oldReader { return &oldReader{buf: buf} }

func (r *oldReader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

func (r *oldReader) ReadBits(n uint) (uint64, error) {
	var v uint64
	for n > 0 {
		if r.nbit == 0 {
			if r.pos >= len(r.buf) {
				return 0, ErrShortStream
			}
			r.cur = r.buf[r.pos]
			r.pos++
			r.nbit = 8
		}
		take := r.nbit
		if take > n {
			take = n
		}
		chunk := uint64(r.cur >> (r.nbit - take))
		chunk &= (1 << take) - 1
		v = (v << take) | chunk
		r.nbit -= take
		n -= take
	}
	return v, nil
}

func (r *oldReader) Peek(n uint) (bits uint64, avail uint) {
	availBits := uint(len(r.buf)-r.pos)*8 + r.nbit
	take := n
	if take > availBits {
		take = availBits
	}
	var v uint64
	got := uint(0)
	if r.nbit > 0 {
		cur := uint64(r.cur) & ((1 << r.nbit) - 1)
		if r.nbit >= take {
			v = cur >> (r.nbit - take)
			got = take
		} else {
			v = cur
			got = r.nbit
		}
	}
	pos := r.pos
	for got < take {
		b := uint64(r.buf[pos])
		pos++
		need := take - got
		if need >= 8 {
			v = (v << 8) | b
			got += 8
		} else {
			v = (v << need) | (b >> (8 - need))
			got += need
		}
	}
	return v << (n - got), take
}

func (r *oldReader) Skip(n uint) error {
	_, err := r.ReadBits(n)
	return err
}

func (r *oldReader) bitsRemaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.nbit)
}

// TestPeekBoundaryExhaustive checks the Peek contract — avail =
// min(n, bits remaining), zero padding below avail — for every peek width
// 0..64 at every bit offset of buffers 0..10 bytes long, reaching each
// offset both bit-by-bit (buffer mostly full) and via one big skip (buffer
// alignment differs), so both refill paths are exercised at every boundary.
func TestPeekBoundaryExhaustive(t *testing.T) {
	data := []byte{0xA5, 0x3C, 0xFF, 0x00, 0x81, 0x7E, 0xD2, 0x4B, 0x96, 0xE7}
	for bufLen := 0; bufLen <= len(data); bufLen++ {
		buf := data[:bufLen]
		total := bufLen * 8
		// bitAt returns bit i of buf MSB-first, or 0 past the end.
		bitAt := func(i int) uint64 {
			if i >= total {
				return 0
			}
			return uint64(buf[i/8]>>(7-i%8)) & 1
		}
		for off := 0; off <= total; off++ {
			for n := uint(0); n <= 64; n++ {
				for _, arrival := range []string{"bitwise", "skip"} {
					r := NewReader(buf)
					if arrival == "bitwise" {
						for i := 0; i < off; i++ {
							if _, err := r.ReadBit(); err != nil {
								t.Fatal(err)
							}
						}
					} else if off > 0 {
						if err := r.Skip(uint(off)); err != nil {
							t.Fatal(err)
						}
					}
					wantAvail := uint(total - off)
					if wantAvail > n {
						wantAvail = n
					}
					var want uint64
					for i := uint(0); i < n; i++ {
						want = want<<1 | bitAt(off+int(i))
					}
					bits, avail := r.Peek(n)
					if avail != wantAvail || bits != want {
						t.Fatalf("len=%d off=%d n=%d arrival=%s: Peek = (%#x, %d), want (%#x, %d)",
							bufLen, off, n, arrival, bits, avail, want, wantAvail)
					}
					// Peek must not perturb subsequent reads.
					if rest := uint(total - off); rest > 0 {
						k := rest
						if k > 64 {
							k = 64
						}
						got, err := r.ReadBits(k)
						if err != nil {
							t.Fatalf("len=%d off=%d n=%d: ReadBits(%d) after Peek: %v", bufLen, off, n, k, err)
						}
						var wantNext uint64
						for i := uint(0); i < k; i++ {
							wantNext = wantNext<<1 | bitAt(off+int(i))
						}
						if got != wantNext {
							t.Fatalf("len=%d off=%d n=%d: ReadBits(%d) after Peek = %#x, want %#x", bufLen, off, n, k, got, wantNext)
						}
					}
				}
			}
		}
	}
}

// runDifferential drives the new and old readers through the same operation
// script and fails on any divergence in values, avail, errors, or bits
// remaining.
func runDifferential(t *testing.T, data, script []byte) {
	t.Helper()
	nr := NewReader(data)
	or := newOldReader(data)
	dead := false // both readers have errored; old reader state is settled
	for i := 0; i+1 < len(script) && !dead; i += 2 {
		op := script[i] % 4
		n := uint(script[i+1]) % 65
		switch op {
		case 0:
			gv, ge := nr.ReadBits(n)
			wv, we := or.ReadBits(n)
			if (ge == nil) != (we == nil) {
				t.Fatalf("op %d ReadBits(%d): err %v vs %v", i, n, ge, we)
			}
			if ge == nil && gv != wv {
				t.Fatalf("op %d ReadBits(%d): %#x vs %#x", i, n, gv, wv)
			}
			dead = ge != nil
		case 1:
			gb, ga := nr.Peek(n)
			wb, wa := or.Peek(n)
			if gb != wb || ga != wa {
				t.Fatalf("op %d Peek(%d): (%#x,%d) vs (%#x,%d)", i, n, gb, ga, wb, wa)
			}
		case 2:
			ge := nr.Skip(n)
			we := or.Skip(n)
			if (ge == nil) != (we == nil) {
				t.Fatalf("op %d Skip(%d): err %v vs %v", i, n, ge, we)
			}
			dead = ge != nil
		case 3:
			gv, ge := nr.ReadBit()
			wv, we := or.ReadBit()
			if (ge == nil) != (we == nil) || gv != wv {
				t.Fatalf("op %d ReadBit: (%d,%v) vs (%d,%v)", i, gv, ge, wv, we)
			}
			dead = ge != nil
		}
		if nr.BitsRemaining() != or.bitsRemaining() {
			t.Fatalf("op %d: BitsRemaining %d vs %d", i, nr.BitsRemaining(), or.bitsRemaining())
		}
	}
}

// TestReaderDifferentialRandom is the seeded, always-on slice of the
// differential fuzz: random data and op scripts through both readers.
func TestReaderDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(64))
		rng.Read(data)
		script := make([]byte, 2+rng.Intn(128))
		rng.Read(script)
		runDifferential(t, data, script)
	}
}

// FuzzReaderDifferential fuzzes the word-buffered Reader against the
// historical byte-at-a-time implementation: identical values and identical
// error behavior on arbitrary op sequences over arbitrary input.
func FuzzReaderDifferential(f *testing.F) {
	f.Add([]byte{0xA5, 0x3C}, []byte{0, 11, 1, 64, 2, 3, 3, 0, 4, 0, 5, 0})
	f.Add([]byte{}, []byte{0, 64, 1, 1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00}, []byte{5, 0, 0, 63, 1, 64})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		runDifferential(t, data, script)
	})
}
