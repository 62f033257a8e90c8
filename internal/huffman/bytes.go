package huffman

import (
	"errors"
	"math/bits"
	"sync"

	"github.com/mdz/mdz/internal/bitstream"
)

// This file holds the byte sections: EncodeBytes and
// DecodeScratch.DecodeBytesTx operate on []byte end to end with pooled
// scratch state, so the dictionary-coder hot path (internal/lossless.LZ)
// never round-trips its sections through an 8×-larger integer slice.
//
// A byte section is coded or raw, by size. A coded section is byte for
// byte what Scratch.EncodeInts writes for the widened []int data: both list
// their alphabet ascending with its counts, build the code with
// Scratch.build and write the table with Encoder.AppendTable. Only the
// counting (a striped 256-entry histogram) and the packing loop (a
// 256-entry code array) are the byte path's own. When coding would not
// make the section smaller, as with bytes that are already entropy coded,
// the section is raw instead, as Zstd stores a literals block it cannot
// shrink: an empty table section, the count, and the bytes as a section.
// AppendTable always writes at least its entry count, so no coded section
// has an empty table, and DecodeIntsTx refuses one.

// ErrByteRange is returned by the byte-oriented decode paths when a decoded
// symbol falls outside 0..255. It is reported only after the symbol stream
// decodes cleanly, mirroring the historical decode-all-then-narrow
// sequencing (DecodeIntsTx followed by a range-checking []int→[]byte copy).
var ErrByteRange = errors.New("huffman: decoded symbol out of byte range")

// byteEncScratch is the reusable state of one EncodeBytes call. freq4 holds
// four partial histograms summed into freq: striping the counts breaks the
// store-to-load dependency a single table suffers on runs of equal bytes.
type byteEncScratch struct {
	freq  [256]uint64
	freq4 [4][256]uint32
	codes [256]code // the built code, indexed by byte
	sc    Scratch   // code builder, table and payload buffers
}

var byteEncPool = sync.Pool{
	New: func() any { return new(byteEncScratch) },
}

// EncodeBytes appends data to dst as one byte section: coded, or raw when
// the raw section would be no longer than the coded one. Empty data is
// always coded, since a raw section holds at least one byte. All working
// state is pooled; steady state allocates only when dst needs to grow.
func EncodeBytes(dst []byte, data []byte) ([]byte, error) {
	s := byteEncPool.Get().(*byteEncScratch)
	defer byteEncPool.Put(s)

	s.histogram(data)
	sc := &s.sc
	enc, err := sc.build(sc.syms, sc.weights)
	if err != nil {
		return nil, err
	}
	sc.table = enc.AppendTable(sc.table[:0])
	// The count follows both forms' table sections, so the two sizes
	// differ only in the table and payload sections.
	var nbits uint64
	for i, w := range sc.weights {
		nbits += w * uint64(enc.codes[i].n)
	}
	n := uint64(len(data))
	if n > 0 && sectionLen(0)+sectionLen(n) <= sectionLen(uint64(len(sc.table)))+sectionLen((nbits+7)/8) {
		dst = bitstream.AppendSection(dst, nil)
		dst = bitstream.AppendUvarint(dst, n)
		return bitstream.AppendSection(dst, data), nil
	}
	for i, sym := range enc.symbols {
		s.codes[sym] = enc.codes[i]
	}

	// Payload: pack codes through a local 64-bit accumulator so the Writer
	// is called once per ~64 bits instead of once per symbol. MSB-first
	// concatenation makes the flushed words bit-identical to per-code writes.
	sc.w.Reset()
	var acc uint64
	var na uint
	for _, b := range data {
		c := s.codes[b]
		if na+uint(c.n) > 64 {
			sc.w.WriteBits(acc, na)
			acc, na = 0, 0
		}
		acc = acc<<c.n | c.bits
		na += uint(c.n)
	}
	if na > 0 {
		sc.w.WriteBits(acc, na)
	}
	return sc.appendSection(dst, len(data)), nil
}

// sectionLen is the length of a section whose body is n bytes long.
func sectionLen(n uint64) uint64 { return uint64(bits.Len64(n|1)+6)/7 + n }

// histogram counts data's byte frequencies into s.freq and lists the bytes
// that occur, ascending, with their counts in s.sc.syms and s.sc.weights.
func (s *byteEncScratch) histogram(data []byte) {
	clear(s.freq[:])
	if len(data) < 512 {
		// Striping doesn't amortize its table clears on short sections.
		for _, b := range data {
			s.freq[b]++
		}
	} else {
		for i := range s.freq4 {
			clear(s.freq4[i][:])
		}
		f0, f1, f2, f3 := &s.freq4[0], &s.freq4[1], &s.freq4[2], &s.freq4[3]
		i := 0
		for ; i+4 <= len(data); i += 4 {
			f0[data[i]]++
			f1[data[i+1]]++
			f2[data[i+2]]++
			f3[data[i+3]]++
			// Drain to the 64-bit totals well before uint32 overflow
			// (every 2^28 bytes, 2^26 increments per stripe).
			if i&(1<<28-4) == 1<<28-4 {
				for sym := range s.freq {
					s.freq[sym] += uint64(f0[sym]) + uint64(f1[sym]) + uint64(f2[sym]) + uint64(f3[sym])
				}
				clear(f0[:])
				clear(f1[:])
				clear(f2[:])
				clear(f3[:])
			}
		}
		for ; i < len(data); i++ {
			s.freq[data[i]]++
		}
		for sym := range s.freq {
			s.freq[sym] += uint64(f0[sym]) + uint64(f1[sym]) + uint64(f2[sym]) + uint64(f3[sym])
		}
	}
	syms, weights := s.sc.syms[:0], s.sc.weights[:0]
	for sym, f := range s.freq {
		if f != 0 {
			syms = append(syms, sym)
			weights = append(weights, f)
		}
	}
	s.sc.syms, s.sc.weights = syms, weights
}

// DecodeAllBytesBuf reads exactly n symbols as bytes, reusing buf when it
// has capacity. It is DecodeAllBuf with a byte destination: symbols outside
// 0..255 poison the result, and the poisoning ErrByteRange is reported only
// after all n symbols decode — so stream errors (ErrShortStream/ErrCorrupt)
// take precedence exactly as in the historical decode-then-narrow path.
func (d *Decoder) DecodeAllBytesBuf(r *bitstream.Reader, n int, buf []byte) ([]byte, error) {
	out := resize(buf, n)
	if n == 0 {
		return out, nil
	}
	if len(d.symbols) == 0 {
		return nil, ErrCorrupt
	}
	need := uint(lutBits)
	if m := uint(d.maxLen); m > need {
		need = m
	}
	lut, sub := d.lut, d.sub
	var wideAcc uint8 // ORs lutEntry.wide: nonzero once any symbol left 0..255
	i := 0
outer:
	for i < n {
		if r.Buffered() < need && r.Fill() < need {
			break // near end of input: finish with the checked path
		}
		// Batch: hold the bit buffer in locals across every symbol the
		// current refill covers, so the per-symbol cost is shifts, one table
		// load, and a store — no Reader pointer traffic until write-back.
		cur, nbit := r.BitState()
		for nbit >= need && i < n {
			e := lut[cur>>(64-lutBits)]
			if e.len != 0 {
				cur <<= e.len
				nbit -= uint(e.len)
				wideAcc |= e.wide
				out[i] = e.symb
				i++
				continue
			}
			if w := uint(e.sub); w != 0 {
				se := sub[uint64(e.index)+(cur>>(64-lutBits-w))&((1<<w)-1)]
				if se.len != 0 {
					cur <<= se.len
					nbit -= uint(se.len)
					wideAcc |= se.wide
					out[i] = se.symb
					i++
					continue
				}
			}
			// Uncovered long code or invalid prefix: one checked decode.
			r.SetBitState(cur, nbit)
			sym, err := d.Decode(r)
			if err != nil {
				return nil, err
			}
			if uint(sym) > 255 {
				wideAcc = 1
			}
			out[i] = byte(sym)
			i++
			continue outer
		}
		r.SetBitState(cur, nbit)
	}
	for ; i < n; i++ {
		sym, err := d.Decode(r)
		if err != nil {
			return nil, err
		}
		if uint(sym) > 255 {
			wideAcc = 1
		}
		out[i] = byte(sym)
	}
	if wideAcc != 0 {
		return nil, ErrByteRange
	}
	return out, nil
}
