// Package huffman implements a canonical Huffman codec over integer symbol
// alphabets. It is the entropy-coding stage of the SZ-style pipeline used by
// MDZ and the reimplemented baselines: quantization bins and level-index
// codes are Huffman coded before the dictionary (lossless) stage, and that
// stage (internal/lossless.LZ), fpzip and ZFP code their byte streams with
// it too.
//
// A section is code table || symbol count || bit-packed payload. The table
// lists the alphabet in ascending symbol order as (zigzag symbol delta, code
// length) pairs, and encoder and decoder derive the same canonical code from
// those lengths, so neither needs the tree itself. A byte section that
// coding would not shrink is written raw instead: an empty table, the
// count, and the bytes themselves (bytes.go).
//
// Each job has one path. Scratch.build is the only code builder: a
// two-queue merge turns symbol weights into code lengths, and
// Encoder.assign turns lengths into canonical codes and the encode lookup.
// Int sections (Scratch.EncodeInts) and byte sections (EncodeBytes) differ
// only in how they count symbols and pack codes. Encoder.AppendTable is the
// only table writer, and DecodeScratch.ReadTable the only table parser; it
// refuses a table whose symbols are not strictly ascending. Encoder and
// decoder start each code length at the first code firstCodes gives.
package huffman

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/mdz/mdz/internal/bitstream"
)

// MaxCodeLen is the longest admissible code. Canonical codes are rebalanced
// to fit (package-limited alphabets make overflow practically impossible,
// but depth is still enforced for decoder table safety).
const MaxCodeLen = 58

var (
	// ErrCorrupt is returned when a serialized table or code stream is
	// malformed.
	ErrCorrupt = errors.New("huffman: corrupt stream")
)

// Encoder holds a canonical code table for a fixed symbol set.
type Encoder struct {
	// symbols lists the alphabet in ascending order, the order the table is
	// serialized in; codes[i] is the code of symbols[i].
	symbols []int
	codes   []code
	// dense, when non-empty, maps symbol s to its code at index s-denseMin.
	// It is built when the alphabet is near-contiguous — the common case
	// for quantization bins, which cluster around the zero bin. Holes have
	// code length 0. Sparser alphabets binary-search symbols.
	denseMin int
	dense    []code
}

type code struct {
	bits uint64
	n    uint8
}

// lookup resolves the code for symbol s.
func (e *Encoder) lookup(s int) (code, bool) {
	if len(e.dense) != 0 {
		if idx := s - e.denseMin; uint(idx) < uint(len(e.dense)) {
			c := e.dense[idx]
			return c, c.n != 0
		}
		return code{}, false
	}
	if i, ok := slices.BinarySearch(e.symbols, s); ok {
		return e.codes[i], true
	}
	return code{}, false
}

// NumSymbols reports the alphabet size.
func (e *Encoder) NumSymbols() int { return len(e.symbols) }

// Encode appends the code for symbol s to w. Encoding a symbol outside the
// alphabet returns an error.
func (e *Encoder) Encode(w *bitstream.Writer, s int) error {
	c, ok := e.lookup(s)
	if !ok {
		return fmt.Errorf("huffman: symbol %d not in alphabet", s)
	}
	w.WriteBits(c.bits, uint(c.n))
	return nil
}

// EncodeAll encodes a symbol slice.
//
// The dense path packs codes into a local 64-bit accumulator and hands the
// Writer full words, the same provably bit-identical transform the byte
// section encoder uses: codes compose MSB-first inside the accumulator
// exactly as consecutive WriteBits calls would emit them, and the flush
// condition (na+c.n > 64) guarantees no code ever straddles the local
// accumulator.
func (e *Encoder) EncodeAll(w *bitstream.Writer, syms []int) error {
	if len(e.dense) != 0 {
		// Hot path: slice-indexed code lookup, no per-symbol call overhead.
		lo, dense := e.denseMin, e.dense
		var acc uint64
		var na uint
		for _, s := range syms {
			idx := s - lo
			if uint(idx) >= uint(len(dense)) || dense[idx].n == 0 {
				return fmt.Errorf("huffman: symbol %d not in alphabet", s)
			}
			c := dense[idx]
			if na+uint(c.n) > 64 {
				w.WriteBits(acc, na)
				acc, na = 0, 0
			}
			acc = acc<<c.n | c.bits
			na += uint(c.n)
		}
		if na > 0 {
			w.WriteBits(acc, na)
		}
		return nil
	}
	for _, s := range syms {
		if err := e.Encode(w, s); err != nil {
			return err
		}
	}
	return nil
}

// AppendTable serializes the code table: uvarint count, then per symbol in
// ascending order a zigzag-varint symbol delta and a byte length. It is the
// only table writer, for int and byte sections alike.
func (e *Encoder) AppendTable(dst []byte) []byte {
	dst = bitstream.AppendUvarint(dst, uint64(len(e.symbols)))
	prev := int64(0)
	for i, s := range e.symbols {
		dst = bitstream.AppendVarint(dst, int64(s)-prev)
		prev = int64(s)
		dst = append(dst, e.codes[i].n)
	}
	return dst
}

// lutBits is the width of the root decode table: codes up to this length
// resolve with a single peek instead of a bitwise walk.
const lutBits = 11

// subMaxBits caps the width of any second-level subtable; codes longer than
// lutBits+subMaxBits bits always decode via the canonical bitwise walk.
const subMaxBits = 12

// maxSubEntries bounds the total second-level table size (entries across all
// subtables, ~1 MiB at 8 bytes each) so an adversarial — but Kraft-valid —
// serialized table cannot force huge allocations. Prefixes that miss the
// budget decode via the slow path; decoded output is unaffected.
const maxSubEntries = 1 << 17

// lutEntry is one slot of the two-level decode table. A leaf (len != 0)
// resolves a complete code: index is the symbol's canonical position and
// len its total code length. A node (len == 0, sub != 0) points at a
// second-level subtable: index is the base offset into Decoder.sub and sub
// the subtable's width in bits. len == 0 && sub == 0 marks a prefix with no
// table coverage (invalid, or a long code left to the slow path).
//
// Leaves additionally cache the symbol's low byte (symb) and whether the
// full symbol exceeds 0..255 (wide != 0), filling the struct's two padding
// bytes; the byte-oriented decode loop reads a symbol with a single table
// load instead of a dependent symbols[index] chase plus range compare.
type lutEntry struct {
	index int32
	len   uint8
	sub   uint8
	symb  uint8
	wide  uint8
}

// pairEntry is one slot of the int decode loop's root table. A probe of the
// next lutBits stream bits resolves n complete codes (1 or 2) whose symbols
// are sym[0] and sym[1] (sym[1] is 0 when n == 1), consuming bits stream
// bits in total. n == 0 sends the prefix to the per-symbol path: a code
// longer than lutBits, an invalid prefix, or a symbol outside int32.
type pairEntry struct {
	sym  [2]int32
	bits uint8
	n    uint8
}

// Decoder holds the canonical decode tables of one code, rebuilt in place
// from a serialized table by DecodeScratch.ReadTable.
type Decoder struct {
	// canonical decode tables indexed by code length
	firstCode  [MaxCodeLen + 1]uint64
	firstIndex [MaxCodeLen + 1]int
	count      [MaxCodeLen + 1]int
	symbols    []int // canonical order
	maxLen     uint8
	// lut is the lutBits-wide root table; sub holds the overflow subtables
	// for codes longer than lutBits, one contiguous region per root prefix.
	// ext is buildLUT's per-prefix subtable width scratch.
	lut []lutEntry
	sub []lutEntry
	ext []uint8
	// pair is the int decode loop's root table, derived from lut. Only int
	// sections read it, so it is built on their first decode after a
	// (re)build of the code: pairOK is false until then, and every rebuild
	// clears it, so a pooled Decoder never probes a pair table left over
	// from an earlier code.
	pair   []pairEntry
	pairOK bool
}

// buildLUT fills the two-level decode table. Level one: every lutBits-wide
// prefix whose leading bits form a complete code of length <= lutBits maps
// directly to its symbol. Level two: each prefix shared by longer codes
// gets a subtable sized for its longest code (capped at subMaxBits and the
// global maxSubEntries budget); codes past the caps keep len==0 entries and
// decode via the canonical bitwise walk. The tables reuse the Decoder's
// backing arrays.
func (d *Decoder) buildLUT() {
	d.lut = resize(d.lut, 1<<lutBits)
	for i := range d.lut {
		d.lut[i] = lutEntry{index: -1}
	}
	maxL := d.maxLen
	if maxL > lutBits {
		maxL = lutBits
	}
	for l := uint8(1); l <= maxL; l++ {
		for k := 0; k < d.count[l]; k++ {
			code := d.firstCode[l] + uint64(k)
			symIdx := int32(d.firstIndex[l] + k)
			sym := d.symbols[symIdx]
			e := lutEntry{index: symIdx, len: l, symb: uint8(sym)}
			if uint(sym) > 255 {
				e.wide = 1
			}
			base := code << (lutBits - uint(l))
			span := uint64(1) << (lutBits - uint(l))
			for s := uint64(0); s < span; s++ {
				d.lut[base+s] = e
			}
		}
	}
	if d.maxLen <= lutBits {
		d.sub = d.sub[:0]
		return
	}
	// Width (bits beyond the root prefix) each prefix's subtable needs to
	// cover its longest code.
	d.ext = resize(d.ext, 1<<lutBits)
	ext := d.ext
	clear(ext)
	for l := lutBits + 1; l <= int(d.maxLen); l++ {
		for k := 0; k < d.count[l]; k++ {
			code := d.firstCode[l] + uint64(k)
			p := code >> (uint(l) - lutBits)
			if e := uint8(l - lutBits); e > ext[p] {
				ext[p] = e
			}
		}
	}
	total := 0
	for p, w := range ext {
		if w == 0 {
			continue
		}
		if w > subMaxBits {
			w = subMaxBits
		}
		if total+(1<<w) > maxSubEntries {
			continue // budget exhausted: prefix stays on the slow path
		}
		d.lut[p] = lutEntry{index: int32(total), sub: w}
		total += 1 << w
	}
	d.sub = resize(d.sub, total)
	for i := range d.sub {
		d.sub[i] = lutEntry{index: -1}
	}
	for l := lutBits + 1; l <= int(d.maxLen); l++ {
		for k := 0; k < d.count[l]; k++ {
			code := d.firstCode[l] + uint64(k)
			symIdx := int32(d.firstIndex[l] + k)
			extBits := uint(l) - lutBits
			node := d.lut[code>>extBits]
			if node.sub == 0 || uint(node.sub) < extBits {
				continue // no subtable, or code longer than it covers
			}
			rem := uint(node.sub) - extBits
			base := uint64(node.index) + (code&((1<<extBits)-1))<<rem
			sym := d.symbols[symIdx]
			e := lutEntry{index: symIdx, len: uint8(l), symb: uint8(sym)}
			if uint(sym) > 255 {
				e.wide = 1
			}
			for s := uint64(0); s < 1<<rem; s++ {
				d.sub[base+s] = e
			}
		}
	}
}

// buildPair derives the pair table from the built root table. For a root
// slot p whose first code has length l1, the window advanced by l1 bits is
// p<<l1 (mod 2^lutBits) with the vacated low bits zero-filled; the entry
// found there is a real second code only if it is a leaf whose length fits
// in the remaining lutBits-l1 genuine bits. Entries reachable only through
// the zero fill fail that length test, because a leaf of length l2 <=
// lutBits-l1 is determined by the window's top l2 bits alone, all of which
// are real.
func (d *Decoder) buildPair() {
	if len(d.symbols) == 0 {
		return
	}
	d.pair = resize(d.pair, 1<<lutBits)
	for p, e := range d.lut {
		var ent pairEntry
		if e.len != 0 {
			if sym := d.symbols[e.index]; int(int32(sym)) == sym {
				ent = pairEntry{sym: [2]int32{int32(sym)}, bits: e.len, n: 1}
				e2 := d.lut[(p<<e.len)&(1<<lutBits-1)]
				if e2.len != 0 && e2.len <= lutBits-e.len {
					if sym2 := d.symbols[e2.index]; int(int32(sym2)) == sym2 {
						ent.sym[1] = int32(sym2)
						ent.bits += e2.len
						ent.n = 2
					}
				}
			}
		}
		d.pair[p] = ent
	}
	d.pairOK = true
}

// Decode reads one symbol from r.
func (d *Decoder) Decode(r *bitstream.Reader) (int, error) {
	if len(d.symbols) == 0 {
		return 0, ErrCorrupt
	}
	// Fast path: resolve codes through the two-level table. A table hit is
	// only taken when the full code length fits within avail, so zero
	// padding past end-of-stream is never mistaken for data.
	if bits, avail := r.Peek(lutBits); avail > 0 {
		e := d.lut[bits]
		if e.len != 0 && uint(e.len) <= avail {
			if err := r.Skip(uint(e.len)); err != nil {
				return 0, err
			}
			return d.symbols[e.index], nil
		}
		if e.sub != 0 {
			w := uint(e.sub)
			bits2, avail2 := r.Peek(lutBits + w)
			se := d.sub[uint64(e.index)+(bits2&((1<<w)-1))]
			if se.len != 0 && uint(se.len) <= avail2 {
				if err := r.Skip(uint(se.len)); err != nil {
					return 0, err
				}
				return d.symbols[se.index], nil
			}
		}
	}
	return d.decodeSlow(r)
}

// decodeSlow is the canonical bitwise walk, the single source of truth for
// error semantics: ErrShortStream if the stream ends mid-code, ErrCorrupt
// after maxLen bits match nothing. It also decodes the (rare) codes the
// table budget does not cover.
func (d *Decoder) decodeSlow(r *bitstream.Reader) (int, error) {
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

// DecodeAllBuf reads exactly n symbols, reusing buf when it has capacity.
//
// The fast loop keeps the reader's 64-bit buffer topped up with at least
// maxLen real stream bits, so table lookups need no avail gating and
// consume with zero per-symbol checks. Near the end of the input (or for
// pathological tables whose maxLen exceeds the refill guarantee) it falls
// back to the checked per-symbol Decode, which preserves the historical
// error semantics exactly.
func (d *Decoder) DecodeAllBuf(r *bitstream.Reader, n int, buf []int) ([]int, error) {
	out := resize(buf, n)
	if n == 0 {
		return out, nil
	}
	if len(d.symbols) == 0 {
		return nil, ErrCorrupt
	}
	if err := d.decodeInto(r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeInto fills out with exactly len(out) symbols from r; it is the core
// loop of DecodeAllBuf.
//
// The bit buffer stays in locals across every probe a refill covers. While
// at least two output slots remain, each probe of the pair table writes
// both slots and advances i by the entry's count: a one-code entry's second
// store lands in a slot the next probe overwrites, so the loop never
// branches on the count. Codes longer than lutBits go through the
// subtables; uncovered codes, invalid prefixes, symbols outside int32, the
// last odd slot and the stream tail take the checked Decode, which keeps
// the error semantics and the reader position of a symbol-at-a-time decode.
func (d *Decoder) decodeInto(r *bitstream.Reader, out []int) error {
	if !d.pairOK {
		d.buildPair()
	}
	n := len(out)
	need := uint(lutBits)
	if m := uint(d.maxLen); m > need {
		need = m
	}
	pair := (*[1 << lutBits]pairEntry)(d.pair)
	lut := (*[1 << lutBits]lutEntry)(d.lut)
	sub, symbols := d.sub, d.symbols
	i := 0
outer:
	for i+1 < n {
		if r.Buffered() < need && r.Fill() < need {
			break // near end of input: finish with the checked path
		}
		cur, nbit := r.BitState()
		for nbit >= need && i+1 < n {
			p := cur >> (64 - lutBits)
			if e := pair[p]; e.n != 0 {
				out[i] = int(e.sym[0])
				out[i+1] = int(e.sym[1])
				cur <<= e.bits
				nbit -= uint(e.bits)
				i += int(e.n)
				continue
			}
			if e := lut[p]; e.sub != 0 {
				w := uint(e.sub)
				se := sub[uint64(e.index)+(cur>>(64-lutBits-w))&((1<<w)-1)]
				if se.len != 0 {
					out[i] = symbols[se.index]
					cur <<= se.len
					nbit -= uint(se.len)
					i++
					continue
				}
			}
			// Uncovered long code, invalid prefix or wide symbol: one
			// checked decode.
			r.SetBitState(cur, nbit)
			s, err := d.Decode(r)
			if err != nil {
				return err
			}
			out[i] = s
			i++
			continue outer
		}
		r.SetBitState(cur, nbit)
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

// Scratch holds the reusable state of section encoding: symbol counts, the
// code builder's buffers and the Encoder it builds, and the table and
// payload buffers. Repeated encodes (one per shard per batch in the MDZ
// pipeline) therefore stop churning the allocator. A Scratch must not be
// used from multiple goroutines concurrently; the zero value is ready to
// use.
type Scratch struct {
	freq    map[int]uint64 // sparse-range counts
	counts  []uint64       // dense frequency buffer, indexed by symbol-min
	counts4 []uint32       // 4-way striped counting stripes (summed into counts)
	syms    []int          // the counted alphabet, ascending
	weights []uint64       // weights parallel to syms
	table   []byte
	w       bitstream.Writer
	stats   EncodeStats
	// code-builder scratch (see build)
	keys  []uint64
	tw    []uint64
	par   []int32
	depth []uint8
	lens  []uint8
	enc   Encoder
}

// EncodeStats describes the most recent EncodeInts call on a Scratch: the
// alphabet size and the serialized table and bit-packed payload sizes. The
// table/payload split is what telemetry uses to track per-shard Huffman
// table overhead (the cost that bounds useful shard counts).
type EncodeStats struct {
	// Symbols is the alphabet size of the encoded stream.
	Symbols int
	// TableBytes is the serialized code-table size.
	TableBytes int
	// PayloadBytes is the bit-packed symbol stream size.
	PayloadBytes int
}

// LastStats reports the stats of the most recent EncodeInts call (zeros
// before the first).
func (s *Scratch) LastStats() EncodeStats { return s.stats }

// EncodeInts builds a code for syms, serializes the table and the
// bit-packed payload, and returns table||payload as length-prefixed
// sections appended to dst, reusing the Scratch's internal buffers.
func (s *Scratch) EncodeInts(dst []byte, syms []int) ([]byte, error) {
	s.count(syms)
	enc, err := s.build(s.syms, s.weights)
	if err != nil {
		return nil, err
	}
	s.table = enc.AppendTable(s.table[:0])
	s.w.Reset()
	if err := enc.EncodeAll(&s.w, syms); err != nil {
		return nil, err
	}
	dst = s.appendSection(dst, len(syms))
	s.stats = EncodeStats{
		Symbols:      enc.NumSymbols(),
		TableBytes:   len(s.table),
		PayloadBytes: len(s.w.Bytes()),
	}
	return dst, nil
}

// appendSection appends one coded section to dst: the table in s.table,
// the symbol count and the payload packed in s.w.
func (s *Scratch) appendSection(dst []byte, count int) []byte {
	dst = bitstream.AppendSection(dst, s.table)
	dst = bitstream.AppendUvarint(dst, uint64(count))
	return bitstream.AppendSection(dst, s.w.Bytes())
}

// count lists the distinct values of syms in ascending order in s.syms,
// with their occurrence counts in s.weights. When the symbol range is
// near-contiguous — the common case for quantization bins — counting uses a
// dense slice (one array increment per value); a sparse range counts in a
// map and sorts its keys. Both list the same (symbol, count) pairs.
func (s *Scratch) count(syms []int) {
	s.syms, s.weights = s.syms[:0], s.weights[:0]
	if len(syms) == 0 {
		return
	}
	lo, hi := syms[0], syms[0]
	for _, v := range syms[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// hi-lo as a uint64 is exact even when the int subtraction would
	// overflow (e.g. extreme sentinel codes at both ends of the range).
	diff := uint64(hi) - uint64(lo)
	if diff >= uint64(4*len(syms)+1024) || diff >= 1<<20 {
		if s.freq == nil {
			s.freq = make(map[int]uint64, 64)
		} else {
			clear(s.freq)
		}
		for _, v := range syms {
			s.freq[v]++
		}
		for v := range s.freq {
			s.syms = append(s.syms, v)
		}
		slices.Sort(s.syms)
		for _, v := range s.syms {
			s.weights = append(s.weights, s.freq[v])
		}
		return
	}
	span := int(diff) + 1
	s.counts = resize(s.counts, span)
	counts := s.counts
	if len(syms) >= 4*span && len(syms) >= 2048 && len(syms) < 1<<28 {
		// 4-way striped counting, as in the byte-section histogram:
		// quantization bins arrive in long runs of the same symbol, and
		// four independent stripes break the same-address
		// increment-to-increment dependency those runs create. The input
		// bound keeps every uint32 stripe overflow-free, and the summed
		// counts are exactly the serial counts. Gated on len >= 4*span so
		// clearing and summing the stripes stays amortized.
		s.counts4 = resize(s.counts4, 4*span)
		c4 := s.counts4
		clear(c4)
		n4 := len(syms) &^ 3
		for i := 0; i < n4; i += 4 {
			c4[syms[i]-lo]++
			c4[span+syms[i+1]-lo]++
			c4[2*span+syms[i+2]-lo]++
			c4[3*span+syms[i+3]-lo]++
		}
		for _, v := range syms[n4:] {
			c4[v-lo]++
		}
		for j := 0; j < span; j++ {
			counts[j] = uint64(c4[j]) + uint64(c4[span+j]) + uint64(c4[2*span+j]) + uint64(c4[3*span+j])
		}
	} else {
		clear(counts)
		for _, v := range syms {
			counts[v-lo]++
		}
	}
	for i, c := range counts {
		if c != 0 {
			s.syms = append(s.syms, lo+i)
			s.weights = append(s.weights, c)
		}
	}
}

// build constructs the canonical code for symbols given in strictly
// ascending order with positive weights. It is the only code builder: int
// and byte sections both build here, so equal (symbol, weight) lists give
// equal codes. codeLengths turns the weights into code lengths and assign
// turns those into codes. The returned Encoder is the scratch's own and is
// valid until its next build; the slices are not retained.
func (s *Scratch) build(syms []int, weights []uint64) (*Encoder, error) {
	s.lens = resize(s.lens, len(syms))
	s.codeLengths(weights, s.lens)
	if err := s.enc.assign(syms, s.lens); err != nil {
		return nil, err
	}
	return &s.enc, nil
}

// codeLengths sets lens[i] to the code length of the i'th symbol of an
// ascending alphabet with the given weights: its leaf depth in the Huffman
// tree, clamped to MaxCodeLen (a one-symbol alphabet gets a one-bit code).
//
// The merge gives the same tree as the heap builder kept in
// huffman_ref_test.go, which pops nodes by (weight, order) with leaves
// numbered by ascending symbol and merges in creation order. Leaves enter
// here sorted stably by weight, and merges queue up in creation order;
// merge weights never decrease, so each queue's front is its earliest
// minimum, and taking the leaf queue on a weight tie matches the heap,
// where every leaf order precedes every merge order.
func (s *Scratch) codeLengths(weights []uint64, lens []uint8) {
	n := len(weights)
	if n <= 1 {
		if n == 1 {
			lens[0] = 1
		}
		return
	}
	// keys[j] becomes the position of the j'th leaf in merge-pop order: a
	// stable sort by weight. When weights and alphabet size fit, weight and
	// position pack into one uint64 so the sort is a primitive slices.Sort
	// (pdqsort, no comparator calls); the fallback sorts positions stably.
	s.keys = resize(s.keys, n)
	keys := s.keys
	packed := n < 1<<24
	for _, w := range weights {
		if w >= 1<<40 {
			packed = false
			break
		}
	}
	if packed {
		for i, w := range weights {
			keys[i] = w<<24 | uint64(i)
		}
		slices.Sort(keys)
		for j := range keys {
			keys[j] &= 1<<24 - 1
		}
	} else {
		for i := range keys {
			keys[i] = uint64(i)
		}
		slices.SortStableFunc(keys, func(a, b uint64) int {
			return cmp.Compare(weights[a], weights[b])
		})
	}
	// Two-queue Huffman merge over a flat node array: nodes 0..n-1 are the
	// sorted leaves, nodes n..2n-2 the merges in creation order. Each step
	// pops the two smallest weights, preferring the leaf queue on ties.
	nodes := 2*n - 1
	s.tw = resize(s.tw, nodes)
	s.par = resize(s.par, nodes)
	s.depth = resize(s.depth, nodes)
	tw, par, depth := s.tw, s.par, s.depth
	for j, k := range keys {
		tw[j] = weights[k]
	}
	li, mi := 0, n
	for created := n; created < nodes; created++ {
		var a, b int
		if li < n && (mi >= created || tw[li] <= tw[mi]) {
			a, li = li, li+1
		} else {
			a, mi = mi, mi+1
		}
		if li < n && (mi >= created || tw[li] <= tw[mi]) {
			b, li = li, li+1
		} else {
			b, mi = mi, mi+1
		}
		tw[created] = tw[a] + tw[b]
		par[a], par[b] = int32(created), int32(created)
	}
	// Leaf depths via a reverse parent walk (parents are always created after
	// their children, so one descending pass resolves every depth), saturated
	// at 255 ahead of the MaxCodeLen clamp.
	depth[nodes-1] = 0
	for j := nodes - 2; j >= 0; j-- {
		d := depth[par[j]]
		if d < 255 {
			d++
		}
		depth[j] = d
	}
	for j, k := range keys {
		lens[k] = min(depth[j], MaxCodeLen)
	}
}

// assign gives the symbols of an ascending alphabet their canonical codes
// from their code lengths: in (length, symbol) order, symbols of one length
// take consecutive codes starting at firstCodes. It also builds the dense
// lookup when the alphabet spans few enough values; lookups in sparser
// alphabets binary-search the ascending symbols.
func (e *Encoder) assign(syms []int, lens []uint8) error {
	n := len(syms)
	e.symbols = append(e.symbols[:0], syms...)
	e.codes = resize(e.codes, n)
	e.dense = e.dense[:0]
	if n == 0 {
		return nil
	}
	var cnt [MaxCodeLen + 1]int
	maxLen := uint8(0)
	for _, l := range lens {
		cnt[l]++
		maxLen = max(maxLen, l)
	}
	// next[l] starts at the first code of length l. The Kraft check can
	// fail only through the MaxCodeLen clamp, i.e. never for realistic
	// weights.
	var next [MaxCodeLen + 1]uint64
	if err := firstCodes(&cnt, maxLen, &next); err != nil {
		return err
	}
	for i, l := range lens {
		e.codes[i] = code{bits: next[l], n: l}
		next[l]++
	}
	lo, hi := syms[0], syms[n-1]
	// Unsigned difference is exact even when hi-lo overflows int.
	if diff := uint64(hi) - uint64(lo); diff < uint64(2*n+1024) {
		e.denseMin = lo
		e.dense = resize(e.dense, int(diff)+1)
		clear(e.dense)
		for i, s := range syms {
			e.dense[s-lo] = e.codes[i]
		}
	}
	return nil
}

// firstCodes sets first[l] to the canonical first code of length l for
// l in 1..maxLen, given count[l] codes of each length: it follows the last
// code of the length before, shifted left by one bit per length step.
// Encoder and decoder both start their codes here. Lengths that
// over-subscribe the code space are ErrCorrupt.
func firstCodes(count *[MaxCodeLen + 1]int, maxLen uint8, first *[MaxCodeLen + 1]uint64) error {
	c := uint64(0)
	for l := uint8(1); l <= maxLen; l++ {
		first[l] = c
		c += uint64(count[l])
		if c > 1<<l {
			return ErrCorrupt
		}
		c <<= 1
	}
	return nil
}

// resize returns buf resliced to length n, allocating a new array only when
// its capacity is short. Contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
