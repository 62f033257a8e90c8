// Package huffman implements a canonical Huffman codec over integer symbol
// alphabets. It is the entropy-coding stage of the SZ-style pipeline used by
// MDZ and the reimplemented baselines: quantization bins and level-index
// codes are Huffman coded before the dictionary (lossless) stage.
//
// The code table is serialized compactly as (symbol, code length) pairs and
// rebuilt canonically on decode, so encoder and decoder never need to share
// the tree itself.
package huffman

import (
	"errors"
	"fmt"
	"slices"
	"sort"

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
	codes map[int]code
	// table serialization, cached at build time
	symbols []int
	lengths []uint8
	// dense, when non-nil, maps symbol s to its code at index s-denseMin,
	// replacing the per-symbol map lookup on the encode hot path. Built when
	// the alphabet is near-contiguous — the common case for quantization
	// bins, which cluster around the zero bin. Holes have code length 0.
	denseMin int
	dense    []code
}

type code struct {
	bits uint64
	n    uint8
}

// Build constructs a canonical Huffman code for the given symbol frequency
// map. Symbols with zero frequency are ignored. Build is deterministic: the
// same frequency map always produces the same code.
func Build(freq map[int]uint64) (*Encoder, error) {
	if len(freq) == 0 {
		return &Encoder{codes: map[int]code{}}, nil
	}
	syms := make([]int, 0, len(freq))
	for s, f := range freq {
		if f > 0 {
			syms = append(syms, s)
		}
	}
	if len(syms) == 0 {
		return &Encoder{codes: map[int]code{}}, nil
	}
	sort.Ints(syms)
	weights := make([]uint64, len(syms))
	for i, s := range syms {
		weights[i] = freq[s]
	}
	return buildSorted(syms, weights)
}

// buildSorted constructs the canonical code for symbols given in strictly
// ascending order with positive weights. It is the common backend of Build
// and the dense (map-free) counting path in EncodeInts, and produces
// identical codes for identical (symbol, weight) multisets. The slices are
// not retained.
func buildSorted(syms []int, weights []uint64) (*Encoder, error) {
	return buildSortedSc(syms, weights, nil)
}

// buildSortedSc is buildSorted with optional scratch reuse: with a non-nil
// Scratch the sort keys, tree arrays, and the returned Encoder's tables all
// come from pooled buffers, so the per-shard encode path builds its code with
// zero steady-state allocations. The produced code is byte-identical to the
// historical heap-based builder: leaves enter the merge in (weight, symbol
// order) and internal nodes in creation order, which reproduces the heap's
// (weight, order) pop sequence exactly — on a weight tie every leaf order
// precedes every merge order, ties among leaves resolve by ascending symbol
// (the stable weight sort over an ascending-symbol input), and ties among
// merges resolve by creation order (merge weights are non-decreasing, so the
// queue front is the earliest minimum). huffman_ref_test.go pins this
// equivalence against the kept heap implementation.
func buildSortedSc(syms []int, weights []uint64, s *Scratch) (*Encoder, error) {
	n := len(syms)
	var e *Encoder
	if s != nil {
		e = &s.enc
		old := *e
		*e = Encoder{}
		e.symbols, e.lengths, e.dense = old.symbols[:0], old.lengths[:0], old.dense[:0]
	} else {
		e = &Encoder{}
	}
	if n == 0 {
		return e, nil
	}
	if n == 1 {
		// Degenerate alphabet: one-bit code.
		e.symbols = append(e.symbols, syms[0])
		e.lengths = append(e.lengths, 1)
		e.denseMin = syms[0]
		e.dense = append(e.dense[:0], code{bits: 0, n: 1})
		return e, nil
	}
	// Leaves in merge-pop order: a stable sort by weight over the ascending
	// symbol list. When weights and alphabet size fit, weight and original
	// index pack into one uint64 so the sort is a primitive slices.Sort
	// (pdqsort, no comparator calls); the fallback sorts index handles
	// stably.
	var keys []uint64
	if s != nil && cap(s.keys) >= n {
		keys = s.keys[:n]
	} else {
		keys = make([]uint64, n)
		if s != nil {
			s.keys = keys
		}
	}
	packed := n < 1<<24
	if packed {
		for _, w := range weights {
			if w >= 1<<40 {
				packed = false
				break
			}
		}
	}
	if packed {
		for i, w := range weights {
			keys[i] = w<<24 | uint64(i)
		}
		slices.Sort(keys)
	} else {
		for i := range keys {
			keys[i] = uint64(i)
		}
		slices.SortStableFunc(keys, func(a, b uint64) int {
			wa, wb := weights[a], weights[b]
			if wa < wb {
				return -1
			}
			if wa > wb {
				return 1
			}
			return 0
		})
	}
	ordOf := func(j int) int {
		if packed {
			return int(keys[j] & (1<<24 - 1))
		}
		return int(keys[j])
	}
	// Two-queue Huffman merge over a flat node array: nodes 0..n-1 are the
	// sorted leaves, nodes n..2n-2 the merges in creation order. Each step
	// pops the two smallest weights, preferring the leaf queue on ties.
	nodes := 2*n - 1
	var tw []uint64
	var par []int32
	if s != nil && cap(s.tw) >= nodes {
		tw = s.tw[:nodes]
	} else {
		tw = make([]uint64, nodes)
		if s != nil {
			s.tw = tw
		}
	}
	if s != nil && cap(s.par) >= nodes {
		par = s.par[:nodes]
	} else {
		par = make([]int32, nodes)
		if s != nil {
			s.par = par
		}
	}
	for j := 0; j < n; j++ {
		tw[j] = weights[ordOf(j)]
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
	var depth []uint8
	if s != nil && cap(s.depth) >= nodes {
		depth = s.depth[:nodes]
	} else {
		depth = make([]uint8, nodes)
		if s != nil {
			s.depth = depth
		}
	}
	depth[nodes-1] = 0
	for j := nodes - 2; j >= 0; j-- {
		d := depth[par[j]]
		if d < 255 {
			d++
		}
		depth[j] = d
	}
	// Code lengths per original (ascending-symbol) position, clamped to
	// MaxCodeLen exactly as the historical builder clamped.
	var lens []uint8
	if s != nil && cap(s.ordLens) >= n {
		lens = s.ordLens[:n]
	} else {
		lens = make([]uint8, n)
		if s != nil {
			s.ordLens = lens
		}
	}
	var cnt [MaxCodeLen + 1]int32
	maxLen := uint8(0)
	for j := 0; j < n; j++ {
		l := depth[j]
		if l > MaxCodeLen {
			l = MaxCodeLen
		}
		lens[ordOf(j)] = l
		cnt[l]++
		if l > maxLen {
			maxLen = l
		}
	}
	// Canonical first-code/first-index per length, with the same
	// over-subscription guard fromLengths applies per symbol (reachable only
	// through the depth clamp, i.e. never for realistic weights).
	var first [MaxCodeLen + 1]uint64
	var fidx [MaxCodeLen + 1]int32
	var next [MaxCodeLen + 1]int32
	var c uint64
	var idx int32
	for l := uint8(1); l <= maxLen; l++ {
		first[l] = c
		fidx[l] = idx
		c += uint64(cnt[l])
		idx += cnt[l]
		if cnt[l] > 0 && c > 1<<l {
			return nil, ErrCorrupt // over-subscribed code space
		}
		c <<= 1
	}
	// Assign codes by ascending symbol: position fidx[l]+k within the
	// canonical (length, symbol) order, code first[l]+k — the exact
	// assignment fromLengths produces.
	if cap(e.symbols) >= n {
		e.symbols = e.symbols[:n]
	} else {
		e.symbols = make([]int, n)
	}
	if cap(e.lengths) >= n {
		e.lengths = e.lengths[:n]
	} else {
		e.lengths = make([]uint8, n)
	}
	lo, hi := syms[0], syms[n-1]
	diff := uint64(hi) - uint64(lo)
	if diff < uint64(2*n+1024) {
		span := int(diff) + 1
		var dense []code
		if cap(e.dense) >= span {
			dense = e.dense[:span]
			clear(dense)
		} else {
			dense = make([]code, span)
		}
		for i := 0; i < n; i++ {
			l := lens[i]
			k := next[l]
			next[l]++
			pos := fidx[l] + k
			e.symbols[pos] = syms[i]
			e.lengths[pos] = l
			dense[syms[i]-lo] = code{bits: first[l] + uint64(k), n: l}
		}
		e.denseMin = lo
		e.dense = dense
	} else {
		codes := make(map[int]code, n)
		for i := 0; i < n; i++ {
			l := lens[i]
			k := next[l]
			next[l]++
			pos := fidx[l] + k
			e.symbols[pos] = syms[i]
			e.lengths[pos] = l
			codes[syms[i]] = code{bits: first[l] + uint64(k), n: l}
		}
		e.codes = codes
		e.dense = nil
	}
	return e, nil
}

// fromLengths builds the canonical code assignment from code lengths:
// symbols sorted by (length, symbol) receive consecutive codes.
func fromLengths(lengths map[int]uint8) (*Encoder, error) {
	type sl struct {
		sym int
		l   uint8
	}
	list := make([]sl, 0, len(lengths))
	for s, l := range lengths {
		if l == 0 || l > MaxCodeLen {
			return nil, fmt.Errorf("huffman: invalid code length %d for symbol %d", l, s)
		}
		list = append(list, sl{s, l})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].l != list[j].l {
			return list[i].l < list[j].l
		}
		return list[i].sym < list[j].sym
	})
	e := &Encoder{codes: make(map[int]code, len(list))}
	var next uint64
	var prevLen uint8
	for _, it := range list {
		next <<= (it.l - prevLen)
		prevLen = it.l
		if it.l < 64 && next >= (1<<it.l) {
			return nil, ErrCorrupt // over-subscribed code space
		}
		e.codes[it.sym] = code{bits: next, n: it.l}
		e.symbols = append(e.symbols, it.sym)
		e.lengths = append(e.lengths, it.l)
		next++
	}
	e.buildDense()
	return e, nil
}

// buildDense materializes the slice-indexed code lookup covering
// [denseMin, denseMin+len(dense)) when the alphabet is dense enough for the
// table to be small; very sparse alphabets keep the map-only lookup.
func (e *Encoder) buildDense() {
	if len(e.symbols) == 0 {
		return
	}
	lo, hi := e.symbols[0], e.symbols[0]
	for _, s := range e.symbols[1:] {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	// Unsigned difference is exact even when hi-lo overflows int.
	diff := uint64(hi) - uint64(lo)
	if diff >= uint64(2*len(e.symbols)+1024) {
		return
	}
	e.denseMin = lo
	e.dense = make([]code, int(diff)+1)
	for i, s := range e.symbols {
		e.dense[s-lo] = code{bits: e.codes[s].bits, n: e.lengths[i]}
	}
}

// lookup resolves the code for symbol s via the dense table when present.
func (e *Encoder) lookup(s int) (code, bool) {
	if e.dense != nil {
		if idx := s - e.denseMin; uint(idx) < uint(len(e.dense)) {
			c := e.dense[idx]
			return c, c.n != 0
		}
		return code{}, false
	}
	c, ok := e.codes[s]
	return c, ok
}

// CodeLen returns the code length in bits for symbol s, or 0 if s is not in
// the alphabet.
func (e *Encoder) CodeLen(s int) int {
	c, _ := e.lookup(s)
	return int(c.n)
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
	if e.dense != nil {
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

// AppendTable serializes the code table: uvarint count, then per symbol a
// zigzag-varint symbol delta (sorted canonical order) and a byte length.
func (e *Encoder) AppendTable(dst []byte) []byte {
	dst = bitstream.AppendUvarint(dst, uint64(len(e.symbols)))
	prev := int64(0)
	if e.dense != nil {
		// The dense table already covers the alphabet in ascending symbol
		// order (holes have length 0), so the serialized-by-symbol emission
		// needs no sort and no per-call list allocation.
		for i := range e.dense {
			n := e.dense[i].n
			if n == 0 {
				continue
			}
			sym := int64(e.denseMin + i)
			dst = bitstream.AppendVarint(dst, sym-prev)
			prev = sym
			dst = append(dst, n)
		}
		return dst
	}
	// Serialize sorted by symbol so deltas are small and non-negative-ish.
	type sl struct {
		sym int
		l   uint8
	}
	list := make([]sl, len(e.symbols))
	for i, s := range e.symbols {
		list[i] = sl{s, e.lengths[i]}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].sym < list[j].sym })
	for _, it := range list {
		dst = bitstream.AppendVarint(dst, int64(it.sym)-prev)
		prev = int64(it.sym)
		dst = append(dst, it.l)
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

// Decoder rebuilds a canonical code from a serialized table and decodes
// symbol streams.
type Decoder struct {
	// canonical decode tables indexed by code length
	firstCode  [MaxCodeLen + 1]uint64
	firstIndex [MaxCodeLen + 1]int
	count      [MaxCodeLen + 1]int
	symbols    []int // canonical order
	maxLen     uint8
	// lut is the lutBits-wide root table; sub holds the overflow subtables
	// for codes longer than lutBits, one contiguous region per root prefix.
	lut []lutEntry
	sub []lutEntry
	// pair is the int decode loop's root table, derived from lut. Only int
	// sections read it, so it is built on their first decode after a
	// (re)build of the code: pairOK is false until then, and every rebuild
	// clears it, so a pooled Decoder never probes a pair table left over
	// from an earlier code.
	pair   []pairEntry
	pairOK bool
}

// ReadTable parses a table serialized by AppendTable from br and returns the
// Decoder. It is DecodeScratch.ReadTable on a fresh scratch, with the int
// pair table built up front so the Decoder is read-only from here on.
func ReadTable(br *bitstream.ByteReader) (*Decoder, error) {
	var s DecodeScratch
	d, err := s.ReadTable(br)
	if err != nil {
		return nil, err
	}
	d.buildPair()
	return d, nil
}

// NewDecoder builds a Decoder directly from a symbol→length map.
func NewDecoder(lengths map[int]uint8) (*Decoder, error) {
	d := &Decoder{}
	if err := d.init(lengths, nil); err != nil {
		return nil, err
	}
	d.buildPair()
	return d, nil
}

// symLen is a (symbol, code length) pair, the unit of canonical table
// construction.
type symLen struct {
	sym int
	l   uint8
}

// init (re)builds the decoder from a symbol→length map. When sc is non-nil
// its scratch buffers are reused, so a pooled Decoder rebuilds with no
// steady-state allocations; the resulting tables are identical either way.
func (d *Decoder) init(lengths map[int]uint8, sc *DecodeScratch) error {
	var list []symLen
	if sc != nil {
		list = sc.list[:0]
	} else {
		list = make([]symLen, 0, len(lengths))
	}
	for s, l := range lengths {
		list = append(list, symLen{s, l})
	}
	if sc != nil {
		sc.list = list
	}
	// (l, sym) is a strict total order, so any comparison sort yields the
	// same sequence the historical sort.Slice produced.
	slices.SortFunc(list, func(a, b symLen) int {
		if a.l != b.l {
			return int(a.l) - int(b.l)
		}
		return a.sym - b.sym
	})
	return d.initSorted(list, sc)
}

// initSorted (re)builds the decoder from a list of distinct (symbol, length)
// pairs already in ascending (length, symbol) order — the canonical
// assignment order. Callers must guarantee both properties; init sorts an
// arbitrary map into it, and the table parser's counting sort preserves it.
func (d *Decoder) initSorted(list []symLen, sc *DecodeScratch) error {
	symbols, lut, sub, pair := d.symbols[:0], d.lut, d.sub, d.pair
	*d = Decoder{symbols: symbols, lut: lut, sub: sub, pair: pair}
	if len(list) == 0 {
		// Stale lut/sub/pair buffers (pooled reuse) are never read: every
		// decode entry point checks len(d.symbols) first.
		return nil
	}
	for _, it := range list {
		if it.l == 0 || it.l > MaxCodeLen {
			return ErrCorrupt
		}
	}
	for _, it := range list {
		d.symbols = append(d.symbols, it.sym)
		d.count[it.l]++
		if it.l > d.maxLen {
			d.maxLen = it.l
		}
	}
	var c uint64
	idx := 0
	for l := uint8(1); l <= d.maxLen; l++ {
		d.firstCode[l] = c
		d.firstIndex[l] = idx
		c += uint64(d.count[l])
		idx += d.count[l]
		if l < 64 && c > (1<<l) {
			return ErrCorrupt
		}
		c <<= 1
	}
	d.buildLUT(sc)
	return nil
}

// buildLUT fills the two-level decode table. Level one: every lutBits-wide
// prefix whose leading bits form a complete code of length <= lutBits maps
// directly to its symbol. Level two: each prefix shared by longer codes
// gets a subtable sized for its longest code (capped at subMaxBits and the
// global maxSubEntries budget); codes past the caps keep len==0 entries and
// decode via the canonical bitwise walk. A non-nil sc contributes reusable
// backing arrays for the tables.
func (d *Decoder) buildLUT(sc *DecodeScratch) {
	if cap(d.lut) >= 1<<lutBits {
		d.lut = d.lut[:1<<lutBits]
	} else {
		d.lut = make([]lutEntry, 1<<lutBits)
	}
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
	var ext []uint8
	if sc != nil && cap(sc.ext) >= 1<<lutBits {
		ext = sc.ext[:1<<lutBits]
		clear(ext)
	} else {
		ext = make([]uint8, 1<<lutBits)
		if sc != nil {
			sc.ext = ext
		}
	}
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
	if cap(d.sub) >= total {
		d.sub = d.sub[:total]
	} else {
		d.sub = make([]lutEntry, total)
	}
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
	if cap(d.pair) >= 1<<lutBits {
		d.pair = d.pair[:1<<lutBits]
	} else {
		d.pair = make([]pairEntry, 1<<lutBits)
	}
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

// DecodeAll reads exactly n symbols into a new slice.
func (d *Decoder) DecodeAll(r *bitstream.Reader, n int) ([]int, error) {
	return d.DecodeAllBuf(r, n, nil)
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
	var out []int
	if cap(buf) >= n {
		out = buf[:n]
	} else {
		out = make([]int, n)
	}
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

// Scratch holds reusable buffers for EncodeInts so repeated encodes (one
// per shard per batch in the MDZ pipeline) stop churning the allocator. A
// Scratch must not be used from multiple goroutines concurrently; the zero
// value is ready to use.
type Scratch struct {
	freq    map[int]uint64
	counts  []uint64 // dense frequency buffer, indexed by symbol-min
	counts4 []uint32 // 4-way striped counting stripes (summed into counts)
	syms    []int    // dense alphabet scratch (ascending)
	weights []uint64 // weights parallel to syms
	table   []byte
	w       bitstream.Writer
	stats   EncodeStats
	// code-builder scratch (see buildSortedSc)
	keys    []uint64
	tw      []uint64
	par     []int32
	depth   []uint8
	ordLens []uint8
	enc     Encoder
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
	enc, err := s.buildFor(syms)
	if err != nil {
		return nil, err
	}
	s.table = enc.AppendTable(s.table[:0])
	s.w.Reset()
	if err := enc.EncodeAll(&s.w, syms); err != nil {
		return nil, err
	}
	s.stats = EncodeStats{
		Symbols:      enc.NumSymbols(),
		TableBytes:   len(s.table),
		PayloadBytes: len(s.w.Bytes()),
	}
	dst = bitstream.AppendSection(dst, s.table)
	dst = bitstream.AppendUvarint(dst, uint64(len(syms)))
	dst = bitstream.AppendSection(dst, s.w.Bytes())
	return dst, nil
}

// buildFor computes symbol frequencies and builds the canonical code. When
// the symbol range is near-contiguous — the common case for quantization
// bins — counting uses a dense slice instead of a map (one array increment
// per value); the resulting code is byte-identical to the map path because
// a dense ascending scan visits symbols in exactly sorted order.
func (s *Scratch) buildFor(syms []int) (*Encoder, error) {
	if len(syms) == 0 {
		return Build(nil)
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
	if diff < uint64(4*len(syms)+1024) && diff < 1<<20 {
		span := int(diff) + 1
		var counts []uint64
		if cap(s.counts) >= span {
			counts = s.counts[:span]
		} else {
			counts = make([]uint64, span)
			s.counts = counts
		}
		if len(syms) >= 4*span && len(syms) >= 2048 && len(syms) < 1<<28 {
			// 4-way striped counting, ported from the byte-section encoder:
			// quantization bins arrive in long runs of the same symbol, and
			// four independent stripes break the same-address
			// increment-to-increment dependency those runs create. The input
			// bound keeps every uint32 stripe overflow-free, and the summed
			// counts are exactly the serial counts, so the built code is
			// byte-identical. Gated on len >= 4*span so clearing and summing
			// the stripes stays amortized.
			var c4 []uint32
			if cap(s.counts4) >= 4*span {
				c4 = s.counts4[:4*span]
				clear(c4)
			} else {
				c4 = make([]uint32, 4*span)
				s.counts4 = c4
			}
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
		alph, wts := s.syms[:0], s.weights[:0]
		for i, c := range counts {
			if c != 0 {
				alph = append(alph, lo+i)
				wts = append(wts, c)
			}
		}
		s.syms, s.weights = alph, wts
		return buildSortedSc(alph, wts, s)
	}
	if s.freq == nil {
		s.freq = make(map[int]uint64, 64)
	} else {
		clear(s.freq)
	}
	for _, sym := range syms {
		s.freq[sym]++
	}
	return Build(s.freq)
}
