package huffman

import (
	"errors"
	"slices"
	"sync"

	"github.com/mdz/mdz/internal/bitstream"
)

// This file holds the byte-oriented fast paths over the canonical codec:
// EncodeBytes/DecodeBytes produce and consume exactly the same wire bytes as
// Scratch.EncodeInts/DecodeScratch.DecodeIntsTx over the widened []int data,
// but operate on []byte end to end with pooled scratch state, so the
// dictionary-coder hot path (internal/lossless.LZ) never round-trips its
// sections through an 8×-larger integer slice.
//
// Byte-for-byte identity with the generic path is load-bearing (the LZ wire
// format is pinned by golden hashes) and rests on three facts, each checked
// by tests in bytes_test.go and the equivalence fuzzer:
//
//   - tree build: the byte builder's two-queue merge pops nodes in the same
//     strict (weight, order) total order as the generic path's heap, with
//     the same leaf numbering (symbols ascending), so it derives identical
//     code lengths;
//   - canonical assignment: iterating lengths ascending and symbols
//     ascending within a length visits (l, sym) pairs in exactly the order
//     fromLengths sorts them into;
//   - serialization: the table walk emits symbols ascending, matching
//     AppendTable's sort, and payload bits come from the same codes.

// ErrByteRange is returned by the byte-oriented decode paths when a decoded
// symbol falls outside 0..255. It is reported only after the symbol stream
// decodes cleanly, mirroring the historical decode-all-then-narrow
// sequencing (DecodeIntsTx followed by a range-checking []int→[]byte copy).
var ErrByteRange = errors.New("huffman: decoded symbol out of byte range")

// byteEncScratch is the reusable state of one EncodeBytes call. freq4 holds
// four partial histograms summed into freq: striping the counts breaks the
// store-to-load dependency a single table suffers on runs of equal bytes.
type byteEncScratch struct {
	freq   [256]uint64
	freq4  [4][256]uint32
	lens   [256]uint8
	codes  [256]code
	leaves [256]leafNode
	keys   [256]uint64       // packed weight<<8|sym sort keys
	tw     [2*256 - 1]uint64 // tree node weights: sorted leaves, then merges
	par    [2*256 - 1]int32  // tree parent indices (root's is unset)
	table  []byte
	w      bitstream.Writer
}

// leafNode is one pre-merge Huffman leaf in the byte builder.
type leafNode struct {
	w   uint64
	sym int32
}

var byteEncPool = sync.Pool{
	New: func() any { return new(byteEncScratch) },
}

// EncodeBytes encodes data as one Huffman section — table || count ||
// payload appended to dst — producing bytes identical to EncodeInts over the
// same values widened to []int. All working state is pooled; steady state
// allocates only when dst needs to grow.
func EncodeBytes(dst []byte, data []byte) ([]byte, error) {
	s := byteEncPool.Get().(*byteEncScratch)
	defer byteEncPool.Put(s)

	nsym := s.histogram(data)
	if err := s.buildCodes(nsym); err != nil {
		return nil, err
	}
	s.appendCodeTable(nsym)

	// Payload: pack codes through a local 64-bit accumulator so the Writer
	// is called once per ~64 bits instead of once per symbol. MSB-first
	// concatenation makes the flushed words bit-identical to per-code writes.
	s.w.Reset()
	var acc uint64
	var na uint
	for _, b := range data {
		c := s.codes[b]
		if na+uint(c.n) > 64 {
			s.w.WriteBits(acc, na)
			acc, na = 0, 0
		}
		acc = acc<<c.n | c.bits
		na += uint(c.n)
	}
	if na > 0 {
		s.w.WriteBits(acc, na)
	}

	dst = bitstream.AppendSection(dst, s.table)
	dst = bitstream.AppendUvarint(dst, uint64(len(data)))
	dst = bitstream.AppendSection(dst, s.w.Bytes())
	return dst, nil
}

// histogram fills s.freq with data's byte frequencies and returns the number
// of distinct symbols. freq4 holds four partial histograms summed into freq:
// striping the counts breaks the store-to-load dependency a single table
// suffers on runs of equal bytes.
func (s *byteEncScratch) histogram(data []byte) int {
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
	nsym := 0
	for _, f := range s.freq {
		if f != 0 {
			nsym++
		}
	}
	return nsym
}

// appendCodeTable serializes the built code into s.table: uvarint symbol
// count, then (zigzag symbol delta, length byte) pairs in ascending symbol
// order — AppendTable's exact layout.
func (s *byteEncScratch) appendCodeTable(nsym int) {
	table := bitstream.AppendUvarint(s.table[:0], uint64(nsym))
	prev := int64(0)
	for sym := 0; sym < 256; sym++ {
		if s.lens[sym] == 0 {
			continue
		}
		table = bitstream.AppendVarint(table, int64(sym)-prev)
		prev = int64(sym)
		table = append(table, s.lens[sym])
	}
	s.table = table
}

// buildCodes derives canonical code lengths and codes for the nsym symbols
// with nonzero frequency in s.freq, into s.lens and s.codes.
func (s *byteEncScratch) buildCodes(nsym int) error {
	clear(s.lens[:])
	switch nsym {
	case 0:
		return nil
	case 1:
		// Degenerate alphabet: one-bit code, matching buildSorted.
		for sym, f := range s.freq {
			if f != 0 {
				s.lens[sym] = 1
				s.codes[sym] = code{bits: 0, n: 1}
				return nil
			}
		}
	}
	// Two-queue Huffman merge, pop-for-pop identical to buildSorted's heap:
	// that heap removes the global minimum of the live node multiset under
	// the strict (weight, order) total order, and here the live multiset is
	// always the union of two queues each already sorted by that order —
	// the leaves sorted below (leaves enumerate symbols ascending, so the
	// symbol tie-break equals the order tie-break), and the merged nodes in
	// creation order (merge weights are non-decreasing, creation orders
	// increasing). Taking the smaller head, leaf on ties (every leaf order
	// precedes every merge order), therefore pops the same node sequence
	// and yields the same depths, without any sift work.
	lq := s.leaves[:0]
	big := false
	for sym, f := range s.freq {
		if f != 0 {
			if f >= 1<<56 {
				big = true
			}
			lq = append(lq, leafNode{w: f, sym: int32(sym)})
		}
	}
	if big {
		// Weights this large (>= 2^56 occurrences) cannot share a packed
		// key with the symbol byte; sort the structs directly.
		slices.SortFunc(lq, func(a, b leafNode) int {
			if a.w != b.w {
				if a.w < b.w {
					return -1
				}
				return 1
			}
			return int(a.sym) - int(b.sym)
		})
	} else {
		// weight<<8|sym orders exactly like (weight, sym) and sorts as bare
		// uint64s, avoiding the comparison closure.
		keys := s.keys[:len(lq)]
		for i, lf := range lq {
			keys[i] = lf.w<<8 | uint64(lf.sym)
		}
		slices.Sort(keys)
		for i, k := range keys {
			lq[i] = leafNode{w: k >> 8, sym: int32(k & 0xff)}
		}
	}
	n := nsym
	tw, par := &s.tw, &s.par
	for i, lf := range lq {
		tw[i] = lf.w
	}
	li, ii := 0, n
	for next := n; next < 2*n-1; next++ {
		var a, b int
		if li < n && (ii >= next || tw[li] <= tw[ii]) {
			a, li = li, li+1
		} else {
			a, ii = ii, ii+1
		}
		if li < n && (ii >= next || tw[li] <= tw[ii]) {
			b, li = li, li+1
		} else {
			b, ii = ii, ii+1
		}
		tw[next] = tw[a] + tw[b]
		par[a], par[b] = int32(next), int32(next)
	}
	// Leaf depth via parent walk replaces assignDepths' recursion; the same
	// clamps apply (unreachable for byte alphabets, kept for fidelity).
	root := int32(2*n - 2)
	for i := 0; i < n; i++ {
		depth := 0
		for j := int32(i); j != root; j = par[j] {
			depth++
		}
		l := depth
		if l > MaxCodeLen {
			l = MaxCodeLen
		} else if l == 0 {
			l = 1
		}
		s.lens[lq[i].sym] = uint8(l)
	}
	// Canonical assignment: lengths ascending, symbols ascending within a
	// length — the exact (l, sym) order fromLengths sorts into — done
	// counting-style (first code per length, one ascending-symbol pass)
	// instead of one 256-symbol sweep per distinct length.
	var cnt [MaxCodeLen + 1]uint32
	for _, l := range s.lens {
		cnt[l]++ // cnt[0] counts absent symbols and is never read
	}
	var next [MaxCodeLen + 1]uint64
	for l := 2; l <= MaxCodeLen; l++ {
		next[l] = (next[l-1] + uint64(cnt[l-1])) << 1
	}
	for l := 1; l <= MaxCodeLen; l++ {
		if cnt[l] != 0 && next[l]+uint64(cnt[l]) > 1<<uint(l) {
			return ErrCorrupt // over-subscribed code space
		}
	}
	for sym, l := range s.lens {
		if l == 0 {
			continue
		}
		s.codes[sym] = code{bits: next[l], n: l}
		next[l]++
	}
	return nil
}

// DecodeScratch holds the reusable state of section decoding, int and byte:
// a pooled Decoder whose tables rebuild in place, plus parse and reader
// scratch. A DecodeScratch must not be used concurrently, and a Decoder
// obtained through it is only valid until the scratch's next use. The zero
// value is ready to use.
type DecodeScratch struct {
	dec     Decoder
	lengths map[int]uint8
	list    []symLen
	sorted  []symLen
	ext     []uint8
	r       bitstream.Reader
	br      bitstream.ByteReader
}

// ReadTable parses a serialized code table (AppendTable's layout) and
// returns a Decoder backed by the scratch's reusable tables.
//
// Tables our encoders write list symbols strictly ascending, so the common
// path skips the symbol→length map entirely: parsed pairs go through a
// stable counting sort by code length, which lands them in exactly the
// (length, symbol) order the map path sorts into. Non-ascending tables
// (only reachable from corrupt or adversarial streams) fall back to the
// map to keep its last-entry-wins semantics.
func (s *DecodeScratch) ReadTable(br *bitstream.ByteReader) (*Decoder, error) {
	n, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<24 {
		return nil, ErrCorrupt
	}
	list := s.list[:0]
	prev := int64(0)
	ascending := true
	for i := uint64(0); i < n; i++ {
		d, err := br.ReadVarint()
		if err != nil {
			return nil, err
		}
		if d <= 0 && i > 0 {
			ascending = false
		}
		prev += d
		l, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if l == 0 || l > MaxCodeLen {
			return nil, ErrCorrupt
		}
		list = append(list, symLen{int(prev), l})
	}
	s.list = list
	if !ascending {
		if s.lengths == nil {
			s.lengths = make(map[int]uint8, 64)
		} else {
			clear(s.lengths)
		}
		for _, it := range list {
			s.lengths[it.sym] = it.l
		}
		if err := s.dec.init(s.lengths, s); err != nil {
			return nil, err
		}
		return &s.dec, nil
	}
	// Stable counting sort by length; symbols stay ascending within each
	// length, so the result is the canonical (length, symbol) order.
	var pos [MaxCodeLen + 1]int32
	for _, it := range list {
		pos[it.l]++
	}
	off := int32(0)
	for l := 1; l <= MaxCodeLen; l++ {
		c := pos[l]
		pos[l] = off
		off += c
	}
	sorted := s.sorted
	if cap(sorted) < len(list) {
		sorted = make([]symLen, len(list))
		s.sorted = sorted
	} else {
		sorted = sorted[:len(list)]
	}
	for _, it := range list {
		sorted[pos[it.l]] = it
		pos[it.l]++
	}
	if err := s.dec.initSorted(sorted, s); err != nil {
		return nil, err
	}
	return &s.dec, nil
}

// DecodeBytes inverts EncodeBytes, consuming one section from br into buf
// (reused when it has capacity). It accepts exactly the streams for which
// DecodeIntsTx succeeds with all symbols in 0..255, and fails with the same
// error sequencing: stream/table errors surface first, and ErrByteRange is
// returned only when the symbol stream itself decoded cleanly.
func (s *DecodeScratch) DecodeBytes(br *bitstream.ByteReader, buf []byte) ([]byte, error) {
	return s.DecodeBytesTx(br, buf, nil)
}

// DecodeAllBytesBuf reads exactly n symbols as bytes, reusing buf when it
// has capacity. It is DecodeAllBuf with a byte destination: symbols outside
// 0..255 poison the result, and the poisoning ErrByteRange is reported only
// after all n symbols decode — so stream errors (ErrShortStream/ErrCorrupt)
// take precedence exactly as in the historical decode-then-narrow path.
func (d *Decoder) DecodeAllBytesBuf(r *bitstream.Reader, n int, buf []byte) ([]byte, error) {
	var out []byte
	if cap(buf) >= n {
		out = buf[:n]
	} else {
		out = make([]byte, n)
	}
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

// DecodeBytes is the convenience form of DecodeScratch.DecodeBytes with
// fresh state.
func DecodeBytes(br *bitstream.ByteReader) ([]byte, error) {
	var s DecodeScratch
	return s.DecodeBytes(br, nil)
}
