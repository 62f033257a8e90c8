package lossless

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
	"github.com/mdz/mdz/internal/huffman"
)

// LZ is a from-scratch LZ77 dictionary coder with canonical-Huffman entropy
// coding, serving as the module's Zstd stand-in: it fills the same
// "dictionary coding after Huffman" role in the SZ pipeline (paper Fig 2 and
// Fig 6) and the Zstd row of Table V.
//
// Format: magic-free; uvarint original size, then two byte sections
// (huffman.EncodeBytes) — literal bytes, and a varint-packed sequence
// stream of (literalRun, matchLen, distance) triples. As in Zstd, a section
// that Huffman coding would not shrink is stored raw, so the output exceeds
// the input by at most a few bytes of framing.
//
// All working state — match-finder tables, section buffers, Huffman scratch
// — is sync.Pool-backed, so steady-state Compress/Decompress cost no
// allocations beyond the returned buffer (and none at all through the
// Append* variants with a reused destination). The match decisions are
// those of the historical allocating implementation: the same candidates
// are visited in the same order with the same tie-breaks, which the
// differential fuzzer in lz_ref_test.go pins against the kept original.
type LZ struct{}

const (
	lzMinMatch = 4
	lzWindow   = 1 << 20
	lzHashBits = 16
	lzHashSize = 1 << lzHashBits
	// lzMaxChain bounds the hash-chain walk of match finding.
	lzMaxChain = 32
)

// Name implements Backend.
func (LZ) Name() string { return "lz" }

func lzHash(v uint32) uint32 {
	// 4-byte FNV-style multiplicative hash over the little-endian word.
	return (v * 2654435761) >> (32 - lzHashBits)
}

// lzEncState is the pooled per-call state of Compress. head and prev store
// positions +1 so the zero value means "empty" and reuse needs only a
// memclr of head (prev entries are written before they are reachable
// through a chain, so prev is never cleared).
type lzEncState struct {
	head     []int32
	prev     []int32
	literals []byte
	seq      []byte
}

var lzEncPool = sync.Pool{
	New: func() any { return &lzEncState{head: make([]int32, lzHashSize)} },
}

// Compress implements Backend.
func (z LZ) Compress(src []byte) ([]byte, error) {
	return z.AppendCompress(nil, src)
}

// AppendCompress appends the compressed form of src to dst and returns the
// extended slice. With a reused dst of sufficient capacity the steady-state
// allocation count is zero.
func (z LZ) AppendCompress(dst, src []byte) ([]byte, error) {
	st := lzEncPool.Get().(*lzEncState)
	defer lzEncPool.Put(st)
	literals := st.literals[:0]
	seq := st.seq[:0]
	if len(src) >= lzMinMatch {
		head := st.head
		clear(head)
		prev := st.prev
		if cap(prev) < len(src) {
			prev = make([]int32, len(src))
			st.prev = prev
		} else {
			prev = prev[:len(src)]
		}
		litStart := 0
		i := 0
		for i+lzMinMatch <= len(src) {
			cur := binary.LittleEndian.Uint32(src[i:])
			h := lzHash(cur)
			bestLen, bestDist := 0, 0
			// Chains run new-to-old, so the first candidate past the window
			// ends the walk; folding that bound into the loop condition
			// (empty slots decode to -1, below any valid bound) saves a
			// branch per candidate.
			lo := i - lzWindow
			if lo < 0 {
				lo = 0
			}
			// tail4 caches the four bytes of src[i:] ending at offset
			// bestLen; a candidate that beats bestLen must reproduce them,
			// so one word compare filters the chain before the full
			// extension walk. Refreshed only when bestLen grows.
			var tail4 uint32
			cand := int(head[h]) - 1
			for depth := 0; cand >= lo && depth < lzMaxChain; depth++ {
				// Early rejects that cannot change the emitted triple: a
				// candidate whose first four bytes differ cannot reach
				// lzMinMatch (and sub-minimum lengths never decide the
				// result — the first candidate to attain the maximum wins
				// either way), and once a best exists, a longer match must
				// agree with src[i:] on the word ending at offset bestLen.
				if binary.LittleEndian.Uint32(src[cand:]) == cur &&
					(bestLen == 0 || (i+bestLen < len(src) &&
						binary.LittleEndian.Uint32(src[cand+bestLen-3:]) == tail4)) {
					l := matchLen(src, cand, i)
					if l > bestLen {
						bestLen, bestDist = l, i-cand
						if i+bestLen >= len(src) {
							break // provably maximal: no candidate can beat it
						}
						tail4 = binary.LittleEndian.Uint32(src[i+bestLen-3:])
					}
				}
				cand = int(prev[cand]) - 1
			}
			if bestLen >= lzMinMatch {
				litRun := i - litStart
				literals = append(literals, src[litStart:i]...)
				seq = bitstream.AppendUvarint(seq, uint64(litRun))
				seq = bitstream.AppendUvarint(seq, uint64(bestLen))
				seq = bitstream.AppendUvarint(seq, uint64(bestDist))
				// Insert hash entries for the matched region (sparsely for
				// long matches to bound cost).
				end := i + bestLen
				step := 1
				if bestLen > 64 {
					step = 4
				}
				stop := end
				if m := len(src) - lzMinMatch + 1; stop > m {
					stop = m
				}
				for ; i < stop; i += step {
					hh := lzHash(binary.LittleEndian.Uint32(src[i:]))
					prev[i] = head[hh]
					head[hh] = int32(i) + 1
				}
				i = end
				litStart = i
			} else {
				prev[i] = head[h]
				head[h] = int32(i) + 1
				i++
			}
		}
		// Trailing literals.
		if litStart < len(src) {
			run := len(src) - litStart
			literals = append(literals, src[litStart:]...)
			seq = bitstream.AppendUvarint(seq, uint64(run))
			seq = bitstream.AppendUvarint(seq, 0)
			seq = bitstream.AppendUvarint(seq, 0)
		}
	} else if len(src) > 0 {
		literals = append(literals, src...)
		seq = bitstream.AppendUvarint(seq, uint64(len(src)))
		seq = bitstream.AppendUvarint(seq, 0)
		seq = bitstream.AppendUvarint(seq, 0)
	}
	st.literals, st.seq = literals, seq

	// Reserve the output in one step: a byte section takes at most its
	// bytes plus 21 bytes of framing (the raw form's empty table, count
	// and length), so this hint covers every case and replaces a chain of
	// doubling re-copies.
	if hint := binary.MaxVarintLen64 + len(literals) + len(seq) + 2*21; cap(dst)-len(dst) < hint {
		grown := make([]byte, len(dst), len(dst)+hint)
		copy(grown, dst)
		dst = grown
	}
	out := bitstream.AppendUvarint(dst, uint64(len(src)))
	var err error
	out, err = huffman.EncodeBytes(out, literals)
	if err != nil {
		return nil, err
	}
	out, err = huffman.EncodeBytes(out, seq)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// matchLen reports how far the suffixes at a and b (a < b) match, extending
// eight bytes per step; the result is identical to the historical byte loop.
func matchLen(src []byte, a, b int) int {
	n := 0
	for b+n+8 <= len(src) {
		x := binary.LittleEndian.Uint64(src[a+n:]) ^ binary.LittleEndian.Uint64(src[b+n:])
		if x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for b+n < len(src) && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// lzDecState is the pooled per-call state of Decompress.
type lzDecState struct {
	hs       huffman.DecodeScratch
	br       bitstream.ByteReader
	literals []byte
	seq      []byte
}

var lzDecPool = sync.Pool{New: func() any { return new(lzDecState) }}

// Decompress implements Backend.
func (z LZ) Decompress(src []byte) ([]byte, error) {
	return z.AppendDecompress(nil, src)
}

// DecompressTx is Decompress with the stream's declared original size and
// its literal/sequence section lengths charged against tx before being
// allocated for. A nil tx charges nothing.
func (z LZ) DecompressTx(src []byte, tx *budget.Tx) ([]byte, error) {
	return z.appendDecompressTx(nil, src, tx)
}

// AppendDecompress appends the decompressed form of src to dst and returns
// the extended slice. With a reused dst of sufficient capacity the
// steady-state allocation count is zero.
func (z LZ) AppendDecompress(dst, src []byte) ([]byte, error) {
	return z.appendDecompressTx(dst, src, nil)
}

func (z LZ) appendDecompressTx(dst, src []byte, tx *budget.Tx) ([]byte, error) {
	st := lzDecPool.Get().(*lzDecState)
	defer lzDecPool.Put(st)
	br := &st.br
	br.Reset(src)
	origSize, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if origSize > 1<<34 {
		return nil, ErrCorrupt
	}
	// Charge the declared output size before reserving space for it; the
	// section decoders below charge their own declared lengths via tx.
	if err := tx.Reserve(int64(origSize)); err != nil {
		return nil, err
	}
	literals, err := st.hs.DecodeBytesTx(br, st.literals[:0], tx)
	if err != nil {
		if errors.Is(err, huffman.ErrByteRange) {
			err = ErrCorrupt
		}
		return nil, err
	}
	st.literals = literals
	seq, err := st.hs.DecodeBytesTx(br, st.seq[:0], tx)
	if err != nil {
		if errors.Is(err, huffman.ErrByteRange) {
			err = ErrCorrupt
		}
		return nil, err
	}
	st.seq = seq

	// Trust origSize only as an upper bound enforced below, not as a blind
	// allocation hint: for plausible expansion ratios reserve the declared
	// size up front (killing the append-regrowth re-copies large blocks used
	// to pay), but cap what a forged header can make us allocate before any
	// payload has justified it.
	base := len(dst)
	capHint := origSize
	if limit := uint64(1<<20) + 32*uint64(len(src)); capHint > limit {
		capHint = limit
	}
	out := dst
	if free := uint64(cap(out) - len(out)); free < capHint {
		grown := make([]byte, len(out), uint64(len(out))+capHint)
		copy(grown, out)
		out = grown
	}
	litPos := 0
	pos := 0
	for pos < len(seq) {
		litRun, k := binary.Uvarint(seq[pos:])
		if k <= 0 {
			return nil, bitstream.ErrShortStream
		}
		pos += k
		mLen, k := binary.Uvarint(seq[pos:])
		if k <= 0 {
			return nil, bitstream.ErrShortStream
		}
		pos += k
		dist, k := binary.Uvarint(seq[pos:])
		if k <= 0 {
			return nil, bitstream.ErrShortStream
		}
		pos += k
		// Reject runs past the declared size before any int conversion: a
		// crafted >=2^63 litRun/mLen pair could overflow the additive guard
		// below (the historical decoder reached a slice-bounds panic on such
		// streams; every non-panicking outcome was ErrCorrupt, which this
		// guard preserves).
		if litRun > origSize || mLen > origSize {
			return nil, ErrCorrupt
		}
		if litPos+int(litRun) > len(literals) {
			return nil, ErrCorrupt
		}
		if uint64(len(out)-base)+litRun+mLen > origSize {
			return nil, ErrCorrupt
		}
		out = append(out, literals[litPos:litPos+int(litRun)]...)
		litPos += int(litRun)
		if mLen > 0 {
			d := int(dist)
			if d <= 0 || d > len(out)-base {
				return nil, ErrCorrupt
			}
			out = appendMatch(out, d, int(mLen))
		}
	}
	if uint64(len(out)-base) != origSize {
		return nil, ErrCorrupt
	}
	return out, nil
}

// appendMatch appends m bytes copied from distance d back in out.
// Non-overlapping matches (d >= m) are a single copy; overlapping ones —
// where the historical loop appended one byte at a time — extend the
// periodic run by doubling chunks, so an m-byte match costs O(log(m/d))
// copies instead of m appends.
func appendMatch(out []byte, d, m int) []byte {
	n := len(out)
	start := n - d
	if d >= m {
		return append(out, out[start:start+m]...)
	}
	end := n + m
	for len(out) < end {
		// out[start:] is periodic with period d, so copying any run of q
		// bytes (q a multiple of d) from the tail stays aligned with the
		// pattern; q grows with the written run, doubling each iteration.
		q := len(out) - start
		q -= q % d
		chunk := q
		if chunk > end-len(out) {
			chunk = end - len(out)
		}
		out = append(out, out[len(out)-q:len(out)-q+chunk]...)
	}
	return out
}
