package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
	"github.com/mdz/mdz/internal/huffman"
	"github.com/mdz/mdz/internal/lossless"
	"github.com/mdz/mdz/internal/predictor"
	"github.com/mdz/mdz/internal/quant"
)

// refDequantizeBlock is the dequantize kernel before inline outlier
// restore: it counts Reserved codes and leaves their slots for the
// caller's fix-up scan. q.Dequantize is the kernel's expression,
// pred + (code-mid)·2eb, so values are bit-identical.
func refDequantizeBlock(q *quant.Quantizer, codes []int, base, stride int, preds, out []float64) int {
	nRes := 0
	ci := base
	for i := range out {
		if c := codes[ci]; c == quant.Reserved {
			nRes++
		} else {
			out[i] = q.Dequantize(c, preds[i])
		}
		ci += stride
	}
	return nRes
}

// refDequantizeBlockVQ is refDequantizeBlock with the level-centroid
// predictor.
func refDequantizeBlockVQ(q *quant.Quantizer, codes []int, base, stride int, levels []int, lam, mu float64, out []float64) int {
	nRes := 0
	ci := base
	prevLevel := int64(0)
	for i := range out {
		lvl := prevLevel + int64(levels[i])
		prevLevel = lvl
		if c := codes[ci]; c == quant.Reserved {
			nRes++
		} else {
			out[i] = q.Dequantize(c, predictor.Centroid(lvl, lam, mu))
		}
		ci += stride
	}
	return nRes
}

// refDecoder is the block decoder before inline outlier restore, kept as
// the reference: the kernels above, each followed by a scan of the row that
// restores its outliers in traversal order. It shares the header parser
// and the entropy stage with the production decoder.
type refDecoder struct {
	d   *Decoder
	ref []float64
}

func (rd *refDecoder) decode(blk []byte) ([][]float64, error) {
	h, err := parseHeader(blk)
	if err != nil {
		return nil, err
	}
	q, err := quant.New(h.eb, h.scale)
	if err != nil {
		return nil, ErrCorrupt
	}
	if h.method == MT && h.firstPred == firstRef && len(rd.ref) != h.n {
		return nil, ErrOrder
	}
	out := make([][]float64, h.bs)
	for t := range out {
		out[t] = make([]float64, h.n)
	}
	offs := shardOffsets(h.shards)
	for s, sh := range h.shards {
		var sc decodeScratch
		if err := rd.d.sections(&sc, sh.body, h.bs*sh.particles, nil); err != nil {
			return nil, err
		}
		if err := rd.decodeShard(q, h, &sc, offs[s], sh.particles, out); err != nil {
			return nil, err
		}
	}
	if rd.ref == nil {
		rd.ref = append([]float64(nil), out[0]...)
	}
	return out, nil
}

func (rd *refDecoder) decodeShard(q *quant.Quantizer, h *header, sc *decodeScratch, lo, sn int, out [][]float64) error {
	bs := h.bs
	bins, levels, outliers := sc.bins, sc.levels, sc.outliers
	stride, rowStep := 1, sn
	if h.seq == Seq2 {
		stride, rowStep = bs, 1
	}
	opos := 0
	levelPos := 0
	for t := 0; t < bs; t++ {
		base := t * rowStep
		snap := out[t][lo : lo+sn]
		nRes := 0
		vqSnapshot := h.method == VQ || (h.method == VQT && t == 0) ||
			(h.method == MT && t == 0 && h.firstPred == firstVQ)
		switch {
		case vqSnapshot:
			if len(levels)-levelPos < sn {
				return ErrCorrupt
			}
			lvlRow := levels[levelPos : levelPos+sn]
			levelPos += sn
			nRes = refDequantizeBlockVQ(q, bins, base, stride, lvlRow, h.lam, h.mu, snap)
		case t == 0 && h.method == MT && h.firstPred == firstLorenzo:
			prev := 0.0
			ci := base
			for i := 0; i < sn; i++ {
				if bins[ci] == quant.Reserved {
					v, nb, err := quant.ReadBounded(outliers[opos:], h.eb)
					if err != nil {
						return ErrCorrupt
					}
					opos += nb
					snap[i] = v
				} else {
					snap[i] = q.Dequantize(bins[ci], prev)
				}
				prev = snap[i]
				ci += stride
			}
		case t == 0 && h.method == MT && h.firstPred == firstRef:
			nRes = refDequantizeBlock(q, bins, base, stride, rd.ref[lo:lo+sn], snap)
		default:
			nRes = refDequantizeBlock(q, bins, base, stride, out[t-1][lo:lo+sn], snap)
		}
		if nRes > 0 {
			ci := base
			for i := 0; i < sn; i++ {
				if bins[ci] == quant.Reserved {
					v, nb, err := quant.ReadBounded(outliers[opos:], h.eb)
					if err != nil {
						return ErrCorrupt
					}
					opos += nb
					snap[i] = v
				}
				ci += stride
			}
		}
	}
	return nil
}

// outlierBatch is smooth data with a dense sprinkling of jumps far outside
// the quantization scale, plus the non-finite values whose outlier records
// carry raw bits.
func outlierBatch(bs, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]float64, n)
	for i := range pos {
		pos[i] = rng.Float64() * 20
	}
	out := make([][]float64, bs)
	for t := range out {
		snap := make([]float64, n)
		for i := range snap {
			pos[i] += rng.NormFloat64() * 0.01
			snap[i] = pos[i]
			switch r := rng.Float64(); {
			case r < 0.25:
				snap[i] += rng.NormFloat64() * 1e6
			case r < 0.26:
				snap[i] = [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
			}
		}
		out[t] = snap
	}
	return out
}

// refCase is one encoder configuration of the reference comparison, with
// relabel set for VQT blocks re-tagged as MT: an MT block whose first row
// is VQ-coded, which the decoder accepts though the encoder never writes it.
type refCase struct {
	m       Method
	seq     Sequence
	shards  int
	relabel bool
}

func (c refCase) String() string {
	name := fmt.Sprintf("%v/%v/shards=%d", c.m, c.seq, c.shards)
	if c.relabel {
		name += "/as-MT"
	}
	return name
}

func refCases() []refCase {
	var cases []refCase
	for _, m := range []Method{VQ, VQT, MT} {
		for _, seq := range []Sequence{Seq1, Seq2} {
			for _, shards := range []int{1, 3} {
				cases = append(cases, refCase{m: m, seq: seq, shards: shards})
				if m == VQT {
					cases = append(cases, refCase{m: m, seq: seq, shards: shards, relabel: true})
				}
			}
		}
	}
	return cases
}

// encodeCase encodes three outlier-heavy batches under c: for MT the first
// block's first row is Lorenzo-coded and the later ones are coded against
// the reference snapshot.
func encodeCase(t *testing.T, c refCase) [][]byte {
	t.Helper()
	enc, err := NewEncoder(Params{ErrorBound: 1e-3, Method: c.m, Sequence: c.seq, Shards: c.shards})
	if err != nil {
		t.Fatal(err)
	}
	data := outlierBatch(15, 300, int64(c.m)*10+int64(c.seq))
	var blks [][]byte
	for b := 0; b < 3; b++ {
		blk, err := enc.EncodeBatch(data[5*b : 5*b+5])
		if err != nil {
			t.Fatal(err)
		}
		if c.relabel {
			blk[5] = byte(MT)
		}
		blks = append(blks, blk)
	}
	return blks
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDecodeMatchesReference pins the inline-restore kernels to the
// reference decoder bit for bit, on every method, sequence, first-row
// predictor and shard count, and checks that a truncated outlier section
// fails as ErrCorrupt from every kernel.
func TestDecodeMatchesReference(t *testing.T) {
	for _, c := range refCases() {
		t.Run(c.String(), func(t *testing.T) {
			blks := encodeCase(t, c)
			dec := NewDecoder(Params{})
			ref := &refDecoder{d: NewDecoder(Params{})}
			for b, blk := range blks {
				got, err := dec.DecodeBatch(blk)
				if err != nil {
					t.Fatalf("block %d: %v", b, err)
				}
				want, err := ref.decode(blk)
				if err != nil {
					t.Fatalf("block %d: reference: %v", b, err)
				}
				for s := range want {
					if !sameBits(got[s], want[s]) {
						t.Fatalf("block %d snapshot %d differs from the reference", b, s)
					}
				}
			}
			// Truncated outlier sections, run out of in the first row (the
			// Lorenzo, reference or VQ kernel) and in the last row (the
			// time or VQ kernel). The production decoder has decoded every
			// block, so MT's reference snapshot is in place.
			for b, blk := range blks {
				for _, keep := range []func(int) int{
					func(int) int { return 0 },
					func(int) int { return 1 },
					func(n int) int { return n - 1 },
				} {
					bad := rebuildBlock(t, blk, func(s int, p shardPayload) shardPayload {
						p.outliers = p.outliers[:keep(len(p.outliers))]
						return p
					})
					if _, err := dec.DecodeBatch(bad); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("block %d, truncated outliers: err %v, want ErrCorrupt", b, err)
					}
				}
			}
		})
	}
}

// shardPayload is one shard's decompressed payload split at its section
// boundaries: the two Huffman sections as serialized, the outlier bytes,
// and whatever follows them.
type shardPayload struct {
	bins, levels, outliers, rest []byte
}

// rebuildBlock decompresses every shard of blk, lets edit rewrite its
// payload, and reassembles the block with the header fields unchanged.
// With an identity edit the result is blk itself.
func rebuildBlock(t *testing.T, blk []byte, edit func(shard int, p shardPayload) shardPayload) []byte {
	t.Helper()
	h, err := parseHeader(blk)
	if err != nil {
		t.Fatal(err)
	}
	ver := byte(formatVer1)
	if len(h.shards) > 1 {
		ver = formatVer2
	}
	out := append([]byte(blockMagic), ver, byte(h.method), byte(h.seq), h.firstPred)
	if blk[5] != byte(h.method) {
		t.Fatal("method byte moved")
	}
	out = bitstream.AppendFloat64(out, h.eb)
	out = bitstream.AppendUvarint(out, uint64(h.scale))
	out = bitstream.AppendUvarint(out, uint64(h.bs))
	out = bitstream.AppendUvarint(out, uint64(h.n))
	out = bitstream.AppendFloat64(out, h.lam)
	out = bitstream.AppendFloat64(out, h.mu)
	if ver == formatVer2 {
		out = bitstream.AppendUvarint(out, uint64(len(h.shards)))
	}
	for s, sh := range h.shards {
		payload, err := lossless.LZ{}.Decompress(sh.body)
		if err != nil {
			t.Fatal(err)
		}
		br := bitstream.NewByteReader(payload)
		skipInts := func() int {
			if _, err := br.ReadSection(); err != nil {
				t.Fatal(err)
			}
			if _, err := br.ReadUvarint(); err != nil {
				t.Fatal(err)
			}
			if _, err := br.ReadSection(); err != nil {
				t.Fatal(err)
			}
			return len(payload) - br.Len()
		}
		binsEnd := skipInts()
		levelsEnd := skipInts()
		outliers, err := br.ReadSection()
		if err != nil {
			t.Fatal(err)
		}
		p := edit(s, shardPayload{
			bins:     payload[:binsEnd],
			levels:   payload[binsEnd:levelsEnd],
			outliers: outliers,
			rest:     payload[len(payload)-br.Len():],
		})
		np := append(append([]byte(nil), p.bins...), p.levels...)
		np = bitstream.AppendSection(np, p.outliers)
		np = append(np, p.rest...)
		body, err := lossless.LZ{}.Compress(np)
		if err != nil {
			t.Fatal(err)
		}
		if ver == formatVer1 {
			out = bitstream.AppendSection(out, body)
		} else {
			out = bitstream.AppendShardSection(out, sh.particles, body)
		}
	}
	return out
}

// TestShardLeftoverBytesCorrupt: a shard whose payload holds bytes no row
// reads — after the outlier section, inside it, or as an extra level delta
// — is corrupt, although every row could be reconstructed.
func TestShardLeftoverBytesCorrupt(t *testing.T) {
	for _, shards := range []int{1, 3} {
		enc, err := NewEncoder(Params{ErrorBound: 1e-3, Method: VQT, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		blk, err := enc.EncodeBatch(outlierBatch(5, 120, 3))
		if err != nil {
			t.Fatal(err)
		}
		same := rebuildBlock(t, blk, func(_ int, p shardPayload) shardPayload { return p })
		if !bytes.Equal(same, blk) {
			t.Fatal("identity rebuild changed the block")
		}
		if _, err := NewDecoder(Params{}).DecodeBatch(same); err != nil {
			t.Fatalf("identity rebuild: %v", err)
		}
		edits := map[string]func(int, shardPayload) shardPayload{
			"byte after the outlier section": func(s int, p shardPayload) shardPayload {
				if s == shards-1 {
					p.rest = append(p.rest, 0)
				}
				return p
			},
			"unread raw outlier record": func(s int, p shardPayload) shardPayload {
				if s == 0 {
					p.outliers, _ = quant.AppendBounded(append([]byte(nil), p.outliers...), math.NaN(), 1e-3)
				}
				return p
			},
			"extra level delta": func(s int, p shardPayload) shardPayload {
				if s == 0 {
					levels, err := new(huffman.DecodeScratch).DecodeIntsTx(bitstream.NewByteReader(p.levels), nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					if p.levels, err = new(huffman.Scratch).EncodeInts(nil, append(levels, 0)); err != nil {
						t.Fatal(err)
					}
				}
				return p
			},
		}
		for name, edit := range edits {
			bad := rebuildBlock(t, blk, edit)
			if _, err := NewDecoder(Params{}).DecodeBatch(bad); !errors.Is(err, ErrCorrupt) {
				t.Errorf("shards=%d, %s: err %v, want ErrCorrupt", shards, name, err)
			}
		}
	}
}

// forgedBlock is a block header claiming bs×n values over the given shard
// bodies: version 1 for one body, version 2 (shards of n/len(bodies)
// particles) for several.
func forgedBlock(m Method, bs, n int, bodies ...[]byte) []byte {
	ver := byte(formatVer1)
	if len(bodies) > 1 {
		ver = formatVer2
	}
	blk := append([]byte(blockMagic), ver, byte(m), byte(Seq2), firstVQ)
	blk = bitstream.AppendFloat64(blk, 1e-3)
	blk = bitstream.AppendUvarint(blk, quant.DefaultScale)
	blk = bitstream.AppendUvarint(blk, uint64(bs))
	blk = bitstream.AppendUvarint(blk, uint64(n))
	blk = bitstream.AppendFloat64(blk, 1)
	blk = bitstream.AppendFloat64(blk, 0)
	if ver == formatVer1 {
		return bitstream.AppendSection(blk, bodies[0])
	}
	blk = bitstream.AppendUvarint(blk, uint64(len(bodies)))
	for _, b := range bodies {
		blk = bitstream.AppendShardSection(blk, n/len(bodies), b)
	}
	return blk
}

// TestForgedGeometryNoAlloc: a header claiming 2^24 values over shard
// bodies that cannot back them fails as ErrCorrupt, in both block versions,
// before the output is allocated — with no budget, and under a budget
// smaller than the claim.
func TestForgedGeometryNoAlloc(t *testing.T) {
	small, err := mustEncoder(t, VQ).EncodeBatch(crystalBatch(4, 30, 5))
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseHeader(small)
	if err != nil {
		t.Fatal(err)
	}
	realBody := h.shards[0].body // a valid payload of 120 values
	tiny := []byte{0x10, 0, 0, 0}
	const bs, n = 16, 1 << 20
	blocks := map[string][]byte{
		"v1 tiny body":   forgedBlock(VQ, bs, n, tiny),
		"v1 real body":   forgedBlock(VQ, bs, n, realBody),
		"v2 tiny bodies": forgedBlock(VQ, bs, n, tiny, tiny),
		"v2 real bodies": forgedBlock(VQ, bs, n, realBody, realBody),
	}
	for name, blk := range blocks {
		for _, b := range []*budget.Budget{nil, budget.New(1 << 20)} {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			_, err = NewDecoder(Params{Budget: b}).DecodeBatch(blk)
			runtime.ReadMemStats(&ms)
			if !errors.Is(err, ErrCorrupt) || errors.Is(err, budget.ErrExceeded) {
				t.Errorf("%s (budget %v): err %v, want ErrCorrupt", name, b != nil, err)
			}
			if alloc := ms.TotalAlloc - before; alloc >= 1<<20 {
				t.Errorf("%s (budget %v): allocated %d bytes", name, b != nil, alloc)
			}
		}
	}
}

func mustEncoder(t *testing.T, m Method) *Encoder {
	t.Helper()
	enc, err := NewEncoder(Params{ErrorBound: 1e-3, Method: m})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestForgedEmptyRowsNoAlloc: a valid block of zero-particle rows, re-headed
// to claim 2^26 of them, is refused by the decode budget before its row
// headers are allocated, while the valid block still decodes.
func TestForgedEmptyRowsNoAlloc(t *testing.T) {
	valid, err := mustEncoder(t, VQ).EncodeBatch(make([][]float64, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out, err := NewDecoder(Params{}).DecodeBatch(valid); err != nil || len(out) != 3 {
		t.Fatalf("valid zero-particle block: %d rows, err %v", len(out), err)
	}
	h, err := parseHeader(valid)
	if err != nil {
		t.Fatal(err)
	}
	forged := forgedBlock(VQ, 1<<26, 0, h.shards[0].body)
	dec := NewDecoder(Params{Budget: budget.New(1 << 20)})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, err = dec.DecodeBatch(forged)
	runtime.ReadMemStats(&ms)
	if !errors.Is(err, budget.ErrExceeded) {
		t.Errorf("forged empty rows: err %v, want budget.ErrExceeded", err)
	}
	if alloc := ms.TotalAlloc - before; alloc >= 16<<20 {
		t.Errorf("forged empty rows: allocated %d bytes", alloc)
	}
}
