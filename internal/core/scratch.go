package core

import (
	"sync"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/huffman"
)

// encodeScratch holds the per-shard working buffers of the encode hot path
// (quantization bins, level deltas, reconstruction row, outlier bytes,
// payload assembly, Huffman scratch). Instances are recycled through a
// sync.Pool so steady-state encoding performs no per-batch slice
// allocations; each concurrent shard task owns one instance for the
// duration of its encode. The fused kernels write codes directly in
// serialized order and chain reconstructions in place, so no interleave
// target or second reconstruction row is needed.
type encodeScratch struct {
	bins, levels      []int
	recon             []float64
	outliers, payload []byte
	huff              huffman.Scratch
}

var encScratchPool = sync.Pool{New: func() any { return new(encodeScratch) }}

// decodeScratch mirrors encodeScratch for the decode path: one shard's
// decoded streams and the pooled Huffman tables and payload reader that
// produced them. Each shard of a block holds its own instance from the
// section decode until its rows are reconstructed. The snapshot rows
// themselves are returned to the caller and therefore always freshly
// allocated.
type decodeScratch struct {
	bins, levels []int
	outliers     []byte // aliases the shard's decompressed payload
	rest         int    // payload bytes after the outlier section
	br           bitstream.ByteReader
	huff         huffman.DecodeScratch
}

var decScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// releaseScratch returns a block's shard scratches to the pool, dropping
// their references to the decompressed payloads.
func releaseScratch(scs []*decodeScratch) {
	for _, sc := range scs {
		if sc != nil {
			sc.outliers = nil
			sc.br.Reset(nil)
			decScratchPool.Put(sc)
		}
	}
}

// intsCap returns s resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func intsCap(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// floatsCap is intsCap for float64 slices.
func floatsCap(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// extendInts grows s by n elements and returns the grown slice plus the new
// tail, whose contents are unspecified (callers overwrite every element).
// Doubling growth keeps pooled buffers from reallocating every row.
func extendInts(s []int, n int) ([]int, []int) {
	l := len(s)
	if cap(s) < l+n {
		c := 2*cap(s) + n
		ns := make([]int, l+n, c)
		copy(ns, s)
		s = ns
	} else {
		s = s[:l+n]
	}
	return s, s[l:]
}
