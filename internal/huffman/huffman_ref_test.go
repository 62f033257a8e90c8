package huffman

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
)

// This file keeps the historical heap-based tree builder and map-based
// canonical assignment as a reference oracle: the production builder
// (Scratch.build: the two-queue merge, then Encoder.assign) must produce the
// exact same canonical code (and therefore the same serialized table and the
// same payload bits) for every (symbol, weight) input. The heap pops nodes by
// (weight, order) with leaves ordered 0..n-1 by ascending symbol and merges
// numbered in creation order — the tie-break contract the two-queue argument
// relies on.

type refNode struct {
	weight      uint64
	symbol      int
	left, right *refNode
	order       int
}

type refHeap []*refNode

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].order < h[j].order
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refNode)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func refAssignDepths(n *refNode, depth uint8, out map[int]uint8) {
	if n.left == nil && n.right == nil {
		out[n.symbol] = depth
		return
	}
	refAssignDepths(n.left, depth+1, out)
	refAssignDepths(n.right, depth+1, out)
}

// refBuildSorted is the historical buildSorted, verbatim modulo the renamed
// node types: slab-allocated heap merge, recursive depth assignment, clamped
// lengths handed to fromLengths.
func refBuildSorted(syms []int, weights []uint64) (*Encoder, error) {
	if len(syms) == 0 {
		return &Encoder{}, nil
	}
	if len(syms) == 1 {
		return fromLengths(map[int]uint8{syms[0]: 1})
	}
	slab := make([]refNode, 2*len(syms)-1)
	h := make(refHeap, 0, len(syms))
	order := 0
	for i, s := range syms {
		node := &slab[order]
		*node = refNode{weight: weights[i], symbol: s, order: order}
		h = append(h, node)
		order++
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*refNode)
		b := heap.Pop(&h).(*refNode)
		node := &slab[order]
		*node = refNode{weight: a.weight + b.weight, left: a, right: b, order: order}
		heap.Push(&h, node)
		order++
	}
	root := h[0]
	lengths := map[int]uint8{}
	refAssignDepths(root, 0, lengths)
	for s, l := range lengths {
		if l > MaxCodeLen {
			lengths[s] = MaxCodeLen
		} else if l == 0 {
			lengths[s] = 1
		}
		_ = s
	}
	return fromLengths(lengths)
}

// fromLengths is the historical canonical assignment from code lengths:
// symbols sorted by (length, symbol) receive consecutive codes. The Encoder
// it returns has no dense table, so it encodes through the binary search.
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
	codes := make(map[int]code, len(list))
	var next uint64
	var prevLen uint8
	for _, it := range list {
		next <<= (it.l - prevLen)
		prevLen = it.l
		if it.l < 64 && next >= (1<<it.l) {
			return nil, ErrCorrupt // over-subscribed code space
		}
		codes[it.sym] = code{bits: next, n: it.l}
		next++
	}
	e := &Encoder{}
	for _, s := range alphabetOf(lengths) {
		e.symbols = append(e.symbols, s)
		e.codes = append(e.codes, codes[s])
	}
	return e, nil
}

// compareBuilders asserts the production builder and the heap oracle agree on
// the serialized table and on the encoded payload for the given alphabet.
func compareBuilders(t *testing.T, syms []int, weights []uint64, payload []int) {
	t.Helper()
	var sc Scratch
	got, err := sc.build(syms, weights)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	want, err := refBuildSorted(syms, weights)
	if err != nil {
		t.Fatalf("refBuildSorted: %v", err)
	}
	gt := got.AppendTable(nil)
	wt := want.AppendTable(nil)
	if !bytes.Equal(gt, wt) {
		t.Fatalf("tables differ: got %x want %x (syms=%v weights=%v)", gt, wt, syms, weights)
	}
	var gw, ww bitstream.Writer
	if err := got.EncodeAll(&gw, payload); err != nil {
		t.Fatalf("EncodeAll (two-queue): %v", err)
	}
	if err := want.EncodeAll(&ww, payload); err != nil {
		t.Fatalf("EncodeAll (heap): %v", err)
	}
	if !bytes.Equal(gw.Bytes(), ww.Bytes()) {
		t.Fatalf("payloads differ (syms=%v weights=%v)", syms, weights)
	}
}

func TestBuilderEquivalenceEdges(t *testing.T) {
	compareBuilders(t, []int{7}, []uint64{3}, []int{7, 7, 7})
	compareBuilders(t, []int{-4, 9}, []uint64{1, 1}, []int{9, -4, 9})
	// All-equal weights: every merge is a tie; the leaf-first rule decides.
	syms := make([]int, 257)
	wts := make([]uint64, 257)
	for i := range syms {
		syms[i] = i - 128
		wts[i] = 5
	}
	compareBuilders(t, syms, wts, syms)
	// Exponential weights: maximally skewed tree.
	for i := range wts {
		wts[i] = 1 << uint(i%50)
	}
	compareBuilders(t, syms, wts, syms)
	// Sparse alphabet past the dense-table gate.
	compareBuilders(t, []int{-1 << 40, 0, 1 << 40}, []uint64{2, 9, 4},
		[]int{0, -1 << 40, 1 << 40, 0})
	// Weights past the packed-sort-key range force the stable-sort fallback.
	compareBuilders(t, []int{1, 2, 3, 4}, []uint64{1 << 50, 1 << 50, 1, 1 << 50},
		[]int{1, 2, 3, 4})
}

func TestBuilderEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(400)
		symSet := map[int]bool{}
		for len(symSet) < n {
			symSet[rng.Intn(4000)-2000] = true
		}
		syms := make([]int, 0, n)
		for s := range symSet {
			syms = append(syms, s)
		}
		// ascending, as the builder contract requires
		for i := 1; i < len(syms); i++ {
			for j := i; j > 0 && syms[j] < syms[j-1]; j-- {
				syms[j], syms[j-1] = syms[j-1], syms[j]
			}
		}
		wts := make([]uint64, n)
		for i := range wts {
			// mix flat, skewed, and tie-heavy weight shapes
			switch trial % 3 {
			case 0:
				wts[i] = uint64(1 + rng.Intn(10))
			case 1:
				wts[i] = uint64(1 + rng.Intn(1<<16))
			default:
				wts[i] = 1 + uint64(rng.Int63())>>20
			}
		}
		payload := make([]int, 512)
		for i := range payload {
			payload[i] = syms[rng.Intn(n)]
		}
		compareBuilders(t, syms, wts, payload)
	}
}

// TestScratchBuilderReuse runs differently-shaped builds through one Scratch
// to verify pooled buffers never leak state between builds.
func TestScratchBuilderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var sc Scratch
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		syms := make([]int, n)
		next := rng.Intn(100) - 50
		for i := range syms {
			syms[i] = next
			next += 1 + rng.Intn(3)
		}
		wts := make([]uint64, n)
		for i := range wts {
			wts[i] = uint64(1 + rng.Intn(1000))
		}
		got, err := sc.build(syms, wts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refBuildSorted(syms, wts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.AppendTable(nil), want.AppendTable(nil)) {
			t.Fatalf("trial %d: scratch reuse diverged", trial)
		}
	}
}
