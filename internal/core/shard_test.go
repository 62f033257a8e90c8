package core

import (
	"bytes"
	"testing"

	"github.com/mdz/mdz/internal/pool"
)

func TestDefaultShardsProperties(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {16383, 1}, {16384, 1}, {32768, 2},
		{16384 * 64, 64}, {16384 * 200, 64}, {1 << 30, 64},
	}
	for _, c := range cases {
		if got := DefaultShards(c.n); got != c.want {
			t.Errorf("DefaultShards(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestShardBoundsProperties(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 16384, 99991} {
		for _, k := range []int{1, 2, 3, 7, 64} {
			if k > n {
				continue
			}
			b := shardBounds(n, k)
			if len(b) != k+1 || b[0] != 0 || b[k] != n {
				t.Fatalf("shardBounds(%d,%d) = %v", n, k, b)
			}
			for s := 0; s < k; s++ {
				sz := b[s+1] - b[s]
				if sz < n/k || sz > n/k+1 {
					t.Fatalf("shardBounds(%d,%d): shard %d size %d not near-equal", n, k, s, sz)
				}
			}
		}
	}
}

// TestShardedRoundTripAllMethods exercises format-version-2 blocks directly
// at the core layer: every method, several shard counts, parallel and
// serial pools, across two batches (so MT's snapshot-0 reference and the
// VQ level-model reuse both cross a batch boundary).
func TestShardedRoundTripAllMethods(t *testing.T) {
	const eb = 1e-2
	batches := [][][]float64{crystalBatch(6, 400, 9), crystalBatch(6, 400, 10)}
	liquid := [][][]float64{liquidBatch(6, 400, 9), liquidBatch(6, 400, 10)}
	for _, m := range []Method{VQ, VQT, MT, ADP} {
		data := batches
		if m == MT {
			data = liquid
		}
		for _, shards := range []int{1, 2, 3, 7, 400} {
			for _, workers := range []int{1, 4} {
				pl := pool.New(workers)
				enc, err := NewEncoder(Params{ErrorBound: eb, Method: m, Shards: shards, Pool: pl})
				if err != nil {
					t.Fatal(err)
				}
				dec := NewDecoder(Params{Pool: pl})
				for bi, batch := range data {
					blk, err := enc.EncodeBatch(batch)
					if err != nil {
						t.Fatalf("%v shards=%d workers=%d batch %d: %v", m, shards, workers, bi, err)
					}
					wantVer := byte(formatVer2)
					if shards == 1 {
						wantVer = formatVer1
					}
					if blk[4] != wantVer {
						t.Fatalf("%v shards=%d: version %d, want %d", m, shards, blk[4], wantVer)
					}
					got, err := dec.DecodeBatch(blk)
					if err != nil {
						t.Fatalf("%v shards=%d workers=%d batch %d: decode: %v", m, shards, workers, bi, err)
					}
					if worst := maxAbsErr(batch, got); worst > eb {
						t.Fatalf("%v shards=%d workers=%d batch %d: error %v > %v", m, shards, workers, bi, worst, eb)
					}
				}
			}
		}
	}
}

// TestShardCountClampedToParticles: asking for more shards than particles
// must clamp, not emit empty shards.
func TestShardCountClampedToParticles(t *testing.T) {
	enc, _ := NewEncoder(Params{ErrorBound: 1e-2, Method: VQ, Shards: MaxShards})
	batch := crystalBatch(4, 5, 11)
	blk, err := enc.EncodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewDecoder(Params{}).DecodeBatch(blk)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsErr(batch, got) > 1e-2 {
		t.Fatal("bound violated")
	}
}

// TestShardedCorruptBlocks fuzzes the version-2 header paths: bad shard
// counts, particle sums that disagree with n, and truncated sub-sections
// must all fail cleanly.
func TestShardedCorruptBlocks(t *testing.T) {
	enc, _ := NewEncoder(Params{ErrorBound: 1e-2, Method: VQ, Shards: 3})
	blk, err := enc.EncodeBatch(crystalBatch(4, 90, 17))
	if err != nil {
		t.Fatal(err)
	}
	if blk[4] != formatVer2 {
		t.Fatalf("expected a version-2 block, got version %d", blk[4])
	}
	dec := NewDecoder(Params{})
	// Truncations at every length must error, never panic.
	for cut := 1; cut < len(blk); cut += 7 {
		if _, err := dec.DecodeBatch(blk[:len(blk)-cut]); err == nil {
			t.Errorf("truncated to %d bytes: accepted", len(blk)-cut)
		}
	}
	// Single-byte corruptions of the header region must error or round-trip
	// within structure checks — but never panic.
	for off := 4; off < 40 && off < len(blk); off++ {
		mut := bytes.Clone(blk)
		mut[off] ^= 0xFF
		dec := NewDecoder(Params{})
		_, _ = dec.DecodeBatch(mut) // must not panic
	}
}
