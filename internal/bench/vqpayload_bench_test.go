package bench

import (
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/core"
	"github.com/mdz/mdz/internal/kmeans"
	"github.com/mdz/mdz/internal/lossless"
)

// vqPayloads runs the Copper-B analog through the VQ pipeline (the entropy
// benchmark's configuration) and returns every lossless-stage input
// payload, so LZ can be re-benchmarked on the exact bytes the VQ pipeline
// produces rather than on synthetic data.
func vqPayloads(tb testing.TB) [][]byte {
	d, err := load("Copper-B", Config{Scale: 1.0, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	var payloads [][]byte
	var encs [3]*core.Encoder
	for axis := 0; axis < 3; axis++ {
		enc, err := core.NewEncoder(core.Params{
			ErrorBound: 1e-4,
			Method:     core.VQ,
			Shards:     1,
			KMeans:     kmeans.Options{Seed: int64(axis) + 1},
		})
		if err != nil {
			tb.Fatal(err)
		}
		encs[axis] = enc
	}
	for lo := 0; lo < len(d.Frames); lo += 10 {
		var axes [3][][]float64
		for _, f := range d.Frames[lo:min(lo+10, len(d.Frames))] {
			axes[0] = append(axes[0], f.X)
			axes[1] = append(axes[1], f.Y)
			axes[2] = append(axes[2], f.Z)
		}
		for axis, enc := range encs {
			blk, err := enc.EncodeBatch(axes[axis])
			if err != nil {
				tb.Fatalf("axis %d: %v", axis, err)
			}
			payloads = append(payloads, lzPayload(tb, blk))
		}
	}
	return payloads
}

// lzPayload returns the lossless-stage input of a single-shard (version 1)
// block: its one section, LZ-decompressed.
func lzPayload(tb testing.TB, blk []byte) []byte {
	br := bitstream.NewByteReader(blk)
	// Magic, version, method, sequence, first predictor and error bound,
	// then the quantization scale, snapshot and particle counts, then the
	// level distance and origin.
	head, err := br.ReadBytes(16)
	if err != nil || string(head[:4]) != "MDZB" || head[4] != 1 {
		tb.Fatalf("not a version-1 block: %v", err)
	}
	for i := 0; i < 3 && err == nil; i++ {
		_, err = br.ReadUvarint()
	}
	if err == nil {
		_, err = br.ReadBytes(16)
	}
	var sec, payload []byte
	if err == nil {
		sec, err = br.ReadSection()
	}
	if err == nil {
		payload, err = lossless.LZ{}.Decompress(sec)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

func BenchmarkLZCompressVQPayload(b *testing.B) {
	payloads := vqPayloads(b)
	var total int64
	for _, p := range payloads {
		total += int64(len(p))
	}
	b.Logf("%d payloads, %d bytes total", len(payloads), total)
	z := lossless.LZ{}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	var dst []byte
	for i := 0; i < b.N; i++ {
		for _, p := range payloads {
			var err error
			dst, err = z.AppendCompress(dst[:0], p)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkLZDecompressVQPayload(b *testing.B) {
	payloads := vqPayloads(b)
	z := lossless.LZ{}
	var comp [][]byte
	var total int64
	for _, p := range payloads {
		c, err := z.Compress(p)
		if err != nil {
			b.Fatal(err)
		}
		comp = append(comp, c)
		total += int64(len(p))
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	var dst []byte
	for i := 0; i < b.N; i++ {
		for _, c := range comp {
			var err error
			dst, err = z.AppendDecompress(dst[:0], c)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
