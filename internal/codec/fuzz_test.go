package codec_test

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/mdz/mdz/internal/asn"
	"github.com/mdz/mdz/internal/codec"
	"github.com/mdz/mdz/internal/lfzip"
	"github.com/mdz/mdz/internal/sz2"
	"github.com/mdz/mdz/internal/sz3"
)

// fuzzBatch builds a bs × n batch from fuzzer bytes. Each value takes one
// control byte: 0xFF is NaN, 0xFE takes the next 8 bytes as raw float64
// bits (non-finite becomes NaN), anything else steps the previous value by
// int8(b)·600·eb, which lands residuals on both sides of the 65536-bin
// quantization scale. Missing bytes repeat the last step.
func fuzzBatch(bs, n int, eb float64, data []byte) [][]float64 {
	batch := make([][]float64, bs)
	prev, pos := 0.0, 0
	b := byte(1)
	for t := range batch {
		snap := make([]float64, n)
		for i := range snap {
			if pos < len(data) {
				b = data[pos]
				pos++
			}
			var v float64
			switch {
			case b == 0xFF:
				v = math.NaN()
			case b == 0xFE && pos+8 <= len(data):
				v = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
				pos += 8
				if math.IsInf(v, 0) {
					v = math.NaN()
				}
			default:
				if math.IsNaN(prev) || math.Abs(prev) > 1e300 {
					prev = 0
				}
				v = prev + float64(int8(b))*600*eb
			}
			snap[i] = v
			prev = v
		}
		batch[t] = snap
	}
	return batch
}

// FuzzSZFamilyErrorBound round-trips fuzzer-built batches through every
// SZ-family baseline (SZ2 1-D/2-D, SZ3i, ASN, LFZip) and checks that NaN
// decodes as NaN and every finite value within the absolute bound. These
// codecs drive one predictor walk in both directions; an encoder and
// decoder that drift apart on some input fail here.
func FuzzSZFamilyErrorBound(f *testing.F) {
	f.Add(uint8(6), uint8(20), uint8(3), []byte{1, 2, 3, 0xFF, 0x80, 0x7F, 5})
	f.Add(uint8(12), uint8(40), uint8(9), []byte{0xFE, 0, 0, 0, 0, 0, 0, 0xF0, 0x7F, 3, 0xFF, 0xFF, 9})
	f.Add(uint8(1), uint8(1), uint8(0), []byte{})
	f.Add(uint8(3), uint8(7), uint8(6), []byte{0xFE, 0, 0, 0, 0, 0, 0, 0xA0, 0x43, 0x81, 0x10, 0xFF, 0xFE, 1, 2, 3, 4, 5, 6, 7, 8})
	codecs := []codec.BatchCodec{
		&sz2.Compressor{Mode: sz2.Mode1D},
		&sz2.Compressor{Mode: sz2.Mode2D},
		&sz3.Compressor{},
		&asn.Compressor{},
		&lfzip.Compressor{},
	}
	f.Fuzz(func(t *testing.T, bsRaw, nRaw, kRaw uint8, data []byte) {
		bs, n := int(bsRaw)%12+1, int(nRaw)%40+1
		eb := math.Pow(10, -float64(kRaw%10))
		batch := fuzzBatch(bs, n, eb, data)
		for _, c := range codecs {
			blk, err := c.CompressSeries(batch, eb)
			if err != nil {
				t.Fatalf("%s: compress: %v", c.Name(), err)
			}
			got, err := c.DecompressSeries(blk)
			if err != nil {
				t.Fatalf("%s: decompress: %v", c.Name(), err)
			}
			if len(got) != bs {
				t.Fatalf("%s: %d snapshots, want %d", c.Name(), len(got), bs)
			}
			for ti, snap := range batch {
				if len(got[ti]) != n {
					t.Fatalf("%s: snapshot %d has %d values, want %d", c.Name(), ti, len(got[ti]), n)
				}
				for i, x := range snap {
					y := got[ti][i]
					if math.IsNaN(x) {
						if !math.IsNaN(y) {
							t.Fatalf("%s: (%d,%d): NaN decoded as %v", c.Name(), ti, i, y)
						}
						continue
					}
					if !(math.Abs(x-y) <= eb) {
						t.Fatalf("%s eb=%g: (%d,%d): |%v - %v| exceeds the bound", c.Name(), eb, ti, i, x, y)
					}
				}
			}
		}
	})
}
