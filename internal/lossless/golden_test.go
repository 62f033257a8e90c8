package lossless

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// losslessGolden pins, per Table V compressor with its own entropy stage,
// the SHA-256 of its compressed bytes and of what it decodes them to, over
// every golden input: LZ over the byte inputs and the float inputs' raw
// bytes, FPC, fpzip and ZFP over the float inputs (decoded as float bits).
// LZ, fpzip and ZFP Huffman-code through internal/huffman, so these hashes
// also pin that codec's byte sections. After a deliberate format change,
// regenerate with `go test -run TestGenLosslessHashes -v`.
var losslessGolden = map[string][2]string{
	"fpc":    {"e18bbc504770fe12d37c801f06d5a2cd414c137e3bddaef1090adfc6d934b439", "0f0826b44e113d2d05c09a758caed5a9a5a3eba2f19f841f30368d9d22f0b046"},
	"fpzip*": {"1b3037aab729815f9e5bf42dcb67e0da4af1b6c0ab47cfec98417e95fb3b0979", "0f0826b44e113d2d05c09a758caed5a9a5a3eba2f19f841f30368d9d22f0b046"},
	"lz":     {"65173015f441774a15aba54c356fb5c4c72b8a8f35ac9eb33cfef22176eee153", "1d5ee5fb4a87087bfded1b6aa9b3c88a128c80bc91dfa4af00c61f0997f9f27b"},
	"zfp*":   {"c4f370d5710b1aa20e94274fb29ce9827ada1d8285695c8acdc1fcc7cdb2d86a", "0f0826b44e113d2d05c09a758caed5a9a5a3eba2f19f841f30368d9d22f0b046"},
}

// goldenFloatInputs covers the shapes the float coders branch on: smooth
// MD-like walks, a lattice with hops, wide random spreads, lengths that
// leave a partial ZFP block, constants, and the special values (NaN, ±Inf,
// ±0, subnormals, mixed exponents) that force ZFP's verbatim fallback.
func goldenFloatInputs() [][]float64 {
	rng := rand.New(rand.NewSource(23))
	lattice := make([]float64, 4096)
	level := 0
	for i := range lattice {
		if rng.Float64() < 0.02 {
			level += rng.Intn(3) - 1
		}
		lattice[i] = 2*float64(level) + rng.NormFloat64()*0.03
	}
	spread := make([]float64, 3001)
	for i := range spread {
		spread[i] = rng.NormFloat64() * 1e3
	}
	special := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -2.2e-308, 1e300, -1e-300, 1, 1e-20, 3.5, 7, 1 << 60, 0.1,
	}
	for i := 0; i < 200; i++ {
		special = append(special, math.Ldexp(rng.Float64(), rng.Intn(2000)-1000))
	}
	constant := make([]float64, 777)
	for i := range constant {
		constant[i] = 1.5
	}
	return [][]float64{
		nil,
		{1},
		{1, 2, 3},
		mdLikeFloats(5000, 5),
		mdLikeFloats(1023, 6),
		lattice,
		spread,
		special,
		constant,
	}
}

// goldenByteInputs are LZ's own inputs beside the float bytes: the
// pipeline-like Huffman output, skewed and random bytes, and repeats.
func goldenByteInputs() [][]byte {
	rng := rand.New(rand.NewSource(29))
	random := make([]byte, 4096)
	rng.Read(random)
	skewed := make([]byte, 20000)
	for i := range skewed {
		if rng.Float64() < 0.8 {
			skewed[i] = 0
		} else {
			skewed[i] = byte(rng.Intn(16))
		}
	}
	return [][]byte{
		{},
		{9},
		huffLikeBytes(1<<15, 3),
		random,
		skewed,
		bytes.Repeat([]byte("molecular dynamics "), 500),
		bytes.Repeat([]byte{0x55}, 10000),
	}
}

// writeFloatBits feeds vals' IEEE-754 bits to h.
func writeFloatBits(h hash.Hash, vals []float64) {
	var word [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
}

// losslessHashes compresses and decompresses every golden input and
// returns each compressor's (compressed, decoded) hash pair.
func losslessHashes(t *testing.T) map[string][2]string {
	t.Helper()
	out := map[string][2]string{}
	lz := LZ{}
	comp, dec := sha256.New(), sha256.New()
	for i, in := range goldenByteInputs() {
		c, err := lz.Compress(in)
		if err != nil {
			t.Fatalf("lz bytes %d: compress: %v", i, err)
		}
		d, err := lz.Decompress(c)
		if err != nil {
			t.Fatalf("lz bytes %d: decompress: %v", i, err)
		}
		fmt.Fprintf(comp, "b%d:%d:", i, len(c))
		comp.Write(c)
		fmt.Fprintf(dec, "b%d:%d:", i, len(d))
		dec.Write(d)
	}
	for i, in := range goldenFloatInputs() {
		c, err := lz.Compress(FloatsToBytes(in))
		if err != nil {
			t.Fatalf("lz floats %d: compress: %v", i, err)
		}
		d, err := lz.Decompress(c)
		if err != nil {
			t.Fatalf("lz floats %d: decompress: %v", i, err)
		}
		fmt.Fprintf(comp, "f%d:%d:", i, len(c))
		comp.Write(c)
		fmt.Fprintf(dec, "f%d:%d:", i, len(d))
		dec.Write(d)
	}
	out[lz.Name()] = [2]string{hex.EncodeToString(comp.Sum(nil)), hex.EncodeToString(dec.Sum(nil))}

	for _, fc := range []FloatCompressor{FPC{}, FPZip{}, ZFP{}} {
		comp, dec := sha256.New(), sha256.New()
		for i, in := range goldenFloatInputs() {
			c, err := fc.CompressFloats(in)
			if err != nil {
				t.Fatalf("%s input %d: compress: %v", fc.Name(), i, err)
			}
			d, err := fc.DecompressFloats(c)
			if err != nil {
				t.Fatalf("%s input %d: decompress: %v", fc.Name(), i, err)
			}
			fmt.Fprintf(comp, "%d:%d:", i, len(c))
			comp.Write(c)
			fmt.Fprintf(dec, "%d:%d:", i, len(d))
			writeFloatBits(dec, d)
		}
		out[fc.Name()] = [2]string{hex.EncodeToString(comp.Sum(nil)), hex.EncodeToString(dec.Sum(nil))}
	}
	return out
}

// TestLosslessByteInvariance asserts LZ, FPC, fpzip and ZFP still write the
// same bytes and decode them to the same values.
func TestLosslessByteInvariance(t *testing.T) {
	got := losslessHashes(t)
	if len(got) != len(losslessGolden) {
		t.Fatalf("have %d compressors, %d golden entries", len(got), len(losslessGolden))
	}
	for name, h := range got {
		want, ok := losslessGolden[name]
		if !ok {
			t.Errorf("%s: no golden entry (got %q)", name, h)
			continue
		}
		if h[0] != want[0] {
			t.Errorf("%s: compressed bytes changed: sha256 %s, want %s", name, h[0], want[0])
		}
		if h[1] != want[1] {
			t.Errorf("%s: decoded values changed: sha256 %s, want %s", name, h[1], want[1])
		}
	}
}

// TestGenLosslessHashes logs the current hashes in losslessGolden's
// literal format (run with -v).
func TestGenLosslessHashes(t *testing.T) {
	got := losslessHashes(t)
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.Logf("%q: {%q, %q},", n, got[n][0], got[n][1])
	}
}
