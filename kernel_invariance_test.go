package mdz

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"
)

// kernelGolden pins the SHA-256 of compressed output for every method ×
// sequence combination (plus shard fan-out and outlier-heavy input). The
// hashes were captured from the per-value Quantize/interleave encode path
// immediately before the fused block-kernel rewrite; the kernels must keep
// the stream byte-identical. If an intentional format change ever breaks
// these, regenerate with `go test -run TestGenKernelHashes -v` — but note
// byte identity is also what keeps old archives readable, so think twice.
var kernelGolden = map[string]string{
	"VQ/Seq-1":     "b0350469dc3935a1d81a4a6d406702e5e12f58e3a96c046106ffce71a52d2793",
	"VQ/Seq-2":     "b7d64c806d698e14d9dff0cdb4bf6c6bb5c47adea02c79af301cb792e920c701",
	"VQT/Seq-1":    "b333fcef3b12f56b0881ba3f7c364e664e5f1bdbf10001dfac6a800f93a457d0",
	"VQT/Seq-2":    "f6cce154cfca7d1418a833e71319ef30645f9283fe9dc0f91cf30377ca04743f",
	"MT/Seq-1":     "1772fbf67670ec1a3b168f615adb852193a1e374d23f11cf2b56fa0038c79dc9",
	"MT/Seq-2":     "6347859375efaba9fb54fa476fcf24fc4be961d34751a063e69dcb69fc2ec109",
	"ADP/shards=4": "c18871cb17f48a341adac9bcef51d0057c484e4b2b8e403b4c93baf8298e003f",
	"ADP/sampled":  "2833b59f9ee8e80cc39965832b8de7b56fe6409faa6f87d6c8ce1e627fd5bf69",
	"MT/outliers":  "4b26293f10e7838ba545f8743602ad5c8e008dc150d98c9ff1ac28fcddb5d36d",
	"VQ/outliers":  "d084c53f0477c263bbce720c487696d294a9380871e46b71c70948c9538d014d",
}

func kernelCases() map[string][]byte {
	frames := makeFrames(6, 512, 3)
	out := map[string][]byte{}
	for _, m := range []Method{VQ, VQT, MT} {
		for _, s := range []Sequence{Seq1, Seq2} {
			c, err := NewCompressor(Config{ErrorBound: 1e-3, Method: m, Sequence: s, Shards: 1})
			if err != nil {
				panic(err)
			}
			blk, err := c.CompressBatch(frames)
			if err != nil {
				panic(err)
			}
			out[fmt.Sprintf("%v/%v", m, s)] = blk
		}
	}
	// Shard fan-out under ADP (both sequences' default) exercises every
	// method the adaptive selector picks plus the shard framing.
	c, err := NewCompressor(Config{ErrorBound: 1e-3, Shards: 4})
	if err != nil {
		panic(err)
	}
	blk, err := c.CompressBatch(frames)
	if err != nil {
		panic(err)
	}
	out["ADP/shards=4"] = blk
	// A multi-batch stream whose ADP rounds run on a one-shard sample, then
	// re-encode the whole batch with the winner.
	out["ADP/sampled"] = sampledADPStream(frames)
	// Outlier-heavy input: NaNs and huge jumps force the out-of-scope path
	// (Reserved codes + exact storage) through the kernels' fix-up pass.
	spiky := makeFrames(4, 256, 8)
	for t := range spiky {
		for i := 0; i < 256; i += 17 {
			spiky[t].Y[i] = math.NaN()
		}
		for i := 5; i < 256; i += 29 {
			spiky[t].Y[i] = 1e18
		}
	}
	for _, m := range []Method{MT, VQ} {
		c, err := NewCompressor(Config{ErrorBound: 1e-3, Method: m, Shards: 2})
		if err != nil {
			panic(err)
		}
		blk, err := c.CompressBatch(spiky)
		if err != nil {
			panic(err)
		}
		out[fmt.Sprintf("%v/outliers", m)] = blk
	}
	return out
}

// sampledADPStream writes frames as a stream of two-snapshot batches with
// ADP re-evaluated every other batch on a one-shard sample.
func sampledADPStream(frames []Frame) []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{
		ErrorBound: 1e-3, Shards: 4, ADPSampleShards: 1, AdaptInterval: 2, BufferSize: 2,
	})
	if err != nil {
		panic(err)
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			panic(err)
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestKernelByteInvariance asserts the fused predict+quantize kernels and
// table-driven entropy stage produce byte-identical compressed streams to
// the historical per-value path, for all three methods, both sequences,
// sharded ADP and outlier-heavy data.
func TestKernelByteInvariance(t *testing.T) {
	cases := kernelCases()
	if len(cases) != len(kernelGolden) {
		t.Fatalf("have %d cases, %d golden hashes", len(cases), len(kernelGolden))
	}
	for name, blk := range cases {
		sum := sha256.Sum256(blk)
		got := hex.EncodeToString(sum[:])
		want, ok := kernelGolden[name]
		if !ok {
			t.Errorf("%s: no golden hash (got %s)", name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: compressed bytes changed: sha256 %s, want %s", name, got, want)
		}
	}
}

// TestGenKernelHashes logs the current hashes in kernelGolden's literal
// format (run with -v) for regenerating the table after a deliberate
// format change.
func TestGenKernelHashes(t *testing.T) {
	cases := kernelCases()
	names := make([]string, 0, len(cases))
	for n := range cases {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sum := sha256.Sum256(cases[n])
		t.Logf("%q: %q,", n, hex.EncodeToString(sum[:]))
	}
}
