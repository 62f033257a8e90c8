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
// kernels must keep the stream byte-identical. The hashes were last
// regenerated when byte sections gained their raw form; the bytes written
// before that are kept as read fixtures (kernelFixtures), so a format
// change that breaks these hashes must still decode those. Regenerate with
// `go test -run TestGenKernelHashes -v`.
var kernelGolden = map[string]string{
	"VQ/Seq-1":     "640ef80af3647c201bfc6941a8b1ca92362f3e9d3732fdd71796029bb41a3c69",
	"VQ/Seq-2":     "2b0ec6bbfe575d67e10318244a762539ef2811e9776d8e4e8fa41c5ae6c80cb4",
	"VQT/Seq-1":    "29e47df47ea7caf7bbc728ff0165f10ee56f8efe0d4bff60328871fe51666b41",
	"VQT/Seq-2":    "b9976aaad785c5665fb69074e2d1d2fd9ba9f2537162a271f0356e9b194f20cd",
	"MT/Seq-1":     "33b0904a35b88b783654b6d63ad7f0ca1a76546914828fdfeebabed14f16ce4d",
	"MT/Seq-2":     "e77c08b6b275d9cfa0ae12880337d480fedfed9ad6874f9f3ff6bb1fff596a43",
	"ADP/shards=4": "65b88ed3643478de7152131e2551525ae8357ab06dce4dd3a021cc8122aaa953",
	"ADP/sampled":  "b44d4ad91170cbbd838e8e943f5fe5739387f5f12312aa9e3272d69bdacf496a",
	"MT/outliers":  "e8fe32346467df13bcd68541cc3b52c4c1581b20eb3866b88c265a575e62023f",
	"VQ/outliers":  "db65e459dfdd028795fd7061bacdc7ac6a2cce7d2d4ac6b6b327e5e9be49cf87",
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
