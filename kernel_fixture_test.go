package mdz

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// kernelFixtures pins read compatibility: testdata/kernel holds the bytes
// kernelCases wrote before byte sections gained their raw form (every
// section Huffman-coded), each with the SHA-256 of the float64 bits it
// decoded to when it was written. These files are never regenerated: they
// stand for archives already on disk.
var kernelFixtures = map[string]string{
	"ADP/sampled":  "620e2c197f222119af7f26060c1d62d4026b7a1ed8aca56bf8bba9fa9a0c7e25",
	"ADP/shards=4": "393346ec0c16cd0ed9f12943f63130798931ddc769b99726df49a8a727f87d35",
	"MT/Seq-1":     "271a788de110c773c35e9b0c807a5ade4c6fba1479c1b79d3aa4afdf3962236b",
	"MT/Seq-2":     "271a788de110c773c35e9b0c807a5ade4c6fba1479c1b79d3aa4afdf3962236b",
	"MT/outliers":  "a60b09661e7d36be64d4180361ddbabc3d87d96fdc38d734a8a572a9e5c46444",
	"VQ/Seq-1":     "1722166a15d67ee0c1796714455399b754dd2fa4917be9f339e897234de776c3",
	"VQ/Seq-2":     "1722166a15d67ee0c1796714455399b754dd2fa4917be9f339e897234de776c3",
	"VQ/outliers":  "91c6f4e99ac6d4f14682e74946801a0df3bd3d8f7746fdc454ef38ebfc5e9184",
	"VQT/Seq-1":    "393346ec0c16cd0ed9f12943f63130798931ddc769b99726df49a8a727f87d35",
	"VQT/Seq-2":    "393346ec0c16cd0ed9f12943f63130798931ddc769b99726df49a8a727f87d35",
}

// kernelFixturePath names a case's fixture file.
func kernelFixturePath(name string) string {
	return filepath.Join("testdata", "kernel", strings.NewReplacer("/", "_", "=", "").Replace(name)+".bin")
}

// decodeKernelCase decodes one kernelCases output: the sampled-ADP case is
// a v2 stream, every other case a single block.
func decodeKernelCase(name string, blk []byte) ([]Frame, error) {
	if name == "ADP/sampled" {
		return NewReader(bytes.NewReader(blk)).ReadAll()
	}
	return NewDecompressor().DecompressBatch(blk)
}

// frameValueHash hashes the float64 bits of frames, frame by frame, X then
// Y then Z.
func frameValueHash(frames []Frame) string {
	h := sha256.New()
	var word [8]byte
	for _, f := range frames {
		for _, axis := range [][]float64{f.X, f.Y, f.Z} {
			for _, v := range axis {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelFixturesStillDecode decodes every pinned fixture with the
// current code: each must give its recorded values, bit for bit, and the
// same values as the current encoder's write of the same case.
func TestKernelFixturesStillDecode(t *testing.T) {
	cases := kernelCases()
	if len(cases) != len(kernelFixtures) {
		t.Fatalf("have %d cases, %d fixtures", len(cases), len(kernelFixtures))
	}
	for name, want := range kernelFixtures {
		old, err := os.ReadFile(kernelFixturePath(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := decodeKernelCase(name, old)
		if err != nil {
			t.Errorf("%s: fixture rejected: %v", name, err)
			continue
		}
		if h := frameValueHash(got); h != want {
			t.Errorf("%s: fixture decodes to sha256 %s, want %s", name, h, want)
		}
		fresh, err := decodeKernelCase(name, cases[name])
		if err != nil {
			t.Errorf("%s: current write rejected: %v", name, err)
			continue
		}
		if h := frameValueHash(fresh); h != want {
			t.Errorf("%s: current write decodes to sha256 %s, want %s", name, h, want)
		}
	}
}
