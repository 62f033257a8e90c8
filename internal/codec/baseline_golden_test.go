package codec_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/mdz/mdz/internal/asn"
	"github.com/mdz/mdz/internal/codec"
	"github.com/mdz/mdz/internal/codec/codectest"
	"github.com/mdz/mdz/internal/hrtc"
	"github.com/mdz/mdz/internal/lfzip"
	"github.com/mdz/mdz/internal/mdb"
	"github.com/mdz/mdz/internal/sz2"
	"github.com/mdz/mdz/internal/sz3"
	"github.com/mdz/mdz/internal/tng"
)

// baselineGolden pins, per baseline, the SHA-256 of its compressed blocks
// and of the bits of its decoded values over every golden case: the four
// codectest regimes at three bounds, plus (for the SZ family, whose
// outliers take the exact-storage path) an input spiked with NaN and 1e18.
// Byte identity is what keeps blocks written by an older build decodable,
// and the decoded bits pin the reconstruction itself. After a deliberate
// format change, regenerate with `go test -run TestGenBaselineHashes -v`.
var baselineGolden = map[string][2]string{
	"ASN":    {"131f263da1840735c71cc5645501be7a24b56a34979db50fc2862891e8362ccf", "506a7f37f674212d32728b221e4fd91e834b9d10193cacc896d5935add41a088"},
	"HRTC":   {"36059ac7cb9a8547489372bec3c456dfa3a586e7d371be119c97c3e8bd3319b0", "c975291ed478eb2f3db58a388d26b685b0e85f3d134bad2efb860e4355086209"},
	"LFZip":  {"d0696741ab7f387dd287a17f0717558ba70d4827585e4c8c65f0f09fd119daba", "36cdf0c8e87a156fe7973cccece81571c50a6b74420c9bc690d8325e02007e42"},
	"MDB":    {"b09f477cef849fba27a0d79dec0ed555e1c315bbef686993c5590f6b4176d793", "1797f634271dc819a3d9cadee07b82207e158a753a6b3c175ccfae02449d8145"},
	"SZ2-1D": {"e004b2c6651988c7b9de0c0503ab4f8724e0e8c970be8227acc5aafa5f950b84", "81c523951565fda58e6255d407fea7ef4cb50b83c12f5d74ec1d77faeeab24d1"},
	"SZ2-2D": {"f8225bbd0ef5d7c2f170ac09b24a55546ab0a75cd355c0f21360f79edd3b728d", "34edd61cb709da7200164c652848644493d6cd4d4de8100a7d6c753074dab460"},
	"SZ3i":   {"3afd5dea26fdaa2559de53c1f919912af90c87f52111debac07443b2614fab0e", "4cdad257438786471e273a03d1253c163d732cbaaa6a47dad2855200a42291e3"},
	"TNG":    {"f3a4a4ce4c7ab5a4c22ac0685c4c547f64972a86cbad31fcdd2daeff31871635", "3f833e2921fce2f5425c725487a054b99f425c4abf1f6a7cbcf861138b60cbf7"},
}

// goldenCodecs lists the baselines under test; sz marks the SZ family.
func goldenCodecs() []struct {
	c  codec.BatchCodec
	sz bool
} {
	return []struct {
		c  codec.BatchCodec
		sz bool
	}{
		{&sz2.Compressor{Mode: sz2.Mode1D}, true},
		{&sz2.Compressor{Mode: sz2.Mode2D}, true},
		{&sz3.Compressor{}, true},
		{&asn.Compressor{}, true},
		{&lfzip.Compressor{}, true},
		{&tng.Compressor{}, false},
		{&hrtc.Compressor{}, false},
		{&mdb.Compressor{}, false},
	}
}

// spikyBatch is a smooth 12 × 150 batch with every 17th value NaN and
// every 29th value 1e18, forcing the SZ family's out-of-scope path.
func spikyBatch() [][]float64 {
	batch := make([][]float64, 12)
	for t := range batch {
		snap := make([]float64, 150)
		for i := range snap {
			snap[i] = 3*math.Sin(0.1*float64(i)) + 0.01*float64(t*i%7)
		}
		for i := t % 5; i < len(snap); i += 17 {
			snap[i] = math.NaN()
		}
		for i := 5 + t%3; i < len(snap); i += 29 {
			snap[i] = 1e18
		}
		batch[t] = snap
	}
	return batch
}

// baselineHashes compresses and decompresses every golden case and returns
// each codec's (block, decoded-bits) hash pair.
func baselineHashes(t *testing.T) map[string][2]string {
	t.Helper()
	regimes := codectest.Regimes(12, 150, 99)
	names := make([]string, 0, len(regimes))
	for name := range regimes {
		names = append(names, name)
	}
	sort.Strings(names)
	ebs := []float64{1e-1, 1e-3, 1e-6}
	out := map[string][2]string{}
	for _, gc := range goldenCodecs() {
		inputs := names
		if gc.sz {
			inputs = append(append([]string(nil), names...), "spiky")
		}
		blocks, values := sha256.New(), sha256.New()
		for _, name := range inputs {
			batch := regimes[name]
			if name == "spiky" {
				batch = spikyBatch()
			}
			for _, eb := range ebs {
				blk, err := gc.c.CompressSeries(batch, eb)
				if err != nil {
					t.Fatalf("%s/%s eb=%g: compress: %v", gc.c.Name(), name, eb, err)
				}
				got, err := gc.c.DecompressSeries(blk)
				if err != nil {
					t.Fatalf("%s/%s eb=%g: decompress: %v", gc.c.Name(), name, eb, err)
				}
				fmt.Fprintf(blocks, "%s/%g:%d:", name, eb, len(blk))
				blocks.Write(blk)
				var word [8]byte
				for _, row := range got {
					for _, v := range row {
						binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
						values.Write(word[:])
					}
				}
			}
		}
		out[gc.c.Name()] = [2]string{hex.EncodeToString(blocks.Sum(nil)), hex.EncodeToString(values.Sum(nil))}
	}
	return out
}

// TestBaselineByteInvariance asserts every baseline still writes the same
// block bytes and decodes them to the same values.
func TestBaselineByteInvariance(t *testing.T) {
	got := baselineHashes(t)
	if len(got) != len(baselineGolden) {
		t.Fatalf("have %d codecs, %d golden entries", len(got), len(baselineGolden))
	}
	for name, h := range got {
		want, ok := baselineGolden[name]
		if !ok {
			t.Errorf("%s: no golden entry (got %q)", name, h)
			continue
		}
		if h[0] != want[0] {
			t.Errorf("%s: block bytes changed: sha256 %s, want %s", name, h[0], want[0])
		}
		if h[1] != want[1] {
			t.Errorf("%s: decoded values changed: sha256 %s, want %s", name, h[1], want[1])
		}
	}
}

// TestGenBaselineHashes logs the current hashes in baselineGolden's
// literal format (run with -v).
func TestGenBaselineHashes(t *testing.T) {
	got := baselineHashes(t)
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.Logf("%q: {%q, %q},", n, got[n][0], got[n][1])
	}
}
