package resid

import (
	"errors"
	"math"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/lossless"
)

var testFormat = Format{Magic: "TSTB", Params: 1}

// prevWalk predicts each value from the previous one, snapshot-major; a
// zero parameter byte marks the block corrupt.
func prevWalk(c *Coder) {
	if c.Params[0] == 0 {
		c.Fail()
		return
	}
	bs, n := c.Shape()
	last := 0.0
	for t := 0; t < bs; t++ {
		for i := 0; i < n; i++ {
			last = c.Code(t, i, last)
		}
	}
}

// forge lays out a block of testFormat with the given header fields over
// an LZ-compressed payload of the given codes and outlier bytes.
func forge(t *testing.T, param byte, bs, n uint64, codes []int, outliers []byte) []byte {
	t.Helper()
	sc := new(scratch)
	payload, err := sc.enc.EncodeInts(nil, codes)
	if err != nil {
		t.Fatal(err)
	}
	payload = bitstream.AppendSection(payload, outliers)
	compressed, err := lossless.LZ{}.Compress(payload)
	if err != nil {
		t.Fatal(err)
	}
	blk := append([]byte(testFormat.Magic), param)
	blk = bitstream.AppendFloat64(blk, 1e-3)
	blk = bitstream.AppendUvarint(blk, Scale)
	blk = bitstream.AppendUvarint(blk, bs)
	blk = bitstream.AppendUvarint(blk, n)
	return bitstream.AppendSection(blk, compressed)
}

func TestRoundTrip(t *testing.T) {
	batch := [][]float64{{1, 1.0004, 5e9}, {math.NaN(), 2, 2.0011}}
	blk, err := testFormat.Encode(batch, 1e-3, []byte{1}, prevWalk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := testFormat.Decode(blk, prevWalk)
	if err != nil {
		t.Fatal(err)
	}
	for ti, snap := range batch {
		for i, x := range snap {
			y := got[ti][i]
			if math.IsNaN(x) != math.IsNaN(y) || (!math.IsNaN(x) && !(math.Abs(x-y) <= 1e-3)) {
				t.Fatalf("(%d,%d): %v decoded as %v", ti, i, x, y)
			}
		}
	}
}

// TestDecodeRefusesForgedBlocks: blocks whose walk fails, whose outlier
// bytes outlast the codes, or whose geometry claim overflows are refused
// as ErrCorrupt.
func TestDecodeRefusesForgedBlocks(t *testing.T) {
	mid := Scale / 2
	cases := map[string][]byte{
		"walk fails":           forge(t, 0, 1, 2, []int{mid, mid}, nil),
		"unread outlier bytes": forge(t, 1, 1, 2, []int{mid, mid}, []byte{2}),
		"short outlier bytes":  forge(t, 1, 1, 2, []int{0, mid}, nil),
		"codes short of bs×n":  forge(t, 1, 2, 2, []int{mid, mid}, nil),
		// 2^32 × 2^32 wraps to 0 in 64 bits, matching zero codes.
		"geometry overflow": forge(t, 1, 1<<32, 1<<32, nil, nil),
	}
	if _, err := testFormat.Decode(forge(t, 1, 1, 2, []int{mid, mid}, nil), prevWalk); err != nil {
		t.Fatalf("well-formed forged block refused: %v", err)
	}
	for name, blk := range cases {
		if _, err := testFormat.Decode(blk, prevWalk); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", name, err)
		}
	}
}
