package dataset

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestXYZRoundTrip(t *testing.T) {
	d := testSet(3, 5, 11)
	var buf bytes.Buffer
	if err := d.WriteXYZ(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadXYZ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != 3 || got.N() != 5 {
		t.Fatalf("shape %dx%d", got.M(), got.N())
	}
	for fi := range d.Frames {
		for i := 0; i < 5; i++ {
			if math.Abs(got.Frames[fi].X[i]-d.Frames[fi].X[i]) > 0 {
				t.Fatalf("X[%d][%d] mismatch", fi, i)
			}
			if got.Frames[fi].Z[i] != d.Frames[fi].Z[i] {
				t.Fatalf("Z[%d][%d] mismatch", fi, i)
			}
		}
	}
}

func TestReadXYZForeignFormat(t *testing.T) {
	// Typical VMD-style file: element symbols, extra whitespace, blank line
	// between frames.
	in := `2
comment frame 0
O  1.0  2.0  3.0
H  4.5 -1.25 0.0

2
comment frame 1
O  1.1  2.1  3.1
H  4.6 -1.35 0.1
`
	d, err := ReadXYZ(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.M() != 2 || d.N() != 2 {
		t.Fatalf("shape %dx%d", d.M(), d.N())
	}
	if d.Frames[1].Y[1] != -1.35 {
		t.Errorf("Y = %v", d.Frames[1].Y[1])
	}
}

func TestReadXYZErrors(t *testing.T) {
	cases := []string{
		"",                      // empty
		"abc\ncomment\n",        // bad count
		"2\ncomment\nO 1 2 3\n", // truncated
		"1\ncomment\nO 1 2\n",   // short atom line
		"1\ncomment\nO 1 x 3\n", // bad float
		"1\nc\nO 1 2 3\n2\nc\nO 1 2 3\nO 1 2 3\n", // inconsistent N
	}
	for i, in := range cases {
		if _, err := ReadXYZ(strings.NewReader(in)); !errors.Is(err, errBadXYZ) {
			t.Errorf("case %d: err %v, want errBadXYZ", i, err)
		}
	}
}

// TestReadXYZForgedCountNoAlloc: an atom count line with no atom lines
// behind it fails typed before sizing memory.
func TestReadXYZForgedCountNoAlloc(t *testing.T) {
	var err error
	alloc := allocated(func() { _, err = ReadXYZ(strings.NewReader("16777216\ncomment\n")) })
	if !errors.Is(err, errBadXYZ) {
		t.Errorf("err %v, want errBadXYZ", err)
	}
	if alloc >= 1<<20 {
		t.Errorf("allocated %d bytes", alloc)
	}
}
