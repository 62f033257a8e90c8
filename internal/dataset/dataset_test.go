package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func testSet(m, n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Meta: Metadata{
		Name: "Test", State: "Solid", Code: "LAMMPS",
		OriginalAtoms: 1077290, OriginalSnapshots: 83, Box: 25.0,
	}}
	for i := 0; i < m; i++ {
		f := NewFrame(n)
		for j := 0; j < n; j++ {
			f.X[j] = rng.Float64() * 25
			f.Y[j] = rng.Float64() * 25
			f.Z[j] = rng.Float64() * 25
		}
		d.Frames = append(d.Frames, f)
	}
	return d
}

func TestAxisAccessors(t *testing.T) {
	d := testSet(3, 5, 1)
	if d.M() != 3 || d.N() != 5 {
		t.Fatalf("M=%d N=%d", d.M(), d.N())
	}
	if d.SizeBytes() != 3*5*3*8 {
		t.Errorf("SizeBytes=%d", d.SizeBytes())
	}
	for _, a := range Axes {
		series := d.AxisSeries(a)
		if len(series) != 3 || len(series[0]) != 5 {
			t.Fatalf("axis %v: bad shape", a)
		}
		// Alias check: mutating the series mutates the dataset.
		series[0][0] = -999
		if d.Frames[0].Axis(a)[0] != -999 {
			t.Errorf("axis %v series is not a view", a)
		}
	}
	if AxisX.String() != "x" || AxisY.String() != "y" || AxisZ.String() != "z" {
		t.Error("axis names")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := testSet(4, 9, 5)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Meta, d.Meta) {
		t.Errorf("meta mismatch: %+v vs %+v", got.Meta, d.Meta)
	}
	if !reflect.DeepEqual(got.Frames, d.Frames) {
		t.Error("frames mismatch")
	}
}

func TestSaveLoad(t *testing.T) {
	d := testSet(2, 4, 6)
	path := filepath.Join(t.TempDir(), "traj.mdzd")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Frames, d.Frames) {
		t.Error("frames mismatch after Save/Load")
	}
}

func TestReadBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Error("expected error for bad magic")
	}
}

func TestReadTruncated(t *testing.T) {
	d := testSet(3, 3, 7)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-10])); err == nil {
		t.Error("expected error for truncated payload")
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	f()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// forgedHeader is a 56-byte MDZD file: empty metadata strings and a header
// claiming m frames of n particles, with no payload behind it.
func forgedHeader(m, n uint64) []byte {
	b := []byte(fileMagic)
	b = append(b, make([]byte, 12)...) // three empty strings
	for _, v := range []uint64{0, 0, 0, m, n} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// TestReadForgedCountsNoAlloc: frame and particle counts claimed by a
// header with no data behind them fail typed before sizing memory. Frames
// of zero particles are refused outright, since no bytes back their count.
func TestReadForgedCountsNoAlloc(t *testing.T) {
	for _, c := range []struct {
		m, n uint64
		want error
	}{
		{1 << 26, 0, errBadFile},
		{1 << 16, 1000, io.EOF},
		{1, 1 << 22, io.EOF},
	} {
		var err error
		alloc := allocated(func() { _, err = Read(bytes.NewReader(forgedHeader(c.m, c.n))) })
		if !errors.Is(err, c.want) {
			t.Errorf("%d frames of %d: err %v, want %v", c.m, c.n, err, c.want)
		}
		if alloc >= 1<<20 {
			t.Errorf("%d frames of %d: allocated %d bytes", c.m, c.n, alloc)
		}
	}
}
