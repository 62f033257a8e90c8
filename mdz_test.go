package mdz

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// makeFrames builds a crystalline-in-x, liquid-in-y, constant-in-z
// trajectory so the three axes exercise different methods under ADP.
func makeFrames(m, n int, seed int64) []Frame {
	rng := rand.New(rand.NewSource(seed))
	levels := make([]int, n)
	posY := make([]float64, n)
	for i := range levels {
		levels[i] = rng.Intn(10)
		posY[i] = rng.Float64() * 30
	}
	frames := make([]Frame, m)
	for t := range frames {
		f := Frame{X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n)}
		for i := 0; i < n; i++ {
			f.X[i] = 3.0*float64(levels[i]) + rng.NormFloat64()*0.02
			posY[i] += rng.NormFloat64() * 0.001
			f.Y[i] = posY[i]
			f.Z[i] = 7.25
		}
		frames[t] = f
	}
	return frames
}

func frameRange(frames []Frame, axis int) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, f := range frames {
		for _, v := range axisSeries([]Frame{f}, axis)[0] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return hi - lo
}

func TestOneShotRoundTripValueRange(t *testing.T) {
	frames := makeFrames(25, 300, 1)
	eps := 1e-3
	stream, err := Compress(frames, Config{ErrorBound: eps})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("frame count %d != %d", len(got), len(frames))
	}
	for axis := 0; axis < 3; axis++ {
		bound := eps * frameRange(frames[:DefaultBufferSize], axis)
		if bound == 0 {
			bound = eps // degenerate constant axis
		}
		for ti := range frames {
			want := axisSeries(frames[ti:ti+1], axis)[0]
			have := axisSeries(got[ti:ti+1], axis)[0]
			for i := range want {
				if e := math.Abs(want[i] - have[i]); e > bound+1e-15 {
					t.Fatalf("axis %d frame %d particle %d: err %v > %v", axis, ti, i, e, bound)
				}
			}
		}
	}
	if len(stream) >= len(frames)*300*3*8 {
		t.Errorf("no compression: %d bytes", len(stream))
	}
}

func TestAbsoluteMode(t *testing.T) {
	frames := makeFrames(12, 100, 2)
	stream, err := Compress(frames, Config{ErrorBound: 0.01, Mode: Absolute, Method: MT})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range frames {
		for i := range frames[ti].X {
			for axis := 0; axis < 3; axis++ {
				w := axisSeries(frames[ti:ti+1], axis)[0][i]
				h := axisSeries(got[ti:ti+1], axis)[0][i]
				if math.Abs(w-h) > 0.01 {
					t.Fatalf("axis %d: error %v", axis, math.Abs(w-h))
				}
			}
		}
	}
}

func TestStreamingAPI(t *testing.T) {
	frames := makeFrames(30, 200, 3)
	c, err := NewCompressor(Config{ErrorBound: 1e-4, Mode: Absolute})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecompressor()
	var rebuilt []Frame
	for _, batch := range Batch(frames, 10) {
		blk, err := c.CompressBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		out, err := d.DecompressBatch(blk)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt = append(rebuilt, out...)
	}
	if len(rebuilt) != len(frames) {
		t.Fatalf("rebuilt %d frames, want %d", len(rebuilt), len(frames))
	}
	raw, comp := c.Stats()
	if raw != int64(30*200*3*8) {
		t.Errorf("raw stats = %d", raw)
	}
	if comp <= 0 || comp >= raw {
		t.Errorf("compressed stats = %d (raw %d)", comp, raw)
	}
	ms := c.Methods()
	for axis, m := range ms {
		if m != VQ && m != VQT && m != MT {
			t.Errorf("axis %d: unexpected method %v", axis, m)
		}
	}
}

func TestBatchHelper(t *testing.T) {
	frames := makeFrames(7, 5, 4)
	b := Batch(frames, 3)
	if len(b) != 3 || len(b[0]) != 3 || len(b[2]) != 1 {
		t.Errorf("batch shapes wrong: %d", len(b))
	}
	if got := Batch(frames, 0); len(got[0]) != DefaultBufferSize && len(got[0]) != 7 {
		t.Errorf("default batch size: %d", len(got[0]))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCompressor(Config{}); err == nil {
		t.Error("zero ErrorBound accepted")
	}
	if _, err := NewCompressor(Config{ErrorBound: -1}); err == nil {
		t.Error("negative ErrorBound accepted")
	}
	if _, err := NewCompressor(Config{ErrorBound: 1e-3, BufferSize: -2}); err == nil {
		t.Error("negative BufferSize accepted")
	}
	// Undefined enums: an unknown method would code rows over unset
	// scratch, an unknown sequence would go into block headers and an
	// unknown mode would run as Absolute.
	for name, cfg := range map[string]Config{
		"Method(9)":   {ErrorBound: 1e-3, Method: Method(9)},
		"Sequence(7)": {ErrorBound: 1e-3, Sequence: Sequence(7)},
		"Mode(5)":     {ErrorBound: 1e-3, Mode: BoundMode(5)},
	} {
		if _, err := NewCompressor(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestV3ConfigValidation pins the accepted Config.FormatVersion values:
// 0 and 2 select the one write format, 3 is refused as removed.
func TestV3ConfigValidation(t *testing.T) {
	for _, v := range []int{0, 2} {
		if _, err := NewCompressor(Config{ErrorBound: 1e-3, FormatVersion: v}); err != nil {
			t.Errorf("FormatVersion %d rejected: %v", v, err)
		}
	}
	if _, err := NewCompressor(Config{ErrorBound: 1e-3, FormatVersion: 3}); err == nil || !strings.Contains(err.Error(), "removed") {
		t.Errorf("FormatVersion 3: err = %v, want one saying v3 was removed", err)
	}
	for _, v := range []int{1, 4, -2} {
		if _, err := NewCompressor(Config{ErrorBound: 1e-3, FormatVersion: v}); err == nil {
			t.Errorf("FormatVersion %d accepted", v)
		}
	}
}

func TestBadInputs(t *testing.T) {
	c, _ := NewCompressor(Config{ErrorBound: 1e-3})
	if _, err := c.CompressBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	ragged := []Frame{{X: []float64{1}, Y: []float64{1}, Z: []float64{1}},
		{X: []float64{1, 2}, Y: []float64{1, 2}, Z: []float64{1, 2}}}
	if _, err := c.CompressBatch(ragged); err == nil {
		t.Error("ragged batch accepted")
	}
	// A reference stored from a 0-atom block reloads as nil, so a Writer's
	// own Reader would refuse every checkpoint after it.
	if _, err := c.CompressBatch([]Frame{{}, {}}); err == nil {
		t.Error("0-atom batch accepted")
	}
	d := NewDecompressor()
	if _, err := d.DecompressBatch([]byte("bogus")); err == nil {
		t.Error("bogus block accepted")
	}
	if _, err := Decompress([]byte("bogus")); err == nil {
		t.Error("bogus stream accepted")
	}
}

func TestPropertyErrorBoundAllMethods(t *testing.T) {
	f := func(seed int64, mRaw, ebExp uint8) bool {
		m := Method(mRaw % 4)
		eb := math.Pow(10, -1-float64(ebExp%4))
		frames := makeFrames(8, 40, seed)
		stream, err := Compress(frames, Config{ErrorBound: eb, Mode: Absolute, Method: m, BufferSize: 4})
		if err != nil {
			return false
		}
		got, err := Decompress(stream)
		if err != nil || len(got) != len(frames) {
			return false
		}
		for ti := range frames {
			for axis := 0; axis < 3; axis++ {
				w := axisSeries(frames[ti:ti+1], axis)[0]
				h := axisSeries(got[ti:ti+1], axis)[0]
				for i := range w {
					if math.Abs(w[i]-h[i]) > eb {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// compressAll runs frames through a fresh compressor batch by batch.
func compressAll(t testing.TB, cfg Config, frames []Frame, bs int) [][]byte {
	t.Helper()
	c, err := NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blks [][]byte
	for lo := 0; lo < len(frames); lo += bs {
		blk, err := c.CompressBatch(frames[lo:min(lo+bs, len(frames))])
		if err != nil {
			t.Fatal(err)
		}
		blks = append(blks, append([]byte(nil), blk...))
	}
	return blks
}

func decompressAll(t testing.TB, blks [][]byte) []Frame {
	t.Helper()
	d := NewDecompressor()
	var out []Frame
	for _, blk := range blks {
		frames, err := d.DecompressBatch(blk)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frames...)
	}
	return out
}

func requireFramesWithinBound(t testing.TB, orig, got []Frame, eb float64) {
	t.Helper()
	if len(orig) != len(got) {
		t.Fatalf("%d frames, want %d", len(got), len(orig))
	}
	for i := range orig {
		for j := range orig[i].X {
			for _, p := range [][2]float64{
				{orig[i].X[j], got[i].X[j]},
				{orig[i].Y[j], got[i].Y[j]},
				{orig[i].Z[j], got[i].Z[j]},
			} {
				if math.Abs(p[0]-p[1]) > eb {
					t.Fatalf("frame %d atom %d: error %g exceeds bound %g", i, j, math.Abs(p[0]-p[1]), eb)
				}
			}
		}
	}
}

// FuzzErrorBound drives the public API with fuzzer-derived trajectories
// under each of the four methods and requires every reconstructed value to
// lie within the absolute error bound of its original.
func FuzzErrorBound(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(2))
	f.Add([]byte{0xFF, 0, 0xFF, 0}, uint8(1), uint8(0))
	f.Add(bytes.Repeat([]byte{9}, 64), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, mSel, nSel uint8) {
		m := int(mSel%6) + 2  // snapshots
		n := int(nSel%10) + 1 // atoms
		frames := make([]Frame, m)
		at := 0
		next := func() float64 {
			if len(raw) == 0 {
				return 1
			}
			b := raw[at%len(raw)]
			at++
			return float64(int8(b)) / 16
		}
		for t2 := range frames {
			fr := Frame{X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n)}
			for i := 0; i < n; i++ {
				fr.X[i] = next()
				fr.Y[i] = next() * 3
				fr.Z[i] = 42
			}
			frames[t2] = fr
		}
		method := []Method{ADP, VQ, VQT, MT}[int(mSel>>4)%4]
		cfg := Config{ErrorBound: 1e-3, Mode: Absolute, Method: method, BufferSize: m}
		requireFramesWithinBound(t, frames, decompressAll(t, compressAll(t, cfg, frames, m)), 1e-3)
	})
}

// TestConstantAxisLargeBatchRoundTrip round-trips a 2-D run (Z ≡ 0) whose
// batches are large enough to shard. LZ folds the constant axis's
// one-bit-per-value Huffman payload into a handful of matches, so each Z
// shard body is a few dozen bytes for hundreds of thousands of values; the
// decoder must accept that, and every axis must hold its bound.
func TestConstantAxisLargeBatchRoundTrip(t *testing.T) {
	const atoms, snaps, eps = 40000, 50, 1e-4
	rng := rand.New(rand.NewSource(71))
	x := make([]float64, atoms)
	y := make([]float64, atoms)
	for i := range x {
		x[i] = rng.Float64() * 50
		y[i] = rng.Float64() * 50
	}
	frames := make([]Frame, snaps)
	for t := range frames {
		f := Frame{X: make([]float64, atoms), Y: make([]float64, atoms), Z: make([]float64, atoms)}
		for i := range x {
			x[i] += rng.NormFloat64() * 0.01
			y[i] += rng.NormFloat64() * 0.01
			f.X[i], f.Y[i] = x[i], y[i]
		}
		frames[t] = f
	}
	stream, err := Compress(frames, Config{ErrorBound: eps, BufferSize: snaps})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(stream)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if len(got) != snaps {
		t.Fatalf("decoded %d snapshots, want %d", len(got), snaps)
	}
	for axis := 0; axis < 3; axis++ {
		bound := eps * frameRange(frames, axis)
		if bound == 0 {
			bound = eps // a constant axis's range is taken as 1
		}
		want, have := axisSeries(frames, axis), axisSeries(got, axis)
		for s := range want {
			for i := range want[s] {
				if e := math.Abs(want[s][i] - have[s][i]); e > bound {
					t.Fatalf("axis %d snapshot %d atom %d: error %g exceeds bound %g", axis, s, i, e, bound)
				}
			}
		}
	}
}
