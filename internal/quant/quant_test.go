package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1024); err == nil {
		t.Error("expected error for eb=0")
	}
	if _, err := New(-1, 1024); err == nil {
		t.Error("expected error for negative eb")
	}
	if _, err := New(math.Inf(1), 1024); err == nil {
		t.Error("expected error for infinite eb")
	}
	if _, err := New(1e-3, 2); err == nil {
		t.Error("expected error for tiny scale")
	}
	if _, err := New(1e-3, 1024); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeRoundTripBound(t *testing.T) {
	q, _ := New(0.01, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		pred := rng.NormFloat64() * 10
		d := pred + rng.NormFloat64() // residual mostly in scope
		code, recon, ok := q.Quantize(d, pred)
		if !ok {
			continue
		}
		if code == Reserved {
			t.Fatalf("in-scope value produced reserved code")
		}
		if got := q.Dequantize(code, pred); got != recon {
			t.Fatalf("Dequantize disagrees with Quantize recon: %v vs %v", got, recon)
		}
		if math.Abs(recon-d) > 0.01 {
			t.Fatalf("error bound violated: |%v-%v| = %v > 0.01", recon, d, math.Abs(recon-d))
		}
	}
}

func TestOutOfScope(t *testing.T) {
	q, _ := New(0.001, 1024)
	// Residual of 10 is ~5000 bins: far out of the 1024 scale.
	code, recon, ok := q.Quantize(10.0, 0.0)
	if ok {
		t.Fatal("expected out-of-scope")
	}
	if code != Reserved {
		t.Errorf("out-of-scope code = %d, want Reserved", code)
	}
	if recon != 10.0 {
		t.Errorf("out-of-scope recon = %v, want exact value", recon)
	}
}

func TestNaNIsOutlier(t *testing.T) {
	q, _ := New(0.001, 1024)
	_, _, ok := q.Quantize(math.NaN(), 0.0)
	if ok {
		t.Error("NaN must be routed to outlier storage")
	}
	_, _, ok = q.Quantize(0, math.Inf(1))
	if ok {
		t.Error("Inf prediction must be routed to outlier storage")
	}
}

func TestZeroResidualIsMidCode(t *testing.T) {
	q, _ := New(0.5, 1024)
	code, recon, ok := q.Quantize(3.0, 3.0)
	if !ok || code != 512 || recon != 3.0 {
		t.Errorf("zero residual: code=%d recon=%v ok=%v", code, recon, ok)
	}
}

func TestPropertyErrorBound(t *testing.T) {
	f := func(dRaw, predRaw int32, ebExp uint8) bool {
		d := float64(dRaw) / 1000
		pred := float64(predRaw) / 1000
		eb := math.Pow(10, -float64(ebExp%7)) // 1 .. 1e-6
		q, err := New(eb, 1024)
		if err != nil {
			return false
		}
		code, recon, ok := q.Quantize(d, pred)
		if !ok {
			return recon == d // outlier path preserves value exactly
		}
		return math.Abs(q.Dequantize(code, pred)-d) <= eb && code > 0 && code < 1024
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestScaleBoundary(t *testing.T) {
	q, _ := New(1.0, 8) // bins: mid=4, maxMag=3, so residual in [-6,6] roughly
	// Residual exactly at max representable: k=3 -> code 7.
	code, _, ok := q.Quantize(6.0, 0.0)
	if !ok || code != 7 {
		t.Errorf("residual 6: code=%d ok=%v", code, ok)
	}
	// k=4 exceeds maxMag.
	if _, _, ok := q.Quantize(8.0, 0.0); ok {
		t.Error("residual 8 should be out of scope at scale 8")
	}
}

func TestAbsBound(t *testing.T) {
	if got := AbsBound(1e-3, 0, 100); got != 0.1 {
		t.Errorf("AbsBound = %v, want 0.1", got)
	}
	if got := AbsBound(1e-3, 5, 5); got != 1e-3 {
		t.Errorf("degenerate range AbsBound = %v, want 1e-3", got)
	}
}

func TestRange(t *testing.T) {
	lo, hi := Range([]float64{3, -1, math.NaN(), 7})
	if lo != -1 || hi != 7 {
		t.Errorf("Range = (%v,%v)", lo, hi)
	}
	lo, hi = Range([]float64{math.NaN()})
	if lo != 0 || hi != 0 {
		t.Errorf("all-NaN Range = (%v,%v)", lo, hi)
	}
	lo, hi = Range(nil)
	if lo != 0 || hi != 0 {
		t.Errorf("empty Range = (%v,%v)", lo, hi)
	}
}

func TestBoundedRoundTrip(t *testing.T) {
	cases := []struct {
		v, eb float64
	}{
		{0, 1e-3}, {1.5, 1e-3}, {-2.75, 1e-6}, {1e12, 1e-3}, {-1e12, 1e-3},
		{math.Pi, 1e-9}, {1e300, 1e-3}, {math.Inf(1), 1e-3}, {math.Inf(-1), 1e-3},
	}
	for _, c := range cases {
		buf, recon := AppendBounded(nil, c.v, c.eb)
		got, n, err := ReadBounded(buf, c.eb)
		if err != nil {
			t.Fatalf("v=%v eb=%v: %v", c.v, c.eb, err)
		}
		if n != len(buf) {
			t.Fatalf("v=%v: consumed %d of %d bytes", c.v, n, len(buf))
		}
		if math.IsInf(c.v, 0) {
			if got != c.v {
				t.Fatalf("inf not preserved: %v", got)
			}
			continue
		}
		if math.Abs(got-c.v) > c.eb {
			t.Fatalf("v=%v eb=%v: recon %v exceeds bound", c.v, c.eb, got)
		}
		if recon != got {
			t.Fatalf("v=%v: AppendBounded's reconstruction %v disagrees with decode %v", c.v, recon, got)
		}
	}
}

func TestBoundedNaN(t *testing.T) {
	buf, _ := AppendBounded(nil, math.NaN(), 1e-3)
	got, _, err := ReadBounded(buf, 1e-3)
	if err != nil || !math.IsNaN(got) {
		t.Fatalf("NaN round trip: %v %v", got, err)
	}
}

func TestBoundedCompactness(t *testing.T) {
	// Typical in-range outliers must cost far less than 8 raw bytes.
	buf, _ := AppendBounded(nil, 3.14, 1e-3)
	if len(buf) > 3 {
		t.Errorf("small value encoded in %d bytes", len(buf))
	}
}

func TestBoundedPropertyRoundTrip(t *testing.T) {
	f := func(vRaw int64, ebExp uint8) bool {
		v := math.Float64frombits(uint64(vRaw))
		eb := math.Pow(10, -float64(ebExp%12)) // 1 .. 1e-11
		buf, recon := AppendBounded(nil, v, eb)
		got, n, err := ReadBounded(buf, eb)
		if err != nil || n != len(buf) {
			return false
		}
		if math.IsNaN(v) {
			return math.IsNaN(got)
		}
		if math.IsInf(v, 0) {
			return got == v
		}
		return math.Abs(got-v) <= eb && got == recon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestBoundedTruncated(t *testing.T) {
	buf, _ := AppendBounded(nil, 1e300, 1e-12) // raw path: flag + 8 bytes
	if _, _, err := ReadBounded(buf[:len(buf)-1], 1e-12); err == nil {
		t.Error("truncated raw encoding accepted")
	}
	if _, _, err := ReadBounded(nil, 1e-3); err == nil {
		t.Error("empty buffer accepted")
	}
}

// TestCodeDecode round-trips in-scope values, grid-stored and raw-stored
// outliers and NaN through Code and Decode, checking that Code's
// reconstruction is exactly what Decode returns and that the outlier
// cursor walks the stored bytes in order.
func TestCodeDecode(t *testing.T) {
	const eb = 1e-3
	q, err := New(eb, 1024)
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{0.0004, 5, 7.25, math.NaN(), 1e300, -3, -3.0011}
	var codes []int
	var recons []float64
	var outliers []byte
	pred := 0.0
	for _, d := range values {
		code, recon, out := q.Code(d, pred, outliers)
		outliers = out
		codes = append(codes, code)
		recons = append(recons, recon)
		if !math.IsNaN(d) && !(math.Abs(recon-d) <= eb) {
			t.Fatalf("d=%v: recon %v exceeds the bound", d, recon)
		}
		pred = recon
	}
	if codes[1] != Reserved || codes[3] != Reserved || codes[4] != Reserved || codes[0] == Reserved {
		t.Fatalf("codes %v: want outliers exactly at 5, NaN and 1e300", codes)
	}
	opos := 0
	pred = 0
	for i, code := range codes {
		v, next, err := q.Decode(code, pred, outliers, opos)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if math.Float64bits(v) != math.Float64bits(recons[i]) {
			t.Fatalf("value %d: decoded %v, Code reconstructed %v", i, v, recons[i])
		}
		opos, pred = next, v
	}
	if opos != len(outliers) {
		t.Fatalf("cursor at %d of %d outlier bytes", opos, len(outliers))
	}
	if _, _, err := q.Decode(Reserved, 0, outliers, len(outliers)); err != ErrShort {
		t.Fatalf("exhausted outliers: err %v, want ErrShort", err)
	}
}
