package gen

// Test oracles for the generators' output: a structural dataset check, and
// the mean squared displacement that tells a diffusive liquid from a
// bounded solid.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/mdz/mdz/internal/dataset"
)

// validate checks a dataset's structural invariants: uniform particle
// counts and finite coordinates.
func validate(d *dataset.Dataset) error {
	n := d.N()
	for i, f := range d.Frames {
		if f.N() != n || len(f.Y) != n || len(f.Z) != n {
			return fmt.Errorf("dataset %s: frame %d has inconsistent particle count", d.Meta.Name, i)
		}
		for _, a := range dataset.Axes {
			for j, v := range f.Axis(a) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("dataset %s: frame %d %s[%d] is not finite", d.Meta.Name, i, a, j)
				}
			}
		}
	}
	return nil
}

func TestValidate(t *testing.T) {
	d := &dataset.Dataset{Frames: []dataset.Frame{dataset.NewFrame(3), dataset.NewFrame(3)}}
	if err := validate(d); err != nil {
		t.Fatal(err)
	}
	d.Frames[1].Y[0] = math.NaN()
	if err := validate(d); err == nil {
		t.Error("expected NaN to fail validation")
	}
	d.Frames[1] = dataset.NewFrame(4)
	if err := validate(d); err == nil {
		t.Error("expected inconsistent N to fail validation")
	}
}

var errLength = errors.New("msd: length mismatch")

// msd computes the mean squared displacement of particles between frame 0
// and each later frame, given per-axis position series (snapshots ×
// particles) and an optional periodic box edge (0 disables minimum-image
// unwrapping). MSD(t) growing linearly indicates diffusive (liquid)
// motion; a saturating MSD indicates bounded (solid) vibration — the
// regime split behind the paper's takeaways 2-4.
//
// Displacements are accumulated frame-to-frame with minimum image so
// particles that wrap across periodic boundaries are tracked correctly.
func msd(x, y, z [][]float64, box float64) ([]float64, error) {
	m := len(x)
	if m == 0 || len(y) != m || len(z) != m {
		return nil, errLength
	}
	n := len(x[0])
	// Cumulative unwrapped displacement per particle.
	dx := make([]float64, n)
	dy := make([]float64, n)
	dz := make([]float64, n)
	out := make([]float64, m)
	for t := 1; t < m; t++ {
		if len(x[t]) != n || len(y[t]) != n || len(z[t]) != n {
			return nil, errLength
		}
		var sum float64
		for i := 0; i < n; i++ {
			sx := x[t][i] - x[t-1][i]
			sy := y[t][i] - y[t-1][i]
			sz := z[t][i] - z[t-1][i]
			if box > 0 {
				sx -= box * math.Round(sx/box)
				sy -= box * math.Round(sy/box)
				sz -= box * math.Round(sz/box)
			}
			dx[i] += sx
			dy[i] += sy
			dz[i] += sz
			sum += dx[i]*dx[i] + dy[i]*dy[i] + dz[i]*dz[i]
		}
		out[t] = sum / float64(n)
	}
	return out, nil
}

// diffusionRegime classifies an MSD curve: "diffusive" when the second
// half keeps growing at a comparable rate to the first half, "bounded"
// when it has flattened (growth ratio below 0.25), "static" when total
// displacement is negligible relative to scale.
func diffusionRegime(curve []float64, scale float64) string {
	m := len(curve)
	if m < 4 {
		return "unknown"
	}
	final := curve[m-1]
	if scale > 0 && final < 1e-6*scale*scale {
		return "static"
	}
	half := curve[m/2]
	firstRate := half / float64(m/2)
	lastRate := (final - half) / float64(m-1-m/2)
	if firstRate <= 0 {
		return "bounded"
	}
	if lastRate/firstRate < 0.25 {
		return "bounded"
	}
	return "diffusive"
}

// walk3D generates m snapshots of n particles; sigma is the per-step
// displacement scale; bounded pins particles to their start.
func walk3D(m, n int, sigma float64, bounded bool, seed int64) (x, y, z [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	x0 := make([]float64, n)
	pos := make([]float64, n)
	x = make([][]float64, m)
	y = make([][]float64, m)
	z = make([][]float64, m)
	for i := range pos {
		x0[i] = rng.Float64() * 10
		pos[i] = x0[i]
	}
	for t := 0; t < m; t++ {
		x[t] = make([]float64, n)
		y[t] = make([]float64, n)
		z[t] = make([]float64, n)
		for i := 0; i < n; i++ {
			if bounded {
				x[t][i] = x0[i] + rng.NormFloat64()*sigma
				y[t][i] = rng.NormFloat64() * sigma
				z[t][i] = rng.NormFloat64() * sigma
			} else {
				pos[i] += rng.NormFloat64() * sigma
				x[t][i] = pos[i]
				y[t][i] = 0
				z[t][i] = 0
			}
		}
	}
	return x, y, z
}

func TestMSDDiffusive(t *testing.T) {
	x, y, z := walk3D(60, 400, 0.1, false, 1)
	got, err := msd(x, y, z, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Random walk: MSD(t) ≈ sigma^2 * t.
	if got[0] != 0 {
		t.Errorf("MSD(0) = %v", got[0])
	}
	gotFinal := got[59]
	want := 0.01 * 59
	if math.Abs(gotFinal-want)/want > 0.25 {
		t.Errorf("MSD(59) = %v, want ≈%v", gotFinal, want)
	}
	if diffusionRegime(got, 10) != "diffusive" {
		t.Errorf("regime = %s, want diffusive", diffusionRegime(got, 10))
	}
}

func TestMSDBounded(t *testing.T) {
	x, y, z := walk3D(60, 400, 0.05, true, 2)
	got, err := msd(x, y, z, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := diffusionRegime(got, 10); got != "bounded" {
		t.Errorf("regime = %s, want bounded", got)
	}
}

func TestMSDStatic(t *testing.T) {
	x, y, z := walk3D(10, 50, 0, true, 3)
	got, _ := msd(x, y, z, 0)
	if got := diffusionRegime(got, 10); got != "static" {
		t.Errorf("regime = %s, want static", got)
	}
}

func TestMSDPeriodicUnwrap(t *testing.T) {
	// A particle moving +0.4 per step in a box of 1.0 wraps repeatedly;
	// unwrapped MSD must keep growing quadratically (ballistic).
	m := 20
	x := make([][]float64, m)
	y := make([][]float64, m)
	z := make([][]float64, m)
	for t2 := 0; t2 < m; t2++ {
		p := math.Mod(0.4*float64(t2), 1.0)
		x[t2] = []float64{p}
		y[t2] = []float64{0}
		z[t2] = []float64{0}
	}
	got, err := msd(x, y, z, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Each raw step is +0.4 (|0.4| < L/2, kept) except across the wrap,
	// where the raw −0.6 unwraps back to +0.4 — so the reconstructed
	// motion is a clean +0.4/step ballistic trajectory.
	want := math.Pow(0.4*float64(m-1), 2)
	if math.Abs(got[m-1]-want)/want > 1e-9 {
		t.Errorf("MSD = %v, want %v", got[m-1], want)
	}
}

func TestMSDErrors(t *testing.T) {
	if _, err := msd(nil, nil, nil, 0); err != errLength {
		t.Error("empty input accepted")
	}
	x := [][]float64{{1}, {1, 2}}
	if _, err := msd(x, x, x, 0); err != errLength {
		t.Error("ragged input accepted")
	}
}
