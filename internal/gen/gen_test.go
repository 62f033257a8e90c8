package gen

import (
	"math"
	"reflect"
	"testing"

	"github.com/mdz/mdz/internal/dataset"
)

// small returns fast-to-generate options for tests.
func small() Options { return Options{Snapshots: 6, Atoms: 300, Seed: 7} }

func TestAllGeneratorsProduceValidData(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d, err := Generate(name, small())
			if err != nil {
				t.Fatal(err)
			}
			if d.M() != 6 {
				t.Errorf("M=%d, want 6", d.M())
			}
			if d.N() < 50 {
				t.Errorf("N=%d suspiciously small", d.N())
			}
			if err := validate(d); err != nil {
				t.Fatal(err)
			}
			if d.Meta.Name != name {
				t.Errorf("meta name %q", d.Meta.Name)
			}
			if d.Meta.OriginalAtoms == 0 {
				t.Error("original atom count missing (needed for exclusion emulation)")
			}
		})
	}
}

func TestUnknownDataset(t *testing.T) {
	if _, err := Generate("Nope", Options{}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate("Copper-B", small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("Copper-B", small())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Frames, b.Frames) {
		t.Error("generation is not deterministic")
	}
	c, err := Generate("Copper-B", Options{Snapshots: 6, Atoms: 300, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Frames, c.Frames) {
		t.Error("different seeds produced identical data")
	}
}

func TestMDNamesRegistered(t *testing.T) {
	for _, n := range MDNames() {
		if registry[n] == nil {
			t.Errorf("MD dataset %q not registered", n)
		}
	}
	if len(Names()) != len(MDNames())+2 {
		t.Errorf("expected 8 MD + 2 HACC datasets, have %v", Names())
	}
}

// temporalDelta measures the mean |x(t+1)-x(t)| across particles, a proxy
// for Fig 5's temporal smoothness.
func temporalDelta(d *dataset.Dataset) float64 {
	var sum float64
	var cnt int
	for t := 1; t < d.M(); t++ {
		for i := 0; i < d.N(); i++ {
			sum += math.Abs(d.Frames[t].X[i] - d.Frames[t-1].X[i])
			cnt++
		}
	}
	return sum / float64(cnt)
}

func TestRegimeContrast(t *testing.T) {
	// The LJ analog (frequent saves of Newtonian motion) must be much
	// smoother in time than the Copper-B analog (sparse saves of a hot
	// solid), relative to their value ranges — this contrast is what drives
	// the paper's MT-vs-VQ adaptivity.
	lj, err := Generate("LJ", Options{Snapshots: 8, Atoms: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cu, err := Generate("Copper-B", Options{Snapshots: 8, Atoms: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ljDelta := temporalDelta(lj) / lj.Meta.Box
	cuDelta := temporalDelta(cu) / cu.Meta.Box
	if ljDelta*2 > cuDelta {
		t.Errorf("LJ temporal delta %v should be ≪ Copper-B %v (normalized)", ljDelta, cuDelta)
	}
}

func TestCrystallineLevels(t *testing.T) {
	// Copper-A snapshot coordinates must cluster near lattice levels:
	// the fractional parts of x/a should concentrate near 0 and 0.5.
	d, err := Generate("Copper-A", Options{Snapshots: 3, Atoms: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := 1.62
	near := 0
	vals := d.Frames[0].X
	for _, x := range vals {
		frac := math.Mod(x/a*2, 1) // half-spacing grid (FCC has a/2 levels)
		if frac > 0.5 {
			frac = 1 - frac
		}
		if frac < 0.2 {
			near++
		}
	}
	if ratio := float64(near) / float64(len(vals)); ratio < 0.8 {
		t.Errorf("only %.0f%% of Copper-A coordinates near lattice levels", ratio*100)
	}
}

func TestPtMostlyStatic(t *testing.T) {
	// The Pt analog should have very high snapshot-0 similarity (Fig 8):
	// most atoms belong to the nearly immobile bulk.
	d, err := Generate("Pt", Options{Snapshots: 8, Atoms: 1500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lastF := d.Frames[d.M()-1]
	static := 0
	for i := 0; i < d.N(); i++ {
		dx := math.Abs(lastF.X[i] - d.Frames[0].X[i])
		dz := math.Abs(lastF.Z[i] - d.Frames[0].Z[i])
		if dx < 0.3 && dz < 0.3 {
			static++
		}
	}
	if ratio := float64(static) / float64(d.N()); ratio < 0.7 {
		t.Errorf("only %.0f%% of Pt atoms static relative to snapshot 0", ratio*100)
	}
}

func TestHACCBoxRecorded(t *testing.T) {
	d, err := Generate("HACC-1", Options{Snapshots: 3, Atoms: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta.Box != 100 {
		t.Errorf("HACC box = %v, want 100", d.Meta.Box)
	}
}

func TestPhysicalRegimesViaMSD(t *testing.T) {
	// The LJ liquid analog must be diffusive and the Copper-A solid analog
	// bounded — the physical split behind the paper's takeaways 2-4.
	lj, err := Generate("LJ", Options{Snapshots: 20, Atoms: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	x, y, z := axes(lj)
	curve, err := msd(x, y, z, lj.Meta.Box)
	if err != nil {
		t.Fatal(err)
	}
	if got := diffusionRegime(curve, lj.Meta.Box); got != "diffusive" {
		t.Errorf("LJ regime = %s, want diffusive (MSD tail %v)", got, curve[len(curve)-1])
	}
	cu, err := Generate("Copper-A", Options{Snapshots: 20, Atoms: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	x, y, z = axes(cu)
	curve, err = msd(x, y, z, cu.Meta.Box)
	if err != nil {
		t.Fatal(err)
	}
	if got := diffusionRegime(curve, cu.Meta.Box); got != "bounded" {
		t.Errorf("Copper-A regime = %s, want bounded (MSD tail %v)", got, curve[len(curve)-1])
	}
}

func axes(d *dataset.Dataset) (x, y, z [][]float64) {
	return d.AxisSeries(dataset.AxisX), d.AxisSeries(dataset.AxisY), d.AxisSeries(dataset.AxisZ)
}
