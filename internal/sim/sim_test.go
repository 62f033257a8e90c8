package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestVecOps(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Error("Add")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Error("Sub")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Error("Scale")
	}
	if a.Dot(b) != 32 {
		t.Error("Dot")
	}
	if math.Abs(a.Norm()-math.Sqrt(14)) > 1e-15 {
		t.Error("Norm")
	}
}

func TestBoxWrapDelta(t *testing.T) {
	b := NewCubicBox(10)
	p := b.Wrap(Vec3{11, -1, 25})
	want := Vec3{1, 9, 5}
	if p.Sub(want).Norm() > 1e-12 {
		t.Errorf("Wrap = %v, want %v", p, want)
	}
	// Minimum image: 9.5 and 0.5 are 1 apart across the boundary.
	d := b.Delta(Vec3{0.5, 0, 0}, Vec3{9.5, 0, 0})
	if math.Abs(d.X-1) > 1e-12 {
		t.Errorf("Delta.X = %v, want 1", d.X)
	}
	// Non-periodic box passes through.
	open := Box{L: Vec3{10, 10, 10}}
	if open.Wrap(Vec3{11, 0, 0}).X != 11 {
		t.Error("open box must not wrap")
	}
	if open.Delta(Vec3{9.5, 0, 0}, Vec3{0.5, 0, 0}).X != 9 {
		t.Error("open box delta")
	}
}

func TestLattices(t *testing.T) {
	pos, box := FCC(3, 3, 3, 1.5)
	if len(pos) != 3*3*3*4 {
		t.Errorf("FCC count = %d", len(pos))
	}
	if box.L.X != 4.5 {
		t.Errorf("FCC box = %v", box.L)
	}
	pos, _ = BCC(2, 3, 4, 2.0)
	if len(pos) != 2*3*4*2 {
		t.Errorf("BCC count = %d", len(pos))
	}
	// All lattice sites must be inside the box.
	posF, boxF := FCC(4, 4, 4, 1.2)
	for _, p := range posF {
		if p.X < 0 || p.X >= boxF.L.X || p.Y < 0 || p.Y >= boxF.L.Y || p.Z < 0 || p.Z >= boxF.L.Z {
			t.Fatalf("site %v outside box %v", p, boxF.L)
		}
	}
	// Slab leaves vacuum above.
	posS, boxS := Slab(3, 3, 2, 6, 1.0)
	for _, p := range posS {
		if p.Z >= 2.0 {
			t.Fatalf("slab atom at z=%v above filled region", p.Z)
		}
	}
	if boxS.L.Z != 6.0 {
		t.Errorf("slab box height = %v", boxS.L.Z)
	}
}

func TestMinimumImageDistanceFCC(t *testing.T) {
	// In a perfect FCC lattice, the nearest-neighbor distance is a/√2.
	pos, box := FCC(3, 3, 3, 1.6)
	min := math.Inf(1)
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			d := box.Delta(pos[i], pos[j]).Norm()
			if d < min {
				min = d
			}
		}
	}
	want := 1.6 / math.Sqrt2
	if math.Abs(min-want) > 1e-9 {
		t.Errorf("nearest neighbor = %v, want %v", min, want)
	}
}

// pairForcesBrute computes LJ forces with a direct double loop.
func pairForcesBrute(box Box, pos []Vec3, lj *LJ) ([]Vec3, float64) {
	f := make([]Vec3, len(pos))
	var u float64
	cut2 := lj.Cutoff * lj.Cutoff
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			d := box.Delta(pos[i], pos[j])
			r2 := d.Norm2()
			if r2 >= cut2 {
				continue
			}
			du, g := lj.EnergyForce(r2)
			u += du
			fv := d.Scale(g)
			f[i] = f[i].Add(fv)
			f[j] = f[j].Sub(fv)
		}
	}
	return f, u
}

func TestCellListMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{10, 100, 300} {
		box := NewCubicBox(8)
		pos := make([]Vec3, n)
		for i := range pos {
			pos[i] = Vec3{rng.Float64() * 8, rng.Float64() * 8, rng.Float64() * 8}
		}
		s := NewSystem(box, pos, 1)
		s.Pair = NewLJ(1, 1, 2.5)
		uCell := s.ComputeForces()
		fBrute, uBrute := pairForcesBrute(box, pos, s.Pair)
		if math.Abs(uCell-uBrute) > 1e-9*(1+math.Abs(uBrute)) {
			t.Fatalf("n=%d: energy %v != %v", n, uCell, uBrute)
		}
		for i := range pos {
			if s.Force[i].Sub(fBrute[i]).Norm() > 1e-9*(1+fBrute[i].Norm()) {
				t.Fatalf("n=%d atom %d: force %v != %v", n, i, s.Force[i], fBrute[i])
			}
		}
	}
}

func TestCellListSmallBox(t *testing.T) {
	// Boxes with only 1-2 cells per axis exercise the wrap deduplication.
	rng := rand.New(rand.NewSource(3))
	box := NewCubicBox(4.0) // cutoff 2.5 → 1 cell per axis
	pos := make([]Vec3, 40)
	for i := range pos {
		pos[i] = Vec3{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4}
	}
	s := NewSystem(box, pos, 1)
	s.Pair = NewLJ(1, 1, 1.9)
	uCell := s.ComputeForces()
	_, uBrute := pairForcesBrute(box, pos, s.Pair)
	if math.Abs(uCell-uBrute) > 1e-9*(1+math.Abs(uBrute)) {
		t.Fatalf("small box: energy %v != %v", uCell, uBrute)
	}
}

func TestNVEEnergyConservation(t *testing.T) {
	pos, box := FCC(4, 4, 4, math.Pow(2, 1.0/6)*math.Sqrt2) // near-equilibrium spacing
	s := NewSystem(box, pos, 7)
	s.Pair = NewLJ(1, 1, 2.5)
	s.Dt = 0.002
	s.InitVelocities(0.2)
	s.ComputeForces()
	e0 := s.totalEnergy()
	s.Run(400)
	e1 := s.totalEnergy()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 5e-3 {
		t.Errorf("NVE energy drift %.2e over 400 steps (E0=%v E1=%v)", drift, e0, e1)
	}
}

func TestNVEMomentumConservation(t *testing.T) {
	pos, box := FCC(3, 3, 3, 1.7)
	s := NewSystem(box, pos, 8)
	s.Pair = NewLJ(1, 1, 2.5)
	s.InitVelocities(0.5)
	if p := s.momentum().Norm(); p > 1e-10 {
		t.Fatalf("initial momentum %v after drift removal", p)
	}
	s.Run(100)
	if p := s.momentum().Norm(); p > 1e-8 {
		t.Errorf("momentum drifted to %v", p)
	}
}

func TestLangevinReachesTargetTemperature(t *testing.T) {
	pos, box := FCC(4, 4, 4, 1.7)
	s := NewSystem(box, pos, 9)
	s.Pair = NewLJ(1, 1, 2.5)
	s.Thermo = Langevin
	s.Temp = 0.8
	s.Gamma = 2
	s.Dt = 0.002
	s.InitVelocities(0.1)
	s.Run(500)
	// Average over a window.
	var sum float64
	const w = 200
	for i := 0; i < w; i++ {
		s.Step()
		sum += s.Temperature()
	}
	avg := sum / w
	if math.Abs(avg-0.8) > 0.12 {
		t.Errorf("Langevin temperature %v, want ≈0.8", avg)
	}
}

func TestBerendsenReachesTargetTemperature(t *testing.T) {
	pos, box := FCC(4, 4, 4, 1.7)
	s := NewSystem(box, pos, 10)
	s.Pair = NewLJ(1, 1, 2.5)
	s.Thermo = Berendsen
	s.Temp = 0.5
	s.Tau = 0.05
	s.Dt = 0.002
	s.InitVelocities(1.5)
	s.Run(400)
	if got := s.Temperature(); math.Abs(got-0.5) > 0.15 {
		t.Errorf("Berendsen temperature %v, want ≈0.5", got)
	}
}

func TestFrozenAtomsDoNotMove(t *testing.T) {
	pos, box := Slab(3, 3, 2, 6, 1.6)
	s := NewSystem(box, pos, 11)
	s.Pair = NewLJ(1, 1, 2.5)
	s.Frozen = make([]bool, s.N())
	for i, p := range s.Pos {
		if p.Z < 0.5 {
			s.Frozen[i] = true
		}
	}
	frozenPos := map[int]Vec3{}
	for i, fz := range s.Frozen {
		if fz {
			frozenPos[i] = s.Pos[i]
		}
	}
	s.InitVelocities(0.3)
	s.Run(50)
	for i, want := range frozenPos {
		if s.Pos[i] != want {
			t.Fatalf("frozen atom %d moved from %v to %v", i, want, s.Pos[i])
		}
	}
}

func TestChainBondsStayNearR0(t *testing.T) {
	box := Box{L: Vec3{50, 50, 50}}
	s := NewSystem(box, nil, 12)
	first, last := s.Chain(30, Vec3{25, 25, 25}, 1.0, 200, 20)
	if last-first != 29 {
		t.Fatalf("chain range %d-%d", first, last)
	}
	if len(s.Bonds) != 29 || len(s.Angles) != 28 {
		t.Fatalf("topology: %d bonds %d angles", len(s.Bonds), len(s.Angles))
	}
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	s.Pair = NewLJ(0.2, 0.9, 2.0)
	s.ExcludeBonded()
	s.Thermo = Langevin
	s.Temp = 0.3
	s.Gamma = 5
	s.Dt = 0.002
	s.InitVelocities(0.3)
	s.Run(1000)
	for _, b := range s.Bonds {
		r := s.Box.Delta(s.Pos[b.I], s.Pos[b.J]).Norm()
		if math.Abs(r-b.R0) > 0.4 {
			t.Fatalf("bond %d-%d stretched to %v (r0=%v)", b.I, b.J, r, b.R0)
		}
	}
}

func TestAngleForceLowersEnergyTowardEquilibrium(t *testing.T) {
	// Three atoms at a right angle with θ0=109.5° should feel forces that
	// open the angle; energy decreases along the force direction.
	box := Box{L: Vec3{100, 100, 100}}
	pos := []Vec3{{1, 0, 0}, {0, 0, 0}, {0, 1, 0}}
	s := NewSystem(box, pos, 13)
	s.Angles = []Angle{{I: 0, J: 1, K: 2, KTheta: 10, T0: 1.9106}}
	u0 := s.ComputeForces()
	// Step a tiny bit along the forces.
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Add(s.Force[i].Scale(1e-4))
	}
	u1 := s.ComputeForces()
	if u1 >= u0 {
		t.Errorf("energy did not decrease along forces: %v -> %v", u0, u1)
	}
}

func TestBarnesHutMatchesDirect(t *testing.T) {
	g := NewGravity(400, 10, 3)
	g.Theta = 0.5
	g.ComputeAccel()
	direct := g.directAccel()
	// Compare against the RMS force scale: per-particle relative error is
	// meaningless where opposing pulls cancel to near zero.
	var sumErr2, sumRef2 float64
	for i := range direct {
		sumErr2 += g.acc[i].Sub(direct[i]).Norm2()
		sumRef2 += direct[i].Norm2()
	}
	rel := math.Sqrt(sumErr2 / sumRef2)
	if rel > 0.05 {
		t.Errorf("Barnes-Hut RMS relative error %v vs direct", rel)
	}
}

func TestGravityStepMoves(t *testing.T) {
	g := NewGravity(500, 10, 4)
	x0, _, _ := g.Snapshot()
	g.Run(5)
	x1, _, _ := g.Snapshot()
	moved := 0
	for i := range x0 {
		if x0[i] != x1[i] {
			moved++
		}
	}
	if moved < len(x0)/2 {
		t.Errorf("only %d/%d particles moved", moved, len(x0))
	}
	for _, p := range g.Pos {
		if p.X < 0 || p.X >= g.Box.L.X {
			t.Fatalf("particle escaped box: %v", p)
		}
	}
}

func TestSnapshotShapes(t *testing.T) {
	pos, box := FCC(2, 2, 2, 1.5)
	s := NewSystem(box, pos, 14)
	x, y, z := s.Snapshot()
	if len(x) != s.N() || len(y) != s.N() || len(z) != s.N() {
		t.Error("snapshot lengths")
	}
	if x[0] != s.Pos[0].X || z[3] != s.Pos[3].Z {
		t.Error("snapshot values")
	}
}

func TestLJPotentialShape(t *testing.T) {
	lj := NewLJ(1, 1, 2.5)
	// Minimum at r = 2^(1/6)σ: force ≈ 0.
	rm := math.Pow(2, 1.0/6)
	_, g := lj.EnergyForce(rm * rm)
	if math.Abs(g) > 1e-9 {
		t.Errorf("force at minimum = %v", g)
	}
	// Repulsive inside the minimum.
	_, g = lj.EnergyForce(0.9 * 0.9)
	if g <= 0 {
		t.Errorf("force at r=0.9 should be repulsive, got %v", g)
	}
	// Zero beyond cutoff.
	if u, g := lj.EnergyForce(2.6 * 2.6); u != 0 || g != 0 {
		t.Error("beyond-cutoff interaction")
	}
	// Energy continuous at the cutoff (shifted).
	u, _ := lj.EnergyForce(2.4999999 * 2.4999999)
	if math.Abs(u) > 1e-5 {
		t.Errorf("energy at cutoff = %v, want ≈0 (shifted)", u)
	}
}

func BenchmarkLJStep(b *testing.B) {
	pos, box := FCC(8, 8, 8, 1.7)
	s := NewSystem(box, pos, 1)
	s.Pair = NewLJ(1, 1, 2.5)
	s.InitVelocities(0.5)
	s.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkBarnesHutStep(b *testing.B) {
	g := NewGravity(5000, 10, 1)
	g.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step()
	}
}

func TestGravityEnergyConservation(t *testing.T) {
	// Leapfrog with softened gravity: total energy should drift only
	// slightly over a short run (Barnes-Hut adds bounded force error).
	g := NewGravity(300, 10, 6)
	g.Theta = 0.4
	g.Dt = 0.05
	g.Step() // prime accelerations
	e0 := g.energy()
	g.Run(40)
	e1 := g.energy()
	scale := math.Abs(e0)
	if scale == 0 {
		t.Skip("degenerate zero-energy configuration")
	}
	if drift := math.Abs(e1-e0) / scale; drift > 0.05 {
		t.Errorf("gravity energy drift %.3f over 40 steps (E0=%v E1=%v)", drift, e0, e1)
	}
}
