package sim

import (
	"math"
	"math/rand"
)

// Thermostat selects the temperature-control scheme.
type Thermostat uint8

// Thermostats. NVE integrates without temperature control; Langevin adds
// friction plus matched random kicks; Berendsen rescales velocities toward
// the target with a relaxation time.
const (
	NVE Thermostat = iota
	Langevin
	Berendsen
)

// System is a classical MD system integrated with velocity Verlet. Reduced
// (LJ) units are used throughout: kB = 1, mass defaults to 1.
type System struct {
	Box   Box
	Pos   []Vec3
	Vel   []Vec3
	Force []Vec3
	Mass  []float64

	// Pair is the non-bonded potential; nil disables pair forces.
	Pair *LJ
	// Bonds and Angles hold the bonded topology for chain molecules.
	Bonds  []Bond
	Angles []Angle
	// Exclude suppresses pair interactions between directly bonded atoms.
	Exclude map[[2]int]bool

	// Thermo selects the thermostat; Temp is its target temperature.
	Thermo Thermostat
	Temp   float64
	// Gamma is the Langevin friction (1/time); Tau the Berendsen relaxation
	// time.
	Gamma, Tau float64
	// Dt is the integration timestep.
	Dt float64

	// Frozen marks atoms excluded from integration (e.g. bottom slab
	// layers).
	Frozen []bool

	rng       *rand.Rand
	potential float64
	steps     int
}

// NewSystem builds a system over the given positions with zero velocities
// and unit masses.
func NewSystem(box Box, pos []Vec3, seed int64) *System {
	n := len(pos)
	s := &System{
		Box:   box,
		Pos:   append([]Vec3(nil), pos...),
		Vel:   make([]Vec3, n),
		Force: make([]Vec3, n),
		Mass:  make([]float64, n),
		Dt:    0.005,
		rng:   rand.New(rand.NewSource(seed)),
	}
	for i := range s.Mass {
		s.Mass[i] = 1
	}
	return s
}

// N reports the atom count.
func (s *System) N() int { return len(s.Pos) }

// InitVelocities draws Maxwell-Boltzmann velocities at temperature t and
// removes the centre-of-mass drift.
func (s *System) InitVelocities(t float64) {
	for i := range s.Vel {
		sd := math.Sqrt(t / s.Mass[i])
		s.Vel[i] = Vec3{
			s.rng.NormFloat64() * sd,
			s.rng.NormFloat64() * sd,
			s.rng.NormFloat64() * sd,
		}
	}
	s.RemoveDrift()
}

// RemoveDrift zeroes the centre-of-mass momentum.
func (s *System) RemoveDrift() {
	var p Vec3
	var m float64
	for i := range s.Vel {
		p = p.Add(s.Vel[i].Scale(s.Mass[i]))
		m += s.Mass[i]
	}
	if m == 0 {
		return
	}
	corr := p.Scale(1 / m)
	for i := range s.Vel {
		if s.Frozen != nil && s.Frozen[i] {
			continue
		}
		s.Vel[i] = s.Vel[i].Sub(corr)
	}
}

// ComputeForces fills Force and returns the potential energy.
func (s *System) ComputeForces() float64 {
	for i := range s.Force {
		s.Force[i] = Vec3{}
	}
	var u float64
	if s.Pair != nil {
		cl := newCellList(s.Box, s.Pos, s.Pair.Cutoff)
		cut2 := s.Pair.Cutoff * s.Pair.Cutoff
		cl.forEachPair(s.Pos, func(i, j int) {
			if s.Exclude != nil {
				a, b := i, j
				if a > b {
					a, b = b, a
				}
				if s.Exclude[[2]int{a, b}] {
					return
				}
			}
			d := s.Box.Delta(s.Pos[i], s.Pos[j])
			r2 := d.Norm2()
			if r2 >= cut2 {
				return
			}
			du, g := s.Pair.EnergyForce(r2)
			u += du
			fv := d.Scale(g)
			s.Force[i] = s.Force[i].Add(fv)
			s.Force[j] = s.Force[j].Sub(fv)
		})
	}
	u += bondForces(s.Box, s.Pos, s.Bonds, s.Force)
	u += angleForces(s.Box, s.Pos, s.Angles, s.Force)
	s.potential = u
	return u
}

// Step advances the system one velocity-Verlet timestep, applying the
// configured thermostat.
func (s *System) Step() {
	if s.steps == 0 {
		s.ComputeForces()
	}
	dt := s.Dt
	half := 0.5 * dt
	for i := range s.Pos {
		if s.Frozen != nil && s.Frozen[i] {
			continue
		}
		inv := 1 / s.Mass[i]
		s.Vel[i] = s.Vel[i].Add(s.Force[i].Scale(half * inv))
		s.Pos[i] = s.Box.Wrap(s.Pos[i].Add(s.Vel[i].Scale(dt)))
	}
	s.ComputeForces()
	for i := range s.Pos {
		if s.Frozen != nil && s.Frozen[i] {
			continue
		}
		inv := 1 / s.Mass[i]
		s.Vel[i] = s.Vel[i].Add(s.Force[i].Scale(half * inv))
	}
	s.applyThermostat()
	s.steps++
}

// Run advances n steps.
func (s *System) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

func (s *System) applyThermostat() {
	switch s.Thermo {
	case Langevin:
		gamma := s.Gamma
		if gamma <= 0 {
			gamma = 1
		}
		c1 := math.Exp(-gamma * s.Dt)
		for i := range s.Vel {
			if s.Frozen != nil && s.Frozen[i] {
				continue
			}
			c2 := math.Sqrt(s.Temp / s.Mass[i] * (1 - c1*c1))
			s.Vel[i] = s.Vel[i].Scale(c1).Add(Vec3{
				s.rng.NormFloat64() * c2,
				s.rng.NormFloat64() * c2,
				s.rng.NormFloat64() * c2,
			})
		}
	case Berendsen:
		tau := s.Tau
		if tau <= 0 {
			tau = 100 * s.Dt
		}
		t := s.Temperature()
		if t <= 0 {
			return
		}
		lam := math.Sqrt(1 + s.Dt/tau*(s.Temp/t-1))
		for i := range s.Vel {
			if s.Frozen != nil && s.Frozen[i] {
				continue
			}
			s.Vel[i] = s.Vel[i].Scale(lam)
		}
	}
}

// KineticEnergy returns ½Σmv².
func (s *System) KineticEnergy() float64 {
	var ke float64
	for i := range s.Vel {
		ke += 0.5 * s.Mass[i] * s.Vel[i].Norm2()
	}
	return ke
}

// Temperature returns the instantaneous kinetic temperature (kB = 1).
func (s *System) Temperature() float64 {
	dof := 0
	for i := range s.Vel {
		if s.Frozen != nil && s.Frozen[i] {
			continue
		}
		dof += 3
	}
	if dof == 0 {
		return 0
	}
	return 2 * s.KineticEnergy() / float64(dof)
}

// ExcludeBonded populates Exclude with every directly bonded pair, the
// standard convention for chain molecules.
func (s *System) ExcludeBonded() {
	s.Exclude = make(map[[2]int]bool, len(s.Bonds))
	for _, b := range s.Bonds {
		a, c := b.I, b.J
		if a > c {
			a, c = c, a
		}
		s.Exclude[[2]int{a, c}] = true
	}
}

// Chain appends a linear chain molecule of n beads starting at origin with
// bond length r0, returning the index range added. Beads are placed with a
// self-avoiding random walk (candidate directions are rejected while they
// land within 0.85·r0 of any existing bead, preventing the hard-core LJ
// blow-ups of overlapping starts); bonds and angles are registered.
func (s *System) Chain(n int, origin Vec3, r0, kBond, kAngle float64) (first, last int) {
	first = len(s.Pos)
	p := origin
	dir := Vec3{1, 0, 0}
	minDist2 := (0.85 * r0) * (0.85 * r0)
	for i := 0; i < n; i++ {
		s.Pos = append(s.Pos, s.Box.Wrap(p))
		s.Vel = append(s.Vel, Vec3{})
		s.Force = append(s.Force, Vec3{})
		s.Mass = append(s.Mass, 1)
		if s.Frozen != nil {
			s.Frozen = append(s.Frozen, false)
		}
		// Pick the next position: bend the growth direction slightly,
		// retrying (then taking the least-bad candidate) when the step
		// would clash with an existing bead.
		bestP := Vec3{}
		bestClear := -1.0
		for try := 0; try < 30; try++ {
			cand := dir.Add(Vec3{
				s.rng.NormFloat64() * 0.3,
				s.rng.NormFloat64() * 0.3,
				s.rng.NormFloat64() * 0.3,
			})
			cand = cand.Scale(1 / cand.Norm())
			np := p.Add(cand.Scale(r0))
			clear := math.Inf(1)
			// Check against every existing atom (other chains included)
			// except the bead just placed, which is r0 away by construction.
			for j := 0; j < len(s.Pos)-1; j++ {
				d2 := s.Box.Delta(np, s.Pos[j]).Norm2()
				if d2 < clear {
					clear = d2
				}
			}
			if clear > bestClear {
				bestClear = clear
				bestP = np
				dir = cand
			}
			if clear >= minDist2 {
				break
			}
		}
		p = bestP
	}
	last = len(s.Pos) - 1
	for i := first; i < last; i++ {
		s.Bonds = append(s.Bonds, Bond{I: i, J: i + 1, K: kBond, R0: r0})
	}
	theta0 := 1.9106 // ~109.5° tetrahedral
	for i := first; i+2 <= last; i++ {
		s.Angles = append(s.Angles, Angle{I: i, J: i + 1, K: i + 2, KTheta: kAngle, T0: theta0})
	}
	return first, last
}

// Snapshot copies current positions into per-axis arrays.
func (s *System) Snapshot() (x, y, z []float64) {
	n := s.N()
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	for i, p := range s.Pos {
		x[i], y[i], z[i] = p.X, p.Y, p.Z
	}
	return x, y, z
}
