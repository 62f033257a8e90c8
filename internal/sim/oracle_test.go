package sim

// Test oracles: the conserved quantities the integrators are checked
// against, and the direct sum the Barnes-Hut tree is checked against.

import (
	"fmt"
	"math"
)

// totalEnergy returns kinetic plus the potential energy of the last force
// evaluation.
func (s *System) totalEnergy() float64 { return s.KineticEnergy() + s.potential }

// momentum returns the total momentum vector.
func (s *System) momentum() Vec3 {
	var p Vec3
	for i := range s.Vel {
		p = p.Add(s.Vel[i].Scale(s.Mass[i]))
	}
	return p
}

// validate checks that the per-atom arrays agree in length and that every
// bond and angle indexes an atom.
func (s *System) validate() error {
	n := s.N()
	if len(s.Vel) != n || len(s.Force) != n || len(s.Mass) != n {
		return fmt.Errorf("sim: inconsistent array lengths")
	}
	for _, b := range s.Bonds {
		if b.I < 0 || b.I >= n || b.J < 0 || b.J >= n {
			return fmt.Errorf("sim: bond index out of range")
		}
	}
	for _, a := range s.Angles {
		if a.I < 0 || a.I >= n || a.J < 0 || a.J >= n || a.K < 0 || a.K >= n {
			return fmt.Errorf("sim: angle index out of range")
		}
	}
	return nil
}

// directAccel computes exact pairwise accelerations (O(N²)), the reference
// for the Barnes-Hut tree.
func (g *Gravity) directAccel() []Vec3 {
	n := g.N()
	out := make([]Vec3, n)
	soft2 := g.Soft * g.Soft
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := g.Box.Delta(g.Pos[j], g.Pos[i])
			r2 := d.Norm2()
			inv := 1 / math.Pow(r2+soft2, 1.5)
			out[i] = out[i].Add(d.Scale(g.G * inv))
		}
	}
	return out
}

// energy returns the total energy: kinetic plus softened pairwise
// potential −G·Σ 1/√(r²+ε²), computed by direct sum (O(N²)).
func (g *Gravity) energy() float64 {
	var ke float64
	for _, v := range g.Vel {
		ke += 0.5 * v.Norm2()
	}
	var pe float64
	soft2 := g.Soft * g.Soft
	n := g.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r2 := g.Box.Delta(g.Pos[i], g.Pos[j]).Norm2()
			pe -= g.G / math.Sqrt(r2+soft2)
		}
	}
	return ke + pe
}
