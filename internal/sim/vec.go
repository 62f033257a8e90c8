// Package sim is a from-scratch molecular-dynamics engine plus a
// gravitational N-body integrator. It is the data substrate of this
// reproduction: the paper evaluated MDZ on trajectories from LAMMPS, EXAALT
// and CHARMM runs on LANL/ANL supercomputers; those datasets are not
// redistributable, so internal/gen drives this engine to synthesize
// trajectories with the same qualitative structure (crystalline level
// clustering, protein vibration, liquid temporal smoothness, surface
// diffusion, cosmological drift).
//
// Capabilities: Lennard-Jones pair potential with cell-list neighbor
// search, harmonic bond and angle terms for chain molecules, velocity
// Verlet integration with optional Langevin or Berendsen thermostats,
// periodic boundaries, FCC/BCC lattice construction, Maxwell-Boltzmann
// initialization, and a Barnes-Hut octree gravity solver with leapfrog
// integration for the HACC-analog datasets.
package sim

import "math"

// Vec3 is a 3-component vector.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v − w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm2 returns |v|².
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Norm2()) }
