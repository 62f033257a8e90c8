package sim

import "math"

// Box is an orthorhombic simulation cell. Periodic selects whether minimum
// image conventions and coordinate wrapping apply.
type Box struct {
	// L holds the edge lengths.
	L Vec3
	// Periodic enables periodic boundary conditions on all axes.
	Periodic bool
}

// NewCubicBox returns a periodic cubic box of edge l.
func NewCubicBox(l float64) Box {
	return Box{L: Vec3{l, l, l}, Periodic: true}
}

// Wrap maps p into the primary cell [0, L) per axis. Non-periodic boxes
// return p unchanged.
func (b Box) Wrap(p Vec3) Vec3 {
	if !b.Periodic {
		return p
	}
	return Vec3{wrap1(p.X, b.L.X), wrap1(p.Y, b.L.Y), wrap1(p.Z, b.L.Z)}
}

func wrap1(x, l float64) float64 {
	if l <= 0 {
		return x
	}
	x = math.Mod(x, l)
	if x < 0 {
		x += l
	}
	return x
}

// Delta returns the minimum-image displacement from q to p (p − q).
func (b Box) Delta(p, q Vec3) Vec3 {
	d := p.Sub(q)
	if !b.Periodic {
		return d
	}
	return Vec3{mi(d.X, b.L.X), mi(d.Y, b.L.Y), mi(d.Z, b.L.Z)}
}

func mi(d, l float64) float64 {
	if l <= 0 {
		return d
	}
	d -= l * math.Round(d/l)
	return d
}
