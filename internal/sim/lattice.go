package sim

// FCC generates an nx×ny×nz face-centred-cubic lattice (4 atoms per unit
// cell of edge a), the crystal structure of copper and platinum. The
// returned box exactly tiles the lattice.
func FCC(nx, ny, nz int, a float64) ([]Vec3, Box) {
	basis := []Vec3{
		{0, 0, 0},
		{0.5, 0.5, 0},
		{0.5, 0, 0.5},
		{0, 0.5, 0.5},
	}
	return lattice(nx, ny, nz, a, basis)
}

// BCC generates an nx×ny×nz body-centred-cubic lattice (2 atoms per unit
// cell of edge a), the crystal structure of tungsten.
func BCC(nx, ny, nz int, a float64) ([]Vec3, Box) {
	basis := []Vec3{
		{0, 0, 0},
		{0.5, 0.5, 0.5},
	}
	return lattice(nx, ny, nz, a, basis)
}

func lattice(nx, ny, nz int, a float64, basis []Vec3) ([]Vec3, Box) {
	pos := make([]Vec3, 0, nx*ny*nz*len(basis))
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				origin := Vec3{float64(ix), float64(iy), float64(iz)}
				for _, b := range basis {
					pos = append(pos, origin.Add(b).Scale(a))
				}
			}
		}
	}
	box := Box{L: Vec3{float64(nx) * a, float64(ny) * a, float64(nz) * a}, Periodic: true}
	return pos, box
}

// Slab generates an FCC slab occupying the lower nzFilled layers of an
// nx×ny×nz cell, leaving vacuum above — a surface geometry like the paper's
// Pt adatom-diffusion run. The box stays periodic in x/y and tall enough in
// z that the vacuum gap prevents self-interaction.
func Slab(nx, ny, nzFilled, nzTotal int, a float64) ([]Vec3, Box) {
	pos, _ := FCC(nx, ny, nzFilled, a)
	box := Box{L: Vec3{float64(nx) * a, float64(ny) * a, float64(nzTotal) * a}, Periodic: true}
	return pos, box
}
