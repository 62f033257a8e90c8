package sim

import (
	"math"
	"math/rand"
)

// Gravity is a softened-gravity N-body system solved with a Barnes-Hut
// octree and kick-drift-kick leapfrog integration. It synthesizes the
// HACC-analog cosmology datasets of the paper's generalizability study
// (Fig 16).
type Gravity struct {
	Box Box
	Pos []Vec3
	Vel []Vec3
	// G is the gravitational constant (reduced units), Soft the Plummer
	// softening length, Theta the Barnes-Hut opening angle.
	G, Soft, Theta float64
	Dt             float64

	acc   []Vec3
	steps int
}

// NewGravity builds a gravity system with n particles distributed as a
// mildly clustered random field inside a periodic cube of edge l.
func NewGravity(n int, l float64, seed int64) *Gravity {
	rng := rand.New(rand.NewSource(seed))
	g := &Gravity{
		Box:   NewCubicBox(l),
		Pos:   make([]Vec3, n),
		Vel:   make([]Vec3, n),
		acc:   make([]Vec3, n),
		G:     1e-4,
		Soft:  l * 0.005,
		Theta: 0.6,
		Dt:    0.1,
	}
	// Mixture of a uniform field and Gaussian blobs (proto-halos).
	nBlobs := 1 + n/2000
	centers := make([]Vec3, nBlobs)
	for i := range centers {
		centers[i] = Vec3{rng.Float64() * l, rng.Float64() * l, rng.Float64() * l}
	}
	for i := range g.Pos {
		if rng.Float64() < 0.5 {
			g.Pos[i] = Vec3{rng.Float64() * l, rng.Float64() * l, rng.Float64() * l}
		} else {
			c := centers[rng.Intn(nBlobs)]
			g.Pos[i] = g.Box.Wrap(c.Add(Vec3{
				rng.NormFloat64() * l * 0.05,
				rng.NormFloat64() * l * 0.05,
				rng.NormFloat64() * l * 0.05,
			}))
		}
		g.Vel[i] = Vec3{
			rng.NormFloat64() * 0.01,
			rng.NormFloat64() * 0.01,
			rng.NormFloat64() * 0.01,
		}
	}
	return g
}

// N reports the particle count.
func (g *Gravity) N() int { return len(g.Pos) }

// octNode is a Barnes-Hut octree node over a cubic region.
type octNode struct {
	center   Vec3    // region centre
	half     float64 // half edge length
	com      Vec3    // centre of mass
	mass     float64
	particle int // particle index for leaves, -1 otherwise
	children [8]*octNode
	leaf     bool
}

// buildOctree constructs the tree over all particles (unit masses).
func buildOctree(pos []Vec3, box Box) *octNode {
	half := math.Max(box.L.X, math.Max(box.L.Y, box.L.Z)) / 2
	root := &octNode{
		center:   Vec3{box.L.X / 2, box.L.Y / 2, box.L.Z / 2},
		half:     half,
		particle: -1,
		leaf:     true,
	}
	for i := range pos {
		root.insert(pos[i], i)
	}
	root.summarize()
	return root
}

func (n *octNode) insert(p Vec3, idx int) {
	if n.leaf && n.particle < 0 && n.mass == 0 {
		// Empty leaf: claim it.
		n.particle = idx
		n.com = p
		n.mass = 1
		return
	}
	if n.leaf {
		// Split: push existing occupant down, then insert the new one.
		if n.half < 1e-9 {
			// Coincident particles: aggregate mass at this node.
			n.mass++
			return
		}
		old, oldPos := n.particle, n.com
		n.leaf = false
		n.particle = -1
		if old >= 0 {
			n.childFor(oldPos).insert(oldPos, old)
		}
	}
	n.childFor(p).insert(p, idx)
	n.mass++ // provisional; summarize() recomputes exactly
}

func (n *octNode) childFor(p Vec3) *octNode {
	oct := 0
	if p.X >= n.center.X {
		oct |= 1
	}
	if p.Y >= n.center.Y {
		oct |= 2
	}
	if p.Z >= n.center.Z {
		oct |= 4
	}
	if n.children[oct] == nil {
		h := n.half / 2
		off := Vec3{-h, -h, -h}
		if oct&1 != 0 {
			off.X = h
		}
		if oct&2 != 0 {
			off.Y = h
		}
		if oct&4 != 0 {
			off.Z = h
		}
		n.children[oct] = &octNode{
			center:   n.center.Add(off),
			half:     h,
			particle: -1,
			leaf:     true,
		}
	}
	return n.children[oct]
}

// summarize recomputes mass and centre of mass bottom-up.
func (n *octNode) summarize() (mass float64, weighted Vec3) {
	if n.leaf {
		return n.mass, n.com.Scale(n.mass)
	}
	var m float64
	var w Vec3
	for _, c := range n.children {
		if c == nil {
			continue
		}
		cm, cw := c.summarize()
		m += cm
		w = w.Add(cw)
	}
	n.mass = m
	if m > 0 {
		n.com = w.Scale(1 / m)
	}
	return m, w
}

// accel computes the Barnes-Hut acceleration on a particle at p (excluding
// self-interaction via softening; exact exclusion is unnecessary with
// Plummer softening because the self term is zero distance → zero force
// only if skipped, so leaves matching selfIdx are skipped).
func (g *Gravity) accel(root *octNode, p Vec3, selfIdx int) Vec3 {
	var a Vec3
	soft2 := g.Soft * g.Soft
	var walk func(n *octNode)
	walk = func(n *octNode) {
		if n == nil || n.mass == 0 {
			return
		}
		if n.leaf && n.particle == selfIdx && n.mass <= 1 {
			return
		}
		d := g.Box.Delta(n.com, p)
		r2 := d.Norm2()
		if n.leaf || (n.half*2)/math.Sqrt(r2+1e-300) < g.Theta {
			inv := 1 / math.Pow(r2+soft2, 1.5)
			a = a.Add(d.Scale(g.G * n.mass * inv))
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(root)
	return a
}

// ComputeAccel fills the acceleration array via Barnes-Hut.
func (g *Gravity) ComputeAccel() {
	root := buildOctree(g.Pos, g.Box)
	for i := range g.Pos {
		g.acc[i] = g.accel(root, g.Pos[i], i)
	}
}

// Step advances one kick-drift-kick leapfrog step.
func (g *Gravity) Step() {
	if g.steps == 0 {
		g.ComputeAccel()
	}
	half := 0.5 * g.Dt
	for i := range g.Pos {
		g.Vel[i] = g.Vel[i].Add(g.acc[i].Scale(half))
		g.Pos[i] = g.Box.Wrap(g.Pos[i].Add(g.Vel[i].Scale(g.Dt)))
	}
	g.ComputeAccel()
	for i := range g.Pos {
		g.Vel[i] = g.Vel[i].Add(g.acc[i].Scale(half))
	}
	g.steps++
}

// Run advances n steps.
func (g *Gravity) Run(n int) {
	for i := 0; i < n; i++ {
		g.Step()
	}
}

// Snapshot copies positions into per-axis arrays.
func (g *Gravity) Snapshot() (x, y, z []float64) {
	n := g.N()
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	for i, p := range g.Pos {
		x[i], y[i], z[i] = p.X, p.Y, p.Z
	}
	return x, y, z
}
