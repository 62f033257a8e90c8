// Package dataset models MD trajectory data as the paper formulates it
// (§IV): a dataset D of M snapshots, each holding N particles with three
// axis values {x, y, z}, processed in batches of BS snapshots.
//
// The package also defines a simple binary container format so generated
// trajectories can be cached on disk and fed to the CLI tools.
package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Axis selects one coordinate component.
type Axis int

// The three coordinate axes.
const (
	AxisX Axis = iota
	AxisY
	AxisZ
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	switch a {
	case AxisX:
		return "x"
	case AxisY:
		return "y"
	case AxisZ:
		return "z"
	}
	return fmt.Sprintf("axis(%d)", int(a))
}

// Axes lists all three axes in order.
var Axes = []Axis{AxisX, AxisY, AxisZ}

// Frame is one simulation snapshot: per-axis position arrays of equal
// length (the particle count N).
type Frame struct {
	X, Y, Z []float64
}

// NewFrame allocates a frame for n particles.
func NewFrame(n int) Frame {
	return Frame{X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n)}
}

// N reports the particle count.
func (f Frame) N() int { return len(f.X) }

// Axis returns the position slice for axis a (no copy).
func (f Frame) Axis(a Axis) []float64 {
	switch a {
	case AxisX:
		return f.X
	case AxisY:
		return f.Y
	default:
		return f.Z
	}
}

// Metadata carries dataset provenance, including the *original* scale from
// the paper's Table I, which drives the TNG/HRTC exclusion emulation.
type Metadata struct {
	// Name is the dataset identifier, e.g. "Copper-B".
	Name string
	// State is the physical state from Table I (Solid/Plasma/Protein/Liquid).
	State string
	// Code is the producing simulation package from Table I.
	Code string
	// OriginalAtoms and OriginalSnapshots are the paper's full-scale counts.
	OriginalAtoms, OriginalSnapshots int
	// Box is the periodic box edge length (0 if non-periodic), used by RDF.
	Box float64
}

// Dataset is a full trajectory plus metadata.
type Dataset struct {
	Meta   Metadata
	Frames []Frame
}

// M reports the snapshot count.
func (d *Dataset) M() int { return len(d.Frames) }

// N reports the particle count (0 for an empty dataset).
func (d *Dataset) N() int {
	if len(d.Frames) == 0 {
		return 0
	}
	return d.Frames[0].N()
}

// SizeBytes reports the raw size of the position payload (M×N×3×8).
func (d *Dataset) SizeBytes() int { return d.M() * d.N() * 3 * 8 }

// AxisSeries returns per-snapshot position slices for one axis, the layout
// every compressor in this module consumes. Slices alias the dataset.
func (d *Dataset) AxisSeries(a Axis) [][]float64 {
	out := make([][]float64, len(d.Frames))
	for i, f := range d.Frames {
		out[i] = f.Axis(a)
	}
	return out
}

const fileMagic = "MDZD"

// readChunk is the number of values Read decodes per read call.
const readChunk = 8192

var errBadFile = errors.New("dataset: not an MDZD trajectory file")

// Write serializes the dataset to w: magic, metadata, then frame-major
// little-endian float64 payload (x array, y array, z array per frame).
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	writeStr := func(s string) error {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	for _, s := range []string{d.Meta.Name, d.Meta.State, d.Meta.Code} {
		if err := writeStr(s); err != nil {
			return err
		}
	}
	hdr := []uint64{
		uint64(d.Meta.OriginalAtoms), uint64(d.Meta.OriginalSnapshots),
		math.Float64bits(d.Meta.Box), uint64(d.M()), uint64(d.N()),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	buf := make([]byte, 8)
	for _, f := range d.Frames {
		for _, a := range Axes {
			for _, v := range f.Axis(a) {
				binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
				if _, err := bw.Write(buf); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Read parses a dataset written by Write.
func Read(r io.Reader) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 8*readChunk)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != fileMagic {
		return nil, errBadFile
	}
	readStr := func() (string, error) {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return "", err
		}
		if n > 1<<16 {
			return "", errBadFile
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	d := &Dataset{}
	var err error
	if d.Meta.Name, err = readStr(); err != nil {
		return nil, err
	}
	if d.Meta.State, err = readStr(); err != nil {
		return nil, err
	}
	if d.Meta.Code, err = readStr(); err != nil {
		return nil, err
	}
	var hdr [5]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, err
		}
	}
	d.Meta.OriginalAtoms = int(hdr[0])
	d.Meta.OriginalSnapshots = int(hdr[1])
	d.Meta.Box = math.Float64frombits(hdr[2])
	m, n := int(hdr[3]), int(hdr[4])
	// Frames of no particles have no bytes behind them, so nothing but the
	// header would back their count.
	if m < 0 || n < 0 || uint64(m)*uint64(n) > 1<<32 || (n == 0 && m > 0) {
		return nil, errBadFile
	}
	// Memory follows the data, not the header: frames are appended as they
	// are read, and the first frame's axes grow one chunk at a time. Later
	// frames are allocated whole, a size the first frame's bytes back.
	buf := make([]byte, 8*readChunk)
	for i := 0; i < m; i++ {
		size := n
		if i == 0 {
			size = min(n, readChunk)
		}
		var axes [3][]float64
		for a := range axes {
			vals := make([]float64, 0, size)
			for len(vals) < n {
				lo := len(vals)
				k := min(n-lo, readChunk)
				if _, err := io.ReadFull(br, buf[:8*k]); err != nil {
					return nil, err
				}
				vals = slices.Grow(vals, k)[:lo+k]
				for j := range vals[lo:] {
					vals[lo+j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
				}
			}
			axes[a] = vals
		}
		d.Frames = append(d.Frames, Frame{X: axes[0], Y: axes[1], Z: axes[2]})
	}
	return d, nil
}

// Save writes the dataset to path.
func (d *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a dataset from path.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
