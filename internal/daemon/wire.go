package daemon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	mdz "github.com/mdz/mdz"
)

// The frame wire format used on both directions of the HTTP API is a flat
// sequence of snapshot records: a uint32 little-endian atom count n
// followed by the X, Y and Z axes, each n IEEE-754 float64s little-endian.
// It is self-delimiting (records abut until EOF), streamable, and trivial
// to emit from any client without a schema library.

// maxWireAtoms caps the per-snapshot atom count a request may claim before
// the server allocates for it (1<<26 atoms ≈ 1.6 GB per snapshot record —
// far past any real trajectory, close enough to stop length forgeries).
const maxWireAtoms = 1 << 26

// wireFrameBytes is the wire (and approximate resident) size of one record.
func wireFrameBytes(n int) int64 { return 4 + 3*8*int64(n) }

// errWireFormat tags malformed request payloads (client error, not server).
var errWireFormat = errors.New("malformed frame record")

// wireChunkValues bounds how many values of a record body are read, and
// allocated for, ahead of the bytes that carry them. A record therefore
// allocates in proportion to the bytes that actually arrive, not to the
// count its header claims.
const wireChunkValues = 8192

// readWireFrame reads one snapshot record. charge, when non-nil, receives
// the record's atom count after the header and before anything is
// allocated for the body; its error aborts the read. io.EOF is returned
// untouched when the source ends cleanly before a record starts; a record
// cut partway through reports errWireFormat.
func readWireFrame(r io.Reader, charge func(n int) error) (mdz.Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return mdz.Frame{}, io.EOF
		}
		return mdz.Frame{}, fmt.Errorf("%w: record cut inside the atom count", errWireFormat)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 || n > maxWireAtoms {
		return mdz.Frame{}, fmt.Errorf("%w: atom count %d out of range [1, %d]", errWireFormat, n, maxWireAtoms)
	}
	if charge != nil {
		if err := charge(n); err != nil {
			return mdz.Frame{}, err
		}
	}
	buf := make([]byte, 8*min(n, wireChunkValues))
	axes := [3][]float64{}
	for a := range axes {
		vals := make([]float64, 0, min(n, wireChunkValues))
		for len(vals) < n {
			k := min(n-len(vals), wireChunkValues)
			if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
				return mdz.Frame{}, fmt.Errorf("%w: record cut inside axis %d", errWireFormat, a)
			}
			base := len(vals)
			vals = slices.Grow(vals, k)[:base+k]
			for i := range k {
				vals[base+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
			}
		}
		axes[a] = vals
	}
	return mdz.Frame{X: axes[0], Y: axes[1], Z: axes[2]}, nil
}

// writeWireFrame emits one snapshot record.
func writeWireFrame(w io.Writer, f mdz.Frame) error {
	n := f.N()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(n))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 8*n)
	for _, axis := range [3][]float64{f.X, f.Y, f.Z} {
		for i, v := range axis {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
