package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteXYZ serializes the dataset in the ubiquitous extended-XYZ text
// format (one block per frame: atom count, comment line, then
// "element x y z" rows), for interoperability with VMD, OVITO, ASE and
// other MD tooling.
func (d *Dataset) WriteXYZ(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for fi, f := range d.Frames {
		fmt.Fprintf(bw, "%d\n", f.N())
		fmt.Fprintf(bw, "frame=%d dataset=%s\n", fi, d.Meta.Name)
		for i := 0; i < f.N(); i++ {
			fmt.Fprintf(bw, "X %.17g %.17g %.17g\n", f.X[i], f.Y[i], f.Z[i])
		}
	}
	return bw.Flush()
}

// errBadXYZ is wrapped by every ReadXYZ error about the input's content.
var errBadXYZ = errors.New("dataset: malformed XYZ input")

// ReadXYZ parses an XYZ trajectory written by WriteXYZ or standard MD
// tools. Element symbols are ignored; all frames must share an atom count.
func ReadXYZ(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	d := &Dataset{}
	for {
		// Atom-count line (skip blank lines between frames).
		var countLine string
		ok := false
		for sc.Scan() {
			countLine = strings.TrimSpace(sc.Text())
			if countLine != "" {
				ok = true
				break
			}
		}
		if !ok {
			break
		}
		n, err := strconv.Atoi(countLine)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: bad atom count %q", errBadXYZ, countLine)
		}
		if !sc.Scan() {
			return nil, fmt.Errorf("%w: missing comment line", errBadXYZ)
		}
		// The frame grows as its atom lines arrive: the count line alone
		// backs no memory.
		var f Frame
		for i := 0; i < n; i++ {
			if !sc.Scan() {
				return nil, fmt.Errorf("%w: truncated at atom %d", errBadXYZ, i)
			}
			fields := strings.Fields(sc.Text())
			if len(fields) < 4 {
				return nil, fmt.Errorf("%w: atom line %q", errBadXYZ, sc.Text())
			}
			var xyz [3]float64
			for k := range xyz {
				v, err := strconv.ParseFloat(fields[k+1], 64)
				if err != nil {
					return nil, fmt.Errorf("%w: coordinate %q: %v", errBadXYZ, fields[k+1], err)
				}
				xyz[k] = v
			}
			f.X, f.Y, f.Z = append(f.X, xyz[0]), append(f.Y, xyz[1]), append(f.Z, xyz[2])
		}
		if len(d.Frames) > 0 && n != d.N() {
			return nil, fmt.Errorf("%w: frame %d has %d atoms, want %d", errBadXYZ, len(d.Frames), n, d.N())
		}
		d.Frames = append(d.Frames, f)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(d.Frames) == 0 {
		return nil, fmt.Errorf("%w: no frames", errBadXYZ)
	}
	return d, nil
}
