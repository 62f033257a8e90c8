// Package lossless provides the dictionary/lossless coding stage of the
// compression pipeline and the six lossless baseline compressors evaluated
// in the paper's Table V.
//
// Two interfaces are exposed: Backend compresses raw byte streams (the final
// stage of the SZ pipeline, where the paper uses Zstd), and FloatCompressor
// compresses float64 arrays directly (the lossless baselines of Table V).
//
// Substitutions relative to the paper (stdlib-only constraint):
//
//   - Zstd   → LZ, a from-scratch LZ77 + canonical-Huffman codec (same
//     dictionary+entropy class, see lz.go).
//   - Zlib   → stdlib compress/zlib (the real algorithm).
//   - Brotli → stdlib DEFLATE at maximum compression (same general-purpose
//     LZ class; Table V only requires the ~1-2x regime).
//   - FPC    → full FCM/DFCM reimplementation (fpc.go).
//   - fpzip  → predictive monotone-integer residual coder (fpzip.go).
//   - ZFP    → 1-D block-transform codec with reversible lifting (zfp.go).
package lossless

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// ErrCorrupt is returned when a compressed stream is malformed.
var ErrCorrupt = errors.New("lossless: corrupt stream")

// Backend compresses and decompresses byte streams. Implementations must be
// safe for concurrent use by multiple goroutines.
type Backend interface {
	// Name identifies the backend in benchmark reports.
	Name() string
	// Compress returns an encoded copy of src.
	Compress(src []byte) ([]byte, error)
	// Decompress inverts Compress.
	Decompress(src []byte) ([]byte, error)
}

// FloatCompressor compresses float64 arrays losslessly.
type FloatCompressor interface {
	Name() string
	CompressFloats(src []float64) ([]byte, error)
	DecompressFloats(src []byte) ([]float64, error)
}

// Flate is a DEFLATE Backend at a configurable level. Level 9 serves as the
// Brotli stand-in in Table V; level 6 is the general-purpose default.
type Flate struct {
	// Level is a compress/flate level (1-9); 0 means DefaultCompression.
	Level int
	// Label overrides Name when non-empty (e.g. "brotli*" for the Table V
	// stand-in row).
	Label string
}

// Name implements Backend.
func (f Flate) Name() string {
	if f.Label != "" {
		return f.Label
	}
	return fmt.Sprintf("flate-%d", f.level())
}

func (f Flate) level() int {
	if f.Level == 0 {
		return flate.DefaultCompression
	}
	return f.Level
}

// flatePools caches one flate.Writer pool per compression level (index =
// level - flate.HuffmanOnly, the smallest valid level): NewWriter builds
// ~1 MiB of match-finder state per call, which dwarfs the actual DEFLATE
// work on pipeline-sized payloads, while Reset reuses it for free.
var flatePools [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

func flateWriter(buf *bytes.Buffer, level int) (*flate.Writer, error) {
	idx := level - flate.HuffmanOnly
	if idx < 0 || idx >= len(flatePools) {
		return flate.NewWriter(buf, level) // out of range: let flate reject it
	}
	if w, _ := flatePools[idx].Get().(*flate.Writer); w != nil {
		w.Reset(buf)
		return w, nil
	}
	return flate.NewWriter(buf, level)
}

func putFlateWriter(w *flate.Writer, level int) {
	if idx := level - flate.HuffmanOnly; idx >= 0 && idx < len(flatePools) {
		flatePools[idx].Put(w)
	}
}

// Compress implements Backend.
func (f Flate) Compress(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	level := f.level()
	w, err := flateWriter(&buf, level)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(src); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	putFlateWriter(w, level)
	return buf.Bytes(), nil
}

// Decompress implements Backend.
func (f Flate) Decompress(src []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(src))
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out, nil
}

// Zlib is the stdlib zlib Backend (the paper's Zlib baseline, exactly).
type Zlib struct{}

// Name implements Backend.
func (Zlib) Name() string { return "zlib" }

// zlibPool caches zlib.Writers (default level) across Compress calls; like
// flate, construction cost exceeds the compression work on small payloads.
var zlibPool sync.Pool

// Compress implements Backend.
func (Zlib) Compress(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, _ := zlibPool.Get().(*zlib.Writer)
	if w != nil {
		w.Reset(&buf)
	} else {
		w = zlib.NewWriter(&buf)
	}
	if _, err := w.Write(src); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	zlibPool.Put(w)
	return buf.Bytes(), nil
}

// Decompress implements Backend.
func (Zlib) Decompress(src []byte) ([]byte, error) {
	r, err := zlib.NewReader(bytes.NewReader(src))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out, nil
}

// FloatAdapter lifts a byte Backend to a FloatCompressor by serializing the
// float64 array little-endian. This is how the general-purpose compressors
// (Zstd/Zlib/Brotli) consume floating-point data in Table V.
type FloatAdapter struct {
	B Backend
}

// Name implements FloatCompressor.
func (a FloatAdapter) Name() string { return a.B.Name() }

// CompressFloats implements FloatCompressor.
func (a FloatAdapter) CompressFloats(src []float64) ([]byte, error) {
	return a.B.Compress(FloatsToBytes(src))
}

// DecompressFloats implements FloatCompressor.
func (a FloatAdapter) DecompressFloats(src []byte) ([]float64, error) {
	raw, err := a.B.Decompress(src)
	if err != nil {
		return nil, err
	}
	return BytesToFloats(raw)
}

// FloatsToBytes serializes values little-endian, 8 bytes each.
func FloatsToBytes(values []float64) []byte {
	out := make([]byte, 8*len(values))
	for i, v := range values {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// BytesToFloats inverts FloatsToBytes.
func BytesToFloats(raw []byte) ([]float64, error) {
	if len(raw)%8 != 0 {
		return nil, ErrCorrupt
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out, nil
}
