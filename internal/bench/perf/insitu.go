package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	mdz "github.com/mdz/mdz"
)

// writeStats is one Writer pass: NewWriter through Close.
type writeStats struct {
	wall  time.Duration
	setup time.Duration // NewWriter through the first flushed batch
	// flushes is the time of every WriteFrame call that flushed a batch —
	// the stall a simulation sees at each dump — in ms.
	flushes  []float64
	closeDur time.Duration
	w        *mdz.Writer
}

// writePass writes n replayed snapshots through a fresh Writer into sink.
func writePass(e *env, cfg mdz.Config, n int, sink io.Writer) (writeStats, error) {
	var s writeStats
	t0 := time.Now()
	wr, err := mdz.NewWriter(sink, cfg)
	if err != nil {
		return s, err
	}
	s.w = wr
	s.flushes = make([]float64, 0, n/bs)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := wr.WriteFrame(e.frame(i)); err != nil {
			wr.Close()
			return s, fmt.Errorf("snapshot %d: %w", i, err)
		}
		if (i+1)%bs == 0 {
			now := time.Now()
			s.flushes = append(s.flushes, ms(now.Sub(t)))
			if i+1 == bs {
				s.setup = now.Sub(t0)
			}
		}
	}
	tc := time.Now()
	err = wr.Close()
	s.closeDur = time.Since(tc)
	s.wall = time.Since(t0)
	return s, err
}

// determinism checks that every pass of a run produces the same container
// bytes: telemetry, timing wrappers and repetition must never change them.
type determinism struct{ first []byte }

func (d *determinism) check(c []byte) error {
	if d.first == nil {
		d.first = bytes.Clone(c)
		return nil
	}
	if !bytes.Equal(c, d.first) {
		return errors.New("container bytes differ between passes of one run")
	}
	return nil
}

// runInsitu drives a simulation-side Writer: each pass opens a fresh
// Writer on a reused in-memory sink and writes the replayed base, batch by
// batch. The measured op is a batch flush.
func runInsitu(w *workload, e *env) error {
	cfg := w.config()
	n := w.batches * bs
	if e.trace {
		return insituTraced(w, e, cfg, n)
	}
	raw := e.rawBytes(n)
	sink := new(bytes.Buffer)
	var det determinism
	var win windows
	var setup []float64
	// Enough passes that even a short run has the 20 flushes a tail needs.
	minPasses := max(3, (2*minBeyond+w.batches-1)/w.batches)
	err := passLoop(e.budget, minPasses, func(i int) error {
		sink.Reset()
		s, err := writePass(e, cfg, n, sink)
		e.res.Attempted += int64(n / bs)
		if err != nil {
			e.res.fail(err)
			return err
		}
		if err := det.check(sink.Bytes()); err != nil {
			e.res.fail(err)
		}
		if i > 0 {
			win.add(raw, s.wall, s.flushes...)
			win.cut()
			setup = append(setup, s.setup.Seconds())
		}
		return nil
	})
	if err != nil {
		return nil // recorded as a failed operation
	}
	_, err = verifyContainer(det.first, e, n, axisBounds(e.base, w.eps), mdz.ReaderOptions{}, nil)
	e.res.op(err)
	e.setE2E(&win, setup, float64(raw)/float64(len(det.first)), w.tailPct)
	return nil
}

// insituTraced is the per-layer run of an insitu workload: traced,
// untraced and paired CompressBatch passes in turn, then a traced decode
// and seek probes on the result.
func insituTraced(w *workload, e *env, cfg mdz.Config, n int) error {
	in := &layerInput{enc: newTelAgg(), dec: newTelAgg(), atoms: e.base[0].N()}
	var det determinism
	if err := encodeLayers(e, cfg, n, in, &det, e.budget); err != nil {
		return nil // recorded as a failed operation
	}
	in.busyNS = in.enc.stageNS(encStages) + int64(sum(in.sinkNS))
	in.windowValues = in.emitted
	b := axisBounds(e.base, w.eps)
	rd, err := verifyContainer(det.first, e, n, b, mdz.ReaderOptions{Telemetry: true}, nil)
	e.res.op(err)
	in.dec.add(rd.Telemetry())
	in.seekMS, in.rangeMS = seekProbes(e, det.first, n, mdz.ReaderOptions{}, b, 20)
	in.fitMS = fitProbe(e)
	e.setLayers(in)
	return nil
}

// pairedCompress feeds the batches of one pass through a bare Compressor
// with the same configuration and checks that each block is byte-equal to
// the Writer's data frame. It returns the CompressBatch time, ns.
func pairedCompress(e *env, cfg mdz.Config, n int, container []byte) (int64, error) {
	frames, err := dataFrames(container)
	if err != nil {
		return 0, err
	}
	if len(frames) != n/bs {
		return 0, fmt.Errorf("container holds %d data frames, want %d", len(frames), n/bs)
	}
	cfg.Telemetry = true
	comp, err := mdz.NewCompressor(cfg)
	if err != nil {
		return 0, err
	}
	var total int64
	for k := range frames {
		lo := (k * bs) % len(e.base)
		t := time.Now()
		blk, err := comp.CompressBatch(e.base[lo : lo+bs])
		total += int64(time.Since(t))
		if err != nil {
			return total, err
		}
		if !bytes.Equal(blk, frames[k]) {
			return total, fmt.Errorf("CompressBatch block %d differs from the Writer's data frame", k)
		}
	}
	return total, nil
}

// dataFrames splits a framed v2/v3 container into its data-frame payloads.
// Each frame is sync(4) type(1) seq(4) len(4) hcrc(4) payload pcrc(4).
func dataFrames(c []byte) ([][]byte, error) {
	const hdr, crc = 17, 4
	if len(c) < 4 {
		return nil, errors.New("container shorter than its magic")
	}
	var out [][]byte
	for p := c[4:]; len(p) > 0; {
		if len(p) < hdr {
			return nil, errors.New("container cut inside a frame header")
		}
		size := int(binary.LittleEndian.Uint32(p[9:13]))
		if len(p) < hdr+size+crc {
			return nil, errors.New("container cut inside a frame payload")
		}
		if p[4] == 0 { // data frame
			out = append(out, p[hdr:hdr+size])
		}
		p = p[hdr+size+crc:]
	}
	return out, nil
}

// seekProbes times count cold Seek + 10-snapshot reads on fresh Readers at
// seeded positions, checking each window against the bound. It returns the
// Seek times and the read-after-seek times, in ms.
func seekProbes(e *env, c []byte, n int, ro mdz.ReaderOptions, b [3]float64, count int) (seekMS, rangeMS []float64) {
	rng := e.rng()
	for k := 0; k < count; k++ {
		lo := rng.Intn(n - bs + 1)
		got, seek, total, err := rangedRead(c, lo, ro, nil)
		if err == nil {
			err = checkWindow(e, got, lo, b)
		}
		e.res.op(err)
		seekMS = append(seekMS, ms(seek))
		rangeMS = append(rangeMS, ms(total-seek))
	}
	return seekMS, rangeMS
}

// rangedRead is Reader.ReadRange(lo, lo+bs) on a fresh Reader, split at the
// Seek so the set-up part can be reported on its own. A traced Reader's
// telemetry is added to agg when agg is non-nil.
func rangedRead(c []byte, lo int, ro mdz.ReaderOptions, agg *telAgg) (frames []mdz.Frame, seek, total time.Duration, err error) {
	t0 := time.Now()
	rd := mdz.NewReaderWith(bytes.NewReader(c), ro)
	defer rd.Close()
	if agg != nil {
		defer func() { agg.add(rd.Telemetry()) }()
	}
	if err := rd.Seek(lo); err != nil {
		return nil, time.Since(t0), time.Since(t0), fmt.Errorf("seek to %d: %w", lo, err)
	}
	seek = time.Since(t0)
	frames = make([]mdz.Frame, 0, bs)
	for len(frames) < bs {
		f, err := rd.ReadFrame()
		if err != nil {
			return frames, seek, time.Since(t0), fmt.Errorf("reading [%d, %d): %w", lo, lo+bs, err)
		}
		frames = append(frames, f)
	}
	return frames, seek, time.Since(t0), nil
}

// checkWindow verifies a decoded window starting at snapshot lo.
func checkWindow(e *env, got []mdz.Frame, lo int, b [3]float64) error {
	if len(got) != bs {
		return fmt.Errorf("window at %d holds %d snapshots, want %d", lo, len(got), bs)
	}
	for j, f := range got {
		if err := checkFrame(f, e.frame(lo+j), b); err != nil {
			return fmt.Errorf("snapshot %d: %w", lo+j, err)
		}
	}
	return nil
}
