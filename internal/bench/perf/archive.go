package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	mdz "github.com/mdz/mdz"
)

// runArchive measures post-hoc analysis of an indexed archive. Set-up
// writes the archive once (CheckpointInterval 10, SeekIndex) and decodes it
// once as the reference. Each timed pass is one full streaming decode
// followed by cold ranged reads, each on a fresh Reader, at seeded
// positions. The measured op is a ranged read; set-up is a fresh Reader
// through its first Seek, seek-table load included.
func runArchive(w *workload, e *env) error {
	cfg := w.config()
	var ro mdz.ReaderOptions
	n := w.batches * bs
	raw := e.rawBytes(n)
	b := axisBounds(e.base, w.eps)
	in := &layerInput{enc: newTelAgg(), dec: newTelAgg(), atoms: e.base[0].N()}

	var buf bytes.Buffer
	sink := &timedSink{w: &buf}
	if e.trace {
		cfg.Telemetry = true
	}
	s, err := writePass(e, cfg, n, sink)
	e.res.op(err)
	if err != nil {
		return nil
	}
	c := buf.Bytes()
	digests := make([]uint64, n)
	_, err = verifyContainer(c, e, n, b, ro, func(i int, f mdz.Frame) { digests[i] = digest(f) })
	e.res.op(err)
	if err != nil {
		return nil
	}
	if e.trace {
		in.recordWrite(e, s, sink, n, len(c))
		cb, err := pairedCompress(e, cfg, n, c)
		e.res.op(err)
		in.compressNS = []float64{float64(cb)}
	}

	rng := e.rng()
	var win windows
	var setup []float64
	err = passLoop(e.budget, 3, func(i int) error {
		traced := e.trace && i%2 == 1
		pro := ro
		pro.Telemetry = traced
		// In a traced pass the CPU window covers the decodes only, not the
		// checks around them.
		var agg *telAgg
		var before cpuSample
		window := func() {
			if traced {
				in.window.add(before, readCPU())
			}
		}
		if traced {
			agg, before = in.dec, readCPU()
		}
		t0 := time.Now()
		rd, got, err := streamDecode(c, pro)
		wall := time.Since(t0)
		window()
		e.res.op(err)
		if err == nil && got != n {
			e.res.fail(fmt.Errorf("streaming decode delivered %d snapshots, want %d", got, n))
		}
		agg.add(rd.Telemetry())
		var ops []float64
		for k := 0; k < w.ranges; k++ {
			lo := rng.Intn(n - bs + 1)
			if traced {
				before = readCPU()
			}
			frames, seek, total, err := rangedRead(c, lo, pro, agg)
			window()
			if err == nil {
				err = matchDigests(frames, digests[lo:lo+bs])
			}
			e.res.op(err)
			if i == 0 {
				continue
			}
			ops = append(ops, ms(total))
			setup = append(setup, seek.Seconds())
			if traced {
				in.seekMS = append(in.seekMS, ms(seek))
				in.rangeMS = append(in.rangeMS, ms(total-seek))
			}
		}
		switch {
		case traced:
			in.tracedWall = append(in.tracedWall, wall.Seconds())
			in.windowValues += e.values(n + w.ranges*bs)
		case i > 0 && e.trace:
			in.plainWall = append(in.plainWall, wall.Seconds())
		case i > 0:
			win.add(raw, wall, ops...)
			win.cut()
		}
		return nil
	})
	if err != nil {
		return nil
	}
	if e.trace {
		in.busyNS = in.dec.stageNS(decStages)
		in.fitMS = fitProbe(e)
		e.setLayers(in)
		return nil
	}
	e.setE2E(&win, setup, float64(raw)/float64(len(c)), w.tailPct)
	return nil
}

// streamDecode reads a whole container frame by frame, as an analysis
// tool streaming an archive would, and counts the snapshots.
func streamDecode(c []byte, ro mdz.ReaderOptions) (*mdz.Reader, int, error) {
	rd := mdz.NewReaderWith(bytes.NewReader(c), ro)
	defer rd.Close()
	n := 0
	for {
		_, err := rd.ReadFrame()
		if errors.Is(err, io.EOF) {
			return rd, n, nil
		}
		if err != nil {
			return rd, n, fmt.Errorf("streaming decode, snapshot %d: %w", n, err)
		}
		n++
	}
}

// digest fingerprints a decoded snapshot bit for bit (FNV-1a over whole
// words), so a ranged read can be checked for exact equality with the full
// decode.
func digest(f mdz.Frame) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for a := 0; a < 3; a++ {
		for _, v := range axis(f, a) {
			h = (h ^ math.Float64bits(v)) * prime
		}
	}
	return h
}

func matchDigests(frames []mdz.Frame, want []uint64) error {
	if len(frames) != len(want) {
		return fmt.Errorf("ranged read returned %d snapshots, want %d", len(frames), len(want))
	}
	for j, f := range frames {
		if digest(f) != want[j] {
			return fmt.Errorf("ranged read snapshot %d differs from the full decode", j)
		}
	}
	return nil
}
