package main

import (
	"bytes"
	"io"
	"runtime/metrics"
	"syscall"
	"time"

	mdz "github.com/mdz/mdz"
	"github.com/mdz/mdz/internal/kmeans"
)

// telAgg sums telemetry snapshots taken from several Writers or Readers:
// counters, and each histogram's sum and count.
type telAgg struct {
	counters, sums, counts map[string]int64
}

func newTelAgg() *telAgg {
	return &telAgg{counters: map[string]int64{}, sums: map[string]int64{}, counts: map[string]int64{}}
}

// add folds in a snapshot; a nil aggregate or snapshot is a no-op.
func (a *telAgg) add(s *mdz.TelemetrySnapshot) {
	if a == nil || s == nil {
		return
	}
	for k, v := range s.Counters {
		a.counters[k] += v
	}
	for k, h := range s.Histograms {
		a.sums[k] += h.Sum
		a.counts[k] += h.Count
	}
}

// Encode- and decode-side leaf stages: the layers whose busy time the
// traced run can attribute. compress.stage.batch.ns is not among them — it
// spans the leaves plus core's own work.
var (
	encStages = []string{"compress.stage.kmeans_fit.ns", "compress.stage.predict_quant.ns", "compress.stage.huffman.ns", "compress.stage.lossless.ns"}
	decStages = []string{"decompress.stage.dequant.ns", "decompress.stage.huffman.ns", "decompress.stage.lossless.ns"}
)

func (a *telAgg) stageNS(names []string) int64 {
	var t int64
	for _, n := range names {
		t += a.sums[n]
	}
	return t
}

// timedSink wraps a Writer's destination and times every write into it.
// Only one goroutine writes at a time (the caller, or a pipelined Writer's
// io goroutine), and the totals are read after Close.
type timedSink struct {
	w     io.Writer
	ns, n int64
}

func (s *timedSink) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := s.w.Write(p)
	s.ns += int64(time.Since(t))
	s.n += int64(n)
	return n, err
}

// cpuSample is the process's CPU and allocation counters at one instant.
type cpuSample struct {
	proc            time.Duration // user + system CPU (getrusage)
	gc, busy, alloc float64       // runtime/metrics: GC and non-idle CPU seconds, bytes allocated
}

var cpuMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readCPU() cpuSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, n := range cpuMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return cpuSample{
		proc:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gc:    s[0].Value.Float64(),
		busy:  s[1].Value.Float64() - s[2].Value.Float64(),
		alloc: float64(s[3].Value.Uint64()),
	}
}

// cpuWindow accumulates CPU over the traced stretches of a run.
type cpuWindow struct {
	proc            time.Duration
	gc, busy, alloc float64
}

func (w *cpuWindow) add(from, to cpuSample) {
	w.proc += to.proc - from.proc
	w.gc += to.gc - from.gc
	w.busy += to.busy - from.busy
	w.alloc += to.alloc - from.alloc
}

// gcFrac is GC's share of the process's CPU. The runtime's CPU classes are
// estimates comparable only with each other, so the share comes from them
// and is applied to the getrusage total.
func (w *cpuWindow) gcFrac() float64 { return div(w.gc, w.busy) }

// layerInput is what a traced run measured; setLayers turns it into the
// per-layer metric set.
type layerInput struct {
	// enc and dec aggregate the telemetry of the traced encodes and decodes.
	enc, dec *telAgg
	// emitted is the coordinates the traced encodes delivered (trials
	// excluded); encPasses how many passes they were.
	emitted   int64
	encPasses int
	atoms     int
	// containerBytes is the total size of the traced encodes' containers.
	containerBytes int64
	// Per pass, in ns: writeNS is the traced Writer's time in flushing
	// WriteFrame calls and Close, sinkNS the part of it the sink wrapper
	// saw, and compressNS a paired CompressBatch pass over the same batches.
	writeNS, sinkNS, compressNS []float64
	sinkBytes                   int64
	seekMS, rangeMS, fitMS      []float64
	// window is the CPU over the traced stretch; busyNS the leaf-layer time
	// measured inside it; windowValues the coordinates processed in it.
	window       cpuWindow
	busyNS       int64
	windowValues int64
	// tracedWall and plainWall are the wall times of traced and untraced
	// passes of the same work, interleaved in one process.
	tracedWall, plainWall []float64
	// mdzd only.
	ingestHandlerFrac, readHandlerFrac, memPeakMB, rejections float64
	lateFrac                                                  float64
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setLayers fills the per-layer metrics from a traced run's measurements.
func (e *env) setLayers(in *layerInput) {
	enc, dec := in.enc, in.dec
	f := func(name string) float64 { return float64(enc.counters[name]) }
	encoded := f("compress.quant.values") // includes ADP trial encodes
	emitted := float64(in.emitted)
	decoded := float64(dec.counters["decompress.axis_batches"]) * bs * float64(in.atoms)
	var evals float64
	for _, a := range []string{"x", "y", "z"} {
		evals += f("compress.adp." + a + ".evals")
	}
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.Name == name {
				e.res.set(name, v, d.Unit)
				return
			}
		}
		panic("perf: unknown per-layer metric " + name)
	}
	set("kmeans.fit_ms", medianOr0(in.fitMS))
	set("quant.enc_ns_per_value", div(float64(enc.sums["compress.stage.predict_quant.ns"]), encoded))
	set("quant.dec_ns_per_value", div(float64(dec.sums["decompress.stage.dequant.ns"]), decoded))
	set("quant.outlier_frac", div(f("compress.quant.outliers"), encoded))
	set("huffman.enc_ns_per_value", div(float64(enc.sums["compress.stage.huffman.ns"]), encoded))
	set("huffman.dec_ns_per_value", div(float64(dec.sums["decompress.stage.huffman.ns"]), decoded))
	set("huffman.table_bytes_per_shard", div(float64(enc.sums["compress.huffman.table.bytes"]), float64(enc.counts["compress.huffman.table.bytes"])))
	set("lossless.enc_ns_per_value", div(float64(enc.sums["compress.stage.lossless.ns"]), encoded))
	set("lossless.dec_ns_per_value", div(float64(dec.sums["decompress.stage.lossless.ns"]), decoded))
	set("lossless.out_in_ratio", div(f("compress.lossless.out.bytes"), f("compress.lossless.in.bytes")))
	set("core.adp_evals", div(evals, float64(in.encPasses)))
	set("core.adp_useful_frac", div(emitted, encoded))
	set("core.enc_busy_ns_per_value", div(float64(enc.sums["compress.stage.batch.ns"]), emitted))
	set("core.dec_busy_ns_per_value", div(float64(dec.sums["decompress.stage.batch.ns"]), decoded))
	set("pool.fanout", div(f("pool.chunks"), f("pool.chunked_runs")))
	set("pool.serial_degradation_frac", div(f("pool.serial_degradations"), f("pool.runs")+f("pool.chunked_runs")))
	perPass := div(emitted, float64(in.encPasses))
	set("mdz.write_self_ns_per_value", div(medianOr0(in.writeNS)-medianOr0(in.compressNS)-medianOr0(in.sinkNS), perPass))
	set("mdz.framing_bytes_frac", div(f("stream.framing.bytes"), float64(in.containerBytes)))
	set("mdz.checkpoint_bytes_frac", div(f("stream.checkpoint.bytes"), float64(in.containerBytes)))
	set("mdz.seek_p50_ms", medianOr0(in.seekMS))
	set("mdz.range_decode_p50_ms", medianOr0(in.rangeMS))
	set("sink.write_ns_per_byte", div(sum(in.sinkNS), float64(in.sinkBytes)))
	set("daemon.ingest_handler_frac", in.ingestHandlerFrac)
	set("daemon.read_handler_frac", in.readHandlerFrac)
	set("daemon.mem_peak_mb", in.memPeakMB)
	set("daemon.rejections", in.rejections)
	proc := float64(in.window.proc)
	gcCPU := in.window.gcFrac() * proc
	set("runtime.gc_cpu_frac", in.window.gcFrac())
	set("runtime.alloc_b_per_value", div(in.window.alloc, float64(in.windowValues)))
	set("harness.unattributed_frac", div(proc-float64(in.busyNS)-gcCPU, proc))
	set("harness.trace_overhead_frac", div(medianOr0(in.tracedWall), medianOr0(in.plainWall))-1)
	set("harness.gen_late_frac", in.lateFrac)
}

// recordWrite adds one traced Writer pass to the layer input.
func (in *layerInput) recordWrite(e *env, s writeStats, ts *timedSink, n, containerBytes int) {
	in.enc.add(s.w.Telemetry())
	in.encPasses++
	in.emitted += e.values(n)
	in.containerBytes += int64(containerBytes)
	in.sinkNS = append(in.sinkNS, float64(ts.ns))
	in.sinkBytes += ts.n
	write := float64(s.closeDur)
	for _, f := range s.flushes {
		write += f * 1e6
	}
	in.writeNS = append(in.writeNS, write)
}

// encodeLayers runs Writer passes over n replayed snapshots in a repeating
// cycle — untraced, paired CompressBatch, traced — until budget is spent
// and each kind ran at least three times. Traced passes run with telemetry
// and a timed sink, inside a CPU window; every Writer pass must reproduce
// the container det holds.
func encodeLayers(e *env, cfg mdz.Config, n int, in *layerInput, det *determinism, budget time.Duration) error {
	sink := new(bytes.Buffer)
	return passLoop(budget, 9, func(i int) error {
		kind := (i + 1) % 3 // the warm-up (i = 0) is untraced
		if kind == 2 {
			ns, err := pairedCompress(e, cfg, n, det.first)
			e.res.op(err)
			in.compressNS = append(in.compressNS, float64(ns))
			return err
		}
		traced := kind == 0
		sink.Reset()
		c, dst := cfg, io.Writer(sink)
		ts := &timedSink{w: sink}
		if traced {
			c.Telemetry, dst = true, ts
		}
		before := readCPU()
		s, err := writePass(e, c, n, dst)
		after := readCPU()
		e.res.Attempted += int64(n / bs)
		if err == nil {
			err = det.check(sink.Bytes())
		}
		if err != nil {
			e.res.fail(err)
			return err
		}
		switch {
		case traced:
			in.window.add(before, after)
			in.recordWrite(e, s, ts, n, sink.Len())
			in.tracedWall = append(in.tracedWall, s.wall.Seconds())
		case i > 0:
			in.plainWall = append(in.plainWall, s.wall.Seconds())
		}
		return nil
	})
}

// fitProbe times kmeans.Cluster1D on snapshot 0's x axis, the fit every
// encoder runs on its first batch, a few times.
func fitProbe(e *env) []float64 {
	var out []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := kmeans.Cluster1D(e.base[0].X, kmeans.Options{Seed: 1}); err != nil {
			e.res.fail(err)
			return nil
		}
		out = append(out, ms(time.Since(t)))
	}
	return out
}
