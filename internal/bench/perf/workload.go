package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	mdz "github.com/mdz/mdz"
	"github.com/mdz/mdz/internal/dataset"
	"github.com/mdz/mdz/internal/gen"
)

// bs is the paper's buffer size: snapshots per compressed batch. Every base
// trajectory is a multiple of it, so replaying the base wraps only at batch
// boundaries and time prediction never spans a seam.
const bs = mdz.DefaultBufferSize

// workload is one named input set and the way it is driven. The size
// fields mean different things per kind; see the workload table below.
type workload struct {
	name, why string
	// Base trajectory: an internal/gen analog, generated once per seed.
	dataset          string
	atoms, baseSnaps int
	eps              float64
	// tailPct is the declared tail percentile of op latency: the highest one
	// that repeats run to run at the workload's sample count. The run falls
	// back to a lower one only if its sample count cannot support it.
	tailPct float64
	// batches is the batches written per pass (insitu), or the archive
	// length in batches (archive-read).
	batches int
	// ranges is the cold ranged reads per pass (archive-read).
	ranges int
	// mdzd traffic (daemon-mixed): fixed open-loop rates, live sessions and
	// the ingests after which a session is rotated.
	ingestHz, readHz      float64
	sessions, rotateAfter int
	run                   func(w *workload, e *env) error
}

// workloads is the benchmark's workload table. README.md gives the
// rationale for each; BENCHMARK.json repeats names and one-line reasons.
//
// A replayed base returns to snapshot 0, which MT predicts exactly from its
// snapshot-0 reference, and hands Huffman and ADP batches they have seen
// before. Each base therefore holds at least minBaseBatches distinct
// batches, and insitu-wide writes its base once per pass with no replay.
// README.md gives the measured effect of replaying.
var workloads = []*workload{
	{
		name:    "insitu-long",
		why:     "EXAALT shape: 1,019 atoms, long runs of small batches, so fixed per-batch costs and ADP's steady-state trials dominate",
		dataset: "Helium-B", atoms: 1024, baseSnaps: 100, eps: 1e-4,
		tailPct: 99, batches: 600,
		run: runInsitu,
	},
	{
		name:    "insitu-wide",
		why:     "LAMMPS shape: 39,366 atoms, 2 auto shards, short runs of distinct snapshots, so per-value kernels, k-means, ADP trials and shard fan-out dominate",
		dataset: "Helium-A", atoms: 40000, baseSnaps: 60, eps: 1e-4,
		tailPct: 90, batches: 6,
		run: runInsitu,
	},
	{
		name:    "archive-read",
		why:     "post-hoc analysis of an indexed archive: streaming decode plus cold 10-snapshot ranged reads, decode side only",
		dataset: "Copper-A", atoms: 4000, baseSnaps: 40, eps: 1e-4,
		tailPct: 95, batches: 400, ranges: 150,
		run: runArchive,
	},
	{
		name:    "daemon-mixed",
		why:     "mdzd over HTTP, open loop from 2 connections at fixed rates (60 ingests/s beside 60 live tail reads/s), sessions rotated",
		dataset: "Copper-A", atoms: 4000, baseSnaps: 40, eps: 1e-3,
		tailPct: 90, ingestHz: 60, readHz: 60, sessions: 4, rotateAfter: 16,
		run: runDaemon,
	},
}

// minBaseBatches is the fewest distinct batches a base trajectory holds.
const minBaseBatches = 4

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// generate builds the workload's base trajectory for a seed.
func (w *workload) generate(seed int64) (*dataset.Dataset, error) {
	d, err := gen.Generate(w.dataset, gen.Options{Atoms: w.atoms, Snapshots: w.baseSnaps, Seed: seed})
	if err != nil {
		return nil, err
	}
	if d.M()%bs != 0 || d.M() == 0 {
		return nil, fmt.Errorf("%s: base of %d snapshots is not a whole number of batches", w.name, d.M())
	}
	return d, nil
}

// config is the Writer configuration of an insitu or archive-read
// workload: the paper's defaults at the workload's bound, and for the
// archive a checkpoint every 10 batches and a seek table.
func (w *workload) config() mdz.Config {
	cfg := mdz.Config{ErrorBound: w.eps}
	if w.ranges > 0 {
		cfg.CheckpointInterval, cfg.SeekIndex = 10, true
	}
	return cfg
}

// env is what a workload run receives: the base trajectory, the run
// settings and the result being filled in.
type env struct {
	base   []mdz.Frame
	seed   int64
	budget time.Duration
	trace  bool
	res    *RunResult
}

func toFrames(d *dataset.Dataset) []mdz.Frame {
	out := make([]mdz.Frame, d.M())
	for i, f := range d.Frames {
		out[i] = mdz.Frame{X: f.X, Y: f.Y, Z: f.Z}
	}
	return out
}

// frame is snapshot i of the replayed trajectory.
func (e *env) frame(i int) mdz.Frame { return e.base[i%len(e.base)] }

func (e *env) rng() *rand.Rand { return rand.New(rand.NewSource(e.seed)) }

// rawBytes is the uncompressed size of n snapshots, as float64 positions.
func (e *env) rawBytes(n int) int64 { return int64(n) * int64(e.base[0].N()) * 3 * 8 }

// values is the number of coordinates in n snapshots.
func (e *env) values(n int) int64 { return int64(n) * int64(e.base[0].N()) * 3 }

// axisBounds is the absolute error bound per axis in ValueRange mode: eps
// times the value range of the first batch, which the compressor freezes.
func axisBounds(base []mdz.Frame, eps float64) [3]float64 {
	var b [3]float64
	for a := range b {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, f := range base[:bs] {
			for _, v := range axis(f, a) {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
		}
		b[a] = eps * (hi - lo)
		if hi <= lo {
			b[a] = eps
		}
	}
	return b
}

func axis(f mdz.Frame, a int) []float64 {
	return [3][]float64{f.X, f.Y, f.Z}[a]
}

// checkFrame verifies max|x − x̂| ≤ bound on every axis.
func checkFrame(got, want mdz.Frame, b [3]float64) error {
	for a := 0; a < 3; a++ {
		g, w := axis(got, a), axis(want, a)
		if len(g) != len(w) {
			return fmt.Errorf("axis %d holds %d values, want %d", a, len(g), len(w))
		}
		for i := range w {
			if d := math.Abs(g[i] - w[i]); !(d <= b[a]) {
				return fmt.Errorf("axis %d value %d off by %g, bound %g", a, i, d, b[a])
			}
		}
	}
	return nil
}

// verifyContainer decodes a whole container and checks that it holds
// exactly n snapshots of the replayed base, each within bound. each, when
// non-nil, sees every decoded frame. Any decode error — a corrupt or
// truncated stream included — is returned, never panicked on.
func verifyContainer(c []byte, e *env, n int, b [3]float64, ro mdz.ReaderOptions, each func(i int, f mdz.Frame)) (*mdz.Reader, error) {
	rd := mdz.NewReaderWith(bytes.NewReader(c), ro)
	defer rd.Close()
	for i := 0; ; i++ {
		f, err := rd.ReadFrame()
		if errors.Is(err, io.EOF) {
			if i != n {
				return rd, fmt.Errorf("container holds %d snapshots, want %d", i, n)
			}
			return rd, nil
		}
		if err != nil {
			return rd, fmt.Errorf("decoding snapshot %d: %w", i, err)
		}
		if i >= n {
			return rd, fmt.Errorf("container holds more than %d snapshots", n)
		}
		if err := checkFrame(f, e.frame(i), b); err != nil {
			return rd, fmt.Errorf("snapshot %d: %w", i, err)
		}
		if each != nil {
			each(i, f)
		}
	}
}

// passLoop runs one untimed warm-up pass, then timed passes until the
// budget is spent and at least minPasses ran, collecting garbage between
// passes so no pass pays for its predecessor's allocations. pass receives
// its index (0 = warm-up) and reports whether it failed.
func passLoop(budget time.Duration, minPasses int, pass func(i int) error) error {
	runtime.GC()
	if err := pass(0); err != nil {
		return err
	}
	start := time.Now()
	for i := 1; i <= minPasses || time.Since(start) < budget; i++ {
		runtime.GC()
		if err := pass(i); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// setE2E records the end-to-end metrics every workload shares the shape of.
func (e *env) setE2E(win *windows, setup []float64, ratio float64, tailPct float64) {
	r := e.res
	win.finish()
	r.Metrics["throughput_mbps"], r.Metrics["op_p50_ms"], r.Metrics["op_tail_ms"] = win.metrics(tailPct)
	// The highest percentile the pooled sample supports, reported but not
	// regression-checked: it is too noisy to repeat.
	ops := win.pooled()
	v, pct := tail(ops, 100)
	r.Info["op_highest_pct_ms"] = Metric{Value: v, Unit: "ms", Samples: len(ops), Pct: pct}
	r.Metrics["setup_s"] = summary(setup, "s")
	r.set("compression_ratio", ratio, "x")
}
