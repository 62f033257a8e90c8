// Command perfbench is MDZ's performance benchmark: four workloads that
// drive the library, the stream container and the mdzd daemon from outside,
// each reporting end-to-end metrics from an untraced run or per-layer
// metrics from a traced one, with every output checked for correctness.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash internal/bench/perf/run.sh --workload insitu-long --seed 1 --seconds 15 --trace 0
//	bash internal/bench/perf/run.sh -runs 10 -json set1.json        # all workloads, seeds 1..10
//	bash internal/bench/perf/run.sh -runs 10 -compare set1.json     # regression check
//	bash internal/bench/perf/run.sh -workload insitu-wide -ab ADPSampleShards=0,1
//
// Each run of a workload happens in a child process of its own, so garbage
// collector state, pooled buffers and peak RSS belong to that run alone.
// The parent generates the base trajectory from the seed, times that as
// gen_s, and hands it to the child in a temporary dataset file. The last
// line of standard output is the result of a single run as one JSON object.
// See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"github.com/mdz/mdz/internal/dataset"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	runs        int
	jsonOut     string
	comparePath string
	specPath    string
	ab          string
	basePath    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloadNames(), ", ")+" (default all)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the runs of -runs use seed, seed+1, ...")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics instead of end-to-end ones")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, each with its own seed")
	fs.StringVar(&o.jsonOut, "json", "", "write the report to this file")
	fs.StringVar(&o.comparePath, "compare", "", "compare against this report and exit 1 on a regression")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "benchmark definition holding the regression bounds")
	fs.StringVar(&o.ab, "ab", "", "interleaved A/B of one knob on -workload, as Key=v1,v2")
	fs.StringVar(&o.basePath, "base", "", "child mode: run -workload on the base trajectory in this dataset file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 || o.runs < 1 {
		fmt.Fprintln(stderr, "perfbench: bad arguments (see -h)")
		return 2
	}
	var err error
	if o.basePath != "" {
		err = child(o, stdout)
	} else {
		err = parent(o, stdout, stderr)
	}
	switch {
	case errors.Is(err, errFailed):
		return 1
	case err != nil:
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// errFailed reports a finished benchmark whose correctness or regression
// check failed; the details are already printed.
var errFailed = errors.New("benchmark check failed")

// child runs one workload in this process on a saved base trajectory and
// prints its RunResult as its only line.
func child(o options, stdout io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	d, err := dataset.Load(o.basePath)
	if err != nil {
		return fmt.Errorf("loading base trajectory: %w", err)
	}
	res := newRunResult(w.name, o.seed, o.trace)
	e := &env{
		base: toFrames(d), seed: o.seed, trace: o.trace, res: res,
		budget: time.Duration(o.seconds * float64(time.Second)),
	}
	d = nil
	if o.ab != "" {
		spec, err := parseAB(o.ab, w.name)
		if err != nil {
			return err
		}
		err = runAB(w, e, spec)
	} else {
		err = w.run(w, e)
	}
	if err != nil {
		return err
	}
	if o.ab == "" && !o.trace {
		rss, err := peakRSS()
		if err != nil {
			return err
		}
		res.set("peak_rss_mb", rss, "MB")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// peakRSS is the process's peak resident set (VmHWM), in MB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// childTimeout bounds one child run beyond its measured seconds: set-up,
// warm-up and verification.
const childTimeout = 150 * time.Second

// parent runs each selected workload -runs times, each run in a child
// process, and prints, saves and compares the report.
func parent(o options, stdout, stderr io.Writer) error {
	names := workloadNames()
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		names = []string{w.name}
	}
	if o.ab != "" {
		if _, err := parseAB(o.ab, o.workload); err != nil {
			return err
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := &Report{Provenance: provenance(o)}
	for _, name := range names {
		for r := 0; r < o.runs; r++ {
			res, err := runChild(exe, name, o, o.seed+int64(r), stderr)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, o.seed+int64(r), err)
			}
			if res.AB != nil {
				printAB(stdout, res.AB)
			} else {
				printRun(stdout, res)
			}
			rep.Runs = append(rep.Runs, *res)
		}
	}
	rep.Rows = buildRows(rep.Runs)
	printProvenance(stdout, rep.Provenance)
	failed := false
	for _, r := range rep.Runs {
		if !r.Correct {
			failed = true
		}
	}
	if o.jsonOut != "" {
		if err := writeReport(o.jsonOut, rep); err != nil {
			return err
		}
	}
	if o.comparePath != "" {
		base, err := readReport(o.comparePath)
		if err != nil {
			return err
		}
		bounds, err := readSpec(o.specPath)
		if err != nil {
			return err
		}
		if compare(stdout, base, rep, bounds) {
			failed = true
		}
	}
	if len(rep.Runs) == 1 && rep.Runs[0].AB == nil {
		line, err := resultLine(&rep.Runs[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed {
		return errFailed
	}
	return nil
}

// runChild generates the base trajectory for one run, hands it to a child
// process and returns the child's result.
func runChild(exe, name string, o options, seed int64, stderr io.Writer) (*RunResult, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	f, err := os.CreateTemp("", "perfbench-*.mdzd")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	if err := d.Save(path); err != nil {
		return nil, err
	}
	d = nil
	runtime.GC()

	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace, "-base", path,
	}
	if o.ab != "" {
		args = append(args, "-ab", o.ab)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout+time.Duration(2*o.seconds*float64(time.Second)))
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var res RunResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("child result %.200q: %w", out, err)
	}
	res.GenS = genS
	return &res, nil
}

// Provenance records what a report was measured on and with.
type Provenance struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Date       string  `json:"date"`
}

func provenance(o options) Provenance {
	p := Provenance{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Revision: "unknown",
		Seed: o.seed, Runs: o.runs, Seconds: o.seconds, Trace: o.trace,
		Date: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printProvenance(w io.Writer, p Provenance) {
	dirty := ""
	if p.Dirty {
		dirty = " (dirty)"
	}
	fmt.Fprintf(w, "host: %s, NumCPU %d, GOMAXPROCS %d, %s, revision %s%s, seed %d, %d run(s) of %gs\n",
		p.CPUModel, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Revision, dirty, p.Seed, p.Runs, p.Seconds)
}
