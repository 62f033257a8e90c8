package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	mdz "github.com/mdz/mdz"
	"github.com/mdz/mdz/internal/dataset"
	"github.com/mdz/mdz/internal/faultio"
)

// TestValidateFlags covers the flag-combination holes: each invalid pairing
// must be rejected as a usage error (main maps these to exit code 2) rather
// than silently ignored.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		f       cliFlags
		wantErr bool
	}{
		{"compress ok", cliFlags{compress: "in", out: "out"}, false},
		{"decompress ok", cliFlags{decompress: "in", out: "out"}, false},
		{"salvage with -d", cliFlags{decompress: "in", out: "out", salvage: true}, false},
		{"checkpoint with -c", cliFlags{compress: "in", out: "out", checkpoint: 4}, false},
		{"fsck ok", cliFlags{fsck: "in"}, false},
		{"info ok", cliFlags{info: "in"}, false},
		{"no mode", cliFlags{}, true},
		{"two modes", cliFlags{compress: "a", decompress: "b"}, true},
		{"salvage without -d", cliFlags{compress: "in", out: "out", salvage: true}, true},
		{"salvage alone with fsck", cliFlags{fsck: "in", salvage: true}, true},
		{"checkpoint without -c", cliFlags{decompress: "in", out: "out", checkpoint: 8}, true},
		{"checkpoint negative", cliFlags{compress: "in", out: "out", checkpoint: -1}, true},
		{"fsck with -o", cliFlags{fsck: "in", out: "out"}, true},
		{"info with -o", cliFlags{info: "in", out: "out"}, true},
		{"no-fsync with -c", cliFlags{compress: "in", out: "out", noFsync: true}, false},
		{"no-fsync with -d", cliFlags{decompress: "in", out: "out", noFsync: true}, false},
		{"no-fsync without output", cliFlags{fsck: "in", noFsync: true}, true},
		{"max-decode with -d", cliFlags{decompress: "in", out: "out", maxDecode: 1 << 20}, false},
		{"max-decode with -fsck", cliFlags{fsck: "in", maxDecode: 1 << 20}, false},
		{"max-decode with -c", cliFlags{compress: "in", out: "out", maxDecode: 1 << 20}, true},
		{"max-decode negative", cliFlags{decompress: "in", out: "out", maxDecode: -1}, true},
		{"workers with -c", cliFlags{compress: "in", out: "out", workers: 4}, false},
		{"workers with -d", cliFlags{decompress: "in", out: "out", workers: 4}, false},
		{"workers negative", cliFlags{compress: "in", out: "out", workers: -1}, true},
		{"shards with -c", cliFlags{compress: "in", out: "out", shards: 8}, false},
		{"shards without -c", cliFlags{decompress: "in", out: "out", shards: 8}, true},
		{"shards negative", cliFlags{compress: "in", out: "out", shards: -2}, true},
		{"seek-index with framed -c", cliFlags{compress: "in", out: "out", checkpoint: 4, seekIndex: true}, false},
		{"seek-index without checkpoint", cliFlags{compress: "in", out: "out", seekIndex: true}, false},
		{"seek-index with -d", cliFlags{decompress: "in", out: "out", seekIndex: true}, true},
		{"range with -d", cliFlags{decompress: "in", out: "out", rangeSpec: "5:10"}, false},
		{"range without -d", cliFlags{compress: "in", out: "out", rangeSpec: "5:10"}, true},
		{"range malformed", cliFlags{decompress: "in", out: "out", rangeSpec: "5-10"}, true},
		{"range inverted", cliFlags{decompress: "in", out: "out", rangeSpec: "10:5"}, true},
		{"index with -o", cliFlags{index: "in", out: "out"}, false},
		{"index without -o", cliFlags{index: "in"}, true},
		{"index plus -d", cliFlags{index: "in", decompress: "in2", out: "out"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(&tc.f)
			if (err != nil) != tc.wantErr {
				t.Fatalf("validateFlags(%+v) error = %v, wantErr %v", tc.f, err, tc.wantErr)
			}
		})
	}
}

// writeTestTrajectory saves a small synthetic trajectory and returns its path.
func writeTestTrajectory(t *testing.T, dir string) string {
	t.Helper()
	return writeTrajectory(t, dir, 12)
}

// writeTrajectory saves m snapshots of 64 atoms of the synthetic
// trajectory and returns its path.
func writeTrajectory(t *testing.T, dir string, m int) string {
	t.Helper()
	d := &dataset.Dataset{Meta: dataset.Metadata{Name: "test", State: "solid", Code: "synthetic"}}
	const n = 64
	for s := 0; s < m; s++ {
		f := dataset.NewFrame(n)
		for i := 0; i < n; i++ {
			base := float64(i%8) + 0.05*math.Sin(float64(s)*0.3+float64(i))
			f.X[i] = base
			f.Y[i] = base * 0.5
			f.Z[i] = -base
		}
		d.Frames = append(d.Frames, f)
	}
	path := filepath.Join(dir, "traj.mdzd")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestV3PayloadRefused flips a framed v2 file's magic to that of the
// removed format v3 and checks that every decode-side command fails the way
// main reports it: exit code 1, the offending magic named on stderr, and no
// output file left behind.
func TestV3PayloadRefused(t *testing.T) {
	dir := t.TempDir()
	in := writeTestTrajectory(t, dir)
	v3 := filepath.Join(dir, "v3.mdz")
	if err := doCompress(&cliFlags{compress: in, out: v3, eps: 1e-3, bs: 4, method: "ADP", checkpoint: 2}, &obs{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(v3)
	if err != nil {
		t.Fatal(err)
	}
	_, stream, err := parseContainer(v3)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, stream)
	if string(stream[:4]) != "MDZ2" || at < 0 {
		t.Fatalf("payload magic = %q, want a framed v2 stream", stream[:4])
	}
	copy(raw[at:], "MDZ3")
	if err := os.WriteFile(v3, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "out.mdz")
	for _, tc := range []struct {
		name string
		f    cliFlags
	}{
		{"decompress", cliFlags{decompress: v3, out: out}},
		{"salvage", cliFlags{decompress: v3, out: out, salvage: true}},
		{"range", cliFlags{decompress: v3, out: out, rangeSpec: "0:2"}},
		{"index", cliFlags{index: v3, out: out}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := run(&tc.f, &stderr); code != 1 {
				t.Fatalf("exit code %d, want 1 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "MDZ3") {
				t.Fatalf("stderr %q does not name the magic", stderr.String())
			}
			if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("output file left behind (stat err %v)", err)
			}
		})
	}
}

// TestParallelKnobsRoundTrip drives -workers/-shards through the CLI
// compress path and checks two properties: the output round-trips, and the
// bytes match a run without -workers (only -shards may change the format,
// never the execution knob).
func TestParallelKnobsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := writeTestTrajectory(t, dir)
	tuned := filepath.Join(dir, "tuned.mdz")
	f := &cliFlags{
		compress: in, out: tuned,
		eps: 1e-3, bs: 4, method: "ADP",
		checkpoint: 2, workers: 2, shards: 4,
	}
	if err := validateFlags(f); err != nil {
		t.Fatal(err)
	}
	if err := doCompress(f, &obs{}); err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(dir, "plain.mdz")
	pf := &cliFlags{
		compress: in, out: plain,
		eps: 1e-3, bs: 4, method: "ADP",
		checkpoint: 2, shards: 4,
	}
	if err := doCompress(pf, &obs{}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(tuned)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("-workers changed output bytes; it must be an execution-only knob")
	}
	restored := filepath.Join(dir, "restored.mdzd")
	df := &cliFlags{decompress: tuned, out: restored, workers: 2}
	if err := doDecompress(df, &obs{}); err != nil {
		t.Fatal(err)
	}
	d, err := dataset.Load(restored)
	if err != nil {
		t.Fatal(err)
	}
	if d.M() != 12 || d.N() != 64 {
		t.Fatalf("restored %dx%d, want 12x64", d.M(), d.N())
	}
}

// TestStatsJSONShape runs a real compression through the obs plumbing and
// checks the -stats-json document's shape: valid JSON with stage timings,
// ADP winner counts and the out-of-scope rate derived from the snapshot.
func TestStatsJSONShape(t *testing.T) {
	dir := t.TempDir()
	in := writeTestTrajectory(t, dir)
	statsPath := filepath.Join(dir, "stats.json")
	f := &cliFlags{
		compress: in, out: filepath.Join(dir, "traj.mdz"),
		eps: 1e-3, bs: 4, method: "ADP", statsJSON: statsPath,
	}
	o := &obs{statsJSON: statsPath}
	if err := doCompress(f, o); err != nil {
		t.Fatal(err)
	}
	o.finish()

	raw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep statsReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stats-json is not valid JSON: %v\n%s", err, raw)
	}
	if rep.Command != "compress" || rep.Input != in {
		t.Errorf("report identity = %q/%q", rep.Command, rep.Input)
	}
	if rep.RawBytes <= 0 || rep.CompressedBytes <= 0 || rep.Ratio <= 0 {
		t.Errorf("size accounting missing: raw=%d comp=%d ratio=%v",
			rep.RawBytes, rep.CompressedBytes, rep.Ratio)
	}
	for _, stage := range []string{
		"compress.stage.kmeans_fit",
		"compress.stage.predict_quant",
		"compress.stage.huffman",
		"compress.stage.lossless",
		"compress.stage.batch",
	} {
		if _, ok := rep.StageNS[stage]; !ok {
			t.Errorf("stage_ns missing %q (have %v)", stage, rep.StageNS)
		}
	}
	// ADP ran (batches 0 and 1 always evaluate), so each axis records wins.
	total := int64(0)
	for _, v := range rep.ADPWins {
		total += v
	}
	if total == 0 {
		t.Errorf("adp_wins empty: %v", rep.ADPWins)
	}
	if rep.OutOfScopeRate < 0 || rep.OutOfScopeRate > 1 || math.IsNaN(rep.OutOfScopeRate) {
		t.Errorf("out_of_scope_rate = %v", rep.OutOfScopeRate)
	}
	if rep.Telemetry == nil || rep.Telemetry.Counters["compress.quant.values"] == 0 {
		t.Error("raw telemetry snapshot missing or empty")
	}
	// The fault-containment counters must be present in the document even
	// when zero — consumers rely on the shape, not on lucky incidents.
	var shape map[string]json.RawMessage
	if err := json.Unmarshal(raw, &shape); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"pool_panics_recovered", "budget_rejections", "cancelled_runs"} {
		if _, ok := shape[key]; !ok {
			t.Errorf("stats-json missing %q on a clean run", key)
		}
	}
}

// TestStatsJSONBeforeAttach covers the failed-before-attach path: when the
// command dies before its telemetry registry exists (missing input here),
// the report must still be written, with an explicit "telemetry": null so
// consumers can tell "no instrumentation ran" from "ran and counted zero".
func TestStatsJSONBeforeAttach(t *testing.T) {
	dir := t.TempDir()
	statsPath := filepath.Join(dir, "stats.json")
	f := &cliFlags{
		compress: filepath.Join(dir, "no-such-trajectory.xyz"),
		out:      filepath.Join(dir, "traj.mdz"),
		eps:      1e-3, bs: 4, method: "ADP", statsJSON: statsPath,
	}
	o := &obs{statsJSON: statsPath}
	o.report.Command = "compress"
	if err := doCompress(f, o); err == nil {
		t.Fatal("doCompress succeeded on a missing input")
	}
	o.finish()

	raw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("stats-json not written on a pre-attach failure: %v", err)
	}
	var shape map[string]json.RawMessage
	if err := json.Unmarshal(raw, &shape); err != nil {
		t.Fatalf("stats-json is not valid JSON: %v\n%s", err, raw)
	}
	tele, ok := shape["telemetry"]
	if !ok {
		t.Fatalf("stats-json omitted the telemetry key:\n%s", raw)
	}
	if string(tele) != "null" {
		t.Errorf("telemetry = %s, want an explicit null", tele)
	}
}

// TestMetricsEndpoint drives a compression with -metrics-addr on a loopback
// port and scrapes all three surfaces: Prometheus text, expvar JSON, pprof.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	in := writeTestTrajectory(t, dir)
	f := &cliFlags{
		compress: in, out: filepath.Join(dir, "traj.mdz"),
		eps: 1e-3, bs: 4, method: "ADP",
	}
	o := &obs{metricsAddr: "127.0.0.1:0"}
	if err := doCompress(f, o); err != nil {
		t.Fatal(err)
	}
	if o.srv == nil || o.srv.Addr() == "" {
		t.Fatal("metrics server did not start")
	}
	defer o.finish()
	base := "http://" + o.srv.Addr()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}

	prom := get("/metrics")
	for _, want := range []string{
		"# TYPE mdz_compress_stage_huffman_ns histogram",
		"mdz_compress_quant_values_total",
		"mdz_pool_tasks_total",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	vars := get("/debug/vars")
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("expvar output is not JSON: %v", err)
	}
	if _, ok := decoded["mdz"]; !ok {
		t.Error("expvar output missing the mdz variable")
	}

	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("pprof index did not render")
	}
}

// TestCompressCrashMatrix kills the output write of mdzc -c at a sweep of
// byte offsets and checks the crash-consistency contract: the output path
// is either absent or holds the complete, -fsck-clean file — never a torn
// prefix under the final name.
func TestCompressCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	in := writeTestTrajectory(t, dir)
	out := filepath.Join(dir, "out.mdz")
	f := &cliFlags{compress: in, out: out, eps: 1e-3, bs: 4, method: "ADP", checkpoint: 2}

	// Clean run first, to learn the deterministic output size.
	if err := doCompress(f, &obs{}); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(full))
	if err := os.Remove(out); err != nil {
		t.Fatal(err)
	}
	defer func() { testOutputWrap = nil }()

	// Sweep kill points across the write: every byte of the first 64 (the
	// magic and header region), then strided coverage of the rest — or
	// every single byte when MDZ_CHAOS_SWEEP is set (the `make chaos`
	// mode).
	stride := total / 61
	if stride < 1 || os.Getenv("MDZ_CHAOS_SWEEP") != "" {
		stride = 1
	}
	var kills []int64
	for n := int64(0); n < total && n < 64; n++ {
		kills = append(kills, n)
	}
	for n := int64(64); n < total; n += stride {
		kills = append(kills, n)
	}
	for _, n := range kills {
		n := n
		testOutputWrap = func(w io.Writer) io.Writer { return faultio.NewWriter(w).AbortAt(n) }
		if err := doCompress(f, &obs{}); !errors.Is(err, faultio.ErrAborted) {
			t.Fatalf("kill at byte %d: err = %v, want ErrAborted", n, err)
		}
		if _, serr := os.Stat(out); !os.IsNotExist(serr) {
			t.Fatalf("kill at byte %d left a file under the output path", n)
		}
	}

	// A crash after the last payload byte commits a complete file that
	// passes verification.
	testOutputWrap = func(w io.Writer) io.Writer { return faultio.NewWriter(w).AbortAt(total + 1) }
	if err := doCompress(f, &obs{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil || int64(len(got)) != total {
		t.Fatalf("committed %d bytes, %v; want the full %d", len(got), err, total)
	}
	testOutputWrap = nil
	if err := doFsck(&cliFlags{fsck: out}, &obs{}); err != nil {
		t.Fatalf("committed file fails -fsck: %v", err)
	}
}

// TestNoFsyncRoundTrip: -no-fsync output must be byte-identical to the
// synced path — the flag only trades crash durability, never content.
func TestNoFsyncRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := writeTestTrajectory(t, dir)
	synced, unsynced := filepath.Join(dir, "a.mdz"), filepath.Join(dir, "b.mdz")
	if err := doCompress(&cliFlags{compress: in, out: synced, eps: 1e-3, bs: 4, method: "ADP"}, &obs{}); err != nil {
		t.Fatal(err)
	}
	if err := doCompress(&cliFlags{compress: in, out: unsynced, eps: 1e-3, bs: 4, method: "ADP", noFsync: true}, &obs{}); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(synced)
	b, _ := os.ReadFile(unsynced)
	if !bytes.Equal(a, b) {
		t.Error("-no-fsync changed the output bytes")
	}
}

// TestMaxDecodeFlag: a starved -max-decode rejects decompression with the
// budget sentinel and leaves no output file; a generous cap round-trips.
func TestMaxDecodeFlag(t *testing.T) {
	dir := t.TempDir()
	in := writeTestTrajectory(t, dir)
	cmp := filepath.Join(dir, "traj.mdz")
	if err := doCompress(&cliFlags{compress: in, out: cmp, eps: 1e-3, bs: 4, method: "ADP"}, &obs{}); err != nil {
		t.Fatal(err)
	}
	restored := filepath.Join(dir, "restored.mdzd")
	err := doDecompress(&cliFlags{decompress: cmp, out: restored, maxDecode: 64}, &obs{})
	if !errors.Is(err, mdz.ErrBudgetExceeded) {
		t.Fatalf("starved -max-decode err = %v, want ErrBudgetExceeded", err)
	}
	if _, serr := os.Stat(restored); !os.IsNotExist(serr) {
		t.Fatal("rejected decode still wrote an output file")
	}
	if err := doDecompress(&cliFlags{decompress: cmp, out: restored, maxDecode: 1 << 30}, &obs{}); err != nil {
		t.Fatal(err)
	}
	if d, err := dataset.Load(restored); err != nil || d.M() != 12 {
		t.Fatalf("round trip under generous budget: %v", err)
	}
}

// TestRangeAndIndexCLI drives the random-access surface end to end:
// -c -seek-index writes an indexed stream, -d -range decodes exactly the
// requested window, and -index retrofits a legacy stream into bytes
// identical to the natively indexed one.
func TestRangeAndIndexCLI(t *testing.T) {
	dir := t.TempDir()
	in := writeTestTrajectory(t, dir)
	indexed := filepath.Join(dir, "indexed.mdz")
	if err := doCompress(&cliFlags{
		compress: in, out: indexed,
		eps: 1e-3, bs: 2, method: "ADP",
		checkpoint: 2, seekIndex: true,
	}, &obs{}); err != nil {
		t.Fatal(err)
	}

	full := filepath.Join(dir, "full.mdzd")
	if err := doDecompress(&cliFlags{decompress: indexed, out: full}, &obs{}); err != nil {
		t.Fatal(err)
	}
	want, err := dataset.Load(full)
	if err != nil {
		t.Fatal(err)
	}

	window := filepath.Join(dir, "window.mdzd")
	f := &cliFlags{decompress: indexed, out: window, rangeSpec: "5:9"}
	if err := validateFlags(f); err != nil {
		t.Fatal(err)
	}
	if err := doDecompress(f, &obs{}); err != nil {
		t.Fatal(err)
	}
	got, err := dataset.Load(window)
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != 4 {
		t.Fatalf("-range 5:9 decoded %d snapshots, want 4", got.M())
	}
	for s := 0; s < 4; s++ {
		for i := range got.Frames[s].X {
			if got.Frames[s].X[i] != want.Frames[5+s].X[i] {
				t.Fatalf("window snapshot %d differs from full decode", s)
			}
		}
	}

	// A past-the-end range is a clean error, not an empty output file.
	f = &cliFlags{decompress: indexed, out: filepath.Join(dir, "none.mdzd"), rangeSpec: "100:200"}
	if err := validateFlags(f); err != nil {
		t.Fatal(err)
	}
	if err := doDecompress(f, &obs{}); err == nil || !strings.Contains(err.Error(), "past the end") {
		t.Fatalf("past-end -range err = %v", err)
	}

	// Retrofit: compress the same input without an index, -index it, and
	// compare payload bytes against the natively indexed stream.
	legacy := filepath.Join(dir, "legacy.mdz")
	if err := doCompress(&cliFlags{
		compress: in, out: legacy,
		eps: 1e-3, bs: 2, method: "ADP", checkpoint: 2,
	}, &obs{}); err != nil {
		t.Fatal(err)
	}
	retro := filepath.Join(dir, "retro.mdz")
	if err := doIndex(&cliFlags{index: legacy, out: retro}, &obs{}); err != nil {
		t.Fatal(err)
	}
	_, wantStream, err := parseContainer(indexed)
	if err != nil {
		t.Fatal(err)
	}
	_, gotStream, err := parseContainer(retro)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotStream, wantStream) {
		t.Fatal("-index output differs from a natively -seek-index stream")
	}

	// Retrofitting twice or indexing a legacy one-shot payload is rejected.
	if err := doIndex(&cliFlags{index: retro, out: filepath.Join(dir, "again.mdz")}, &obs{}); err == nil {
		t.Fatal("-index accepted an already-indexed stream")
	}
	oneshot := writeOneShotFixtureFile(t, dir)
	if err := doIndex(&cliFlags{index: oneshot, out: filepath.Join(dir, "bad.mdz")}, &obs{}); !errors.Is(err, mdz.ErrNotSeekable) {
		t.Fatalf("-index of a one-shot payload: err = %v, want ErrNotSeekable", err)
	}

	// The indexed stream still passes -fsck.
	if err := doFsck(&cliFlags{fsck: indexed}, &obs{}); err != nil {
		t.Fatalf("-fsck on indexed stream: %v", err)
	}
}

// oneShotFixtureHash is the SHA-256 of the float64 bits (X, Y, Z per
// snapshot) that the root package's one-shot fixture decoded to when it
// was written; the root package's TestOneShotFixtureDecodes pins the same.
const oneShotFixtureHash = "cbf913fbecf1b5a3a8644c0ec4755197597f42460ac722d51d3931cc7dab2604"

// writeOneShotFixtureFile wraps the root package's legacy one-shot fixture
// in an mdzc file and returns its path.
func writeOneShotFixtureFile(t *testing.T, dir string) string {
	t.Helper()
	stream, err := os.ReadFile(filepath.Join("..", "..", "testdata", "oneshot_mdzf.bin"))
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte(fileMagic)
	for _, s := range []string{"fixture", "solid", "synthetic"} {
		buf = appendString(buf, s)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(stream)))
	path := filepath.Join(dir, "oneshot.mdz")
	if err := os.WriteFile(path, append(buf, stream...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// datasetValueHash hashes a trajectory's float64 bits, snapshot by
// snapshot, X then Y then Z.
func datasetValueHash(d *dataset.Dataset) string {
	h := sha256.New()
	var word [8]byte
	for _, f := range d.Frames {
		for _, axis := range [][]float64{f.X, f.Y, f.Z} {
			for _, v := range axis {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOneShotFixtureCLI reads a file written before mdzc -c wrote the
// framed stream: -d restores the recorded values and -fsck passes it.
func TestOneShotFixtureCLI(t *testing.T) {
	dir := t.TempDir()
	in := writeOneShotFixtureFile(t, dir)
	out := filepath.Join(dir, "restored.mdzd")
	if err := doDecompress(&cliFlags{decompress: in, out: out}, &obs{}); err != nil {
		t.Fatal(err)
	}
	d, err := dataset.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if h := datasetValueHash(d); h != oneShotFixtureHash {
		t.Fatalf("-d restored sha256 %s, want %s", h, oneShotFixtureHash)
	}
	if err := doFsck(&cliFlags{fsck: in}, &obs{}); err != nil {
		t.Fatalf("-fsck: %v", err)
	}
}

// TestDefaultOutputIsFramed checks that plain -c output, with no
// -checkpoint or -seek-index, is a framed MDZ2 stream that every
// stream command accepts: -fsck, -d -range, -index and -d -salvage.
func TestDefaultOutputIsFramed(t *testing.T) {
	dir := t.TempDir()
	in := writeTrajectory(t, dir, 40)
	cmp := filepath.Join(dir, "traj.mdz")
	if err := doCompress(&cliFlags{compress: in, out: cmp, eps: 1e-3, bs: 4, method: "ADP"}, &obs{}); err != nil {
		t.Fatal(err)
	}
	_, stream, err := parseContainer(cmp)
	if err != nil {
		t.Fatal(err)
	}
	if string(stream[:4]) != "MDZ2" {
		t.Fatalf("payload magic = %q, want MDZ2", stream[:4])
	}
	if err := doFsck(&cliFlags{fsck: cmp}, &obs{}); err != nil {
		t.Fatalf("-fsck: %v", err)
	}
	decode := func(f *cliFlags) *dataset.Dataset {
		t.Helper()
		if err := validateFlags(f); err != nil {
			t.Fatal(err)
		}
		if err := doDecompress(f, &obs{}); err != nil {
			t.Fatalf("-d %+v: %v", f, err)
		}
		d, err := dataset.Load(f.out)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	full := decode(&cliFlags{decompress: cmp, out: filepath.Join(dir, "full.mdzd")})
	window := decode(&cliFlags{decompress: cmp, out: filepath.Join(dir, "window.mdzd"), rangeSpec: "17:33"})
	if want := (&dataset.Dataset{Frames: full.Frames[17:33]}); datasetValueHash(window) != datasetValueHash(want) {
		t.Fatalf("-range 17:33 decoded %d snapshots that differ from the full decode's window", window.M())
	}
	salvaged := decode(&cliFlags{decompress: cmp, out: filepath.Join(dir, "salvaged.mdzd"), salvage: true})
	if datasetValueHash(salvaged) != datasetValueHash(full) {
		t.Fatal("-salvage of a clean stream differs from the full decode")
	}
	indexed := filepath.Join(dir, "indexed.mdz")
	if err := doIndex(&cliFlags{index: cmp, out: indexed}, &obs{}); err != nil {
		t.Fatalf("-index: %v", err)
	}
	if got := decode(&cliFlags{decompress: indexed, out: filepath.Join(dir, "indexed.mdzd")}); datasetValueHash(got) != datasetValueHash(full) {
		t.Fatal("the -index output decodes differently")
	}
}
