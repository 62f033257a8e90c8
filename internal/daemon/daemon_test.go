package daemon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	mdz "github.com/mdz/mdz"
	"github.com/mdz/mdz/internal/bitstream"
)

func makeTraj(m, n int, seed int64) []mdz.Frame {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]mdz.Frame, m)
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i], y[i], z[i] = rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
	}
	for t := 0; t < m; t++ {
		f := mdz.Frame{X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n)}
		for i := 0; i < n; i++ {
			x[i] += rng.NormFloat64() * 0.05
			y[i] += rng.NormFloat64() * 0.05
			z[i] += rng.NormFloat64() * 0.05
			f.X[i], f.Y[i], f.Z[i] = x[i], y[i], z[i]
		}
		frames[t] = f
	}
	return frames
}

func encodeWireFrames(t *testing.T, frames []mdz.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := writeWireFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func decodeWireFrames(t *testing.T, data []byte) []mdz.Frame {
	t.Helper()
	r := bytes.NewReader(data)
	var out []mdz.Frame
	for {
		f, err := readWireFrame(r, nil)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("wire decode: %v", err)
		}
		out = append(out, f)
	}
}

// testClient wraps the API with fatal-on-unexpected-status helpers.
type testClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

func newTestEnv(t *testing.T, opts Options) (*Server, *testClient) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, &testClient{t: t, base: ts.URL, c: ts.Client()}
}

func (tc *testClient) do(method, path string, body []byte, wantStatus int) []byte {
	tc.t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, tc.base+path, rd)
	if err != nil {
		tc.t.Fatal(err)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		tc.t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		tc.t.Fatalf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, wantStatus, out)
	}
	return out
}

func (tc *testClient) create(cfg string) string {
	tc.t.Helper()
	out := tc.do(http.MethodPost, "/v1/sessions", []byte(cfg), http.StatusCreated)
	var in info
	if err := json.Unmarshal(out, &in); err != nil {
		tc.t.Fatalf("create response: %v\n%s", err, out)
	}
	return in.ID
}

func (tc *testClient) sessionInfo(id string) info {
	tc.t.Helper()
	out := tc.do(http.MethodGet, "/v1/sessions/"+id, nil, http.StatusOK)
	var in info
	if err := json.Unmarshal(out, &in); err != nil {
		tc.t.Fatal(err)
	}
	return in
}

// waitCompressed blocks until the session's pump has compressed and
// flushed n snapshots of the given atom count: a 202 acknowledges that
// frames are accepted, not that they are already in the container.
func (tc *testClient) waitCompressed(id string, n, atoms int) {
	tc.t.Helper()
	want := int64(n * atoms * 3 * 8)
	deadline := time.Now().Add(5 * time.Second)
	for tc.sessionInfo(id).RawBytes < want {
		if time.Now().After(deadline) {
			tc.t.Fatalf("session %s: %d snapshots not compressed within 5s", id, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// runSession pushes a trajectory through one full session lifecycle and
// returns the final container.
func (tc *testClient) runSession(cfg string, traj []mdz.Frame) []byte {
	tc.t.Helper()
	id := tc.create(cfg)
	tc.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(tc.t, traj), http.StatusAccepted)
	tc.do(http.MethodPost, "/v1/sessions/"+id+"/close", nil, http.StatusOK)
	container := tc.do(http.MethodGet, "/v1/sessions/"+id+"/stream", nil, http.StatusOK)
	tc.do(http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusNoContent)
	return container
}

// libraryContainer runs the same trajectory through the library directly.
func libraryContainer(t *testing.T, cfg mdz.Config, traj []mdz.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := mdz.NewWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range traj {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func framesEqual(a, b []mdz.Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i].X {
			if math.Float64bits(a[i].X[j]) != math.Float64bits(b[i].X[j]) ||
				math.Float64bits(a[i].Y[j]) != math.Float64bits(b[i].Y[j]) ||
				math.Float64bits(a[i].Z[j]) != math.Float64bits(b[i].Z[j]) {
				return false
			}
		}
	}
	return true
}

// TestDaemonE2EConcurrentSessions is the headline acceptance test: 64
// concurrent sessions, every returned container byte-identical to the
// library API on the same input.
func TestDaemonE2EConcurrentSessions(t *testing.T) {
	_, tc := newTestEnv(t, Options{})
	const N = 64
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traj := makeTraj(24, 120, int64(1000+i))
			cfg := fmt.Sprintf(`{"tenant":"t%d","error_bound":1e-3,"checkpoint_interval":2,"buffer_size":5}`, i%4)
			got := tc.runSession(cfg, traj)
			want := libraryContainer(t, mdz.Config{
				ErrorBound: 1e-3, CheckpointInterval: 2, BufferSize: 5,
			}, traj)
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("session %d: container diverges from library output (%d vs %d bytes)", i, len(got), len(want))
				return
			}
			dec, err := mdz.NewReader(bytes.NewReader(got)).ReadAll()
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			ref, err := mdz.NewReader(bytes.NewReader(want)).ReadAll()
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			if !framesEqual(dec, ref) {
				errs <- fmt.Errorf("session %d: decoded frames diverge", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDaemonDrainRestart covers graceful restart: frames accepted before a
// drain must all survive into the next process, which resumes the stream
// and finishes a container byte-identical to an uninterrupted run.
func TestDaemonDrainRestart(t *testing.T) {
	state := filepath.Join(t.TempDir(), "mdzd.state")
	traj := makeTraj(20, 100, 42)
	cfg := `{"tenant":"mig","error_bound":1e-3,"checkpoint_interval":2,"buffer_size":3}`
	libCfg := mdz.Config{ErrorBound: 1e-3, CheckpointInterval: 2, BufferSize: 3}

	srv1, tc1 := newTestEnv(t, Options{StatePath: state})
	id := tc1.create(cfg)
	// First half accepted (202 = accepted: the daemon owes us these
	// frames across any graceful restart).
	tc1.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, traj[:11]), http.StatusAccepted)
	if err := srv1.Drain(); err != nil {
		t.Fatal(err)
	}
	// Draining servers refuse new sessions.
	tc1.do(http.MethodPost, "/v1/sessions", []byte(cfg), http.StatusServiceUnavailable)
	srv1.Close()

	// "Restart": a new server restores from the state file.
	srv2, tc2 := newTestEnv(t, Options{StatePath: state})
	in := tc2.sessionInfo(id)
	if in.Frames != 11 {
		t.Fatalf("restored session reports %d accepted frames, want 11", in.Frames)
	}
	tc2.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, traj[11:]), http.StatusAccepted)
	tc2.do(http.MethodPost, "/v1/sessions/"+id+"/close", nil, http.StatusOK)
	got := tc2.do(http.MethodGet, "/v1/sessions/"+id+"/stream", nil, http.StatusOK)

	want := libraryContainer(t, libCfg, traj)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restart container diverges from an uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	// The state file was consumed: a third boot starts empty.
	srv2.Close()
	srv3, tc3 := newTestEnv(t, Options{StatePath: state})
	tc3.do(http.MethodGet, "/v1/sessions/"+id, nil, http.StatusNotFound)
	srv3.Close()
}

// TestDaemonDrainRestartFullConfig: every SessionConfig field survives a
// drain and restart. The resumed session must keep its fixed shard count,
// bound mode, parallelism knobs and seek index, so its container equals an
// uninterrupted library run with the same Config, seek table included. The
// create body still carries the removed pipeline_depth key, which must be
// ignored rather than refused.
func TestDaemonDrainRestartFullConfig(t *testing.T) {
	state := filepath.Join(t.TempDir(), "mdzd.state")
	traj := makeTraj(20, 100, 43)
	cfg := `{"tenant":"full","error_bound":1e-3,"absolute_bound":true,"method":"ADP",` +
		`"buffer_size":3,"checkpoint_interval":2,"workers":2,"shards":4,` +
		`"adp_sample_shards":1,"pipeline_depth":2,"seek_index":true}`
	libCfg := mdz.Config{
		ErrorBound: 1e-3, Mode: mdz.Absolute, Method: mdz.ADP,
		BufferSize: 3, CheckpointInterval: 2, Workers: 2, Shards: 4,
		ADPSampleShards: 1, SeekIndex: true,
	}

	srv1, tc1 := newTestEnv(t, Options{StatePath: state})
	id := tc1.create(cfg)
	tc1.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, traj[:11]), http.StatusAccepted)
	if err := srv1.Drain(); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	srv2, tc2 := newTestEnv(t, Options{StatePath: state})
	defer srv2.Close()
	tc2.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, traj[11:]), http.StatusAccepted)
	tc2.do(http.MethodPost, "/v1/sessions/"+id+"/close", nil, http.StatusOK)
	got := tc2.do(http.MethodGet, "/v1/sessions/"+id+"/stream", nil, http.StatusOK)

	if want := libraryContainer(t, libCfg, traj); !bytes.Equal(got, want) {
		t.Fatalf("post-restart container diverges from an uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	_, err := mdz.RetrofitSeekIndex(bytes.NewReader(got), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "already carries a seek table") {
		t.Fatalf("post-restart container carries no seek table (retrofit: %v)", err)
	}
}

// TestDaemonForgedIngestHeader: a record header claiming a huge atom count
// is charged to the budget before anything is allocated for it, so a
// 4-byte body costs a 507 (budgeted server) or a 400 (the body never
// arrives), never an allocation sized by the claim. After the first
// record, every record must carry the session's atom count.
func TestDaemonForgedIngestHeader(t *testing.T) {
	forged := []byte{0xff, 0xff, 0xff, 0x00} // 2^24-1 atoms ≈ 400 MB claimed
	for _, c := range []struct {
		name string
		opts Options
		want int
	}{
		{"unbudgeted", Options{}, http.StatusBadRequest},
		{"global", Options{MemGlobal: 64 << 20}, http.StatusInsufficientStorage},
		{"per-session", Options{MemPerSession: 64 << 20}, http.StatusInsufficientStorage},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, tc := newTestEnv(t, c.opts)
			id := tc.create(`{"error_bound":1e-3}`)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/frames", bytes.NewReader(forged)))
			runtime.ReadMemStats(&after)
			if rec.Code != c.want {
				t.Fatalf("forged header: status %d, want %d: %s", rec.Code, c.want, rec.Body.Bytes())
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
				t.Fatalf("forged 4-byte body allocated %d bytes", alloc)
			}
			if used := srv.MemoryUsed(); used != 0 {
				t.Fatalf("refused ingest left %d budgeted bytes", used)
			}
			// The refused record fixed nothing: real records still go in.
			tc.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, makeTraj(2, 50, 1)), http.StatusAccepted)
		})
	}

	t.Run("atom-count-mismatch", func(t *testing.T) {
		_, tc := newTestEnv(t, Options{})
		id := tc.create(`{"error_bound":1e-3}`)
		tc.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, makeTraj(2, 50, 1)), http.StatusAccepted)
		tc.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, makeTraj(2, 60, 1)), http.StatusBadRequest)
		tc.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, makeTraj(2, 50, 2)), http.StatusAccepted)
	})
}

// TestDaemonDrainRestartClosedSession: a session already closed at drain
// time keeps its finished container across the restart.
func TestDaemonDrainRestartClosedSession(t *testing.T) {
	state := filepath.Join(t.TempDir(), "mdzd.state")
	traj := makeTraj(8, 60, 7)
	srv1, tc1 := newTestEnv(t, Options{StatePath: state})
	id := tc1.create(`{"error_bound":1e-3}`)
	tc1.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, traj), http.StatusAccepted)
	tc1.do(http.MethodPost, "/v1/sessions/"+id+"/close", nil, http.StatusOK)
	want := tc1.do(http.MethodGet, "/v1/sessions/"+id+"/stream", nil, http.StatusOK)
	if err := srv1.Drain(); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	srv2, tc2 := newTestEnv(t, Options{StatePath: state})
	defer srv2.Close()
	got := tc2.do(http.MethodGet, "/v1/sessions/"+id+"/stream", nil, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Fatal("closed session's container changed across restart")
	}
	// Still closed: more frames are refused.
	tc2.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, traj[:1]), http.StatusConflict)
}

// TestDaemonRefusesV3DrainRecord: a drain file written by a build that
// still had format v3 may hold a v3 session. Booting from it must fail,
// naming the session, and leave the file in place for the build that wrote
// it, rather than resume v2 blocks into a v3 container.
func TestDaemonRefusesV3DrainRecord(t *testing.T) {
	state := filepath.Join(t.TempDir(), "mdzd.state")
	meta := []byte(`{"id":"s00000007","state":"closed","frames":1,"atoms":1,"raw_bytes":24,` +
		`"config":{"error_bound":0.001,"format_version":3}}`)
	file := append([]byte(drainMagic), drainVersion)
	file = bitstream.AppendUvarint(file, 1)
	file = bitstream.AppendSection(file, meta)
	file = bitstream.AppendSection(file, []byte("MDZ3"))
	file = bitstream.AppendSection(file, nil)
	if err := os.WriteFile(state, file, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Options{StatePath: state})
	if err == nil || !strings.Contains(err.Error(), "s00000007") || !strings.Contains(err.Error(), "format v3") {
		t.Fatalf("boot from a v3 drain record: err = %v, want a refusal naming the session", err)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("refused drain file was not kept: %v", err)
	}
}

// TestDaemonRangedRead reads decoded frame ranges out of a live (unclosed)
// session and the stream endpoint with an HTTP Range header.
func TestDaemonRangedRead(t *testing.T) {
	_, tc := newTestEnv(t, Options{})
	traj := makeTraj(15, 80, 3)
	id := tc.create(`{"error_bound":1e-3,"buffer_size":3}`)
	tc.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, traj), http.StatusAccepted)
	tc.waitCompressed(id, 15, 80)

	// Live session: 15 frames in blocks of 3 are all flushed; the stream
	// has no trailer yet, which a ranged read must tolerate.
	all := decodeWireFrames(t, tc.do(http.MethodGet, "/v1/sessions/"+id+"/frames", nil, http.StatusOK))
	if len(all) != 15 {
		t.Fatalf("live read returned %d frames, want 15", len(all))
	}
	mid := decodeWireFrames(t, tc.do(http.MethodGet, "/v1/sessions/"+id+"/frames?from=6&count=4", nil, http.StatusOK))
	if len(mid) != 4 || !framesEqual(mid, all[6:10]) {
		t.Fatalf("ranged read [6,10) returned %d frames or wrong content", len(mid))
	}

	tc.do(http.MethodPost, "/v1/sessions/"+id+"/close", nil, http.StatusOK)
	full := tc.do(http.MethodGet, "/v1/sessions/"+id+"/stream", nil, http.StatusOK)

	// Byte-range request against the container.
	req, _ := http.NewRequest(http.MethodGet, tc.base+"/v1/sessions/"+id+"/stream", nil)
	req.Header.Set("Range", "bytes=0-3")
	resp, err := tc.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(part, full[:4]) {
		t.Fatalf("range request: status %d, %d bytes", resp.StatusCode, len(part))
	}
	if string(part) != "MDZ2" {
		t.Fatalf("container magic = %q", part)
	}
}

// TestDaemonDecodeEndpoint covers the stateless decoder, strict and
// salvage modes, against clean and corrupted containers.
func TestDaemonDecodeEndpoint(t *testing.T) {
	_, tc := newTestEnv(t, Options{})
	traj := makeTraj(12, 90, 11)
	container := libraryContainer(t, mdz.Config{ErrorBound: 1e-3, BufferSize: 3, CheckpointInterval: 2}, traj)

	dec := decodeWireFrames(t, tc.do(http.MethodPost, "/v1/decode", container, http.StatusOK))
	want, err := mdz.NewReader(bytes.NewReader(container)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !framesEqual(dec, want) {
		t.Fatal("decode endpoint diverges from the library reader")
	}

	sub := decodeWireFrames(t, tc.do(http.MethodPost, "/v1/decode?from=3&count=2", container, http.StatusOK))
	if len(sub) != 2 || !framesEqual(sub, want[3:5]) {
		t.Fatalf("ranged decode returned %d frames or wrong content", len(sub))
	}

	// Corrupt a byte mid-container: strict mode fails, salvage succeeds
	// and reports the damage in headers.
	corrupt := append([]byte(nil), container...)
	corrupt[len(corrupt)/2] ^= 0xFF
	tc.do(http.MethodPost, "/v1/decode", corrupt, http.StatusInternalServerError)

	req, _ := http.NewRequest(http.MethodPost, tc.base+"/v1/decode?salvage=1", bytes.NewReader(corrupt))
	resp, err := tc.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("salvage decode: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Mdz-Corrupt-Frames") == "0" {
		t.Error("salvage headers claim zero corrupt frames on a corrupted container")
	}
	if salvaged := decodeWireFrames(t, body); len(salvaged) == 0 {
		t.Error("salvage decode recovered nothing")
	}
}

// TestDaemonDecodeOneShotFixture posts the root package's legacy one-shot
// ("MDZF") fixture to the stateless decoder: whole, it decodes to the
// values recorded when it was written; ranged, to their window [7, 11),
// through the serial fallback since the container has no frame index.
func TestDaemonDecodeOneShotFixture(t *testing.T) {
	// The SHA-256 of the fixture's decoded float64 bits, X then Y then Z per
	// snapshot; the root package's TestOneShotFixtureDecodes pins the same.
	const wantHash = "cbf913fbecf1b5a3a8644c0ec4755197597f42460ac722d51d3931cc7dab2604"
	fixture, err := os.ReadFile(filepath.Join("..", "..", "testdata", "oneshot_mdzf.bin"))
	if err != nil {
		t.Fatal(err)
	}
	_, tc := newTestEnv(t, Options{})
	all := decodeWireFrames(t, tc.do(http.MethodPost, "/v1/decode", fixture, http.StatusOK))
	h := sha256.New()
	var word [8]byte
	for _, f := range all {
		for _, axis := range [][]float64{f.X, f.Y, f.Z} {
			for _, v := range axis {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantHash {
		t.Fatalf("decoded %d frames to sha256 %s, want %s", len(all), got, wantHash)
	}
	window := decodeWireFrames(t, tc.do(http.MethodPost, "/v1/decode?from=7&count=4", fixture, http.StatusOK))
	if len(window) != 4 || !framesEqual(window, all[7:11]) {
		t.Fatalf("ranged decode returned %d frames or wrong content", len(window))
	}
}

// TestDaemonEviction: idle sessions are evicted and their memory returns
// to the global budget.
func TestDaemonEviction(t *testing.T) {
	srv, tc := newTestEnv(t, Options{
		IdleTimeout: 80 * time.Millisecond,
		MemGlobal:   16 << 20,
	})
	traj := makeTraj(6, 50, 9)
	id := tc.create(`{"error_bound":1e-3}`)
	tc.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, traj), http.StatusAccepted)
	tc.do(http.MethodPost, "/v1/sessions/"+id+"/close", nil, http.StatusOK)
	if srv.MemoryUsed() == 0 {
		t.Fatal("closed session retains no accounted memory")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := srv.lookup(id); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session not evicted after its idle timeout")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if used := srv.MemoryUsed(); used != 0 {
		t.Fatalf("eviction leaked %d budgeted bytes", used)
	}
	if srv.reg.Counter("daemon.sessions.evicted").Value() == 0 {
		t.Error("eviction not counted")
	}
	tc.do(http.MethodGet, "/v1/sessions/"+id, nil, http.StatusNotFound)
}

// TestDaemonBudgets: the global memory cap rejects with 507 and the
// session cap fails the offending session without touching others; the
// session-count cap rejects with 429.
func TestDaemonBudgets(t *testing.T) {
	t.Run("global", func(t *testing.T) {
		_, tc := newTestEnv(t, Options{MemGlobal: 64 << 10})
		id := tc.create(`{"error_bound":1e-3}`)
		big := makeTraj(40, 500, 5) // ~480 KB wire bytes, over the 64 KB budget
		out := tc.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, big), http.StatusInsufficientStorage)
		if !strings.Contains(string(out), "budget") {
			t.Errorf("507 body does not mention the budget: %s", out)
		}
	})
	t.Run("per-session", func(t *testing.T) {
		_, tc := newTestEnv(t, Options{MemPerSession: 32 << 10})
		idSmall := tc.create(`{"error_bound":1e-3}`)
		idBig := tc.create(`{"error_bound":1e-3}`)
		big := makeTraj(20, 400, 6)
		tc.do(http.MethodPost, "/v1/sessions/"+idBig+"/frames", encodeWireFrames(t, big), http.StatusInsufficientStorage)
		// The other session is unaffected.
		small := makeTraj(4, 40, 6)
		tc.do(http.MethodPost, "/v1/sessions/"+idSmall+"/frames", encodeWireFrames(t, small), http.StatusAccepted)
		tc.do(http.MethodPost, "/v1/sessions/"+idSmall+"/close", nil, http.StatusOK)
	})
	t.Run("max-sessions", func(t *testing.T) {
		_, tc := newTestEnv(t, Options{MaxSessions: 2})
		tc.create(`{"error_bound":1e-3}`)
		tc.create(`{"error_bound":1e-3}`)
		tc.do(http.MethodPost, "/v1/sessions", []byte(`{"error_bound":1e-3}`), http.StatusTooManyRequests)
	})
}

// TestDaemonDeleteActive: deleting a session mid-stream releases all of
// its memory even with queued work, and later requests see 404.
func TestDaemonDeleteActive(t *testing.T) {
	srv, tc := newTestEnv(t, Options{MemGlobal: 16 << 20})
	traj := makeTraj(12, 80, 13)
	id := tc.create(`{"error_bound":1e-3}`)
	tc.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, traj), http.StatusAccepted)
	tc.do(http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusNoContent)
	if used := srv.MemoryUsed(); used != 0 {
		t.Fatalf("delete leaked %d budgeted bytes", used)
	}
	tc.do(http.MethodGet, "/v1/sessions/"+id, nil, http.StatusNotFound)
	tc.do(http.MethodPost, "/v1/sessions/"+id+"/close", nil, http.StatusNotFound)
}

// TestDaemonBadRequests: malformed bodies and parameters map to 400.
func TestDaemonBadRequests(t *testing.T) {
	_, tc := newTestEnv(t, Options{})
	tc.do(http.MethodPost, "/v1/sessions", []byte(`{`), http.StatusBadRequest)
	tc.do(http.MethodPost, "/v1/sessions", []byte(`{"error_bound":1e-3,"method":"NOPE"}`), http.StatusBadRequest)
	tc.do(http.MethodPost, "/v1/sessions", []byte(`{"error_bound":-1}`), http.StatusInternalServerError)

	id := tc.create(`{"error_bound":1e-3}`)
	// Truncated frame record.
	tc.do(http.MethodPost, "/v1/sessions/"+id+"/frames", []byte{5, 0, 0, 0, 1, 2}, http.StatusBadRequest)
	tc.do(http.MethodGet, "/v1/sessions/"+id+"/frames?from=-2", nil, http.StatusBadRequest)
	tc.do(http.MethodGet, "/v1/sessions/nope", nil, http.StatusNotFound)
}

// TestDaemonSessionKnobs: the parallelism knobs round-trip through the
// session config — accepted values produce a container byte-identical to
// the library run with the same Config, and over-cap or negative values
// are rejected as 400s before a session exists. The removed pipeline_depth
// key is ignored.
func TestDaemonSessionKnobs(t *testing.T) {
	srv, tc := newTestEnv(t, Options{MemGlobal: 32 << 20})
	traj := makeTraj(24, 96, 23)
	got := tc.runSession(`{"error_bound":1e-3,"buffer_size":4,"checkpoint_interval":2,`+
		`"workers":2,"shards":4,"adp_sample_shards":1,"pipeline_depth":2}`, traj)
	want := libraryContainer(t, mdz.Config{
		ErrorBound: 1e-3, BufferSize: 4, CheckpointInterval: 2,
		Workers: 2, Shards: 4, ADPSampleShards: 1,
	}, traj)
	if !bytes.Equal(got, want) {
		t.Fatalf("session container (%d bytes) differs from library container (%d bytes)", len(got), len(want))
	}
	for _, body := range []string{
		`{"error_bound":1e-3,"workers":65}`,
		`{"error_bound":1e-3,"workers":-1}`,
		`{"error_bound":1e-3,"shards":-1}`,
		`{"error_bound":1e-3,"shards":1000000}`,
		`{"error_bound":1e-3,"adp_sample_shards":1000000}`,
	} {
		tc.do(http.MethodPost, "/v1/sessions", []byte(body), http.StatusBadRequest)
	}
	if used := srv.MemoryUsed(); used != 0 {
		t.Fatalf("knob session leaked %d budgeted bytes", used)
	}
}

// TestDaemonPipelinedDeleteActive: deleting an active session returns all
// of its budgeted bytes, here for a create body that still carries the
// removed pipeline_depth key.
func TestDaemonPipelinedDeleteActive(t *testing.T) {
	srv, tc := newTestEnv(t, Options{MemGlobal: 16 << 20})
	traj := makeTraj(12, 80, 13)
	id := tc.create(`{"error_bound":1e-3,"checkpoint_interval":2,"pipeline_depth":4}`)
	tc.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, traj), http.StatusAccepted)
	tc.do(http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusNoContent)
	if used := srv.MemoryUsed(); used != 0 {
		t.Fatalf("delete leaked %d budgeted bytes", used)
	}
}

// TestDaemonTenantMetrics: per-tenant counters accumulate under sanitized
// names and hostile tenant strings cannot mint unbounded metric names.
func TestDaemonTenantMetrics(t *testing.T) {
	srv, tc := newTestEnv(t, Options{})
	traj := makeTraj(5, 40, 17)
	tc.runSession(`{"tenant":"Alice/Prod","error_bound":1e-3}`, traj)
	if v := srv.reg.Counter("daemon.tenant.alice_prod.frames_in").Value(); v != 5 {
		t.Errorf("tenant frames_in = %d, want 5", v)
	}
	if v := srv.reg.Counter("daemon.frames.in").Value(); v != 5 {
		t.Errorf("daemon frames_in = %d, want 5", v)
	}
	if got := sanitizeTenant(strings.Repeat("x", 500)); len(got) > 48 {
		t.Errorf("sanitized tenant length %d", len(got))
	}
	if got := sanitizeTenant(""); got != "default" {
		t.Errorf("empty tenant = %q", got)
	}
}

// TestDaemonSeekIndexedRange: a seek_index session's drained container
// carries a seek table, and ranged reads of it — through the session
// endpoint and the stateless /v1/decode — return the same frames as the
// serial path, now via the index fast path.
func TestDaemonSeekIndexedRange(t *testing.T) {
	_, tc := newTestEnv(t, Options{})
	traj := makeTraj(20, 60, 9)
	id := tc.create(`{"error_bound":1e-3,"buffer_size":2,"checkpoint_interval":3,"seek_index":true}`)
	tc.do(http.MethodPost, "/v1/sessions/"+id+"/frames", encodeWireFrames(t, traj), http.StatusAccepted)
	tc.do(http.MethodPost, "/v1/sessions/"+id+"/close", nil, http.StatusOK)

	all := decodeWireFrames(t, tc.do(http.MethodGet, "/v1/sessions/"+id+"/frames", nil, http.StatusOK))
	if len(all) != 20 {
		t.Fatalf("full read returned %d frames, want 20", len(all))
	}
	window := decodeWireFrames(t, tc.do(http.MethodGet, "/v1/sessions/"+id+"/frames?from=13&count=5", nil, http.StatusOK))
	if len(window) != 5 || !framesEqual(window, all[13:18]) {
		t.Fatalf("indexed ranged read [13,18) returned %d frames or wrong content", len(window))
	}

	// The drained container itself must carry the index frame: a strict
	// in-process Seek against it must succeed without a scan rebuild.
	container := tc.do(http.MethodGet, "/v1/sessions/"+id+"/stream", nil, http.StatusOK)
	stream := container // container bytes ARE the stream for the daemon
	rd := mdz.NewReader(bytes.NewReader(stream))
	got, err := rd.ReadRange(13, 18)
	if err != nil {
		t.Fatalf("ReadRange over drained container: %v", err)
	}
	if !framesEqual(got, all[13:18]) {
		t.Fatal("ReadRange frames differ from endpoint frames")
	}

	// Stateless decode endpoint, same window.
	dec := decodeWireFrames(t, tc.do(http.MethodPost, "/v1/decode?from=13&count=5", stream, http.StatusOK))
	if len(dec) != 5 || !framesEqual(dec, all[13:18]) {
		t.Fatalf("stateless ranged decode returned %d frames or wrong content", len(dec))
	}
	// Past-the-end ranges yield an empty, successful response.
	empty := decodeWireFrames(t, tc.do(http.MethodPost, "/v1/decode?from=100&count=5", stream, http.StatusOK))
	if len(empty) != 0 {
		t.Fatalf("past-end ranged decode returned %d frames, want 0", len(empty))
	}
}
