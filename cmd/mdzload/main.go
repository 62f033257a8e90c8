// Command mdzload is the mdzd load harness: it drives many concurrent
// streaming sessions against a daemon — an external one (-addr) or one it
// spawns in-process (-spawn) — and optionally verifies that a fraction of
// the returned containers are byte-identical to what the mdz library
// produces for the same input locally.
//
//	mdzload -spawn -sessions 256 -frames 40 -atoms 300 -c 32 -verify 0.1
//
// Exit status is non-zero on any session failure or verification mismatch,
// so it doubles as a CI smoke test.
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	mdz "github.com/mdz/mdz"
	"github.com/mdz/mdz/internal/daemon"
	"github.com/mdz/mdz/internal/obshttp"
)

func main() {
	var (
		addr     = flag.String("addr", "", "address of a running mdzd (host:port)")
		spawn    = flag.Bool("spawn", false, "spawn an in-process daemon instead of targeting -addr")
		sessions = flag.Int("sessions", 64, "number of sessions to run")
		frames   = flag.Int("frames", 32, "snapshots per session")
		atoms    = flag.Int("atoms", 200, "atoms per snapshot")
		workers  = flag.Int("c", 16, "concurrent client workers")
		eps      = flag.Float64("eps", 1e-3, "error bound")
		verify   = flag.Float64("verify", 0.1, "fraction of sessions whose containers are byte-compared against a local library run")
		seed     = flag.Int64("seed", 1, "base RNG seed (session i uses seed+i)")
	)
	flag.Parse()
	if err := run(*addr, *spawn, *sessions, *frames, *atoms, *workers, *eps, *verify, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "mdzload:", err)
		os.Exit(1)
	}
}

func run(addr string, spawn bool, sessions, frames, atoms, workers int, eps float64, verify float64, seed int64) error {
	if spawn {
		srv, err := daemon.New(daemon.Options{})
		if err != nil {
			return err
		}
		defer srv.Close()
		api, err := obshttp.Serve("127.0.0.1:0", srv.Handler(), nil)
		if err != nil {
			return err
		}
		addr = api.Addr()
		fmt.Fprintf(os.Stderr, "mdzload: spawned daemon on %s\n", addr)
	}
	if addr == "" {
		return fmt.Errorf("either -addr or -spawn is required")
	}
	base := "http://" + addr
	client := &http.Client{}

	var (
		failures atomic.Int64
		rawBytes atomic.Int64
		verified atomic.Int64
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				doVerify := verify > 0 && float64(i%100) < verify*100
				if err := runSession(client, base, i, frames, atoms, eps, seed+int64(i), doVerify); err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "mdzload: session %d: %v\n", i, err)
					continue
				}
				rawBytes.Add(int64(frames) * int64(atoms) * 24)
				if doVerify {
					verified.Add(1)
				}
			}
		}()
	}
	for i := 0; i < sessions; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)

	mb := float64(rawBytes.Load()) / (1 << 20)
	fmt.Printf("mdzload: %d sessions (%d failed), %d frames x %d atoms, %.1f MiB raw in %v (%.1f MiB/s), %d verified byte-identical\n",
		sessions, failures.Load(), frames, atoms, mb, wall.Round(time.Millisecond),
		mb/wall.Seconds(), verified.Load())
	if n := failures.Load(); n > 0 {
		return fmt.Errorf("%d of %d sessions failed", n, sessions)
	}
	return nil
}

// makeFrames builds a deterministic random-walk trajectory.
func makeFrames(m, n int, seed int64) []mdz.Frame {
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

// encodeWire renders frames in the daemon's ingest record format: a
// uint32 LE atom count, then X, Y, Z each as n float64s LE.
func encodeWire(frames []mdz.Frame) []byte {
	var buf bytes.Buffer
	for _, f := range frames {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(f.X)))
		buf.Write(hdr[:])
		for _, axis := range [][]float64{f.X, f.Y, f.Z} {
			for _, v := range axis {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				buf.Write(b[:])
			}
		}
	}
	return buf.Bytes()
}

func runSession(client *http.Client, base string, idx, frames, atoms int, eps float64, seed int64, verify bool) error {
	traj := makeFrames(frames, atoms, seed)

	// Open.
	cfgBody := fmt.Sprintf(`{"tenant":"load%d","error_bound":%g}`, idx%8, eps)
	resp, err := client.Post(base+"/v1/sessions", "application/json", strings.NewReader(cfgBody))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create: %d %s", resp.StatusCode, body)
	}
	id, err := jsonField(body, "id")
	if err != nil {
		return err
	}

	// Stream frames in two chunks to exercise multiple ingest requests.
	half := len(traj) / 2
	for _, chunk := range [][]mdz.Frame{traj[:half], traj[half:]} {
		if len(chunk) == 0 {
			continue
		}
		resp, err := client.Post(base+"/v1/sessions/"+id+"/frames", "application/octet-stream",
			bytes.NewReader(encodeWire(chunk)))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("ingest: %d %s", resp.StatusCode, body)
		}
	}

	// Close.
	resp, err = client.Post(base+"/v1/sessions/"+id+"/close", "", nil)
	if err != nil {
		return err
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("close: %d %s", resp.StatusCode, body)
	}

	// Fetch the container.
	resp, err = client.Get(base + "/v1/sessions/" + id + "/stream")
	if err != nil {
		return err
	}
	container, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: %d", resp.StatusCode)
	}

	// Delete (frees server memory).
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	if resp, err := client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	if !verify {
		// Cheap sanity check: the container must decode to the right count.
		got, err := mdz.NewReader(bytes.NewReader(container)).ReadAll()
		if err != nil {
			return fmt.Errorf("container does not decode: %w", err)
		}
		if len(got) != frames {
			return fmt.Errorf("container holds %d frames, want %d", len(got), frames)
		}
		return nil
	}

	// Full verification: the daemon's container must be byte-identical to
	// a local library run over the same input.
	var want bytes.Buffer
	w, err := mdz.NewWriter(&want, mdz.Config{ErrorBound: eps})
	if err != nil {
		return err
	}
	for _, f := range traj {
		if err := w.WriteFrame(f); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	if !bytes.Equal(container, want.Bytes()) {
		return fmt.Errorf("container diverges from the local library run (%d vs %d bytes)",
			len(container), want.Len())
	}
	return nil
}

// jsonField pulls one string field out of a flat JSON object without
// pulling in a struct per response shape.
func jsonField(body []byte, key string) (string, error) {
	marker := `"` + key + `":"`
	i := bytes.Index(body, []byte(marker))
	if i < 0 {
		return "", fmt.Errorf("no %q in %s", key, body)
	}
	rest := body[i+len(marker):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", fmt.Errorf("unterminated %q in %s", key, body)
	}
	return string(rest[:j]), nil
}
