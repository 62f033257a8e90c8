package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	mdz "github.com/mdz/mdz"
	"github.com/mdz/mdz/internal/daemon"
)

// clients is the number of load connections: one per CPU of the host the
// rates were set on, so the generator never outnumbers the cores.
const clients = 2

// setupReps is how many times a run builds the daemon to time set-up,
// after one untimed build. One set-up takes about half a millisecond, so
// only the median of many repeats holds still from run to run. They run
// back to back: with 10 ms of idle before each, the set-up median repeated
// better from run to run, but most runs then served the load at half speed
// on the reference host.
const setupReps = 201

// daemonWarmup is the untimed start of the load. Its requests are sent and
// checked like all others, but they meet cold connections, buffers and
// heap, and their latencies are not recorded.
const daemonWarmup = time.Second

// daemonWindow is the span of the schedule one window covers: 60 ingests at
// the workload's rate, enough for a p90 with a few samples beyond it.
const daemonWindow = time.Second

// runDaemon drives an in-process mdzd over loopback, open loop: ingest
// and live tail-read requests fall due at fixed rates, and each is timed
// from its due time, so a stall also counts against the requests queued
// behind it. The ingests of a session are sent one at a time and carry the
// base's batches in order, so a session's content does not depend on how
// the two connections interleave. A session is rotated — closed, fetched,
// deleted, replaced — after a fixed number of ingests; its container is
// checked after the load against the bound and byte for byte against a
// local Writer. The measured op is an ingest request.
func runDaemon(w *workload, e *env) error {
	b := axisBounds(e.base, w.eps)
	var bodies [][]byte
	for lo := 0; lo < len(e.base); lo += bs {
		bodies = append(bodies, wireRecords(e.base[lo:lo+bs]))
	}
	createBody := []byte(fmt.Sprintf(`{"tenant":"bench","error_bound":%g,"seek_index":true}`, w.eps))
	libCfg := mdz.Config{ErrorBound: w.eps, SeekIndex: true}
	rotated := w.rotateAfter * bs

	var setups []float64
	var rig *daemonRig
	var firstID string
	for k := 0; k <= setupReps; k++ {
		if rig != nil {
			rig.stop()
		}
		t0 := time.Now()
		r, id, err := startDaemon(e.trace, createBody)
		e.res.op(err)
		if err != nil {
			return nil
		}
		if k > 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
		rig, firstID = r, id
	}
	defer rig.stop()

	ld := &load{w: w, e: e, rig: rig, bodies: bodies, createBody: createBody, bound: b}
	ld.slots = []*slot{{id: firstID}}
	for len(ld.slots) < w.sessions {
		cl := newClient()
		id, err := createSession(cl, rig.url, createBody)
		cl.CloseIdleConnections()
		e.res.op(err)
		if err != nil {
			return nil
		}
		ld.slots = append(ld.slots, &slot{id: id})
	}
	var memPeak int64
	stopMem := func() {}
	if e.trace {
		stopMem = sampleMemory(rig.srv, &memPeak)
	}
	logs := ld.run(schedule(w, daemonWarmup+e.budget))
	stopMem()

	// Fold the per-connection logs into the result, then check every
	// rotated container, with the load finished.
	var all loadLog
	for _, l := range logs {
		all.merge(l)
	}
	e.res.Attempted += all.attempted
	for _, err := range all.errs {
		e.res.fail(err)
	}
	ref, err := libraryContainer(e, libCfg, rotated)
	e.res.op(err)
	if err != nil {
		return nil
	}
	dec := newTelAgg()
	for _, c := range all.containers {
		rd, err := verifyContainer(c, e, rotated, b, mdz.ReaderOptions{Telemetry: e.trace}, nil)
		if err == nil && !bytes.Equal(c, ref) {
			err = errors.New("mdzd container differs from a local Writer over the same snapshots")
		}
		e.res.op(err)
		dec.add(rd.Telemetry())
	}
	e.res.Info["rotations"] = Metric{Value: float64(len(all.containers)), Unit: "count", Samples: 1}

	if e.trace {
		in := &layerInput{enc: newTelAgg(), dec: dec, atoms: e.base[0].N()}
		in.ingestHandlerFrac = medianOr0(all.ingestHandler)
		in.readHandlerFrac = medianOr0(all.readHandler)
		in.memPeakMB = float64(memPeak) / 1e6
		in.rejections = float64(all.rejections)
		in.lateFrac = lateShare(all.late)
		daemonLibraryLayers(e, in, libCfg, rotated, ref, b)
		e.setLayers(in)
		return nil
	}
	// Ingests are windowed by due time, after the warm-up. A window's
	// throughput is what an ingest costs mdzd: acknowledged raw bytes over
	// the time its ingest requests were in flight, from send to response,
	// summed over connections. The offered rate is fixed, so bytes over the
	// load window would not move with the daemon's speed.
	sort.Slice(all.ingest, func(i, j int) bool { return all.ingest[i].at < all.ingest[j].at })
	var win windows
	end := daemonWarmup + daemonWindow
	for _, s := range all.ingest {
		for s.at >= end {
			win.cut()
			end += daemonWindow
		}
		win.add(e.rawBytes(int(s.acked)), s.busy, s.ms)
	}
	if end <= daemonWarmup+e.budget {
		win.cut() // the open window ends inside the schedule, so it is whole
	}
	e.setE2E(&win, setups, float64(e.rawBytes(rotated))/float64(len(ref)), w.tailPct)
	rv, rpct := tail(all.read, w.tailPct)
	e.res.Info["read_p50_ms"] = summary(all.read, "ms")
	e.res.Info["read_tail_ms"] = Metric{Value: rv, Unit: "ms", Samples: len(all.read), Pct: rpct}
	lv, lpct := tail(all.late, w.tailPct)
	e.res.Info["gen_late_tail_ms"] = Metric{Value: lv, Unit: "ms", Samples: len(all.late), Pct: lpct}
	return nil
}

// sampleMemory records the peak of the daemon's budgeted memory every 5 ms
// into peak until the returned stop function is called; stop returns once
// the sampler has exited.
func sampleMemory(srv *daemon.Server, peak *int64) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				*peak = max(*peak, srv.MemoryUsed())
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// lateShare is the share of requests the generator sent 1 ms or more
// after their due time.
func lateShare(late []float64) float64 {
	n := 0
	for _, l := range late {
		if l >= 1 {
			n++
		}
	}
	return div(float64(n), float64(len(late)))
}

// daemonLibraryLayers measures the library layers under mdzd, which the
// daemon does not expose: traced, untraced and paired CompressBatch
// library passes over one rotated session's snapshots, and seek probes on
// the resulting container.
func daemonLibraryLayers(e *env, in *layerInput, cfg mdz.Config, n int, ref []byte, b [3]float64) {
	det := determinism{}
	if det.check(ref) != nil || encodeLayers(e, cfg, n, in, &det, time.Second) != nil {
		return // recorded as a failed operation
	}
	in.busyNS = in.enc.stageNS(encStages) + int64(sum(in.sinkNS))
	in.windowValues = in.emitted
	in.seekMS, in.rangeMS = seekProbes(e, ref, n, mdz.ReaderOptions{}, b, 20)
	in.fitMS = fitProbe(e)
}

// libraryContainer is what a local Writer produces for n replayed
// snapshots; an mdzd session fed the same snapshots must match it byte for
// byte.
func libraryContainer(e *env, cfg mdz.Config, n int) ([]byte, error) {
	var buf bytes.Buffer
	_, err := writePass(e, cfg, n, &buf)
	return buf.Bytes(), err
}

// daemonRig is one in-process mdzd serving on a loopback listener.
type daemonRig struct {
	srv    *daemon.Server
	hs     *http.Server
	served chan error
	url    string
	times  *handlerTimes // nil when untraced
}

// startDaemon builds a daemon, serves it and creates its first session:
// the set-up a deployment pays before the first frame can arrive.
func startDaemon(trace bool, createBody []byte) (*daemonRig, string, error) {
	srv, err := daemon.New(daemon.Options{MemGlobal: 1 << 30})
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	rig := &daemonRig{srv: srv, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	h := srv.Handler()
	if trace {
		rig.times = &handlerTimes{}
		h = rig.times.wrap(h)
	}
	rig.hs = &http.Server{Handler: h}
	go func() { rig.served <- rig.hs.Serve(ln) }()
	cl := newClient()
	defer cl.CloseIdleConnections()
	id, err := createSession(cl, rig.url, createBody)
	if err != nil {
		rig.stop()
		return nil, "", err
	}
	return rig, id, nil
}

// stop closes the listener and every connection, waits for Serve to
// return and destroys the daemon's sessions.
func (r *daemonRig) stop() {
	r.hs.Close()
	<-r.served
	r.srv.Close()
}

// handlerTimes is bench-side middleware around the daemon's handler: it
// records how long the handler ran for each request the load tagged.
type handlerTimes struct{ m sync.Map }

const benchIDHeader = "X-Bench-Id"

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		next.ServeHTTP(w, r)
		if id := r.Header.Get(benchIDHeader); id != "" {
			h.m.Store(id, time.Since(t))
		}
	})
}

// take returns and forgets the handler time of a request, if recorded.
func (h *handlerTimes) take(id string) (time.Duration, bool) {
	v, ok := h.m.LoadAndDelete(id)
	if !ok {
		return 0, false
	}
	return v.(time.Duration), true
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// call performs one request and reads the whole response.
func call(cl *http.Client, method, url string, body []byte, id string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if id != "" {
		req.Header.Set(benchIDHeader, id)
	}
	res, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	return res.StatusCode, b, err
}

func want(status, code int, body []byte, what string) error {
	if status != code {
		return fmt.Errorf("%s: status %d, want %d: %.200s", what, status, code, body)
	}
	return nil
}

func createSession(cl *http.Client, url string, body []byte) (string, error) {
	st, b, err := call(cl, http.MethodPost, url+"/v1/sessions", body, "")
	if err == nil {
		err = want(st, http.StatusCreated, b, "create session")
	}
	if err != nil {
		return "", err
	}
	i := bytes.Index(b, []byte(`"id":"`))
	if i < 0 {
		return "", fmt.Errorf("create session: no id in %.200s", b)
	}
	id, _, ok := bytes.Cut(b[i+6:], []byte(`"`))
	if !ok {
		return "", fmt.Errorf("create session: unterminated id in %.200s", b)
	}
	return string(id), nil
}

// event is one scheduled request: an ingest or a tail read of a session.
type event struct {
	at   time.Duration
	read bool
	slot int
}

// schedule lays out the run's requests: each kind at its fixed rate,
// assigned to sessions round robin, in due-time order. Reads start half a
// read period after the ingests, the same in every run: a phase drawn per
// run would make how often the two kinds collide differ from seed to seed,
// and with it every latency.
func schedule(w *workload, budget time.Duration) []event {
	var ev []event
	add := func(hz float64, read bool, phase float64) {
		period := time.Duration(float64(time.Second) / hz)
		k := 0
		for t := time.Duration(phase * float64(period)); t < budget; t += period {
			ev = append(ev, event{at: t, read: read, slot: k % w.sessions})
			k++
		}
	}
	add(w.ingestHz, false, 0)
	add(w.readHz, true, 0.5)
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].at < ev[j].at })
	return ev
}

// slot is one live session position. Requests hold mu shared; rotation
// holds it exclusively, so it waits for in-flight requests to finish.
// Ingests also hold ingest, so they reach the session one at a time, in
// the order of sent.
type slot struct {
	mu     sync.RWMutex
	ingest sync.Mutex
	id     string
	sent   int          // ingests dispatched to the current session; guarded by ingest
	acked  atomic.Int64 // snapshots it acknowledged
}

// load is one open-loop run against a rig.
type load struct {
	w          *workload
	e          *env
	rig        *daemonRig
	bodies     [][]byte // the base's batches as ingest bodies; ingest k carries bodies[k mod len]
	createBody []byte
	bound      [3]float64
	slots      []*slot
}

// ingestSample is one timed ingest request.
type ingestSample struct {
	at    time.Duration // due time, from the start of the load
	ms    float64       // latency from the due time
	busy  time.Duration // in flight, from send to response
	acked int64         // snapshots acknowledged
}

// loadLog is what one connection observed after the warm-up; its counts
// and checks cover the warm-up too. Each connection owns its log; the logs
// are merged after the load.
type loadLog struct {
	ingest                     []ingestSample
	read, late                 []float64 // ms: from due time, and generator lateness
	ingestHandler, readHandler []float64 // handler time ÷ request time
	attempted                  int64
	errs                       []error
	rejections                 int
	containers                 [][]byte
}

func (l *loadLog) op(err error) {
	l.attempted++
	if err != nil {
		l.errs = append(l.errs, err)
	}
}

func (l *loadLog) merge(o *loadLog) {
	l.ingest = append(l.ingest, o.ingest...)
	l.read = append(l.read, o.read...)
	l.late = append(l.late, o.late...)
	l.ingestHandler = append(l.ingestHandler, o.ingestHandler...)
	l.readHandler = append(l.readHandler, o.readHandler...)
	l.attempted += o.attempted
	l.errs = append(l.errs, o.errs...)
	l.rejections += o.rejections
	l.containers = append(l.containers, o.containers...)
}

// run plays the schedule from clients connections and returns their logs.
func (ld *load) run(events []event) []*loadLog {
	logs := make([]*loadLog, clients)
	var next atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for c := range logs {
		logs[c] = &loadLog{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for seq := 0; ; seq++ {
				i := int(next.Add(1) - 1)
				if i >= len(events) {
					return
				}
				ev := events[i]
				due := start.Add(ev.at)
				time.Sleep(time.Until(due))
				if ev.at >= daemonWarmup {
					logs[c].late = append(logs[c].late, ms(time.Since(due)))
				}
				ld.do(cl, logs[c], ev, due, fmt.Sprintf("%d-%d", c, seq))
			}
		}(c)
	}
	wg.Wait()
	return logs
}

// do performs one scheduled request. A request of the warm-up is counted
// and checked, but its times are not recorded.
func (ld *load) do(cl *http.Client, lg *loadLog, ev event, due time.Time, id string) {
	s := ld.slots[ev.slot]
	timed := ev.at >= daemonWarmup
	if ev.read {
		s.mu.RLock()
		from := max(0, s.acked.Load()-bs)
		url := fmt.Sprintf("%s/v1/sessions/%s/frames?from=%d&count=%d", ld.rig.url, s.id, from, bs)
		sent := time.Now()
		st, b, err := call(cl, http.MethodGet, url, nil, id)
		s.mu.RUnlock()
		done := time.Now()
		if timed {
			lg.read = append(lg.read, ms(done.Sub(due)))
			ld.handlerShare(&lg.readHandler, id, done.Sub(sent))
		}
		if err == nil {
			err = want(st, http.StatusOK, b, "tail read")
		}
		if err == nil {
			err = ld.checkTail(b, int(from))
		}
		ld.noteStatus(lg, st)
		lg.op(err)
		return
	}
	for {
		s.mu.RLock()
		s.ingest.Lock()
		if s.sent < ld.w.rotateAfter {
			body := ld.bodies[s.sent%len(ld.bodies)]
			s.sent++
			sent := time.Now()
			st, b, err := call(cl, http.MethodPost, ld.rig.url+"/v1/sessions/"+s.id+"/frames", body, id)
			if err == nil {
				err = want(st, http.StatusAccepted, b, "ingest")
			}
			var acked int64
			if err == nil {
				s.acked.Add(bs)
				acked = bs
			}
			done := time.Now()
			s.ingest.Unlock()
			s.mu.RUnlock()
			if timed {
				lg.ingest = append(lg.ingest, ingestSample{at: ev.at, ms: ms(done.Sub(due)), busy: done.Sub(sent), acked: acked})
				ld.handlerShare(&lg.ingestHandler, id, done.Sub(sent))
			}
			ld.noteStatus(lg, st)
			lg.op(err)
			return
		}
		s.ingest.Unlock()
		s.mu.RUnlock()
		s.mu.Lock()
		if s.sent >= ld.w.rotateAfter {
			ld.rotate(cl, lg, s)
		}
		s.mu.Unlock()
	}
}

// rotate ends a full session — close, fetch its container, delete — and
// opens its replacement. The caller holds s.mu exclusively.
func (ld *load) rotate(cl *http.Client, lg *loadLog, s *slot) {
	base := ld.rig.url + "/v1/sessions/" + s.id
	st, b, err := call(cl, http.MethodPost, base+"/close", nil, "")
	if err == nil {
		err = want(st, http.StatusOK, b, "close")
	}
	lg.op(err)
	st, container, err := call(cl, http.MethodGet, base+"/stream", nil, "")
	if err == nil {
		err = want(st, http.StatusOK, container, "stream")
	}
	lg.op(err)
	if err == nil {
		lg.containers = append(lg.containers, container)
	}
	st, b, err = call(cl, http.MethodDelete, base, nil, "")
	if err == nil {
		err = want(st, http.StatusNoContent, b, "delete")
	}
	lg.op(err)
	id, err := createSession(cl, ld.rig.url, ld.createBody)
	lg.op(err)
	if err == nil {
		s.id = id
	}
	s.sent = 0
	s.acked.Store(0)
}

func (ld *load) handlerShare(dst *[]float64, id string, total time.Duration) {
	if ld.rig.times == nil {
		return
	}
	if h, ok := ld.rig.times.take(id); ok && total > 0 {
		*dst = append(*dst, float64(h)/float64(total))
	}
}

func (ld *load) noteStatus(lg *loadLog, status int) {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusInsufficientStorage:
		lg.rejections++
	}
}

// checkTail verifies a tail read: at most one batch of snapshots, each the
// session's snapshot from+j within the bound. A live session may not have
// compressed the newest batch yet, so fewer snapshots are legal.
func (ld *load) checkTail(b []byte, from int) error {
	frames, err := parseWire(b)
	if err != nil {
		return fmt.Errorf("tail read: %w", err)
	}
	if len(frames) > bs {
		return fmt.Errorf("tail read returned %d snapshots, asked for %d", len(frames), bs)
	}
	for j, f := range frames {
		if err := checkFrame(f, ld.e.frame(from+j), ld.bound); err != nil {
			return fmt.Errorf("tail read snapshot %d: %w", from+j, err)
		}
	}
	return nil
}

// wireRecords renders snapshots in mdzd's frame record format: a uint32
// LE atom count, then X, Y and Z, each as that many float64 LE.
func wireRecords(frames []mdz.Frame) []byte {
	var out []byte
	for _, f := range frames {
		out = binary.LittleEndian.AppendUint32(out, uint32(f.N()))
		for a := 0; a < 3; a++ {
			for _, v := range axis(f, a) {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		}
	}
	return out
}

// parseWire is the inverse of wireRecords.
func parseWire(b []byte) ([]mdz.Frame, error) {
	var out []mdz.Frame
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, errors.New("record cut inside its atom count")
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < 24*n {
			return nil, errors.New("record cut inside its coordinates")
		}
		var ax [3][]float64
		for a := range ax {
			ax[a] = make([]float64, n)
			for i := range ax[a] {
				ax[a][i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
			b = b[8*n:]
		}
		out = append(out, mdz.Frame{X: ax[0], Y: ax[1], Z: ax[2]})
	}
	return out, nil
}
