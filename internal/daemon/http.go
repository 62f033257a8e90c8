package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	mdz "github.com/mdz/mdz"
	"github.com/mdz/mdz/internal/budget"
	"github.com/mdz/mdz/internal/core"
)

// API-level sentinel errors and their HTTP status mapping.
var (
	errDraining        = errors.New("server is draining")
	errTooManySessions = errors.New("session limit reached")
	errUnknownSession  = errors.New("unknown session")
)

func statusFor(err error) int {
	switch {
	case errors.Is(err, errUnknownSession):
		return http.StatusNotFound
	case errors.Is(err, errSessionClosed):
		return http.StatusConflict
	case errors.Is(err, errTooManySessions):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, budget.ErrExceeded):
		return http.StatusInsufficientStorage
	case errors.Is(err, errWireFormat):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// httpError renders err as a JSON problem document with its mapped status.
func (srv *Server) httpError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusInsufficientStorage {
		srv.tel.rejectedMem.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// SessionConfig is the JSON body of POST /v1/sessions.
type SessionConfig struct {
	// Tenant labels the session's per-tenant metrics; empty is "default".
	Tenant string `json:"tenant,omitempty"`
	// ErrorBound is the compressor's error tolerance (required, > 0).
	ErrorBound float64 `json:"error_bound"`
	// AbsoluteBound interprets ErrorBound as an absolute tolerance instead
	// of value-range-relative.
	AbsoluteBound bool `json:"absolute_bound,omitempty"`
	// Method names the compression method: ADP (default), VQ, VQT or MT.
	Method string `json:"method,omitempty"`
	// BufferSize is the snapshots-per-block batch size (default 10).
	BufferSize int `json:"buffer_size,omitempty"`
	// CheckpointInterval emits a recovery checkpoint every N blocks.
	CheckpointInterval int `json:"checkpoint_interval,omitempty"`
	// Workers bounds the session's compression goroutines (0 = GOMAXPROCS).
	// Capped at maxSessionWorkers so one tenant cannot claim the box.
	Workers int `json:"workers,omitempty"`
	// Shards fixes the particle shards per axis batch (0 = auto). Part of
	// the output format, so a fixed value pins output bytes.
	Shards int `json:"shards,omitempty"`
	// ADPSampleShards amortizes ADP re-evaluations onto a sampled shard
	// prefix (0 = full trials; changes output bytes deterministically).
	ADPSampleShards int `json:"adp_sample_shards,omitempty"`
	// SeekIndex appends a seek-table frame when the session closes, so
	// ranged reads of the drained container seek straight to the window
	// instead of decoding the prefix.
	SeekIndex bool `json:"seek_index,omitempty"`
}

// maxSessionWorkers caps a session's client-supplied worker count. Workers
// are goroutines and multiply per session; the cap keeps a single tenant's
// request from dimensioning the whole process.
const maxSessionWorkers = 64

func (sc *SessionConfig) toConfig() (mdz.Config, error) {
	m, err := mdz.ParseMethod(sc.Method)
	if err != nil {
		return mdz.Config{}, err
	}
	if sc.Workers < 0 || sc.Workers > maxSessionWorkers {
		return mdz.Config{}, fmt.Errorf("workers must be in [0, %d], got %d", maxSessionWorkers, sc.Workers)
	}
	if sc.Shards < 0 || sc.Shards > core.MaxShards {
		return mdz.Config{}, fmt.Errorf("shards must be in [0, %d], got %d", core.MaxShards, sc.Shards)
	}
	if sc.ADPSampleShards < 0 || sc.ADPSampleShards > core.MaxShards {
		return mdz.Config{}, fmt.Errorf("adp_sample_shards must be in [0, %d], got %d", core.MaxShards, sc.ADPSampleShards)
	}
	cfg := mdz.Config{
		ErrorBound:         sc.ErrorBound,
		Method:             m,
		BufferSize:         sc.BufferSize,
		CheckpointInterval: sc.CheckpointInterval,
		Workers:            sc.Workers,
		Shards:             sc.Shards,
		ADPSampleShards:    sc.ADPSampleShards,
		SeekIndex:          sc.SeekIndex,
	}
	if sc.AbsoluteBound {
		cfg.Mode = mdz.Absolute
	}
	return cfg, nil
}

// Handler returns the service API mux. Observability endpoints (metrics,
// pprof) are intentionally not here — they belong on the admin listener.
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", srv.handleHealth)
	mux.HandleFunc("POST /v1/sessions", srv.handleCreate)
	mux.HandleFunc("GET /v1/sessions", srv.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", srv.handleInfo)
	mux.HandleFunc("DELETE /v1/sessions/{id}", srv.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/frames", srv.handleIngest)
	mux.HandleFunc("GET /v1/sessions/{id}/frames", srv.handleReadFrames)
	mux.HandleFunc("POST /v1/sessions/{id}/close", srv.handleClose)
	mux.HandleFunc("GET /v1/sessions/{id}/stream", srv.handleStream)
	mux.HandleFunc("POST /v1/decode", srv.handleDecode)
	return mux
}

func (srv *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	srv.mu.Lock()
	draining := srv.draining
	n := len(srv.sessions)
	srv.mu.Unlock()
	status := http.StatusOK
	if draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"draining":     draining,
		"sessions":     n,
		"memory_bytes": srv.mem.Used(),
	})
}

func (srv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var sc SessionConfig
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&sc); err != nil {
		srv.httpError(w, fmt.Errorf("%w: %v", errWireFormat, err))
		return
	}
	s, err := srv.newSession(sc)
	if err != nil {
		srv.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.describe())
}

func (srv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	srv.mu.Lock()
	list := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		list = append(list, s)
	}
	srv.mu.Unlock()
	infos := make([]info, 0, len(list))
	for _, s := range list {
		infos = append(infos, s.describe())
	}
	writeJSON(w, http.StatusOK, infos)
}

func (srv *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.lookup(r.PathValue("id"))
	if !ok {
		srv.httpError(w, errUnknownSession)
		return
	}
	writeJSON(w, http.StatusOK, s.describe())
}

func (srv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.lookup(r.PathValue("id"))
	if !ok {
		srv.httpError(w, errUnknownSession)
		return
	}
	srv.remove(s, "deleted")
	srv.tel.memUsed.Set(srv.mem.Used())
	w.WriteHeader(http.StatusNoContent)
}

// ingestBatchFrames bounds the snapshots grouped into one queue item, so
// queue depth bounds memory in frames, not in unbounded request bodies.
const ingestBatchFrames = 32

func (srv *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.lookup(r.PathValue("id"))
	if !ok {
		srv.httpError(w, errUnknownSession)
		return
	}
	br := bufio.NewReaderSize(r.Body, 64<<10)
	accepted := 0
	var acceptedBytes int64
	for {
		b := ingestBatch{frames: make([]mdz.Frame, 0, ingestBatchFrames), tx: srv.mem.Begin()}
		charge := func(n int) error { return s.reserve(&b, n) }
		var batchBytes int64
		var rerr error
		for len(b.frames) < ingestBatchFrames {
			f, err := readWireFrame(br, charge)
			if err != nil {
				rerr = err
				break
			}
			b.frames = append(b.frames, f)
			batchBytes += wireFrameBytes(f.N())
		}
		n := len(b.frames)
		if err := s.enqueue(b); err != nil {
			srv.httpError(w, fmt.Errorf("after %d accepted frames: %w", accepted, err))
			return
		}
		accepted += n
		acceptedBytes += batchBytes
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			srv.httpError(w, fmt.Errorf("after %d accepted frames: %w", accepted, rerr))
			return
		}
	}
	srv.tel.framesIn.Add(int64(accepted))
	srv.tel.bytesIn.Add(acceptedBytes)
	srv.tenantCounter(s.tenant, "frames_in").Add(int64(accepted))
	srv.tenantCounter(s.tenant, "bytes_in").Add(acceptedBytes)
	srv.tel.memUsed.Set(srv.mem.Used())
	writeJSON(w, http.StatusAccepted, map[string]int{"accepted": accepted})
}

func (srv *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.lookup(r.PathValue("id"))
	if !ok {
		srv.httpError(w, errUnknownSession)
		return
	}
	if err := s.finish(); err != nil {
		srv.httpError(w, err)
		return
	}
	s.touch()
	writeJSON(w, http.StatusOK, s.describe())
}

// handleStream serves the container bytes flushed so far (the complete
// container once the session is closed). Range requests are honored, so a
// client can tail a live session's container incrementally.
func (srv *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.lookup(r.PathValue("id"))
	if !ok {
		srv.httpError(w, errUnknownSession)
		return
	}
	data, closed, serr := s.snapshot()
	if serr != nil {
		srv.httpError(w, serr)
		return
	}
	s.touch()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Mdz-Complete", strconv.FormatBool(closed))
	http.ServeContent(w, r, s.id+".mdz", time.Time{}, bytes.NewReader(data))
	srv.tel.bytesOut.Add(int64(len(data)))
	srv.tenantCounter(s.tenant, "bytes_out").Add(int64(len(data)))
}

// handleReadFrames decodes a frame range [from, from+count) from the
// session's container and returns it in the wire record format. An active
// session's container legitimately ends mid-stream (no trailer yet); the
// truncation is tolerated and the response reports how many frames exist.
func (srv *Server) handleReadFrames(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.lookup(r.PathValue("id"))
	if !ok {
		srv.httpError(w, errUnknownSession)
		return
	}
	from, count, err := parseRange(r)
	if err != nil {
		srv.httpError(w, err)
		return
	}
	data, closed, serr := s.snapshot()
	if serr != nil {
		srv.httpError(w, serr)
		return
	}
	s.touch()
	frames, derr := srv.decodeRange(r.Context(), data, from, count, false, !closed)
	if derr != nil {
		srv.httpError(w, derr)
		return
	}
	srv.writeFrames(w, s.tenant, frames)
}

// handleDecode is the stateless mirror: POST a container, get frames back.
// ?salvage=1 decodes through the resyncing reader and reports what was
// lost in response headers instead of failing on the first corrupt frame.
func (srv *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	from, count, err := parseRange(r)
	if err != nil {
		srv.httpError(w, err)
		return
	}
	salvage := r.URL.Query().Get("salvage") == "1"
	limit := srv.opts.MemPerSession
	if limit <= 0 {
		limit = 1 << 30
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		srv.httpError(w, fmt.Errorf("%w: %v", errWireFormat, err))
		return
	}
	if int64(len(data)) > limit {
		srv.httpError(w, fmt.Errorf("container over the %d-byte request cap: %w", limit, budget.ErrExceeded))
		return
	}
	opts := mdz.ReaderOptions{
		Resync:         salvage,
		Context:        r.Context(),
		MaxDecodeBytes: srv.opts.MaxDecodeBytes,
	}
	frames, rd, derr := readRange(data, opts, from, count)
	if derr != nil && !salvage {
		srv.httpError(w, derr)
		return
	}
	if salvage {
		st := rd.SalvageStats()
		w.Header().Set("X-Mdz-Corrupt-Frames", strconv.Itoa(st.CorruptFrames))
		w.Header().Set("X-Mdz-Skipped-Bytes", strconv.FormatInt(st.SkippedBytes, 10))
		w.Header().Set("X-Mdz-Dropped-Frames", strconv.Itoa(st.DroppedFrames))
		w.Header().Set("X-Mdz-Truncated", strconv.FormatBool(st.Truncated))
	}
	srv.writeFrames(w, "", frames)
}

// decodeRange decodes [from, from+count) out of container bytes.
// tolerateTruncation accepts a stream that ends without a trailer — the
// normal state of a live session's container.
func (srv *Server) decodeRange(ctx context.Context, data []byte, from, count int, salvage, tolerateTruncation bool) ([]mdz.Frame, error) {
	frames, _, err := readRange(data, mdz.ReaderOptions{
		Resync:         salvage,
		Context:        ctx,
		MaxDecodeBytes: srv.opts.MaxDecodeBytes,
	}, from, count)
	if err != nil && tolerateTruncation && errors.Is(err, mdz.ErrTruncated) {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	return frames, nil
}

// readRange decodes the frame window [from, from+count) from container
// bytes (count < 0 = all remaining). In strict mode with from > 0 it first
// tries Reader.Seek, which jumps via the stream's frame index without
// decoding the prefix. The index comes from the seek table, else from an
// index walk of the frame headers; that walk accepts a live container
// without a trailer, so a live read seeks too, walking from offset 0 on
// every read. When Seek fails — for the legacy v1 and one-shot containers,
// which carry no frame index, or on damage — it falls back to the serial
// discard transparently. Salvage mode always reads serially so the
// from/count numbering matches the salvaged frame sequence. Reaching EOF
// early is not an error: the response simply carries fewer frames.
// Returns the Reader actually used so callers can inspect its stats.
func readRange(data []byte, opts mdz.ReaderOptions, from, count int) ([]mdz.Frame, *mdz.Reader, error) {
	if from > 0 && !opts.Resync {
		rd := mdz.NewReaderWith(bytes.NewReader(data), opts)
		switch err := rd.Seek(from); {
		case err == nil:
			out, cerr := collectFrames(rd, count)
			return out, rd, cerr
		case errors.Is(err, io.EOF):
			return nil, rd, nil
		}
		// Seek unavailable for this stream: fall through to a fresh serial
		// reader (the failed Seek may have left this one positioned oddly).
	}
	rd := mdz.NewReaderWith(bytes.NewReader(data), opts)
	var out []mdz.Frame
	for i := 0; count < 0 || len(out) < count; i++ {
		f, err := rd.ReadFrame()
		if err == io.EOF {
			return out, rd, nil
		}
		if err != nil {
			return out, rd, err
		}
		if i >= from {
			out = append(out, f)
		}
	}
	return out, rd, nil
}

// collectFrames reads up to count frames (count < 0 = all) from an already
// positioned Reader.
func collectFrames(rd *mdz.Reader, count int) ([]mdz.Frame, error) {
	var out []mdz.Frame
	for count < 0 || len(out) < count {
		f, err := rd.ReadFrame()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
	return out, nil
}

// writeFrames streams records in the wire format, with the frame count in
// a header so clients can preallocate.
func (srv *Server) writeFrames(w http.ResponseWriter, tenant string, frames []mdz.Frame) {
	var total int64
	for _, f := range frames {
		total += wireFrameBytes(f.N())
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Mdz-Frames", strconv.Itoa(len(frames)))
	w.Header().Set("Content-Length", strconv.FormatInt(total, 10))
	bw := bufio.NewWriterSize(w, 64<<10)
	for _, f := range frames {
		if err := writeWireFrame(bw, f); err != nil {
			return // client went away mid-response
		}
	}
	bw.Flush()
	srv.tel.bytesOut.Add(total)
	if tenant != "" {
		srv.tenantCounter(tenant, "bytes_out").Add(total)
	}
}

func parseRange(r *http.Request) (from, count int, err error) {
	q := r.URL.Query()
	from, count = 0, -1
	if v := q.Get("from"); v != "" {
		if from, err = strconv.Atoi(v); err != nil || from < 0 {
			return 0, 0, fmt.Errorf("%w: bad from=%q", errWireFormat, v)
		}
	}
	if v := q.Get("count"); v != "" {
		if count, err = strconv.Atoi(v); err != nil || count < 0 {
			return 0, 0, fmt.Errorf("%w: bad count=%q", errWireFormat, v)
		}
	}
	return from, count, nil
}
