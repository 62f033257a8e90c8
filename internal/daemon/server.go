// Package daemon is the mdzd compression service: stateful streaming
// sessions over HTTP. A client opens a session with a compression Config,
// streams snapshot frames in, and reads the finished v2 container (or
// decoded frame ranges) back out. The server multiplexes many tenants over
// one process under global and per-session memory budgets, evicts idle
// sessions, and can drain every live session to disk and restore it after
// a restart without losing an accepted frame.
package daemon

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	mdz "github.com/mdz/mdz"
	"github.com/mdz/mdz/internal/budget"
	"github.com/mdz/mdz/internal/telemetry"
)

// Options configures a Server. The zero value serves with no memory caps,
// no idle eviction and no drain persistence.
type Options struct {
	// MaxSessions caps concurrently live sessions (0 = 1024).
	MaxSessions int
	// IdleTimeout evicts sessions (live or closed) that have not been
	// touched for this long, releasing their memory. 0 disables eviction.
	IdleTimeout time.Duration
	// QueueDepth bounds each session's ingest queue, in batches; a full
	// queue blocks the ingest request (backpressure). 0 = 4.
	QueueDepth int
	// MemGlobal caps the total bytes the server retains across all
	// sessions — queued raw snapshots plus accumulated containers.
	// Exhaustion rejects the triggering request with 507. 0 = unlimited.
	MemGlobal int64
	// MemPerSession caps one session's share of the same. 0 = unlimited.
	MemPerSession int64
	// MaxDecodeBytes is forwarded to every decode the server performs on
	// behalf of clients (ranged reads, /v1/decode). 0 = unlimited.
	MaxDecodeBytes int64
	// StatePath, when set, is where Drain persists live sessions and
	// where New looks for sessions to restore.
	StatePath string
	// Logf receives operational diagnostics (evictions, restore results).
	// nil discards.
	Logf func(format string, args ...any)
	// Registry receives the daemon's metrics. nil creates a private one.
	Registry *telemetry.Registry
}

// serverTel is the daemon's instrument set. Per-tenant counters are minted
// on demand via Server.tenantCounter.
type serverTel struct {
	active                    *telemetry.Gauge
	opened, closed, evicted   *telemetry.Counter
	restored, drained         *telemetry.Counter
	framesIn, bytesIn         *telemetry.Counter
	bytesOut, failures        *telemetry.Counter
	rejectedBusy, rejectedMem *telemetry.Counter
	memUsed                   *telemetry.Gauge
}

// Server is the session registry and HTTP API implementation.
type Server struct {
	opts Options
	reg  *telemetry.Registry
	mem  *budget.Budget
	tel  serverTel

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64
	draining bool

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New builds a Server and, if Options.StatePath names a drain file from a
// previous process, restores its sessions (consuming the file).
func New(opts Options) (*Server, error) {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 1024
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 4
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	srv := &Server{
		opts:     opts,
		reg:      reg,
		mem:      budget.New(opts.MemGlobal),
		sessions: make(map[string]*session),
	}
	srv.mem.SetTelemetry(reg.Counter("daemon.budget.rejections"))
	srv.tel = serverTel{
		active:       reg.Gauge("daemon.sessions.active"),
		opened:       reg.Counter("daemon.sessions.opened"),
		closed:       reg.Counter("daemon.sessions.closed"),
		evicted:      reg.Counter("daemon.sessions.evicted"),
		restored:     reg.Counter("daemon.sessions.restored"),
		drained:      reg.Counter("daemon.sessions.drained"),
		framesIn:     reg.Counter("daemon.frames.in"),
		bytesIn:      reg.Counter("daemon.bytes.in"),
		bytesOut:     reg.Counter("daemon.bytes.out"),
		failures:     reg.Counter("daemon.session.failures"),
		rejectedBusy: reg.Counter("daemon.rejected.busy"),
		rejectedMem:  reg.Counter("daemon.rejected.memory"),
		memUsed:      reg.Gauge("daemon.memory.used_bytes"),
	}
	if opts.StatePath != "" {
		n, err := srv.restore(opts.StatePath)
		if err != nil {
			return nil, fmt.Errorf("daemon: restoring %s: %w", opts.StatePath, err)
		}
		if n > 0 {
			srv.logf("restored %d session(s) from %s", n, opts.StatePath)
		}
	}
	if opts.IdleTimeout > 0 {
		srv.janitorStop = make(chan struct{})
		srv.janitorDone = make(chan struct{})
		go srv.janitor()
	}
	return srv, nil
}

func (srv *Server) logf(format string, args ...any) {
	if srv.opts.Logf != nil {
		srv.opts.Logf(format, args...)
	}
}

// Registry exposes the daemon's metrics registry for the admin listener.
func (srv *Server) Registry() *telemetry.Registry { return srv.reg }

// tenantCounter mints (or finds) a per-tenant labeled counter, e.g.
// "daemon.tenant.alice.frames_in".
func (srv *Server) tenantCounter(tenant, name string) *telemetry.Counter {
	return srv.reg.Counter("daemon.tenant." + sanitizeTenant(tenant) + "." + name)
}

// sanitizeTenant maps arbitrary client-supplied tenant strings into a
// bounded metric-name-safe slug so a hostile client cannot mint unbounded
// or malformed metric names.
func sanitizeTenant(t string) string {
	if t == "" {
		return "default"
	}
	var b strings.Builder
	for _, r := range strings.ToLower(t) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
		if b.Len() >= 48 {
			break
		}
	}
	return b.String()
}

// newSession registers a new live session.
func (srv *Server) newSession(sc SessionConfig) (*session, error) {
	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		return nil, errDraining
	}
	if len(srv.sessions) >= srv.opts.MaxSessions {
		srv.mu.Unlock()
		srv.tel.rejectedBusy.Inc()
		return nil, errTooManySessions
	}
	srv.nextID++
	id := fmt.Sprintf("s%08x", srv.nextID)
	srv.mu.Unlock()

	s, err := srv.buildSession(id, sc, nil, nil)
	if err != nil {
		return nil, err
	}
	srv.mu.Lock()
	srv.sessions[id] = s
	srv.mu.Unlock()
	srv.tel.active.Add(1)
	srv.tel.opened.Inc()
	srv.tenantCounter(sc.Tenant, "sessions").Inc()
	return s, nil
}

// buildSession wires one session's goroutine, budget transaction and
// Writer — fresh (st == nil) or resumed from drained state over the given
// container prefix. Both paths build the Writer's Config from sc alone, so
// a resumed session runs with exactly the settings it was created with.
func (srv *Server) buildSession(id string, sc SessionConfig, prefix []byte, st *mdz.WriterState) (*session, error) {
	cfg, err := sc.toConfig()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errWireFormat, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &session{
		id: id, tenant: sc.Tenant, sc: sc, srv: srv,
		ctx: ctx, cancel: cancel,
		ingest:   make(chan ingestBatch, srv.opts.QueueDepth),
		done:     make(chan struct{}),
		state:    stateActive,
		lastUsed: time.Now(),
	}
	s.containerTx = srv.mem.Begin()
	cfg.Context = ctx
	if len(prefix) > 0 {
		if err := s.containerTx.Reserve(int64(len(prefix))); err != nil {
			cancel()
			s.containerTx.Close()
			return nil, err
		}
		s.reserved += int64(len(prefix))
		s.buf.Write(prefix)
	}
	var w *mdz.Writer
	if st != nil {
		w, err = mdz.ResumeWriter(sink{s}, cfg, st)
	} else {
		w, err = mdz.NewWriter(sink{s}, cfg)
	}
	if err != nil {
		cancel()
		s.containerTx.Close()
		return nil, err
	}
	s.w = w
	go s.pump()
	return s, nil
}

// lookup finds a live session by id.
func (srv *Server) lookup(id string) (*session, bool) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	s, ok := srv.sessions[id]
	return s, ok
}

// remove destroys a session: drains its pump, releases every byte it held
// and drops it from the registry. why feeds the eviction/close telemetry.
func (srv *Server) remove(s *session, why string) {
	srv.mu.Lock()
	_, present := srv.sessions[s.id]
	delete(srv.sessions, s.id)
	srv.mu.Unlock()
	s.release()
	if present {
		srv.tel.active.Add(-1)
		if why == "evicted" {
			srv.tel.evicted.Inc()
			srv.logf("evicted idle session %s (tenant %s)", s.id, s.tenant)
		} else {
			srv.tel.closed.Inc()
		}
	}
}

// janitor evicts idle sessions on a timer until Close.
func (srv *Server) janitor() {
	defer close(srv.janitorDone)
	interval := srv.opts.IdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-srv.janitorStop:
			return
		case <-tick.C:
			srv.evictIdle()
		}
	}
}

func (srv *Server) evictIdle() {
	cutoff := time.Now().Add(-srv.opts.IdleTimeout)
	srv.mu.Lock()
	var idle []*session
	for _, s := range srv.sessions {
		s.mu.Lock()
		if s.lastUsed.Before(cutoff) {
			idle = append(idle, s)
		}
		s.mu.Unlock()
	}
	srv.mu.Unlock()
	for _, s := range idle {
		srv.remove(s, "evicted")
	}
}

// MemoryUsed reports the bytes currently reserved against the global
// budget (0 when unlimited — per-session accounting still applies).
func (srv *Server) MemoryUsed() int64 { return srv.mem.Used() }

// Close stops the janitor and destroys every session without persisting
// anything. Use Drain first for a graceful restart.
func (srv *Server) Close() {
	if srv.janitorStop != nil {
		close(srv.janitorStop)
		<-srv.janitorDone
	}
	srv.mu.Lock()
	list := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		list = append(list, s)
	}
	srv.mu.Unlock()
	for _, s := range list {
		srv.remove(s, "closed")
	}
}
