package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	mdz "github.com/mdz/mdz"
	"github.com/mdz/mdz/internal/budget"
)

// Session lifecycle. A session is created active, moves to draining when
// its ingest side is being stopped (close, delete, eviction or server
// drain), and ends closed. A compression or budget failure makes the
// session sticky-failed (state still advances to closed via finish); the
// error is reported on every subsequent request.
const (
	stateActive   = "active"
	stateDraining = "draining"
	stateClosed   = "closed"
)

// ingestBatch is one queued unit of accepted-but-not-yet-compressed
// snapshots, together with its memory accounting: tx holds the global
// budget reservation for the raw bytes, size the amount charged against
// the per-session cap. The pump releases both once the batch is written.
type ingestBatch struct {
	frames []mdz.Frame
	tx     *budget.Tx
	size   int64
}

// session is one tenant-owned compression stream: a stateful Writer whose
// container accumulates in memory, fed by a bounded ingest queue consumed
// by a single pump goroutine (preserving frame order while HTTP handlers
// return early), all charged against per-session and global memory caps.
type session struct {
	id     string
	tenant string
	sc     SessionConfig // the creation body; drain persists it verbatim
	srv    *Server

	// ctx is cancelled on destroy/failure; it is also the compressor's
	// Config.Context, so cancellation aborts in-flight batch kernels.
	ctx    context.Context
	cancel context.CancelFunc

	ingest   chan ingestBatch
	done     chan struct{} // closed when the pump exits
	stopOnce sync.Once

	mu       sync.Mutex
	buf      bytes.Buffer // container bytes flushed so far
	w        *mdz.Writer  // guarded by the pump, not mu — see sink
	state    string
	err      error // sticky first failure
	frames   int64 // snapshots accepted (acknowledged to the client)
	atoms    int   // atom count every record must carry; 0 until a batch is accepted
	rawBytes int64 // uncompressed size of the snapshots compressed so far
	reserved int64 // bytes charged against the per-session cap
	enq      sync.WaitGroup
	lastUsed time.Time

	// containerTx holds the global-budget reservation for the retained
	// container bytes; it lives until destroy.
	containerTx *budget.Tx
}

// errSessionClosed maps to 409: the client wrote to a closed stream.
var errSessionClosed = errors.New("session is closed")

// sink is the Writer's destination. It charges every flushed container
// byte against the session and global budgets before retaining it, so a
// session that outgrows its cap fails its own stream instead of the
// process. Writer methods are only ever called while mu is NOT held (the
// pump and the drain path own the Writer), so taking mu here cannot
// deadlock.
type sink struct{ s *session }

func (k sink) Write(p []byte) (int, error) {
	s := k.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit := s.srv.opts.MemPerSession; limit > 0 && s.reserved+int64(len(p)) > limit {
		return 0, fmt.Errorf("container needs %d bytes, session cap is %d: %w",
			s.reserved+int64(len(p)), limit, budget.ErrExceeded)
	}
	if err := s.containerTx.Reserve(int64(len(p))); err != nil {
		return 0, err
	}
	s.reserved += int64(len(p))
	s.buf.Write(p)
	return len(p), nil
}

// touch refreshes the idle-eviction clock.
func (s *session) touch() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

// reserve charges one wire record of n atoms against both budgets, on
// behalf of batch b, before the record's body is read: a forged atom count
// costs a refusal, not an allocation. A record whose count differs from
// the session's (or, before the session has one, from the batch's first
// record) is malformed.
func (s *session) reserve(b *ingestBatch, n int) error {
	size := wireFrameBytes(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateActive {
		return errSessionClosed
	}
	if err := s.err; err != nil {
		return err
	}
	want := s.atoms
	if want == 0 && len(b.frames) > 0 {
		want = b.frames[0].N()
	}
	if want != 0 && n != want {
		return errAtoms(n, want)
	}
	if limit := s.srv.opts.MemPerSession; limit > 0 && s.reserved+size > limit {
		return fmt.Errorf("ingest of %d bytes over the %d-byte session cap: %w", size, limit, budget.ErrExceeded)
	}
	if err := b.tx.Reserve(size); err != nil {
		return err
	}
	s.reserved += size
	b.size += size
	return nil
}

func errAtoms(n, want int) error {
	return fmt.Errorf("%w: record of %d atoms in a session of %d", errWireFormat, n, want)
}

// unreserve returns a batch's charges without queueing it.
func (s *session) unreserve(b ingestBatch) {
	b.tx.Close()
	s.mu.Lock()
	s.reserved -= b.size
	s.mu.Unlock()
}

// enqueue hands a batch, already charged record by record through
// reserve, to the pump, blocking when the queue is full — that stall
// propagates up the HTTP request as backpressure. On any refusal the
// charges are returned and nothing is retained. A nil return means the
// snapshots are accepted: they will be compressed even if the session is
// closed immediately after. The first accepted batch fixes the session's
// atom count.
func (s *session) enqueue(b ingestBatch) error {
	if len(b.frames) == 0 {
		s.unreserve(b) // a charged record that failed to arrive
		return nil
	}
	n := b.frames[0].N()
	s.mu.Lock()
	err := s.err
	switch {
	case s.state != stateActive:
		err = errSessionClosed
	case err == nil && s.atoms != 0 && n != s.atoms:
		err = errAtoms(n, s.atoms) // a concurrent request fixed it first
	}
	if err != nil {
		s.mu.Unlock()
		s.unreserve(b)
		return err
	}
	s.atoms = n
	s.frames += int64(len(b.frames))
	s.lastUsed = time.Now()
	// Registering with enq under the same mu as the state check is what
	// lets stopIngest close the channel safely: once it flips the state
	// and enq.Wait returns, no send can be pending or arrive later.
	s.enq.Add(1)
	s.mu.Unlock()
	defer s.enq.Done()

	select {
	case s.ingest <- b:
		return nil
	case <-s.ctx.Done():
		s.unreserve(b)
		s.mu.Lock()
		s.frames -= int64(len(b.frames))
		err := s.err
		s.mu.Unlock()
		if err == nil {
			err = context.Cause(s.ctx)
		}
		return err
	}
}

// pump is the session's single consumer: it preserves frame order, feeds
// the Writer, flushes the container after every batch so concurrent reads
// see current bytes, and releases each batch's memory charges. A write
// failure is sticky but the loop keeps draining so queued reservations are
// always returned.
func (s *session) pump() {
	defer close(s.done)
	for b := range s.ingest {
		var raw int64
		if s.failed() == nil {
			if err := s.writeBatch(b.frames); err != nil {
				s.fail(err)
			} else {
				for _, f := range b.frames {
					raw += int64(f.N()) * 3 * 8
				}
			}
		}
		b.tx.Close()
		s.mu.Lock()
		s.reserved -= b.size
		s.rawBytes += raw
		s.mu.Unlock()
	}
}

func (s *session) writeBatch(frames []mdz.Frame) error {
	for _, f := range frames {
		if err := s.w.WriteFrame(f); err != nil {
			return err
		}
	}
	return s.w.Flush()
}

// fail records the first error and cancels the session context, waking
// any handler blocked on the full queue.
func (s *session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.cancel()
	s.srv.tel.failures.Inc()
}

func (s *session) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// stopIngest refuses new snapshots and waits until every accepted one has
// been compressed (or charged to the sticky error). Safe to call from any
// number of goroutines; all of them block until the pump has exited.
func (s *session) stopIngest() {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		if s.state == stateActive {
			s.state = stateDraining
		}
		s.mu.Unlock()
		s.enq.Wait()
		close(s.ingest)
	})
	<-s.done
}

// finish drains the queue and closes the Writer, finalizing the container
// (trailer included). Idempotent; returns the session's sticky error if
// the stream failed at any point.
func (s *session) finish() error {
	s.stopIngest()
	s.mu.Lock()
	if s.state == stateClosed {
		err := s.err
		s.mu.Unlock()
		return err
	}
	w := s.w
	s.mu.Unlock()
	// Close writes through sink, which takes mu — so mu must not be held.
	cerr := w.Close()
	s.mu.Lock()
	s.state = stateClosed
	if s.err == nil && cerr != nil {
		s.err = cerr
	}
	err := s.err
	s.mu.Unlock()
	return err
}

// release returns every byte the session still holds to the global budget.
// Called once, by the server, when the session leaves the registry.
func (s *session) release() {
	s.cancel()
	s.stopIngest()
	s.mu.Lock()
	s.containerTx.Close()
	s.reserved = 0
	s.buf.Reset()
	s.state = stateClosed
	s.mu.Unlock()
}

// snapshot returns the container bytes flushed so far and whether the
// stream is final. The slice aliases the buffer's array but stays valid
// and immutable: the buffer is append-only, and growth reallocates rather
// than moving bytes under a reader.
func (s *session) snapshot() (data []byte, closed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Bytes(), s.state == stateClosed, s.err
}

// info is the session document served by the listing and detail endpoints.
type info struct {
	ID             string  `json:"id"`
	Tenant         string  `json:"tenant"`
	State          string  `json:"state"`
	Frames         int64   `json:"frames"`
	ContainerBytes int     `json:"container_bytes"`
	RawBytes       int64   `json:"raw_bytes"`
	CompBytes      int64   `json:"compressed_bytes"`
	Error          string  `json:"error,omitempty"`
	IdleSeconds    float64 `json:"idle_seconds"`
}

func (s *session) describe() info {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := info{
		ID: s.id, Tenant: s.tenant, State: s.state, Frames: s.frames,
		ContainerBytes: s.buf.Len(),
		RawBytes:       s.rawBytes,
		CompBytes:      int64(s.buf.Len()),
		IdleSeconds:    time.Since(s.lastUsed).Seconds(),
	}
	if s.err != nil {
		in.Error = s.err.Error()
	}
	return in
}
