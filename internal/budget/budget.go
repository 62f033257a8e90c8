// Package budget provides an accounted memory governor for decode paths.
//
// Untrusted inputs carry length fields the decoder must allocate for before
// it can validate them; a forged length can otherwise balloon a single
// corrupt block into a multi-gigabyte allocation. Instead of scattering
// ad-hoc per-site caps, a Budget gives every decode operation a shared,
// accounted ceiling: each operation opens a Tx, reserves the claimed sizes
// before allocating, and closes the Tx when done, releasing everything it
// reserved. Concurrent operations (and concurrent shards inside one
// operation) draw from the same Budget atomically, so the ceiling bounds
// the decoder's total in-flight claimed bytes, not just one allocation.
//
// Accounting is by claimed decode size (deterministic for a given input),
// not by the allocator's view — pooled scratch that is merely reused is
// still charged, so the same input is accepted or rejected identically
// regardless of pool temperature. Retained state that outlives the
// operation (e.g. a decoder reference snapshot) is released with the Tx;
// the Budget governs decode-time amplification, not steady-state footprint.
//
// A nil *Budget and a nil *Tx are valid everywhere and mean "unlimited".
package budget

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/mdz/mdz/internal/telemetry"
)

// ErrExceeded is the sentinel wrapped by every budget rejection.
var ErrExceeded = errors.New("decode memory budget exceeded")

// Budget is a shared decode-allocation ceiling. The zero value is not
// useful; use New. A nil *Budget disables governance.
type Budget struct {
	limit      int64
	used       atomic.Int64
	rejections *telemetry.Counter // nil-safe
}

// New returns a Budget with the given ceiling in bytes. A non-positive
// limit yields nil (unlimited).
func New(limit int64) *Budget {
	if limit <= 0 {
		return nil
	}
	return &Budget{limit: limit}
}

// SetTelemetry attaches a rejection counter (nil detaches). Call before the
// Budget is shared between goroutines.
func (b *Budget) SetTelemetry(c *telemetry.Counter) {
	if b != nil {
		b.rejections = c
	}
}

// Used reports the bytes currently reserved across all open transactions.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Begin opens a transaction. The caller must Close it (usually deferred)
// to release its reservations. A nil Budget returns a nil Tx, which is
// valid and unlimited.
func (b *Budget) Begin() *Tx {
	if b == nil {
		return nil
	}
	return &Tx{b: b}
}

// Tx accumulates reservations for one decode operation. Reserve may be
// called from concurrent shards of the same operation; Close must be called
// exactly once, after all of them have finished.
type Tx struct {
	b        *Budget
	reserved atomic.Int64
}

// Reserve charges n claimed bytes against the budget. On success the bytes
// stay reserved until Close. On failure nothing is charged and the error
// wraps ErrExceeded. Non-positive n and nil receivers are no-ops.
func (t *Tx) Reserve(n int64) error {
	if t == nil || n <= 0 {
		return nil
	}
	if now := t.b.used.Add(n); now > t.b.limit {
		t.b.used.Add(-n)
		t.b.rejections.Inc()
		return fmt.Errorf("%w: need %d bytes, %d of %d in use", ErrExceeded, n, now-n, t.b.limit)
	}
	t.reserved.Add(n)
	return nil
}

// Close releases everything the transaction reserved. Safe on nil and
// idempotent.
func (t *Tx) Close() {
	if t == nil {
		return
	}
	if n := t.reserved.Swap(0); n != 0 {
		t.b.used.Add(-n)
	}
}
