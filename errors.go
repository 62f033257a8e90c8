package mdz

import (
	"context"
	"errors"
	"fmt"

	"github.com/mdz/mdz/internal/budget"
	"github.com/mdz/mdz/internal/core"
)

// Sentinel errors for corrupt or unreadable input. Every decode-side
// failure path in this package wraps one of them, so callers can classify
// failures with errors.Is regardless of the exact message:
//
//	ErrCorruptBlock — a block or stream frame failed validation (bad magic,
//	  CRC mismatch, malformed section, undecodable payload);
//	ErrTruncated — the input ended before a complete block, frame or
//	  stream trailer (torn write, partial download);
//	ErrStateDesync — blocks were presented out of order, or a checkpoint
//	  disagrees with the decoder's reconstructed state.
var (
	ErrCorruptBlock = errors.New("mdz: corrupt block")
	ErrTruncated    = errors.New("mdz: truncated input")
	ErrStateDesync  = errors.New("mdz: decoder state desync")
)

// ErrBudgetExceeded is the sentinel matched by every rejection of the
// decode memory governor (MaxDecodeBytes in DecompressorOptions and
// ReaderOptions): the input's claimed sizes would push the decoder's
// in-flight allocations past the configured ceiling. It deliberately is NOT
// a corruption sentinel — the same input may decode fine under a larger
// budget — and it passes through mapBlockErr unwrapped so callers can
// distinguish resource rejection from damaged data.
var ErrBudgetExceeded = budget.ErrExceeded

// ErrNonFinite is returned by CompressBatch (and everything built on it)
// when the first batch of an axis contains ±Inf. Infinities would poison
// the value-range bound derivation and the quantizer built from it, so
// they are rejected before any encoder state is created — the wrapped
// message names the axis, snapshot and particle index. NaN is not an
// error: it is carried through the outlier path and reconstructed
// bit-exactly.
var ErrNonFinite = errors.New("mdz: non-finite input")

// CorruptBlockError reports a corrupt frame in a framed stream: which
// block, where in the byte stream, and why. It matches ErrCorruptBlock
// under errors.Is and exposes the underlying cause via Unwrap.
type CorruptBlockError struct {
	// Block is the frame sequence number (the expected one, if the frame
	// was too damaged to read its own).
	Block uint32
	// Offset is the absolute byte offset of the frame start in the stream.
	Offset int64
	// Cause is the underlying validation failure.
	Cause error
}

// Error implements error.
func (e *CorruptBlockError) Error() string {
	return fmt.Sprintf("mdz: corrupt block %d at offset %d: %v", e.Block, e.Offset, e.Cause)
}

// Unwrap exposes the underlying cause.
func (e *CorruptBlockError) Unwrap() error { return e.Cause }

// Is reports equivalence to the ErrCorruptBlock sentinel.
func (e *CorruptBlockError) Is(target error) bool { return target == ErrCorruptBlock }

// isCancellation reports a context cancellation or deadline expiry —
// environment outcomes that must never be reclassified as input
// corruption, and that surface even from a Resync reader.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// mapBlockErr classifies an error from the block decode path under the
// package sentinels: out-of-order blocks and state mismatches become
// ErrStateDesync, everything else ErrCorruptBlock. Errors already carrying
// a sentinel pass through. What it classifies has passed a CRC (a block
// footer or a frame payload) or is a whole checkpoint or writer-state
// blob, so a value cut short inside it is corruption: only a container cut
// short is ErrTruncated, and the container parsers say so themselves.
func mapBlockErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrCorruptBlock) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrStateDesync):
		return err
	case errors.Is(err, ErrBudgetExceeded) || isCancellation(err):
		// Environment errors, not input errors: budget rejections and
		// cancellations must stay matchable as exactly what they are.
		return err
	case errors.Is(err, core.ErrOrder) || errors.Is(err, core.ErrState):
		return fmt.Errorf("%w: %w", ErrStateDesync, err)
	default:
		return fmt.Errorf("%w: %w", ErrCorruptBlock, err)
	}
}
