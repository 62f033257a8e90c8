package mdz

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// Random access
//
// Seek and ReadRange give O(1) windowed access to a framed stream on an
// io.ReadSeeker: the seek table (or an index walk of the frame headers for
// streams written without one) maps a snapshot index to the data frame holding it;
// the nearest preceding checkpoint frame is fetched by offset and imported
// to reseed decoder state; and the reader jumps straight to the target
// frame — nothing in the skipped prefix is decoded. The only cross-block
// decoder state is the per-axis MT reference (established by block 0 or by
// any checkpoint), which is what makes the jump sound: every block after
// the reseed point decodes to exactly the bytes a sequential read would
// produce.

// ErrNotSeekable is returned by Reader.Seek and Reader.ReadRange when the
// underlying source does not implement io.ReadSeeker.
var ErrNotSeekable = errors.New("mdz: source is not seekable")

// seekTailWindow bounds the backwards search for the seek-table frame at
// the end of an indexed stream. It caps the cold-seek read at a constant
// while covering indexes of hundreds of thousands of frames.
const seekTailWindow = 1 << 20

// Seek positions the Reader so the next ReadFrame returns the snapshot
// with the given stream-wide index (0-based). It requires the source to be
// an io.ReadSeeker and the stream to be v2 framed. The frame index is
// loaded from the stream's seek table when present, else rebuilt by an
// index walk (no payload is decoded); decoder state is reseeded from
// the nearest checkpoint at or before the target, falling back — in Resync
// mode, with the damage accounted in SalvageStats — to earlier checkpoints
// or to decoding block 0 when a checkpoint is corrupt. Seeking past the
// last indexed snapshot returns io.EOF. A sticky hard error is not
// cleared; a Reader that previously hit io.EOF can Seek again.
func (r *Reader) Seek(snapshot int) error {
	if r.err != nil && !errors.Is(r.err, io.EOF) {
		return r.err
	}
	if r.srcSeeker == nil {
		return ErrNotSeekable
	}
	if snapshot < 0 {
		return fmt.Errorf("mdz: negative seek target %d", snapshot)
	}
	r.err = nil
	if r.container == "" {
		if err := r.open(); err != nil {
			return r.fail(err)
		}
	}
	if r.container != streamMagicV2 {
		return r.fail(fmt.Errorf("%w: legacy streams carry no frame index", ErrNotSeekable))
	}
	if err := r.ensureIndex(); err != nil {
		return r.fail(err)
	}
	data, cpIdx, ok := r.findTarget(int64(snapshot))
	if !ok {
		return io.EOF
	}
	if err := r.seedFor(data, cpIdx); err != nil {
		return r.fail(err)
	}
	return r.jumpTo(data, int(int64(snapshot)-data.SnapFrom))
}

// ReadRange decodes exactly the snapshots in the half-open range [lo, hi),
// seeking to lo first — the cost is O(window), not O(prefix). hi is
// clamped to the end of the stream; a range starting at or past the end
// returns io.EOF. The frames are identical to the corresponding slice of a
// full sequential decode.
func (r *Reader) ReadRange(lo, hi int) ([]Frame, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("mdz: invalid snapshot range [%d, %d)", lo, hi)
	}
	if lo == hi {
		return nil, nil
	}
	if err := r.Seek(lo); err != nil {
		return nil, err
	}
	var out []Frame // grown per frame: hi may lie far past the end
	for len(out) < hi-lo {
		f, err := r.ReadFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
	return out, nil
}

// findTarget locates the data entry covering snapshot and the index (into
// r.index) of the nearest checkpoint entry preceding it, or -1.
func (r *Reader) findTarget(snapshot int64) (SeekEntry, int, bool) {
	data, cp, ok := findSeekEntry(r.index, snapshot)
	if !ok {
		return SeekEntry{}, -1, false
	}
	cpIdx := -1
	if cp != nil {
		for i := range r.index {
			if r.index[i].Offset == cp.Offset {
				cpIdx = i
				break
			}
		}
	}
	return data, cpIdx, ok
}

// seedFor establishes the decoder's cross-block state (the per-axis MT
// references) for decoding the block at target. An already-seeded decoder
// needs nothing: the references are constant for the whole stream. Else it
// imports the checkpoint at r.index[cpIdx]; a corrupt checkpoint fails a
// strict reader and, in Resync mode, is recorded in SalvageStats before
// falling back to the preceding checkpoint — and finally to decoding the
// stream's first data block, which establishes the references directly.
func (r *Reader) seedFor(target SeekEntry, cpIdx int) error {
	if r.d.seeded() {
		return nil
	}
	for i := cpIdx; i >= 0; i-- {
		e := r.index[i]
		if e.Type != frameCheckpoint {
			continue
		}
		err := r.seedFromCheckpoint(e)
		if err == nil {
			return nil
		}
		if isCancellation(err) || errors.Is(err, ErrBudgetExceeded) {
			return err
		}
		if !r.resync {
			return err
		}
		r.recordCorrupt(&CorruptBlockError{Block: e.Seq, Offset: e.Offset, Cause: err})
	}
	// No usable checkpoint: decode the first data block to establish the
	// references (the scan fallback). If the target IS the first block,
	// nothing needs seeding.
	first, ok := r.firstDataEntry()
	if !ok || first.Offset == target.Offset {
		return nil
	}
	payload, err := r.readFrameAt(first)
	if err != nil {
		return err
	}
	if _, err := r.d.DecompressBatch(payload); err != nil {
		return err
	}
	return nil
}

// firstDataEntry returns the index's first data entry.
func (r *Reader) firstDataEntry() (SeekEntry, bool) {
	for _, e := range r.index {
		if e.Type == frameData {
			return e, true
		}
	}
	return SeekEntry{}, false
}

// seedFromCheckpoint fetches the checkpoint frame at e by offset,
// validates it and imports its state into the decompressor.
func (r *Reader) seedFromCheckpoint(e SeekEntry) error {
	payload, err := r.readFrameAt(e)
	if err != nil {
		return err
	}
	st, err := r.d.parseCheckpoint(payload)
	if err != nil {
		return err
	}
	return r.d.ImportState(st)
}

// readFrameAt random-access reads the frame recorded by e, verifying it
// with checkFrameHeader and checkFramePayload and matching its type and
// sequence against e. The returned payload is a fresh allocation owned by
// the caller. The source position is left undefined; callers reposition
// via jumpTo (or restore it themselves).
func (r *Reader) readFrameAt(e SeekEntry) ([]byte, error) {
	if _, err := r.srcSeeker.Seek(e.Offset, io.SeekStart); err != nil {
		return nil, err
	}
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r.srcSeeker, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: frame at offset %d cut short", ErrTruncated, e.Offset)
	}
	h, ok := checkFrameHeader(hdr[:])
	if !ok {
		return nil, fmt.Errorf("%w: no valid frame at indexed offset %d", ErrCorruptBlock, e.Offset)
	}
	if h.typ != e.Type || h.seq != e.Seq {
		return nil, fmt.Errorf("%w: frame at offset %d does not match its index entry", ErrCorruptBlock, e.Offset)
	}
	tx := r.d.bud.Begin()
	defer tx.Close()
	if err := tx.Reserve(int64(h.n) + frameCRCSize); err != nil {
		return nil, err
	}
	body := make([]byte, h.n+frameCRCSize)
	if _, err := io.ReadFull(r.srcSeeker, body); err != nil {
		return nil, fmt.Errorf("%w: frame at offset %d cut short", ErrTruncated, e.Offset)
	}
	payload, ok := checkFramePayload(body)
	if !ok {
		return nil, fmt.Errorf("%w: frame payload CRC mismatch at offset %d", ErrCorruptBlock, e.Offset)
	}
	return payload, nil
}

// jumpTo repositions the reader at entry e, resetting the parse window and
// sequencing so reading continues as if the prefix had been consumed; the
// first skip snapshots of the block are dropped before delivery.
func (r *Reader) jumpTo(e SeekEntry, skip int) error {
	if _, err := r.srcSeeker.Seek(e.Offset, io.SeekStart); err != nil {
		return r.fail(err)
	}
	r.frameWalker = frameWalker{src: r.src, buf: r.buf[:0], off: e.Offset, nextSeq: e.Seq}
	r.queue = nil
	r.await = false
	r.scanning = false
	r.seeked = true
	r.skipSnaps = skip
	return nil
}

// ensureIndex makes r.index available: from the stream's seek-table frame
// when one validates (a constant-size read of the stream tail), else by
// an index walk of the frames from the stream start — the rebuild for
// streams written without SeekIndex. A strict reader's walk fails on any
// framing fault; a Resync reader's walk follows the Resync rules, so the
// frames Seek can reach are the frames a sequential read delivers. The
// result is cached for the Reader's lifetime.
func (r *Reader) ensureIndex() error {
	if r.indexLoaded {
		return nil
	}
	idx, ok := r.loadIndexTail()
	if !ok {
		ix, err := walkIndex(r.srcSeeker, !r.resync)
		if err != nil {
			return err
		}
		idx = ix.entries
	}
	r.index, r.indexLoaded = idx, true
	return nil
}

// loadIndexTail reads the stream's tail window and searches backwards for
// a valid seek-table frame. ok is false — never an error — when no intact
// table is found; callers fall back to the index walk.
func (r *Reader) loadIndexTail() ([]SeekEntry, bool) {
	size, err := r.srcSeeker.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, false
	}
	start := size - seekTailWindow
	if start < 0 {
		start = 0
	}
	if _, err := r.srcSeeker.Seek(start, io.SeekStart); err != nil {
		return nil, false
	}
	tail := make([]byte, size-start)
	if _, err := io.ReadFull(r.srcSeeker, tail); err != nil {
		return nil, false
	}
	// Walk sync-marker candidates from the end; the seek frame sits just
	// before the trailer, so the first hit that parses as a seek-index
	// frame is the one.
	for at := len(tail) - frameHeaderSize; at >= 0; {
		i := bytes.LastIndex(tail[:at+4], frameSync[:])
		if i < 0 {
			return nil, false
		}
		at = i - 1
		frame := tail[i:]
		if len(frame) < frameHeaderSize {
			continue
		}
		h, ok := checkFrameHeader(frame)
		if !ok || h.typ != frameSeekIndex {
			continue
		}
		total := frameHeaderSize + h.n + frameCRCSize
		if len(frame) < total {
			continue
		}
		payload, ok := checkFramePayload(frame[frameHeaderSize:total])
		if !ok {
			continue
		}
		entries, err := parseSeekIndex(payload)
		if err != nil {
			continue
		}
		return entries, true
	}
	return nil, false
}

// frameIndex is what an index walk finds.
type frameIndex struct {
	// entries holds a seek entry for each data and checkpoint frame.
	entries []SeekEntry
	// seekTable reports that the walk met a seek-table frame.
	seekTable bool
	// hasTrailer reports that the walk met the trailer frame, found at
	// trailerOff with sequence number trailerSeq and payload trailer.
	hasTrailer bool
	trailerOff int64
	trailerSeq uint32
	trailer    []byte
}

// walkIndex indexes src from its start with a fresh frameWalker. A legacy
// (v1 or one-shot) stream has no frames to index.
func walkIndex(src io.ReadSeeker, strict bool) (frameIndex, error) {
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return frameIndex{}, err
	}
	w := &frameWalker{src: src}
	magic, err := w.magic()
	switch {
	case err == io.EOF:
		return frameIndex{}, fmt.Errorf("mdz: empty stream: %w", ErrTruncated)
	case err != nil:
		return frameIndex{}, err
	case magic != streamMagicV2:
		return frameIndex{}, fmt.Errorf("%w: legacy streams carry no frame index", ErrNotSeekable)
	}
	return w.index(strict)
}

// index walks the frames from the cursor to the trailer or the end of
// input, reading only headers, CRCs and block geometry, and indexes the
// data and checkpoint frames. Input that ends cleanly on a frame boundary
// is indexed without error, trailer or not: a live container is such a
// stream. A strict walk fails on any other framing fault, bytes after the
// trailer included. A lenient walk follows the Reader's Resync rules: it
// scans past damage to the next sync marker, drops replayed frames, accepts
// sequence jumps, and ends at the trailer or at a truncation with what it
// has indexed.
func (w *frameWalker) index(strict bool) (frameIndex, error) {
	var ix frameIndex
	var snaps int64
	for !ix.hasTrailer {
		off := w.off
		fp, err := w.parseFrame()
		switch err {
		case nil:
		case io.EOF:
			return ix, nil
		case errFrameTruncated:
			if strict {
				return ix, w.cutErr()
			}
			return ix, nil
		case errNotFrame:
			if strict {
				return ix, w.notFrameErr(off)
			}
			w.scanSync()
			continue
		default:
			return ix, err
		}
		drop, _, err := w.sequence(fp, off, strict)
		if err != nil {
			return ix, err
		}
		if drop {
			continue
		}
		switch fp.typ {
		case frameData:
			bs, err := blockSnapshots(fp.payload)
			if err != nil {
				if strict {
					return ix, &CorruptBlockError{Block: fp.seq, Offset: off, Cause: err}
				}
				continue
			}
			ix.entries = append(ix.entries, SeekEntry{
				Offset: off, Seq: fp.seq, Type: frameData,
				SnapFrom: snaps, SnapCount: bs,
			})
			snaps += int64(bs)
		case frameCheckpoint:
			ix.entries = append(ix.entries, SeekEntry{
				Offset: off, Seq: fp.seq, Type: frameCheckpoint, SnapFrom: snaps,
			})
		case frameSeekIndex:
			ix.seekTable = true
		case frameTrailer:
			ix.hasTrailer = true
			ix.trailerOff, ix.trailerSeq = off, fp.seq
			ix.trailer = append([]byte(nil), fp.payload...)
		}
	}
	if strict && w.fillTo(1) {
		return ix, fmt.Errorf("%w: bytes after the stream trailer", ErrCorruptBlock)
	}
	return ix, nil
}
