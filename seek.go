package mdz

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// Random access
//
// Seek and ReadRange give O(1) windowed access to a framed stream on an
// io.ReadSeeker: the seek table (or a header-only scan rebuild for streams
// written without one) maps a snapshot index to the data frame holding it;
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
// loaded from the stream's seek table when present, else rebuilt by a
// header-only scan (no payload is decoded); decoder state is reseeded from
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
	if !r.opened {
		if err := r.open(); err != nil {
			return r.fail(err)
		}
	}
	if !r.v2 {
		return r.fail(fmt.Errorf("%w: v1 streams carry no frame index", ErrNotSeekable))
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
	r.buf = r.buf[:0]
	r.pos = 0
	r.off = e.Offset
	r.srcErr = nil
	r.queue = nil
	r.nextSeq = e.Seq
	r.await = false
	r.scanning = false
	r.trailer = false
	r.seeked = true
	r.skipSnaps = skip
	return nil
}

// ensureIndex makes r.index available: from the stream's seek-table frame
// when one validates (a constant-size read of the stream tail), else by
// the header-only scan rebuild. The result is cached for the Reader's
// lifetime.
func (r *Reader) ensureIndex() error {
	if r.indexLoaded {
		return nil
	}
	if idx, ok := r.loadIndexTail(); ok {
		r.index, r.indexLoaded = idx, true
		return nil
	}
	idx, err := r.rebuildIndex()
	if err != nil {
		return err
	}
	r.index, r.indexLoaded = idx, true
	return nil
}

// loadIndexTail reads the stream's tail window and searches backwards for
// a valid seek-table frame. ok is false — never an error — when no intact
// table is found; callers fall back to the scan rebuild.
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

// rebuildIndex reconstructs the frame index by walking frame headers from
// the stream start — the fallback for streams written without SeekIndex.
// Only headers and the leading block geometry are parsed; nothing is
// decoded. In Resync mode damaged regions are skipped (those frames are
// unreachable by Seek but everything after the next sync marker is
// indexed); a strict reader propagates the corruption instead.
func (r *Reader) rebuildIndex() ([]SeekEntry, error) {
	if _, err := r.srcSeeker.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	sc := newStreamScanner(r.srcSeeker)
	if err := sc.open(); err != nil {
		return nil, err
	}
	entries, _, err := sc.scan(!r.resync)
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// scannedTrailer captures the trailer frame found by a scan.
type scannedTrailer struct {
	off     int64
	seq     uint32
	payload []byte
}

// streamScanner walks the frames of a v2 container reading only wire
// bytes (headers, CRCs, block geometry) — the index-rebuild and retrofit
// engine.
type streamScanner struct {
	br   *bufio.Reader
	off  int64
	body bytes.Buffer // frame body scratch, reused across frames
	// hasIndex reports that the scan encountered an existing seek-table
	// frame.
	hasIndex bool
}

func newStreamScanner(src io.Reader) *streamScanner {
	return &streamScanner{br: bufio.NewReaderSize(src, 1<<20)}
}

// open validates the stream magic. v1 streams are rejected: they have no
// frames to index.
func (s *streamScanner) open() error {
	var magic [4]byte
	if _, err := io.ReadFull(s.br, magic[:]); err != nil {
		return fmt.Errorf("%w: stream cut inside the magic", ErrTruncated)
	}
	switch string(magic[:]) {
	case streamMagicV2:
	case streamMagic:
		return fmt.Errorf("%w: v1 streams carry no frame index", ErrNotSeekable)
	default:
		return fmt.Errorf("%w: not an MDZ stream (magic %q)", ErrCorruptBlock, magic)
	}
	s.off = 4
	return nil
}

// scan walks every frame to the end of input, returning seek entries for
// the data and checkpoint frames and the trailer if one was found. In
// strict mode any framing violation (bad sync, CRC, sequence break,
// truncation, bytes after the trailer) is an error; in lenient mode the
// scanner resynchronizes past damage like a salvage reader and returns
// whatever it could index.
func (s *streamScanner) scan(strict bool) ([]SeekEntry, *scannedTrailer, error) {
	var entries []SeekEntry
	var trailer *scannedTrailer
	var snaps int64
	seq := uint32(0)
	seqKnown := true
	for {
		hdr, err := s.br.Peek(frameHeaderSize)
		if err != nil {
			if len(hdr) == 0 {
				return entries, trailer, nil // clean end of input
			}
			if strict {
				return nil, nil, fmt.Errorf("%w: stream cut inside a frame header", ErrTruncated)
			}
			return entries, trailer, nil
		}
		if trailer != nil {
			if strict {
				return nil, nil, fmt.Errorf("%w: bytes after the stream trailer", ErrCorruptBlock)
			}
			return entries, trailer, nil
		}
		h, ok := checkFrameHeader(hdr)
		if !ok {
			if strict {
				return nil, nil, &CorruptBlockError{
					Block: seq, Offset: s.off,
					Cause: fmt.Errorf("%w: frame sync/CRC validation failed", ErrCorruptBlock),
				}
			}
			if !s.skipToSync() {
				return entries, trailer, nil
			}
			seqKnown = false
			continue
		}
		if seqKnown && h.seq != seq {
			if strict {
				return nil, nil, &CorruptBlockError{
					Block: seq, Offset: s.off,
					Cause: fmt.Errorf("%w: frame sequence %d (want %d)", ErrCorruptBlock, h.seq, seq),
				}
			}
			// Sequence break on an individually valid frame: accept it and
			// continue from its numbering, like the salvage reader.
		}
		frameOff := s.off
		if _, err := s.br.Discard(frameHeaderSize); err != nil {
			return entries, trailer, scanIOErr(strict, err)
		}
		s.off += frameHeaderSize
		body, err := s.readBody(h.n + frameCRCSize)
		if err != nil {
			if strict {
				return nil, nil, fmt.Errorf("%w: stream cut inside frame %d", ErrTruncated, h.seq)
			}
			return entries, trailer, nil
		}
		s.off += int64(len(body))
		payload, ok := checkFramePayload(body)
		if !ok {
			if strict {
				return nil, nil, &CorruptBlockError{
					Block: h.seq, Offset: frameOff,
					Cause: fmt.Errorf("%w: frame payload CRC mismatch", ErrCorruptBlock),
				}
			}
			seqKnown = false
			continue
		}
		seq = h.seq + 1
		seqKnown = true
		switch h.typ {
		case frameData:
			bs, berr := blockSnapshots(payload)
			if berr != nil {
				if strict {
					return nil, nil, &CorruptBlockError{Block: h.seq, Offset: frameOff, Cause: berr}
				}
				continue
			}
			entries = append(entries, SeekEntry{
				Offset: frameOff, Seq: h.seq, Type: frameData,
				SnapFrom: snaps, SnapCount: bs,
			})
			snaps += int64(bs)
		case frameCheckpoint:
			entries = append(entries, SeekEntry{
				Offset: frameOff, Seq: h.seq, Type: frameCheckpoint, SnapFrom: snaps,
			})
		case frameSeekIndex:
			s.hasIndex = true
		case frameTrailer:
			trailer = &scannedTrailer{
				off: frameOff, seq: h.seq,
				payload: append([]byte(nil), payload...),
			}
		}
	}
}

// readBody reads the next n bytes into s.body. The buffer grows only with
// the bytes actually read, so a forged frame length cannot size an
// allocation.
func (s *streamScanner) readBody(n int) ([]byte, error) {
	s.body.Reset()
	_, err := io.CopyN(&s.body, s.br, int64(n))
	return s.body.Bytes(), err
}

// skipToSync discards at least one byte, then everything up to the next
// sync-marker candidate, reporting false at end of input.
func (s *streamScanner) skipToSync() bool {
	if _, err := s.br.Discard(1); err != nil {
		return false
	}
	s.off++
	for {
		b, err := s.br.Peek(4096)
		if i := bytes.Index(b, frameSync[:]); i >= 0 {
			s.br.Discard(i)
			s.off += int64(i)
			return true
		}
		if err != nil || len(b) < len(frameSync) {
			// Keep a possible marker prefix at the tail; if no more input
			// arrives the scan is over.
			if err != nil {
				return false
			}
		}
		drop := len(b) - (len(frameSync) - 1)
		if drop <= 0 {
			return false
		}
		s.br.Discard(drop)
		s.off += int64(drop)
	}
}

// scanIOErr classifies an unexpected mid-scan read failure.
func scanIOErr(strict bool, err error) error {
	if !strict {
		return nil
	}
	return err
}
