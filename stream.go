package mdz

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/mdz/mdz/internal/telemetry"
)

// Stream container
//
// Writer produces the v2 recoverable container:
//
//	"MDZ2" frame… trailer-frame
//	frame := sync(4) type(1) seq(4 LE) len(4 LE) hcrc(4 LE) payload pcrc(4 LE)
//
// Every frame is independently locatable (sync marker) and verifiable
// (hcrc covers type/seq/len so a corrupted length can never cause an
// over-read; pcrc covers the payload, independent of the core block's own
// CRC footer). Frame types: data (one compressed batch), checkpoint
// (serialized CheckpointState, emitted every Config.CheckpointInterval
// data blocks) and trailer (total snapshot/block counts, distinguishing
// clean EOF from truncation).
//
// v2 is the only container written. Reader also reads two legacy
// containers, runs of length-prefixed blocks with no recovery metadata: v1
// ("MDZW") and the one-shot container ("MDZF") that Compress wrote before
// it wrote v2. In Resync mode a corrupt frame does not kill the stream: the
// reader scans forward for the next sync marker, drops frames until
// decoder state is re-established (immediately if the clean prefix seeded
// it, else at the next checkpoint), and accounts for everything lost in
// SalvageStats.

const (
	streamMagic        = "MDZW" // v1: u32 LE length-prefixed blocks
	streamMagicV2      = "MDZ2" // v2: sync-framed blocks, checkpoints, trailer
	streamMagicOneShot = "MDZF" // one-shot: uvarint block count, uvarint length-prefixed blocks
)

// Frame types of the v2 container.
const (
	frameData       = 0
	frameCheckpoint = 1
	frameTrailer    = 2
	// frameSeekIndex carries the opt-in seek table (Config.SeekIndex): one
	// offset/seq/snapshot-range record per data and checkpoint frame,
	// emitted between the last data frame and the trailer. Readers that
	// don't consult it skip it like any other non-data frame; salvage-mode
	// readers predating the type resynchronize past it.
	frameSeekIndex = 3
)

// frameSync is the v2 frame marker. The non-ASCII guard bytes keep it from
// colliding with text and with the other MDZ magics.
var frameSync = [4]byte{0xD6, 'M', 'Z', 0xB1}

const (
	frameHeaderSize = 17      // sync(4) + type(1) + seq(4) + len(4) + hcrc(4)
	frameCRCSize    = 4       // payload CRC32C
	maxFramePayload = 1 << 31 // sanity cap on the claimed payload length
)

// frameHeader builds the header of a frame carrying payload. It is the
// only place a frame header is written.
func frameHeader(typ byte, seq uint32, payload []byte) [frameHeaderSize]byte {
	var hdr [frameHeaderSize]byte
	copy(hdr[:4], frameSync[:])
	hdr[4] = typ
	binary.LittleEndian.PutUint32(hdr[5:9], seq)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[13:17], crc32.Checksum(hdr[4:13], crcTable))
	return hdr
}

// payloadCRC is the CRC that follows a frame's payload on the wire.
func payloadCRC(payload []byte) [frameCRCSize]byte {
	var pcrc [frameCRCSize]byte
	binary.LittleEndian.PutUint32(pcrc[:], crc32.Checksum(payload, crcTable))
	return pcrc
}

// appendWireFrame appends one complete wire frame (header, payload, CRC)
// to dst: the bytes Writer.writeFrame emits.
func appendWireFrame(dst []byte, typ byte, seq uint32, payload []byte) []byte {
	hdr := frameHeader(typ, seq, payload)
	pcrc := payloadCRC(payload)
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	return append(dst, pcrc[:]...)
}

// frameHead is a verified frame header.
type frameHead struct {
	typ byte
	seq uint32
	n   int // payload length
}

// checkFrameHeader verifies the first frameHeaderSize bytes of hdr: the
// sync marker, the header CRC, a known frame type and a payload length
// within maxFramePayload. It is the only place a frame header is read;
// the header CRC is checked before the length is trusted, so a corrupted
// length can never cause an over-read.
func checkFrameHeader(hdr []byte) (frameHead, bool) {
	if !bytes.Equal(hdr[:4], frameSync[:]) ||
		crc32.Checksum(hdr[4:13], crcTable) != binary.LittleEndian.Uint32(hdr[13:17]) {
		return frameHead{}, false
	}
	n := binary.LittleEndian.Uint32(hdr[9:13])
	if hdr[4] > frameSeekIndex || n > maxFramePayload {
		return frameHead{}, false
	}
	return frameHead{typ: hdr[4], seq: binary.LittleEndian.Uint32(hdr[5:9]), n: int(n)}, true
}

// checkFramePayload verifies body, a frame's payload followed by its CRC,
// and returns the payload.
func checkFramePayload(body []byte) ([]byte, bool) {
	payload := body[:len(body)-frameCRCSize]
	return payload, crc32.Checksum(payload, crcTable) == binary.LittleEndian.Uint32(body[len(payload):])
}

// frameWalker walks the frames of a stream: the input window, the magic
// check, the frame parse, the forward scan for a sync marker and the
// sequence rule. Reader embeds one and decodes the frames it yields; Seek's
// index rebuild and RetrofitSeekIndex walk a stream's frames with their own
// (see index), reading only headers, CRCs and block geometry.
type frameWalker struct {
	src io.Reader

	buf    []byte // window of not-yet-parsed input
	pos    int    // cursor into buf
	off    int64  // absolute stream offset of buf[pos]
	srcErr error  // sticky source error (io.EOF for clean exhaustion)

	nextSeq uint32 // expected sequence of the next frame
}

// buffered reports the unparsed bytes currently windowed.
func (w *frameWalker) buffered() int { return len(w.buf) - w.pos }

// view returns the next n buffered bytes without consuming them. Only
// valid until the next fillTo call (the window may compact).
func (w *frameWalker) view(n int) []byte { return w.buf[w.pos : w.pos+n] }

// discard consumes n buffered bytes.
func (w *frameWalker) discard(n int) {
	w.pos += n
	w.off += int64(n)
}

const fillChunk = 64 << 10

// fillTo grows the window until at least n unconsumed bytes are available,
// reporting whether it succeeded. It never pre-allocates a claimed length:
// capacity only tracks bytes actually read, so a forged frame length
// cannot trigger a huge allocation. The window is only moved when the tail
// is actually full — a buffer already large enough is compacted in place
// (one copy), and growth copies the live region straight into the new
// buffer instead of compacting first.
func (w *frameWalker) fillTo(n int) bool {
	for w.buffered() < n {
		if w.srcErr != nil {
			return false
		}
		if len(w.buf) == cap(w.buf) {
			rem := w.buffered()
			if n <= cap(w.buf) {
				// Large enough already: compaction alone frees the tail.
				copy(w.buf, w.buf[w.pos:])
				w.buf = w.buf[:rem]
			} else {
				ncap := 2 * cap(w.buf)
				if ncap < fillChunk {
					ncap = fillChunk
				}
				nb := make([]byte, rem, ncap)
				copy(nb, w.buf[w.pos:])
				w.buf = nb
			}
			w.pos = 0
		}
		m, err := w.src.Read(w.buf[len(w.buf):cap(w.buf)])
		w.buf = w.buf[:len(w.buf)+m]
		if err != nil {
			w.srcErr = err
		}
	}
	return true
}

// need makes n bytes available at the cursor. It returns io.EOF when the
// input ended cleanly before any of them, errFrameTruncated when it ended
// inside them, and a hard source error as is.
func (w *frameWalker) need(n int) error {
	switch {
	case w.fillTo(n):
		return nil
	case w.srcErr != io.EOF:
		return w.srcErr
	case w.buffered() == 0:
		return io.EOF
	}
	return errFrameTruncated
}

// magic reads and checks the stream magic and returns it: the container
// the stream is in. An empty source is io.EOF.
func (w *frameWalker) magic() (string, error) {
	if err := w.need(4); err != nil {
		if err == errFrameTruncated {
			err = fmt.Errorf("mdz: stream cut inside the magic: %w", ErrTruncated)
		}
		return "", err
	}
	switch magic := string(w.view(4)); magic {
	case streamMagicV2, streamMagic, streamMagicOneShot:
		w.discard(4)
		return magic, nil
	default:
		return "", fmt.Errorf("%w: not an MDZ stream (magic %q)", ErrCorruptBlock, magic)
	}
}

// uvarint reads the uvarint at the cursor without consuming it, returning
// its value and size. Its errors are need's, plus ErrCorruptBlock for a
// uvarint longer than 64 bits.
func (w *frameWalker) uvarint() (uint64, int, error) {
	w.fillTo(binary.MaxVarintLen64) // a short input is judged by the parse
	k := min(w.buffered(), binary.MaxVarintLen64)
	v, n := binary.Uvarint(w.view(k))
	switch {
	case n > 0:
		return v, n, nil
	case n < 0:
		return 0, 0, fmt.Errorf("%w: overlong uvarint", ErrCorruptBlock)
	}
	return 0, 0, w.need(k + 1) // every buffered byte continues the uvarint
}

// frameParse is one verified v2 frame.
type frameParse struct {
	frameHead
	payload []byte // aliases the window; use before the next fillTo
	size    int    // total wire size
}

// Internal parse outcomes distinguishing "bad bytes here" (scannable) from
// "source exhausted mid-frame" (truncation).
var (
	errNotFrame       = errors.New("mdz: no valid frame at this offset")
	errFrameTruncated = errors.New("mdz: frame cut short")
)

// parseFrame attempts to parse one complete frame at the cursor without
// consuming it. The payload is fetched only after checkFrameHeader. At a
// clean end of input it returns io.EOF.
func (w *frameWalker) parseFrame() (frameParse, error) {
	var fp frameParse
	if err := w.need(frameHeaderSize); err != nil {
		return fp, err
	}
	h, ok := checkFrameHeader(w.view(frameHeaderSize))
	if !ok {
		return fp, errNotFrame
	}
	total := frameHeaderSize + h.n + frameCRCSize
	if err := w.need(total); err != nil {
		return fp, err // not io.EOF: the header is buffered
	}
	// Re-view: fillTo may have compacted the window.
	payload, ok := checkFramePayload(w.view(total)[frameHeaderSize:])
	if !ok {
		return fp, errNotFrame
	}
	return frameParse{frameHead: h, payload: payload, size: total}, nil
}

// cutErr is the typed error for the errFrameTruncated outcome.
func (w *frameWalker) cutErr() error {
	return fmt.Errorf("mdz: stream cut inside frame %d: %w", w.nextSeq, ErrTruncated)
}

// notFrameErr is the typed error for the errNotFrame outcome at off.
func (w *frameWalker) notFrameErr(off int64) *CorruptBlockError {
	return &CorruptBlockError{
		Block: w.nextSeq, Offset: off,
		Cause: fmt.Errorf("%w: frame sync/CRC validation failed", ErrCorruptBlock),
	}
}

// scanSync advances at least one byte, then to the next sync-marker
// candidate (or the end of input), and returns the number of bytes it
// skipped.
func (w *frameWalker) scanSync() int64 {
	start := w.off
	if w.buffered() > 0 {
		w.discard(1)
	}
	for {
		if i := bytes.Index(w.buf[w.pos:], frameSync[:]); i >= 0 {
			w.discard(i)
			return w.off - start
		}
		// No marker in the window: keep a possible 3-byte sync prefix at
		// the tail and pull more input.
		keep := len(frameSync) - 1
		if w.buffered() < keep {
			keep = w.buffered()
		}
		w.discard(w.buffered() - keep)
		if !w.fillTo(keep + 1) {
			w.discard(w.buffered())
			return w.off - start
		}
	}
}

// sequence applies the sequence rule to fp, a verified frame at offset
// off. A frame numbered below the expected number is a replay and one
// numbered above it is a jump; brk describes either. A strict walk fails on
// both (err is brk) and consumes nothing. Otherwise the frame is consumed:
// a replay is to be dropped (drop is true) and the expected number stays;
// a jump is accepted like an in-order frame, and numbering continues after
// it.
func (w *frameWalker) sequence(fp frameParse, off int64, strict bool) (drop bool, brk *CorruptBlockError, err error) {
	switch {
	case fp.seq < w.nextSeq:
		drop = true
		brk = &CorruptBlockError{
			Block: fp.seq, Offset: off,
			Cause: fmt.Errorf("%w: frame sequence %d replayed (want %d)", ErrCorruptBlock, fp.seq, w.nextSeq),
		}
	case fp.seq > w.nextSeq:
		brk = &CorruptBlockError{
			Block: w.nextSeq, Offset: off,
			Cause: fmt.Errorf("%w: frame sequence jumped to %d (want %d)", ErrCorruptBlock, fp.seq, w.nextSeq),
		}
	}
	if brk != nil && strict {
		return false, brk, brk
	}
	w.discard(fp.size)
	if !drop {
		w.nextSeq = fp.seq + 1
	}
	return drop, brk, nil
}

// Writer compresses frames onto an io.Writer as a framed MDZ stream,
// buffering BufferSize snapshots per block — the natural interface for
// in-situ dumping from a running simulation. Config.Workers and
// Config.Shards govern the parallel pipeline exactly as in CompressBatch;
// Config.CheckpointInterval controls how often recovery checkpoints are
// embedded (see Reader's Resync mode).
//
//	w := mdz.NewWriter(file, mdz.Config{ErrorBound: 1e-3})
//	for step := ...; ; {
//	    if dumpNow { w.WriteFrame(frame) }
//	}
//	w.Close() // flushes the final partial batch and writes the trailer
type Writer struct {
	c        *Compressor
	w        *bufio.Writer
	pending  []Frame
	bs       int
	interval int
	err      error
	closed   bool
	opened   bool
	seq      uint32 // next frame sequence number
	blocks   int64  // data blocks written
	frames   int64  // snapshots flushed into blocks
	// raw/compressed byte counters for reporting
	rawBytes, compBytes int64
	tel                 streamWriterTel

	// Seek table (Config.SeekIndex): one entry per data/checkpoint frame,
	// emitted as a frameSeekIndex frame just before the trailer at Close.
	indexOn bool
	index   []SeekEntry
}

// streamWriterTel is the Writer's instrument set. All counters are nil-safe,
// so the zero value is the disabled state.
type streamWriterTel struct {
	// frames counts every framed record; checkpoints the checkpoint subset.
	frames, checkpoints *telemetry.Counter
	// framingBytes accumulates container overhead (magic, frame headers,
	// CRCs); checkpointBytes the checkpoint payloads. Together they are the
	// stream's cost over the bare compressed blocks.
	framingBytes, checkpointBytes *telemetry.Counter
}

func newStreamWriterTel(reg *telemetry.Registry) streamWriterTel {
	return streamWriterTel{
		frames:          reg.Counter("stream.frames"),
		checkpoints:     reg.Counter("stream.checkpoints"),
		framingBytes:    reg.Counter("stream.framing.bytes"),
		checkpointBytes: reg.Counter("stream.checkpoint.bytes"),
	}
}

// NewWriter returns a Writer with the given configuration. The stream
// header is written lazily with the first frame.
func NewWriter(w io.Writer, cfg Config) (*Writer, error) {
	c, err := NewCompressor(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointInterval < 0 {
		return nil, fmt.Errorf("mdz: CheckpointInterval must be non-negative, got %d", cfg.CheckpointInterval)
	}
	bs := cfg.BufferSize
	if bs <= 0 {
		bs = DefaultBufferSize
	}
	return &Writer{
		c: c, w: bufio.NewWriterSize(w, 1<<20), bs: bs,
		interval: cfg.CheckpointInterval,
		indexOn:  cfg.SeekIndex,
		tel:      newStreamWriterTel(c.reg),
	}, nil
}

// WriteFrame buffers one snapshot, flushing a compressed block every
// BufferSize frames.
func (w *Writer) WriteFrame(f Frame) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("mdz: write after Close")
	}
	if !w.opened {
		if _, err := w.w.WriteString(streamMagicV2); err != nil {
			return w.fail(err)
		}
		w.compBytes += int64(len(streamMagicV2))
		w.tel.framingBytes.Add(int64(len(streamMagicV2)))
		w.opened = true
	}
	w.pending = append(w.pending, f)
	if len(w.pending) >= w.bs {
		return w.flush()
	}
	return nil
}

func (w *Writer) flush() error {
	if len(w.pending) == 0 {
		return nil
	}
	blk, err := w.c.CompressBatch(w.pending)
	if err != nil {
		return w.fail(err)
	}
	// The frame's wire offset and sequence, before writeFrame advances them.
	entry := SeekEntry{
		Offset: w.compBytes, Seq: w.seq, Type: frameData,
		SnapFrom: w.frames, SnapCount: len(w.pending),
	}
	if err := w.writeFrame(frameData, blk); err != nil {
		return err
	}
	if w.indexOn {
		w.index = append(w.index, entry)
	}
	w.rawBytes += int64(len(w.pending) * w.pending[0].N() * 3 * 8)
	w.blocks++
	w.frames += int64(len(w.pending))
	w.pending = w.pending[:0]
	if w.interval > 0 && w.blocks%int64(w.interval) == 0 {
		return w.writeCheckpoint()
	}
	return nil
}

// writeFrame emits one framed record and accounts for its full wire size.
func (w *Writer) writeFrame(typ byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return w.fail(fmt.Errorf("mdz: frame payload of %d bytes exceeds format limit", len(payload)))
	}
	hdr := frameHeader(typ, w.seq, payload)
	w.seq++
	w.compBytes += int64(frameHeaderSize + len(payload) + frameCRCSize)
	w.tel.frames.Inc()
	w.tel.framingBytes.Add(frameHeaderSize + frameCRCSize)
	if typ == frameCheckpoint {
		w.tel.checkpoints.Inc()
		w.tel.checkpointBytes.Add(int64(len(payload)))
	}
	pcrc := payloadCRC(payload)
	for _, b := range [][]byte{hdr[:], payload, pcrc[:]} {
		if _, err := w.w.Write(b); err != nil {
			return w.fail(err)
		}
	}
	return nil
}

// writeCheckpoint embeds the compressor's current cross-batch state so a
// resyncing reader can restart decoding after this point.
func (w *Writer) writeCheckpoint() error {
	st, err := w.c.ExportState()
	if err != nil {
		return w.fail(err)
	}
	payload, err := st.MarshalBinary()
	if err != nil {
		return w.fail(err)
	}
	entry := SeekEntry{
		Offset: w.compBytes, Seq: w.seq, Type: frameCheckpoint, SnapFrom: w.frames,
	}
	if err := w.writeFrame(frameCheckpoint, payload); err != nil {
		return err
	}
	if w.indexOn {
		w.index = append(w.index, entry)
	}
	return nil
}

func (w *Writer) fail(err error) error {
	w.err = err
	return err
}

// Flush forwards every container byte buffered inside the Writer to the
// underlying io.Writer. It does NOT flush the pending partial batch —
// snapshots not yet compressed into a block stay pending until BufferSize
// is reached or Close runs — so the flushed prefix always ends on a frame
// boundary and is readable as a (trailerless) stream prefix. Long-running
// servers call this between batches to keep their copy of the container
// current for concurrent readers.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("mdz: Flush after Close")
	}
	if err := w.w.Flush(); err != nil {
		return w.fail(err)
	}
	return nil
}

// WriterState captures a live Writer so stream production can resume in a
// different process: the compressor checkpoint (nil until the first block
// has been flushed), the container cursor (sequence, block and snapshot
// counters), and the raw snapshots buffered but not yet compressed into a
// block. Together with the container bytes written so far — which the
// caller owns, since it owns the Writer's io.Writer — this is a complete
// session-migration unit: ResumeWriter on the same byte prefix continues
// the stream exactly where the exporting process stopped.
type WriterState struct {
	// Opened reports whether the stream magic has been written.
	Opened bool
	// Seq is the next frame sequence number.
	Seq uint32
	// Blocks and Frames are the data blocks and snapshots flushed so far.
	Blocks, Frames int64
	// RawBytes and CompBytes continue the Stats accounting.
	RawBytes, CompBytes int64
	// Checkpoint is the compressor's cross-batch state, nil before the
	// first flushed block (the resumed compressor then starts fresh).
	Checkpoint *CheckpointState
	// Pending holds the snapshots buffered but not yet flushed into a
	// block, in arrival order.
	Pending []Frame
	// SeekIndex reports that the exporting Writer was building a seek
	// table (Config.SeekIndex); Index holds the entries accumulated so
	// far. A resuming Writer with SeekIndex enabled continues the table
	// from these entries so the final stream's index is complete.
	SeekIndex bool
	Index     []SeekEntry
}

// ExportState snapshots the Writer for migration. It first flushes
// buffered container bytes to the underlying io.Writer (as Flush does), so
// the caller's copy of the container is complete up to the last emitted
// frame; the Writer remains usable afterwards. The returned state shares
// no mutable memory with the Writer and serializes with MarshalBinary.
func (w *Writer) ExportState() (*WriterState, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.closed {
		return nil, errors.New("mdz: ExportState after Close")
	}
	if err := w.w.Flush(); err != nil {
		return nil, w.fail(err)
	}
	st := &WriterState{
		Opened: w.opened, Seq: w.seq,
		Blocks: w.blocks, Frames: w.frames,
		RawBytes: w.rawBytes, CompBytes: w.compBytes,
		SeekIndex: w.indexOn,
		Index:     append([]SeekEntry(nil), w.index...),
	}
	if w.blocks > 0 {
		cp, err := w.c.ExportState()
		if err != nil {
			return nil, err
		}
		st.Checkpoint = cp
	}
	st.Pending = make([]Frame, len(w.pending))
	for i, f := range w.pending {
		st.Pending[i] = Frame{
			X: append([]float64(nil), f.X...),
			Y: append([]float64(nil), f.Y...),
			Z: append([]float64(nil), f.Z...),
		}
	}
	return st, nil
}

// ResumeWriter reconstructs a Writer from state exported by ExportState,
// continuing a stream across a process boundary. dst must already hold the
// container bytes the exporting Writer produced (ResumeWriter appends; it
// never rewrites the prefix), and cfg must be equivalent to the exporting
// Writer's Config. The resumed Writer produces bytes identical to what the
// original would have written.
func ResumeWriter(dst io.Writer, cfg Config, st *WriterState) (*Writer, error) {
	if st == nil {
		return nil, errors.New("mdz: ResumeWriter with nil state")
	}
	if st.Blocks > 0 && st.Checkpoint == nil {
		return nil, fmt.Errorf("%w: writer state with %d blocks but no checkpoint", ErrStateDesync, st.Blocks)
	}
	if !st.Opened && (st.Seq != 0 || st.Blocks != 0 || st.Frames != 0 || len(st.Pending) > 0) {
		return nil, fmt.Errorf("%w: writer state advanced before the stream magic", ErrStateDesync)
	}
	if cfg.SeekIndex != st.SeekIndex {
		// Turning the index on would build a table that omits the frames
		// already written (the scan rebuild or `mdzc -index` can retrofit
		// the finished stream instead); turning it off would silently drop
		// the table the stream was promised.
		return nil, fmt.Errorf("%w: Config.SeekIndex=%v but the exported writer had SeekIndex=%v",
			ErrStateDesync, cfg.SeekIndex, st.SeekIndex)
	}
	w, err := NewWriter(dst, cfg)
	if err != nil {
		return nil, err
	}
	if st.Checkpoint != nil {
		if err := w.c.ImportState(st.Checkpoint); err != nil {
			return nil, err
		}
	}
	w.opened = st.Opened
	w.seq = st.Seq
	w.blocks = st.Blocks
	w.frames = st.Frames
	w.rawBytes = st.RawBytes
	w.compBytes = st.CompBytes
	w.pending = append(w.pending, st.Pending...)
	if w.indexOn {
		w.index = append(w.index, st.Index...)
	}
	return w, nil
}

// Close flushes the final partial batch, writes the stream trailer and
// flushes the underlying buffer. If a prior frame already failed, Close
// still flushes whatever was buffered (best-effort, so partial data is not
// silently stranded) and returns the original error. It does not close
// the wrapped io.Writer.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	err := w.err
	if err == nil {
		err = w.finish()
	}
	if ferr := w.w.Flush(); err == nil {
		err = ferr
	}
	return err
}

// finish writes the last partial batch, the seek table (if enabled) and
// the trailer.
func (w *Writer) finish() error {
	if err := w.flush(); err != nil || !w.opened {
		return err
	}
	if w.indexOn {
		if err := w.writeFrame(frameSeekIndex, appendSeekIndex(nil, w.index)); err != nil {
			return err
		}
	}
	return w.writeFrame(frameTrailer, appendTrailer(nil, w.frames, w.blocks))
}

// appendTrailer encodes the trailer payload: total snapshots and total
// data blocks, as uvarints.
func appendTrailer(dst []byte, frames, blocks int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(frames))
	return binary.AppendUvarint(dst, uint64(blocks))
}

// parseTrailer decodes a trailer payload.
func parseTrailer(payload []byte) (snapTotal, blockTotal int64, err error) {
	br := bytes.NewReader(payload)
	s, err1 := binary.ReadUvarint(br)
	b, err2 := binary.ReadUvarint(br)
	if err1 != nil || err2 != nil || br.Len() != 0 || s > 1<<62 || b > 1<<62 {
		return 0, 0, fmt.Errorf("%w: malformed trailer", ErrCorruptBlock)
	}
	return int64(s), int64(b), nil
}

// Stats reports raw and compressed byte totals, including the stream
// magic, frame headers, checkpoints and trailer actually written.
func (w *Writer) Stats() (raw, compressed int64) { return w.rawBytes, w.compBytes }

// ReaderOptions configures NewReaderWith.
type ReaderOptions struct {
	// Workers bounds decompression parallelism (0 = GOMAXPROCS,
	// 1 = serial); decoded frames are identical for any worker count.
	Workers int
	// Pipeline is ignored: the Reader always reads serially.
	//
	// Deprecated: leave Pipeline zero.
	Pipeline int
	// Resync makes corruption survivable: instead of failing on the first
	// corrupt frame, the Reader scans forward for the next sync marker,
	// re-establishes decoder state (from the clean prefix or the next
	// checkpoint) and keeps going. Losses are reported via SalvageStats.
	Resync bool
	// Telemetry enables decode-side instrumentation, including live
	// mirrors of the SalvageStats counters; read it via Reader.Telemetry.
	Telemetry bool
	// Context, when non-nil, cancels reading cooperatively: once it is
	// done, ReadFrame returns ctx.Err() — even in Resync mode, because
	// cancellation is an environment outcome, not stream damage. The error
	// is sticky; a cancelled Reader cannot resume.
	Context context.Context
	// MaxDecodeBytes caps in-flight decode allocations driven by claimed
	// lengths in untrusted frames, checkpoint state included (see
	// DecompressorOptions.MaxDecodeBytes). 0 means unlimited. In strict
	// mode a rejection surfaces as ErrBudgetExceeded; in Resync mode the
	// over-budget frame is recorded in SalvageStats and skipped like a
	// corrupt one, since it cannot be delivered under this budget either
	// way.
	MaxDecodeBytes int64
}

// LostRange is a half-open range [From, To) of frame sequence numbers that
// a resyncing Reader could not deliver.
type LostRange struct {
	From, To uint32
}

// SalvageStats accounts for what a Resync Reader lost and recovered.
type SalvageStats struct {
	// CorruptFrames counts frames rejected by framing, CRC or decode
	// validation.
	CorruptFrames int
	// Resyncs counts forward scans for a sync marker after corruption.
	Resyncs int
	// SkippedBytes counts bytes discarded while hunting for sync markers.
	SkippedBytes int64
	// SkippedBlocks counts intact data blocks dropped because decoder
	// state was not yet re-established (no checkpoint seen since the
	// corruption).
	SkippedBlocks int
	// DroppedFrames counts snapshots known to be lost. Exact when the
	// trailer survives; otherwise derived from the headers of skipped
	// blocks (corrupt blocks of unknown size are not included).
	DroppedFrames int
	// LostRanges lists the frame sequence ranges not delivered, in order.
	LostRanges []LostRange
	// Truncated reports that the stream ended without a trailer (torn
	// write or partial file).
	Truncated bool
	// FirstError is the first corruption encountered, with its frame
	// index and byte offset, or nil for a clean stream.
	FirstError *CorruptBlockError
}

// Reader decompresses an MDZ stream, yielding frames one at a time: the
// framed v2 stream Writer and Compress produce, or a legacy v1 or one-shot
// container. Its embedded frameWalker reads the input; Reader decodes what
// it yields and accounts for salvage.
type Reader struct {
	frameWalker
	d *Decompressor

	queue     []Frame
	err       error
	container string // the stream's magic; empty until read
	resync    bool
	ctx       context.Context // nil disables cooperative cancellation

	oneShotBlocks uint64 // a one-shot container's block count

	await     bool  // resync: drop data frames until the next checkpoint
	scanning  bool  // inside a corrupt region (suppresses double-counting)
	delivered int64 // snapshots queued for the caller
	blocks    int64 // data blocks decoded
	stats     SalvageStats
	tel       streamReaderTel

	// Random access (see seek.go). srcSeeker is src when it supports
	// seeking; seeked relaxes the trailer-total check (the skipped prefix
	// was intentional) and skipSnaps drops the head of the first decoded
	// block when the target falls mid-block.
	srcSeeker   io.ReadSeeker
	index       []SeekEntry
	indexLoaded bool
	seeked      bool
	skipSnaps   int
}

// streamReaderTel mirrors SalvageStats into live instruments. All fields
// are nil-safe, so the zero value is the disabled state.
type streamReaderTel struct {
	corruptFrames, resyncs, skippedBlocks, truncations *telemetry.Counter
	skippedBytes                                       *telemetry.Counter
	// droppedFrames is a gauge because the trailer's exact total replaces
	// the header-derived running estimate rather than adding to it.
	droppedFrames *telemetry.Gauge
}

func newStreamReaderTel(reg *telemetry.Registry) streamReaderTel {
	return streamReaderTel{
		corruptFrames: reg.Counter("stream.corrupt_frames"),
		resyncs:       reg.Counter("stream.resyncs"),
		skippedBlocks: reg.Counter("stream.skipped_blocks"),
		truncations:   reg.Counter("stream.truncations"),
		skippedBytes:  reg.Counter("stream.skipped.bytes"),
		droppedFrames: reg.Gauge("stream.dropped_frames"),
	}
}

// NewReader returns a Reader over r with the default worker pool
// (GOMAXPROCS).
func NewReader(r io.Reader) *Reader {
	return NewReaderWith(r, ReaderOptions{})
}

// NewReaderWith returns a Reader configured by opts.
func NewReaderWith(r io.Reader, opts ReaderOptions) *Reader {
	d := NewDecompressorWith(DecompressorOptions{
		Workers:        opts.Workers,
		Telemetry:      opts.Telemetry,
		Context:        opts.Context,
		MaxDecodeBytes: opts.MaxDecodeBytes,
	})
	rd := &Reader{
		frameWalker: frameWalker{src: r},
		d:           d,
		resync:      opts.Resync,
		ctx:         opts.Context,
		tel:         newStreamReaderTel(d.reg),
	}
	if rs, ok := r.(io.ReadSeeker); ok {
		rd.srcSeeker = rs
	}
	return rd
}

// Close makes Reader an io.Closer. A Reader holds no goroutine or other
// resource, so Close does nothing; it never touches the underlying source.
func (r *Reader) Close() error { return nil }

// SalvageStats reports what a Resync reader skipped, dropped and
// recovered so far. The result is a snapshot; LostRanges is a copy.
func (r *Reader) SalvageStats() SalvageStats {
	st := r.stats
	st.LostRanges = append([]LostRange(nil), r.stats.LostRanges...)
	return st
}

// open reads and validates the stream magic, selecting the frame parser:
// v2 or legacy. A one-shot container's block count follows its magic.
func (r *Reader) open() error {
	magic, err := r.magic()
	if err != nil {
		return err
	}
	r.container = magic
	if magic == streamMagicOneShot {
		count, size, err := r.uvarint()
		if err != nil {
			return r.legacyReadErr(err)
		}
		r.discard(size)
		r.oneShotBlocks = count
	}
	return nil
}

// ReadFrame returns the next frame, or io.EOF at end of stream.
func (r *Reader) ReadFrame() (Frame, error) {
	if r.err != nil {
		return Frame{}, r.err
	}
	if r.container == "" {
		if err := r.open(); err != nil {
			return Frame{}, r.fail(err)
		}
	}
	for len(r.queue) == 0 {
		if r.ctx != nil {
			if cerr := r.ctx.Err(); cerr != nil {
				return Frame{}, r.fail(cerr)
			}
		}
		var err error
		if r.container == streamMagicV2 {
			err = r.nextBatchV2()
		} else {
			err = r.nextBatchLegacy()
		}
		if err != nil {
			return Frame{}, r.fail(err)
		}
	}
	f := r.queue[0]
	r.queue = r.queue[1:]
	return f, nil
}

// ReadAll drains the stream into a slice. It grows frame by frame: no
// claimed count (such as a seek table's snapshot total) sizes it.
func (r *Reader) ReadAll() ([]Frame, error) {
	var out []Frame
	for {
		f, err := r.ReadFrame()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

func (r *Reader) fail(err error) error {
	r.err = err
	return err
}

// nextBatchLegacy reads one block of a legacy container into the queue.
// Both legacy containers are runs of length-prefixed blocks: v1 prefixes
// each block with its u32 LE length and ends with the input; the one-shot
// container leads with a uvarint block count, prefixes each block with its
// uvarint length and ends after that many blocks. Neither has sync
// markers, so in Resync mode corruption ends the stream after accounting
// for it.
func (r *Reader) nextBatchLegacy() error {
	if r.container == streamMagicOneShot && uint64(r.blocks) == r.oneShotBlocks {
		return io.EOF
	}
	var n uint64
	var size int
	var err error
	if r.container == streamMagic {
		if err = r.need(4); err == nil {
			n, size = uint64(binary.LittleEndian.Uint32(r.view(4))), 4
		}
	} else {
		n, size, err = r.uvarint()
	}
	switch {
	case err == io.EOF && r.container == streamMagic:
		return io.EOF // v1 ends with the input
	case err != nil:
		return r.legacyReadErr(err)
	case n == 0 || n > maxFramePayload:
		return r.legacyCorrupt(&CorruptBlockError{
			Block: uint32(r.blocks), Offset: r.off,
			Cause: fmt.Errorf("%w: implausible block length %d", ErrCorruptBlock, n),
		})
	}
	if err := r.need(size + int(n)); err != nil {
		if err != errFrameTruncated {
			return err
		}
		return r.legacyCorrupt(fmt.Errorf("mdz: stream cut inside block %d: %w", r.blocks, ErrTruncated))
	}
	blockOff := r.off
	r.discard(size)
	blk := r.view(int(n))
	batch, err := r.d.DecompressBatch(blk)
	r.discard(int(n))
	if err != nil {
		if isCancellation(err) {
			return err
		}
		if !r.resync && errors.Is(err, ErrBudgetExceeded) {
			return err
		}
		return r.legacyCorrupt(&CorruptBlockError{Block: uint32(r.blocks), Offset: blockOff, Cause: err})
	}
	r.blocks++
	r.delivered += int64(len(batch))
	r.queue = batch
	return nil
}

// legacyReadErr surfaces a failed read of a legacy container's block count
// or length prefix. The stream is cut short when the input ends before it
// (io.EOF included: no block remains where one is due).
func (r *Reader) legacyReadErr(err error) error {
	switch {
	case err == io.EOF || err == errFrameTruncated:
		return r.legacyCorrupt(fmt.Errorf("mdz: stream cut before block %d: %w", r.blocks, ErrTruncated))
	case errors.Is(err, ErrCorruptBlock):
		return r.legacyCorrupt(&CorruptBlockError{Block: uint32(r.blocks), Offset: r.off, Cause: err})
	}
	return err // hard I/O error from the source
}

// legacyCorrupt surfaces a legacy-container failure: typed in strict mode,
// recorded-then-EOF in Resync mode (no sync markers to scan for).
func (r *Reader) legacyCorrupt(err error) error {
	if !r.resync {
		return err
	}
	var cbe *CorruptBlockError
	if !errors.As(err, &cbe) {
		cbe = &CorruptBlockError{Block: uint32(r.blocks), Offset: r.off, Cause: err}
	}
	r.recordCorrupt(cbe)
	if errors.Is(err, ErrTruncated) {
		r.markTruncated()
	}
	r.countSkipped(int64(r.buffered()))
	r.discard(r.buffered())
	return io.EOF
}

// nextFrameV2 returns the next acceptable frame, handling corruption per
// the reader mode: strict mode fails with a typed error; Resync mode
// records the damage, scans forward to the next verifiable frame and
// accounts for the sequence gap.
func (r *Reader) nextFrameV2() (frameParse, int64, error) {
	for {
		frameOff := r.off
		fp, perr := r.parseFrame()
		switch perr {
		case nil:
			want := r.nextSeq
			drop, brk, err := r.sequence(fp, frameOff, !r.resync)
			if err != nil {
				return fp, frameOff, err
			}
			if drop {
				// The frame is individually valid but its sequence number
				// proves the wire replayed (or duplicated) writer output.
				// That is real stream damage: account the event and the
				// discarded wire bytes, so salvage reports never claim
				// byte-exact recovery while silently dropping input.
				r.recordCorrupt(brk)
				r.countSkipped(int64(fp.size))
				continue
			}
			if brk != nil {
				r.extendLost(want, fp.seq)
				if !r.d.seeded() {
					r.await = true
				}
			}
			r.scanning = false
			return fp, frameOff, nil

		case io.EOF:
			// Clean frame boundary but no trailer was seen: truncation.
			err := fmt.Errorf("mdz: stream ended without a trailer: %w", ErrTruncated)
			if !r.resync {
				return fp, frameOff, err
			}
			r.markTruncated()
			r.noteTruncation(frameOff, err)
			return fp, frameOff, io.EOF

		case errFrameTruncated:
			err := r.cutErr()
			if !r.resync {
				return fp, frameOff, err
			}
			r.markTruncated()
			r.noteTruncation(frameOff, err)
			r.countSkipped(int64(r.buffered()))
			r.discard(r.buffered())
			return fp, frameOff, io.EOF

		case errNotFrame:
			cbe := r.notFrameErr(frameOff)
			if !r.resync {
				return fp, frameOff, cbe
			}
			if !r.scanning {
				r.recordCorrupt(cbe)
				r.stats.Resyncs++
				r.tel.resyncs.Inc()
				r.scanning = true
				if !r.d.seeded() {
					r.await = true
				}
			}
			r.countSkipped(r.scanSync())

		default:
			return fp, frameOff, perr // hard I/O error from the source
		}
	}
}

// nextBatchV2 consumes frames until a data block fills the queue, the
// trailer ends the stream, or an error surfaces.
func (r *Reader) nextBatchV2() error {
	for {
		fp, frameOff, err := r.nextFrameV2()
		if err != nil {
			return err
		}
		switch fp.typ {
		case frameData:
			if r.await {
				// Intact but undecodable before a checkpoint reseeds the
				// decoder: account for it precisely via its header.
				r.stats.SkippedBlocks++
				r.tel.skippedBlocks.Inc()
				if bs, berr := blockSnapshots(fp.payload); berr == nil {
					r.stats.DroppedFrames += bs
					r.tel.droppedFrames.Set(int64(r.stats.DroppedFrames))
				}
				r.extendLost(fp.seq, fp.seq+1)
				continue
			}
			batch, derr := r.d.DecompressBatch(fp.payload)
			if derr != nil {
				if isCancellation(derr) {
					return derr // environment, not damage: surfaces in any mode
				}
				cbe := &CorruptBlockError{Block: fp.seq, Offset: frameOff, Cause: derr}
				if !r.resync {
					if errors.Is(derr, ErrBudgetExceeded) {
						return derr // resource rejection, not a corrupt block
					}
					return cbe
				}
				r.recordCorrupt(cbe)
				r.extendLost(fp.seq, fp.seq+1)
				if !r.d.seeded() {
					r.await = true
				}
				continue
			}
			r.blocks++
			if batch = r.trimSeekSkip(batch); len(batch) == 0 {
				continue
			}
			r.delivered += int64(len(batch))
			r.queue = batch
			return nil

		case frameSeekIndex:
			// The table is only consulted by Seek (which loads it by
			// offset); a sequential reader validates and caches it in
			// passing. A malformed payload inside an intact frame is real
			// corruption: the writer never emits one.
			if idx, ierr := parseSeekIndex(fp.payload); ierr == nil {
				if !r.indexLoaded {
					r.index, r.indexLoaded = idx, true
				}
			} else {
				cbe := &CorruptBlockError{Block: fp.seq, Offset: frameOff, Cause: ierr}
				if !r.resync {
					return cbe
				}
				r.recordCorrupt(cbe)
			}
			continue

		case frameCheckpoint:
			st, derr := r.d.parseCheckpoint(fp.payload)
			if derr != nil {
				cbe := &CorruptBlockError{Block: fp.seq, Offset: frameOff, Cause: derr}
				if !r.resync {
					if errors.Is(derr, ErrBudgetExceeded) {
						return derr
					}
					return cbe
				}
				r.recordCorrupt(cbe)
				r.extendLost(fp.seq, fp.seq+1)
				continue
			}
			if r.d.seeded() && !r.d.stateMatches(st) {
				derr := fmt.Errorf("%w: checkpoint %d disagrees with reconstructed state", ErrStateDesync, fp.seq)
				if !r.resync {
					return derr
				}
				// The checkpoint is CRC-verified writer state: trust it
				// over whatever the decoder accumulated, but record the
				// disagreement.
				r.recordCorrupt(&CorruptBlockError{Block: fp.seq, Offset: frameOff, Cause: derr})
			}
			if aerr := r.d.ImportState(st); aerr != nil {
				if !r.resync {
					return aerr
				}
				r.recordCorrupt(&CorruptBlockError{Block: fp.seq, Offset: frameOff, Cause: aerr})
				continue
			}
			r.await = false
			continue

		case frameTrailer:
			snapTotal, blockTotal, terr := parseTrailer(fp.payload)
			if terr != nil {
				cbe := &CorruptBlockError{Block: fp.seq, Offset: frameOff, Cause: terr}
				if !r.resync {
					return cbe
				}
				r.recordCorrupt(cbe)
				return io.EOF
			}
			if !r.resync {
				// After a Seek the undelivered prefix is intentional, so the
				// totals can only be bounds-checked, not matched exactly.
				if r.seeked {
					if snapTotal < r.delivered || blockTotal < r.blocks {
						return fmt.Errorf("%w: trailer claims %d snapshots in %d blocks, decoded %d in %d after a seek",
							ErrCorruptBlock, snapTotal, blockTotal, r.delivered, r.blocks)
					}
					return io.EOF
				}
				if snapTotal != r.delivered || blockTotal != r.blocks {
					return fmt.Errorf("%w: trailer claims %d snapshots in %d blocks, decoded %d in %d",
						ErrCorruptBlock, snapTotal, blockTotal, r.delivered, r.blocks)
				}
				return io.EOF
			}
			// With the trailer's exact totals, replace the header-derived
			// loss estimate (not after a seek: the skipped prefix is not a
			// loss).
			if !r.seeked && snapTotal >= r.delivered {
				r.stats.DroppedFrames = int(snapTotal - r.delivered)
				r.tel.droppedFrames.Set(int64(r.stats.DroppedFrames))
			}
			return io.EOF
		}
	}
}

// trimSeekSkip drops the leading snapshots of the first block decoded
// after a mid-block Seek, so delivery starts exactly at the target.
func (r *Reader) trimSeekSkip(batch []Frame) []Frame {
	if r.skipSnaps <= 0 {
		return batch
	}
	k := r.skipSnaps
	if k > len(batch) {
		k = len(batch)
	}
	r.skipSnaps -= k
	return batch[k:]
}

// recordCorrupt accounts one corruption event.
func (r *Reader) recordCorrupt(cbe *CorruptBlockError) {
	r.stats.CorruptFrames++
	r.tel.corruptFrames.Inc()
	if r.stats.FirstError == nil {
		r.stats.FirstError = cbe
	}
}

// countSkipped accounts n bytes discarded while hunting for sync markers.
func (r *Reader) countSkipped(n int64) {
	r.stats.SkippedBytes += n
	r.tel.skippedBytes.Add(n)
}

// markTruncated records that the stream ended without a trailer.
func (r *Reader) markTruncated() {
	if !r.stats.Truncated {
		r.tel.truncations.Inc()
	}
	r.stats.Truncated = true
}

// noteTruncation records the truncation point as the first error if the
// stream was otherwise clean.
func (r *Reader) noteTruncation(off int64, err error) {
	if r.stats.FirstError == nil {
		r.stats.FirstError = &CorruptBlockError{Block: r.nextSeq, Offset: off, Cause: err}
	}
}

// extendLost merges [from, to) into the lost-range list.
func (r *Reader) extendLost(from, to uint32) {
	if to <= from {
		return
	}
	if n := len(r.stats.LostRanges); n > 0 && r.stats.LostRanges[n-1].To == from {
		r.stats.LostRanges[n-1].To = to
		return
	}
	r.stats.LostRanges = append(r.stats.LostRanges, LostRange{From: from, To: to})
}
