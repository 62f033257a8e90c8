package mdz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Seek table
//
// An indexed stream carries one extra frame (type frameSeekIndex) between
// the last data/checkpoint frame and the trailer, recording for every
// data and checkpoint frame its absolute file offset, frame sequence
// number and snapshot range. The payload is delta-encoded:
//
//	ver(1)=1  uvarint(count)
//	count × ( typ(1)  uvarint(offsetDelta)  uvarint(seqDelta)  uvarint(snapCount) )
//
// offsetDelta and seqDelta are against the previous entry (the first entry
// encodes absolutes), snapCount is 0 for checkpoint entries, and SnapFrom
// is reconstructed cumulatively — so a long stream's index costs a few
// bytes per block. Integrity comes from the enclosing frame: the seek
// frame's header and payload CRCs cover the whole table, and a reader that
// fails to validate it falls back to the scan rebuild as if the index were
// absent. The frame participates in the sequence numbering like any other,
// so -fsck sees an unbroken chain.

// seekIndexVersion versions the seek-table payload encoding.
const seekIndexVersion = 1

// SeekEntry is one seek-table record: the wire location and snapshot
// coverage of a data or checkpoint frame. Entries are ordered by offset.
type SeekEntry struct {
	// Offset is the absolute byte offset of the frame's sync marker.
	Offset int64
	// Seq is the frame's sequence number.
	Seq uint32
	// Type is the frame type: frameData (0) or frameCheckpoint (1).
	Type byte
	// SnapFrom is the stream-wide index of the first snapshot covered by
	// the frame (for checkpoints: the count of snapshots preceding it).
	SnapFrom int64
	// SnapCount is the number of snapshots in the frame (0 for
	// checkpoints).
	SnapCount int
}

// appendSeekIndex encodes entries into a seek-table payload.
func appendSeekIndex(dst []byte, entries []SeekEntry) []byte {
	dst = append(dst, seekIndexVersion)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	var prevOff int64
	var prevSeq uint32
	for _, e := range entries {
		dst = append(dst, e.Type)
		dst = binary.AppendUvarint(dst, uint64(e.Offset-prevOff))
		dst = binary.AppendUvarint(dst, uint64(e.Seq-prevSeq))
		dst = binary.AppendUvarint(dst, uint64(e.SnapCount))
		prevOff, prevSeq = e.Offset, e.Seq
	}
	return dst
}

// errSeekVarint reports a malformed uvarint in a seek-table payload.
var errSeekVarint = fmt.Errorf("%w: malformed varint in seek table", ErrCorruptBlock)

// parseSeekIndex decodes a seek-table payload, validating monotonicity so
// a damaged (but CRC-colliding) table can never send a seek backwards or
// out of bounds. The per-entry floor of 4 payload bytes bounds the
// allocation by the payload actually read.
func parseSeekIndex(payload []byte) ([]SeekEntry, error) {
	if len(payload) < 2 || payload[0] != seekIndexVersion {
		return nil, fmt.Errorf("%w: unsupported seek-table version", ErrCorruptBlock)
	}
	br := bytes.NewReader(payload[1:])
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, errSeekVarint
	}
	if count > uint64(br.Len())/4+1 {
		return nil, fmt.Errorf("%w: seek-table entry count %d exceeds payload", ErrCorruptBlock, count)
	}
	entries := make([]SeekEntry, 0, count)
	var off, snaps int64
	var seq uint32
	for i := uint64(0); i < count; i++ {
		typ, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: seek table cut short", ErrCorruptBlock)
		}
		if typ != frameData && typ != frameCheckpoint {
			return nil, fmt.Errorf("%w: seek-table entry with frame type %d", ErrCorruptBlock, typ)
		}
		dOff, err1 := binary.ReadUvarint(br)
		dSeq, err2 := binary.ReadUvarint(br)
		sc, err3 := binary.ReadUvarint(br)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, errSeekVarint
		}
		if dOff > 1<<62 || dSeq > 1<<32-1 || sc > maxFramePayload {
			return nil, fmt.Errorf("%w: implausible seek-table entry", ErrCorruptBlock)
		}
		if i > 0 && (dOff == 0 || dSeq == 0) {
			return nil, fmt.Errorf("%w: non-monotonic seek-table entry", ErrCorruptBlock)
		}
		if typ == frameData && sc == 0 {
			return nil, fmt.Errorf("%w: seek-table data entry with no snapshots", ErrCorruptBlock)
		}
		if typ == frameCheckpoint && sc != 0 {
			return nil, fmt.Errorf("%w: seek-table checkpoint entry with snapshots", ErrCorruptBlock)
		}
		off += int64(dOff)
		seq += uint32(dSeq)
		entries = append(entries, SeekEntry{
			Offset: off, Seq: seq, Type: typ,
			SnapFrom: snaps, SnapCount: int(sc),
		})
		snaps += int64(sc)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%w: trailing seek-table bytes", ErrCorruptBlock)
	}
	return entries, nil
}

// findSeekEntry locates the data entry covering snapshot, plus the nearest
// checkpoint entry preceding it (nil when the stream start is the only
// recovery point). ok is false when snapshot is past the index.
func findSeekEntry(entries []SeekEntry, snapshot int64) (data SeekEntry, cp *SeekEntry, ok bool) {
	// The predicate must be monotonic over the mixed entry sequence for
	// sort.Search, so it tests end-of-coverage (SnapFrom+SnapCount, which
	// never decreases) rather than entry type. A checkpoint's coverage ends
	// where the previous data frame's does, so the search can only land on
	// one when no data frame covers the target; the forward skip below keeps
	// that case (and any malformed index) out of the fast path.
	i := sort.Search(len(entries), func(i int) bool {
		e := entries[i]
		return e.SnapFrom+int64(e.SnapCount) > snapshot
	})
	for i < len(entries) && entries[i].Type != frameData {
		i++
	}
	if i == len(entries) {
		return SeekEntry{}, nil, false
	}
	for j := i - 1; j >= 0; j-- {
		if entries[j].Type == frameCheckpoint {
			cp = &entries[j]
			break
		}
	}
	return entries[i], cp, true
}

// RetrofitSeekIndex copies a complete, healthy v2 stream from src to
// dst, inserting a seek-table frame immediately before the trailer — the
// `mdzc -index` retrofit for streams written before Config.SeekIndex (or
// with it off). The data and checkpoint frames are copied byte-for-byte,
// so every index offset matches the copy exactly; the seek frame takes the
// trailer's old sequence number and the trailer is re-emitted one higher.
// src must be strict-mode readable (corrupt or truncated streams are
// rejected: salvage first, then index). Returns the number of indexed
// frames.
func RetrofitSeekIndex(src io.ReadSeeker, dst io.Writer) (int, error) {
	ix, err := walkIndex(src, true)
	if err != nil {
		return 0, err
	}
	if !ix.hasTrailer {
		return 0, fmt.Errorf("mdz: stream has no trailer: %w", ErrTruncated)
	}
	if ix.seekTable {
		return 0, errors.New("mdz: stream already carries a seek table")
	}
	// Copy everything up to the trailer byte-for-byte, so the index
	// offsets recorded against the source hold in the copy.
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	if _, err := io.CopyN(dst, src, ix.trailerOff); err != nil {
		return 0, err
	}
	out := appendWireFrame(nil, frameSeekIndex, ix.trailerSeq, appendSeekIndex(nil, ix.entries))
	out = appendWireFrame(out, frameTrailer, ix.trailerSeq+1, ix.trailer)
	if _, err := dst.Write(out); err != nil {
		return 0, err
	}
	return len(ix.entries), nil
}
