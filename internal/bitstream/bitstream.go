// Package bitstream provides low-level bit- and byte-oriented encoding
// primitives shared by every codec in this repository: an MSB-first bit
// writer/reader, unsigned varints, and zigzag transforms for signed
// integers.
//
// All codecs in this module serialize multi-byte scalars little-endian and
// bits MSB-first within a byte, so streams are portable across platforms.
package bitstream

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrShortStream is returned when a reader runs out of input mid-value.
var ErrShortStream = errors.New("bitstream: unexpected end of stream")

// Writer accumulates bits MSB-first into an in-memory buffer. Bits are
// packed into a 64-bit accumulator and flushed eight bytes at a time, so
// WriteBits performs no per-bit (or per-byte) work on the hot path. The
// wire format is unchanged from the historical byte-at-a-time writer:
// MSB-first bits, zero padding on Align/Bytes.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // pending bits, right-aligned (low nbit bits valid)
	nbit uint   // number of pending bits in cur (< 64)
}

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(b uint) {
	w.WriteBits(uint64(b&1), 1)
}

// WriteBits appends the low n bits of v, MSB first. n must be <= 64.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	if free := 64 - w.nbit; n > free {
		// Top up the accumulator with the high `free` bits of v, flush the
		// full word, and start a fresh accumulator with the remainder.
		// (free can be 0 here only if nbit were 64, which never survives a
		// WriteBits call, so the shifts below are well defined.)
		w.cur = (w.cur << free) | (v >> (n - free))
		w.buf = binary.BigEndian.AppendUint64(w.buf, w.cur)
		n -= free
		w.cur = v & ((1 << n) - 1)
		w.nbit = n
		return
	}
	w.cur = (w.cur << n) | v
	w.nbit += n
	if w.nbit == 64 {
		w.buf = binary.BigEndian.AppendUint64(w.buf, w.cur)
		w.cur, w.nbit = 0, 0
	}
}

// Align pads the stream with zero bits up to the next byte boundary.
func (w *Writer) Align() {
	if w.nbit == 0 {
		return
	}
	if pad := w.nbit % 8; pad != 0 {
		w.cur <<= 8 - pad
		w.nbit += 8 - pad
	}
	for w.nbit > 0 {
		w.nbit -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nbit))
	}
	w.cur = 0
}

// Bytes flushes any partial byte (zero padded) and returns the encoded
// buffer. The Writer remains usable; subsequent writes start byte-aligned.
func (w *Writer) Bytes() []byte {
	w.Align()
	return w.buf
}

// Reset truncates the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nbit = 0, 0
}

// Reader consumes bits MSB-first from a byte slice. It maintains a 64-bit
// bit buffer refilled a word at a time from the input, so Peek and Skip on
// buffered bits compile down to shifts and masks with no per-bit branching.
type Reader struct {
	buf  []byte
	pos  int    // next unread byte index (bytes before pos are buffered in cur)
	cur  uint64 // bit buffer: the next stream bit is bit 63; bits below nbit are zero
	nbit uint   // number of valid (top-aligned) bits in cur, <= 64
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset repositions the Reader at the start of buf, discarding all state.
// It lets long-lived (pooled) readers avoid a per-use allocation.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.cur, r.nbit = 0, 0
}

// Fill tops up the 64-bit bit buffer from the input and reports the number
// of buffered bits now available (at least 57 unless the input is nearly
// exhausted). Callers that batch-decode can Fill once and then consume the
// buffered bits in registers through BitState and SetBitState.
func (r *Reader) Fill() uint {
	if r.pos+8 <= len(r.buf) {
		// Insert as many whole bytes from a single 8-byte load as fit above
		// the valid region, keeping the below-nbit bits zero.
		w := binary.BigEndian.Uint64(r.buf[r.pos:])
		free := 64 - r.nbit
		take := free &^ 7 // whole bytes only
		r.cur |= (w >> (64 - take) << (free - take))
		r.pos += int(take >> 3)
		r.nbit += take
		return r.nbit
	}
	for r.nbit <= 56 && r.pos < len(r.buf) {
		r.cur |= uint64(r.buf[r.pos]) << (56 - r.nbit)
		r.pos++
		r.nbit += 8
	}
	return r.nbit
}

// Buffered reports the number of bits currently held in the bit buffer.
func (r *Reader) Buffered() uint { return r.nbit }

// BitState exposes the raw bit buffer (next stream bit at bit 63, bits below
// nbit zero) so batch decoders can peek and consume in registers instead of
// through pointer loads. Pair with SetBitState to write the advanced state
// back before any other Reader method runs.
func (r *Reader) BitState() (cur uint64, nbit uint) { return r.cur, r.nbit }

// SetBitState writes back a bit-buffer state previously obtained from
// BitState and advanced only by left-shifting cur while decrementing nbit by
// the same amount (which preserves the bits-below-nbit-are-zero invariant).
func (r *Reader) SetBitState(cur uint64, nbit uint) { r.cur, r.nbit = cur, nbit }

// BitsRemaining reports the total number of unread bits, buffered or not.
func (r *Reader) BitsRemaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.nbit)
}

// drain consumes all remaining input, mirroring the historical reader's
// state after a short read (everything consumed, then ErrShortStream).
func (r *Reader) drain() {
	r.pos = len(r.buf)
	r.cur, r.nbit = 0, 0
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nbit == 0 && r.Fill() == 0 {
		return 0, ErrShortStream
	}
	v := uint(r.cur >> 63)
	r.cur <<= 1
	r.nbit--
	return v, nil
}

// ReadBits reads n bits (n <= 64) MSB-first and returns them right-aligned.
// If fewer than n bits remain, the reader consumes them all and returns
// ErrShortStream.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	if r.nbit < n && r.Fill() < n {
		return r.readBitsStraddle(n)
	}
	v := r.cur >> (64 - n)
	r.cur <<= n
	r.nbit -= n
	return v, nil
}

// readBitsStraddle handles the rare case where a wide unaligned read cannot
// be served from the 64-bit buffer alone (a byte-granular refill tops out at
// 57-63 buffered bits): it consumes the buffered bits, refills, and splices.
func (r *Reader) readBitsStraddle(n uint) (uint64, error) {
	if r.BitsRemaining() < int(n) {
		r.drain()
		return 0, ErrShortStream
	}
	take := r.nbit
	hi := uint64(0)
	if take > 0 {
		hi = r.cur >> (64 - take)
	}
	r.cur, r.nbit = 0, 0
	r.Fill()
	rem := n - take // <= 7: the straddle only occurs with >= 57 bits buffered
	lo := r.cur >> (64 - rem)
	r.cur <<= rem
	r.nbit -= rem
	return hi<<rem | lo, nil
}

// Peek returns the next n bits (n <= 64) without consuming them, MSB-first
// and right-aligned, zero-padded past the end of the stream.
//
// Contract: avail = min(n, bits remaining) reports how many of the returned
// bits actually exist in the stream; the n-avail low bits of the result are
// zero padding, not data. Peek never fails — at end of stream it silently
// returns avail < n (possibly 0) — so callers that treat the padded result
// as data without checking avail will mistake padding for a value. Always
// gate on avail (see huffman.Decoder.Decode for the canonical pattern:
// a table hit is only taken when the code length fits within avail).
func (r *Reader) Peek(n uint) (bits uint64, avail uint) {
	if n == 0 {
		return 0, 0
	}
	if r.nbit < n {
		if r.Fill() < n && r.pos < len(r.buf) {
			return r.peekStraddle(n)
		}
	}
	avail = n
	if r.nbit < n {
		avail = r.nbit
	}
	// Bits below nbit in cur are zero by invariant, so the result is
	// automatically zero-padded past the end of the stream.
	return r.cur >> (64 - n), avail
}

// peekStraddle assembles a lookahead wider than the bit buffer can hold (a
// byte-granular refill of an unaligned buffer tops out at 57-63 bits, so
// this only triggers for n in 58..64) by reading ahead in the input without
// consuming it.
func (r *Reader) peekStraddle(n uint) (bits uint64, avail uint) {
	v := r.cur
	got := r.nbit
	for pos := r.pos; got < n && pos < len(r.buf); pos++ {
		b := uint64(r.buf[pos])
		if got <= 56 {
			v |= b << (56 - got)
		} else {
			// Only the high 64-got bits of b fit in the window; the rest
			// are beyond bit 64 and cannot be part of an n<=64 peek.
			v |= b >> (got - 56)
		}
		got += 8
	}
	avail = n
	if got < n {
		avail = got
	}
	return v >> (64 - n), avail
}

// Skip consumes n bits previously examined with Peek. It returns
// ErrShortStream (consuming all remaining bits) if fewer than n remain.
func (r *Reader) Skip(n uint) error {
	if r.nbit >= n {
		r.cur <<= n
		r.nbit -= n
		return nil
	}
	if r.Fill() < n {
		if r.BitsRemaining() < int(n) {
			r.drain()
			return ErrShortStream
		}
		// Wide unaligned skip straddles the bit buffer: discard the
		// buffered bits, refill, and drop the remainder (<= 7 bits).
		rem := n - r.nbit
		r.cur, r.nbit = 0, 0
		r.Fill()
		r.cur <<= rem
		r.nbit -= rem
		return nil
	}
	r.cur <<= n
	r.nbit -= n
	return nil
}

// ZigZag maps a signed integer to an unsigned one so small-magnitude values
// (of either sign) become small codes: 0→0, -1→1, 1→2, -2→3, ...
func ZigZag(v int64) uint64 {
	return uint64((v << 1) ^ (v >> 63))
}

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// AppendUvarint appends v in LEB128 variable-length encoding.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendVarint appends v zigzag-encoded as a uvarint.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, ZigZag(v))
}

// AppendUint64 appends v little-endian.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendUint32 appends v little-endian.
func AppendUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// AppendFloat64 appends the IEEE-754 bits of f little-endian.
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendFloat64s appends each value's IEEE-754 bits little-endian, in
// order — the flat layout used by checkpoint reference snapshots.
func AppendFloat64s(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeFloat64s inverts AppendFloat64s over the whole buffer, appending
// the decoded values to dst. The buffer length must be a multiple of 8.
func DecodeFloat64s(dst []float64, buf []byte) ([]float64, error) {
	if len(buf)%8 != 0 {
		return nil, ErrShortStream
	}
	for off := 0; off < len(buf); off += 8 {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
	}
	return dst, nil
}

// ByteReader is a cursor over a byte slice for length-prefixed section
// decoding. All Read* methods return ErrShortStream past the end.
type ByteReader struct {
	buf []byte
	off int
}

// NewByteReader returns a cursor positioned at the start of buf.
func NewByteReader(buf []byte) *ByteReader {
	return &ByteReader{buf: buf}
}

// Reset repositions the cursor at the start of buf, discarding all state.
func (b *ByteReader) Reset(buf []byte) {
	b.buf = buf
	b.off = 0
}

// Len reports unread bytes.
func (b *ByteReader) Len() int { return len(b.buf) - b.off }

// ReadByte consumes one byte.
func (b *ByteReader) ReadByte() (byte, error) {
	if b.off >= len(b.buf) {
		return 0, ErrShortStream
	}
	v := b.buf[b.off]
	b.off++
	return v, nil
}

// ReadUint32 consumes a little-endian uint32.
func (b *ByteReader) ReadUint32() (uint32, error) {
	if b.off+4 > len(b.buf) {
		return 0, ErrShortStream
	}
	v := binary.LittleEndian.Uint32(b.buf[b.off:])
	b.off += 4
	return v, nil
}

// ReadUint64 consumes a little-endian uint64.
func (b *ByteReader) ReadUint64() (uint64, error) {
	if b.off+8 > len(b.buf) {
		return 0, ErrShortStream
	}
	v := binary.LittleEndian.Uint64(b.buf[b.off:])
	b.off += 8
	return v, nil
}

// ReadFloat64 consumes a little-endian IEEE-754 float64.
func (b *ByteReader) ReadFloat64() (float64, error) {
	u, err := b.ReadUint64()
	return math.Float64frombits(u), err
}

// ReadUvarint consumes a LEB128 varint.
func (b *ByteReader) ReadUvarint() (uint64, error) {
	v, n := binary.Uvarint(b.buf[b.off:])
	if n <= 0 {
		return 0, ErrShortStream
	}
	b.off += n
	return v, nil
}

// ReadVarint consumes a zigzag-encoded signed varint.
func (b *ByteReader) ReadVarint() (int64, error) {
	u, err := b.ReadUvarint()
	return UnZigZag(u), err
}

// ReadBytes consumes exactly n bytes and returns them as a subslice of the
// underlying buffer (no copy).
func (b *ByteReader) ReadBytes(n int) ([]byte, error) {
	if n < 0 || b.off+n > len(b.buf) {
		return nil, ErrShortStream
	}
	v := b.buf[b.off : b.off+n]
	b.off += n
	return v, nil
}

// ReadSection consumes a uvarint length prefix followed by that many bytes.
func (b *ByteReader) ReadSection() ([]byte, error) {
	n, err := b.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(b.Len()) {
		return nil, ErrShortStream
	}
	return b.ReadBytes(int(n))
}

// AppendSection appends a uvarint length prefix followed by payload.
func AppendSection(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// AppendShardSection appends one shard sub-section of a sharded block: the
// shard's item count (particles) as a uvarint, followed by its payload as a
// length-prefixed section.
func AppendShardSection(dst []byte, items int, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(items))
	return AppendSection(dst, payload)
}

// ReadShardSection consumes a shard sub-section written by
// AppendShardSection, returning the shard's item count and payload (a
// no-copy subslice of the underlying buffer).
func (b *ByteReader) ReadShardSection() (items int, payload []byte, err error) {
	n, err := b.ReadUvarint()
	if err != nil {
		return 0, nil, err
	}
	if n > 1<<40 {
		return 0, nil, ErrShortStream
	}
	payload, err = b.ReadSection()
	if err != nil {
		return 0, nil, err
	}
	return int(n), payload, nil
}
