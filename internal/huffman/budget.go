package huffman

import (
	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
)

// Section decoding with budget accounting. Each decode reserves the
// stream's *claimed* sizes against tx before allocating for them, so a
// forged table or payload length is rejected with budget.ErrExceeded
// instead of ballooning into a huge allocation. A nil tx disables
// accounting.
//
// Accounting is by claimed size, independent of buffer reuse: a pooled
// destination with spare capacity is charged the same as a fresh
// allocation, so acceptance is deterministic for a given input. Charges:
// 8 bytes per claimed int symbol, 1 per claimed byte (coded or raw), and
// tableEntryCost per declared table entry (the parsed entry, its slot in
// the canonical symbol list, and its amortized share of the bounded
// LUT/subtables). Claims no input of that size could hold are refused as
// ErrCorrupt before anything is charged: a table entry takes at least two
// bytes, a coded symbol at least one payload bit, and a raw byte exactly
// one payload byte.

// tableEntryCost is the accounted bytes per declared code-table entry.
const tableEntryCost = 48

// DecodeScratch holds the reusable state of section decoding, int and byte:
// a pooled Decoder whose tables rebuild in place, plus parse and reader
// scratch. A DecodeScratch must not be used concurrently, and a Decoder
// obtained through it is only valid until the scratch's next use. The zero
// value is ready to use.
type DecodeScratch struct {
	dec  Decoder
	list []symLen
	r    bitstream.Reader
	br   bitstream.ByteReader
}

// symLen is one parsed table entry: a symbol and its code length.
type symLen struct {
	sym int
	l   uint8
}

// ReadTable parses a code table in AppendTable's layout and rebuilds the
// scratch's Decoder from it; it is the only table parser. The symbols must
// be strictly ascending, as AppendTable writes them: a delta after the first
// that is not positive, or that overflows the symbol, is ErrCorrupt. The
// entry count is bounded by the bytes after it and then charged to tx.
func (s *DecodeScratch) ReadTable(br *bitstream.ByteReader, tx *budget.Tx) (*Decoder, error) {
	n, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(br.Len()/2) || n > 1<<24 {
		return nil, ErrCorrupt
	}
	if err := tx.Reserve(int64(n) * tableEntryCost); err != nil {
		return nil, err
	}
	d := &s.dec
	*d = Decoder{symbols: d.symbols[:0], lut: d.lut, sub: d.sub, ext: d.ext, pair: d.pair}
	list := s.list[:0]
	sym := int64(0)
	for i := uint64(0); i < n; i++ {
		delta, err := br.ReadVarint()
		if err != nil {
			return nil, err
		}
		next := sym + delta
		if i > 0 && (delta <= 0 || next < sym) {
			return nil, ErrCorrupt
		}
		sym = next
		l, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if l == 0 || l > MaxCodeLen {
			return nil, ErrCorrupt
		}
		list = append(list, symLen{int(sym), l})
		d.count[l]++
		d.maxLen = max(d.maxLen, l)
	}
	s.list = list
	if err := firstCodes(&d.count, d.maxLen, &d.firstCode); err != nil {
		return nil, err
	}
	// Counting sort by length: symbols stay ascending within each length,
	// which is the canonical (length, symbol) order.
	idx := 0
	for l := uint8(1); l <= d.maxLen; l++ {
		d.firstIndex[l] = idx
		idx += d.count[l]
	}
	d.symbols = resize(d.symbols, len(list))
	pos := d.firstIndex
	for _, it := range list {
		d.symbols[pos[it.l]] = it.sym
		pos[it.l]++
	}
	if len(list) != 0 {
		// Stale lut/sub/pair buffers of an empty code, or of a table that
		// failed to parse, are never read: every decode entry point checks
		// len(d.symbols) first.
		d.buildLUT()
	}
	return d, nil
}

// DecodeIntsTx inverts EncodeInts, consuming one section from br into buf
// (reused when it has capacity), with budget accounting on tx. A raw byte
// section fails in ReadTable, as its empty table is no code.
func (s *DecodeScratch) DecodeIntsTx(br *bitstream.ByteReader, buf []int, tx *budget.Tx) ([]int, error) {
	table, err := br.ReadSection()
	if err != nil {
		return nil, err
	}
	dec, n, err := s.openSection(table, br, tx, 8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		if buf != nil {
			return buf[:0], nil
		}
		return []int{}, nil
	}
	out, err := dec.DecodeAllBuf(&s.r, n, buf)
	s.r.Reset(nil)
	return out, err
}

// DecodeBytesTx inverts EncodeBytes, consuming one section from br into buf
// (reused when it has capacity), with budget accounting on tx. A raw
// section is copied out with no Huffman pass. A coded section decodes
// exactly when DecodeIntsTx decodes it with all symbols in 0..255, and
// fails with the same error sequencing: stream and table errors surface
// first, and ErrByteRange is returned only when the symbol stream itself
// decoded cleanly.
func (s *DecodeScratch) DecodeBytesTx(br *bitstream.ByteReader, buf []byte, tx *budget.Tx) ([]byte, error) {
	table, err := br.ReadSection()
	if err != nil {
		return nil, err
	}
	if len(table) == 0 {
		return readRaw(br, buf, tx)
	}
	dec, n, err := s.openSection(table, br, tx, 1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		if buf != nil {
			return buf[:0], nil
		}
		return []byte{}, nil
	}
	out, err := dec.DecodeAllBytesBuf(&s.r, n, buf)
	s.r.Reset(nil)
	return out, err
}

// readRaw reads the rest of a raw byte section, its count and its bytes,
// and copies the bytes into buf. The count must be positive and equal the
// payload's length, and is charged to tx before the copy.
func readRaw(br *bitstream.ByteReader, buf []byte, tx *budget.Tx) ([]byte, error) {
	n, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	payload, err := br.ReadSection()
	if err != nil {
		return nil, err
	}
	if n == 0 || n != uint64(len(payload)) {
		return nil, ErrCorrupt
	}
	if err := tx.Reserve(int64(n)); err != nil {
		return nil, err
	}
	return append(buf[:0], payload...), nil
}

// openSection parses one coded section's table, then reads its symbol
// count and payload from br, rebuilding the scratch's Decoder and pointing
// s.r at the payload. A nonzero count must fit the payload at one bit per
// symbol, and is charged to tx at symbolCost bytes per symbol. The caller
// resets s.r once the payload is decoded: scratches live on in pools, and
// must not pin the buffers they decoded from.
func (s *DecodeScratch) openSection(table []byte, br *bitstream.ByteReader, tx *budget.Tx, symbolCost int64) (*Decoder, int, error) {
	s.br.Reset(table)
	dec, err := s.ReadTable(&s.br, tx)
	s.br.Reset(nil)
	if err != nil {
		return nil, 0, err
	}
	n, err := br.ReadUvarint()
	if err != nil {
		return nil, 0, err
	}
	payload, err := br.ReadSection()
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return dec, 0, nil
	}
	if n > 8*uint64(len(payload)) {
		return nil, 0, ErrCorrupt
	}
	if err := tx.Reserve(symbolCost * int64(n)); err != nil {
		return nil, 0, err
	}
	s.r.Reset(payload)
	return dec, int(n), nil
}
