package huffman

import (
	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
)

// Budget-aware decode variants. Each reserves the stream's *claimed* sizes
// against tx before allocating for them, so a forged table or payload
// length is rejected with budget.ErrExceeded instead of ballooning into a
// huge allocation. A nil tx disables accounting.
//
// Accounting is by claimed size, independent of buffer reuse: a pooled
// destination with spare capacity is charged the same as a fresh
// allocation, so acceptance is deterministic for a given input. Charges:
// 8 bytes per claimed int symbol, 1 per claimed byte symbol, and
// tableEntryCost per declared table entry (the symbol list, the
// symbol→length map or counting-sort scratch, and the entry's amortized
// share of the bounded LUT/subtables).

// tableEntryCost is the accounted bytes per declared code-table entry.
const tableEntryCost = 48

// ReadTableTx is DecodeScratch.ReadTable with the declared entry count
// charged to tx before parsing.
func (s *DecodeScratch) ReadTableTx(br *bitstream.ByteReader, tx *budget.Tx) (*Decoder, error) {
	if err := reserveTable(br, tx); err != nil {
		return nil, err
	}
	return s.ReadTable(br)
}

// reserveTable peeks the table's entry count by reading the leading
// uvarint and charges it, leaving br positioned after the count. It
// mirrors the count validation of the table parsers so a rejection here is
// byte-equivalent to one there.
func reserveTable(br *bitstream.ByteReader, tx *budget.Tx) error {
	if tx == nil {
		return nil
	}
	save := *br
	n, err := br.ReadUvarint()
	if err != nil {
		return err
	}
	*br = save
	if n > 1<<24 {
		return ErrCorrupt
	}
	return tx.Reserve(int64(n) * tableEntryCost)
}

// DecodeIntsTx inverts EncodeInts, consuming one section from br into buf
// (reused when it has capacity), with budget accounting on tx. The code
// table parses by counting sort into the scratch's reusable tables.
func (s *DecodeScratch) DecodeIntsTx(br *bitstream.ByteReader, buf []int, tx *budget.Tx) ([]int, error) {
	dec, n, err := s.openSection(br, tx, 8)
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

// DecodeBytesTx is DecodeScratch.DecodeBytes with budget accounting on tx.
func (s *DecodeScratch) DecodeBytesTx(br *bitstream.ByteReader, buf []byte, tx *budget.Tx) ([]byte, error) {
	dec, n, err := s.openSection(br, tx, 1)
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

// openSection reads one section's code table, symbol count and payload
// from br, rebuilding the scratch's Decoder and pointing s.r at the
// payload. A nonzero count is checked against the payload size and charged
// to tx at symbolCost bytes per symbol. The caller resets s.r once the
// payload is decoded: scratches live on in pools, and must not pin the
// buffers they decoded from.
func (s *DecodeScratch) openSection(br *bitstream.ByteReader, tx *budget.Tx, symbolCost int64) (*Decoder, int, error) {
	table, err := br.ReadSection()
	if err != nil {
		return nil, 0, err
	}
	s.br.Reset(table)
	dec, err := s.ReadTableTx(&s.br, tx)
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
	if n > uint64(len(payload))*64+64 {
		return nil, 0, ErrCorrupt
	}
	if err := tx.Reserve(symbolCost * int64(n)); err != nil {
		return nil, 0, err
	}
	s.r.Reset(payload)
	return dec, int(n), nil
}
