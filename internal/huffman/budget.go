package huffman

import (
	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
)

// Budget-aware decode variants. Each reserves the stream's *claimed* sizes
// against tx before allocating for them, so a forged table or payload
// length is rejected with budget.ErrExceeded instead of ballooning into a
// huge allocation. A nil tx disables accounting, making the plain entry
// points (DecodeIntsBuf etc.) thin wrappers over these.
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

// readTableTx is ReadTable with the declared entry count charged to tx
// before the table is materialized.
func readTableTx(br *bitstream.ByteReader, tx *budget.Tx) (*Decoder, error) {
	if err := reserveTable(br, tx); err != nil {
		return nil, err
	}
	return ReadTable(br)
}

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

// DecodeIntsTx is DecodeIntsBuf with budget accounting on tx.
func DecodeIntsTx(br *bitstream.ByteReader, buf []int, tx *budget.Tx) ([]int, error) {
	table, err := br.ReadSection()
	if err != nil {
		return nil, err
	}
	dec, err := readTableTx(bitstream.NewByteReader(table), tx)
	if err != nil {
		return nil, err
	}
	n, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	payload, err := br.ReadSection()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		if buf != nil {
			return buf[:0], nil
		}
		return []int{}, nil
	}
	if n > uint64(len(payload))*64+64 {
		return nil, ErrCorrupt
	}
	if err := tx.Reserve(8 * int64(n)); err != nil {
		return nil, err
	}
	return dec.DecodeAllBuf(bitstream.NewReader(payload), int(n), buf)
}

// DecodeBytesTx is DecodeScratch.DecodeBytes with budget accounting on tx.
func (s *DecodeScratch) DecodeBytesTx(br *bitstream.ByteReader, buf []byte, tx *budget.Tx) ([]byte, error) {
	table, err := br.ReadSection()
	if err != nil {
		return nil, err
	}
	s.br.Reset(table)
	dec, err := s.ReadTableTx(&s.br, tx)
	if err != nil {
		return nil, err
	}
	n, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	payload, err := br.ReadSection()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		if buf != nil {
			return buf[:0], nil
		}
		return []byte{}, nil
	}
	if n > uint64(len(payload))*64+64 {
		return nil, ErrCorrupt
	}
	if err := tx.Reserve(int64(n)); err != nil {
		return nil, err
	}
	s.r.Reset(payload)
	return dec.DecodeAllBytesBuf(&s.r, int(n), buf)
}
