package mdz

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
)

// TestCorruptPathsReturnSentinels feeds every corrupt-input path a
// malformed input and asserts the error matches one of the package
// sentinels via errors.Is, so callers can classify failures without
// string matching.
func TestCorruptPathsReturnSentinels(t *testing.T) {
	frames := makeFrames(6, 80, 3)
	c, err := NewCompressor(Config{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := c.CompressBatch(frames[:3])
	if err != nil {
		t.Fatal(err)
	}
	blk2, err := c.CompressBatch(frames[3:])
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Compress(frames, Config{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}

	isSentinel := func(err error) bool {
		return errors.Is(err, ErrCorruptBlock) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrStateDesync)
	}

	cases := []struct {
		name string
		err  func() error
		want error // specific sentinel, or nil for "any sentinel"
	}{
		{"block: bad magic", func() error {
			_, err := NewDecompressor().DecompressBatch([]byte("XXXX rest"))
			return err
		}, ErrCorruptBlock},
		{"block: truncated footer", func() error {
			_, err := NewDecompressor().DecompressBatch(blk[:6])
			return err
		}, ErrTruncated},
		{"block: checksum flip", func() error {
			bad := append([]byte(nil), blk...)
			bad[len(bad)/2] ^= 1
			_, err := NewDecompressor().DecompressBatch(bad)
			return err
		}, ErrCorruptBlock},
		{"block: truncated body", func() error {
			_, err := NewDecompressor().DecompressBatch(blk[:len(blk)-20])
			return err
		}, nil},
		{"block: out of order", func() error {
			_, err := NewDecompressor().DecompressBatch(blk2)
			return err
		}, nil}, // ErrStateDesync for MT-bearing streams, else decodes
		{"Decompress: bad magic", func() error {
			_, err := Decompress([]byte("NOPE...."))
			return err
		}, ErrCorruptBlock},
		{"Decompress: truncated", func() error {
			_, err := Decompress(stream[:len(stream)-9])
			return err
		}, ErrTruncated},
		{"stream: bad magic", func() error {
			_, err := NewReader(bytes.NewReader([]byte("GARBAGE!"))).ReadFrame()
			return err
		}, ErrCorruptBlock},
		{"stream: partial magic", func() error {
			_, err := NewReader(bytes.NewReader([]byte("MD"))).ReadFrame()
			return err
		}, ErrTruncated},
		{"checkpoint: garbage", func() error {
			return new(CheckpointState).UnmarshalBinary([]byte{9, 9, 9})
		}, ErrCorruptBlock},
		{"checkpoint: empty", func() error {
			return new(CheckpointState).UnmarshalBinary(nil)
		}, ErrCorruptBlock},
	}
	for _, tc := range cases {
		err := tc.err()
		if tc.want == nil {
			if err != nil && !isSentinel(err) {
				t.Errorf("%s: error not typed: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestCutSectionIsCorrupt cuts a block's x-axis section in half and
// re-seals the block (section lengths and CRC footer recomputed): the
// decoder runs out of section bytes mid-value, which inside a block that
// passed its CRC is corruption, not truncation. The bare block and the same
// block as a v2 data frame must both say so.
func TestCutSectionIsCorrupt(t *testing.T) {
	c, err := NewCompressor(Config{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := c.CompressBatch(makeFrames(6, 80, 3))
	if err != nil {
		t.Fatal(err)
	}
	br := bitstream.NewByteReader(blk[4 : len(blk)-4])
	forged := []byte("MDZS")
	for axis := 0; axis < 3; axis++ {
		sec, err := br.ReadSection()
		if err != nil {
			t.Fatal(err)
		}
		if axis == 0 {
			sec = sec[:len(sec)/2]
		}
		forged = bitstream.AppendSection(forged, sec)
	}
	forged = bitstream.AppendUint32(forged, crc32.Checksum(forged[4:], crcTable))

	_, berr := NewDecompressor().DecompressBatch(forged)
	stream := appendWireFrame([]byte(streamMagicV2), frameData, 0, forged)
	_, serr := NewReader(bytes.NewReader(stream)).ReadAll()
	for name, err := range map[string]error{"DecompressBatch": berr, "Reader": serr} {
		if !errors.Is(err, ErrCorruptBlock) || errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrCorruptBlock and not ErrTruncated", name, err)
		}
	}
}

// TestOutOfOrderBlocksDesync pins the ErrStateDesync path: an MT block
// presented to a fresh decompressor must be refused as out-of-order.
func TestOutOfOrderBlocksDesync(t *testing.T) {
	frames := makeFrames(6, 80, 19)
	c, err := NewCompressor(Config{ErrorBound: 1e-3, Method: MT})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CompressBatch(frames[:3]); err != nil {
		t.Fatal(err)
	}
	blk2, err := c.CompressBatch(frames[3:])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecompressor().DecompressBatch(blk2); !errors.Is(err, ErrStateDesync) {
		t.Errorf("out-of-order MT block: err = %v, want ErrStateDesync", err)
	}
}

// TestCorruptBlockErrorShape checks the typed error's fields and matching
// behavior.
func TestCorruptBlockErrorShape(t *testing.T) {
	cause := errors.New("inner")
	e := &CorruptBlockError{Block: 7, Offset: 1234, Cause: cause}
	if !errors.Is(e, ErrCorruptBlock) {
		t.Error("CorruptBlockError does not match ErrCorruptBlock")
	}
	if !errors.Is(e, cause) {
		t.Error("CorruptBlockError does not unwrap to its cause")
	}
	var got *CorruptBlockError
	if !errors.As(error(e), &got) || got.Block != 7 || got.Offset != 1234 {
		t.Error("errors.As lost the block/offset fields")
	}
}
