package mdz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"testing"
)

// fuzzSeedStream builds a small valid v2 stream for the corpus.
func fuzzSeedStream(tb testing.TB, interval int) []byte {
	tb.Helper()
	frames := makeFrames(6, 30, 61)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{ErrorBound: 1e-3, BufferSize: 2, CheckpointInterval: interval})
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzStreamReader throws arbitrary bytes at the whole container decode
// path, in both strict and Resync modes. The reader must never panic, and
// every failure must carry a package sentinel (or be the io.Reader's own
// error — impossible here, the source is a bytes.Reader).
func FuzzStreamReader(f *testing.F) {
	v2 := fuzzSeedStream(f, 1)
	f.Add(v2)
	f.Add(fuzzSeedStream(f, 0))
	// Corrupted variants steer the fuzzer toward the resync machinery.
	flip := append([]byte(nil), v2...)
	flip[len(flip)/3] ^= 0x10
	f.Add(flip)
	f.Add(v2[:3*len(v2)/4])
	// A v1 stream (legacy path), including one around the seed fixture.
	frames := makeFrames(4, 25, 62)
	c, err := NewCompressor(Config{ErrorBound: 1e-3})
	if err != nil {
		f.Fatal(err)
	}
	blk, err := c.CompressBatch(frames)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buildV1Stream(blk))
	if seedBlk, err := os.ReadFile("testdata/seed_block_v1.bin"); err == nil {
		f.Add(buildV1Stream(seedBlk))
	}
	// The legacy one-shot container: the fixture, cut inside a block, a
	// forged block count of 2^40 over one block, and an overlong length.
	oneShot := readOneShotFixture(f)
	f.Add(oneShot)
	f.Add(oneShot[:len(oneShot)/2])
	forged := binary.AppendUvarint([]byte(streamMagicOneShot), 1<<40)
	f.Add(append(binary.AppendUvarint(forged, uint64(len(blk))), blk...))
	f.Add(append([]byte(streamMagicOneShot+"\x01"), bytes.Repeat([]byte{0xFF}, 11)...))
	f.Add([]byte{})
	f.Add([]byte("MD"))
	f.Add([]byte(streamMagicV2))
	f.Add([]byte(streamMagicOneShot))
	f.Add(append([]byte(streamMagicV2), frameSync[:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound per-input work; framing logic doesn't care about size
		}
		for _, resync := range []bool{false, true} {
			r := NewReaderWith(bytes.NewReader(data), ReaderOptions{Workers: 1, Resync: resync})
			n := 0
			for {
				_, err := r.ReadFrame()
				if err == nil {
					if n++; n > 1<<16 {
						t.Fatalf("resync=%v: reader yielded over %d frames from %d bytes", resync, n, len(data))
					}
					continue
				}
				if !errors.Is(err, io.EOF) &&
					!errors.Is(err, ErrCorruptBlock) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrStateDesync) {
					t.Fatalf("resync=%v: untyped error: %v", resync, err)
				}
				// Errors must be sticky: the next read repeats them.
				if _, err2 := r.ReadFrame(); !errors.Is(err2, err) && err2 == nil {
					t.Fatalf("resync=%v: error not sticky", resync)
				}
				break
			}
			// Stats must be self-consistent even on garbage.
			st := r.SalvageStats()
			if st.CorruptFrames < 0 || st.SkippedBytes < 0 || st.DroppedFrames < 0 {
				t.Fatalf("resync=%v: negative stats: %+v", resync, st)
			}
		}
	})
}

// FuzzCheckpointUnmarshal hammers the checkpoint payload parser, which in
// Resync mode sees attacker-shaped bytes that passed a CRC.
func FuzzCheckpointUnmarshal(f *testing.F) {
	frames := makeFrames(4, 30, 63)
	c, err := NewCompressor(Config{ErrorBound: 1e-3})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := c.CompressBatch(frames); err != nil {
		f.Fatal(err)
	}
	st, err := c.ExportState()
	if err != nil {
		f.Fatal(err)
	}
	payload, err := st.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add([]byte{checkpointVersion})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got := &CheckpointState{}
		if err := got.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrCorruptBlock) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrStateDesync) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// Whatever parses must re-marshal without error.
		if _, err := got.MarshalBinary(); err != nil {
			t.Fatalf("re-marshal of accepted checkpoint failed: %v", err)
		}
	})
}

// FuzzDecodeBatch throws arbitrary bytes at the block decoder under a tight
// decode-memory budget. Every outcome must be a typed sentinel — corrupt,
// truncated, desync or budget rejection — and forged giant lengths must be
// rejected by accounting, never by crashing or allocating.
func FuzzDecodeBatch(f *testing.F) {
	seed := func(cfg Config, m, n int) []byte {
		frames := makeFrames(m, n, 64)
		c, err := NewCompressor(cfg)
		if err != nil {
			f.Fatal(err)
		}
		blk, err := c.CompressBatch(frames)
		if err != nil {
			f.Fatal(err)
		}
		return blk
	}
	v2 := seed(Config{ErrorBound: 1e-3}, 6, 40)
	f.Add(v2)
	f.Add(seed(Config{ErrorBound: 1e-3, Shards: 3}, 8, 96))
	// A v2 block relabelled with the removed format v3's version byte.
	relabelled := append([]byte(nil), v2...)
	relabelled[4] = 3
	f.Add(relabelled)
	flip := append([]byte(nil), v2...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)
	f.Add(v2[:len(v2)/2])
	f.Add([]byte("MDZS"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		d := NewDecompressorWith(DecompressorOptions{Workers: 1, MaxDecodeBytes: 1 << 20})
		_, err := d.DecompressBatch(data)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrCorruptBlock) && !errors.Is(err, ErrTruncated) &&
			!errors.Is(err, ErrStateDesync) && !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("untyped error: %v", err)
		}
	})
}
