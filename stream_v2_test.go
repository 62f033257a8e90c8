package mdz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"testing"
)

// buildV1Stream wraps pre-compressed blocks in the legacy container
// layout: "MDZW" followed by 4-byte little-endian length-prefixed blocks.
func buildV1Stream(blks ...[]byte) []byte {
	out := []byte(streamMagic)
	for _, blk := range blks {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(blk)))
		out = append(out, blk...)
	}
	return out
}

// TestV1StreamCompat checks that streams written by pre-checkpoint
// writers still decode byte-identically, including one wrapping the
// checked-in seed fixture block.
func TestV1StreamCompat(t *testing.T) {
	frames := makeFrames(12, 90, 31)
	c, err := NewCompressor(Config{ErrorBound: 1e-3, BufferSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	var blks [][]byte
	for i := 0; i < 3; i++ {
		blk, err := c.CompressBatch(frames[i*4 : (i+1)*4])
		if err != nil {
			t.Fatal(err)
		}
		blks = append(blks, append([]byte(nil), blk...))
	}
	// The reference decode, block by block, as the v1 reader always did.
	d := NewDecompressor()
	var want []Frame
	for _, blk := range blks {
		out, err := d.DecompressBatch(blk)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out...)
	}

	got, err := NewReader(bytes.NewReader(buildV1Stream(blks...))).ReadAll()
	if err != nil {
		t.Fatalf("v1 stream decode: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("v1 decode yielded %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !framesExactEqual(want[i], got[i]) {
			t.Fatalf("v1 frame %d not byte-identical", i)
		}
	}

	// The checked-in fixture block, wrapped as a v1 stream.
	seedBlk, err := os.ReadFile("testdata/seed_block_v1.bin")
	if err != nil {
		t.Skipf("fixture unavailable: %v", err)
	}
	wantFix, err := NewDecompressor().DecompressBatch(seedBlk)
	if err != nil {
		t.Fatal(err)
	}
	gotFix, err := NewReader(bytes.NewReader(buildV1Stream(seedBlk))).ReadAll()
	if err != nil {
		t.Fatalf("fixture v1 stream decode: %v", err)
	}
	if len(gotFix) != len(wantFix) {
		t.Fatalf("fixture decode yielded %d frames, want %d", len(gotFix), len(wantFix))
	}
	for i := range wantFix {
		if !framesExactEqual(wantFix[i], gotFix[i]) {
			t.Fatalf("fixture frame %d not byte-identical", i)
		}
	}
}

// TestV1StreamResyncStops checks that Resync mode on a corrupt v1 stream
// (which has no sync markers to hunt for) stops cleanly after the damage
// and reports it, instead of failing hard.
func TestV1StreamResyncStops(t *testing.T) {
	frames := makeFrames(8, 50, 13)
	c, err := NewCompressor(Config{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	blk1, err := c.CompressBatch(frames[:4])
	if err != nil {
		t.Fatal(err)
	}
	blk1 = append([]byte(nil), blk1...)
	blk2, err := c.CompressBatch(frames[4:])
	if err != nil {
		t.Fatal(err)
	}
	stream := buildV1Stream(blk1, blk2)
	stream[4+4+len(blk1)+4+10] ^= 0x40 // hit block 2's body

	r := NewReaderWith(bytes.NewReader(stream), ReaderOptions{Resync: true})
	got, err := r.ReadAll()
	if err != nil {
		t.Fatalf("resync v1 read failed hard: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("salvaged %d frames, want the 4 before the damage", len(got))
	}
	stats := r.SalvageStats()
	if stats.CorruptFrames != 1 || stats.FirstError == nil {
		t.Errorf("stats = %+v, want one recorded corruption", stats)
	}
}

// TestPartialMagicIsTruncation checks that a stream cut inside the magic
// (1-3 byte file) reports ErrTruncated, not a clean EOF.
func TestPartialMagicIsTruncation(t *testing.T) {
	for n := 1; n < 4; n++ {
		for _, magic := range []string{streamMagic, streamMagicV2, streamMagicOneShot} {
			_, err := NewReader(bytes.NewReader([]byte(magic[:n]))).ReadFrame()
			if errors.Is(err, io.EOF) {
				t.Errorf("%d-byte prefix of %q read as clean EOF", n, magic)
			}
			if !errors.Is(err, ErrTruncated) {
				t.Errorf("%d-byte prefix of %q: err=%v, want ErrTruncated", n, magic, err)
			}
		}
	}
	// A bare magic with nothing after it is also a truncation (a v2 stream
	// always carries at least one data frame and a trailer).
	_, err := NewReader(bytes.NewReader([]byte(streamMagicV2))).ReadFrame()
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("bare v2 magic: err=%v, want ErrTruncated", err)
	}
	// A bare one-shot magic lacks its block count.
	_, err = NewReader(bytes.NewReader([]byte(streamMagicOneShot))).ReadFrame()
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("bare one-shot magic: err=%v, want ErrTruncated", err)
	}
}

// TestWriterStatsCountFraming checks that compressed-byte stats equal the
// bytes actually written: magic, frame headers, checkpoints and trailer
// included.
func TestWriterStatsCountFraming(t *testing.T) {
	frames := makeFrames(9, 70, 17)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{ErrorBound: 1e-3, BufferSize: 2, CheckpointInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, comp := w.Stats()
	if raw != int64(9*70*3*8) {
		t.Errorf("raw = %d, want %d", raw, 9*70*3*8)
	}
	if comp != int64(buf.Len()) {
		t.Errorf("compressed = %d, but %d bytes were written", comp, buf.Len())
	}
}

// TestWriterCloseFlushesAfterError checks that Close drains the buffered
// prefix to the sink even when a later frame already failed, so partial
// data is not silently stranded in the bufio layer.
func TestWriterCloseFlushesAfterError(t *testing.T) {
	var sink bytes.Buffer
	w, err := NewWriter(&sink, Config{ErrorBound: 1e-3, BufferSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	good := makeFrames(2, 40, 3)
	for _, f := range good {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	// A frame with mismatched axis lengths fails compression mid-stream.
	bad := Frame{X: make([]float64, 40), Y: make([]float64, 39), Z: make([]float64, 40)}
	werr := w.WriteFrame(bad)
	if werr == nil {
		// The size check may trip at the next flush boundary instead.
		werr = w.WriteFrame(Frame{X: make([]float64, 40), Y: make([]float64, 40), Z: make([]float64, 40)})
	}
	if werr == nil {
		t.Fatal("mismatched frame accepted")
	}
	cerr := w.Close()
	if !errors.Is(cerr, werr) && cerr == nil {
		t.Errorf("Close() = %v, want the original write error", cerr)
	}
	if sink.Len() == 0 {
		t.Error("Close stranded the buffered clean prefix")
	}
	// The flushed prefix must itself be a salvageable stream.
	r := NewReaderWith(bytes.NewReader(sink.Bytes()), ReaderOptions{Resync: true})
	gotFrames, err := r.ReadAll()
	if err != nil {
		t.Fatalf("salvage of flushed prefix: %v", err)
	}
	if len(gotFrames) != 2 {
		t.Errorf("salvaged %d frames from flushed prefix, want 2", len(gotFrames))
	}
	if !r.SalvageStats().Truncated {
		t.Error("flushed prefix not reported as truncated")
	}
}

// TestV2OverheadBudget checks the format-cost promise: with
// CheckpointInterval=0 (no checkpoint frames) the v2 container costs at
// most 64 bytes per stream beyond what the v1 framing would have cost for
// the same blocks.
func TestV2OverheadBudget(t *testing.T) {
	frames := makeFrames(8, 100, 29)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{ErrorBound: 1e-3, BufferSize: 4}) // 2 data blocks
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	metas := parseV2Frames(t, buf.Bytes())
	v1Cost := 4 // magic
	for _, m := range metas {
		if m.typ == frameCheckpoint {
			t.Fatal("checkpoint frame emitted with CheckpointInterval=0")
		}
		if m.typ == frameData {
			v1Cost += 4 + m.plen
		}
	}
	if over := buf.Len() - v1Cost; over > 64 {
		t.Errorf("v2 overhead beyond v1 framing = %d bytes, budget 64", over)
	}
}

// TestCheckpointFramesEmitted checks the CheckpointInterval contract: one
// checkpoint frame per interval data blocks, none at interval 0.
func TestCheckpointFramesEmitted(t *testing.T) {
	frames := makeFrames(14, 60, 23)
	for _, tc := range []struct {
		interval, want int
	}{{0, 0}, {1, 7}, {3, 2}} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Config{ErrorBound: 1e-3, BufferSize: 2, CheckpointInterval: tc.interval})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if err := w.WriteFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got := len(checkpointFrames(parseV2Frames(t, buf.Bytes())))
		if got != tc.want {
			t.Errorf("interval %d: %d checkpoint frames, want %d", tc.interval, got, tc.want)
		}
		// Checkpoints must never change what a clean read returns.
		out, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
		if err != nil || len(out) != len(frames) {
			t.Errorf("interval %d: clean read got %d frames, err=%v", tc.interval, len(out), err)
		}
	}
}

// writeStream runs frames through a Writer and returns the stream image.
func writeStream(t *testing.T, cfg Config, frames []Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func requireFramesIdentical(t testing.TB, want, got []Frame, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d frames, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !framesExactEqual(want[i], got[i]) {
			t.Fatalf("%s: frame %d not bit-identical", label, i)
		}
	}
}

// TestStreamFormatMatrix builds the same trajectory as a v1 and a v2
// container and checks that the auto-detecting Reader decodes both to
// bit-identical values and that each stream leads with its own magic.
func TestStreamFormatMatrix(t *testing.T) {
	const bs = 4
	frames := makeFrames(16, 100, 91)
	cfg := Config{ErrorBound: 1e-3, Method: MT, BufferSize: bs, CheckpointInterval: 2}

	// v1: legacy length-prefixed container around v2-format blocks.
	c, err := NewCompressor(Config{ErrorBound: 1e-3, Method: MT, BufferSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	var blks [][]byte
	for lo := 0; lo < len(frames); lo += bs {
		blk, err := c.CompressBatch(frames[lo : lo+bs])
		if err != nil {
			t.Fatal(err)
		}
		blks = append(blks, append([]byte(nil), blk...))
	}
	v1 := buildV1Stream(blks...)
	v2 := writeStream(t, cfg, frames)

	for _, c := range []struct {
		name, magic string
		stream      []byte
	}{
		{"v1", streamMagic, v1},
		{"v2", streamMagicV2, v2},
	} {
		if got := string(c.stream[:4]); got != c.magic {
			t.Fatalf("%s stream magic = %q, want %q", c.name, got, c.magic)
		}
	}

	decode := func(stream []byte) []Frame {
		got, err := NewReader(bytes.NewReader(stream)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	requireFramesIdentical(t, decode(v1), decode(v2), "v1 vs v2")
}

// TestV3ArtifactsRefused pins how this build treats bytes written by
// builds that still had format v3: a stream with the "MDZ3" magic, a block
// with version byte 3 and a checkpoint payload of version 2 are each
// refused with an error matching ErrCorruptBlock, on every read path.
func TestV3ArtifactsRefused(t *testing.T) {
	frames := makeFrames(12, 40, 3)
	v3 := writeStream(t, Config{ErrorBound: 1e-3, BufferSize: 4, CheckpointInterval: 1, SeekIndex: true}, frames)
	copy(v3, "MDZ3")

	c, err := NewCompressor(Config{ErrorBound: 1e-3, BufferSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := c.CompressBatch(frames[:4])
	if err != nil {
		t.Fatal(err)
	}
	blk = append([]byte(nil), blk...)
	blk[4] = 3
	st, err := c.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cp[0] = 2

	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Reader", func() error {
			_, err := NewReader(bytes.NewReader(v3)).ReadAll()
			return err
		}},
		{"ReaderResync", func() error {
			_, err := NewReaderWith(bytes.NewReader(v3), ReaderOptions{Resync: true}).ReadAll()
			return err
		}},
		{"Reader.Seek", func() error {
			return NewReader(bytes.NewReader(v3)).Seek(5)
		}},
		{"RetrofitSeekIndex", func() error {
			_, err := RetrofitSeekIndex(bytes.NewReader(v3), io.Discard)
			return err
		}},
		{"DecompressBatch", func() error {
			_, err := NewDecompressor().DecompressBatch(blk)
			return err
		}},
		{"CheckpointState.UnmarshalBinary", func() error {
			return new(CheckpointState).UnmarshalBinary(cp)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); !errors.Is(err, ErrCorruptBlock) {
				t.Fatalf("err = %v, want ErrCorruptBlock", err)
			}
		})
	}
}
