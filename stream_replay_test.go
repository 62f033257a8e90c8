package mdz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

// frameExtents walks a v2 container and returns the [start, end) byte
// range of every frame, in order.
func frameExtents(t *testing.T, stream []byte) [][2]int {
	t.Helper()
	off := 4 // stream magic
	var ext [][2]int
	for off < len(stream) {
		if off+frameHeaderSize > len(stream) {
			t.Fatalf("frame header runs past the stream at offset %d", off)
		}
		if !bytes.Equal(stream[off:off+4], frameSync[:]) {
			t.Fatalf("no sync marker at offset %d", off)
		}
		n := binary.LittleEndian.Uint32(stream[off+9 : off+13])
		total := frameHeaderSize + int(n) + frameCRCSize
		if off+total > len(stream) {
			t.Fatalf("frame at offset %d claims %d bytes past the stream", off, total)
		}
		ext = append(ext, [2]int{off, off + total})
		off += total
	}
	return ext
}

// spliceReplay duplicates the frame at index idx immediately after itself,
// simulating a storage layer that replayed writer output.
func spliceReplay(t *testing.T, stream []byte, idx int) ([]byte, int) {
	t.Helper()
	ext := frameExtents(t, stream)
	if idx >= len(ext) {
		t.Fatalf("stream has only %d frames, want to replay %d", len(ext), idx)
	}
	start, end := ext[idx][0], ext[idx][1]
	out := make([]byte, 0, len(stream)+(end-start))
	out = append(out, stream[:end]...)
	out = append(out, stream[start:end]...)
	out = append(out, stream[end:]...)
	return out, end - start
}

// TestReplayedFrameSalvageAccounting is the regression test for the
// silent replayed-frame drop: a Resync reader used to discard a stale
// frame without recording it anywhere, so SalvageStats claimed byte-exact
// recovery while wire bytes vanished. The skip must now surface as a
// corrupt-frame event with its byte count in SkippedBytes.
func TestReplayedFrameSalvageAccounting(t *testing.T) {
	frames := makeFrames(12, 120, 3)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{ErrorBound: 1e-3, BufferSize: 3, CheckpointInterval: 2})
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
	clean := buf.Bytes()

	want, err := NewReader(bytes.NewReader(clean)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	spliced, dupSize := spliceReplay(t, clean, 1)

	// Strict mode: a replayed sequence is typed corruption.
	if _, err := NewReader(bytes.NewReader(spliced)).ReadAll(); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("strict read of replayed frame: err = %v, want ErrCorruptBlock", err)
	}

	// Resync mode: every original snapshot is still delivered…
	r := NewReaderWith(bytes.NewReader(spliced), ReaderOptions{Resync: true, Telemetry: true})
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("salvaged %d snapshots, want %d", len(got), len(want))
	}
	for ti := range want {
		for i := range want[ti].X {
			if math.Float64bits(want[ti].X[i]) != math.Float64bits(got[ti].X[i]) ||
				math.Float64bits(want[ti].Y[i]) != math.Float64bits(got[ti].Y[i]) ||
				math.Float64bits(want[ti].Z[i]) != math.Float64bits(got[ti].Z[i]) {
				t.Fatalf("salvaged snapshot %d diverged at particle %d", ti, i)
			}
		}
	}

	// …and the replay is accounted: one corrupt frame, exactly the
	// duplicated wire bytes skipped, nothing reported lost.
	st := r.SalvageStats()
	if st.CorruptFrames != 1 {
		t.Errorf("CorruptFrames = %d, want 1", st.CorruptFrames)
	}
	if st.SkippedBytes != int64(dupSize) {
		t.Errorf("SkippedBytes = %d, want the %d-byte replayed frame", st.SkippedBytes, dupSize)
	}
	if st.DroppedFrames != 0 || len(st.LostRanges) != 0 {
		t.Errorf("replay reported data loss: dropped=%d ranges=%v", st.DroppedFrames, st.LostRanges)
	}
	if st.FirstError == nil {
		t.Fatal("FirstError not recorded for the replayed frame")
	}
	if !errors.Is(st.FirstError, ErrCorruptBlock) || !strings.Contains(st.FirstError.Error(), "replayed") {
		t.Errorf("FirstError = %v, want a replayed-sequence ErrCorruptBlock", st.FirstError)
	}

	// The live telemetry mirrors agree with the stats struct.
	snap := r.Telemetry()
	if snap.Counters["stream.corrupt_frames"] != 1 {
		t.Errorf("stream.corrupt_frames = %d, want 1", snap.Counters["stream.corrupt_frames"])
	}
	if snap.Counters["stream.skipped.bytes"] != int64(dupSize) {
		t.Errorf("stream.skipped.bytes = %d, want %d", snap.Counters["stream.skipped.bytes"], dupSize)
	}
}

// TestReplayedCheckpointFrameAccounting exercises the same path with a
// duplicated checkpoint frame: also intact, also stale, also accounted.
func TestReplayedCheckpointFrameAccounting(t *testing.T) {
	frames := makeFrames(9, 80, 5)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{ErrorBound: 1e-3, BufferSize: 3, CheckpointInterval: 1})
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
	// Frame layout: data(0) ckpt(1) data(2) ckpt(3)… — replay the first
	// checkpoint (index 1).
	spliced, dupSize := spliceReplay(t, buf.Bytes(), 1)
	r := NewReaderWith(bytes.NewReader(spliced), ReaderOptions{Resync: true})
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("salvaged %d snapshots, want 9", len(got))
	}
	st := r.SalvageStats()
	if st.CorruptFrames != 1 || st.SkippedBytes != int64(dupSize) {
		t.Errorf("replayed checkpoint accounting: corrupt=%d skipped=%d, want 1/%d",
			st.CorruptFrames, st.SkippedBytes, dupSize)
	}
}
