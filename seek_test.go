package mdz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/mdz/mdz/internal/faultio"
)

// writeSeekStream compresses frames into a framed stream with the given
// config, failing the test on any error.
func writeSeekStream(t *testing.T, frames []Frame, cfg Config) []byte {
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

// readAllSerial decodes a whole stream with a plain serial Reader.
func readAllSerial(t *testing.T, data []byte) []Frame {
	t.Helper()
	got, err := NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// frameSlicesEqual compares decoded frame slices for bit-exact equality
// (decode is deterministic, so any byte-level divergence shows up here).
func frameSlicesEqual(a, b []Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !framesExactEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// strictIndex runs a strict index walk over a stream.
func strictIndex(t *testing.T, data []byte) frameIndex {
	t.Helper()
	ix, err := walkIndex(bytes.NewReader(data), true)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestSeekIndexedStream(t *testing.T) {
	frames := makeFrames(57, 200, 91)
	cfg := Config{ErrorBound: 1e-3, BufferSize: 5, CheckpointInterval: 2, SeekIndex: true}
	data := writeSeekStream(t, frames, cfg)
	want := readAllSerial(t, data)
	if len(want) != len(frames) {
		t.Fatalf("serial decode: %d frames, want %d", len(want), len(frames))
	}

	// The index frame must be loadable from the tail without a scan.
	r := NewReader(bytes.NewReader(data))
	if idx, ok := r.loadIndexTail(); !ok {
		t.Fatal("loadIndexTail failed on an indexed stream")
	} else if got := seekIndexSnapshots(idx); got != int64(len(frames)) {
		t.Fatalf("index covers %d snapshots, want %d", got, len(frames))
	}

	// Seek to every snapshot and check the next frame matches the serial
	// decode bit-exactly (including mid-block targets).
	for _, target := range []int{0, 1, 4, 5, 7, 23, 29, 30, 49, 56} {
		r := NewReader(bytes.NewReader(data))
		if err := r.Seek(target); err != nil {
			t.Fatalf("Seek(%d): %v", target, err)
		}
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame after Seek(%d): %v", target, err)
		}
		if !reflect.DeepEqual(f, want[target]) {
			t.Fatalf("Seek(%d): frame differs from serial decode", target)
		}
	}

	// Seeking past the end reports io.EOF; negative targets are rejected.
	r = NewReader(bytes.NewReader(data))
	if err := r.Seek(len(frames)); !errors.Is(err, io.EOF) {
		t.Fatalf("Seek past end: %v, want io.EOF", err)
	}
	if err := r.Seek(-1); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("Seek(-1): %v, want a validation error", err)
	}
	// A Reader that hit io.EOF can still Seek back.
	if err := r.Seek(3); err != nil {
		t.Fatalf("Seek after EOF: %v", err)
	}
	if f, err := r.ReadFrame(); err != nil || !reflect.DeepEqual(f, want[3]) {
		t.Fatalf("re-Seek read: %v", err)
	}
}

func TestReadRangeWindows(t *testing.T) {
	frames := makeFrames(64, 150, 17)
	for _, cfg := range []Config{
		{ErrorBound: 1e-3, BufferSize: 4, CheckpointInterval: 3, SeekIndex: true},
		{ErrorBound: 1e-3, BufferSize: 4, CheckpointInterval: 3}, // scan fallback
		{ErrorBound: 1e-3, BufferSize: 4, SeekIndex: true},       // no checkpoints
	} {
		data := writeSeekStream(t, frames, cfg)
		want := readAllSerial(t, data)
		for _, rng := range [][2]int{{0, 64}, {10, 20}, {13, 14}, {62, 64}, {30, 100}, {5, 5}} {
			r := NewReader(bytes.NewReader(data))
			got, err := r.ReadRange(rng[0], rng[1])
			if err != nil {
				t.Fatalf("cfg %+v ReadRange(%d,%d): %v", cfg, rng[0], rng[1], err)
			}
			lo, hi := rng[0], rng[1]
			if hi > len(want) {
				hi = len(want)
			}
			if !frameSlicesEqual(got, want[lo:hi]) {
				t.Fatalf("cfg %+v ReadRange(%d,%d): frames differ from serial slice", cfg, rng[0], rng[1])
			}
		}
		// Whole-stream reads through a seeking reader still validate the
		// trailer bounds.
		r := NewReader(bytes.NewReader(data))
		if _, err := r.ReadRange(0, len(frames)); err != nil {
			t.Fatalf("full-range read: %v", err)
		}
		if _, err := r.ReadFrame(); !errors.Is(err, io.EOF) {
			t.Fatalf("post-range read: %v", err)
		}
	}
}

// TestSeekReplayedFrame: on an unindexed stream whose data frame 1 is
// replayed, a Resync Reader's Seek drops the replay when it rebuilds the
// index, as its sequential read does. Indexing the replay would shift
// every later target back by one block.
func TestSeekReplayedFrame(t *testing.T) {
	frames := makeFrames(30, 100, 41)
	for _, interval := range []int{0, 2} {
		clean := writeSeekStream(t, frames, Config{ErrorBound: 1e-3, BufferSize: 3, CheckpointInterval: interval})
		want := readAllSerial(t, clean)
		replayed, _ := spliceReplay(t, clean, 1)
		resync := ReaderOptions{Resync: true}
		for target := range want {
			r := NewReaderWith(bytes.NewReader(replayed), resync)
			if err := r.Seek(target); err != nil {
				t.Fatalf("interval %d: Seek(%d): %v", interval, target, err)
			}
			got, err := r.ReadFrame()
			if err != nil {
				t.Fatalf("interval %d: ReadFrame after Seek(%d): %v", interval, target, err)
			}
			if !framesExactEqual(got, want[target]) {
				t.Fatalf("interval %d: Seek(%d) delivered the wrong snapshot", interval, target)
			}
		}
		got, err := NewReaderWith(bytes.NewReader(replayed), resync).ReadRange(9, 12)
		if err != nil || !frameSlicesEqual(got, want[9:12]) {
			t.Fatalf("interval %d: ReadRange(9, 12): %d frames, err %v", interval, len(got), err)
		}
	}
}

func TestReadRangeValidation(t *testing.T) {
	data := writeSeekStream(t, makeFrames(8, 50, 3), Config{ErrorBound: 1e-3, BufferSize: 4, SeekIndex: true})
	r := NewReader(bytes.NewReader(data))
	if _, err := r.ReadRange(-1, 2); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := r.ReadRange(3, 2); err == nil {
		t.Error("hi < lo accepted")
	}
	if got, err := r.ReadRange(100, 200); !errors.Is(err, io.EOF) || len(got) != 0 {
		t.Errorf("past-end range: %d frames, err %v", len(got), err)
	}

	// Non-seekable sources cannot Seek.
	nr := NewReader(io.MultiReader(bytes.NewReader(data)))
	if err := nr.Seek(0); !errors.Is(err, ErrNotSeekable) {
		t.Errorf("Seek on non-seeker: %v", err)
	}

	// v1 streams carry no frame index.
	v1 := buildV1Stream(mustBlock(t, makeFrames(4, 40, 9)))
	vr := NewReader(bytes.NewReader(v1))
	if err := vr.Seek(0); !errors.Is(err, ErrNotSeekable) {
		t.Errorf("Seek on v1 stream: %v", err)
	}
}

// mustBlock compresses one batch into a raw block for v1 container tests.
func mustBlock(t *testing.T, frames []Frame) []byte {
	t.Helper()
	c, err := NewCompressor(Config{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := c.CompressBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// TestSeekIndexWireEquivalence pins the two invariants of the index frame:
// an indexed stream's data/checkpoint prefix is byte-identical to the
// unindexed stream's, and RetrofitSeekIndex over the unindexed stream
// reproduces the Writer's indexed bytes exactly.
func TestSeekIndexWireEquivalence(t *testing.T) {
	frames := makeFrames(31, 120, 55)
	base := Config{ErrorBound: 1e-3, BufferSize: 5, CheckpointInterval: 2}
	plain := writeSeekStream(t, frames, base)
	indexed := base
	indexed.SeekIndex = true
	withIdx := writeSeekStream(t, frames, indexed)

	ix := strictIndex(t, plain)
	if !ix.hasTrailer {
		t.Fatal("no trailer in plain stream")
	}
	if !bytes.Equal(plain[:ix.trailerOff], withIdx[:ix.trailerOff]) {
		t.Fatal("indexed stream's frame prefix differs from the unindexed stream")
	}

	var retro bytes.Buffer
	n, err := RetrofitSeekIndex(bytes.NewReader(plain), &retro)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("retrofit indexed no frames")
	}
	if !bytes.Equal(retro.Bytes(), withIdx) {
		t.Fatal("RetrofitSeekIndex output differs from a natively indexed stream")
	}

	// Retrofitting an already-indexed stream is rejected.
	if _, err := RetrofitSeekIndex(bytes.NewReader(withIdx), io.Discard); err == nil ||
		!strings.Contains(err.Error(), "already carries") {
		t.Fatalf("double retrofit: %v", err)
	}
	// Truncated streams are rejected (salvage first, then index).
	if _, err := RetrofitSeekIndex(bytes.NewReader(plain[:len(plain)-30]), io.Discard); err == nil {
		t.Fatal("retrofit accepted a truncated stream")
	}

	// The retrofit stream reads back identically, strictly.
	if !frameSlicesEqual(readAllSerial(t, retro.Bytes()), readAllSerial(t, plain)) {
		t.Fatal("retrofit stream decodes differently")
	}
}

// TestSeekIndexSalvageCompat: an indexed stream passes through the salvage
// reader untouched — the extra frame costs nothing and corrupting it does
// not cost any data frames.
func TestSeekIndexSalvageCompat(t *testing.T) {
	frames := makeFrames(24, 100, 77)
	data := writeSeekStream(t, frames, Config{ErrorBound: 1e-3, BufferSize: 4, CheckpointInterval: 2, SeekIndex: true})

	r := NewReaderWith(bytes.NewReader(data), ReaderOptions{Resync: true})
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("salvage read of clean indexed stream: %d frames, want %d", len(got), len(frames))
	}
	if st := r.SalvageStats(); st.CorruptFrames != 0 || st.DroppedFrames != 0 {
		t.Fatalf("clean indexed stream reported damage: %+v", st)
	}

	// Corrupt the seek-table payload: strict readers fail, salvage readers
	// lose zero data frames, and Seek falls back to the scan rebuild.
	ix := strictIndex(t, data)
	if !ix.hasTrailer {
		t.Fatal("no trailer")
	}
	// The seek frame sits directly before the trailer; find it backwards.
	idxOff := int64(bytes.LastIndex(data[:ix.trailerOff], frameSync[:]))
	if idxOff < 0 || data[idxOff+4] != frameSeekIndex {
		t.Fatalf("seek frame not found before trailer (off %d type %d)", idxOff, data[idxOff+4])
	}
	bad := faultio.Corrupt(data, faultio.Fault{Kind: faultio.FlipBit, Offset: idxOff + frameHeaderSize + 3, Bit: 4})

	if _, err := NewReader(bytes.NewReader(bad)).ReadAll(); err == nil {
		t.Fatal("strict reader accepted a corrupt seek frame")
	}
	sr := NewReaderWith(bytes.NewReader(bad), ReaderOptions{Resync: true})
	got, err = sr.ReadAll()
	if err != nil || len(got) != len(frames) {
		t.Fatalf("salvage read with corrupt seek frame: %d frames, err %v", len(got), err)
	}
	if st := sr.SalvageStats(); st.DroppedFrames != 0 {
		t.Fatalf("corrupt seek frame cost data frames: %+v", st)
	}

	want := readAllSerial(t, data)
	rr := NewReaderWith(bytes.NewReader(bad), ReaderOptions{Resync: true})
	ranged, err := rr.ReadRange(10, 14)
	if err != nil || !frameSlicesEqual(ranged, want[10:14]) {
		t.Fatalf("ReadRange over corrupt-index stream: err %v", err)
	}
}

// TestSeekUnderCorruptCheckpoint is the satellite-4 gate: when the nearest
// checkpoint before the target is corrupt, a strict Seek surfaces the
// corruption while a Resync Seek falls back to the previous checkpoint (or
// the stream head) with the damage accounted in SalvageStats — and still
// delivers bit-exact frames.
func TestSeekUnderCorruptCheckpoint(t *testing.T) {
	frames := makeFrames(60, 150, 23)
	data := writeSeekStream(t, frames, Config{ErrorBound: 1e-3, BufferSize: 5, CheckpointInterval: 2, SeekIndex: true})
	want := readAllSerial(t, data)
	entries := strictIndex(t, data).entries

	// Locate the last checkpoint entry before the target snapshot.
	const target = 54
	var cps []SeekEntry
	for _, e := range entries {
		if e.Type == frameCheckpoint && e.SnapFrom <= target {
			cps = append(cps, e)
		}
	}
	if len(cps) < 2 {
		t.Fatalf("test needs >= 2 checkpoints before the target, have %d", len(cps))
	}
	last := cps[len(cps)-1]
	bad := faultio.Corrupt(data, faultio.Fault{Kind: faultio.FlipBit, Offset: last.Offset + frameHeaderSize + 5, Bit: 2})

	// Strict: the corruption surfaces as an error.
	r := NewReader(bytes.NewReader(bad))
	if err := r.Seek(target); err == nil || !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("strict Seek over corrupt checkpoint: %v, want ErrCorruptBlock", err)
	}

	// Resync: fall back to the previous checkpoint, account the damage,
	// deliver exact frames.
	sr := NewReaderWith(bytes.NewReader(bad), ReaderOptions{Resync: true})
	if err := sr.Seek(target); err != nil {
		t.Fatalf("resync Seek over corrupt checkpoint: %v", err)
	}
	st := sr.SalvageStats()
	if st.CorruptFrames == 0 {
		t.Fatalf("fallback did not account the corrupt checkpoint: %+v", st)
	}
	if st.FirstError == nil || st.FirstError.Offset != last.Offset {
		t.Fatalf("FirstError does not point at the corrupt checkpoint: %+v", st.FirstError)
	}
	f, err := sr.ReadFrame()
	if err != nil || !reflect.DeepEqual(f, want[target]) {
		t.Fatalf("post-fallback frame: err %v", err)
	}

	// Corrupt every checkpoint: the final fallback decodes block 0.
	allBad := data
	for _, e := range cps {
		allBad = faultio.Corrupt(allBad, faultio.Fault{Kind: faultio.FlipBit, Offset: e.Offset + frameHeaderSize + 5, Bit: 2})
	}
	ar := NewReaderWith(bytes.NewReader(allBad), ReaderOptions{Resync: true})
	if err := ar.Seek(target); err != nil {
		t.Fatalf("resync Seek with all checkpoints corrupt: %v", err)
	}
	if st := ar.SalvageStats(); st.CorruptFrames != len(cps) {
		t.Fatalf("accounted %d corrupt frames, want %d", st.CorruptFrames, len(cps))
	}
	f, err = ar.ReadFrame()
	if err != nil || !reflect.DeepEqual(f, want[target]) {
		t.Fatalf("block-0 fallback frame: err %v", err)
	}
}

// TestPipelinedReaderDifferential: the deprecated ReaderOptions.Pipeline
// has no effect. For every depth × worker count the Reader delivers frames
// bit-identical to a default Reader, on full reads and ranged reads.
func TestPipelinedReaderDifferential(t *testing.T) {
	frames := makeFrames(48, 180, 67)
	for _, cfg := range []Config{
		{ErrorBound: 1e-3, BufferSize: 4, CheckpointInterval: 3, SeekIndex: true},
		{ErrorBound: 1e-3, BufferSize: 4},
	} {
		data := writeSeekStream(t, frames, cfg)
		want := readAllSerial(t, data)
		for _, depth := range []int{1, 2, 8} {
			for _, workers := range []int{1, 2, 4} {
				opts := ReaderOptions{Pipeline: depth, Workers: workers}
				r := NewReaderWith(bytes.NewReader(data), opts)
				got, err := r.ReadAll()
				if err != nil {
					t.Fatalf("depth %d workers %d: %v", depth, workers, err)
				}
				if !frameSlicesEqual(got, want) {
					t.Fatalf("depth %d workers %d: frames differ from default decode", depth, workers)
				}
				if _, err := r.ReadFrame(); !errors.Is(err, io.EOF) {
					t.Fatalf("depth %d workers %d post-drain: %v", depth, workers, err)
				}

				rr := NewReaderWith(bytes.NewReader(data), opts)
				ranged, err := rr.ReadRange(9, 31)
				if err != nil || !frameSlicesEqual(ranged, want[9:31]) {
					t.Fatalf("depth %d workers %d ranged: err %v", depth, workers, err)
				}
				rr.Close()
			}
		}
	}
}

// TestPipelinedReaderErrorParity: with the deprecated ReaderOptions.Pipeline
// set, a strict reader surfaces corruption after exactly the frames, and at
// the location, of a default strict reader.
func TestPipelinedReaderErrorParity(t *testing.T) {
	frames := makeFrames(40, 120, 31)
	data := writeSeekStream(t, frames, Config{ErrorBound: 1e-3, BufferSize: 4})
	entries := strictIndex(t, data).entries
	var datas []SeekEntry
	for _, e := range entries {
		if e.Type == frameData {
			datas = append(datas, e)
		}
	}
	victim := datas[len(datas)/2]
	bad := faultio.Corrupt(data, faultio.Fault{Kind: faultio.FlipBit, Offset: victim.Offset + frameHeaderSize + 9, Bit: 3})

	serial := NewReader(bytes.NewReader(bad))
	var serialFrames []Frame
	var serialErr error
	for {
		f, err := serial.ReadFrame()
		if err != nil {
			serialErr = err
			break
		}
		serialFrames = append(serialFrames, f)
	}
	if serialErr == nil || errors.Is(serialErr, io.EOF) {
		t.Fatalf("serial reader did not fail: %v", serialErr)
	}

	for _, workers := range []int{1, 4} {
		piped := NewReaderWith(bytes.NewReader(bad), ReaderOptions{Pipeline: 4, Workers: workers})
		var pipedFrames []Frame
		var pipedErr error
		for {
			f, err := piped.ReadFrame()
			if err != nil {
				pipedErr = err
				break
			}
			pipedFrames = append(pipedFrames, f)
		}
		piped.Close()
		if !frameSlicesEqual(pipedFrames, serialFrames) {
			t.Fatalf("workers %d: Pipeline reader delivered %d frames before failing, default %d",
				workers, len(pipedFrames), len(serialFrames))
		}
		var want, got *CorruptBlockError
		if !errors.As(serialErr, &want) || !errors.As(pipedErr, &got) {
			t.Fatalf("workers %d: error types diverge: serial %v, piped %v", workers, serialErr, pipedErr)
		}
		if got.Block != want.Block || got.Offset != want.Offset {
			t.Fatalf("workers %d: error location diverges: serial %v, piped %v", workers, want, got)
		}
	}
}

// TestPipelinedReaderTruncation: truncation surfaces as ErrTruncated with
// the deprecated ReaderOptions.Pipeline set too.
func TestPipelinedReaderTruncation(t *testing.T) {
	frames := makeFrames(20, 100, 13)
	data := writeSeekStream(t, frames, Config{ErrorBound: 1e-3, BufferSize: 4})
	r := NewReaderWith(bytes.NewReader(data[:len(data)-20]), ReaderOptions{Pipeline: 4})
	defer r.Close()
	_, err := r.ReadAll()
	if err == nil || !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated read with Pipeline set: %v, want ErrTruncated", err)
	}
}

// TestSeekAvoidsPrefixDecode proves the point of the feature: seeking into
// the tail of a long stream decodes only the covered frames, not the
// prefix. Decode work is measured by the decompress.axis_batches counter
// (three per data block); the seek path must decode at least an order of
// magnitude fewer blocks than the serial prefix decode would.
func TestSeekAvoidsPrefixDecode(t *testing.T) {
	frames := makeFrames(400, 60, 7)
	data := writeSeekStream(t, frames, Config{ErrorBound: 1e-3, BufferSize: 2, CheckpointInterval: 50, SeekIndex: true})

	sr := NewReaderWith(bytes.NewReader(data), ReaderOptions{Telemetry: true})
	want, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	serialBatches := sr.Telemetry().Counters["decompress.axis_batches"]
	if serialBatches == 0 {
		t.Fatal("serial decode recorded no axis batches")
	}

	r := NewReaderWith(bytes.NewReader(data), ReaderOptions{Telemetry: true})
	got, err := r.ReadRange(390, 394)
	if err != nil || !frameSlicesEqual(got, want[390:394]) {
		t.Fatalf("tail range: err %v", err)
	}
	seekBatches := r.Telemetry().Counters["decompress.axis_batches"]
	// The window covers 3 two-snapshot blocks plus at most a checkpoint
	// reseed; the serial prefix is 200 blocks. Require the 10x headroom the
	// feature promises.
	if seekBatches == 0 || seekBatches > serialBatches/10 {
		t.Fatalf("tail seek decoded %d axis batches vs %d serial: prefix was not skipped", seekBatches, serialBatches)
	}
}

// TestResumeWriterSeekIndex: resuming an indexing Writer carries the table;
// resuming with a SeekIndex setting that differs from the export's is
// rejected either way.
func TestResumeWriterSeekIndex(t *testing.T) {
	frames := makeFrames(30, 80, 41)
	cfg := Config{ErrorBound: 1e-3, BufferSize: 5, CheckpointInterval: 2, SeekIndex: true}

	var whole bytes.Buffer
	w, err := NewWriter(&whole, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames[:17] {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	st, err := w.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the state through its wire format to cover the index flag.
	wire, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	st2 := &WriterState{}
	if err := st2.UnmarshalBinary(wire); err != nil {
		t.Fatal(err)
	}
	if !st2.SeekIndex || len(st2.Index) != len(st.Index) {
		t.Fatalf("index lost in state round-trip: on=%v entries=%d", st2.SeekIndex, len(st2.Index))
	}

	w2, err := ResumeWriter(&whole, cfg, st2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames[17:] {
		if err := w2.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// The resumed stream's index must cover the whole stream.
	want := writeSeekStream(t, frames, cfg)
	if !bytes.Equal(whole.Bytes(), want) {
		t.Fatal("resumed indexed stream differs from a single-writer stream")
	}

	// Enabling SeekIndex on resume from a non-indexing export is rejected.
	plainCfg := cfg
	plainCfg.SeekIndex = false
	var pb bytes.Buffer
	pw, err := NewWriter(&pb, plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames[:6] {
		if err := pw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	pst, err := pw.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeWriter(&pb, cfg, pst); !errors.Is(err, ErrStateDesync) {
		t.Fatalf("resume with late SeekIndex: %v, want ErrStateDesync", err)
	}
	// So is dropping it: the resumed stream would lose its table.
	if _, err := ResumeWriter(&whole, plainCfg, st2); !errors.Is(err, ErrStateDesync) {
		t.Fatalf("resume without SeekIndex from an indexing export: %v, want ErrStateDesync", err)
	}
}

// TestSeekErrorBound: frames delivered through Seek honor the error bound
// against the original input (not just bit-parity with serial decode).
func TestSeekErrorBound(t *testing.T) {
	frames := makeFrames(30, 90, 3)
	data := writeSeekStream(t, frames, Config{ErrorBound: 1e-2, Mode: Absolute, BufferSize: 5, CheckpointInterval: 2, SeekIndex: true})
	r := NewReader(bytes.NewReader(data))
	got, err := r.ReadRange(12, 18)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range got {
		orig := frames[12+i]
		for j := range f.X {
			if d := math.Abs(f.X[j] - orig.X[j]); d > 1e-2 {
				t.Fatalf("frame %d particle %d: error %v exceeds bound", 12+i, j, d)
			}
		}
	}
}

// TestSeekIndexParseHardening: hostile seek-table payloads are rejected
// rather than trusted.
func TestSeekIndexParseHardening(t *testing.T) {
	good := appendSeekIndex(nil, []SeekEntry{
		{Offset: 4, Seq: 0, Type: frameData, SnapFrom: 0, SnapCount: 5},
		{Offset: 900, Seq: 1, Type: frameCheckpoint, SnapFrom: 5},
		{Offset: 1400, Seq: 2, Type: frameData, SnapFrom: 5, SnapCount: 5},
	})
	if entries, err := parseSeekIndex(good); err != nil || len(entries) != 3 {
		t.Fatalf("good table rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"bad version":    {9, 1},
		"huge count":     append([]byte{seekIndexVersion}, 0xFF, 0xFF, 0xFF, 0x7F),
		"trailing bytes": append(append([]byte{}, good...), 0),
		"trailer type":   appendSeekIndex(nil, []SeekEntry{{Offset: 4, Type: frameTrailer, SnapCount: 1}}),
		"zero-snap data": appendSeekIndex(nil, []SeekEntry{{Offset: 4, Type: frameData, SnapCount: 0}}),
		"cp with snaps":  appendSeekIndex(nil, []SeekEntry{{Offset: 4, Type: frameCheckpoint, SnapCount: 2}}),
		"non-monotonic": appendSeekIndex(nil, []SeekEntry{
			{Offset: 4, Seq: 0, Type: frameData, SnapCount: 1},
			{Offset: 4, Seq: 1, Type: frameData, SnapCount: 1},
		}),
	}
	for name, payload := range cases {
		if _, err := parseSeekIndex(payload); err == nil {
			t.Errorf("%s: hostile seek table accepted", name)
		}
	}
	if got := fmt.Sprint(seekIndexSnapshots(nil)); got != "0" {
		t.Errorf("empty index snapshots = %s", got)
	}
}

// seekIndexSnapshots reports the total snapshot coverage of an index.
func seekIndexSnapshots(entries []SeekEntry) int64 {
	if len(entries) == 0 {
		return 0
	}
	last := entries[len(entries)-1]
	return last.SnapFrom + int64(last.SnapCount)
}

// allocDuring returns the bytes allocated while f runs.
func allocDuring(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	f()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// TestReadAllForgedSeekTotal: a seek table with valid CRCs that claims
// 2^24 snapshots for a 4-snapshot stream must not size any allocation.
// ReadAll returns the 4 real frames without allocating for the claim.
func TestReadAllForgedSeekTotal(t *testing.T) {
	frames := makeFrames(4, 30, 5)
	data := writeSeekStream(t, frames, Config{ErrorBound: 1e-3, BufferSize: 4, SeekIndex: true})
	want := readAllSerial(t, data)
	ix := strictIndex(t, data)
	if !ix.hasTrailer {
		t.Fatal("no trailer")
	}
	idxOff := int64(bytes.LastIndex(data[:ix.trailerOff], frameSync[:]))
	if idxOff < 0 || data[idxOff+4] != frameSeekIndex {
		t.Fatalf("seek frame not found before trailer (off %d)", idxOff)
	}
	entries, err := parseSeekIndex(data[idxOff+frameHeaderSize : ix.trailerOff-frameCRCSize])
	if err != nil {
		t.Fatal(err)
	}
	last := &entries[len(entries)-1]
	last.SnapCount = 1 << 24
	claimed := last.SnapFrom + 1<<24
	seq := binary.LittleEndian.Uint32(data[idxOff+5:])
	forged := appendWireFrame(append([]byte(nil), data[:idxOff]...), frameSeekIndex, seq, appendSeekIndex(nil, entries))
	forged = append(forged, data[ix.trailerOff:]...)
	if idx, ok := NewReader(bytes.NewReader(forged)).loadIndexTail(); !ok || seekIndexSnapshots(idx) != claimed {
		t.Fatalf("forged seek table not loadable (ok %v)", ok)
	}

	var got []Frame
	alloc := allocDuring(func() {
		r := NewReaderWith(bytes.NewReader(forged), ReaderOptions{MaxDecodeBytes: 1 << 20})
		got, err = r.ReadAll()
	})
	if err != nil || !frameSlicesEqual(got, want) {
		t.Fatalf("ReadAll over a forged seek total: %d frames, err %v", len(got), err)
	}
	if alloc >= 16<<20 {
		t.Errorf("ReadAll allocated %d bytes for a 4-snapshot stream", alloc)
	}
}

// TestScanForgedLengthNoAlloc: a data frame whose header claims 2^28
// payload bytes under a valid header CRC fails the index scan, behind a
// strict Seek of an unindexed stream and behind RetrofitSeekIndex, as a
// truncation, without allocating for the claim.
func TestScanForgedLengthNoAlloc(t *testing.T) {
	data := writeSeekStream(t, makeFrames(8, 30, 5), Config{ErrorBound: 1e-3, BufferSize: 2})
	forged := forgeHeader(append([]byte(nil), data...), dataFrames(parseV2Frames(t, data))[1], frameData, 1<<28)
	var serr, rerr error
	alloc := allocDuring(func() {
		serr = NewReader(bytes.NewReader(forged)).Seek(0)
		_, rerr = RetrofitSeekIndex(bytes.NewReader(forged), io.Discard)
	})
	if !errors.Is(serr, ErrTruncated) || !errors.Is(rerr, ErrTruncated) {
		t.Fatalf("forged length: Seek err %v, RetrofitSeekIndex err %v, want ErrTruncated", serr, rerr)
	}
	if alloc >= 16<<20 {
		t.Errorf("index scan allocated %d bytes for a forged frame length", alloc)
	}
}

// TestReadRangePastEnd: a range far past the end of a 4-snapshot stream
// returns the 4 frames without sizing anything by the requested range.
func TestReadRangePastEnd(t *testing.T) {
	data := writeSeekStream(t, makeFrames(4, 30, 5), Config{ErrorBound: 1e-3, BufferSize: 4, SeekIndex: true})
	want := readAllSerial(t, data)
	var got []Frame
	var err error
	alloc := allocDuring(func() {
		got, err = NewReader(bytes.NewReader(data)).ReadRange(0, 1<<24)
	})
	if err != nil || !frameSlicesEqual(got, want) {
		t.Fatalf("ReadRange(0, 1<<24): %d frames, err %v", len(got), err)
	}
	if alloc >= 16<<20 {
		t.Errorf("ReadRange(0, 1<<24) allocated %d bytes for a 4-snapshot stream", alloc)
	}
	got, err = NewReader(bytes.NewReader(data)).ReadRange(2, math.MaxInt)
	if err != nil || !frameSlicesEqual(got, want[2:]) {
		t.Fatalf("ReadRange(2, MaxInt): %d frames, err %v", len(got), err)
	}
}
