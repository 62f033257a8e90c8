package mdz

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// migrateWriter round-trips a Writer across a simulated process boundary:
// export, serialize, deserialize into fresh objects, resume over a copy of
// the container prefix. The prefix is read from out only after ExportState
// flushes the Writer's buffer — the ordering a real draining server must
// also respect. It returns the resumed writer and its buffer.
func migrateWriter(t *testing.T, w *Writer, out *bytes.Buffer, cfg Config) (*Writer, *bytes.Buffer) {
	t.Helper()
	st, err := w.ExportState()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	prefix := out.Bytes()
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	wire := &WriterState{}
	if err := wire.UnmarshalBinary(blob); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	buf := bytes.NewBuffer(append([]byte(nil), prefix...))
	resumed, err := ResumeWriter(buf, cfg, wire)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return resumed, buf
}

// TestWriterStateMigration is the session-migration contract behind the
// daemon's drain/restart: a stream split across two Writer lifetimes — the
// second resumed in a "new process" from serialized state — must be
// byte-identical to an unmigrated run and decode bit-identically, across
// split points landing mid-batch, on a block boundary, and before the first
// flushed block.
func TestWriterStateMigration(t *testing.T) {
	frames := makeFrames(23, 150, 7)
	for _, method := range []Method{ADP, MT} {
		// BufferSize 4: split 10 is mid-batch (2 pending), split 8 is a
		// block boundary, split 2 precedes the first flushed block.
		// Depth 3 sets the deprecated PipelineDepth on both writer
		// lifetimes, which must leave the bytes unchanged.
		for _, tc := range []struct {
			split, depth int
		}{{10, 0}, {8, 0}, {2, 0}, {10, 3}, {8, 3}, {2, 3}} {
			split := tc.split
			t.Run(fmt.Sprintf("v2_%v_split%d_depth%d", method, split, tc.depth), func(t *testing.T) {
				cfg := Config{
					ErrorBound: 1e-3, Method: method, BufferSize: 4,
					CheckpointInterval: 3,
				}

				var want bytes.Buffer
				full, err := NewWriter(&want, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range frames {
					if err := full.WriteFrame(f); err != nil {
						t.Fatal(err)
					}
				}
				if err := full.Close(); err != nil {
					t.Fatal(err)
				}

				cfg.PipelineDepth = tc.depth
				var first bytes.Buffer
				w1, err := NewWriter(&first, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range frames[:split] {
					if err := w1.WriteFrame(f); err != nil {
						t.Fatal(err)
					}
				}
				w2, buf := migrateWriter(t, w1, &first, cfg)
				for _, f := range frames[split:] {
					if err := w2.WriteFrame(f); err != nil {
						t.Fatal(err)
					}
				}
				if err := w2.Close(); err != nil {
					t.Fatal(err)
				}

				if !bytes.Equal(want.Bytes(), buf.Bytes()) {
					t.Fatalf("migrated container diverged: %d vs %d bytes", buf.Len(), want.Len())
				}
				wr, wc := full.Stats()
				gr, gc := w2.Stats()
				if wr != gr || wc != gc {
					t.Errorf("migrated Stats = (%d, %d), want (%d, %d)", gr, gc, wr, wc)
				}

				got, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewReader(bytes.NewReader(want.Bytes())).ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(ref) || len(got) != len(frames) {
					t.Fatalf("decoded %d snapshots, want %d", len(got), len(frames))
				}
				for ti := range ref {
					for i := range ref[ti].X {
						if math.Float64bits(ref[ti].X[i]) != math.Float64bits(got[ti].X[i]) ||
							math.Float64bits(ref[ti].Y[i]) != math.Float64bits(got[ti].Y[i]) ||
							math.Float64bits(ref[ti].Z[i]) != math.Float64bits(got[ti].Z[i]) {
							t.Fatalf("migrated decode diverged at t=%d i=%d", ti, i)
						}
					}
				}
			})
		}
	}
}

// TestResumeKeepsTelemetry: a resumed Writer's encoders are built from the
// same parameters as a fresh Writer's, instruments included, so every batch
// compressed after the migration still advances the stage counters.
func TestResumeKeepsTelemetry(t *testing.T) {
	const bs = 4
	frames := makeFrames(6*bs, 120, 5)
	cfg := Config{ErrorBound: 1e-3, BufferSize: bs, CheckpointInterval: 2, Telemetry: true}
	var out bytes.Buffer
	w1, err := NewWriter(&out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames[:2*bs] {
		if err := w1.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	w2, _ := migrateWriter(t, w1, &out, cfg)
	prev := w2.Telemetry().Counters["compress.quant.values"]
	for b := 2; b < 6; b++ {
		for _, f := range frames[b*bs : (b+1)*bs] {
			if err := w2.WriteFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		got := w2.Telemetry().Counters["compress.quant.values"]
		if got <= prev {
			t.Fatalf("batch %d after resume: compress.quant.values %d, was %d before it", b, got, prev)
		}
		prev = got
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterStateGuards covers the refusal paths of the migration API.
func TestWriterStateGuards(t *testing.T) {
	if _, err := ResumeWriter(&bytes.Buffer{}, Config{ErrorBound: 1e-3}, nil); err == nil {
		t.Error("ResumeWriter accepted nil state")
	}
	if _, err := ResumeWriter(&bytes.Buffer{}, Config{ErrorBound: 1e-3},
		&WriterState{Opened: true, Blocks: 2}); err == nil {
		t.Error("ResumeWriter accepted flushed blocks without a checkpoint")
	}
	if _, err := ResumeWriter(&bytes.Buffer{}, Config{ErrorBound: 1e-3},
		&WriterState{Seq: 3}); err == nil {
		t.Error("ResumeWriter accepted an advanced cursor on an unopened stream")
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{ErrorBound: 1e-3, BufferSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range makeFrames(4, 60, 1) {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	st, err := w.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	// Export after Close is refused; a never-written writer exports a
	// resumable zero state.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ExportState(); err == nil {
		t.Error("ExportState after Close succeeded")
	}
	fresh, err := NewWriter(&bytes.Buffer{}, Config{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	zst, err := fresh.ExportState()
	if err != nil {
		t.Fatalf("ExportState on a fresh writer: %v", err)
	}
	if zst.Opened || zst.Checkpoint != nil || len(zst.Pending) != 0 {
		t.Errorf("fresh writer state not zero: %+v", zst)
	}
	if _, err := ResumeWriter(&bytes.Buffer{}, Config{ErrorBound: 1e-3}, zst); err != nil {
		t.Errorf("resume from a zero state: %v", err)
	}

	// Serialization rejects damage: truncations and trailing garbage.
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(WriterState).UnmarshalBinary(append(blob, 0)); err == nil {
		t.Error("trailing writer-state byte accepted")
	}
	for _, cut := range []int{0, 1, 2, len(blob) / 2, len(blob) - 1} {
		if err := new(WriterState).UnmarshalBinary(blob[:cut]); err == nil {
			t.Errorf("truncated writer state (%d bytes) accepted", cut)
		}
	}
}
