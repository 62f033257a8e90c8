package mdz

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestPipelineByteIdentity: the deprecated Config.PipelineDepth and
// Config.ADPRetrialInterval have no effect — every setting produces the
// container bytes, Stats and ADP trial count of a Writer without it, with
// checkpoints in the stream. AdaptInterval 2 makes batches 2 and 4 ADP
// evaluation rounds too: batches 0 and 1 always run the full trial.
func TestPipelineByteIdentity(t *testing.T) {
	frames := makeFrames(21, 120, 3)
	cfg := Config{
		ErrorBound: 1e-3, Method: ADP, AdaptInterval: 2, BufferSize: 4,
		CheckpointInterval: 2, Telemetry: true,
	}
	evals := func(w *Writer) int64 {
		return w.c.Telemetry().Counters["compress.adp.x.evals"]
	}
	var want bytes.Buffer
	w, err := NewWriter(&want, cfg)
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
	rows := []struct {
		name string
		set  func(*Config)
	}{
		{"v2_depth1", func(c *Config) { c.PipelineDepth = 1 }},
		{"v2_depth4", func(c *Config) { c.PipelineDepth = 4 }},
		{"v2_depth64", func(c *Config) { c.PipelineDepth = 64 }},
		{"adp_retrial4", func(c *Config) { c.ADPRetrialInterval = 4 }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			pcfg := cfg
			row.set(&pcfg)
			var got bytes.Buffer
			pw, err := NewWriter(&got, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range frames {
				if err := pw.WriteFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			if err := pw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("%s container differs from the default: %d vs %d bytes",
					row.name, got.Len(), want.Len())
			}
			wr, wc := w.Stats()
			gr, gc := pw.Stats()
			if wr != gr || wc != gc {
				t.Errorf("%s Stats = (%d, %d), want (%d, %d)", row.name, gr, gc, wr, wc)
			}
			if got, want := evals(pw), evals(w); got != want {
				t.Errorf("%s ran %d ADP trials on x, want %d", row.name, got, want)
			}
		})
	}
}

// errSink fails every Write with a fixed error.
type errSink struct{ err error }

func (s errSink) Write([]byte) (int, error) { return 0, s.err }

// TestPipelineErrorPropagation: a sink failure must surface to the caller —
// at the latest on Close — and never get replaced by a later error, with
// or without the deprecated PipelineDepth set.
func TestPipelineErrorPropagation(t *testing.T) {
	sinkErr := errors.New("disk gone")
	frames := makeFrames(12, 100, 5)
	for _, depth := range []int{0, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			w, err := NewWriter(errSink{sinkErr}, Config{
				ErrorBound: 1e-3, BufferSize: 4,
				CheckpointInterval: 2, PipelineDepth: depth,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Small frames live in the 1 MiB buffer until a flush, so the
			// sink failure may only materialize at Flush/Close — the
			// writer must still deliver it, not swallow it.
			for _, f := range frames {
				if err := w.WriteFrame(f); err != nil {
					if !errors.Is(err, sinkErr) {
						t.Fatalf("WriteFrame error = %v, want %v", err, sinkErr)
					}
					break
				}
			}
			if err := w.Close(); !errors.Is(err, sinkErr) {
				t.Fatalf("Close error = %v, want %v", err, sinkErr)
			}
			if err := w.WriteFrame(frames[0]); err == nil {
				t.Fatal("WriteFrame after failed Close succeeded")
			}
		})
	}
}

// TestPipelineFlushSurfacesSinkError: Flush reports the sink failure
// instead of claiming delivery.
func TestPipelineFlushSurfacesSinkError(t *testing.T) {
	sinkErr := errors.New("net down")
	w, err := NewWriter(errSink{sinkErr}, Config{
		ErrorBound: 1e-3, BufferSize: 4, CheckpointInterval: 2, PipelineDepth: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range makeFrames(8, 100, 6) {
		if err := w.WriteFrame(f); err != nil {
			if !errors.Is(err, sinkErr) {
				t.Fatalf("WriteFrame error = %v, want %v", err, sinkErr)
			}
			break
		}
	}
	if err := w.Flush(); !errors.Is(err, sinkErr) {
		t.Fatalf("Flush error = %v, want %v", err, sinkErr)
	}
}

// TestPipelineConfigValidation: the scaling knobs are range-checked up
// front.
func TestPipelineConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{ErrorBound: 1e-3, ADPSampleShards: -1},
		{ErrorBound: 1e-3, ADPSampleShards: 1 << 20},
	} {
		if _, err := NewCompressor(cfg); err == nil {
			t.Errorf("NewCompressor accepted %+v", cfg)
		}
		if _, err := NewWriter(&bytes.Buffer{}, cfg); err == nil {
			t.Errorf("NewWriter accepted %+v", cfg)
		}
	}
	if _, err := NewWriter(&bytes.Buffer{}, Config{
		ErrorBound: 1e-3, ADPSampleShards: 2,
	}); err != nil {
		t.Errorf("valid knobs rejected: %v", err)
	}
}
