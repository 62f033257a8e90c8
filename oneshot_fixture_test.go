package mdz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"testing"
)

// The one-shot fixture pins read compatibility with the "MDZF" container
// that Compress wrote before it wrote through Writer: makeFrames(23, 200,
// 23) compressed with Config{ErrorBound: 1e-3, BufferSize: 5, Method: MT},
// so five blocks. oneShotFixtureHash is the SHA-256 (frameValueHash) of the
// float64 bits it decoded to when it was written. The file is never
// regenerated: it stands for files already on disk.
const (
	oneShotFixturePath = "testdata/oneshot_mdzf.bin"
	oneShotFixtureHash = "cbf913fbecf1b5a3a8644c0ec4755197597f42460ac722d51d3931cc7dab2604"
)

func readOneShotFixture(tb testing.TB) []byte {
	tb.Helper()
	fixture, err := os.ReadFile(oneShotFixturePath)
	if err != nil {
		tb.Fatal(err)
	}
	return fixture
}

// oneShotBlocks splits a one-shot container into its blocks.
func oneShotBlocks(t *testing.T, stream []byte) [][]byte {
	t.Helper()
	if string(stream[:4]) != streamMagicOneShot {
		t.Fatalf("magic %q, want %q", stream[:4], streamMagicOneShot)
	}
	rest := stream[4:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		t.Fatal("malformed block count")
	}
	rest = rest[n:]
	var blks [][]byte
	for i := uint64(0); i < count; i++ {
		size, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < size {
			t.Fatalf("block %d: malformed length", i)
		}
		blks = append(blks, rest[n:n+int(size)])
		rest = rest[n+int(size):]
	}
	return blks
}

// dataPayloads returns the payloads of a v2 stream's data frames.
func dataPayloads(t *testing.T, stream []byte) [][]byte {
	t.Helper()
	w := &frameWalker{src: bytes.NewReader(stream)}
	if magic, err := w.magic(); err != nil || magic != streamMagicV2 {
		t.Fatalf("magic %q, err %v", magic, err)
	}
	var out [][]byte
	for {
		fp, err := w.parseFrame()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if fp.typ == frameData {
			out = append(out, append([]byte(nil), fp.payload...))
		}
		w.discard(fp.size)
	}
}

// TestOneShotFixtureDecodes reads the one-shot fixture through every
// library entry point, each of which must give the recorded values bit for
// bit, and checks that Compress now writes the same blocks framed as v2.
func TestOneShotFixtureDecodes(t *testing.T) {
	fixture := readOneShotFixture(t)
	for _, tc := range []struct {
		name string
		read func() ([]Frame, error)
	}{
		{"Decompress", func() ([]Frame, error) { return Decompress(fixture) }},
		{"Reader", func() ([]Frame, error) { return NewReader(bytes.NewReader(fixture)).ReadAll() }},
		{"ReaderResync", func() ([]Frame, error) {
			r := NewReaderWith(bytes.NewReader(fixture), ReaderOptions{Resync: true})
			frames, err := r.ReadAll()
			if st := r.SalvageStats(); st.FirstError != nil || st.Truncated || st.CorruptFrames != 0 {
				t.Errorf("clean fixture reported damage: %+v", st)
			}
			return frames, err
		}},
	} {
		got, err := tc.read()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if h := frameValueHash(got); h != oneShotFixtureHash {
			t.Errorf("%s: sha256 %s, want %s", tc.name, h, oneShotFixtureHash)
		}
	}

	fresh, err := Compress(makeFrames(23, 200, 23), Config{ErrorBound: 1e-3, BufferSize: 5, Method: MT})
	if err != nil {
		t.Fatal(err)
	}
	old, framed := oneShotBlocks(t, fixture), dataPayloads(t, fresh)
	if len(old) != 5 || len(framed) != len(old) {
		t.Fatalf("fixture holds %d blocks, Compress now writes %d data frames; want 5 each", len(old), len(framed))
	}
	for i := range old {
		if !bytes.Equal(old[i], framed[i]) {
			t.Errorf("block %d: Compress's data frame payload differs from the one-shot block", i)
		}
	}
}

// TestOneShotFixtureRefusals pins what the legacy one-shot container cannot
// do: every cut after the magic is a truncation, never a short clean read,
// and it carries no frame index to seek by or retrofit.
func TestOneShotFixtureRefusals(t *testing.T) {
	fixture := readOneShotFixture(t)
	for n := 4; n < len(fixture); n++ {
		got, err := Decompress(fixture[:n])
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("%d-byte prefix: %d frames, err %v; want ErrTruncated", n, len(got), err)
		}
		r := NewReaderWith(bytes.NewReader(fixture[:n]), ReaderOptions{Workers: 1, Resync: true})
		if _, err := r.ReadAll(); err != nil || !r.SalvageStats().Truncated {
			t.Fatalf("%d-byte prefix, Resync: err %v, stats %+v; want a truncated salvage", n, err, r.SalvageStats())
		}
	}
	if err := NewReader(bytes.NewReader(fixture)).Seek(7); !errors.Is(err, ErrNotSeekable) {
		t.Errorf("Seek: err %v, want ErrNotSeekable", err)
	}
	if _, err := RetrofitSeekIndex(bytes.NewReader(fixture), io.Discard); !errors.Is(err, ErrNotSeekable) {
		t.Errorf("RetrofitSeekIndex: err %v, want ErrNotSeekable", err)
	}
}

// TestCompressWritesWriterStream pins that Compress is a Writer run: the
// same bytes for the same Config, checkpoints and seek table included, and
// nothing at all for no frames.
func TestCompressWritesWriterStream(t *testing.T) {
	frames := makeFrames(13, 60, 5)
	cfg := Config{ErrorBound: 1e-3, BufferSize: 3, CheckpointInterval: 2, SeekIndex: true}
	got, err := Compress(frames, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := writeStream(t, cfg, frames); !bytes.Equal(got, want) {
		t.Fatal("Compress differs from a Writer with the same Config")
	}
	if empty, err := Compress(nil, cfg); err != nil || len(empty) != 0 {
		t.Fatalf("Compress(nil) = %d bytes, err %v; want an empty stream", len(empty), err)
	}
	if none, err := Decompress(nil); err != nil || len(none) != 0 {
		t.Fatalf("Decompress(nil) = %d frames, err %v; want none", len(none), err)
	}
}
