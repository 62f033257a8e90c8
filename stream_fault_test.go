package mdz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"github.com/mdz/mdz/internal/faultio"
)

// streamFrameMeta locates one v2 frame inside a stream image.
type streamFrameMeta struct {
	off  int // absolute offset of the sync marker
	typ  byte
	seq  uint32
	size int // total wire size
	pay  int // payload offset (absolute)
	plen int
}

// parseV2Frames walks a clean v2-framed stream image and indexes its frames.
func parseV2Frames(t *testing.T, data []byte) []streamFrameMeta {
	t.Helper()
	if len(data) < 4 || string(data[:4]) != streamMagicV2 {
		t.Fatal("not a v2-framed stream")
	}
	var metas []streamFrameMeta
	off := 4
	for off < len(data) {
		if off+frameHeaderSize > len(data) {
			t.Fatalf("trailing garbage at %d", off)
		}
		hdr := data[off : off+frameHeaderSize]
		if !bytes.Equal(hdr[:4], frameSync[:]) {
			t.Fatalf("no sync at %d", off)
		}
		n := int(binary.LittleEndian.Uint32(hdr[9:13]))
		m := streamFrameMeta{
			off: off, typ: hdr[4],
			seq:  binary.LittleEndian.Uint32(hdr[5:9]),
			size: frameHeaderSize + n + frameCRCSize,
			pay:  off + frameHeaderSize, plen: n,
		}
		metas = append(metas, m)
		off += m.size
	}
	return metas
}

// fixPCRC recomputes a frame's payload CRC after the payload was mutated,
// so corruption shows up at the core-block layer instead of the framing
// layer.
func fixPCRC(data []byte, m streamFrameMeta) {
	crc := crc32.Checksum(data[m.pay:m.pay+m.plen], crcTable)
	binary.LittleEndian.PutUint32(data[m.pay+m.plen:], crc)
}

// forgeHeader rewrites a frame's type or length field and recomputes the
// header CRC, so only the frame checks on the field's value can catch it.
func forgeHeader(data []byte, m streamFrameMeta, typ byte, length uint32) []byte {
	hdr := data[m.off : m.off+frameHeaderSize]
	hdr[4] = typ
	binary.LittleEndian.PutUint32(hdr[9:13], length)
	binary.LittleEndian.PutUint32(hdr[13:17], crc32.Checksum(hdr[4:13], crcTable))
	return data
}

// typedStreamErr reports whether err carries one of the stream sentinels.
func typedStreamErr(err error) bool {
	return errors.Is(err, ErrCorruptBlock) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrStateDesync)
}

func framesExactEqual(a, b Frame) bool {
	if len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] || a.Z[i] != b.Z[i] {
			return false
		}
	}
	return true
}

// matchSubsequence maps each salvaged frame to its index in the clean
// decode, requiring order-preserving exact matches.
func matchSubsequence(clean, salvaged []Frame) ([]int, bool) {
	idx := make([]int, 0, len(salvaged))
	j := 0
	for _, f := range salvaged {
		for j < len(clean) && !framesExactEqual(clean[j], f) {
			j++
		}
		if j == len(clean) {
			return nil, false
		}
		idx = append(idx, j)
		j++
	}
	return idx, true
}

// faultCase is one deterministic corruption of a clean stream image.
type faultCase struct {
	name string
	// mutate damages the stream image given its frame index.
	mutate func(data []byte, metas []streamFrameMeta) []byte
	// lost lists the snapshot indices expected to be unrecoverable, or
	// nil when the exact set depends on layout (then only subsequence and
	// accounting invariants are checked).
	lost func(metas []streamFrameMeta) []int
	// truncated marks cases that cut the stream (no trailer survives).
	truncated bool
	// payloadOnly marks damage that only decoding a payload can see. The
	// index scan and the seek-table retrofit decode nothing, so they check
	// every other case too.
	payloadOnly bool
}

func dataFrames(metas []streamFrameMeta) []streamFrameMeta {
	var out []streamFrameMeta
	for _, m := range metas {
		if m.typ == frameData {
			out = append(out, m)
		}
	}
	return out
}

func checkpointFrames(metas []streamFrameMeta) []streamFrameMeta {
	var out []streamFrameMeta
	for _, m := range metas {
		if m.typ == frameCheckpoint {
			out = append(out, m)
		}
	}
	return out
}

// TestStreamFaultMatrix drives Writer→fault→Reader round-trips across
// methods and shard counts, asserting that un-corrupted regions decode
// byte-identically to a clean run, that error bounds hold on every
// salvaged frame, and that the reader fails typed — never panics — in
// strict mode.
func TestStreamFaultMatrix(t *testing.T) {
	const (
		numFrames = 24
		particles = 120
		bufSize   = 2 // → 12 data blocks, checkpoints every 3
		eps       = 1e-3
	)
	cases := []faultCase{
		{
			// Framing-layer corruption of a mid-stream data block: the
			// seeded reader resumes at the very next frame.
			name: "flip-data-frame-payload",
			mutate: func(data []byte, metas []streamFrameMeta) []byte {
				m := dataFrames(metas)[4]
				return faultio.Corrupt(data, faultio.Fault{Kind: faultio.FlipBit, Offset: int64(m.pay + m.plen/2), Bit: 5})
			},
			lost: func(metas []streamFrameMeta) []int { return []int{8, 9} },
		},
		{
			// Same flip with the framing CRC patched up, so the damage is
			// only caught by the core block's own checksum.
			name: "flip-data-core-level",
			mutate: func(data []byte, metas []streamFrameMeta) []byte {
				m := dataFrames(metas)[4]
				out := faultio.Corrupt(data, faultio.Fault{Kind: faultio.FlipBit, Offset: int64(m.pay + m.plen/2), Bit: 5})
				fixPCRC(out, m)
				return out
			},
			lost:        func(metas []streamFrameMeta) []int { return []int{8, 9} },
			payloadOnly: true,
		},
		{
			// A bad header CRC hides the frame; the next one resyncs.
			name: "flip-header-crc",
			mutate: func(data []byte, metas []streamFrameMeta) []byte {
				m := dataFrames(metas)[4]
				return faultio.Corrupt(data, faultio.Fault{Kind: faultio.FlipBit, Offset: int64(m.off + 13), Bit: 1})
			},
			lost: func(metas []streamFrameMeta) []int { return []int{8, 9} },
		},
		{
			// An unknown frame type under a valid header CRC.
			name: "forged-type-4",
			mutate: func(data []byte, metas []streamFrameMeta) []byte {
				m := dataFrames(metas)[4]
				return forgeHeader(data, m, 4, uint32(m.plen))
			},
			lost: func(metas []streamFrameMeta) []int { return []int{8, 9} },
		},
		{
			// A length past maxFramePayload under a valid header CRC.
			name: "forged-length-over-2^31",
			mutate: func(data []byte, metas []streamFrameMeta) []byte {
				m := dataFrames(metas)[4]
				return forgeHeader(data, m, frameData, maxFramePayload+1)
			},
			lost: func(metas []streamFrameMeta) []int { return []int{8, 9} },
		},
		{
			// Corrupting block 0 destroys the decoder's seed: intact
			// blocks must be skipped until the first checkpoint reseeds.
			name: "corrupt-seed-block",
			mutate: func(data []byte, metas []streamFrameMeta) []byte {
				m := dataFrames(metas)[0]
				return faultio.Corrupt(data, faultio.Fault{Kind: faultio.FlipBit, Offset: int64(m.pay + 3), Bit: 0})
			},
			lost: func(metas []streamFrameMeta) []int { return []int{0, 1, 2, 3, 4, 5} },
		},
		{
			// A corrupt checkpoint costs nothing when decoding is healthy.
			name: "corrupt-checkpoint",
			mutate: func(data []byte, metas []streamFrameMeta) []byte {
				m := checkpointFrames(metas)[0]
				return faultio.Corrupt(data, faultio.Fault{Kind: faultio.FlipBit, Offset: int64(m.pay + 1), Bit: 2})
			},
			lost: func(metas []streamFrameMeta) []int { return nil },
		},
		{
			// Torn write: stream cut mid-frame, clean prefix survives.
			name: "truncate-mid-frame",
			mutate: func(data []byte, metas []streamFrameMeta) []byte {
				m := dataFrames(metas)[8]
				return faultio.Corrupt(data, faultio.Fault{Kind: faultio.Truncate, Offset: int64(m.off + 5)})
			},
			lost: func(metas []streamFrameMeta) []int {
				return []int{16, 17, 18, 19, 20, 21, 22, 23}
			},
			truncated: true,
		},
		{
			// Zeroed span across a frame boundary kills both neighbors.
			name: "zero-across-boundary",
			mutate: func(data []byte, metas []streamFrameMeta) []byte {
				m := dataFrames(metas)[7]
				return faultio.Corrupt(data, faultio.Fault{Kind: faultio.ZeroRange, Offset: int64(m.off - 4), Len: 10})
			},
			lost: func(metas []streamFrameMeta) []int { return []int{12, 13, 14, 15} },
		},
		{
			// A whole frame vanishes (lost extent): the sequence gap is
			// detected even though every surviving frame is intact.
			name: "splice-out-frame",
			mutate: func(data []byte, metas []streamFrameMeta) []byte {
				m := dataFrames(metas)[5]
				out := append([]byte(nil), data[:m.off]...)
				return append(out, data[m.off+m.size:]...)
			},
			lost: func(metas []streamFrameMeta) []int { return []int{10, 11} },
		},
	}

	for _, method := range []Method{VQ, VQT, MT, ADP} {
		for _, shards := range []int{1, 4} {
			cfg := Config{
				ErrorBound: eps, Mode: Absolute, Method: method,
				BufferSize: bufSize, CheckpointInterval: 3,
				Workers: 2, Shards: shards,
			}
			orig := makeFrames(numFrames, particles, 55)
			var buf bytes.Buffer
			w, err := NewWriter(&buf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range orig {
				if err := w.WriteFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			stream := buf.Bytes()
			metas := parseV2Frames(t, stream)

			clean, err := NewReaderWith(bytes.NewReader(stream), ReaderOptions{Workers: 2}).ReadAll()
			if err != nil {
				t.Fatalf("%v/%d: clean decode: %v", method, shards, err)
			}
			if len(clean) != numFrames {
				t.Fatalf("%v/%d: clean decode yielded %d frames", method, shards, len(clean))
			}

			for _, tc := range cases {
				name := fmt.Sprintf("%v/shards=%d/%s", method, shards, tc.name)
				t.Run(name, func(t *testing.T) {
					corrupt := tc.mutate(append([]byte(nil), stream...), metas)

					// Strict mode: typed failure, never a panic.
					_, serr := NewReaderWith(bytes.NewReader(corrupt), ReaderOptions{Workers: 2}).ReadAll()
					if serr == nil {
						t.Fatal("strict reader accepted corrupt stream")
					}
					if !typedStreamErr(serr) {
						t.Fatalf("strict reader error not typed: %v", serr)
					}
					if !tc.payloadOnly {
						// The header-only index scan of an unindexed
						// stream, and the retrofit built on it.
						sr := NewReaderWith(bytes.NewReader(corrupt), ReaderOptions{Workers: 2})
						if err := sr.Seek(0); !typedStreamErr(err) {
							t.Errorf("strict Seek error not typed: %v", err)
						}
						if _, err := RetrofitSeekIndex(bytes.NewReader(corrupt), io.Discard); !typedStreamErr(err) {
							t.Errorf("RetrofitSeekIndex error not typed: %v", err)
						}
					}

					// Resync mode: salvage and account.
					r := NewReaderWith(bytes.NewReader(corrupt), ReaderOptions{Workers: 2, Resync: true})
					salvaged, err := r.ReadAll()
					if err != nil {
						t.Fatalf("resync reader failed hard: %v", err)
					}
					idx, ok := matchSubsequence(clean, salvaged)
					if !ok {
						t.Fatal("salvaged output is not a clean-run subsequence (checkpointed region not byte-identical)")
					}
					// Error bounds hold on every salvaged frame.
					for k, ci := range idx {
						of, sf := orig[ci], salvaged[k]
						for i := range of.X {
							if math.Abs(of.X[i]-sf.X[i]) > eps+1e-12 ||
								math.Abs(of.Y[i]-sf.Y[i]) > eps+1e-12 ||
								math.Abs(of.Z[i]-sf.Z[i]) > eps+1e-12 {
								t.Fatalf("bound violated on salvaged frame %d (clean %d)", k, ci)
							}
						}
					}

					stats := r.SalvageStats()
					if want := tc.lost(metas); want != nil {
						lost := map[int]bool{}
						for _, s := range want {
							lost[s] = true
						}
						var expect []int
						for ci := range clean {
							if !lost[ci] {
								expect = append(expect, ci)
							}
						}
						if len(idx) != len(expect) {
							t.Fatalf("salvaged %d frames, want %d (stats %+v)", len(idx), len(expect), stats)
						}
						for k := range idx {
							if idx[k] != expect[k] {
								t.Fatalf("salvaged frame %d maps to clean %d, want %d", k, idx[k], expect[k])
							}
						}
						if !tc.truncated && stats.DroppedFrames != len(want) {
							t.Errorf("DroppedFrames = %d, want %d", stats.DroppedFrames, len(want))
						}
					}
					if tc.truncated != stats.Truncated {
						t.Errorf("Truncated = %v, want %v", stats.Truncated, tc.truncated)
					}
					if lostAny := len(clean) != len(salvaged); lostAny {
						if len(stats.LostRanges) == 0 && !stats.Truncated {
							t.Error("frames lost but LostRanges empty")
						}
					}
					if tc.name != "splice-out-frame" {
						if stats.FirstError == nil {
							t.Error("FirstError not recorded")
						} else if stats.FirstError.Offset < 4 || stats.FirstError.Offset > int64(len(corrupt)) {
							t.Errorf("FirstError offset %d out of stream", stats.FirstError.Offset)
						}
						if stats.CorruptFrames == 0 && !tc.truncated {
							t.Error("CorruptFrames = 0 on a corrupt stream")
						}
					}
				})
			}
		}
	}
}

// TestStreamFaultIOError checks that a hard mid-stream I/O failure is
// surfaced as-is — not mistaken for EOF or corruption — in both modes.
func TestStreamFaultIOError(t *testing.T) {
	frames := makeFrames(8, 60, 9)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{ErrorBound: 1e-3, Mode: Absolute, BufferSize: 2})
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
	cut := int64(buf.Len() / 2)
	for _, resync := range []bool{false, true} {
		src := faultio.NewReader(bytes.NewReader(buf.Bytes()), faultio.Fault{Kind: faultio.Error, Offset: cut}).Fragment(3)
		r := NewReaderWith(src, ReaderOptions{Resync: resync})
		_, err := r.ReadAll()
		if !errors.Is(err, faultio.ErrInjected) {
			t.Errorf("resync=%v: err = %v, want ErrInjected", resync, err)
		}
	}
}

// TestStreamFragmentedSource checks the reader against a source that
// returns one short read after another (torn network reads): the decoded
// stream must be identical to a single-shot read.
func TestStreamFragmentedSource(t *testing.T) {
	frames := makeFrames(10, 80, 21)
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
	want, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	src := faultio.NewReader(bytes.NewReader(buf.Bytes())).Fragment(4)
	got, err := NewReader(src).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fragmented read yielded %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !framesExactEqual(want[i], got[i]) {
			t.Fatalf("frame %d diverged under fragmented reads", i)
		}
	}
}
