// Package mdz is an error-bounded lossy compressor for molecular-dynamics
// trajectories and other particle datasets, reproducing "MDZ: An Efficient
// Error-bounded Lossy Compressor for Molecular Dynamics" (ICDE 2022).
//
// MDZ adaptively selects among three MD-specific compression methods —
// vector-quantization (VQ), vector-quantization + time (VQT) and
// multi-level time (MT) — exploiting the spatial level-clustering and
// temporal smoothness characteristic of MD data. Every reconstructed value
// is guaranteed to be within the configured error bound of the original.
//
// # Quick start
//
//	frames := ...                                   // []mdz.Frame, one per snapshot
//	c, _ := mdz.NewCompressor(mdz.Config{ErrorBound: 1e-3})
//	var blocks [][]byte
//	for _, batch := range mdz.Batch(frames, 10) {   // buffer size BS = 10
//		blk, _ := c.CompressBatch(batch)
//		blocks = append(blocks, blk)
//	}
//	d := mdz.NewDecompressor()
//	for _, blk := range blocks {
//		batch, _ := d.DecompressBatch(blk)          // within 1e-3 × value range
//		_ = batch
//	}
//
// Writer frames the blocks as a recoverable MDZ2 stream on any io.Writer,
// and Reader reads it back. Compress and Decompress wrap the two for whole
// in-memory trajectories: Compress writes exactly what a Writer with the
// same Config writes, and Reader also reads the legacy containers that
// earlier builds wrote (see stream.go).
package mdz

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
	"github.com/mdz/mdz/internal/core"
	"github.com/mdz/mdz/internal/kmeans"
	"github.com/mdz/mdz/internal/pool"
	"github.com/mdz/mdz/internal/quant"
	"github.com/mdz/mdz/internal/telemetry"
)

// Frame is one trajectory snapshot: per-axis particle positions of equal
// length.
type Frame struct {
	X, Y, Z []float64
}

// N reports the frame's particle count.
func (f Frame) N() int { return len(f.X) }

// Method selects the compression method.
type Method = core.Method

// Compression methods. ADP (the default) adaptively selects among the other
// three at runtime and is the paper's recommended configuration.
const (
	ADP = core.ADP
	VQ  = core.VQ
	VQT = core.VQT
	MT  = core.MT
)

// ParseMethod parses a method name — "ADP", "VQ", "VQT" or "MT",
// case-insensitively — as accepted by the mdzc and mdzd front ends. The
// empty string selects ADP, the paper's recommended default.
func ParseMethod(s string) (Method, error) {
	switch strings.ToUpper(s) {
	case "", "ADP":
		return ADP, nil
	case "VQ":
		return VQ, nil
	case "VQT":
		return VQT, nil
	case "MT":
		return MT, nil
	}
	return ADP, fmt.Errorf("mdz: unknown method %q", s)
}

// Sequence selects the quantization-code interleaving.
type Sequence = core.Sequence

// Quantization sequences; Seq2 (particle-major) is the paper's choice.
const (
	Seq2 = core.Seq2
	Seq1 = core.Seq1
)

// BoundMode selects how Config.ErrorBound is interpreted.
type BoundMode uint8

// Error-bound modes. ValueRange (the paper's ε) scales the bound by each
// axis's value range, measured on the first batch; Absolute uses the bound
// directly.
const (
	ValueRange BoundMode = iota
	Absolute
)

// DefaultBufferSize is the default batch size BS used by Writer and
// Compress.
const DefaultBufferSize = 10

// Config configures a Compressor.
type Config struct {
	// ErrorBound is the error tolerance; interpretation depends on Mode.
	// Must be positive.
	ErrorBound float64
	// Mode selects value-range-relative (default) or absolute bounds.
	Mode BoundMode
	// Method selects ADP (default), VQ, VQT or MT.
	Method Method
	// QuantScale overrides the linear quantization scale (default 1024).
	QuantScale int
	// Sequence overrides the code interleaving (default Seq2).
	Sequence Sequence
	// AdaptInterval overrides ADP's re-evaluation period (default 50).
	AdaptInterval int
	// BufferSize is the batch size used by Writer and Compress (default
	// 10). CompressBatch callers control batching themselves.
	BufferSize int
	// CheckpointInterval makes Writer emit a checkpoint block after every
	// CheckpointInterval data blocks. Checkpoints carry the decoder state
	// needed to restart mid-stream (per-axis k-means levels, the quantized
	// snapshot-0 reference and the batch index), so a resyncing Reader can
	// recover everything after the first checkpoint that follows a corrupt
	// region. 0 (the default) emits none: the stream start is the only
	// recovery point and framing overhead stays minimal.
	CheckpointInterval int
	// Workers bounds the goroutines used across all three parallelism
	// levels — axes, particle shards and ADP trial compressions — on a
	// single shared pool (0 = GOMAXPROCS, 1 = fully serial). Output bytes
	// never depend on Workers.
	Workers int
	// Shards splits each axis batch into K contiguous particle shards
	// encoded independently, so compression and decompression scale past
	// the three axes on large particle counts. 0 selects an automatic count
	// from the particle count alone (deterministic across machines);
	// 1 forces single-shard blocks byte-identical to the pre-sharding
	// format. Unlike Workers, the shard count is part of the output format.
	Shards int
	// ADPSampleShards, when positive, amortizes ADP re-evaluations: the
	// three trial compressions of an evaluation batch run on only this
	// many particle shards (a contiguous prefix, at real shard size) and
	// the winning method then encodes the full batch once, cutting the
	// evaluation batch's cost from ~4× to ~(1 + 3·S/K)× of a plain batch.
	// 0 (the default) keeps the paper's full-batch trials and the
	// historical output bytes. Like Shards — and unlike Workers — the
	// setting can change which method wins a round and therefore the
	// output bytes (deterministically, never the error bound); the
	// decoder needs no matching setting. Ignored unless Method is ADP.
	ADPSampleShards int
	// SeekIndex makes Writer build a seek table — one {offset, sequence,
	// snapshot range} record per data and checkpoint frame — and emit it
	// as one extra frame between the last data frame and the trailer at
	// Close. An indexed stream gives Reader.Seek/ReadRange O(1) random
	// access (jump to the nearest checkpoint, decode only the covered
	// frames) instead of the header-only scan rebuild; everything else —
	// framing, fsck, salvage, resync — is unchanged, and the data frames
	// are byte-identical to an unindexed stream. Costs a few bytes per
	// block at Close. Only Writer consults this field.
	SeekIndex bool
	// ADPRetrialInterval is ignored: every ADP evaluation round runs the
	// full three-method trial.
	//
	// Deprecated: leave ADPRetrialInterval zero.
	ADPRetrialInterval int
	// PipelineDepth is ignored: Writer always writes serially.
	//
	// Deprecated: leave PipelineDepth zero.
	PipelineDepth int
	// Telemetry enables pipeline instrumentation: per-stage wall time,
	// ADP decisions, quantization scope rates, pool utilization and (via
	// Writer/Reader) stream framing overhead. Snapshots are read with
	// Compressor.Telemetry; the live registry (for the mdzc metrics
	// endpoint) with Compressor.TelemetryRegistry. Telemetry never changes
	// the output bytes; when false, the instrumentation hooks compile to a
	// nil check and cost nothing measurable.
	Telemetry bool
	// FormatVersion names the wire format to write. Format v2 is the only
	// one, so 0 (the default) and 2 are accepted and mean the same; any
	// other value is rejected. Readers auto-detect the version per stream
	// and per block.
	FormatVersion int
	// Context, when non-nil, is polled cooperatively by every compress
	// operation that doesn't take its own context (CompressBatch, Compress,
	// Writer.WriteFrame/Close): once it is cancelled or past its deadline,
	// in-flight batches abort within a few shard row kernels and return
	// ctx.Err(). CompressBatchContext ignores this field in favour of its
	// argument.
	// Cancellation never corrupts compressor state: a cancelled batch can
	// be retried and produces the same bytes an uncancelled run would.
	Context context.Context
}

// workers resolves the effective worker count.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 0 // pool.New treats 0 as GOMAXPROCS
}

// Compressor compresses trajectory batches. It is stateful: batches must be
// fed in simulation order, and the matching Decompressor must consume
// blocks in the same order. A Compressor must not be used from multiple
// goroutines concurrently (Config.Workers parallelizes internally).
type Compressor struct {
	cfg       Config
	pool      *pool.Pool
	enc       [3]*core.Encoder
	reg       *telemetry.Registry // nil unless cfg.Telemetry
	cancelled *telemetry.Counter  // "pipeline.cancelled_runs"; nil-safe
	faultHook func(op string, shard int)
}

// NewCompressor validates cfg and returns a Compressor.
func NewCompressor(cfg Config) (*Compressor, error) {
	if !(cfg.ErrorBound > 0) {
		return nil, fmt.Errorf("mdz: ErrorBound must be positive, got %v", cfg.ErrorBound)
	}
	if cfg.BufferSize == 0 {
		cfg.BufferSize = DefaultBufferSize
	}
	if cfg.BufferSize < 0 {
		return nil, fmt.Errorf("mdz: BufferSize must be positive, got %d", cfg.BufferSize)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("mdz: Workers must be non-negative, got %d", cfg.Workers)
	}
	if cfg.Shards < 0 || cfg.Shards > core.MaxShards {
		return nil, fmt.Errorf("mdz: Shards must be in [0, %d], got %d", core.MaxShards, cfg.Shards)
	}
	if cfg.ADPSampleShards < 0 || cfg.ADPSampleShards > core.MaxShards {
		return nil, fmt.Errorf("mdz: ADPSampleShards must be in [0, %d], got %d", core.MaxShards, cfg.ADPSampleShards)
	}
	if cfg.Mode > Absolute {
		return nil, fmt.Errorf("mdz: unknown Mode %d", cfg.Mode)
	}
	if cfg.Method > MT {
		return nil, fmt.Errorf("mdz: unknown Method %d", uint8(cfg.Method))
	}
	if cfg.Sequence > Seq1 {
		return nil, fmt.Errorf("mdz: unknown Sequence %d", uint8(cfg.Sequence))
	}
	switch cfg.FormatVersion {
	case 0, 2:
	case 3:
		return nil, errors.New("mdz: FormatVersion 3 was removed; v2 is the only write format (use 0 or 2)")
	default:
		return nil, fmt.Errorf("mdz: FormatVersion must be 0 or 2, got %d", cfg.FormatVersion)
	}
	c := &Compressor{cfg: cfg, pool: pool.New(cfg.workers())}
	if cfg.Telemetry {
		c.reg = telemetry.NewRegistry()
		c.pool.SetTelemetry(pool.Instruments(c.reg))
	}
	c.cancelled = c.reg.Counter("pipeline.cancelled_runs")
	return c, nil
}

// noteCancelled counts a run that surfaced a context cancellation.
func noteCancelled(counter *telemetry.Counter, err error) {
	if isCancellation(err) {
		counter.Inc()
	}
}

// params builds per-axis core parameters. For ValueRange mode the absolute
// bound is derived from the first batch of that axis and then frozen for
// the compressor's lifetime — the bound is stateful, so a run whose value
// range grows after the first batch keeps the original absolute tolerance
// (feed a representative first batch, or use Absolute mode, when that
// matters). NaN values are skipped by the range measurement.
func (c *Compressor) params(axis int, firstBatch [][]float64) (core.Params, error) {
	eb := c.cfg.ErrorBound
	if c.cfg.Mode == ValueRange {
		var lo, hi float64
		first := true
		for _, snap := range firstBatch {
			l, h := quant.Range(snap)
			if first {
				lo, hi = l, h
				first = false
				continue
			}
			if l < lo {
				lo = l
			}
			if h > hi {
				hi = h
			}
		}
		eb = quant.AbsBound(c.cfg.ErrorBound, lo, hi)
	}
	return c.axisParams(axis, eb, c.cfg.QuantScale), nil
}

// axisParams is the one mapping from Config to an axis encoder's core
// parameters. The absolute bound and quantization scale are arguments
// because a fresh run derives them from the first batch while a resumed
// one takes them from the checkpoint.
func (c *Compressor) axisParams(axis int, eb float64, quantScale int) core.Params {
	return core.Params{
		ErrorBound:      eb,
		QuantScale:      quantScale,
		Method:          c.cfg.Method,
		Sequence:        c.cfg.Sequence,
		AdaptInterval:   c.cfg.AdaptInterval,
		KMeans:          kmeans.Options{Seed: int64(axis) + 1},
		Shards:          c.cfg.Shards,
		ADPSampleShards: c.cfg.ADPSampleShards,
		Pool:            c.pool,
		Tel:             core.EncoderInstruments(c.reg, axisName(axis)),
		FaultHook:       c.faultHook,
	}
}

// setFaultHook installs the shard-level fault-injection seam on the axis
// encoders — both those already built and, via params, those built later
// (test use only; see core.Params.FaultHook).
func (c *Compressor) setFaultHook(f func(op string, shard int)) {
	c.faultHook = f
	for _, enc := range c.enc {
		if enc != nil {
			enc.SetFaultHook(f)
		}
	}
}

// axisName names an axis index for telemetry and error messages.
func axisName(axis int) string {
	return [...]string{"x", "y", "z"}[axis]
}

// checkFinite rejects ±Inf in an axis's first batch. Infinities poison the
// value-range bound derivation (an infinite range yields an unusable
// quantizer) and have no meaningful error-bounded encoding; NaN is allowed
// everywhere and round-trips exactly through the outlier raw-bits path.
func checkFinite(axis int, batch [][]float64) error {
	for t, snap := range batch {
		for i, v := range snap {
			if math.IsInf(v, 0) {
				return fmt.Errorf("%w: %v at axis %s, snapshot %d, particle %d",
					ErrNonFinite, v, axisName(axis), t, i)
			}
		}
	}
	return nil
}

// CompressBatch compresses one buffer of frames into a self-contained block
// (all three axes). The batch must be non-empty, and its frames must share
// a particle count of at least one.
// NaN values are legal anywhere and round-trip bit-exactly through the
// outlier path; ±Inf in an axis's first batch is rejected with
// ErrNonFinite (see checkFinite).
func (c *Compressor) CompressBatch(frames []Frame) ([]byte, error) {
	return c.CompressBatchContext(c.cfg.Context, frames)
}

// CompressBatchContext is CompressBatch with explicit cooperative
// cancellation (overriding Config.Context; nil disables it). On
// cancellation it returns ctx.Err() — context.Canceled or
// context.DeadlineExceeded — with all pooled scratch returned and encoder
// state unchanged, so the same batch can be compressed again on this
// Compressor with byte-identical output.
func (c *Compressor) CompressBatchContext(ctx context.Context, frames []Frame) ([]byte, error) {
	if len(frames) == 0 {
		return nil, errors.New("mdz: empty batch")
	}
	n := frames[0].N()
	if n == 0 {
		return nil, errors.New("mdz: frames carry no particles")
	}
	for i, f := range frames {
		if f.N() != n || len(f.Y) != n || len(f.Z) != n {
			return nil, fmt.Errorf("mdz: frame %d has inconsistent particle count", i)
		}
	}
	// Build the three axis series once; they are shared by parameter
	// derivation and encoding below.
	var series [3][][]float64
	for axis := range series {
		series[axis] = axisSeries(frames, axis)
	}
	for axis := 0; axis < 3; axis++ {
		if c.enc[axis] == nil {
			// The first batch of an axis fixes its quantizer (and, in
			// ValueRange mode, its absolute bound), so infinities here would
			// corrupt the whole run; reject them up front.
			if err := checkFinite(axis, series[axis]); err != nil {
				return nil, err
			}
			p, err := c.params(axis, series[axis])
			if err != nil {
				return nil, err
			}
			enc, err := core.NewEncoder(p)
			if err != nil {
				return nil, err
			}
			c.enc[axis] = enc
		}
	}
	// The three axes encode concurrently on the shared pool; within each
	// axis, ADP trials and particle shards fan out further on the same
	// pool. Blocks are assembled in axis order, so output bytes are
	// independent of the worker count.
	var blks [3][]byte
	err := c.pool.RunContext(ctx, 3, func(axis int) error {
		blk, err := c.enc[axis].EncodeBatchContext(ctx, series[axis])
		blks[axis] = blk
		return err
	})
	if err != nil {
		noteCancelled(c.cancelled, err)
		return nil, err
	}
	out := []byte{'M', 'D', 'Z', 'S'}
	for _, blk := range blks {
		out = bitstream.AppendSection(out, blk)
	}
	// Integrity footer: CRC-32C of everything after the magic.
	out = bitstream.AppendUint32(out, crc32.Checksum(out[4:], crcTable))
	return out, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Methods reports the concrete per-axis methods currently selected (useful
// under ADP). Before the first batch it returns zero values.
func (c *Compressor) Methods() [3]Method {
	var m [3]Method
	for i, e := range c.enc {
		if e != nil {
			m[i] = e.Method()
		}
	}
	return m
}

// Stats aggregates per-axis encoder statistics.
func (c *Compressor) Stats() (raw, compressed int64) {
	for _, e := range c.enc {
		if e != nil {
			raw += e.Stats.RawBytes
			compressed += e.Stats.CompressedBytes
		}
	}
	return raw, compressed
}

func axisSeries(frames []Frame, axis int) [][]float64 {
	out := make([][]float64, len(frames))
	for i, f := range frames {
		switch axis {
		case 0:
			out[i] = f.X
		case 1:
			out[i] = f.Y
		default:
			out[i] = f.Z
		}
	}
	return out
}

// Decompressor reconstructs frames from blocks, in encode order.
type Decompressor struct {
	pool      *pool.Pool
	dec       [3]*core.Decoder
	reg       *telemetry.Registry // nil unless opted in
	bud       *budget.Budget      // nil = unlimited
	ctx       context.Context     // default context for DecompressBatch; may be nil
	cancelled *telemetry.Counter  // "pipeline.cancelled_runs"; nil-safe
}

// DecompressorOptions configures a Decompressor.
type DecompressorOptions struct {
	// Workers bounds axis- and shard-level parallelism (0 = GOMAXPROCS,
	// 1 = serial). The reconstructed frames are identical for any count.
	Workers int
	// Telemetry enables decode-side instrumentation, read through
	// Decompressor.Telemetry / Decompressor.TelemetryRegistry.
	Telemetry bool
	// Context, when non-nil, is polled by DecompressBatch calls;
	// DecompressBatchContext overrides it. See Config.Context for
	// semantics.
	Context context.Context
	// MaxDecodeBytes caps the in-flight allocations driven by claimed
	// lengths in untrusted blocks (output matrices, entropy section
	// counts, code tables, backend original sizes). 0 (the default) means
	// unlimited; rejections match ErrBudgetExceeded and are counted in
	// telemetry as "budget.rejections". The cap is per concurrent
	// operation set, not per block: parallel shards draw from one shared
	// ceiling.
	MaxDecodeBytes int64
}

// NewDecompressor returns a Decompressor with default settings (a worker
// pool sized to GOMAXPROCS; use NewDecompressorWith to configure it).
func NewDecompressor() *Decompressor {
	return NewDecompressorWith(DecompressorOptions{})
}

// NewDecompressorWith returns a Decompressor configured by opts.
func NewDecompressorWith(opts DecompressorOptions) *Decompressor {
	d := &Decompressor{pool: pool.New(opts.Workers), ctx: opts.Context}
	if opts.Telemetry {
		d.reg = telemetry.NewRegistry()
		d.pool.SetTelemetry(pool.Instruments(d.reg))
	}
	d.cancelled = d.reg.Counter("pipeline.cancelled_runs")
	d.bud = budget.New(opts.MaxDecodeBytes)
	d.bud.SetTelemetry(d.reg.Counter("budget.rejections"))
	tel := core.DecoderInstruments(d.reg)
	for i := range d.dec {
		d.dec[i] = core.NewDecoder(core.Params{Pool: d.pool, Tel: tel, Budget: d.bud})
	}
	return d
}

// setFaultHook installs the shard-level fault-injection seam on all three
// axis decoders (test use only; see core.Params.FaultHook).
func (d *Decompressor) setFaultHook(f func(op string, shard int)) {
	for _, dec := range d.dec {
		dec.SetFaultHook(f)
	}
}

// DecompressBatch reconstructs the frames of one block, verifying its
// integrity checksum first.
func (d *Decompressor) DecompressBatch(blk []byte) ([]Frame, error) {
	return d.DecompressBatchContext(d.ctx, blk)
}

// DecompressBatchContext is DecompressBatch with explicit cooperative
// cancellation (overriding DecompressorOptions.Context; nil disables it).
// On cancellation it returns ctx.Err() with decoder state unchanged, so
// the same block can be decoded again.
func (d *Decompressor) DecompressBatchContext(ctx context.Context, blk []byte) ([]Frame, error) {
	if len(blk) < 4 || string(blk[:4]) != "MDZS" {
		return nil, fmt.Errorf("%w: not an MDZ block", ErrCorruptBlock)
	}
	if len(blk) < 8 {
		return nil, fmt.Errorf("%w: block cut before its checksum footer", ErrTruncated)
	}
	body := blk[4 : len(blk)-4]
	want, err := bitstream.NewByteReader(blk[len(blk)-4:]).ReadUint32()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated block footer", ErrTruncated)
	}
	if crc32.Checksum(body, crcTable) != want {
		return nil, fmt.Errorf("%w: block checksum mismatch (corrupted data)", ErrCorruptBlock)
	}
	br := bitstream.NewByteReader(body)
	var secs [3][]byte
	for axis := 0; axis < 3; axis++ {
		sec, err := br.ReadSection()
		if err != nil {
			return nil, mapBlockErr(err)
		}
		secs[axis] = sec
	}
	// Decode the three axes concurrently; each axis fans out further over
	// its particle shards on the same pool.
	var series [3][][]float64
	err = d.pool.RunContext(ctx, 3, func(axis int) error {
		out, derr := d.dec[axis].DecodeBatchContext(ctx, secs[axis])
		series[axis] = out
		return derr
	})
	if err != nil {
		noteCancelled(d.cancelled, err)
		return nil, mapBlockErr(err)
	}
	bs := len(series[0])
	if len(series[1]) != bs || len(series[2]) != bs {
		return nil, fmt.Errorf("%w: inconsistent axis batch sizes", ErrCorruptBlock)
	}
	frames := make([]Frame, bs)
	for t := 0; t < bs; t++ {
		frames[t] = Frame{X: series[0][t], Y: series[1][t], Z: series[2][t]}
	}
	return frames, nil
}

// blockSnapshots reports the snapshot count of a compressed block by
// parsing headers only — no payload is decompressed. A salvaging Reader
// uses it to account for intact blocks it must skip.
func blockSnapshots(blk []byte) (int, error) {
	if len(blk) < 8 || string(blk[:4]) != "MDZS" {
		return 0, fmt.Errorf("%w: not an MDZ block", ErrCorruptBlock)
	}
	br := bitstream.NewByteReader(blk[4 : len(blk)-4])
	sec, err := br.ReadSection()
	if err != nil {
		return 0, mapBlockErr(err)
	}
	_, bs, _, err := core.BlockInfo(sec)
	if err != nil {
		return 0, mapBlockErr(err)
	}
	return bs, nil
}

// Batch splits frames into buffers of at most bs frames (bs <= 0 selects
// DefaultBufferSize), mirroring the paper's buffered execution model.
func Batch(frames []Frame, bs int) [][]Frame {
	if bs <= 0 {
		bs = DefaultBufferSize
	}
	var out [][]Frame
	for i := 0; i < len(frames); i += bs {
		j := i + bs
		if j > len(frames) {
			j = len(frames)
		}
		out = append(out, frames[i:j])
	}
	return out
}

// Compress compresses a whole in-memory trajectory: it writes frames
// through a Writer configured by cfg and returns the stream, byte for byte
// what that Writer writes (so CheckpointInterval and SeekIndex apply). No
// frames give an empty stream. Use a Writer directly to read its
// Telemetry afterwards.
func Compress(frames []Frame, cfg Config) ([]byte, error) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, cfg)
	if err != nil {
		return nil, err
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decompress reconstructs a whole trajectory from a stream in any container
// Reader reads: what Compress or Writer wrote, or a legacy one. An empty
// stream gives no frames. On failure it returns the frames decoded before
// the error. Use NewReaderWith for cancellation, a decode budget or salvage.
func Decompress(stream []byte) ([]Frame, error) {
	return NewReader(bytes.NewReader(stream)).ReadAll()
}
