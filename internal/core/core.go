// Package core implements MDZ, the adaptive error-bounded lossy compressor
// for molecular-dynamics trajectories (paper §VI). It provides the three
// MD-specific compression methods — VQ (vector-quantization, spatial), VQT
// (VQ + time prediction) and MT (multi-level time prediction) — plus the
// adaptive selector ADP that re-evaluates the best method every
// AdaptInterval batches.
//
// The compressor is stateful across batches, mirroring the paper's buffered
// execution model: k-means level parameters (λ, μ) are computed once from a
// sample of the first snapshot, and the reconstructed initial snapshot is
// retained as the MT reference. Encoder and Decoder must therefore process
// batches in the same order; every block is otherwise self-describing.
//
// # Parallel execution
//
// Every predictor in the pipeline needs only per-particle local context, so
// a batch parallelizes cleanly along the particle axis: the encoder splits
// each batch into K contiguous particle shards (Params.Shards; 0 selects an
// automatic count from the particle count alone, so output stays
// deterministic across machines) and encodes them concurrently on
// Params.Pool. Each shard carries its own Huffman tables and level-delta
// chain, making shards fully independent for the decoder too. Blocks with
// K > 1 use format version 2 (a list of shard sub-sections per block);
// K = 1 blocks keep the version-1 layout byte-for-byte, and the decoder
// accepts both. For a fixed (input, params, K) the output bytes are
// identical regardless of pool size: shards are encoded concurrently but
// assembled in index order.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
	"github.com/mdz/mdz/internal/kmeans"
	"github.com/mdz/mdz/internal/lossless"
	"github.com/mdz/mdz/internal/pool"
	"github.com/mdz/mdz/internal/quant"
)

// Method selects the MDZ compression method.
type Method uint8

// Compression methods. ADP is the paper's default: it dynamically selects
// among VQ, VQT and MT at runtime.
const (
	ADP Method = iota
	VQ
	VQT
	MT
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case ADP:
		return "ADP"
	case VQ:
		return "VQ"
	case VQT:
		return "VQT"
	case MT:
		return "MT"
	}
	return fmt.Sprintf("Method(%d)", uint8(m))
}

// Sequence selects the quantization-code interleaving (paper §VI-C2).
type Sequence uint8

// Quantization sequences. Seq2 stores one particle's codes across all
// snapshots of a buffer contiguously (particle-major) and is the paper's
// choice; Seq1 stores snapshot-major.
const (
	Seq2 Sequence = iota
	Seq1
)

// String implements fmt.Stringer.
func (s Sequence) String() string {
	if s == Seq1 {
		return "Seq-1"
	}
	return "Seq-2"
}

// DefaultAdaptInterval is the paper's ADP re-evaluation period, in
// compression operations (batches).
const DefaultAdaptInterval = 50

// MaxShards bounds the per-block shard count, keeping headers small and
// rejecting absurd counts in corrupted blocks.
const MaxShards = 4096

const (
	// shardMinParticles is the per-shard particle floor used by the
	// automatic shard count: below it, sharding overhead (extra Huffman
	// tables, shorter dictionary contexts) outweighs the parallelism.
	shardMinParticles = 16384
	maxAutoShards     = 64
)

// DefaultShards reports the automatic shard count for an n-particle axis.
// It depends only on n — never on core count — so automatically sharded
// output is identical across machines.
func DefaultShards(n int) int {
	k := n / shardMinParticles
	if k < 1 {
		return 1
	}
	if k > maxAutoShards {
		return maxAutoShards
	}
	return k
}

// shardBounds splits n particles into k near-equal contiguous ranges,
// returning k+1 cumulative offsets.
func shardBounds(n, k int) []int {
	bounds := make([]int, k+1)
	base, rem := n/k, n%k
	off := 0
	for s := 0; s < k; s++ {
		bounds[s] = off
		off += base
		if s < rem {
			off++
		}
	}
	bounds[k] = n
	return bounds
}

// Params configures an Encoder. The zero value is not usable; use
// NewEncoder which applies defaults.
type Params struct {
	// ErrorBound is the absolute error bound (must be positive). Callers
	// using the paper's value-range-based ε should convert with
	// quant.AbsBound first.
	ErrorBound float64
	// QuantScale is the linear-scale quantization range (default 1024).
	QuantScale int
	// Method selects VQ, VQT, MT, or adaptive ADP (default ADP).
	Method Method
	// Sequence selects the quantization interleaving (default Seq2).
	Sequence Sequence
	// AdaptInterval is the ADP re-evaluation period in batches (default 50).
	AdaptInterval int
	// KMeans tunes the sampled 1-D clustering for the VQ level model.
	KMeans kmeans.Options
	// Shards splits each batch into K contiguous particle shards encoded
	// independently: 0 selects DefaultShards(n), 1 forces single-shard
	// blocks byte-identical to format version 1. Shard count changes the
	// output bytes (format version 2) but never the error bound.
	Shards int
	// ADPSampleShards, when positive, amortizes ADP re-evaluations: the
	// VQ/VQT/MT trial compressions run on only a contiguous particle
	// prefix of the batch covering this many shards (at real shard size),
	// and the winner — judged on trial output sizes — then encodes the
	// full batch once. This cuts an evaluation batch's cost from ~4× to
	// ~(1 + 3·S/K)× of a plain batch. 0 (the default) keeps the paper's
	// full-batch trials and the historical output bytes. Sampling can
	// change which method wins a round, and therefore the output bytes,
	// exactly the way Shards does — deterministically for a fixed (input,
	// params), never affecting the error bound, and invisibly to the
	// decoder, which reads the method from each block header.
	ADPSampleShards int
	// Pool bounds the goroutines used for shard- and ADP-trial-level
	// parallelism. A nil pool runs serially; pool size never changes the
	// output bytes.
	Pool *pool.Pool
	// Tel, when non-nil, attaches pipeline instrumentation (stage timings,
	// ADP decisions, quantization scope rates). Nil disables it at
	// near-zero cost; telemetry never changes the output bytes.
	Tel *Telemetry
	// Budget, when non-nil, bounds the decoder's in-flight allocations that
	// are driven by claimed lengths in untrusted blocks (output matrices,
	// entropy payload counts, code tables, LZ original sizes). Each
	// DecodeBatch opens one transaction against it; rejections surface as
	// errors wrapping budget.ErrExceeded, never as corruption. Encoding is
	// not governed — encoder allocations are proportional to caller input.
	Budget *budget.Budget
	// FaultHook, when non-nil, is called at the start of every shard encode
	// (op "encode_shard") and decode (op "decode_shard") with the shard
	// index. It is a fault-injection seam for tests — a hook that panics
	// exercises the pool's panic containment; one that cancels a context
	// exercises cooperative cancellation. Production configs leave it nil.
	FaultHook func(op string, shard int)
}

func (p *Params) fill() error {
	if !(p.ErrorBound > 0) {
		return fmt.Errorf("core: ErrorBound must be positive, got %v", p.ErrorBound)
	}
	if p.QuantScale == 0 {
		p.QuantScale = quant.DefaultScale
	}
	if p.QuantScale < 4 {
		return fmt.Errorf("core: QuantScale must be >= 4, got %d", p.QuantScale)
	}
	if p.Method > MT {
		return fmt.Errorf("core: unknown Method %d", uint8(p.Method))
	}
	if p.Sequence > Seq1 {
		return fmt.Errorf("core: unknown Sequence %d", uint8(p.Sequence))
	}
	if p.AdaptInterval <= 0 {
		p.AdaptInterval = DefaultAdaptInterval
	}
	if p.Shards < 0 || p.Shards > MaxShards {
		return fmt.Errorf("core: Shards must be in [0, %d], got %d", MaxShards, p.Shards)
	}
	if p.ADPSampleShards < 0 || p.ADPSampleShards > MaxShards {
		return fmt.Errorf("core: ADPSampleShards must be in [0, %d], got %d", MaxShards, p.ADPSampleShards)
	}
	return nil
}

// Block format constants.
const (
	blockMagic   = "MDZB"
	formatVer1   = 1 // single payload section per axis
	formatVer2   = 2 // sharded: shard count + per-shard sub-sections
	firstLorenzo = 0 // first snapshot of batch: spatial Lorenzo (no ref yet)
	firstRef     = 1 // first snapshot of batch: snapshot-0 reference
	firstVQ      = 2 // first snapshot of batch: VQ level prediction
)

// ErrCorrupt is returned for malformed blocks.
var ErrCorrupt = errors.New("core: corrupt MDZ block")

// corrupt wraps a low-level parse error so errors.Is(err, ErrCorrupt)
// holds while the underlying cause stays inspectable. Budget rejections
// and context cancellations pass through unwrapped: they describe the
// decoder's environment, not the input bytes, and must stay matchable as
// exactly what they are.
func corrupt(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrCorrupt) {
		return err
	}
	if errors.Is(err, budget.ErrExceeded) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrCorrupt, err)
}

// ctxErr reports ctx's cancellation state; a nil ctx never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ErrOrder is returned when a Decoder receives blocks out of order.
var ErrOrder = errors.New("core: MT block requires the preceding blocks to be decoded first")

// Encoder compresses one axis of a trajectory, batch by batch.
type Encoder struct {
	p     Params
	q     *quant.Quantizer
	km    *kmeans.Result
	ref   []float64 // reconstructed snapshot 0 of the run (set after batch 0)
	cur   Method    // concrete method in use (ADP resolves to one of the three)
	batch int       // batches encoded so far
	tel   Telemetry // by value: zero struct (all-nil fields) when disabled
	// Stats accumulates encoder-side statistics for benchmarks.
	Stats Stats
}

// Stats records encoder activity, exported for the benchmark harness.
type Stats struct {
	// Batches counts encoded batches; Evaluations counts ADP trials.
	Batches, Evaluations int
	// RawBytes and CompressedBytes accumulate totals.
	RawBytes, CompressedBytes int64
}

// NewEncoder returns an Encoder for one axis with the given parameters.
func NewEncoder(p Params) (*Encoder, error) {
	if err := p.fill(); err != nil {
		return nil, err
	}
	q, err := quant.New(p.ErrorBound, p.QuantScale)
	if err != nil {
		return nil, err
	}
	cur := p.Method
	if cur == ADP {
		cur = VQT // provisional; first batch evaluation overrides
	}
	e := &Encoder{p: p, q: q, cur: cur}
	if p.Tel != nil {
		e.tel = *p.Tel
	}
	return e, nil
}

// Method reports the concrete method currently selected (useful under ADP).
func (e *Encoder) Method() Method { return e.cur }

// shardCount resolves the effective shard count for an n-particle batch.
func (e *Encoder) shardCount(n int) int {
	k := e.p.Shards
	if k == 0 {
		k = DefaultShards(n)
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	return k
}

// EncodeBatch compresses a buffer of snapshots (each []float64 of equal
// length) into a self-describing block. Snapshots are consumed in
// simulation order; the batch must not be empty.
func (e *Encoder) EncodeBatch(batch [][]float64) ([]byte, error) {
	return e.EncodeBatchContext(nil, batch)
}

// EncodeBatchContext is EncodeBatch with cooperative cancellation: shard
// row loops and the work pool poll ctx, so a cancelled multi-gigabyte
// batch aborts within a few row kernels and returns ctx.Err(). The
// encoder's cross-batch state (level model, MT reference, batch counter)
// is only advanced after a fully successful encode, so a cancelled call
// leaves the encoder exactly as it was — retrying the same batch produces
// the same bytes. A nil ctx disables cancellation.
func (e *Encoder) EncodeBatchContext(ctx context.Context, batch [][]float64) ([]byte, error) {
	if len(batch) == 0 {
		return nil, errors.New("core: empty batch")
	}
	n := len(batch[0])
	for i, s := range batch {
		if len(s) != n {
			return nil, fmt.Errorf("core: snapshot %d has %d values, want %d", i, len(s), n)
		}
	}
	sw := e.tel.BatchNS.Start()
	if e.km == nil {
		if err := e.initLevels(batch[0]); err != nil {
			return nil, err
		}
	}

	// ADP re-evaluates every AdaptInterval batches. Batch 1 is also always
	// evaluated: batch 0 has no MT reference yet, so its winner can be
	// unrepresentative of steady-state behaviour.
	adapt := e.p.Method == ADP && (e.batch <= 1 || e.batch%e.p.AdaptInterval == 0)
	var out []byte
	var recon0 []float64
	var err error
	if adapt {
		out, recon0, err = e.adaptTrial(ctx, batch)
	} else {
		m := e.cur
		if e.p.Method != ADP {
			m = e.p.Method
		}
		out, recon0, err = e.encodeWith(ctx, m, batch, 0)
	}
	if err != nil {
		return nil, err
	}
	if e.ref == nil {
		e.ref = recon0
	}
	e.batch++
	e.Stats.Batches++
	e.Stats.RawBytes += int64(len(batch) * n * 8)
	e.Stats.CompressedBytes += int64(len(out))
	e.tel.Batches.Inc()
	sw.Stop()
	return out, nil
}

// adaptTrial runs one ADP evaluation round. The VQ/VQT/MT trio runs on a
// shard-prefix sample of the batch when Params.ADPSampleShards allows, else
// on the whole batch, and the first smallest trial block in VQ, VQT, MT
// order selects e.cur. A sampled round then encodes the whole batch with
// the winner; a full round returns the winner's trial block.
func (e *Encoder) adaptTrial(ctx context.Context, batch [][]float64) (out []byte, recon0 []float64, err error) {
	e.Stats.Evaluations++
	e.tel.Evals.Inc()
	prev := e.cur
	trial, shards := batch, 0
	sub, sampled := e.sampleBatch(batch)
	if sampled {
		// Amortized evaluation: only the trial sizes compete, so the
		// sub-batch keeps the full batch's shard size to keep the per-shard
		// overhead fraction representative.
		e.tel.SampledEvals.Inc()
		trial, shards = sub, e.p.ADPSampleShards
	}
	// The three trial compressions are independent; run them concurrently
	// on the shared pool and pick the winner in fixed method order so the
	// selection is deterministic.
	methods := [...]Method{VQ, VQT, MT}
	var blks [3][]byte
	var r0s [3][]float64
	err = e.p.Pool.RunContext(ctx, len(methods), func(i int) error {
		var terr error
		blks[i], r0s[i], terr = e.encodeWith(ctx, methods[i], trial, shards)
		return terr
	})
	if err != nil {
		return nil, nil, err
	}
	best := 0
	for i := range methods {
		if len(blks[i]) < len(blks[best]) {
			best = i
		}
	}
	e.cur = methods[best]
	out, recon0 = blks[best], r0s[best]
	if sampled {
		if out, recon0, err = e.encodeWith(ctx, e.cur, batch, 0); err != nil {
			return nil, nil, err
		}
	}
	e.tel.Wins[e.cur].Inc()
	if e.cur != prev {
		e.tel.Transitions.Inc()
	}
	return out, recon0, nil
}

// initLevels runs the sampled optimal k-means once per encoder lifetime.
func (e *Encoder) initLevels(snapshot0 []float64) error {
	sw := e.tel.FitNS.Start()
	defer sw.Stop()
	res, err := kmeans.Cluster1D(snapshot0, e.p.KMeans)
	if err != nil {
		// No finite data to cluster: fall back to a unit level model; the
		// outlier path keeps correctness.
		res = kmeans.Result{K: 1, LevelDistance: 1, LevelOrigin: 0}
	}
	if !(res.LevelDistance > 0) || math.IsInf(res.LevelDistance, 0) || math.IsNaN(res.LevelOrigin) {
		res.LevelDistance, res.LevelOrigin = 1, 0
	}
	e.km = &res
	return nil
}

// sampleBatch returns the contiguous particle prefix of batch covering the
// first ADPSampleShards shards at the batch's real shard size, or ok=false
// when sampling is disabled or would not shrink the trial (sample count >=
// effective shard count). MT reference prediction indexes e.ref by particle
// position, so a prefix sub-batch stays a valid trial input for every
// method.
func (e *Encoder) sampleBatch(batch [][]float64) ([][]float64, bool) {
	sample := e.p.ADPSampleShards
	if sample <= 0 {
		return nil, false
	}
	n := len(batch[0])
	k := e.shardCount(n)
	if sample >= k {
		return nil, false
	}
	m := shardBounds(n, k)[sample]
	sub := make([][]float64, len(batch))
	for t, snap := range batch {
		sub[t] = snap[:m]
	}
	return sub, true
}

// encodeWith compresses batch with concrete method m without mutating
// encoder state: it shards the batch along the particle axis, encodes the
// shards concurrently (assembled in index order, so bytes are
// deterministic), and returns the block plus the reconstruction of the
// batch's first snapshot (the MT reference candidate for batch 0). k is
// the shard count, k <= 0 resolving the configured one; sampled ADP trials
// pass the sample count so trial shards keep the full batch's shard size.
func (e *Encoder) encodeWith(ctx context.Context, m Method, batch [][]float64, k int) (blk []byte, recon0 []float64, err error) {
	bs, n := len(batch), len(batch[0])
	if k <= 0 {
		k = e.shardCount(n)
	} else if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	firstPred := byte(firstVQ)
	if m == MT {
		if e.ref != nil {
			firstPred = firstRef
		} else {
			firstPred = firstLorenzo
		}
	}
	bounds := shardBounds(n, k)
	recon0 = make([]float64, n)
	shards := make([][]byte, k)
	// Chunked run: each participating worker owns a fixed contiguous shard
	// range and one scratch acquisition serves its whole chunk, so hot
	// buffers (Huffman slabs, section payloads) stay with the worker instead
	// of migrating through the global sync.Pool once per shard.
	err = e.p.Pool.RunContextChunked(ctx, k, func(cl, ch int) error {
		sc := encScratchPool.Get().(*encodeScratch)
		defer encScratchPool.Put(sc)
		e.tel.ScratchAcquires.Inc()
		for s := cl; s < ch; s++ {
			if cerr := ctxErr(ctx); cerr != nil {
				return cerr
			}
			lo, hi := bounds[s], bounds[s+1]
			payload, serr := e.encodeShard(ctx, sc, m, batch, lo, hi, firstPred, recon0[lo:hi], s)
			if serr != nil {
				return serr
			}
			shards[s] = payload
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Header. Version 1 (single section) for K=1 keeps byte-for-byte
	// compatibility with pre-sharding blocks.
	ver := byte(formatVer1)
	if k > 1 {
		ver = formatVer2
	}
	blk = append(blk, blockMagic...)
	blk = append(blk, ver, byte(m), byte(e.p.Sequence), firstPred)
	blk = bitstream.AppendFloat64(blk, e.p.ErrorBound)
	blk = bitstream.AppendUvarint(blk, uint64(e.p.QuantScale))
	blk = bitstream.AppendUvarint(blk, uint64(bs))
	blk = bitstream.AppendUvarint(blk, uint64(n))
	blk = bitstream.AppendFloat64(blk, e.km.LevelDistance)
	blk = bitstream.AppendFloat64(blk, e.km.LevelOrigin)
	if ver == formatVer1 {
		blk = bitstream.AppendSection(blk, shards[0])
	} else {
		blk = bitstream.AppendUvarint(blk, uint64(k))
		for s, payload := range shards {
			blk = bitstream.AppendShardSection(blk, bounds[s+1]-bounds[s], payload)
		}
	}
	return blk, recon0, nil
}

// encodeShard compresses the particle range [lo, hi) of batch with method m
// into one LZ-compressed payload carrying its own Huffman tables and
// level-delta chain. recon0 (length hi-lo) receives the reconstruction of
// the shard's first snapshot. encodeShard reads but never mutates encoder
// state, so shards and ADP trials can run concurrently. sc is the calling
// chunk's scratch: one acquisition serves every shard the chunk encodes.
func (e *Encoder) encodeShard(ctx context.Context, sc *encodeScratch, m Method, batch [][]float64, lo, hi int, firstPred byte, recon0 []float64, shard int) ([]byte, error) {
	if e.p.FaultHook != nil {
		e.p.FaultHook("encode_shard", shard)
	}
	bs, sn := len(batch), hi-lo
	bins := intsCap(sc.bins, bs*sn) // codes in serialized order
	sc.bins = bins
	levels := sc.levels[:0]          // J stream: level-index deltas (VQ-coded snapshots)
	outliers := sc.outliers[:0]      // exact values in snapshot-major traversal order
	recon := floatsCap(sc.recon, sn) // reconstruction of the latest snapshot row

	// The fused kernels write each row's codes straight into their
	// serialized position: Seq-1 is snapshot-major (row t at t*sn, stride
	// 1), Seq-2 is particle-major (row t at offset t, stride bs), so no
	// separate interleave pass runs.
	stride, rowStep := 1, sn
	if e.p.Sequence == Seq2 {
		stride, rowStep = bs, 1
	}

	// Scope counters accumulate locally and flush once per shard, keeping
	// atomic traffic off the per-value path.
	nOut := 0
	eb := e.p.ErrorBound
	qsw := e.tel.QuantNS.Start()
	for t, snap := range batch {
		// One poll per row kernel: cheap against the O(sn) work below, and
		// fine-grained enough that a deadline aborts within a few rows. The
		// deferred scratch Put above still runs, so cancellation never
		// strands pooled state.
		if err := ctxErr(ctx); err != nil {
			qsw.Stop()
			return nil, err
		}
		data := snap[lo:hi]
		base := t * rowStep
		rowOut := 0
		vqSnapshot := m == VQ || (m == VQT && t == 0)
		switch {
		case vqSnapshot:
			var lvlRow []int
			levels, lvlRow = extendInts(levels, sn)
			rowOut = e.q.QuantizeBlockVQ(data, e.km.LevelDistance, e.km.LevelOrigin, bins, base, stride, lvlRow, recon)
		case t == 0 && m == MT && firstPred == firstRef:
			rowOut = e.q.QuantizeBlock(data, e.ref[lo:hi], bins, base, stride, recon)
		case t == 0 && m == MT:
			// Very first batch of the run: no reference exists yet, so the
			// initial snapshot is coded with spatial Lorenzo (restarting at
			// each shard boundary). This stays scalar — every prediction
			// depends on the previous value's possibly-bounded recon, so
			// the outlier fix-up can't be deferred past the next value.
			prev := 0.0
			ci := base
			for i, d := range data {
				var code int
				code, prev, outliers = e.q.Code(d, prev, outliers)
				if code == quant.Reserved {
					nOut++
				}
				bins[ci] = code
				recon[i] = prev
				ci += stride
			}
		default: // time-based prediction from the previous snapshot
			rowOut = e.q.QuantizeBlock(data, recon, bins, base, stride, recon)
		}
		if rowOut > 0 {
			// Out-of-scope fix-up: the kernels left the original value in
			// recon[i] under each Reserved code. Store it exactly and swap
			// in the bounded reconstruction, in traversal order, before the
			// next row's time prediction reads recon.
			nOut += rowOut
			ci := base
			for i := range recon {
				if bins[ci] == quant.Reserved {
					outliers, recon[i] = quant.AppendBounded(outliers, recon[i], eb)
				}
				ci += stride
			}
		}
		if t == 0 {
			copy(recon0, recon)
		}
	}
	qsw.Stop()
	e.tel.Values.Add(int64(bs * sn))
	e.tel.Outliers.Add(int64(nOut))
	sc.recon = recon
	sc.levels, sc.outliers = levels, outliers

	// Assemble payload sections, then run the lossless stage.
	hsw := e.tel.HuffNS.Start()
	payload, err := sc.huff.EncodeInts(sc.payload[:0], bins)
	if err != nil {
		return nil, err
	}
	e.tel.observeHuffman(sc.huff.LastStats())
	payload, err = sc.huff.EncodeInts(payload, levels)
	if err != nil {
		return nil, err
	}
	e.tel.observeHuffman(sc.huff.LastStats())
	hsw.Stop()
	payload = bitstream.AppendSection(payload, outliers)
	sc.payload = payload
	lsw := e.tel.BackendNS.Start()
	out, err := lossless.LZ{}.Compress(payload)
	lsw.Stop()
	e.tel.BackendInBytes.Add(int64(len(payload)))
	e.tel.BackendOutBytes.Add(int64(len(out)))
	return out, err
}

// Decoder decompresses blocks produced by an Encoder. Blocks must be fed in
// encode order (the MT reference is carried across batches).
type Decoder struct {
	p   Params
	ref []float64
	tel Telemetry // by value: zero struct (all-nil fields) when disabled
}

// NewDecoder returns a Decoder. Only Pool, Tel, Budget and FaultHook are
// consulted from p (other parameters are read from block headers); a zero
// Params selects defaults.
func NewDecoder(p Params) *Decoder {
	d := &Decoder{p: p}
	if p.Tel != nil {
		d.tel = *p.Tel
	}
	return d
}

// DecodeBatch reconstructs the snapshots of one block, decoding particle
// shards concurrently on the configured pool.
func (d *Decoder) DecodeBatch(blk []byte) ([][]float64, error) {
	return d.DecodeBatchContext(nil, blk)
}

// DecodeBatchContext is DecodeBatch with cooperative cancellation (shard
// row loops and the work pool poll ctx; nil disables it). Like the
// encoder, the decoder's cross-batch state is only advanced on success,
// so a cancelled decode can be retried. When Params.Budget is set, every
// claimed section length and then the output matrix are charged against
// one budget transaction scoped to this call.
func (d *Decoder) DecodeBatchContext(ctx context.Context, blk []byte) ([][]float64, error) {
	sw := d.tel.BatchNS.Start()
	h, err := parseHeader(blk)
	if err != nil {
		return nil, err
	}
	q, err := quant.New(h.eb, h.scale)
	if err != nil {
		return nil, ErrCorrupt
	}
	if h.method == MT && h.firstPred == firstRef {
		if d.ref == nil || len(d.ref) != h.n {
			return nil, ErrOrder
		}
	}
	tx := d.p.Budget.Begin()
	defer tx.Close()
	scs, err := d.decodeSections(ctx, h, tx)
	defer releaseScratch(scs)
	if err != nil {
		return nil, err
	}
	// Every shard decoded to bs×sn codes, so decoded data backs the claimed
	// geometry. Only now charge and allocate the output matrix, the
	// decoder's single largest claimed-size allocation. The charge includes
	// each row's slice header: with no particles, no decoded data backs bs.
	if err := tx.Reserve(int64(h.bs) * (rowHeaderBytes + 8*int64(h.n))); err != nil {
		return nil, err
	}
	out := make([][]float64, h.bs)
	for t := range out {
		out[t] = make([]float64, h.n)
	}
	offs := shardOffsets(h.shards)
	err = d.p.Pool.RunContext(ctx, len(h.shards), func(s int) error {
		return d.decodeShard(ctx, q, h, scs[s], offs[s], h.shards[s].particles, out)
	})
	if err != nil {
		return nil, err
	}
	if d.ref == nil {
		d.ref = append([]float64(nil), out[0]...)
	}
	d.tel.Batches.Inc()
	sw.Stop()
	return out, nil
}

// decodeSections entropy-decodes every shard of h, concurrently, each into
// its own pooled scratch, and checks each shard's bin count against the
// claimed geometry. Callers allocate output only after it succeeds, and
// hand the scratches back with releaseScratch whether or not it does.
func (d *Decoder) decodeSections(ctx context.Context, h *header, tx *budget.Tx) ([]*decodeScratch, error) {
	scs := make([]*decodeScratch, len(h.shards))
	err := d.p.Pool.RunContext(ctx, len(h.shards), func(s int) error {
		if d.p.FaultHook != nil {
			d.p.FaultHook("decode_shard", s)
		}
		sc := decScratchPool.Get().(*decodeScratch)
		d.tel.ScratchAcquires.Inc()
		scs[s] = sc
		return d.sections(sc, h.shards[s].body, h.bs*h.shards[s].particles, tx)
	})
	return scs, err
}

// decodeShard reconstructs one shard's particle columns [lo, lo+sn) into
// out from its decoded streams in sc. Shards write disjoint column ranges,
// so they are safe to decode concurrently.
func (d *Decoder) decodeShard(ctx context.Context, q *quant.Quantizer, h *header, sc *decodeScratch, lo, sn int, out [][]float64) error {
	bs := h.bs
	bins, levels, outliers := sc.bins, sc.levels, sc.outliers
	// Strided reads pull each row straight out of the serialized order —
	// Seq-2 streams are no longer deinterleaved into a scratch copy.
	stride, rowStep := 1, sn
	if h.seq == Seq2 {
		stride, rowStep = bs, 1
	}
	// The kernels restore outliers inline, in traversal order, so each row
	// is final before the next row's time prediction reads it.
	opos := 0
	levelPos := 0
	qsw := d.tel.QuantNS.Start()
	defer qsw.Stop()
	for t := 0; t < bs; t++ {
		// Same per-row cancellation granularity as the encoder's shard loop.
		if err := ctxErr(ctx); err != nil {
			return err
		}
		base := t * rowStep
		snap := out[t][lo : lo+sn]
		var err error
		vqSnapshot := h.method == VQ || (h.method == VQT && t == 0) ||
			(h.method == MT && t == 0 && h.firstPred == firstVQ)
		switch {
		case vqSnapshot:
			if len(levels)-levelPos < sn {
				return ErrCorrupt
			}
			lvlRow := levels[levelPos : levelPos+sn]
			levelPos += sn
			opos, err = q.DequantizeBlockVQ(bins, base, stride, lvlRow, h.lam, h.mu, snap, outliers, opos)
		case t == 0 && h.method == MT && h.firstPred == firstLorenzo:
			// Scalar, like the encoder: each prediction needs the previous
			// value's final (possibly outlier-restored) reconstruction.
			prev := 0.0
			ci := base
			for i := 0; i < sn && err == nil; i++ {
				prev, opos, err = q.Decode(bins[ci], prev, outliers, opos)
				snap[i] = prev
				ci += stride
			}
		case t == 0 && h.method == MT && h.firstPred == firstRef:
			opos, err = q.DequantizeBlock(bins, base, stride, d.ref[lo:lo+sn], snap, outliers, opos)
		default: // time-based
			opos, err = q.DequantizeBlock(bins, base, stride, out[t-1][lo:lo+sn], snap, outliers, opos)
		}
		if err != nil {
			return corrupt(err)
		}
	}
	// The encoder writes exactly the three sections, and the rows consume
	// every level delta and every outlier it stores. Anything left over
	// marks a forged or damaged shard.
	if opos != len(outliers) || levelPos != len(levels) || sc.rest != 0 {
		return ErrCorrupt
	}
	return nil
}

// shardSec is one parsed shard sub-section.
type shardSec struct {
	particles int
	body      []byte // compressed shard payload
}

// shardOffsets returns each shard's starting particle column.
func shardOffsets(shards []shardSec) []int {
	offs := make([]int, len(shards))
	off := 0
	for s := range shards {
		offs[s] = off
		off += shards[s].particles
	}
	return offs
}

// header is the parsed block preamble.
type header struct {
	method    Method
	seq       Sequence
	firstPred byte
	eb        float64
	scale     int
	bs, n     int
	lam, mu   float64
	shards    []shardSec
}

// maxBlockValues caps the geometry (bs × n) a block header may claim.
const maxBlockValues = 1 << 33

// rowHeaderBytes is the size of one output row's []float64 header.
const rowHeaderBytes = 24

func parseHeader(blk []byte) (*header, error) {
	br := bitstream.NewByteReader(blk)
	magic, err := br.ReadBytes(4)
	if err != nil || string(magic) != blockMagic {
		return nil, ErrCorrupt
	}
	ver, err := br.ReadByte()
	if err != nil || (ver != formatVer1 && ver != formatVer2) {
		return nil, ErrCorrupt
	}
	h := &header{}
	mByte, err := br.ReadByte()
	if err != nil {
		return nil, corrupt(err)
	}
	h.method = Method(mByte)
	if h.method != VQ && h.method != VQT && h.method != MT {
		return nil, ErrCorrupt
	}
	seqByte, err := br.ReadByte()
	if err != nil {
		return nil, corrupt(err)
	}
	h.seq = Sequence(seqByte)
	if h.firstPred, err = br.ReadByte(); err != nil {
		return nil, corrupt(err)
	}
	// An unknown firstPred would route MT's snapshot 0 into the time
	// branch, which indexes the (nonexistent) previous snapshot.
	if h.firstPred > firstVQ {
		return nil, ErrCorrupt
	}
	if h.eb, err = br.ReadFloat64(); err != nil {
		return nil, corrupt(err)
	}
	scale, err := br.ReadUvarint()
	if err != nil {
		return nil, corrupt(err)
	}
	h.scale = int(scale)
	bs64, err := br.ReadUvarint()
	if err != nil {
		return nil, corrupt(err)
	}
	n64, err := br.ReadUvarint()
	if err != nil {
		return nil, corrupt(err)
	}
	h.bs, h.n = int(bs64), int(n64)
	// The cap counts an empty row as one value, so a block of zero-particle
	// rows cannot claim an unbounded row count.
	if h.bs <= 0 || h.n < 0 || h.bs > maxBlockValues/max(h.n, 1) {
		return nil, ErrCorrupt
	}
	if h.lam, err = br.ReadFloat64(); err != nil {
		return nil, corrupt(err)
	}
	if h.mu, err = br.ReadFloat64(); err != nil {
		return nil, corrupt(err)
	}
	if ver == formatVer1 {
		body, err := br.ReadSection()
		if err != nil {
			return nil, corrupt(err)
		}
		h.shards = []shardSec{{particles: h.n, body: body}}
		return h, nil
	}
	k64, err := br.ReadUvarint()
	if err != nil {
		return nil, corrupt(err)
	}
	if k64 < 1 || k64 > MaxShards || int(k64) > h.n {
		return nil, ErrCorrupt
	}
	h.shards = make([]shardSec, int(k64))
	sum := 0
	for s := range h.shards {
		particles, body, err := br.ReadShardSection()
		if err != nil {
			return nil, corrupt(err)
		}
		if particles <= 0 || particles > h.n {
			return nil, ErrCorrupt
		}
		h.shards[s] = shardSec{particles: particles, body: body}
		sum += particles
	}
	if sum != h.n {
		return nil, ErrCorrupt
	}
	return h, nil
}

// sections decompresses one shard payload into sc: the bin stream, the
// level-delta stream, the outlier bytes and the count of payload bytes
// after them. It fails unless the bin stream holds exactly the shard's
// claimed values. sc's streams alias its buffers and the payload, and must
// not outlive its use.
func (d *Decoder) sections(sc *decodeScratch, body []byte, values int, tx *budget.Tx) error {
	lsw := d.tel.BackendNS.Start()
	payload, err := lossless.LZ{}.DecompressTx(body, tx)
	lsw.Stop()
	d.tel.BackendInBytes.Add(int64(len(body)))
	d.tel.BackendOutBytes.Add(int64(len(payload)))
	if err != nil {
		return corrupt(err)
	}
	sc.br.Reset(payload)
	pr := &sc.br
	hsw := d.tel.HuffNS.Start()
	bins, err := sc.huff.DecodeIntsTx(pr, sc.bins, tx)
	if err != nil {
		return corrupt(err)
	}
	sc.bins = bins
	levels, err := sc.huff.DecodeIntsTx(pr, sc.levels, tx)
	if err != nil {
		return corrupt(err)
	}
	sc.levels = levels
	hsw.Stop()
	if sc.outliers, err = pr.ReadSection(); err != nil {
		return corrupt(err)
	}
	sc.rest = pr.Len()
	if len(bins) != values {
		return ErrCorrupt
	}
	return nil
}
