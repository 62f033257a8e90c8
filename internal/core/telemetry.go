package core

import (
	"strings"

	"github.com/mdz/mdz/internal/huffman"
	"github.com/mdz/mdz/internal/telemetry"
)

// Telemetry is the instrument set threaded through an Encoder or Decoder.
// Every field is nil-safe, so a zero Telemetry (the disabled state) keeps
// all instrumentation call sites valid at near-zero cost. Encoders of the
// three axes share the stage histograms and scope counters but carry
// per-axis ADP counters; use EncoderInstruments/DecoderInstruments to build
// consistently named sets on a registry.
//
// Stage attribution note: under ADP, trial compressions contribute to the
// stage timings and scope counters exactly like emitted batches — they are
// real pipeline work, which is the point of asking "which stage is hot".
// ADP decision counters (Evals, Wins, Transitions) track the selection
// itself.
type Telemetry struct {
	// Stage wall time, nanoseconds, one observation per shard (FitNS: one
	// per encoder lifetime; BatchNS: one per axis batch). QuantNS is the
	// fused prediction+quantization loop on encode and the dequantization
	// loop on decode; the two stages are a single pass in this pipeline.
	FitNS, QuantNS, HuffNS, BackendNS, BatchNS *telemetry.Histogram
	// Per-shard Huffman table overhead and alphabet size (encode side).
	HuffTableBytes, HuffAlphabet *telemetry.Histogram
	// Values counts quantized values; Outliers the subset that fell out of
	// quantization scope (the paper's unpredictable points). Encode side.
	Values, Outliers *telemetry.Counter
	// Lossless-stage byte flow (uncompressed in, compressed out on
	// encode; reversed on decode).
	BackendInBytes, BackendOutBytes *telemetry.Counter
	// Batches counts per-axis batch operations (3 per block).
	Batches *telemetry.Counter
	// ADP decision tracking, per axis: evaluation rounds, the winner of
	// each round, and rounds whose winner differed from the incumbent.
	Evals, Transitions *telemetry.Counter
	Wins               [4]*telemetry.Counter // indexed by Method
	// SampledEvals counts the subset of Evals decided on a sampled shard
	// prefix (Params.ADPSampleShards). Per axis.
	SampledEvals *telemetry.Counter
	// ScratchAcquires counts scratch-state acquisitions from the global
	// pools. On encode it is one per chunk of a sharded run, and a run has
	// min(shards, Workers) chunks: a rate near the shard rate means
	// affinity is not engaging, and a rate near the worker count per batch
	// is the healthy state. On decode it is one per shard, because each
	// shard holds its decoded streams until the block's output rows are
	// allocated.
	ScratchAcquires *telemetry.Counter
}

// EncoderInstruments builds the encode-side instrument set for one axis
// ("x", "y" or "z") on reg. Stage histograms and scope counters share names
// across axes and therefore aggregate; ADP counters are per-axis. A nil
// registry returns nil (instrumentation disabled).
func EncoderInstruments(reg *telemetry.Registry, axis string) *Telemetry {
	if reg == nil {
		return nil
	}
	t := &Telemetry{
		FitNS:           reg.Histogram("compress.stage.kmeans_fit.ns", telemetry.DurationBounds()),
		QuantNS:         reg.Histogram("compress.stage.predict_quant.ns", telemetry.DurationBounds()),
		HuffNS:          reg.Histogram("compress.stage.huffman.ns", telemetry.DurationBounds()),
		BackendNS:       reg.Histogram("compress.stage.lossless.ns", telemetry.DurationBounds()),
		BatchNS:         reg.Histogram("compress.stage.batch.ns", telemetry.DurationBounds()),
		HuffTableBytes:  reg.Histogram("compress.huffman.table.bytes", telemetry.SizeBounds()),
		HuffAlphabet:    reg.Histogram("compress.huffman.alphabet", telemetry.CountBounds()),
		Values:          reg.Counter("compress.quant.values"),
		Outliers:        reg.Counter("compress.quant.outliers"),
		BackendInBytes:  reg.Counter("compress.lossless.in.bytes"),
		BackendOutBytes: reg.Counter("compress.lossless.out.bytes"),
		Batches:         reg.Counter("compress.axis_batches"),
		Evals:           reg.Counter("compress.adp." + axis + ".evals"),
		Transitions:     reg.Counter("compress.adp." + axis + ".transitions"),
		SampledEvals:    reg.Counter("compress.adp." + axis + ".sampled_evals"),
		ScratchAcquires: reg.Counter("compress.scratch.acquires"),
	}
	for _, m := range []Method{VQ, VQT, MT} {
		t.Wins[m] = reg.Counter("compress.adp." + axis + ".win." + strings.ToLower(m.String()))
	}
	return t
}

// DecoderInstruments builds the decode-side instrument set on reg (decode
// shards are axis-anonymous, so there is one shared set). A nil registry
// returns nil.
func DecoderInstruments(reg *telemetry.Registry) *Telemetry {
	if reg == nil {
		return nil
	}
	return &Telemetry{
		QuantNS:         reg.Histogram("decompress.stage.dequant.ns", telemetry.DurationBounds()),
		HuffNS:          reg.Histogram("decompress.stage.huffman.ns", telemetry.DurationBounds()),
		BackendNS:       reg.Histogram("decompress.stage.lossless.ns", telemetry.DurationBounds()),
		BatchNS:         reg.Histogram("decompress.stage.batch.ns", telemetry.DurationBounds()),
		BackendInBytes:  reg.Counter("decompress.lossless.in.bytes"),
		BackendOutBytes: reg.Counter("decompress.lossless.out.bytes"),
		Batches:         reg.Counter("decompress.axis_batches"),
		ScratchAcquires: reg.Counter("decompress.scratch.acquires"),
	}
}

// observeHuffman records one EncodeInts outcome.
func (t *Telemetry) observeHuffman(st huffman.EncodeStats) {
	t.HuffTableBytes.Observe(int64(st.TableBytes))
	t.HuffAlphabet.Observe(int64(st.Symbols))
}
