// Fused block kernels for the predict→quantize hot path. Each kernel makes
// a single pass over a snapshot row with zero function calls per value and
// writes bin codes directly in their serialized order via (base, stride)
// indexing — Seq-1 rows use stride 1, Seq-2 writes land pre-interleaved
// (base=t, stride=bs), eliminating the separate interleave pass.
//
// The floating-point operations and branch conditions replicate
// Quantizer.Quantize exactly (same expressions, same evaluation order), so
// a block encoded through these kernels is byte-identical to the historical
// per-value path. Out-of-scope values get code Reserved and recon[i] left
// as the original value; the caller restores them (AppendBounded stores
// each and returns its reconstruction) in a follow-up pass over the row, keeping
// appends and byte-writing off the per-value loop. Legitimate codes are
// never Reserved, so a Reserved code in the output marks outliers
// unambiguously. The dequantize kernels need no such pass: they read each
// outlier's stored value as they reach its Reserved code.
package quant

import (
	"math"

	"github.com/mdz/mdz/internal/predictor"
)

// QuantizeBlock quantizes data[i] against preds[i], writing the bin code to
// codes[base+i*stride] and the reconstruction to recon[i]. It returns the
// number of out-of-scope values (code Reserved, recon[i] = data[i]). preds
// and recon may be the same slice: preds[i] is read before recon[i] is
// written, so time-chained rows predict from the previous row's
// reconstruction and overwrite it in place.
func (q *Quantizer) QuantizeBlock(data, preds []float64, codes []int, base, stride int, recon []float64) int {
	eb, twoEB, maxMag, mid := q.eb, q.twoEB, float64(q.maxMag), q.mid
	nOut := 0
	ci := base
	for i, d := range data {
		pred := preds[i]
		k := math.Round((d - pred) / twoEB)
		rec := pred + k*twoEB
		if math.Abs(k) > maxMag || math.IsNaN(k) || math.Abs(rec-d) > eb || math.IsInf(rec, 0) {
			codes[ci] = Reserved
			recon[i] = d
			nOut++
		} else {
			codes[ci] = int(k) + mid
			recon[i] = rec
		}
		ci += stride
	}
	return nOut
}

// QuantizeBlockVQ fuses the VQ predictor (level index + centroid, paper
// Algorithm 1) with quantization: levels[i] receives the level-index delta
// chain (restarting at 0 for the row), codes and recon as in QuantizeBlock.
// Level deltas are emitted for out-of-scope values too, exactly like the
// per-value path.
func (q *Quantizer) QuantizeBlockVQ(data []float64, lam, mu float64, codes []int, base, stride int, levels []int, recon []float64) int {
	eb, twoEB, maxMag, mid := q.eb, q.twoEB, float64(q.maxMag), q.mid
	nOut := 0
	ci := base
	prevLevel := int64(0)
	for i, d := range data {
		// The level predictor, inlined (too large for the compiler's
		// inliner). TestQuantizeBlockVQMatchesLevel pins these expressions
		// to the per-value reference.
		l := math.Round((d - mu) / lam)
		if l > math.MaxInt32 {
			l = math.MaxInt32
		} else if l < math.MinInt32 {
			l = math.MinInt32
		}
		lvl := int64(l)
		pred := mu + lam*float64(lvl)
		levels[i] = int(lvl - prevLevel)
		prevLevel = lvl
		k := math.Round((d - pred) / twoEB)
		rec := pred + k*twoEB
		if math.Abs(k) > maxMag || math.IsNaN(k) || math.Abs(rec-d) > eb || math.IsInf(rec, 0) {
			codes[ci] = Reserved
			recon[i] = d
			nOut++
		} else {
			codes[ci] = int(k) + mid
			recon[i] = rec
		}
		ci += stride
	}
	return nOut
}

// DequantizeBlock reconstructs out[i] from codes[base+i*stride] and
// preds[i]. A Reserved code takes its value from the outlier bytes at
// cursor opos (ReadBounded's encoding under the quantizer's bound), in
// traversal order, so the row is final on return. It returns the advanced
// cursor, or ErrShort when the outlier bytes run out.
func (q *Quantizer) DequantizeBlock(codes []int, base, stride int, preds, out []float64, outliers []byte, opos int) (int, error) {
	twoEB, mid := q.twoEB, q.mid
	preds = preds[:len(out)]
	ci := base
	for i := range out {
		if c := codes[ci]; c == Reserved {
			v, nb, err := ReadBounded(outliers[opos:], q.eb)
			if err != nil {
				return opos, err
			}
			opos += nb
			out[i] = v
		} else {
			out[i] = preds[i] + float64(c-mid)*twoEB
		}
		ci += stride
	}
	return opos, nil
}

// DequantizeBlockVQ is DequantizeBlock fused with the level-centroid
// predictor: levels[i] carries the row's level-index delta chain. The chain
// advances on Reserved codes too, mirroring the encoder.
func (q *Quantizer) DequantizeBlockVQ(codes []int, base, stride int, levels []int, lam, mu float64, out []float64, outliers []byte, opos int) (int, error) {
	twoEB, mid := q.twoEB, q.mid
	levels = levels[:len(out)]
	ci := base
	prevLevel := int64(0)
	for i := range out {
		lvl := prevLevel + int64(levels[i])
		prevLevel = lvl
		if c := codes[ci]; c == Reserved {
			v, nb, err := ReadBounded(outliers[opos:], q.eb)
			if err != nil {
				return opos, err
			}
			opos += nb
			out[i] = v
		} else {
			// predictor.Centroid inlines; only the level index (in
			// QuantizeBlockVQ) is large enough to need hand-fusing.
			out[i] = predictor.Centroid(lvl, lam, mu) + float64(c-mid)*twoEB
		}
		ci += stride
	}
	return opos, nil
}
