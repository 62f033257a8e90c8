package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// crystalBatch mimics crystalline MD data: values vibrate around
// equal-distant levels with occasional level hops over time.
func crystalBatch(bs, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	base := make([]int, n)
	for i := range base {
		base[i] = rng.Intn(12)
	}
	out := make([][]float64, bs)
	for t := range out {
		snap := make([]float64, n)
		for i := range snap {
			if rng.Float64() < 0.01 {
				base[i] += rng.Intn(3) - 1 // rare level hop
			}
			snap[i] = 5.0 + 2.0*float64(base[i]) + rng.NormFloat64()*0.03
		}
		out[t] = snap
	}
	return out
}

// liquidBatch mimics LJ-liquid data: spatially random but extremely smooth
// in time.
func liquidBatch(bs, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]float64, n)
	for i := range pos {
		pos[i] = rng.Float64() * 40
	}
	out := make([][]float64, bs)
	for t := range out {
		snap := make([]float64, n)
		for i := range snap {
			pos[i] += rng.NormFloat64() * 0.002
			snap[i] = pos[i]
		}
		out[t] = snap
	}
	return out
}

func maxAbsErr(a, b [][]float64) float64 {
	worst := 0.0
	for t := range a {
		for i := range a[t] {
			if e := math.Abs(a[t][i] - b[t][i]); e > worst {
				worst = e
			}
		}
	}
	return worst
}

func roundTripMethod(t *testing.T, m Method, batches [][][]float64, eb float64) (compressed, raw int) {
	t.Helper()
	enc, err := NewEncoder(Params{ErrorBound: eb, Method: m})
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(Params{})
	for bi, batch := range batches {
		blk, err := enc.EncodeBatch(batch)
		if err != nil {
			t.Fatalf("%v batch %d: encode: %v", m, bi, err)
		}
		got, err := dec.DecodeBatch(blk)
		if err != nil {
			t.Fatalf("%v batch %d: decode: %v", m, bi, err)
		}
		if len(got) != len(batch) {
			t.Fatalf("%v batch %d: got %d snapshots, want %d", m, bi, len(got), len(batch))
		}
		if e := maxAbsErr(batch, got); e > eb {
			t.Fatalf("%v batch %d: max error %v exceeds bound %v", m, bi, e, eb)
		}
		compressed += len(blk)
		raw += len(batch) * len(batch[0]) * 8
	}
	return compressed, raw
}

func TestRoundTripAllMethodsCrystal(t *testing.T) {
	data := crystalBatch(30, 400, 1)
	batches := [][][]float64{data[:10], data[10:20], data[20:]}
	for _, m := range []Method{VQ, VQT, MT, ADP} {
		comp, raw := roundTripMethod(t, m, batches, 1e-3)
		if comp >= raw {
			t.Errorf("%v: no compression (%d >= %d)", m, comp, raw)
		}
	}
}

func TestRoundTripAllMethodsLiquid(t *testing.T) {
	data := liquidBatch(30, 400, 2)
	batches := [][][]float64{data[:10], data[10:20], data[20:]}
	for _, m := range []Method{VQ, VQT, MT, ADP} {
		roundTripMethod(t, m, batches, 1e-3)
	}
}

func TestMTBeatsVQOnLiquid(t *testing.T) {
	data := liquidBatch(50, 1000, 3)
	var batches [][][]float64
	for i := 0; i < 50; i += 10 {
		batches = append(batches, data[i:i+10])
	}
	mt, _ := roundTripMethod(t, MT, batches, 1e-3)
	vq, _ := roundTripMethod(t, VQ, batches, 1e-3)
	if mt >= vq {
		t.Errorf("MT (%d B) should beat VQ (%d B) on temporally smooth data", mt, vq)
	}
}

func TestVQBeatsTimeOnErraticCrystal(t *testing.T) {
	// Each snapshot re-randomizes level assignment: time prediction is
	// useless, spatial levels are everything.
	rng := rand.New(rand.NewSource(5))
	bs, n := 10, 2000
	batch := make([][]float64, bs)
	for t2 := range batch {
		snap := make([]float64, n)
		for i := range snap {
			snap[i] = 2.0*float64(rng.Intn(10)) + rng.NormFloat64()*0.02
		}
		batch[t2] = snap
	}
	vq, _ := roundTripMethod(t, VQ, [][][]float64{batch}, 1e-2)
	mt, _ := roundTripMethod(t, MT, [][][]float64{batch}, 1e-2)
	if vq >= mt {
		t.Errorf("VQ (%d B) should beat MT (%d B) on erratic crystal data", vq, mt)
	}
}

func TestADPPicksBest(t *testing.T) {
	// ADP must be within a whisker of the best single method.
	for seed := int64(1); seed <= 3; seed++ {
		data := liquidBatch(40, 500, seed)
		var batches [][][]float64
		for i := 0; i < 40; i += 10 {
			batches = append(batches, data[i:i+10])
		}
		sizes := map[Method]int{}
		for _, m := range []Method{VQ, VQT, MT, ADP} {
			sizes[m], _ = roundTripMethod(t, m, batches, 1e-3)
		}
		best := sizes[VQ]
		for _, m := range []Method{VQT, MT} {
			if sizes[m] < best {
				best = sizes[m]
			}
		}
		if float64(sizes[ADP]) > 1.05*float64(best) {
			t.Errorf("seed %d: ADP %d B vs best single %d B", seed, sizes[ADP], best)
		}
	}
}

func TestErrorBoundPropertyRandomData(t *testing.T) {
	f := func(seed int64, ebExp uint8, mRaw uint8) bool {
		m := Method(mRaw % 4)
		eb := math.Pow(10, -1-float64(ebExp%5))
		rng := rand.New(rand.NewSource(seed))
		bs, n := 1+rng.Intn(6), 1+rng.Intn(80)
		var batches [][][]float64
		for b := 0; b < 3; b++ {
			batch := make([][]float64, bs)
			for t2 := range batch {
				snap := make([]float64, n)
				for i := range snap {
					snap[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(4))-1)
				}
				batch[t2] = snap
			}
			batches = append(batches, batch)
		}
		enc, err := NewEncoder(Params{ErrorBound: eb, Method: m})
		if err != nil {
			return false
		}
		dec := NewDecoder(Params{})
		for _, batch := range batches {
			blk, err := enc.EncodeBatch(batch)
			if err != nil {
				return false
			}
			got, err := dec.DecodeBatch(blk)
			if err != nil {
				return false
			}
			if maxAbsErr(batch, got) > eb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSequenceModes(t *testing.T) {
	data := liquidBatch(10, 300, 9)
	for _, seq := range []Sequence{Seq1, Seq2} {
		enc, err := NewEncoder(Params{ErrorBound: 1e-3, Method: MT, Sequence: seq})
		if err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(Params{})
		blk, err := enc.EncodeBatch(data)
		if err != nil {
			t.Fatalf("%v: %v", seq, err)
		}
		got, err := dec.DecodeBatch(blk)
		if err != nil {
			t.Fatalf("%v: %v", seq, err)
		}
		if e := maxAbsErr(data, got); e > 1e-3 {
			t.Errorf("%v: error %v", seq, e)
		}
	}
}

func TestSeq2BeatsSeq1OnStableData(t *testing.T) {
	// Per-particle constant drift: each particle's time-prediction residual
	// (and hence quantization code) is stable over time but differs across
	// particles. Seq-2 groups each particle's identical codes into runs the
	// dictionary coder exploits (paper Table III); Seq-1 interleaves them.
	rng := rand.New(rand.NewSource(10))
	n, total := 2000, 40
	pos := make([]float64, n)
	vel := make([]float64, n)
	for i := range pos {
		pos[i] = rng.Float64() * 40
		vel[i] = (rng.Float64() - 0.5) * 0.2 // constant per-particle velocity
	}
	data := make([][]float64, total)
	for t2 := range data {
		snap := make([]float64, n)
		for i := range snap {
			pos[i] += vel[i]
			snap[i] = pos[i]
		}
		data[t2] = snap
	}
	sizes := map[Sequence]int{}
	for _, seq := range []Sequence{Seq1, Seq2} {
		enc, _ := NewEncoder(Params{ErrorBound: 1e-3, Method: MT, Sequence: seq})
		var sum int
		for i := 0; i < total; i += 10 {
			blk, err := enc.EncodeBatch(data[i : i+10])
			if err != nil {
				t.Fatal(err)
			}
			sum += len(blk)
		}
		sizes[seq] = sum
	}
	if sizes[Seq2] >= sizes[Seq1] {
		t.Errorf("Seq-2 (%d B) should beat Seq-1 (%d B) on per-particle stable codes", sizes[Seq2], sizes[Seq1])
	}
}

func TestOutlierHeavyData(t *testing.T) {
	// Data with huge jumps everywhere: nearly all values out of scope.
	rng := rand.New(rand.NewSource(11))
	batch := make([][]float64, 5)
	for t2 := range batch {
		snap := make([]float64, 100)
		for i := range snap {
			snap[i] = rng.NormFloat64() * 1e12
		}
		batch[t2] = snap
	}
	for _, m := range []Method{VQ, VQT, MT} {
		enc, _ := NewEncoder(Params{ErrorBound: 1e-9, Method: m})
		dec := NewDecoder(Params{})
		blk, err := enc.EncodeBatch(batch)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		got, err := dec.DecodeBatch(blk)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if e := maxAbsErr(batch, got); e > 1e-9 {
			t.Errorf("%v: outlier-heavy error %v", m, e)
		}
	}
}

func TestMTOutOfOrderRejected(t *testing.T) {
	data := liquidBatch(20, 50, 12)
	enc, _ := NewEncoder(Params{ErrorBound: 1e-3, Method: MT})
	blk0, err := enc.EncodeBatch(data[:10])
	if err != nil {
		t.Fatal(err)
	}
	blk1, err := enc.EncodeBatch(data[10:])
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(Params{})
	if _, err := dec.DecodeBatch(blk1); err != ErrOrder {
		t.Errorf("decoding batch 1 first: err=%v, want ErrOrder", err)
	}
	if _, err := dec.DecodeBatch(blk0); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.DecodeBatch(blk1); err != nil {
		t.Errorf("in-order decode after recovery failed: %v", err)
	}
}

func TestCorruptBlocks(t *testing.T) {
	data := crystalBatch(5, 50, 13)
	enc, _ := NewEncoder(Params{ErrorBound: 1e-3, Method: VQ})
	blk, err := enc.EncodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		blk[:3],
		blk[:len(blk)/2],
		append([]byte("XXXX"), blk[4:]...),
	}
	for i, c := range cases {
		dec := NewDecoder(Params{})
		if _, err := dec.DecodeBatch(c); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
	// Flip the method byte to an invalid value.
	bad := append([]byte(nil), blk...)
	bad[5] = 99
	if _, err := (NewDecoder(Params{})).DecodeBatch(bad); err == nil {
		t.Error("invalid method byte accepted")
	}
}

func TestParamValidation(t *testing.T) {
	if _, err := NewEncoder(Params{ErrorBound: 0}); err == nil {
		t.Error("eb=0 accepted")
	}
	if _, err := NewEncoder(Params{ErrorBound: 1e-3, QuantScale: 2}); err == nil {
		t.Error("scale=2 accepted")
	}
	if _, err := NewEncoder(Params{ErrorBound: -5}); err == nil {
		t.Error("negative eb accepted")
	}
	// An unknown method would code rows with the time predictor over unset
	// scratch, and an unknown sequence would go into block headers verbatim.
	if _, err := NewEncoder(Params{ErrorBound: 1e-3, Method: Method(9)}); err == nil {
		t.Error("Method(9) accepted")
	}
	if _, err := NewEncoder(Params{ErrorBound: 1e-3, Sequence: Sequence(7)}); err == nil {
		t.Error("Sequence(7) accepted")
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	enc, _ := NewEncoder(Params{ErrorBound: 1e-3})
	if _, err := enc.EncodeBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := enc.EncodeBatch([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged batch accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	data := liquidBatch(20, 100, 14)
	enc, _ := NewEncoder(Params{ErrorBound: 1e-3, Method: ADP, AdaptInterval: 2})
	for i := 0; i < 20; i += 10 {
		if _, err := enc.EncodeBatch(data[i : i+10]); err != nil {
			t.Fatal(err)
		}
	}
	if enc.Stats.Batches != 2 {
		t.Errorf("Batches=%d", enc.Stats.Batches)
	}
	if enc.Stats.Evaluations != 2 {
		t.Errorf("Evaluations=%d (batches 0 and 1 are always evaluated)", enc.Stats.Evaluations)
	}
	if enc.Stats.RawBytes != 2*10*100*8 {
		t.Errorf("RawBytes=%d", enc.Stats.RawBytes)
	}
	if enc.Stats.CompressedBytes <= 0 {
		t.Error("CompressedBytes not recorded")
	}
}

func TestBlockMethodPeek(t *testing.T) {
	data := crystalBatch(5, 50, 15)
	enc, _ := NewEncoder(Params{ErrorBound: 1e-3, Method: VQT})
	blk, err := enc.EncodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	m, _, _, err := BlockInfo(blk)
	if err != nil || m != VQT {
		t.Errorf("BlockInfo method = %v, %v", m, err)
	}
	if _, _, _, err := BlockInfo([]byte("xx")); err == nil {
		t.Error("short block accepted")
	}
}

func TestConstantDataset(t *testing.T) {
	batch := make([][]float64, 10)
	for t2 := range batch {
		snap := make([]float64, 64)
		for i := range snap {
			snap[i] = 7.5
		}
		batch[t2] = snap
	}
	for _, m := range []Method{VQ, VQT, MT, ADP} {
		enc, _ := NewEncoder(Params{ErrorBound: 1e-6, Method: m})
		dec := NewDecoder(Params{})
		blk, err := enc.EncodeBatch(batch)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		got, err := dec.DecodeBatch(blk)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if e := maxAbsErr(batch, got); e > 1e-6 {
			t.Errorf("%v: constant data error %v", m, e)
		}
	}
}

func TestMethodString(t *testing.T) {
	if ADP.String() != "ADP" || VQ.String() != "VQ" || VQT.String() != "VQT" || MT.String() != "MT" {
		t.Error("method names")
	}
	if Seq1.String() != "Seq-1" || Seq2.String() != "Seq-2" {
		t.Error("sequence names")
	}
}

func BenchmarkEncodeMTLiquid(b *testing.B) {
	data := liquidBatch(10, 10000, 1)
	enc, _ := NewEncoder(Params{ErrorBound: 1e-3, Method: MT})
	b.SetBytes(int64(10 * 10000 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.EncodeBatch(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeVQCrystal(b *testing.B) {
	data := crystalBatch(10, 10000, 1)
	enc, _ := NewEncoder(Params{ErrorBound: 1e-3, Method: VQ})
	b.SetBytes(int64(10 * 10000 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.EncodeBatch(data); err != nil {
			b.Fatal(err)
		}
	}
}
