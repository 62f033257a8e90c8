package predictor

import (
	"math"
	"testing"
)

func TestMeanAbsErrs(t *testing.T) {
	vals := []float64{0, 1, 3, 6}
	if got := MeanAbsErr1D(vals); got != 2 {
		t.Errorf("MeanAbsErr1D = %v, want 2", got)
	}
	if got := MeanAbsErr1D([]float64{5}); got != 0 {
		t.Errorf("single value err = %v", got)
	}
	cur := []float64{1, 2, 3}
	init := []float64{1, 1, 1}
	if got := MeanAbsErrSnapshot0(cur, init); got != 1 {
		t.Errorf("MeanAbsErrSnapshot0 = %v, want 1", got)
	}
	if got := MeanAbsErrTime(cur, init); got != 1 {
		t.Errorf("MeanAbsErrTime = %v, want 1", got)
	}
	if !math.IsNaN(MeanAbsErrSnapshot0(cur, []float64{1})) {
		t.Error("length mismatch should yield NaN")
	}
}
