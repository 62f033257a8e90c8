// Package predictor provides the level-centroid prediction that powers MDZ's
// VQ method (paper Algorithm 1) and the mean absolute prediction errors of
// the spatial, temporal and snapshot-0 predictors that Table II compares.
// The predictors themselves are fused into the quantization kernels of
// internal/quant and into each baseline's residual walk.
package predictor

import "math"

// Centroid returns the centroid μ + λ·L of level index L under the
// equal-distant level model (λ, μ) (paper Algorithm 1, line 5).
func Centroid(level int64, lambda, mu float64) float64 {
	return mu + lambda*float64(level)
}

// MeanAbsErr1D measures the mean absolute prediction error of the 1-D
// Lorenzo predictor over values (Table II's spatial column).
func MeanAbsErr1D(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	var sum float64
	for i := 1; i < len(values); i++ {
		sum += math.Abs(values[i] - values[i-1])
	}
	return sum / float64(len(values)-1)
}

// MeanAbsErrSnapshot0 measures the mean absolute prediction error of
// snapshot-0 prediction: |cur[i] − initial[i]| averaged over particles
// (Table II's initial-time column).
func MeanAbsErrSnapshot0(cur, initial []float64) float64 {
	n := len(cur)
	if n == 0 || len(initial) != n {
		return math.NaN()
	}
	var sum float64
	for i := range cur {
		sum += math.Abs(cur[i] - initial[i])
	}
	return sum / float64(n)
}

// MeanAbsErrTime measures the mean absolute prediction error of
// previous-snapshot prediction.
func MeanAbsErrTime(cur, prev []float64) float64 {
	return MeanAbsErrSnapshot0(cur, prev)
}
