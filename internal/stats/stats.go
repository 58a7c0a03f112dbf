package stats

import "math"

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ExcessPercent returns the relative excess of value over a reference in
// percent, (value-ref)/ref*100 — the "distance to optimum/HK bound" metric
// of the paper's quality tables. NaN for a non-positive reference.
func ExcessPercent(value, ref float64) float64 {
	if ref <= 0 {
		return math.NaN()
	}
	return (value - ref) / ref * 100
}

// Ratio returns num/den, the speed-up ratio of the paper's Table 1
// (e.g. time(1 node) / time(n nodes)); 0 when den is 0.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
