package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !approx(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
}

func TestExcessPercent(t *testing.T) {
	if !approx(ExcessPercent(101, 100), 1) {
		t.Errorf("ExcessPercent(101,100) = %v", ExcessPercent(101, 100))
	}
	if !approx(ExcessPercent(100, 100), 0) {
		t.Error("zero excess")
	}
	if !math.IsNaN(ExcessPercent(5, 0)) {
		t.Error("non-positive reference must yield NaN")
	}
}

func TestRatio(t *testing.T) {
	if !approx(Ratio(10, 4), 2.5) {
		t.Errorf("Ratio = %v", Ratio(10, 4))
	}
	if Ratio(1, 0) != 0 {
		t.Error("zero denominator")
	}
}

func TestProperties(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		min, max := xs[0], xs[0]
		for _, x := range xs {
			min, max = math.Min(min, x), math.Max(max, x)
		}
		// The mean lies within [min, max].
		m := Mean(xs)
		return m >= min-1e-9 && m <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
