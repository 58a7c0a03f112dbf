package report

import (
	"math"
	"testing"
)

// TestStrictlyBest pins the Table 4 check: geometric counts as best only
// when it beats every other strategy, so the four-way tie the 120-city
// E1k.1 stand-in ends in (2.313% each, results/smoke/table4.csv) is not a
// win for it.
func TestStrictlyBest(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		gaps []float64
		i    int
		want bool
	}{
		{"E1k.1 four-way tie", []float64{2.313, 2.313, 2.313, 2.313}, 1, false},
		{"tie with one other", []float64{2.0, 1.5, 1.5, 3.0}, 1, false},
		{"strictly below all", []float64{2.0, 1.4, 1.5, 3.0}, 1, true},
		{"worst", []float64{5.644, 10.415, 5.644, 9.859}, 1, false},
		{"own gap NaN", []float64{2.0, nan, 3.0}, 1, false},
		{"other gap NaN", []float64{2.0, 1.0, nan}, 1, true},
	}
	for _, c := range cases {
		if got := strictlyBest(c.gaps, c.i); got != c.want {
			t.Errorf("%s: strictlyBest(%v, %d) = %v, want %v", c.name, c.gaps, c.i, got, c.want)
		}
	}
}

// TestTable1Verdict covers the three outcomes of the Table 1 speed-up
// check: a factor, a level the 8-node cluster meets during set-up (the
// pr2392 smoke row), and no level reached by both cluster sizes.
func TestTable1Verdict(t *testing.T) {
	cases := []struct {
		name   string
		levels []levelReach
		repro  string
		ok     bool
	}{
		{"factor at the tightest level with one",
			[]levelReach{
				{level: 2.0, t1: 4000, n1: 2, t8: 1000, n8: 2},
				{level: 1.0, t1: 9000, n1: 2, t8: 2000, n8: 2},
				{level: 0.5, n8: 1, t8: 3000},
			},
			"factor 4.50 at level +1.0%", true},
		{"factor below one",
			[]levelReach{{level: 1.0, t1: 1000, n1: 2, t8: 2000, n8: 2}},
			"factor 0.50 at level +1.0%", false},
		{"reached during set-up",
			[]levelReach{
				{level: 0.5, t1: 100000, n1: 2, n8: 2},
				{level: 0.2, t1: 250000, n1: 2, n8: 2},
				{level: 0.1, t1: 550000, n1: 2, n8: 2},
			},
			"8 nodes reach +0.1% during set-up; 1 node after 550 ms", false},
		{"during set-up, 1 node never",
			[]levelReach{{level: 0.1, n8: 2}},
			"8 nodes reach +0.1% during set-up; 1 node never", false},
		{"not reached",
			[]levelReach{
				{level: 2.0, t1: 4200000, n1: 2},
				{level: 1.0, t1: 4200000, n1: 2},
			},
			"no level reached by both cluster sizes", false},
	}
	for _, c := range cases {
		repro, ok := table1Verdict(c.levels)
		if repro != c.repro || ok != c.ok {
			t.Errorf("%s: table1Verdict = (%q, %v), want (%q, %v)", c.name, repro, ok, c.repro, c.ok)
		}
	}
}
