package report

import (
	"fmt"
	"math"
	"time"

	"distclk/internal/clk"
	"distclk/internal/lkh"
	"distclk/internal/merge"
	"distclk/internal/multilevel"
	"distclk/internal/obs"
	"distclk/internal/stats"
)

// gapCell formats a mean length as percent over the reference ("-" when no
// run produced a value).
func gapCell(mean float64, ref int64) string {
	if mean <= 0 || ref <= 0 {
		return "-"
	}
	g := stats.ExcessPercent(mean, float64(ref))
	if math.IsNaN(g) {
		return "-"
	}
	return fmt.Sprintf("%.3f%%", g)
}

// gapVal is gapCell's numeric twin (NaN when undefined).
func gapVal(mean float64, ref int64) float64 {
	if mean <= 0 || ref <= 0 {
		return math.NaN()
	}
	return stats.ExcessPercent(mean, float64(ref))
}

// msVal converts mean virtual microseconds to milliseconds.
func msVal(us float64) float64 { return us / 1000 }

// workCell formats a mean work value ("-" when no run reached the target).
func workCell(v float64, reached int, format string) string {
	if reached == 0 {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

// lateX returns the largest trace timestamp across runs (the shared late
// checkpoint for virtual-time configs, where elapsed varies per run).
func lateX(runs []Trace) int64 {
	var max int64
	for _, t := range runs {
		if n := len(t.X); n > 0 && t.X[n-1] > max {
			max = t.X[n-1]
		}
	}
	return max
}

// minI returns the smaller of two positive int64s, treating 0 as missing.
func minI(a, b int64) int64 {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}

func runTable1(r *Runner, e *Experiment) (*Artifact, error) {
	// Quality levels are per-instance, as in the paper's Table 1: the
	// jittered-grid stand-in converges within +0.5% during construction,
	// so its interesting range is much tighter than the drilling board's.
	levelsByInstance := map[string][]float64{
		"pr2392": {0.5, 0.2, 0.1},
		"fl3795": {2.0, 1.0, 0.5},
	}
	tbl := &Table{Header: []string{"instance", "level", "CLK (kicks)", "1 node (ms)", "8 nodes (ms)", "factor"}}
	csv := CSVFile{
		Name: "smoke/table1.csv",
		Comment: schemaComment(e, "smoke/table1.csv",
			"columns: instance, level_pct (% over reference = best tour over all runs),",
			"  clk_kicks (mean kicks for plain CLK to reach the level; empty = never),",
			"  dist1_ms / dist8_ms (mean virtual ms per node on simnet), factor (dist1_ms/dist8_ms)",
			"budgets: CLK 960 kicks; DistCLK(1) 96 iters; DistCLK(8) 12 iters/node (equal total work)"),
		Header: []string{"instance", "level_pct", "clk_kicks", "dist1_ms", "dist8_ms", "factor"},
	}
	var deltas []Delta
	for bi, name := range e.Instances {
		clkRuns, err := r.CLKRuns(name, clk.KickRandomWalk, e.CLKKicks, e.Runs, e.Seed)
		if err != nil {
			return nil, err
		}
		one, err := r.SimRuns(name, 1, e.NodeIters*8, clk.KickRandomWalk, e.Runs, e.Seed)
		if err != nil {
			return nil, err
		}
		eight, err := r.SimRuns(name, 8, e.NodeIters, clk.KickRandomWalk, e.Runs, e.Seed)
		if err != nil {
			return nil, err
		}
		ref := minI(bestFinal(clkRuns), minI(bestFinal(traces(one)), bestFinal(traces(eight))))
		var reaches []levelReach
		for _, lv := range levelsByInstance[name] {
			target := int64(float64(ref) * (1 + lv/100))
			ck, cn := meanReach(clkRuns, target)
			t1, n1 := meanReach(traces(one), target)
			t8, n8 := meanReach(traces(eight), target)
			lr := levelReach{level: lv, t1: t1, n1: n1, t8: t8, n8: n8}
			reaches = append(reaches, lr)
			factor := "-"
			if lr.hasFactor() {
				factor = fmt.Sprintf("%.2f", stats.Ratio(t1, t8))
			}
			tbl.AddRow(name, fmt.Sprintf("+%.1f%%", lv),
				workCell(ck, cn, "%.0f"), workCell(msVal(t1), n1, "%.1f"),
				workCell(msVal(t8), n8, "%.1f"), factor)
			csv.AddRow(name, fmt.Sprintf("%.1f", lv),
				workCell(ck, cn, "%.0f"), workCell(msVal(t1), n1, "%.1f"),
				workCell(msVal(t8), n8, "%.1f"), factor)
		}
		b := e.Baselines[bi]
		repro, ok := table1Verdict(reaches)
		deltas = append(deltas, Delta{Exp: e.ID, Row: b.Row, Metric: b.Metric,
			Paper: b.Paper, Repro: repro, Claim: b.Claim, OK: ok})
	}
	notes := []string{
		"reference = best tour over all runs of the instance; CLK runs 10x the per-node kicks of the 8-node cluster (the paper's budget ratio); the CLK column is kicks, not ms — axes are deliberately work-denominated.",
	}
	return &Artifact{Exp: e, Body: sectionBody(e, []*Table{tbl}, notes), CSVs: []CSVFile{csv}, Deltas: deltas}, nil
}

// levelReach is one Table 1 quality level: the mean virtual µs per node
// that the 1- and 8-node clusters need to reach it, over the n1/n8 runs
// that do.
type levelReach struct {
	level  float64
	t1, t8 float64
	n1, n8 int
}

// hasFactor reports whether both cluster sizes reach the level and the
// 8-node cluster needs search to do it, so t1/t8 is a speed-up.
func (l levelReach) hasFactor() bool { return l.n1 > 0 && l.n8 > 0 && l.t8 > 0 }

// table1Verdict judges the speed-up claim at the tightest level with a
// factor (levels tighten monotonically). A level the 8-node cluster
// meets during set-up (t8 == 0) is reported as such but never passes: a
// level met by construction says nothing about the EA's speed-up.
func table1Verdict(levels []levelReach) (repro string, ok bool) {
	for i := len(levels) - 1; i >= 0; i-- {
		if l := levels[i]; l.hasFactor() {
			f := stats.Ratio(l.t1, l.t8)
			return fmt.Sprintf("factor %.2f at level +%.1f%%", f, l.level), f > 1
		}
	}
	for i := len(levels) - 1; i >= 0; i-- {
		if l := levels[i]; l.n8 > 0 && l.t8 == 0 {
			one := "1 node never"
			if l.n1 > 0 {
				one = fmt.Sprintf("1 node after %.0f ms", msVal(l.t1))
			}
			return fmt.Sprintf("8 nodes reach +%.1f%% during set-up; %s", l.level, one), false
		}
	}
	return "no level reached by both cluster sizes", false
}

func runTable2(r *Runner, e *Experiment) (*Artifact, error) {
	tbl := &Table{Header: []string{"instance", "solver", "distance"}}
	csv := CSVFile{
		Name: "smoke/table2.csv",
		Comment: schemaComment(e, "smoke/table2.csv",
			"columns: instance, solver, gap_pct (% over the best tour any solver found)",
			"budgets (deterministic, no deadlines): all baselines at their paper-default",
			"  trial/kick budgets (LKH n trials; TM 10 tours); DistCLK(8) 96 iters/node on simnet"),
		Header: []string{"instance", "solver", "gap_pct"},
	}
	type verdict struct{ mlWorst, distBeatsML bool }
	verdicts := make([]verdict, 0, len(e.Instances))
	for _, name := range e.Instances {
		in, err := r.Instance(name)
		if err != nil {
			return nil, err
		}
		// Baselines run their paper-default parameters with zero deadlines:
		// trial/kick budgets only, so output is a pure function of the seed.
		lkhLen := lkh.Solve(in, lkh.DefaultParams(), e.Seed, time.Time{}, 0).Length
		mlLen := multilevel.Solve(in, multilevel.DefaultParams(), e.Seed, time.Time{}, 0).Length
		tmLen := merge.Solve(in, merge.DefaultParams(), e.Seed, time.Time{}, 0).Length
		eight, err := r.SimRuns(name, 8, e.NodeIters, clk.KickRandomWalk, e.Runs, e.Seed)
		if err != nil {
			return nil, err
		}
		distLen := bestFinal(traces(eight))
		ref := minI(minI(lkhLen, mlLen), minI(tmLen, distLen))
		rows := []struct {
			solver string
			length int64
		}{
			{"LKH-style", lkhLen}, {"ML-CLK", mlLen}, {"TM-CLK", tmLen}, {"DistCLK(8)", distLen},
		}
		for _, row := range rows {
			tbl.AddRow(name, row.solver, gapCell(float64(row.length), ref))
			csv.AddRow(name, row.solver, fmt.Sprintf("%.3f", gapVal(float64(row.length), ref)))
		}
		verdicts = append(verdicts, verdict{
			mlWorst:     mlLen >= lkhLen && mlLen >= tmLen,
			distBeatsML: distLen < mlLen,
		})
	}
	allMLWorst, allDistBeatsML := true, true
	for _, v := range verdicts {
		allMLWorst = allMLWorst && v.mlWorst
		allDistBeatsML = allDistBeatsML && v.distBeatsML
	}
	deltas := []Delta{
		{Exp: e.ID, Row: e.Baselines[0].Row, Metric: e.Baselines[0].Metric, Paper: e.Baselines[0].Paper,
			Repro: fmt.Sprintf("ML-CLK worst baseline on %d of %d instances", countTrue(verdicts, func(v verdict) bool { return v.mlWorst }), len(verdicts)),
			Claim: e.Baselines[0].Claim, OK: allMLWorst},
		{Exp: e.ID, Row: e.Baselines[1].Row, Metric: e.Baselines[1].Metric, Paper: e.Baselines[1].Paper,
			Repro: fmt.Sprintf("DistCLK(8) below ML-CLK on %d of %d instances", countTrue(verdicts, func(v verdict) bool { return v.distBeatsML }), len(verdicts)),
			Claim: e.Baselines[1].Claim, OK: allDistBeatsML},
	}
	notes := []string{
		"distance = gap over the best tour any solver found; baselines run with zero deadlines and fixed trial/kick budgets so their output is seed-deterministic — the paper's wall-clock time columns have no deterministic counterpart and are left out.",
	}
	return &Artifact{Exp: e, Body: sectionBody(e, []*Table{tbl}, notes), CSVs: []CSVFile{csv}, Deltas: deltas}, nil
}

func countTrue[T any](xs []T, f func(T) bool) int {
	n := 0
	for _, x := range xs {
		if f(x) {
			n++
		}
	}
	return n
}

func runTable3(r *Runner, e *Experiment) (*Artifact, error) {
	tbl := &Table{Header: []string{"instance",
		"rnd CLK", "rnd Dist", "geo CLK", "geo Dist",
		"close CLK", "close Dist", "walk CLK", "walk Dist"}}
	csv := CSVFile{
		Name: "smoke/table3.csv",
		Comment: schemaComment(e, "smoke/table3.csv",
			"columns: instance, strategy, algo (clk|dist8), successes (runs reaching the",
			"  reference = best tour over all runs of the instance), runs",
			"budgets: CLK 400 kicks/run; DistCLK(8) 5 iters/node (50 kicks/node, the 10:1 ratio)"),
		Header: []string{"instance", "strategy", "algo", "successes", "runs"},
	}
	distWins, cells := 0, 0
	for _, name := range e.Instances {
		type group struct{ clk, dist []Trace }
		groups := make([]group, len(clk.AllKickStrategies))
		var ref int64
		for i, kick := range clk.AllKickStrategies {
			cr, err := r.CLKRuns(name, kick, e.CLKKicks, e.Runs, e.Seed)
			if err != nil {
				return nil, err
			}
			dr, err := r.SimRuns(name, 8, e.NodeIters, kick, e.Runs, e.Seed)
			if err != nil {
				return nil, err
			}
			groups[i] = group{clk: cr, dist: traces(dr)}
			ref = minI(ref, minI(bestFinal(cr), bestFinal(groups[i].dist)))
		}
		count := func(runs []Trace) int {
			n := 0
			for _, t := range runs {
				if t.Final == ref {
					n++
				}
			}
			return n
		}
		row := []interface{}{name}
		for i, kick := range clk.AllKickStrategies {
			nc, nd := count(groups[i].clk), count(groups[i].dist)
			row = append(row, fmt.Sprintf("%d/%d", nc, e.Runs), fmt.Sprintf("%d/%d", nd, e.Runs))
			csv.AddRow(name, fmt.Sprintf("%v", kick), "clk", nc, e.Runs)
			csv.AddRow(name, fmt.Sprintf("%v", kick), "dist8", nd, e.Runs)
			cells++
			if nd >= nc {
				distWins++
			}
		}
		tbl.AddRow(row...)
	}
	b := e.Baselines[0]
	deltas := []Delta{{Exp: e.ID, Row: b.Row, Metric: b.Metric, Paper: b.Paper,
		Repro: fmt.Sprintf("DistCLK ties or beats CLK in %d of %d cells", distWins, cells),
		Claim: b.Claim, OK: distWins*2 >= cells}}
	notes := []string{
		"reference = best tour over all runs of the instance (optima of synthetic stand-ins are unknown); DistCLK runs a tenth of CLK's per-node kicks.",
	}
	return &Artifact{Exp: e, Body: sectionBody(e, []*Table{tbl}, notes), CSVs: []CSVFile{csv}, Deltas: deltas}, nil
}

func runTable4(r *Runner, e *Experiment) (*Artifact, error) {
	tbl := &Table{Header: []string{"instance",
		"rnd early", "rnd late", "geo early", "geo late",
		"close early", "close late", "walk early", "walk late"}}
	csv := CSVFile{
		Name: "smoke/table4.csv",
		Comment: schemaComment(e, "smoke/table4.csv",
			"columns: instance, strategy, early_gap_pct / late_gap_pct (mean distance to the",
			"  Held-Karp lower bound after 40 and 400 kicks; the paper's 1:10 checkpoint ratio)",
			fmt.Sprintf("denominators: HK ascent bounds, %d iterations", smokeHKIters)),
		Header: []string{"instance", "strategy", "early_gap_pct", "late_gap_pct"},
	}
	early := e.CLKKicks / 10
	geomNeverBest := true
	for _, name := range e.Instances {
		hk, err := r.HKBound(name)
		if err != nil {
			return nil, err
		}
		row := []interface{}{name}
		late := make([]float64, len(clk.AllKickStrategies))
		geom := -1
		for i, kick := range clk.AllKickStrategies {
			runs, err := r.CLKRuns(name, kick, e.CLKKicks, e.Runs, e.Seed)
			if err != nil {
				return nil, err
			}
			eg, lg := gapVal(meanAt(runs, early), hk), gapVal(meanAt(runs, e.CLKKicks), hk)
			row = append(row, gapCell(meanAt(runs, early), hk), gapCell(meanAt(runs, e.CLKKicks), hk))
			csv.AddRow(name, fmt.Sprintf("%v", kick), fmt.Sprintf("%.3f", eg), fmt.Sprintf("%.3f", lg))
			late[i] = lg
			if kick == clk.KickGeometric {
				geom = i
			}
		}
		if strictlyBest(late, geom) {
			geomNeverBest = false
		}
		tbl.AddRow(row...)
	}
	b := e.Baselines[0]
	deltas := []Delta{{Exp: e.ID, Row: b.Row, Metric: b.Metric, Paper: b.Paper,
		Repro: fmt.Sprintf("geometric strictly best on %s", map[bool]string{true: "no instance", false: "at least one instance"}[geomNeverBest]),
		Claim: b.Claim, OK: geomNeverBest}}
	notes := []string{
		"mean distance to this repo's Held-Karp ascent bound (loose on clustered/drilling geometry — compare columns, not absolute values); early = 40 kicks, late = 400 kicks.",
	}
	return &Artifact{Exp: e, Body: sectionBody(e, []*Table{tbl}, notes), CSVs: []CSVFile{csv}, Deltas: deltas}, nil
}

// strictlyBest reports whether gaps[i] is below every other entry: a tie
// with any other strategy is not "best". A NaN gap is never best and
// never beats another.
func strictlyBest(gaps []float64, i int) bool {
	if math.IsNaN(gaps[i]) {
		return false
	}
	for j, g := range gaps {
		if j != i && g <= gaps[i] {
			return false
		}
	}
	return true
}

func runTable5(r *Runner, e *Experiment) (*Artifact, error) {
	tbl := &Table{Header: []string{"instance",
		"rnd early", "rnd late", "geo early", "geo late",
		"close early", "close late", "walk early", "walk late"}}
	csv := CSVFile{
		Name: "smoke/table5.csv",
		Comment: schemaComment(e, "smoke/table5.csv",
			"columns: instance, strategy, early_gap_pct / late_gap_pct (mean distance to the",
			"  Held-Karp bound at 1/10 of the run's virtual time and at its end)",
			"budgets: DistCLK(8), 5 iters/node — one tenth of Table 4's per-node kicks"),
		Header: []string{"instance", "strategy", "early_gap_pct", "late_gap_pct"},
	}
	var diffs []float64
	for _, name := range e.Instances {
		hk, err := r.HKBound(name)
		if err != nil {
			return nil, err
		}
		row := []interface{}{name}
		bestDistLate, bestCLKLate := math.Inf(1), math.Inf(1)
		for _, kick := range clk.AllKickStrategies {
			dr, err := r.SimRuns(name, 8, e.NodeIters, kick, e.Runs, e.Seed)
			if err != nil {
				return nil, err
			}
			runs := traces(dr)
			late := lateX(runs)
			eg, lg := gapVal(meanAt(runs, late/10), hk), gapVal(meanAt(runs, late), hk)
			row = append(row, gapCell(meanAt(runs, late/10), hk), gapCell(meanAt(runs, late), hk))
			csv.AddRow(name, fmt.Sprintf("%v", kick), fmt.Sprintf("%.3f", eg), fmt.Sprintf("%.3f", lg))
			if lg < bestDistLate {
				bestDistLate = lg
			}
			// Table 4's CLK runs (cache hit) give the plain-CLK comparison.
			cr, err := r.CLKRuns(name, kick, e.CLKKicks, e.Runs, e.Seed)
			if err != nil {
				return nil, err
			}
			if clg := gapVal(meanAt(cr, e.CLKKicks), hk); clg < bestCLKLate {
				bestCLKLate = clg
			}
		}
		tbl.AddRow(row...)
		diffs = append(diffs, bestDistLate-bestCLKLate)
	}
	meanDiff := stats.Mean(diffs)
	b := e.Baselines[0]
	deltas := []Delta{{Exp: e.ID, Row: b.Row, Metric: b.Metric, Paper: b.Paper,
		Repro: fmt.Sprintf("best-strategy late gap is %.3f points from Table 4's (mean over instances)", meanDiff),
		Claim: b.Claim, OK: meanDiff <= 1.0}}
	notes := []string{
		"compare against the Table 4 block above: each node spends 50 kicks (5 iterations x 10 kicks) against plain CLK's 400 — the paper's core tenth-of-the-budget claim, in kick currency.",
	}
	return &Artifact{Exp: e, Body: sectionBody(e, []*Table{tbl}, notes), CSVs: []CSVFile{csv}, Deltas: deltas}, nil
}

func runFigure2(r *Runner, e *Experiment) (*Artifact, error) {
	name := e.Instances[0]
	hk, err := r.HKBound(name)
	if err != nil {
		return nil, err
	}
	clkTbl := &Table{Header: []string{"kicks", "random", "geometric", "close", "random-walk"}}
	clkCSV := CSVFile{
		Name: "smoke/fig2_fl1577_clk.csv",
		Comment: schemaComment(e, "smoke/fig2_fl1577_clk.csv",
			"columns: label (<instance>/CLK-<strategy>/run<i>), kick (kick index at which the",
			"  incumbent improved), length (tour length after the improvement)"),
		Header: []string{"label", "kick", "length"},
	}
	byKick := map[clk.KickStrategy][]Trace{}
	for _, kick := range clk.AllKickStrategies {
		runs, err := r.CLKRuns(name, kick, e.CLKKicks, e.Runs, e.Seed)
		if err != nil {
			return nil, err
		}
		byKick[kick] = runs
		for _, t := range runs {
			for i := range t.X {
				clkCSV.AddRow(t.Label, t.X[i], t.L[i])
			}
		}
	}
	for _, cp := range []int64{40, 100, 200, 400} {
		row := []interface{}{cp}
		for _, kick := range clk.AllKickStrategies {
			row = append(row, gapCell(meanAt(byKick[kick], cp), hk))
		}
		clkTbl.AddRow(row...)
	}
	dr, err := r.SimRuns(name, 8, e.NodeIters, clk.KickRandomWalk, e.Runs, e.Seed)
	if err != nil {
		return nil, err
	}
	distRuns := traces(dr)
	distCSV := CSVFile{
		Name: "smoke/fig2_fl1577_dist.csv",
		Comment: schemaComment(e, "smoke/fig2_fl1577_dist.csv",
			"columns: label (<instance>/DistCLK8/run<i>), virtual_ms (simnet virtual time of",
			"  the improvement, per-node), length (best tour length across the cluster)"),
		Header: []string{"label", "virtual_ms", "length"},
	}
	for _, t := range distRuns {
		for i := range t.X {
			distCSV.AddRow(t.Label, fmt.Sprintf("%.3f", msVal(float64(t.X[i]))), t.L[i])
		}
	}
	late := lateX(distRuns)
	distTbl := &Table{Header: []string{"virtual time", "DistCLK(8)"}}
	for _, frac := range []int64{5, 2, 1} {
		distTbl.AddRow(fmt.Sprintf("%.1f ms", msVal(float64(late/frac))),
			gapCell(meanAt(distRuns, late/frac), hk))
	}
	// Strategy separation: spread between the best and worst strategy at
	// the late checkpoint.
	bestLate, worstLate := math.Inf(1), math.Inf(-1)
	for _, kick := range clk.AllKickStrategies {
		g := gapVal(meanAt(byKick[kick], e.CLKKicks), hk)
		if g < bestLate {
			bestLate = g
		}
		if g > worstLate {
			worstLate = g
		}
	}
	spread := worstLate - bestLate
	b := e.Baselines[0]
	deltas := []Delta{{Exp: e.ID, Row: b.Row, Metric: b.Metric, Paper: b.Paper,
		Repro: fmt.Sprintf("spread %.3f points at 400 kicks", spread),
		Claim: b.Claim, OK: spread > 0.1}}
	notes := []string{
		"full traces in results/smoke/fig2_fl1577_clk.csv (kick axis) and fig2_fl1577_dist.csv (virtual-ms axis); distances to the HK bound.",
	}
	return &Artifact{Exp: e, Body: sectionBody(e, []*Table{clkTbl, distTbl}, notes),
		CSVs: []CSVFile{clkCSV, distCSV}, Deltas: deltas}, nil
}

func runFigure3(r *Runner, e *Experiment) (*Artifact, error) {
	name := e.Instances[0]
	hk, err := r.HKBound(name)
	if err != nil {
		return nil, err
	}
	csv := CSVFile{
		Name: "smoke/fig3_fl3795.csv",
		Comment: schemaComment(e, "smoke/fig3_fl3795.csv",
			"columns: label (<instance>/DistCLK<nodes>/run<i>), virtual_ms (simnet virtual",
			"  time of the improvement), length (best tour length across the cluster)",
			fmt.Sprintf("budgets: every node runs %d EA iterations — equal per-node budget,", e.NodeIters),
			"  the paper's per-node-time axis (larger clusters do proportionally more total work)"),
		Header: []string{"label", "virtual_ms", "length"},
	}
	byNodes := map[int][]Trace{}
	var finals []float64
	for _, n := range e.Nodes {
		dr, err := r.SimRuns(name, n, e.NodeIters, clk.KickRandomWalk, e.Runs, e.Seed)
		if err != nil {
			return nil, err
		}
		runs := traces(dr)
		byNodes[n] = runs
		var fs []float64
		for _, t := range runs {
			fs = append(fs, float64(t.Final))
			for i := range t.X {
				csv.AddRow(t.Label, fmt.Sprintf("%.3f", msVal(float64(t.X[i]))), t.L[i])
			}
		}
		finals = append(finals, stats.Mean(fs))
	}
	late := lateX(byNodes[1])
	tbl := &Table{Header: []string{"virtual time", "DistCLK(1)", "DistCLK(2)", "DistCLK(4)", "DistCLK(8)"}}
	for _, frac := range []int64{8, 4, 2, 1} {
		row := []interface{}{fmt.Sprintf("%.1f ms", msVal(float64(late/frac)))}
		for _, n := range e.Nodes {
			row = append(row, gapCell(meanAt(byNodes[n], late/frac), hk))
		}
		tbl.AddRow(row...)
	}
	mean1, mean8 := finals[0], finals[len(finals)-1]
	b := e.Baselines[0]
	deltas := []Delta{{Exp: e.ID, Row: b.Row, Metric: b.Metric, Paper: b.Paper,
		Repro: fmt.Sprintf("mean final length %0.f (8 nodes) vs %0.f (1 node)", mean8, mean1),
		Claim: b.Claim, OK: mean8 <= mean1}}
	notes := []string{
		"every node runs the same iteration budget (the paper's per-node-time axis), so larger clusters do proportionally more total work and finish at similar virtual times. Full traces in results/smoke/fig3_fl3795.csv.",
	}
	return &Artifact{Exp: e, Body: sectionBody(e, []*Table{tbl}, notes), CSVs: []CSVFile{csv}, Deltas: deltas}, nil
}

func runMessages(r *Runner, e *Experiment) (*Artifact, error) {
	name := e.Instances[0]
	dr, err := r.SimRuns(name, 8, e.NodeIters, clk.KickRandomWalk, e.Runs, e.Seed)
	if err != nil {
		return nil, err
	}
	tbl := &Table{Header: []string{"run", "broadcasts", "per node", "in first 20% of virtual time"}}
	csv := CSVFile{
		Name: "smoke/messages.csv",
		Comment: schemaComment(e, "smoke/messages.csv",
			"columns: run, broadcasts (broadcast-sent events across the cluster), per_node,",
			"  early_pct (% of broadcasts within the first 20% of the run's virtual time)"),
		Header: []string{"run", "broadcasts", "per_node", "early_pct"},
	}
	var perNode []float64
	for i, run := range dr {
		var sent, early int
		cutoff := time.Duration(float64(run.Res.VirtualElapsed) * 0.2)
		for _, ev := range run.Res.Events {
			if ev.Kind != obs.KindBroadcastSent {
				continue
			}
			sent++
			if ev.At <= cutoff {
				early++
			}
		}
		pn := float64(sent) / 8
		perNode = append(perNode, pn)
		earlyPct := 0.0
		if sent > 0 {
			earlyPct = float64(early) / float64(sent) * 100
		}
		tbl.AddRow(i, sent, fmt.Sprintf("%.1f", pn), fmt.Sprintf("%.0f%%", earlyPct))
		csv.AddRow(i, sent, fmt.Sprintf("%.1f", pn), fmt.Sprintf("%.1f", earlyPct))
	}
	mean := stats.Mean(perNode)
	b := e.Baselines[0]
	deltas := []Delta{{Exp: e.ID, Row: b.Row, Metric: b.Metric, Paper: b.Paper,
		Repro: fmt.Sprintf("%.1f broadcasts per node per run (mean)", mean),
		Claim: b.Claim, OK: mean < 20}}
	notes := []string{
		"a handful of messages per node per run — communication cost is negligible next to optimization, the paper's §4 conclusion; zero drops (fixed-latency loss-free links).",
	}
	return &Artifact{Exp: e, Body: sectionBody(e, []*Table{tbl}, notes), CSVs: []CSVFile{csv}, Deltas: deltas}, nil
}

func runVariator(r *Runner, e *Experiment) (*Artifact, error) {
	name := e.Instances[0]
	dr, err := r.SimRuns(name, 8, e.NodeIters, clk.KickRandomWalk, e.Runs, e.Seed)
	if err != nil {
		return nil, err
	}
	tbl := &Table{Header: []string{"run", "improvements", "max perturb level", "level-ups", "restarts"}}
	csv := CSVFile{
		Name: "smoke/variator.csv",
		Comment: schemaComment(e, "smoke/variator.csv",
			"columns: run, improvements (improve + improve-received events), max_level",
			"  (highest NumPerturbations level), level_ups (perturb-level events > 1), restarts",
			fmt.Sprintf("EA constants: c_v=%d, c_r=%d (the smoke tier's compression of the paper's 64/256)", smokeCV, smokeCR)),
		Header: []string{"run", "improvements", "max_level", "level_ups", "restarts"},
	}
	minMaxLevel := int64(1 << 62)
	for i, run := range dr {
		improves, levelUps, restarts := 0, 0, 0
		maxLevel := int64(1)
		for _, ev := range run.Res.Events {
			switch ev.Kind {
			case obs.KindImprove, obs.KindImproveReceived:
				improves++
			case obs.KindPerturbLevel:
				if ev.Value > 1 {
					levelUps++
				}
				if ev.Value > maxLevel {
					maxLevel = ev.Value
				}
			case obs.KindRestart:
				restarts++
			}
		}
		if maxLevel < minMaxLevel {
			minMaxLevel = maxLevel
		}
		tbl.AddRow(i, improves, maxLevel, levelUps, restarts)
		csv.AddRow(i, improves, maxLevel, levelUps, restarts)
	}
	b := e.Baselines[0]
	deltas := []Delta{{Exp: e.ID, Row: b.Row, Metric: b.Metric, Paper: b.Paper,
		Repro: fmt.Sprintf("max level >= %d in every run", minMaxLevel),
		Claim: b.Claim, OK: minMaxLevel >= 2}}
	notes := []string{
		fmt.Sprintf("levels follow NumPerturbations = NumNoImprovements/%d + 1; restart when the counter exceeds %d — the counter-driven escalation engages during every stagnation phase, the two narrated behaviours of §4.2.1.", smokeCV, smokeCR),
	}
	return &Artifact{Exp: e, Body: sectionBody(e, []*Table{tbl}, notes), CSVs: []CSVFile{csv}, Deltas: deltas}, nil
}
