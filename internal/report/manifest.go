package report

// Smoke-tier constants. The smoke tier is the deterministic reproduction
// the repository commits and CI regenerates: paper instances stand in at
// 1/16 scale with a 120-city floor, plain CLK is budgeted in kicks, and
// clusters run on simnet's virtual clock — no wall time anywhere, so
// regeneration is byte-identical for a fixed manifest.
const (
	// smokeSizeScale divides the paper's instance sizes.
	smokeSizeScale = 16
	// smokeMinCities is the stand-in size floor, so local search still has
	// structure to exploit.
	smokeMinCities = 120
	// smokeInstanceSeed fixes stand-in geometry (independent of run seeds).
	smokeInstanceSeed = 1
	// smokeHKIters bounds the Held-Karp ascent for quality denominators.
	smokeHKIters = 50
	// smokeCV/smokeCR are the EA constants scaled to smoke budgets (see
	// EXPERIMENTS.md methodology).
	smokeCV = 4
	smokeCR = 16
	// smokeKicksPerCall bounds the embedded CLK run per EA iteration.
	smokeKicksPerCall = 10
)

// Baseline is one paper number (or narrated claim) an experiment is checked
// against. The smoke tier runs at ~1/1000 of the paper's compute, so most
// checks are shape claims (orderings, ratios > 1, counts per node) rather
// than absolute-value tolerances; the paper's number is recorded verbatim
// so REPRODUCTION.md can show both side by side.
type Baseline struct {
	// Row names the table row / figure feature the paper value belongs to.
	Row string
	// Metric is what is being compared (e.g. "speed-up factor").
	Metric string
	// Paper is the paper's reported value or statement, formatted.
	Paper string
	// Claim is the reproduction predicate the smoke tier must satisfy.
	Claim string
}

// Experiment declares one paper table/figure reproduction: instances, node
// counts, seeds, budgets, and the paper baselines it is diffed against.
// The run hook executes it through the deterministic Runner entry points.
type Experiment struct {
	// ID keys the EXPERIMENTS.md marker pair and the results/smoke files.
	ID string
	// Paper and Section locate the evaluation artifact ("Table 1", "§3.2").
	Paper   string
	Section string
	// Title is a one-line description of what the artifact shows.
	Title string
	// Instances are paper instance names, resolved to synthetic stand-ins
	// at smokeSizeScale (see standIn).
	Instances []string
	// Runs and Seed define the run matrix: run r uses Seed + 101*r.
	Runs int
	Seed int64
	// CLKKicks budgets each plain-CLK run (0 = experiment has no CLK arm).
	CLKKicks int64
	// NodeIters budgets each node of the largest cluster in EA iterations;
	// smaller clusters receive proportionally more so total work is equal
	// (the paper's equal-total-CPU comparisons).
	NodeIters int64
	// Nodes lists the cluster sizes exercised.
	Nodes []int
	// Baselines are the paper values diffed in REPRODUCTION.md; the run
	// hook must produce exactly one Delta per baseline, in order.
	Baselines []Baseline

	run func(*Runner, *Experiment) (*Artifact, error)
}

// Run executes the experiment and returns its rendered artifact.
func (e *Experiment) Run(r *Runner) (*Artifact, error) { return e.run(r, e) }

// Artifact is the rendered output of one experiment: the markdown block
// spliced into EXPERIMENTS.md, the results/ CSV files, and the paper-delta
// rows for REPRODUCTION.md.
type Artifact struct {
	Exp    *Experiment
	Body   string
	CSVs   []CSVFile
	Deltas []Delta
}

// Delta is one row of the paper-vs-reproduction report.
type Delta struct {
	Exp    string
	Row    string
	Metric string
	// Paper is the paper's value; Repro the smoke tier's measurement.
	Paper string
	Repro string
	// Claim restates the predicate checked; OK reports whether it held.
	Claim string
	OK    bool
}

// Manifest returns the experiment registry in paper order: one entry per
// table/figure of the evaluation plus the two §4 analyses. Budgets follow
// the paper's ratios in deterministic currency: plain CLK gets 10x the
// per-node kicks of the 8-node cluster (NodeIters × smokeKicksPerCall).
func Manifest() []*Experiment {
	return []*Experiment{
		{
			ID:        "table1",
			Paper:     "Table 1",
			Section:   "§3.2",
			Title:     "speed-up: work to reach fixed quality levels, CLK vs DistCLK(1) vs DistCLK(8)",
			Instances: []string{"pr2392", "fl3795"},
			Runs:      2,
			Seed:      1,
			CLKKicks:  960,
			NodeIters: 12,
			Nodes:     []int{1, 8},
			Baselines: []Baseline{
				{
					Row: "pr2392", Metric: "speed-up factor t(1 node)/t(8 nodes)",
					Paper: "23.01 at level +0.1% (super-linear, > 8)",
					Claim: "factor > 1 at the tightest level both cluster sizes reach",
				},
				{
					Row: "fl3795", Metric: "speed-up factor t(1 node)/t(8 nodes)",
					Paper: "CLK reaches no level in any run; DistCLK(8) reaches all",
					Claim: "factor > 1 at the tightest level both cluster sizes reach",
				},
			},
			run: runTable1,
		},
		{
			ID:        "table2",
			Paper:     "Table 2",
			Section:   "§3.3",
			Title:     "final quality vs the LKH-style, multilevel and tour-merging baselines",
			Instances: []string{"pr2392", "fl3795"},
			Runs:      2,
			Seed:      1,
			NodeIters: 96,
			Nodes:     []int{8},
			Baselines: []Baseline{
				{
					Row: "ML-CLK", Metric: "final quality rank",
					Paper: "fastest baseline, worst quality on every instance",
					Claim: "ML-CLK has the worst gap of the three baselines on every instance",
				},
				{
					Row: "DistCLK(8)", Metric: "final gap vs baselines",
					Paper: "competitive as instances grow: time ratio vs LKH from 0.13 (fnl4461) to 4.46 (pla85900)",
					Claim: "DistCLK(8) beats ML-CLK's final gap on every instance",
				},
			},
			run: runTable2,
		},
		{
			ID:        "table3",
			Paper:     "Table 3",
			Section:   "§3.3",
			Title:     "runs reaching the reference tour, per kicking strategy, CLK vs DistCLK(8)",
			Instances: []string{"C1k.1", "E1k.1", "fl1577"},
			Runs:      2,
			Seed:      1,
			CLKKicks:  400,
			NodeIters: 5,
			Nodes:     []int{8},
			Baselines: []Baseline{
				{
					Row: "all cells", Metric: "success counts, Dist vs CLK",
					Paper: "DistCLK dominates CLK everywhere except fl1577/random (38/40 on fl3795)",
					Claim: "DistCLK ties or beats CLK's count in at least half the strategy cells",
				},
			},
			run: runTable3,
		},
		{
			ID:        "table4",
			Paper:     "Table 4",
			Section:   "§3.3",
			Title:     "plain-CLK mean distance to the HK bound at early/late checkpoints per strategy",
			Instances: []string{"C1k.1", "E1k.1", "fl1577", "pr2392"},
			Runs:      2,
			Seed:      1,
			CLKKicks:  400,
			Baselines: []Baseline{
				{
					Row: "geometric kick", Metric: "late-checkpoint rank",
					Paper: "worst CLK strategy on small instances",
					Claim: "geometric is strictly best on no smoke instance",
				},
			},
			run: runTable4,
		},
		{
			ID:        "table5",
			Paper:     "Table 5",
			Section:   "§3.3",
			Title:     "DistCLK(8) mean distance to the HK bound at early/late virtual checkpoints",
			Instances: []string{"C1k.1", "E1k.1", "fl1577", "pr2392"},
			Runs:      2,
			Seed:      1,
			CLKKicks:  400,
			NodeIters: 5,
			Nodes:     []int{8},
			Baselines: []Baseline{
				{
					Row: "all instances", Metric: "late gap, Dist(1/10 kicks/node) vs CLK",
					Paper: "comparable or better quality at one tenth the per-node time",
					Claim: "mean late gap across instances within 1.0 point of Table 4's best strategy",
				},
			},
			run: runTable5,
		},
		{
			ID:        "fig2",
			Paper:     "Figure 2",
			Section:   "§3.3",
			Title:     "convergence: kicking strategies separate; DistCLK(8) vs plain CLK",
			Instances: []string{"fl1577"},
			Runs:      2,
			Seed:      1,
			CLKKicks:  400,
			NodeIters: 5,
			Nodes:     []int{8},
			Baselines: []Baseline{
				{
					Row: "fl1577", Metric: "strategy separation at the late checkpoint",
					Paper: "strategies separate clearly; ranking is instance-dependent",
					Claim: "best-to-worst strategy spread at the late checkpoint exceeds 0.1 points",
				},
			},
			run: runFigure2,
		},
		{
			ID:        "fig3",
			Paper:     "Figure 3",
			Section:   "§3.2",
			Title:     "parallelization: 1/2/4/8 nodes at equal per-node budget on the drilling stand-in",
			Instances: []string{"fl3795"},
			Runs:      2,
			Seed:      1,
			NodeIters: 12,
			Nodes:     []int{1, 2, 4, 8},
			Baselines: []Baseline{
				{
					Row: "fl3795", Metric: "final quality ordering",
					Paper: "the 8-node curve dominates 1 node, which dominates plain CLK",
					Claim: "DistCLK(8) final length <= DistCLK(1) final length",
				},
			},
			run: runFigure3,
		},
		{
			ID:        "messages",
			Paper:     "§4",
			Section:   "§4",
			Title:     "communication analysis: broadcasts per run and per node",
			Instances: []string{"sw24978"},
			Runs:      2,
			Seed:      1,
			NodeIters: 6,
			Nodes:     []int{8},
			Baselines: []Baseline{
				{
					Row: "sw24978, 8 nodes", Metric: "broadcasts per node per run",
					Paper: "84.9 broadcasts per run (~11 per node); overhead negligible",
					Claim: "fewer than 20 broadcasts per node per run",
				},
			},
			run: runMessages,
		},
		{
			ID:        "variator",
			Paper:     "§4.2.1",
			Section:   "§4.2.1",
			Title:     "variator strength: NumPerturbations escalation and restart timeline",
			Instances: []string{"fl3795"},
			Runs:      2,
			Seed:      1,
			NodeIters: 8,
			Nodes:     []int{8},
			Baselines: []Baseline{
				{
					Row: "fl3795", Metric: "escalation engages during stagnation",
					Paper: "NumPerturbations escalates to 2-4 and resets on improvement",
					Claim: "max perturbation level >= 2 in every run",
				},
			},
			run: runVariator,
		},
		{
			ID:        "candidates",
			Paper:     "§2.1 (extension)",
			Section:   "§2.1",
			Title:     "candidate-set strategies x gain rule at a fixed kick budget, with the auto-selector's choices",
			Instances: []string{"E1k.1", "C1k.1", "fl3795"},
			Runs:      2,
			Seed:      1,
			CLKKicks:  400,
			Baselines: []Baseline{
				{
					Row: "all instances", Metric: "non-default configuration vs knn/strict late gap",
					Paper: "not tabulated (the paper fixes one neighbor-list scheme; relaxed gain is the companion speed-up technique)",
					Claim: "on every instance some non-default strategy or gain cell ties or beats knn/strict",
				},
				{
					Row: "auto selector", Metric: "choice per geometry",
					Paper: "n/a (repo extension; see DESIGN.md §10)",
					Claim: "auto picks a coordinate-aware strategy (delaunay or quadrant) on every geometric instance",
				},
			},
			run: runCandidates,
		},
		{
			ID:        "scaling",
			Paper:     "§3.2 (extension)",
			Section:   "§3.2",
			Title:     "scaling past the paper: 8-1024 virtual nodes, hierarchical topologies, tour-diff wire protocol",
			Instances: []string{"E1k.1"},
			Runs:      1,
			Seed:      1,
			NodeIters: scaleSweepIters,
			Nodes:     []int{8, 64, 256, 1024},
			Baselines: []Baseline{
				{
					Row: "1024-node ring, delta activation", Metric: "delta share of exchanged tours",
					Paper: "n/a (the paper stops at 8 physical machines and ships full tours)",
					Claim: "delta sends exceed 80% of exchanges on the 1024-node ring run",
				},
				{
					Row: "topology sweep", Metric: "bytes on wire vs legacy full-tour exchange",
					Paper: "n/a (full tours only; §4 argues the traffic is negligible at 8 nodes)",
					Claim: "tour-diff broadcast ships fewer bytes than full-tour exchange in every cell",
				},
				{
					Row: "hierarchical overlays", Metric: "diameter at 1024 nodes",
					Paper: "n/a (hypercube only, up to 8 nodes)",
					Claim: "hier-hypercube and tree-of-rings both beat the ring's diameter at 1024 nodes",
				},
			},
			run: runScaling,
		},
	}
}
