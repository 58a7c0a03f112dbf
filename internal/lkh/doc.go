// Package lkh is a reduced-fidelity stand-in for Helsgaun's LKH solver
// (the LKH row of the paper's Table 2). What LKH adds over chained LK is
// its candidate sets and a deeper search, not a different kick loop, so
// the solver is a configured clk.Solver: alpha-nearness candidates derived
// from Held-Karp 1-trees (neighbor.BuildAlpha), a greedy start, a wider
// and deeper LK breadth schedule, and uniformly random double-bridge
// trials. Helsgaun's sequential 5-opt step is approximated by that
// schedule; DESIGN.md §6 records the substitution.
//
// Invariants:
//   - Solve with a zero deadline is deterministic for (instance, Params,
//     seed): trial budgets only, no wall-clock influence (the smoke tier
//     depends on this).
package lkh
