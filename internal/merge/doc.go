// Package merge implements a Cook & Seymour-style tour merging baseline
// (the TM-CLK row in the paper's Table 2): several independent CLK tours
// are merged into a sparse union graph, and a restricted Lin-Kernighan
// search over exactly the union edges extracts a tour that combines the
// best parts of every input. Cook & Seymour find the optimum in the union
// graph with branch-decomposition dynamic programming; the restricted-LK
// substitution keeps the same search space at reduced fidelity
// (DESIGN.md §6). Both phases are configured clk.Solvers: the merge phase
// is one whose candidate lists are the union graph, started from the best
// base tour, with the deep LK schedule and random double-bridge kicks.
//
// Invariants:
//   - The merged tour uses union-graph edges only, and is never worse
//     than the best input tour.
//   - Solve with a zero deadline is deterministic for (instance, Params,
//     seed) — fixed tour counts and kick budgets (the smoke tier depends
//     on this).
package merge
