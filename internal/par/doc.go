// Package par provides a minimal data-parallel loop helper used by setup
// paths (candidate list construction, alpha-nearness). It is not
// meant for the solver hot loop, which is single-threaded per node by
// design — parallelism there comes from running many nodes (paper §2.2).
//
// Invariants:
//   - For associates the same index ranges to workers regardless of
//     GOMAXPROCS, so parallel setup never changes results, only speed.
package par
