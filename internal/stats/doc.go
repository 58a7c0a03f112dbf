// Package stats provides the summary statistics the reproduction pipeline
// reports: means, excess-over-reference percentages and ratios over run
// samples (the paper averages each configuration over 10 runs, §3.1).
//
// Invariants:
//   - All functions are pure and allocation-light; empty inputs yield
//     zero values (or NaN where the quantity is undefined), never panics.
package stats
