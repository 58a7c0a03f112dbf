// Package lk implements the Lin-Kernighan local search (paper §2.1's
// inner engine): an array-based tour with O(1) neighbour queries and
// segment-reversal flips, plus the variable-depth sequential edge exchange
// with candidate lists, don't-look bits, and a breadth schedule that
// backtracks only until the first improving chain is found (depths below
// Params.RelaxDepth keep their full breadth).
//
// Invariants:
//   - Optimize never worsens the tour: every accepted chain has positive
//     total gain.
//   - Chains are edge-disjoint from Params.RelaxDepth on: no step at such
//     a depth adds back an edge its chain removed or removes an edge its
//     chain added. The check reads a per-city record of the chain's steps
//     (4 bytes per city, allocated with the Optimizer), not a scan of the
//     chain, and gives the scan's answer at every RelaxDepth.
//   - An accepted chain re-queues both endpoints of every edge it removed
//     or added.
//   - The tour array and its position index stay mutually consistent
//     across flips (City(Pos(c)) == c).
//   - Search order is deterministic for a fixed (instance, candidates,
//     Params, seed).
//
//distlint:deterministic
package lk
