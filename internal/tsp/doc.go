// Package tsp defines TSP instances and tours: distance evaluation, TSPLIB
// file input/output, and seeded synthetic instance generators mirroring
// the families used in the paper's testbed (§3.1: uniform, clustered,
// drilling, grid-like, and national-style geometries).
//
// Invariants:
//   - Generate is deterministic for (family, n, seed); stand-in geometry
//     is independent of any run seed.
//   - Dist is symmetric and metric-faithful to TSPLIB.
//   - Tour helpers treat tours as permutations of [0, n); Length is the
//     closed-tour sum.
package tsp
