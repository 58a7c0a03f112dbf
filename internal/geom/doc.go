// Package geom provides geometric primitives for TSP instances: points,
// TSPLIB distance metrics (EUC_2D, CEIL_2D, ATT, GEO), a k-d tree for
// nearest-neighbour queries (with LiveSet, a deletable view of it that
// finds the nearest point not yet removed), and a Hilbert space-filling
// curve used by construction heuristics. Metric implementations follow the TSPLIB
// specification exactly — the GEO metric is validated against ulysses16's
// proven optimum — so instances shared with other solvers score
// identically here.
package geom
