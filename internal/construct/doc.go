// Package construct provides tour construction heuristics: Quick-Borůvka
// (the constructor used by Concorde's linkern and by the paper's CLK, §2.1),
// greedy edge matching, nearest neighbour and a space-filling curve. All
// constructors are deterministic for a fixed (instance, seed)
// and return a valid permutation; the EA's restart path (§4.2) re-invokes
// them to rebuild search state after stagnation.
package construct
