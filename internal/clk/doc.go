// Package clk implements Chained Lin-Kernighan (paper §2.1): Lin-Kernighan
// local search restarted from double-bridge perturbations ("kicks") of the
// incumbent tour, with the four kicking strategies of Applegate, Cook &
// Rohe (Random, Geometric, Close, Random-walk — compared in the paper's
// Tables 3-5) and accept-if-not-worse chaining.
//
// A Group runs several Solvers concurrently over the shared candidate
// table in synchronous rounds, with adoption of the round's best tour and
// periodic elite-tour merging at the barriers (DESIGN.md §9).
//
// Invariants:
//   - A Solver is a pure function of (instance, Params, seed): KickOnce
//     sequences are deterministic and single-goroutine. A Group round
//     confines each Solver to one goroutine; only the coordinator touches
//     shared state, between rounds. A kick-bounded Group run is a pure
//     function of (instance, Params, seed, workers), and a one-worker
//     Group reproduces Solver.Run byte for byte.
//   - BestLength never increases; KickOnce reports true only when it
//     strictly improved the incumbent.
//   - The kick loop is allocation-free after New (verified by allocation
//     tests; a Group round adds a fixed count however long it is), so
//     budgets measured in kicks are comparable across configurations.
//
//distlint:deterministic
package clk
