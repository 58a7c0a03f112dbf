// Package core implements the paper's primary contribution: the
// distributed evolutionary algorithm of Fischer & Merz (Figure 1, §2.2)
// that embeds Chained Lin-Kernighan on every node, perturbs the incumbent
// with a variable-strength double-bridge move (§4.2.1), exchanges improved
// tours with neighbouring nodes, and restarts from a fresh tour after
// prolonged stagnation. The package is transport-agnostic: networking is
// behind the Comm interface, implemented by internal/dist (channels, TCP)
// and internal/simnet (virtual-clock simulation). Search telemetry flows
// through its obs.Recorder, the one record of the node's counts (a plain,
// non-emitting one when the node is unobserved).
//
// Invariants:
//   - A node's decisions are a pure function of (instance, Config, seed,
//     message arrival order): no wall-clock reads influence the search,
//     which is what makes simnet replays byte-identical.
//   - NumPerturbations = NumNoImprovements/c_v + 1, reset on improvement;
//     restart when the no-improvement counter exceeds c_r (§4.2.1).
//   - Budgets are expressed in EA iterations or a target length
//     (core.Budget); deadlines are the caller's concern.
//
//distlint:deterministic
package core
