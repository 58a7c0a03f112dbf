// Package obs is the solver's structured observability layer: typed
// events at every search decision point (kicks, improvements, perturbation
// escalations, restarts, tour exchanges), per-node counters, and
// pluggable sinks. The paper's own evaluation (§4 message counts, §4.2.1
// variator-strength timeline) is computed from exactly these signals; the
// smoke-tier reproduction pipeline (internal/report), the facade's
// progress snapshots, the solve service's event streams and the binaries'
// -metrics endpoints all report through this package.
//
// Invariants:
//   - Emitting into a nil or no-op recorder costs a nil check; the hot
//     path never allocates for a disabled sink.
//   - CounterSnapshot is the one declaration of the counter vocabulary: a
//     recorder's live counters are one CounterSnapshot guarded by one
//     mutex. Recorder.Record is the one path in: it bumps them under the
//     lock by the kind's rule (CounterSnapshot.count) and emits after the
//     lock is released. Snapshot is a locked copy readable concurrently
//     (live metrics endpoints, progress pumps).
//   - Event sinks serialize internally, so recorders of concurrent nodes
//     can share one sink; a recorder's At clock is injectable (virtual
//     time in simnet, wall time elsewhere).
package obs
