// Package lint is a from-scratch, stdlib-only static-analysis framework
// (go/parser + go/ast + go/types; no golang.org/x/tools dependency) that
// machine-checks the invariants the reproduction depends on: seeded
// byte-identical replay (paper §3, CI's repro-smoke gate), the zero-alloc
// kick loop behind the throughput numbers (§2.1), context-driven
// cancellation, panic-free library code, bounded goroutines, lock and
// atomic discipline, and a documented event vocabulary.
//
// The framework loads packages via `go list -e -export -deps -json`,
// parses their non-test Go files, and type-checks them against the
// toolchain's export data, so analyzers see full type information without
// compiling anything themselves. Analyzers implement a single Run(*Pass)
// hook and report file:line:col diagnostics; cmd/distlint drives them and
// exits non-zero on findings.
//
// Analyzers:
//   - nodeterminism: forbids wall-clock reads (time.Now/Since/Sleep/...),
//     global math/rand draws, and map iteration in packages that declare a
//     determinism contract (internal/simnet, internal/report, or any
//     package whose doc.go carries a //distlint:deterministic directive).
//   - hotpathalloc: forbids fmt calls, make/new, closures, appends to
//     non-scratch (non-struct-field) slices, and interface conversions
//     inside functions annotated //distlint:hotpath.
//   - ctxhygiene: in internal/core, internal/dist and internal/clk (or
//     packages annotated //distlint:ctx), a context.Context parameter must
//     come first and context.Background()/TODO() are forbidden.
//   - nopanic: forbids panic in library (non-main) packages outside
//     must*/Must* invariant-violation helpers.
//   - goroleak: every go statement in a library package must observe a
//     context, a channel or a WaitGroup, so no goroutine outlives what
//     bounds it.
//   - locksafety: a Lock is released by a defer or on every path, no
//     channel or network operation blocks under a mutex, and the
//     per-package lock-order graph has no cycle.
//   - atomichygiene: a field accessed through sync/atomic is never read
//     or written plainly elsewhere, and an atomic wrapper-typed field is
//     never copied.
//   - eventsync: the obs event-kind constants, their names and the
//     markdown event tables (level column included) agree.
//
// Findings are suppressed one at a time with
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// placed on the offending line or the line directly above it. The reason
// is mandatory: an ignore without one (or naming an unknown rule) is
// itself reported under the badignore rule.
//
// Invariants:
//   - Output is deterministic: diagnostics are sorted by file, line,
//     column and rule; nothing iterates a map.
//   - Analyzers are pure functions of the loaded package: no file writes,
//     no environment reads.
//
//distlint:deterministic
package lint
