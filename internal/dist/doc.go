// Package dist provides the distributed runtime for the EA in
// internal/core: an in-process channel network for simulation and
// benchmarking, and a real TCP transport with a bootstrap hub that
// assembles the hypercube exactly as described in the paper (§2.2: nodes
// join the hub, receive a neighbour list over the already-joined nodes,
// then contact neighbours directly, forming a peer-to-peer network in
// which the hub plays no further role).
//
// Every transport — ChanNetwork, the TCP path here and simnet's virtual
// network — hands each node an Exchange (exchange.go), which owns the
// rules between Broadcast and Drain: peer choice, the delta codec state,
// coalescing (ExchangeConfig.Coalesce, cmd/distclk -batch) and the inbox
// bound. A transport only moves WireTour messages.
//
// Invariants:
//   - Every transport satisfies core.Comm with the same semantics: best-
//     effort broadcast to overlay neighbours, non-blocking receive.
//   - Message framing is versioned and symmetric (Encode/Decode round-
//     trip); a malformed frame drops the connection, never the process.
//   - The hub is bootstrap-only: after join, no data path touches it.
package dist
