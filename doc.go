// Package bristle is a reproduction of "Bristle: A Mobile Structured
// Peer-to-Peer Architecture" (Hung-Chang Hsiao and Chung-Ta King,
// IPDPS 2003): a hash-based structured P2P overlay in which nodes may
// change their network attachment points without invalidating the
// distributed state that names them.
//
// The implementation lives under internal/:
//
//   - internal/core — Bristle itself: the stationary and mobile layers,
//     state-pairs with leases, _route/_discovery, register/update,
//     join/leave, and the scrambled vs clustered naming schemes.
//   - internal/overlay — the structured-overlay substrate (Tornado's
//     role): monotone greedy ring routing with leaf sets, proximity-
//     selected fingers, and churn repair.
//   - internal/ldt — capacity-aware location dissemination trees
//     (Figure 4), with locality-aware partitioning.
//   - internal/topology, internal/simnet — the GT-ITM-style transit-stub
//     underlay and the discrete-event/message-cost simulator.
//   - internal/baseline — the Type A (leave+rejoin) and Type B
//     (Mobile IP) comparison designs of Table 1.
//   - internal/experiments — one driver per table/figure of the paper's
//     evaluation.
//   - internal/wire, internal/transport, internal/live — a deployable
//     implementation of the location-management protocol over TCP: a
//     pooled zero-allocation codec under a sharded node with one
//     constructor (live.New), one context-taking method per operation
//     and one RPC path, the connection pool (no global lock on any
//     request path; see DESIGN.md §13 for the lock map and
//     internal/live's package doc for the file tour).
//   - internal/loccache, internal/metrics, internal/harness — the
//     lease-aware location cache, counter/gauge registries, and the
//     seeded scenario harness with protocol invariant checkers.
//
// The root-level benchmarks (bench_test.go) regenerate each experiment;
// cmd/bristle-sim prints the paper-style tables. make bench records the
// live hot-path benchmarks into BENCH_*.json and make bench-gate fails
// regressions against them (cmd/benchgate).
package bristle
