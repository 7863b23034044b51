// Package wp2p is the root of a full reproduction of "On the Impact of
// Mobile Hosts in Peer-to-Peer Data Networks" (ICDCS 2008): a deterministic
// discrete-event network simulator, a packet-level bidirectional TCP model,
// a complete BitTorrent implementation, and the paper's wP2P client
// (age-based manipulation, incentive-aware operations, mobility-aware
// operations) built on top.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// modelling decisions, and EXPERIMENTS.md for paper-vs-measured results.
// The library lives under internal/; the runnable entry points are
// cmd/wp2p (subcommands run, figures, scenario and live), the benchmark
// under benchmark/, and examples/ (one quickstart program, the scenario
// spec library).
package wp2p
