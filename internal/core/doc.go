// Package core groups the implementations of the paper's primary
// contribution — generation-based plurality consensus — in three variants:
//
//   - syncgen:  the synchronous protocol (Algorithm 1, §2);
//   - leader:   the asynchronous protocol with a single designated leader
//     (Algorithms 2 and 3, §3);
//   - noleader: the fully decentralized protocol with cluster leaders
//     (Algorithms 4 and 5, §4), built on internal/cluster.
//
// asyncrun holds the run frame that leader, noleader and the Poisson-clock
// baseline share: set-up, the cold events and the epilogue.
//
// The package itself contains no code; it exists so that godoc renders the
// family as one unit.
package core
