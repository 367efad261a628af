// Package plurality is a Go implementation of the generation-based plurality
// consensus protocols of Bankhamer, Elsässer, Kaaser and Krnc, "Positive
// Aging Admits Fast Asynchronous Plurality Consensus" (PODC 2020;
// arXiv:1806.02596).
//
// n nodes each hold one of k opinions; the goal is that (almost) all nodes
// adopt the initially most frequent opinion, fast, using only tiny local
// interactions. The package implements the paper's three protocols —
// synchronous (Algorithm 1), asynchronous with a designated leader
// (Algorithms 2–3) and fully decentralized with emergent cluster leaders
// (Algorithms 4–5) — plus the classical baselines they are compared against
// (pull voting, two-choices, 3-majority, undecided-state dynamics).
//
// Every protocol lives behind a single registry keyed by name: Protocols()
// lists the available names and Run executes one of them under a unified
// Spec:
//
//	res, err := plurality.Run(ctx, "sync", plurality.Spec{
//		N: 100_000, K: 8, Alpha: 1.5, Seed: 1,
//	})
//	if err != nil { ... }
//	fmt.Println(res.Winner, res.ConsensusTime)
//
// Run honours context cancellation and deadlines promptly, so callers can
// bound a stochastic run by wall-clock time. Spec.Observer streams
// trajectory snapshots as they are recorded, and Spec.DiscardTrajectory
// keeps recording memory O(1) — the combination that makes million-node
// runs affordable. Additional protocols (new dynamics, new schedulers) can
// be added with Register and are then served by Run, the CLIs and the sweep
// layer without further wiring.
//
// For batches, RunMany replicates one spec across seeds in parallel and
// Sweep runs a protocol over an (n, k, α, topology) factor grid with
// aggregated metrics, renderable as a table or CSV.
//
// # Checkpoint and restore
//
// Every built-in protocol can snapshot its complete simulator state
// mid-flight and resume it bit-exactly. Spec.Checkpoint requests a capture
// at a virtual time (or round); the Snapshot arrives through the
// CheckpointSpec.Sink observer and on Result.Snapshot, encodes to one
// self-describing versioned blob (Snapshot.Encode / DecodeSnapshot), and
// continues through Resume — the resumed Result is identical to the one an
// uninterrupted run would have produced. Snapshots are also the warm-start
// primitive: RunBatchFrom fans a shared prefix out into deterministic
// divergent futures (ResumeOptions.Perturb), Sweep's WarmStart aggregates
// them, and ResumeOptions.MaxTime extends a timed-out run past its
// original horizon — the workflows behind long-horizon tail studies and
// time-travel debugging (see examples/timetravel).
//
// Every protocol samples its interaction partners through a pluggable
// topology (Spec.Topology): the default complete graph — the paper's model,
// byte-identical to earlier releases for the same seed and free of
// per-sample allocations — or a ring, torus, random regular graph or
// Erdős–Rényi graph (Topologies() lists the kinds). The paper's theorems
// cover the complete graph only; the sparse kinds open the general-graph
// regime of the related literature.
//
// Orthogonally, Spec.Adversary injects faults (Adversaries() lists the
// kinds): crash or crash/recovery churn of a node fraction, message delays
// bounded by the run's edge-latency model, message drops, and a Byzantine
// minority lying about its opinion. The paper's analysis assumes the honest
// setting — adversarial runs measure degradation, with actions tallied as
// adv_* entries in Result.Stats. Adversarial randomness lives in its own
// generator (AdversarySpec.Seed), so honest runs are byte-identical whether
// or not the subsystem exists, and adversarial runs snapshot and resume
// bit-exactly like honest ones. Sweep takes an Adversaries axis; protocols
// without message latency reject the delay kind at validation.
//
// Asynchronous protocols run on a deterministic discrete-event simulation of
// the paper's communication model: a rate-1 Poisson clock per node and a
// random latency per opened channel (exponential with rate λ in the paper,
// generalizable here to constant, uniform or Erlang "positively aging"
// latencies). Every run is reproducible from its Seed: the same (protocol,
// Spec) pair yields an identical Result.
//
// # Determinism under parallel batching
//
// The determinism guarantee extends to every batch entry point. A single
// run executes events in (virtual time, insertion sequence) order on a
// single goroutine; all randomness derives from Spec.Seed through named
// splittable RNG streams. RunMany, RunBatch and Sweep spread replications
// across a bounded worker pool, but each replication derives its own seed
// (Seed + i for batches, a fixed per-replication offset for sweeps), owns
// its entire simulator state, and writes an index-addressed result slot —
// so the returned slice (and every aggregated sweep table) is bit-identical
// for every worker count and goroutine interleaving, including workers=1.
// The worker bound therefore only trades wall-clock time against peak
// memory (each in-flight replication holds one simulator). Scale is bounded
// by MaxNodes (the event kernel addresses nodes as int32); steady-state
// event scheduling allocates nothing, which is what makes n = 10⁶
// asynchronous runs seconds-scale — see Bench and BENCH_PR3.json for the
// measured trajectory.
//
// # Serving and canonical spec identity
//
// Spec.CanonicalBytes renders a Spec as a version-tagged canonical byte
// encoding: defaults the engines are documented to fold are folded, fields
// with no wire meaning are cleared, and the rest is laid out positionally —
// so two Specs encode identically exactly when the engine layer treats
// them identically, and equal encodings imply equal Results. That makes
// the encoding a correct content-address for simulation work, which is
// what cmd/pluralityd (internal/server) builds on: an HTTP daemon that
// accepts runs and sweeps as JSON, executes them on a bounded pool with
// admission control, streams sweep cells as NDJSON as they complete, caches
// every finished job under its canonical key, and — given a store
// directory — checkpoints long jobs so a restart resumes them bit-exactly.
// The wire forms of Spec, Summary, SweepCell and BenchReport are pinned by
// stable snake_case JSON tags.
//
// See the examples/ directory for complete programs, cmd/experiments for
// the harness that regenerates the paper's figures and claims,
// ARCHITECTURE.md for the layer map and the invariants behind these
// guarantees, and TESTING.md for the golden-digest workflow that pins
// them.
package plurality
