// Package server is the simulation-as-a-service layer behind cmd/pluralityd:
// an HTTP/JSON daemon that accepts run and sweep specs, fans cells ×
// replications onto a bounded harness.Pool with explicit admission control
// (bounded queue, 429 + Retry-After when saturated), streams per-cell
// results as NDJSON while a sweep is still computing, and caches every
// completed job in a content-addressed store keyed by
// Spec.CanonicalBytes — so repeated or overlapping sweeps are served
// byte-identically and instantly, with zero simulation work.
//
// Jobs survive restarts: sweep manifests persist on submission, long cells
// capture periodic snapshots that land in the store, graceful shutdown
// drains in-flight cells to their latest snapshot, and the next boot
// recovers every unfinished sweep and resumes its missing jobs —
// cached jobs are never recomputed, snapshotted jobs continue via Resume
// rather than restarting. Determinism is the product guarantee: a cell
// served from cache, computed fresh, or completed across a restart is the
// same bytes.
package server

import (
	"encoding/json"
	"fmt"

	"plurality"
)

// RunRequest is the body of POST /v1/runs: one protocol run, executed (or
// served from cache) synchronously. Checkpoint requests are stripped — the
// serving layer owns checkpointing — and Observer has no wire form.
type RunRequest struct {
	// Protocol is the registered protocol name to run.
	Protocol string `json:"protocol"`
	// Spec is the run's configuration.
	Spec plurality.Spec `json:"spec"`
}

// SweepRequest is the body of POST /v1/sweeps: the serializable subset of
// plurality.SweepConfig. Metrics are always the standard set (functions
// have no wire form) and the executor decides worker counts — results are
// worker-count-invariant, so neither limits what a client can express.
type SweepRequest struct {
	// Protocol is the registered protocol name to sweep.
	Protocol string `json:"protocol"`
	// Base is the Spec shared by every grid point (SweepConfig.Base).
	Base plurality.Spec `json:"base"`
	// Ns, Ks and Alphas are the grid axes; an empty axis means the single
	// value from Base.
	Ns     []int     `json:"ns,omitempty"`
	Ks     []int     `json:"ks,omitempty"`
	Alphas []float64 `json:"alphas,omitempty"`
	// Topologies is the interaction-graph axis (SweepConfig.Topologies).
	Topologies []plurality.TopologySpec `json:"topologies,omitempty"`
	// Adversaries is the fault-model axis (SweepConfig.Adversaries).
	Adversaries []plurality.AdversarySpec `json:"adversaries,omitempty"`
	// Reps is the number of seeded replications per grid point; 0 means
	// the sweep default (5).
	Reps int `json:"reps,omitempty"`
}

// Config converts the request to the SweepConfig a local Sweep would run,
// which is also how the server plans it — one code path, identical cells.
func (r SweepRequest) Config() plurality.SweepConfig {
	return plurality.SweepConfig{
		Protocol:    r.Protocol,
		Base:        r.Base,
		Ns:          r.Ns,
		Ks:          r.Ks,
		Alphas:      r.Alphas,
		Topologies:  r.Topologies,
		Adversaries: r.Adversaries,
		Reps:        r.Reps,
	}
}

// SweepStatus is the body of GET /v1/sweeps/{id}: submission identity plus
// progress counters. Jobs are (cell, replication) units; cells complete
// when all their replications have.
type SweepStatus struct {
	ID         string `json:"id"`
	Protocol   string `json:"protocol"`
	Status     string `json:"status"` // "running", "done" or "failed"
	TotalCells int    `json:"total_cells"`
	DoneCells  int    `json:"done_cells"`
	TotalJobs  int    `json:"total_jobs"`
	DoneJobs   int    `json:"done_jobs"`
	// CachedJobs counts the done jobs that were served from the result
	// cache rather than simulated.
	CachedJobs int    `json:"cached_jobs"`
	Error      string `json:"error,omitempty"`
}

// Stats is the body of GET /v1/stats: the server's monotonic work counters
// plus the current pool load and disk backlog. EventsSimulated not moving
// across a resubmission is the observable proof the cache served it.
type Stats struct {
	JobsComputed    uint64 `json:"jobs_computed"`
	JobsCached      uint64 `json:"jobs_cached"`
	SegmentsRun     uint64 `json:"segments_run"`
	EventsSimulated uint64 `json:"events_simulated"`
	QueuedJobs      int    `json:"queued_jobs"`
	RunningJobs     int    `json:"running_jobs"`
	// PendingWrites counts the cache and snapshot file writes queued for
	// the disk or in flight; 0 means the disk holds everything served.
	PendingWrites int `json:"pending_writes"`
	// WriteErrors counts the cache, snapshot and manifest writes that
	// failed since boot; a store that stops persisting shows here.
	WriteErrors uint64 `json:"write_errors"`
}

// streamTrailer is the final NDJSON line of a completed sweep stream.
type streamTrailer struct {
	Done  bool `json:"done"`
	Cells int  `json:"cells"`
}

// streamError is the final NDJSON line of a failed or interrupted stream.
type streamError struct {
	Error string `json:"error"`
}

// EncodeCell renders one aggregated sweep cell as its canonical NDJSON
// line (without the trailing newline). It is the single encoder shared by
// the server's live streams, stream replays and cmd/sweep's -ndjson local
// output, so "cached cell bytes equal freshly computed cell bytes" is a
// statement about one encoding, not two.
func EncodeCell(c plurality.SweepCell) ([]byte, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("server: encoding sweep cell: %w", err)
	}
	return b, nil
}
