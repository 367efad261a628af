package server

import (
	"encoding/json"
	"fmt"
	"io"

	"plurality"
)

// admitRun decodes a POST /v1/runs body into the run the server performs
// and that run's cache key. Client checkpoint requests are stripped (the
// serving layer owns checkpointing) and the protocol must be registered.
// Admission runs no simulation and draws no random graph.
func admitRun(body io.Reader, limit int64) (RunRequest, string, error) {
	var req RunRequest
	if err := decodeBody(body, limit, &req); err != nil {
		return req, "", err
	}
	req.Spec.Checkpoint = plurality.CheckpointSpec{}
	if _, err := plurality.Lookup(req.Protocol); err != nil {
		return req, "", err
	}
	key, err := jobKey("run", req.Protocol, req.Spec)
	return req, key, err
}

// maxSweepJobs bounds the jobs (cells × reps) of one sweep, cached or not:
// each job's key, and once it is done its metrics, stay in memory for the
// sweep's life, about 1 KB a job. Sweeps with missing jobs are bounded
// further by the queue capacity, in registerSweep, with a 429.
const maxSweepJobs = 1 << 16

// admitSweep decodes a POST /v1/sweeps body and plans it (planSweep),
// refusing a sweep of more than maxJobs jobs before it is keyed.
func admitSweep(body io.Reader, limit int64, maxJobs int) (SweepRequest, *plurality.SweepPlan, []string, error) {
	var req SweepRequest
	if err := decodeBody(body, limit, &req); err != nil {
		return req, nil, nil, err
	}
	plan, keys, err := planSweep(req, maxJobs)
	return req, plan, keys, err
}

// planSweep plans a sweep request and derives every job's cache key,
// refusing a plan of more than maxJobs jobs before its keys are allocated.
// Planning is deterministic, so a request recovered from its manifest keys
// exactly as it did when submitted.
func planSweep(req SweepRequest, maxJobs int) (*plurality.SweepPlan, []string, error) {
	plan, err := req.Config().Plan()
	if err != nil {
		return nil, nil, err
	}
	if plan.Reps > maxJobs/len(plan.Cells) { // Plan yields at least one cell
		return nil, nil, fmt.Errorf("sweep has more than %d jobs (cells × reps); split it", maxJobs)
	}
	keys := make([]string, plan.Jobs())
	tmp := &sweepState{plan: plan} // jobSpec needs only the plan
	for job := range keys {
		if keys[job], err = jobKey("cell", plan.Protocol, tmp.jobSpec(job)); err != nil {
			return nil, nil, err
		}
	}
	return plan, keys, nil
}

// decodeBody parses a bounded JSON request body, rejecting unknown fields
// so spec typos fail loudly instead of silently running the default.
func decodeBody(body io.Reader, limit int64, v any) error {
	dec := json.NewDecoder(io.LimitReader(body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
