package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"plurality"
)

// FuzzRequestAdmission feeds arbitrary bodies to run and sweep admission —
// decode, checkpoint clearing, protocol lookup, planning and keying — and
// requires that admission never panics, that an admitted run carries no
// checkpoint request, and that an admitted request, rendered back to JSON
// and admitted again, keys exactly as before. Admission runs no
// simulation, so every input is cheap.
func FuzzRequestAdmission(f *testing.F) {
	for _, seed := range []string{
		`{"protocol":"sync","spec":{"n":300,"k":3,"alpha":2,"seed":5}}`,
		`{"protocol":"leader","spec":{"n":300,"k":3,"alpha":2,"seed":5,"checkpoint":{"snapshot_at":3,"halt":true}}}`,
		`{"protocol":"3-majority","spec":{"n":400,"k":3,"alpha":1.5,"discard_trajectory":true,"topology":{"kind":"random-regular","degree":8}}}`,
		`{"protocol":"decentralized","spec":{"n":200,"k":2,"latency":{"kind":"exp","mean":2},"adversary":{"kind":"delay","fraction":0.3,"rate":2}}}`,
		`{"protocol":"sync","base":{"n":100,"k":2,"seed":1},"reps":2}`,
		`{"protocol":"sync","base":{"n":100,"k":2,"seed":1},"ns":[60,100],"alphas":[1.5,2],"reps":3}`,
		`{"protocol":"leader","base":{"n":100,"k":2},"adversaries":[{"kind":"crash","fraction":0.2}],"topologies":[{"kind":"torus"}]}`,
		`{"protocol":"sync","base":{"n":100,"k":2},"reps":1000000000000}`,
		`{"protocol":"nope","spec":{}}`,
		`{"protocol":"sync","spec":{"n":1}}`,
		`{}`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	const limit, maxJobs = 1 << 16, 64
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, key, err := admitRun(bytes.NewReader(body), limit); err == nil {
			if ck := req.Spec.Checkpoint; ck.SnapshotAt != 0 || ck.Halt {
				t.Fatalf("admitted run keeps its checkpoint request %+v", ck)
			}
			wire, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("admitted run does not encode: %v", err)
			}
			_, again, err := admitRun(bytes.NewReader(wire), limit)
			if err != nil {
				t.Fatalf("admitted run %s is refused after a JSON round trip: %v", wire, err)
			}
			if again != key {
				t.Fatalf("run %s keys %s, and %s after a JSON round trip", body, key, again)
			}
		}

		var probe SweepRequest
		if json.Unmarshal(body, &probe) == nil && drawsLargeGraph(probe) {
			// SweepConfig.Plan draws each random-graph cell's graph to check
			// it, at a cost that grows with N; keep the fuzzer's inputs at
			// sizes that cost it nothing.
			t.Skip()
		}
		req, plan, keys, err := admitSweep(bytes.NewReader(body), limit, maxJobs)
		if err != nil {
			return
		}
		if len(keys) != plan.Jobs() || len(keys) > maxJobs {
			t.Fatalf("admitted sweep has %d keys for %d jobs (bound %d)", len(keys), plan.Jobs(), maxJobs)
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("admitted sweep does not encode: %v", err)
		}
		_, _, again, err := admitSweep(bytes.NewReader(wire), limit, maxJobs)
		if err != nil {
			t.Fatalf("admitted sweep %s is refused after a JSON round trip: %v", wire, err)
		}
		if !slices.Equal(again, keys) {
			t.Fatalf("sweep %s keys differently after a JSON round trip", body)
		}
	})
}

// drawsLargeGraph reports whether planning req would draw a random graph
// of more than 2000 nodes.
func drawsLargeGraph(req SweepRequest) bool {
	random := func(tp plurality.TopologySpec) bool {
		return tp.Kind == plurality.TopologyRandomRegular || tp.Kind == plurality.TopologyErdosRenyi
	}
	if !random(req.Base.Topology) && !slices.ContainsFunc(req.Topologies, random) {
		return false
	}
	return req.Base.N > 2000 || slices.ContainsFunc(req.Ns, func(n int) bool { return n > 2000 })
}

// TestSweepAdmissionBounds pins the two bounds on a sweep's size. A
// replication count whose key array alone would exhaust memory is refused
// with 400 before any key is derived. A sweep of more missing jobs than
// the queue holds gets 429, while one as large whose jobs are all cached —
// here the union of two completed sweeps — is served with no simulation.
func TestSweepAdmissionBounds(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	const union = `{"protocol":"sync","base":{"n":100,"k":2,"seed":1},"ns":[60,100],"reps":4}`
	for body, want := range map[string]int{
		`{"protocol":"sync","base":{"n":100,"k":2,"seed":1},"reps":1000000000000}`: http.StatusBadRequest,
		union: http.StatusTooManyRequests,
		`{"protocol":"sync","base":{"n":100,"k":2,"seed":1}}`: http.StatusTooManyRequests, // Plan's default of 5 reps
	} {
		if w := do(t, s, http.MethodPost, "/v1/sweeps?async=1", body); w.Code != want {
			t.Errorf("%s: status %d, want %d (%s)", body, w.Code, want, w.Body)
		}
	}
	if got := s.lookupSweepCount(); got != 0 {
		t.Fatalf("refused sweeps left %d registrations", got)
	}
	for _, body := range []string{
		`{"protocol":"sync","base":{"n":100,"k":2,"seed":1},"ns":[60],"reps":4}`,
		`{"protocol":"sync","base":{"n":100,"k":2,"seed":1},"ns":[100],"reps":4}`,
	} {
		if w := do(t, s, http.MethodPost, "/v1/sweeps?async=1", body); w.Code != http.StatusAccepted {
			t.Fatalf("sweep at the queue bound: status %d, want 202 (%s)", w.Code, w.Body)
		}
		waitIdle(t, s)
	}
	before := s.Stats()
	if w := do(t, s, http.MethodPost, "/v1/sweeps?async=1", union); w.Code != http.StatusAccepted {
		t.Fatalf("cached sweep above the queue bound: status %d, want 202 (%s)", w.Code, w.Body)
	}
	after := s.Stats()
	if after.JobsComputed != before.JobsComputed || after.JobsCached != before.JobsCached+8 {
		t.Fatalf("cached union: computed %d -> %d, cached %d -> %d; want no computation and 8 cache hits",
			before.JobsComputed, after.JobsComputed, before.JobsCached, after.JobsCached)
	}
}
