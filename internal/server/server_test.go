package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"plurality"
	"plurality/internal/harness"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.pool.Close() })
	return s
}

func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func TestProtocolsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, http.MethodGet, "/v1/protocols", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", w.Code)
	}
	var out []map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no protocols listed")
	}
	seen := map[string]bool{}
	for _, e := range out {
		name, _ := e["name"].(string)
		if name == "" {
			t.Fatalf("entry missing name: %v", e)
		}
		seen[name] = true
		for _, k := range []string{"family", "checkpointable", "description"} {
			if _, ok := e[k]; !ok {
				t.Errorf("protocol %s missing %q field", name, k)
			}
		}
	}
	if !seen["sync"] || !seen["leader"] {
		t.Fatalf("expected sync and leader in listing, got %v", seen)
	}
}

func TestRunCacheHitMiss(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	body := `{"protocol":"sync","spec":{"n":200,"k":3,"seed":11}}`

	first := do(t, s, http.MethodPost, "/v1/runs", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first run: status %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Plurality-Cache"); got != "miss" {
		t.Fatalf("first run cache header = %q, want miss", got)
	}
	before := s.Stats()

	second := do(t, s, http.MethodPost, "/v1/runs", body)
	if second.Code != http.StatusOK {
		t.Fatalf("second run: status %d: %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-Plurality-Cache"); got != "hit" {
		t.Fatalf("second run cache header = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cached run body differs from computed body")
	}
	after := s.Stats()
	if after.EventsSimulated != before.EventsSimulated {
		t.Fatalf("cache hit simulated %d events", after.EventsSimulated-before.EventsSimulated)
	}
	if after.JobsComputed != before.JobsComputed {
		t.Fatal("cache hit recomputed the job")
	}
	if after.JobsCached != before.JobsCached+1 {
		t.Fatalf("JobsCached went %d -> %d, want +1", before.JobsCached, after.JobsCached)
	}

	// A semantically identical spec written differently (explicit defaults)
	// hits the same cache entry: the key is canonical, not syntactic.
	explicit := `{"protocol":"sync","spec":{"n":200,"k":3,"seed":11,"alpha":1,"sync":{"gamma":0.5}}}`
	third := do(t, s, http.MethodPost, "/v1/runs", explicit)
	if third.Code != http.StatusOK {
		t.Fatalf("third run: status %d: %s", third.Code, third.Body)
	}
	if got := third.Header().Get("X-Plurality-Cache"); got != "hit" {
		t.Fatalf("default-filled spec cache header = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Fatal("default-filled spec served different bytes")
	}
}

func TestRunBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"unknown protocol", `{"protocol":"nope","spec":{"n":100,"k":2,"seed":1}}`},
		{"invalid json", `{"protocol":`},
		{"unknown field", `{"protocol":"sync","spec":{"n":100,"k":2,"seed":1,"typo_field":3}}`},
		{"invalid spec", `{"protocol":"sync","spec":{"n":-5,"k":2,"seed":1}}`},
	}
	for _, c := range cases {
		if w := do(t, s, http.MethodPost, "/v1/runs", c.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, w.Code)
		}
	}
	if w := do(t, s, http.MethodGet, "/v1/sweeps/nope", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown sweep: status = %d, want 404", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/sweeps", `{"protocol":"sync"}`); w.Code != http.StatusBadRequest {
		t.Errorf("invalid sweep base: status = %d, want 400", w.Code)
	}
}

// TestAdmissionControl pins the load-shedding contract: once the queue is
// full, submissions get 429 with a Retry-After hint and no partial
// admission, and capacity freed by finishing jobs is usable again.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 2})

	// Occupy the lone worker and the whole queue with blocking filler.
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	block := func(ctx context.Context, _ any) error {
		<-release
		return nil
	}
	first := func(ctx context.Context, _ any) error {
		started.Done()
		<-release
		return nil
	}
	if _, ok := s.pool.TrySubmit(first); !ok {
		t.Fatal("could not submit filler job")
	}
	started.Wait() // worker busy; queue empty
	for i := 0; i < 2; i++ {
		if _, ok := s.pool.TrySubmit(block); !ok {
			t.Fatalf("filler %d refused", i)
		}
	}

	body := `{"protocol":"sync","base":{"n":100,"k":2,"seed":1},"reps":2}`
	w := do(t, s, http.MethodPost, "/v1/sweeps", body)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status = %d, want 429 (%s)", w.Code, w.Body)
	}
	ra := w.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", ra)
	}
	// Nothing was partially admitted: the sweep is unknown.
	if got := s.lookupSweepCount(); got != 0 {
		t.Fatalf("refused sweep left %d registrations", got)
	}

	close(release)
	waitIdle(t, s)
	w = do(t, s, http.MethodPost, "/v1/sweeps", body)
	if w.Code != http.StatusOK {
		t.Fatalf("post-drain submit: status = %d, want 200 (%s)", w.Code, w.Body)
	}
}

func (s *Server) lookupSweepCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sweeps)
}

// waitIdle blocks until the pool has no queued or running jobs.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	for {
		q, r := s.pool.Pending()
		if q == 0 && r == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSegmentedComputeMatchesUninterrupted pins the serving layer's core
// determinism claim: a job executed as a chain of checkpoint segments —
// including a simulated shutdown between segments and a resume from the
// persisted snapshot — produces a Result deeply equal to one uninterrupted
// run.
func TestSegmentedComputeMatchesUninterrupted(t *testing.T) {
	specs := []struct {
		protocol string
		spec     plurality.Spec
	}{
		{"sync", plurality.Spec{N: 300, K: 3, Seed: 5, DiscardTrajectory: true}},
		{"leader", plurality.Spec{N: 200, K: 3, Alpha: 2, Seed: 7, DiscardTrajectory: true}},
	}
	for _, c := range specs {
		t.Run(c.protocol, func(t *testing.T) {
			plain, err := plurality.Run(context.Background(), c.protocol, c.spec)
			if err != nil {
				t.Fatal(err)
			}

			s := newTestServer(t, Config{Dir: t.TempDir(), CheckpointEvery: 2})
			key, err := jobKey("cell", c.protocol, c.spec)
			if err != nil {
				t.Fatal(err)
			}

			// First attempt suspends after one segment, as SIGTERM would.
			s.testMaxSegments = 1
			if _, err := s.compute(context.Background(), c.protocol, c.spec, key); err != errSuspended {
				t.Fatalf("compute with testMaxSegments=1: err = %v, want errSuspended", err)
			}
			if s.store.LoadJobSnapshot(key) == nil {
				t.Fatal("suspended job left no snapshot")
			}

			// Second attempt resumes the snapshot and runs to completion.
			s.testMaxSegments = 0
			res, err := s.compute(context.Background(), c.protocol, c.spec, key)
			if err != nil {
				t.Fatal(err)
			}
			if res.Snapshot != nil {
				t.Fatal("completed compute returned a snapshot")
			}
			if !reflect.DeepEqual(res, plain) {
				t.Fatalf("segmented result differs from uninterrupted run:\nsegmented:     %+v\nuninterrupted: %+v", res, plain)
			}
			if s.store.LoadJobSnapshot(key) != nil {
				t.Fatal("completed job left its snapshot behind")
			}
		})
	}
}

func TestCacheDiskReload(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte(`{"duration":4}`)
	if err := c1.Put("aabbccdd", blob); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("aabbccdd")
	if !ok {
		t.Fatal("cache entry lost across reopen")
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("reloaded blob = %q, want %q", got, blob)
	}
	if _, ok := c2.Get("eeff0011"); ok {
		t.Fatal("cache invented an entry")
	}
}

func TestJobKeyDistinguishesDomains(t *testing.T) {
	spec := plurality.Spec{N: 100, K: 2, Seed: 1}
	run, err := jobKey("run", "sync", spec)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := jobKey("cell", "sync", spec)
	if err != nil {
		t.Fatal(err)
	}
	if run == cell {
		t.Fatal("run and cell domains share a key")
	}
	other, err := jobKey("run", "leader", spec)
	if err != nil {
		t.Fatal(err)
	}
	if run == other {
		t.Fatal("distinct protocols share a key")
	}
}

// TestPoolTypes double-checks the harness wiring the server relies on:
// TrySubmitAll is all-or-nothing even at the exact boundary.
func TestSubmitAllBoundary(t *testing.T) {
	pool := harness.NewPool(1, 2, nil)
	defer pool.Close()
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	pool.TrySubmit(func(ctx context.Context, _ any) error { started.Done(); <-release; return nil })
	started.Wait()
	block := func(ctx context.Context, _ any) error { return nil }
	if _, ok := pool.TrySubmitAll([]harness.Job{block, block, block}); ok {
		t.Fatal("batch beyond capacity was admitted")
	}
	if _, ok := pool.TrySubmitAll([]harness.Job{block, block}); !ok {
		t.Fatal("batch at exactly remaining capacity was refused")
	}
	close(release)
}

// TestShardsFieldRejected pins that the removed Spec.Shards field is an
// unknown field on the wire: run and sweep submissions carrying it fail with
// 400 instead of silently running serially.
func TestShardsFieldRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/v1/runs", `{"protocol":"leader","spec":{"n":300,"k":3,"alpha":2,"seed":5,"shards":2}}`},
		{"/v1/sweeps", `{"protocol":"leader","base":{"n":300,"k":3,"alpha":2,"seed":5,"shards":2},"reps":2}`},
	} {
		w := do(t, s, http.MethodPost, c.path, c.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("POST %s with shards: status = %d, want 400", c.path, w.Code)
		}
		if !strings.Contains(w.Body.String(), "shards") {
			t.Errorf("POST %s: error %q does not name the field", c.path, w.Body)
		}
	}
}

// TestManifestWithShardsResumes pins that manifests persisted while Spec
// still had a Shards field keep decoding at boot: the stale field is ignored
// and the sweep is recovered and completed like any other.
func TestManifestWithShardsResumes(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sweeps"), 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := `{"id":"stale","request":{"protocol":"sync","base":{"n":200,"k":3,"alpha":2,"seed":5,"shards":2},"reps":2},"done":false}`
	if err := os.WriteFile(filepath.Join(dir, "sweeps", "stale.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Dir: dir, Workers: 2})
	waitIdleAny(t, s)
	if got := s.Stats().JobsComputed; got != 2 {
		t.Fatalf("recovered sweep computed %d jobs, want 2", got)
	}

	// The same sweep submitted without the stale field joins the recovered
	// one: same ID, every job already done, nothing recomputed.
	w := do(t, s, http.MethodPost, "/v1/sweeps?async=1",
		`{"protocol":"sync","base":{"n":200,"k":3,"alpha":2,"seed":5},"reps":2}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d: %s", w.Code, w.Body)
	}
	var st SweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "done" || st.DoneJobs != 2 || st.CachedJobs != 0 {
		t.Fatalf("resubmit status %+v, want the recovered sweep: done, 2 jobs computed, 0 cached", st)
	}
	if got := s.Stats().JobsComputed; got != 2 {
		t.Fatalf("resubmission recomputed: %d jobs computed, want 2", got)
	}
}

// TestRunCacheSharedAcrossShardCounts pins that a stale shard count never
// splits the job cache: manifests persisted at different shard counts for
// the same experiment recover into one sweep whose jobs are computed once,
// and a submission without the field is served from those same entries.
func TestRunCacheSharedAcrossShardCounts(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sweeps"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		manifest := `{"id":"stale-` + strconv.Itoa(shards) + `","request":{"protocol":"leader","base":{"n":300,"k":3,"alpha":2,"seed":5,"shards":` +
			strconv.Itoa(shards) + `},"reps":2},"done":false}`
		name := filepath.Join(dir, "sweeps", "stale-"+strconv.Itoa(shards)+".json")
		if err := os.WriteFile(name, []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestServer(t, Config{Dir: dir, Workers: 2, CheckpointEvery: 8})
	waitIdleAny(t, s)
	if got := s.Stats().JobsComputed; got != 2 {
		t.Fatalf("two manifests differing only in shards computed %d jobs, want 2", got)
	}

	w := do(t, s, http.MethodPost, "/v1/sweeps?async=1",
		`{"protocol":"leader","base":{"n":300,"k":3,"alpha":2,"seed":5},"reps":2}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d: %s", w.Code, w.Body)
	}
	var st SweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "done" || st.DoneJobs != 2 {
		t.Fatalf("resubmit status %+v, want the recovered sweep done with 2 jobs", st)
	}
	if got := s.Stats().JobsComputed; got != 2 {
		t.Fatalf("resubmission recomputed: %d jobs computed, want 2", got)
	}
}
