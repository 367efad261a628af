package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"plurality"
)

// integrationMatrix is the sweep every end-to-end test drives: two
// protocols (one round-based, one event-driven) × two adversaries (none and
// crash churn), small enough to finish in seconds.
var integrationProtocols = []string{"sync", "leader"}

func integrationRequest(protocol string) SweepRequest {
	return SweepRequest{
		Protocol: protocol,
		Base:     plurality.Spec{N: 120, K: 3, Alpha: 2, Seed: 9},
		Ns:       []int{80, 120},
		Adversaries: []plurality.AdversarySpec{
			{},
			{Kind: plurality.AdversaryCrash, Fraction: 0.2},
		},
		Reps: 2,
	}
}

// referenceCellLines computes the sweep locally — the same plurality.Sweep a
// library user would call — and encodes each cell with the shared encoder.
// These bytes are the contract every serving path must reproduce exactly.
func referenceCellLines(t *testing.T, req SweepRequest) [][]byte {
	t.Helper()
	res, err := plurality.Sweep(context.Background(), req.Config())
	if err != nil {
		t.Fatal(err)
	}
	lines := make([][]byte, len(res.Cells))
	for i, c := range res.Cells {
		line, err := EncodeCell(c)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = line
	}
	return lines
}

// splitStream parses an NDJSON sweep stream into its cell lines, asserting
// it ends with a well-formed completion trailer.
func splitStream(t *testing.T, body []byte) [][]byte {
	t.Helper()
	raw := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(raw) == 0 {
		t.Fatal("empty stream")
	}
	var trailer streamTrailer
	last := raw[len(raw)-1]
	if err := json.Unmarshal(last, &trailer); err != nil || !trailer.Done {
		t.Fatalf("stream did not end with a done trailer: %q", last)
	}
	cells := raw[:len(raw)-1]
	if trailer.Cells != len(cells) {
		t.Fatalf("trailer says %d cells, stream carried %d", trailer.Cells, len(cells))
	}
	return cells
}

func assertLinesEqual(t *testing.T, got, want [][]byte, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cell lines, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: cell %d differs:\ngot:  %s\nwant: %s", label, i, got[i], want[i])
		}
	}
}

func postSweep(t *testing.T, url string, req SweepRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep submit: status %d: %s", resp.StatusCode, buf.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if resp.Header.Get("X-Plurality-Sweep") == "" {
		t.Fatal("stream missing X-Plurality-Sweep id header")
	}
	return buf.Bytes()
}

// TestIntegrationSweepServeStreamCache drives the full product claim for
// two protocols × two adversaries: a server-streamed sweep reproduces the
// local library computation byte-for-byte, and a second server booted from
// the same store serves the resubmission entirely from the content-addressed
// cache — identical bytes, zero simulation work.
func TestIntegrationSweepServeStreamCache(t *testing.T) {
	for _, protocol := range integrationProtocols {
		t.Run(protocol, func(t *testing.T) {
			req := integrationRequest(protocol)
			want := referenceCellLines(t, req)
			dir := t.TempDir()

			srvA := newTestServer(t, Config{Dir: dir, Workers: 4})
			tsA := httptest.NewServer(srvA.Handler())
			defer tsA.Close()

			fresh := postSweep(t, tsA.URL, req)
			assertLinesEqual(t, splitStream(t, fresh), want, "fresh stream vs local Sweep")
			statsA := srvA.Stats()
			if statsA.EventsSimulated == 0 || statsA.JobsComputed == 0 {
				t.Fatalf("fresh sweep did no work: %+v", statsA)
			}

			// Same process, same request: the submission joins the finished
			// sweep and replays its immutable cell lines.
			replay := postSweep(t, tsA.URL, req)
			if !bytes.Equal(replay, fresh) {
				t.Fatal("in-process resubmission bytes differ")
			}
			if after := srvA.Stats(); after.EventsSimulated != statsA.EventsSimulated {
				t.Fatal("in-process resubmission simulated events")
			}

			// Fresh process over the same store: recovery sees the done
			// manifest, the cache probe replays every job, and the stream is
			// byte-identical — the content-addressed cache at work. A's
			// write-behind writer must have stored every entry first.
			waitIdle(t, srvA)
			srvB := newTestServer(t, Config{Dir: dir, Workers: 4})
			tsB := httptest.NewServer(srvB.Handler())
			defer tsB.Close()

			cached := postSweep(t, tsB.URL, req)
			if !bytes.Equal(cached, fresh) {
				t.Fatal("cache-served sweep bytes differ from freshly computed sweep")
			}
			statsB := srvB.Stats()
			if statsB.EventsSimulated != 0 || statsB.JobsComputed != 0 || statsB.SegmentsRun != 0 {
				t.Fatalf("cache-served sweep did simulation work: %+v", statsB)
			}
			wantJobs := uint64(len(want) * req.Reps)
			if statsB.JobsCached != wantJobs {
				t.Fatalf("JobsCached = %d, want %d", statsB.JobsCached, wantJobs)
			}

			// An overlapping sweep (one shared n) reuses the shared cells'
			// cached jobs and only computes the new ones.
			overlap := req
			overlap.Ns = []int{120, 160}
			got := splitStream(t, postSweep(t, tsB.URL, overlap))
			wantOverlap := referenceCellLines(t, overlap)
			assertLinesEqual(t, got, wantOverlap, "overlapping sweep")
			statsB2 := srvB.Stats()
			// 2 adversaries × 2 reps = 4 jobs per n; n=120 was cached.
			if delta := statsB2.JobsCached - statsB.JobsCached; delta != 4 {
				t.Fatalf("overlap reused %d cached jobs, want 4", delta)
			}
			if delta := statsB2.JobsComputed - statsB.JobsComputed; delta != 4 {
				t.Fatalf("overlap computed %d jobs, want 4", delta)
			}
		})
	}
}

// TestIntegrationRestartResume proves jobs survive restarts: a draining
// server suspends mid-sweep with every in-flight job checkpointed, and the
// next boot recovers the manifest, resumes the snapshots and completes the
// sweep with bytes identical to an uninterrupted run.
func TestIntegrationRestartResume(t *testing.T) {
	req := integrationRequest("sync")
	want := referenceCellLines(t, req)
	dir := t.TempDir()

	// Server A checkpoints every 2 rounds and suspends each job after its
	// first segment — the deterministic stand-in for SIGTERM arriving with
	// the whole sweep in flight.
	srvA, err := New(Config{Dir: dir, Workers: 2, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	srvA.testMaxSegments = 1
	tsA := httptest.NewServer(srvA.Handler())

	body, _ := json.Marshal(req)
	resp, err := http.Post(tsA.URL+"/v1/sweeps?async=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var status SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || status.ID == "" {
		t.Fatalf("async submit: status %d, id %q", resp.StatusCode, status.ID)
	}

	// Every job runs one segment and suspends; none completes.
	waitIdle(t, srvA)
	if st := srvA.lookupSweep(status.ID).status(); st.DoneJobs != 0 {
		t.Fatalf("testMaxSegments=1 let %d jobs complete", st.DoneJobs)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(drainCtx); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	snaps, err := filepath.Glob(filepath.Join(dir, "snaps", "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("drained server persisted no job snapshots")
	}

	// Server B boots from the store: the manifest re-registers the sweep,
	// every job resumes its snapshot, and the sweep completes.
	srvB := newTestServer(t, Config{Dir: dir, Workers: 2, CheckpointEvery: 2})
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	if srvB.lookupSweep(status.ID) == nil {
		t.Fatalf("recovered server does not know sweep %s", status.ID)
	}
	streamResp, err := http.Get(tsB.URL + "/v1/sweeps/" + status.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(streamResp.Body); err != nil {
		t.Fatal(err)
	}
	streamResp.Body.Close()
	assertLinesEqual(t, splitStream(t, buf.Bytes()), want, "resumed sweep vs uninterrupted reference")

	// The resumed jobs really continued from their snapshots rather than
	// restarting: server B never ran a job's first segment from scratch
	// (it would have re-persisted a fresh round-2 snapshot either way, so
	// the observable proof is the snapshot files are consumed)...
	waitIdle(t, srvB)
	snaps, err = filepath.Glob(filepath.Join(dir, "snaps", "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 0 {
		t.Fatalf("%d job snapshots left after completion", len(snaps))
	}
	// ...and the completed sweep's manifest is marked done, so a third boot
	// replays it from cache alone.
	var m Manifest
	mb, err := os.ReadFile(filepath.Join(dir, "sweeps", status.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mb, &m); err != nil || !m.Done {
		t.Fatalf("manifest not marked done after completion: %s", mb)
	}
}

// TestIntegrationConcurrentClients streams one sweep to many simultaneous
// clients — a mix of submitters (who all join the same content-derived
// sweep) and followers on the stream endpoint — and requires every client
// to observe identical bytes. Run under -race, this is also the data-race
// proof for the shared cell lines.
func TestIntegrationConcurrentClients(t *testing.T) {
	req := integrationRequest("sync")
	want := referenceCellLines(t, req)

	srv := newTestServer(t, Config{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 8
	streams := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			errs[i] = StreamSweep(context.Background(), ts.URL, req, &buf)
			streams[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	// StreamSweep strips the trailer, so each client's bytes are exactly
	// the cell lines.
	wantBody := &bytes.Buffer{}
	for _, line := range want {
		wantBody.Write(line)
		wantBody.WriteByte('\n')
	}
	for i := range streams {
		if !bytes.Equal(streams[i], wantBody.Bytes()) {
			t.Fatalf("client %d observed different bytes than the reference", i)
		}
	}

	// Followers on the replay endpoint see the same cells plus the trailer.
	id := func() string {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for id := range srv.sweeps {
			return id
		}
		return ""
	}()
	if id == "" {
		t.Fatal("sweep not registered")
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	assertLinesEqual(t, splitStream(t, buf.Bytes()), want, "replay endpoint")

	// Status agrees the work happened exactly once.
	stResp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st SweepStatus
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	stResp.Body.Close()
	if st.Status != "done" || st.DoneJobs != st.TotalJobs {
		t.Fatalf("status after completion: %+v", st)
	}
	if got := srv.Stats().JobsComputed; got != uint64(st.TotalJobs) {
		t.Fatalf("JobsComputed = %d, want %d (each job exactly once)", got, st.TotalJobs)
	}
}

// TestIntegrationStreamWhileRunning asserts streaming is genuinely
// incremental: the first cell line arrives while later jobs are still
// queued behind a deliberately slowed pool.
func TestIntegrationStreamWhileRunning(t *testing.T) {
	req := integrationRequest("sync")
	srv := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read just the first line: it must be a well-formed cell the progress
	// endpoint already counts as done, even though the response is still
	// open and later cells may still be computing.
	rd := bufio.NewReader(resp.Body)
	first, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var cell plurality.SweepCell
	if err := json.Unmarshal(first, &cell); err != nil {
		t.Fatalf("first stream line is not a cell: %q", first)
	}
	id := resp.Header.Get("X-Plurality-Sweep")
	stResp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st SweepStatus
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	stResp.Body.Close()
	if st.DoneCells == 0 {
		t.Fatal("stream delivered a cell the server says is not done")
	}
	if _, err := io.Copy(io.Discard, rd); err != nil {
		t.Fatal(err)
	}
}
