package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"plurality"
	"plurality/internal/harness"
)

// Config parameterizes a Server.
type Config struct {
	// Dir is the persistence root (result cache, sweep manifests, job
	// snapshots); "" runs fully in memory — restarts then start cold, but
	// every other behaviour is identical.
	Dir string
	// Workers bounds the simulation pool; <= 0 means GOMAXPROCS.
	Workers int
	// QueueCap bounds the admission queue; submissions that would exceed
	// it are refused with 429. <= 0 means 4096.
	QueueCap int
	// CheckpointEvery is the checkpoint segment length in the protocol's
	// native clock (virtual time or rounds): each job runs as one
	// simulation that captures a snapshot every CheckpointEvery
	// (CheckpointSpec.Every) and persists it, so a shutdown loses at most
	// one segment of work. <= 0 disables capture (jobs run to completion
	// with nothing persisted on the way). Ignored without a persistence
	// Dir.
	CheckpointEvery float64
	// MaxBodyBytes bounds request bodies; <= 0 means 8 MiB.
	MaxBodyBytes int64
}

// errSuspended marks a job interrupted by drain with its progress
// persisted; the next boot's recovery resumes it from the stored snapshot.
var errSuspended = errors.New("server: job suspended for shutdown")

// Server is the pluralityd serving core: HTTP handlers over a bounded
// worker pool, a content-addressed result cache and a restart-safe store.
// Construct with New, serve Handler(), stop with Shutdown.
//
// Cache entries and job snapshots reach the disk through one write-behind
// writer, so no request waits on a file write; sweep manifests are written
// before a submission is acknowledged. A graceful Shutdown flushes every
// queued write. A crash can lose the queued ones: a lost cache entry is
// recomputed, and a lost snapshot resumes its job from an older snapshot
// or from scratch — the results are the same either way.
type Server struct {
	cfg    Config
	pool   *harness.Pool
	cache  *Cache
	store  *Store
	writer *writer // nil without a persistence Dir
	mux    *http.ServeMux

	mu     sync.Mutex
	sweeps map[string]*sweepState

	draining atomic.Bool
	drainCh  chan struct{}

	jobsComputed    atomic.Uint64
	jobsCached      atomic.Uint64
	segmentsRun     atomic.Uint64
	eventsSimulated atomic.Uint64

	// testMaxSegments, when positive, suspends every job at its
	// testMaxSegments-th checkpoint capture, after persisting it — the
	// deterministic stand-in for "SIGTERM arrived mid-job" in the
	// restart-resume tests.
	testMaxSegments int
}

// New builds a Server, recovering every unfinished persisted sweep: cached
// jobs are replayed from the result cache, snapshotted jobs resume from
// their last checkpoint segment, and only the remainder is simulated from
// scratch.
func New(cfg Config) (*Server, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	cacheDir := ""
	if cfg.Dir != "" {
		cacheDir = filepath.Join(cfg.Dir, "cas")
	}
	cache, err := NewCache(cacheDir)
	if err != nil {
		return nil, err
	}
	store, err := newStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		pool:    harness.NewPool(cfg.Workers, cfg.QueueCap, nil),
		cache:   cache,
		store:   store,
		sweeps:  make(map[string]*sweepState),
		drainCh: make(chan struct{}),
	}
	if store != nil {
		s.writer = store.w
		cache.w = store.w
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/protocols", s.handleProtocols)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/runs", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleSweepStream)
	if err := s.recoverSweeps(); err != nil {
		s.writer.close()
		return nil, err
	}
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots the server's work counters and pool load.
func (s *Server) Stats() Stats {
	queued, running := s.pool.Pending()
	return Stats{
		JobsComputed:    s.jobsComputed.Load(),
		JobsCached:      s.jobsCached.Load(),
		SegmentsRun:     s.segmentsRun.Load(),
		EventsSimulated: s.eventsSimulated.Load(),
		QueuedJobs:      queued,
		RunningJobs:     running,
		PendingWrites:   s.writer.pending(),
		WriteErrors:     s.writer.failed(),
	}
}

// Shutdown drains the server gracefully: admission stops (new work gets
// 503, open streams are told to reconnect after restart), in-flight jobs
// run to their next checkpoint capture, persist it and suspend. When ctx
// expires first, outstanding job contexts are cancelled — the last persisted
// segment still resumes on next boot, only the segment in flight is lost.
// Once the pool has drained, every queued cache and snapshot write is
// flushed to disk and the writer stops, before Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
	err := s.pool.Drain(ctx)
	s.writer.close()
	return err
}

// recoverSweeps re-registers every persisted sweep at boot. Manifests store
// requests, and planning is deterministic, so the recovered job list — and
// every cache key — is identical to the original submission's; the cache
// probe then replays finished jobs and only the rest is enqueued.
func (s *Server) recoverSweeps() error {
	for _, m := range s.store.LoadManifests() {
		plan, keys, err := planSweep(m.Request, math.MaxInt) // bounded when admitted
		if err == nil {
			_, _, err = s.registerSweep(m.Request, plan, keys)
		}
		if err != nil {
			return fmt.Errorf("server: recovering sweep %s: %w", m.ID, err)
		}
	}
	return nil
}

// registerSweep deduplicates, cache-probes and enqueues a planned sweep
// submission. The returned status code is the HTTP code a handler should
// fail with when err != nil (429 when admission is refused, 503 while
// draining).
func (s *Server) registerSweep(req SweepRequest, plan *plurality.SweepPlan, keys []string) (*sweepState, int, error) {
	id := sweepID(plan.Protocol, plan.Reps, keys)

	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.sweeps[id]; ok {
		return st, http.StatusOK, nil // resubmission joins the existing sweep
	}
	st := newSweepState(id, req, plan, keys)
	// Probe the cache first: jobs already computed — by an earlier boot, an
	// overlapping sweep or a prior identical submission — replay without
	// touching the pool or the admission budget.
	var missing []int
	for job, key := range keys {
		if blob, ok := s.cache.Get(key); ok {
			if m, err := decodeMetrics(blob); err == nil {
				s.jobsCached.Add(1)
				st.jobDone(job, m, true)
				continue
			}
		}
		missing = append(missing, job)
	}
	if len(missing) > 0 {
		if s.draining.Load() {
			return nil, http.StatusServiceUnavailable, errors.New("server draining; resubmit after restart")
		}
		jobs := make([]harness.Job, len(missing))
		for i, job := range missing {
			jobs[i] = s.cellJob(st, job)
		}
		handles, ok := s.pool.TrySubmitAll(jobs)
		if !ok {
			return nil, http.StatusTooManyRequests,
				fmt.Errorf("queue full: %d jobs would exceed capacity %d", len(missing), s.cfg.QueueCap)
		}
		st.handles = handles
	}
	s.sweeps[id] = st
	// A failed manifest write only degrades restart durability: the sweep
	// still runs this boot. It shows as a write error on /v1/stats.
	s.writer.note(s.store.SaveManifest(Manifest{ID: id, Request: req, Done: len(missing) == 0}))
	return st, http.StatusOK, nil
}

// cellJob builds the pool job for one (cell, replication) unit: re-check
// the cache (an overlapping sweep may have computed the key since
// admission), otherwise simulate — segmented under CheckpointEvery — and
// publish the measurements.
func (s *Server) cellJob(st *sweepState, job int) harness.Job {
	return func(ctx context.Context, _ any) error {
		if st.failedMsg() != "" {
			return nil
		}
		key := st.keys[job]
		if blob, ok := s.cache.Get(key); ok {
			if m, err := decodeMetrics(blob); err == nil {
				s.jobsCached.Add(1)
				s.finishJob(st, job, m, true)
				return nil
			}
		}
		res, err := s.compute(ctx, st.plan.Protocol, st.jobSpec(job), key)
		if err != nil {
			if errors.Is(err, errSuspended) || ctx.Err() != nil {
				return nil // progress persisted; the next boot resumes it
			}
			st.fail(err.Error())
			return nil
		}
		m := plurality.StandardMetrics(res)
		if blob, err := encodeMetrics(m); err == nil {
			s.writer.note(s.cache.Put(key, blob))
		}
		s.jobsComputed.Add(1)
		s.finishJob(st, job, m, false)
		return nil
	}
}

// finishJob records a job result and persists the manifest's Done bit when
// it was the sweep's last.
func (s *Server) finishJob(st *sweepState, job int, m map[string]float64, cached bool) {
	if st.jobDone(job, m, cached) {
		s.writer.note(s.store.SaveManifest(Manifest{ID: st.id, Request: st.req, Done: true}))
	}
}

// compute runs one job to completion. With segmentation on it is one
// simulation whose periodic captures (CheckpointSpec.Every) are persisted
// as they are taken, or one Resume of a snapshot an earlier boot persisted.
// Every capture counts as a segment, and so does the final piece. A
// draining server suspends the job at its next capture, once that capture
// is persisted; a job that finishes anyway returns its Result, which is
// bit-identical to an uninterrupted run's — the snapshot subsystem's
// roundtrip guarantee. The returned Result carries no Snapshot.
func (s *Server) compute(ctx context.Context, protocol string, spec plurality.Spec, key string) (*plurality.Result, error) {
	every := s.cfg.CheckpointEvery
	segmented := every > 0 && s.store != nil
	if segmented {
		if info, err := plurality.Info(protocol); err != nil || !info.Checkpointable {
			segmented = false
		}
	}
	var (
		res *plurality.Result
		err error
	)
	if !segmented {
		res, err = plurality.Run(ctx, protocol, spec)
	} else {
		var from *plurality.Snapshot
		stored := s.store.LoadJobSnapshot(key)
		if stored != nil {
			if dec, err := plurality.DecodeSnapshot(stored); err == nil {
				from = dec // resume an earlier boot's progress
			}
			// Undecodable snapshots (version skew, torn write despite the
			// rename protocol) just recompute from scratch.
		}
		if from != nil && s.draining.Load() {
			return nil, errSuspended
		}
		jctx, cancel := context.WithCancel(ctx)
		defer cancel()
		captures, suspended := 0, false
		ck := plurality.CheckpointSpec{SnapshotAt: every, Every: every, Sink: func(sn *plurality.Snapshot) {
			if blob, err := sn.Encode(); err == nil {
				s.store.SaveJobSnapshot(key, blob)
			}
			s.segmentsRun.Add(1)
			captures++
			if s.draining.Load() || (s.testMaxSegments > 0 && captures >= s.testMaxSegments) {
				suspended = true
				cancel()
			}
		}}
		if from == nil {
			spec.Checkpoint = ck
			res, err = plurality.Run(jctx, protocol, spec)
		} else {
			ck.SnapshotAt = from.Meta().Time + every
			res, err = plurality.Resume(jctx, from, &plurality.ResumeOptions{
				DiscardTrajectory: spec.DiscardTrajectory, Checkpoint: ck})
		}
		if err != nil && suspended {
			return nil, errSuspended // progress persisted; the next boot resumes it
		}
		if err == nil && (stored != nil || captures > 0) {
			s.store.DeleteJobSnapshot(key)
		}
	}
	if err != nil {
		return nil, err
	}
	res.Snapshot = nil
	s.segmentsRun.Add(1)
	s.eventsSimulated.Add(resultEvents(res, spec.N))
	return res, nil
}

// resultEvents is the run's work metric: executed kernel events for
// event-driven protocols, rounds × n for round-based ones (mirroring the
// bench layer's accounting).
func resultEvents(res *plurality.Result, n int) uint64 {
	if ev, ok := res.Stats["events"]; ok {
		return uint64(ev)
	}
	return uint64(res.Duration) * uint64(n)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleProtocols(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name           string `json:"name"`
		Family         string `json:"family"`
		Async          bool   `json:"async"`
		TopologyAware  bool   `json:"topology_aware"`
		Checkpointable bool   `json:"checkpointable"`
		Description    string `json:"description"`
	}
	names := plurality.Protocols()
	sort.Strings(names)
	out := make([]entry, 0, len(names))
	for _, name := range names {
		info, err := plurality.Info(name)
		if err != nil {
			continue
		}
		out = append(out, entry{
			Name: info.Name, Family: info.Family, Async: info.Async,
			TopologyAware: info.TopologyAware, Checkpointable: info.Checkpointable,
			Description: info.Description,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleRun executes (or serves from cache) one run synchronously. The
// response body is the complete Result JSON; the X-Plurality-Cache header
// says which path served it.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, key, err := admitRun(r.Body, s.cfg.MaxBodyBytes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if blob, ok := s.cache.Get(key); ok {
		s.jobsCached.Add(1)
		w.Header().Set("X-Plurality-Cache", "hit")
		w.Header().Set("Content-Type", "application/json")
		w.Write(blob)
		return
	}
	if s.draining.Load() {
		http.Error(w, "server draining; resubmit after restart", http.StatusServiceUnavailable)
		return
	}
	var (
		res    *plurality.Result
		runErr error
	)
	h, ok := s.pool.TrySubmit(func(ctx context.Context, _ any) error {
		res, runErr = s.compute(ctx, req.Protocol, req.Spec, key)
		return nil
	})
	if !ok {
		s.refuse(w)
		return
	}
	select {
	case <-h.Done():
	case <-r.Context().Done():
		h.Cancel()
		<-h.Done()
	}
	if runErr != nil {
		code := http.StatusBadRequest
		if errors.Is(runErr, errSuspended) || r.Context().Err() != nil {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, runErr.Error(), code)
		return
	}
	blob, err := json.Marshal(res)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.jobsComputed.Add(1)
	s.writer.note(s.cache.Put(key, blob))
	w.Header().Set("X-Plurality-Cache", "miss")
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}

// handleSweepSubmit registers a sweep and — unless ?async=1 asked for just
// the ID — streams its cells as NDJSON, in grid order, as they complete.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	// Any sweep the queue could take is admissible, and a larger one only
	// runs if the cache holds enough of it (registerSweep answers 429).
	req, plan, keys, err := admitSweep(r.Body, s.cfg.MaxBodyBytes, max(maxSweepJobs, s.cfg.QueueCap))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	st, code, err := s.registerSweep(req, plan, keys)
	if err != nil {
		if code == http.StatusTooManyRequests {
			s.refuse(w)
			return
		}
		http.Error(w, err.Error(), code)
		return
	}
	if r.URL.Query().Get("async") == "1" {
		writeJSON(w, http.StatusAccepted, st.status())
		return
	}
	s.streamSweep(w, r, st)
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	st := s.lookupSweep(r.PathValue("id"))
	if st == nil {
		http.Error(w, "unknown sweep", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st.status())
}

// handleSweepStream replays and follows a sweep's NDJSON cell stream —
// the reconnect path after a dropped submit stream or a server restart.
func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	st := s.lookupSweep(r.PathValue("id"))
	if st == nil {
		http.Error(w, "unknown sweep", http.StatusNotFound)
		return
	}
	s.streamSweep(w, r, st)
}

func (s *Server) lookupSweep(id string) *sweepState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

// streamSweep writes the sweep's cells as NDJSON in grid order, flushing
// each line as it completes, then a {"done":true} trailer — or an
// {"error":...} line on failure or interruption. Cells stream while later
// cells are still computing; a fully cached sweep streams instantly.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, st *sweepState) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Plurality-Sweep", st.id)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	writeLine := func(v any) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return false
		}
		flush()
		return true
	}
	for i := range st.plan.Cells {
		line, errMsg := st.waitCell(r.Context(), i, s.drainCh)
		if errMsg != "" {
			writeLine(streamError{Error: errMsg})
			return
		}
		// Write the newline separately: line is a shared immutable slice
		// (concurrent streams serve the same cell), so appending to it
		// could race on its backing array.
		if _, err := w.Write(line); err != nil {
			return // client went away; the sweep keeps running
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return
		}
		flush()
	}
	writeLine(streamTrailer{Done: true, Cells: len(st.plan.Cells)})
}

// refuse sheds load: 429 with a Retry-After estimated from the queue depth
// and worker count.
func (s *Server) refuse(w http.ResponseWriter) {
	queued, running := s.pool.Pending()
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	retry := 1 + (queued+running)/workers
	if retry > 60 {
		retry = 60
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	http.Error(w, "queue full, retry later", http.StatusTooManyRequests)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}
