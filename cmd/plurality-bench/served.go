package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plurality"
	"plurality/internal/server"
	"plurality/internal/xrand"
)

// deck is the make-up of every block of ten served-runs requests: eight
// repeat a spec of the hit pool and two are fresh specs the server must
// compute, and both kinds split evenly between the two spec families. The
// mix is fixed so that it does not vary with the seed, which only orders
// each block and picks the pool entries and fresh seeds.
var deck = [10]struct {
	hit    bool
	family int
}{
	{true, 0}, {true, 0}, {true, 0}, {true, 0}, {true, 1},
	{true, 1}, {true, 1}, {true, 1}, {false, 0}, {false, 1},
}

// rates is the open-loop ladder of the traced served probe, in requests
// per second; rates[0] is its operating point.
var rates = []float64{50, 100, 200}

const (
	// Limits a ladder step must meet to count toward load.max_ok_rate,
	// besides having no failed request: a latency tail within latencyLimit,
	// and a generator no further behind its schedule than latenessLimit,
	// past which it is building a backlog.
	latencyLimit  = 0.25 // seconds, on the latency tail
	latenessLimit = 0.05 // seconds, on the generator lateness tail
)

// missSpec is a served-runs request the server computes from scratch:
// family 0 is sync at n=5·10⁴, k=16 (more than 8 rounds, so at least two
// checkpoint segments of 8); family 1 is 3-majority on a random 8-regular
// graph at n=10⁴ (several segments, each rebuilding the graph).
func missSpec(sc scale, family int, seed uint64) (string, plurality.Spec) {
	if family == 0 {
		return "sync", plurality.Spec{N: sc.missSyncN, K: 16, Alpha: 2, Seed: seed}
	}
	return "3-majority", plurality.Spec{N: sc.missMajN, K: 4, Alpha: 2, Seed: seed,
		Topology: plurality.TopologySpec{Kind: plurality.TopologyRandomRegular, Degree: 8}}
}

// request is one planned POST /v1/runs.
type request struct {
	spec plurality.Spec
	body []byte
	hit  bool          // must be served from the cache
	want [32]byte      // for a hit: the hash of the body its miss returned
	at   time.Duration // scheduled send time, from the start of the step
}

func newRequest(protocol string, spec plurality.Spec) (request, error) {
	body, err := json.Marshal(server.RunRequest{Protocol: protocol, Spec: spec})
	return request{spec: spec, body: body}, err
}

// arrivals returns n Poisson arrival times at rate per second drawn from
// seed: the open-loop schedule of one step.
func arrivals(seed uint64, rate float64, n int) []time.Duration {
	r := xrand.New(seed)
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += r.Exp(rate)
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// served is the pluralityd serving core behind a loopback listener, with
// its result cache warmed by the hit pool.
type served struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	dir    string
	client *http.Client
	pool   []request
}

// startServed starts a server on a fresh store and warms its cache with the
// hit pool.
func startServed(ctx context.Context, e env) (*served, error) {
	dir, err := os.MkdirTemp("", "plurality-bench-served-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Dir: dir, Workers: e.workers, CheckpointEvery: 8})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(ctx)
		os.RemoveAll(dir)
		return nil, err
	}
	s := &served{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/runs",
		dir:    dir,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers, DisableCompression: true,
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	if err := s.warm(ctx, e); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warm computes every spec of the hit pool once, one request at a time
// (a single client keeps setup_s as steady as the one-threaded workloads),
// and records the bytes each returned, which its hits must repeat.
func (s *served) warm(ctx context.Context, e env) error {
	s.pool = make([]request, e.sc.hitPool)
	for i := range s.pool {
		req, err := newRequest(missSpec(e.sc, i%2, derive(e.seed, "pool", i)))
		if err != nil {
			return err
		}
		resp, err := s.post(ctx, req.body)
		if err == nil {
			err = verify(req, resp)
		}
		if err != nil {
			return fmt.Errorf("warming the cache with pool spec %d: %w", i, err)
		}
		req.hit, req.want = true, sha256.Sum256(resp.body)
		s.pool[i] = req
	}
	return nil
}

// close stops the listener and the server and removes the store.
func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "plurality-bench: server shutdown:", err)
	}
	os.RemoveAll(s.dir)
}

type response struct {
	status int
	cache  string // X-Plurality-Cache
	body   []byte
}

func (s *served) post(ctx context.Context, body []byte) (response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return response{status: resp.StatusCode, cache: resp.Header.Get("X-Plurality-Cache"), body: b}, err
}

// verify checks one response: status 200, and either a hit whose bytes
// equal the bytes the same key returned when it missed, or a miss whose
// body decodes to a correct result.
func verify(req request, resp response) error {
	if resp.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.status, bytes.TrimSpace(resp.body))
	}
	if req.hit {
		if resp.cache != "hit" {
			return fmt.Errorf("repeated spec served as %q, want hit", resp.cache)
		}
		if sha256.Sum256(resp.body) != req.want {
			return errors.New("hit bytes differ from the bytes the miss returned")
		}
		return nil
	}
	if resp.cache != "miss" {
		return fmt.Errorf("fresh spec served as %q, want miss", resp.cache)
	}
	var res plurality.Result
	if err := json.Unmarshal(resp.body, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	return checkResult(req.spec, &res)
}

// plan is the deterministic request sequence of step number `step`: blocks
// of ten requests made up as deck says, in a seeded order, sent at Poisson
// arrivals at rate, or for rate 0 in a closed loop, where each connection
// sends its next request as soon as its last one returns.
func (s *served) plan(e env, step int, rate float64, n int) ([]request, error) {
	at := make([]time.Duration, n)
	if rate > 0 {
		at = arrivals(derive(e.seed, "arrivals", step), rate, n)
	}
	mix := xrand.New(derive(e.seed, "mix", step))
	out := make([]request, n)
	var order []int
	for i := range out {
		if i%len(deck) == 0 {
			order = mix.Perm(len(deck))
		}
		d := deck[order[i%len(deck)]]
		if d.hit {
			// The pool alternates families: even entries are sync.
			out[i] = s.pool[2*mix.Intn(len(s.pool)/2)+d.family]
		} else {
			req, err := newRequest(missSpec(e.sc, d.family, derive(e.seed, fmt.Sprintf("miss-%d", step), i)))
			if err != nil {
				return nil, err
			}
			out[i] = req
		}
		out[i].at = at[i]
	}
	return out, nil
}

// stepResult is the outcome of the requests one step sent. Latencies are
// measured from each request's scheduled send time, so a stall also counts
// against the requests queued behind it; lateness is how far behind
// schedule a request was sent. In a closed loop a request is due when its
// connection is free, so its latency is its own round trip.
type stepResult struct {
	lat, late              []float64
	hitLat, missLat        []float64
	tracedLat, untracedLat []float64
	ok                     int
	failures               []string
	digests                [][]byte // of the OK responses, in request order
	wall                   float64  // seconds from the step's start to its last response
	busy                   float64  // mean running jobs per worker
	hitRatio, segsPerMiss  float64
}

// passes reports whether the step meets the limits of load.max_ok_rate.
func (r *stepResult) passes() bool {
	lat, _ := tail(r.lat)
	late, _ := tail(r.late)
	return len(r.failures) == 0 && lat <= latencyLimit && late <= latenessLimit
}

// load is the traffic of one step: n requests of plan number step at rate
// (0 for a closed loop) over clients connections. A positive until stops
// each client from sending once that much time has passed and the first
// block of len(deck) requests is sent; requests not sent are not
// attempted.
type load struct {
	step    int
	rate    float64
	n       int
	clients int
	until   time.Duration
}

// step sends the requests of l over one client goroutine per connection.
// With tr set, every other request is sent inside a span, so traced and
// untraced requests share conditions.
func (s *served) step(ctx context.Context, e env, l load, tr *tracer) (*stepResult, error) {
	plan, err := s.plan(e, l.step, l.rate, l.n)
	if err != nil {
		return nil, err
	}
	type outcome struct {
		late, lat time.Duration
		resp      response
		err       error
		sent      bool
		traced    bool
	}
	outs := make([]outcome, l.n)
	before := s.srv.Stats()
	stopPoll := s.pollBusy(e.workers)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for range l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < l.n; i = int(next.Add(1) - 1) {
				if l.until > 0 && time.Since(start) >= l.until && i >= len(deck) {
					return
				}
				due := start.Add(plan[i].at)
				if l.rate == 0 {
					due = time.Now()
				}
				if err := sleepUntil(ctx, due); err != nil {
					outs[i] = outcome{err: err, sent: true}
					continue
				}
				sent := time.Now()
				id := 0
				if tr != nil && i%2 == 0 {
					name := "server.miss"
					if plan[i].hit {
						name = "server.hit"
					}
					id = tr.begin(0, name)
				}
				resp, err := s.post(ctx, plan[i].body)
				tr.end(id)
				done := time.Now()
				outs[i] = outcome{late: sent.Sub(due), lat: done.Sub(due), resp: resp, err: err, sent: true, traced: id != 0}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	busy := stopPoll()
	after := s.srv.Stats()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	r := &stepResult{wall: wall, busy: busy}
	for i, o := range outs {
		if !o.sent {
			continue
		}
		lat := o.lat.Seconds()
		r.lat = append(r.lat, lat)
		r.late = append(r.late, o.late.Seconds())
		if o.traced {
			r.tracedLat = append(r.tracedLat, lat)
		} else {
			r.untracedLat = append(r.untracedLat, lat)
		}
		err := o.err
		if err == nil {
			err = verify(plan[i], o.resp)
		}
		if err != nil {
			r.failures = append(r.failures, fmt.Sprintf("step %d, request %d: %v", l.step, i, err))
			continue
		}
		r.ok++
		d := sha256.Sum256(o.resp.body)
		r.digests = append(r.digests, d[:])
		if o.resp.cache == "hit" {
			r.hitLat = append(r.hitLat, lat)
		} else {
			r.missLat = append(r.missLat, lat)
		}
	}
	computed := float64(after.JobsComputed - before.JobsComputed)
	cached := float64(after.JobsCached - before.JobsCached)
	r.hitRatio = cached / (cached + computed)
	r.segsPerMiss = float64(after.SegmentsRun-before.SegmentsRun) / computed
	return r, nil
}

// pollBusy samples the server's running-job count every 25 ms until the
// returned function is called, which stops the sampling and returns the
// mean running jobs per worker.
func (s *served) pollBusy(workers int) (stop func() float64) {
	done, busy := make(chan struct{}), make(chan float64, 1)
	go func() {
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		running, polls := 0, 0
		for {
			select {
			case <-done:
				busy <- float64(running) / float64(max(polls, 1)*workers)
				return
			case <-tick.C:
				running += s.srv.Stats().RunningJobs
				polls++
			}
		}
	}()
	return func() float64 { close(done); return <-busy }
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

const (
	// closedStep numbers the closed-loop step in plan, apart from the ladder.
	closedStep = -1
	// maxClosedRate sizes the closed-loop plan: no host sends the mix
	// faster, so the plan outlasts the closed loop's time.
	maxClosedRate = 1000
)

// measureServed is the served-runs workload: set-up starts the server and
// warms its cache (repeated; setup_s is the median). One client then sends
// the mix in a closed loop for the whole window. An operation is one block
// of len(deck) consecutive requests, which always has the same make-up, and
// its time is the sum of their round trips; as for the simulation
// workloads, the metrics are the fastest block and its rate.
//
// One client, not two connections or an open loop: over eight seeds the
// median latency spread 0.07 with one client, against 0.23 with two in a
// closed loop and 0.15 in an open loop at 10 requests/s, where requests on
// the two vCPUs contend with each other as the host's other load varies.
// The traced probe keeps the open loop over two connections.
func measureServed(ctx context.Context, e env) (*report, error) {
	var (
		s        *served
		setupSec []float64
	)
	for range servedSetups {
		if s != nil {
			s.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = startServed(ctx, e); err != nil {
			return nil, fmt.Errorf("starting the server: %w", err)
		}
		setupSec = append(setupSec, time.Since(start).Seconds())
	}
	defer s.close()
	runtime.GC()
	closed, err := s.step(ctx, e, load{step: closedStep, n: max(2*len(deck), int(maxClosedRate*e.seconds)),
		clients: 1, until: time.Duration(e.seconds * float64(time.Second))}, nil)
	if err != nil {
		return nil, err
	}
	// How many requests fit in the window depends on the host's speed, so
	// only the first block, which is always sent, enters the digest.
	rep := &report{Attempted: len(closed.lat), Digest: digestOf(closed.digests[:min(len(deck), len(closed.digests))])}
	for _, f := range closed.failures {
		rep.fail("%s", f)
	}
	var blockSec []float64
	for i := 0; i+len(deck) <= len(closed.lat); i += len(deck) {
		sec := 0.0
		for _, lat := range closed.lat[i : i+len(deck)] {
			sec += lat
		}
		blockSec = append(blockSec, sec)
	}
	best := minOf(blockSec)
	rep.add("setup_s", median(setupSec), "s", fmt.Sprintf("median of %d set-ups", len(setupSec)))
	rep.add("op_s.min", best, "s", fmt.Sprintf("%d blocks of %d requests, median %.4g s; request median %.4g s",
		len(blockSec), len(deck), median(blockSec), median(closed.lat)))
	rep.add("work_per_s.max", float64(len(deck))/best, "1/s",
		fmt.Sprintf("requests per second of the fastest block; %.4g over the loop", float64(closed.ok)/closed.wall))
	return rep, nil
}
