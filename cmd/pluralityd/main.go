// Command pluralityd serves plurality-consensus simulation as a service: an
// HTTP/JSON daemon accepting single runs (POST /v1/runs) and factor-grid
// sweeps (POST /v1/sweeps), executing them on a bounded worker pool with
// admission control, streaming sweep cells as NDJSON while later cells are
// still computing, and caching every completed job in a content-addressed
// store — a resubmitted or overlapping sweep is served byte-identically
// with zero simulation work.
//
// With -store set, state survives restarts: sweep manifests, cached results
// and periodic job snapshots persist there, SIGTERM drains in-flight work to
// snapshots, and the next boot resumes every unfinished sweep where it left
// off. Cached results and snapshots are written in the background, off the
// request path; a graceful drain flushes them, while a crash can lose the
// last few (the lost work is recomputed, with the same results).
//
// Usage:
//
//	pluralityd -addr :7600 -store /var/lib/pluralityd
//	curl -s localhost:7600/v1/protocols | jq .
//	curl -s -X POST localhost:7600/v1/sweeps -d '{"protocol":"sync","base":{"seed":1},"ns":[1000,10000],"ks":[4],"alphas":[2]}'
//
// Endpoints:
//
//	GET  /healthz               liveness (503 while draining)
//	GET  /v1/protocols          registered protocols and capabilities
//	GET  /v1/stats              work counters and pool load
//	POST /v1/runs               one run, synchronous; Result JSON
//	POST /v1/sweeps             submit + stream NDJSON cells (?async=1: just the ID)
//	GET  /v1/sweeps/{id}        progress counters
//	GET  /v1/sweeps/{id}/stream replay + follow a sweep's cell stream
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"plurality/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":7600", "listen address")
		storeDir = flag.String("store", "", "persistence directory (result cache, sweep manifests, checkpoint segments); empty runs in memory only")
		workers  = flag.Int("workers", 0, "simulation worker pool bound; 0 means GOMAXPROCS")
		queueCap = flag.Int("queue-cap", 0, "admission queue capacity (jobs); submissions beyond it get 429; 0 means 4096")
		ckptEvry = flag.Float64("checkpoint-every", 256, "snapshot period of a running job in the protocol's native clock (virtual time or rounds): each job captures and persists a snapshot this often, so a restart loses at most one period of its work; 0 disables the snapshots")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget: time to let in-flight jobs finish their current checkpoint segment")
	)
	flag.Parse()

	srv, err := server.New(server.Config{
		Dir:             *storeDir,
		Workers:         *workers,
		QueueCap:        *queueCap,
		CheckpointEvery: *ckptEvry,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	hs := newHTTPServer(*addr, srv.Handler())
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "pluralityd: listening on %s (store: %s)\n", *addr, storeOrMemory(*storeDir))
		errCh <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Graceful drain: first suspend the simulation pool (in-flight jobs
	// persist a snapshot at their next capture; open streams are told to
	// reconnect after restart) and flush the queued disk writes, then close
	// the listener and let handlers finish.
	fmt.Fprintln(os.Stderr, "pluralityd: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "pluralityd: drain incomplete: %v\n", err)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := hs.Shutdown(httpCtx); err != nil {
		fmt.Fprintf(os.Stderr, "pluralityd: http shutdown: %v\n", err)
	}
}

// Connection timeouts. Request bodies are small JSON specs, so a client
// gets readHeaderTimeout to send its headers and readTimeout for the whole
// request; idle keep-alive connections close after idleTimeout. There is
// no write timeout: sweep streams stay open for as long as cells compute.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's http.Server with the timeouts above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func storeOrMemory(dir string) string {
	if dir == "" {
		return "memory only"
	}
	return dir
}
