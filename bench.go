package plurality

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// BenchReport is the machine-readable throughput record of one benchmarked
// run — the unit of the repository's performance trajectory (BENCH_*.json).
// Events are simulator events for asynchronous protocols and node-updates
// (rounds × n) for round-based ones, so events/sec is comparable across a
// protocol's own history but not across protocol families.
type BenchReport struct {
	// Protocol, Topology, N, K, Alpha and Seed identify the benchmarked
	// instance.
	Protocol string  `json:"protocol"`
	Topology string  `json:"topology"`
	N        int     `json:"n"`
	K        int     `json:"k"`
	Alpha    float64 `json:"alpha"`
	Seed     uint64  `json:"seed"`
	// Events is the work metric (see type comment) and WallSeconds the
	// wall-clock duration of the run.
	Events      uint64  `json:"events"`
	WallSeconds float64 `json:"wall_seconds"`
	// EventsPerSec is Events / WallSeconds.
	EventsPerSec float64 `json:"events_per_sec"`
	// WorkUnit names what Events counts: "events" (simulator events, the
	// asynchronous protocols) or "node_updates" (rounds × n, the
	// round-based protocols — the synchronous engine's throughput is
	// node-updates/s, not events/s). The field makes the unit explicit in
	// every report; the events/events_per_sec key names are kept for
	// BENCH_*.json continuity.
	WorkUnit string `json:"work_unit"`
	// AllocBytes and Allocs are the heap traffic of the run (TotalAlloc and
	// Mallocs deltas), and BytesPerEvent / AllocsPerEvent the per-event
	// quotients. The steady-state scheduling path allocates nothing, so
	// AllocsPerEvent is dominated by the O(n) setup and tends to zero as
	// the run length grows.
	AllocBytes     uint64  `json:"alloc_bytes"`
	Allocs         uint64  `json:"allocs"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// PeakHeapBytes is the maximum live heap observed while the run was in
	// flight, sampled at millisecond granularity (approximate from below).
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// GoMaxProcs records the parallelism available to the process and
	// Workers how many the benchmark actually used (1 for a single run).
	GoMaxProcs int `json:"gomaxprocs"`
	Workers    int `json:"workers"`
	// Reps is the number of replications a batch benchmark executed (1 for
	// a single run).
	Reps int `json:"reps"`
}

// JSON renders the report as one indented JSON object.
func (r *BenchReport) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// A flat struct of scalars cannot fail to marshal.
		panic(err)
	}
	return string(b)
}

// heapSampler polls the live heap size in a background goroutine and
// records the maximum, approximating peak heap without instrumenting the
// hot path. The 25ms cadence keeps the stop-the-world cost of
// runtime.ReadMemStats well under 1% of the measured window.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{})}
	hs.wg.Add(1)
	go func() {
		defer hs.wg.Done()
		ticker := time.NewTicker(25 * time.Millisecond)
		defer ticker.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-hs.stop:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > hs.peak {
					hs.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return hs
}

func (hs *heapSampler) finish() uint64 {
	close(hs.stop)
	hs.wg.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > hs.peak {
		hs.peak = ms.HeapAlloc
	}
	return hs.peak
}

// benchEvents extracts the work metric and its unit from a finished run:
// simulator events for asynchronous protocols, node-updates (rounds × n)
// for round-based ones.
func benchEvents(res *Result, n int) (uint64, string) {
	if ev, ok := res.Stats["events"]; ok {
		return uint64(ev), "events"
	}
	return uint64(res.Duration) * uint64(n), "node_updates"
}

// Bench executes one run of the named protocol with trajectory recording
// disabled and returns its throughput report: events/sec, allocation
// traffic and approximate peak heap. The run itself is the ordinary
// deterministic Run — benchmarking changes measurement, not behaviour.
func Bench(ctx context.Context, name string, spec Spec) (*BenchReport, error) {
	spec = benchSpec(spec)
	return benchRun(ctx, name, spec, 1, 1, func(ctx context.Context) (uint64, string, error) {
		res, err := Run(ctx, name, spec)
		if err != nil {
			return 0, "", err
		}
		events, unit := benchEvents(res, spec.N)
		return events, unit, nil
	})
}

// BenchBatch executes reps seeded replications through RunBatch on the
// given worker bound and reports aggregate throughput: total events across
// all replications over the batch's wall-clock time. Comparing workers=1
// with workers=GOMAXPROCS measures the batch layer's parallel speedup.
func BenchBatch(ctx context.Context, name string, spec Spec, reps, workers int) (*BenchReport, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	spec = benchSpec(spec)
	return benchRun(ctx, name, spec, reps, workers, func(ctx context.Context) (uint64, string, error) {
		results, err := RunBatch(ctx, name, spec, reps, workers)
		if err != nil {
			return 0, "", err
		}
		// Fold the batch into the summed work count; every replication runs
		// the same protocol, so they all report the same unit.
		total, unit := uint64(0), ""
		for _, r := range results {
			ev, u := benchEvents(r, spec.N)
			total += ev
			unit = u
		}
		return total, unit, nil
	})
}

// benchSpec sanitizes a spec for benchmarking: trajectory accumulation and
// observers would measure the recorder and the sink, not the kernel.
func benchSpec(spec Spec) Spec {
	spec.DiscardTrajectory = true
	spec.Observer = nil
	return spec
}

func benchRun(ctx context.Context, name string, spec Spec, reps, workers int,
	run func(context.Context) (uint64, string, error)) (*BenchReport, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hs := startHeapSampler()
	start := time.Now()
	events, unit, err := run(ctx)
	wall := time.Since(start).Seconds()
	peak := hs.finish()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	if events == 0 {
		return nil, fmt.Errorf("plurality: bench of %q produced no events", name)
	}
	rep := &BenchReport{
		Protocol:      name,
		Topology:      spec.Topology.ResolvedLabel(spec.N),
		N:             spec.N,
		K:             spec.K,
		Alpha:         spec.Alpha,
		Seed:          spec.Seed,
		Events:        events,
		WallSeconds:   wall,
		EventsPerSec:  float64(events) / wall,
		WorkUnit:      unit,
		AllocBytes:    m1.TotalAlloc - m0.TotalAlloc,
		Allocs:        m1.Mallocs - m0.Mallocs,
		PeakHeapBytes: peak,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Workers:       workers,
		Reps:          reps,
	}
	rep.BytesPerEvent = float64(rep.AllocBytes) / float64(events)
	rep.AllocsPerEvent = float64(rep.Allocs) / float64(events)
	return rep, nil
}
