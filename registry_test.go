package plurality

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestProtocolsListsAllSeven pins the registry contents: the paper's three
// protocols plus the four baseline dynamics, in registration order.
func TestProtocolsListsAllSeven(t *testing.T) {
	want := []string{"sync", "leader", "decentralized",
		"pull-voting", "two-choices", "3-majority", "undecided-state"}
	got := Protocols()
	if len(got) < len(want) {
		t.Fatalf("Protocols() = %v, want at least %v", got, want)
	}
	if !reflect.DeepEqual(got[:len(want)], want) {
		t.Errorf("Protocols() = %v, want prefix %v", got, want)
	}
	for _, name := range want {
		info, err := Info(name)
		if err != nil {
			t.Fatalf("Info(%s): %v", name, err)
		}
		if info.Name != name || info.Family == "" || info.Description == "" {
			t.Errorf("Info(%s) incomplete: %+v", name, info)
		}
	}
	for _, name := range []string{"leader", "decentralized"} {
		if info, _ := Info(name); !info.Async {
			t.Errorf("%s not marked async", name)
		}
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	_, err := Run(context.Background(), "bogus", Spec{N: 10, K: 2})
	if !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("err = %v, want ErrUnknownProtocol", err)
	}
	if _, err := Lookup("bogus"); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("Lookup err = %v, want ErrUnknownProtocol", err)
	}
}

// TestRunDeterminism: the same (protocol, Spec, Seed) must yield a
// byte-identical Result — winner, counts, trajectory, stats — across runs,
// for one representative of each protocol family.
func TestRunDeterminism(t *testing.T) {
	specs := map[string]Spec{
		"sync":          {N: 2000, K: 4, Alpha: 2, Seed: 17},
		"leader":        {N: 600, K: 3, Alpha: 2.5, Seed: 17},
		"decentralized": {N: 1200, K: 2, Alpha: 3, Seed: 17},
		"3-majority":    {N: 800, K: 4, Alpha: 2, Seed: 17},
	}
	for name, spec := range specs {
		a, err := Run(context.Background(), name, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Run(context.Background(), name, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of the same spec+seed differ", name)
		}
	}
}

// TestRunCancelledContext: a context cancelled before the run must abort
// every protocol promptly with ctx.Err().
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Protocols() {
		start := time.Now()
		res, err := Run(ctx, name, Spec{N: 5000, K: 8, Alpha: 1.2, Seed: 1})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if res != nil {
			t.Errorf("%s: non-nil result on cancellation", name)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s: cancellation took %v", name, d)
		}
	}
}

// TestRunMidFlightCancellation cancels from inside the observer — the run
// must stop at the next cancellation poll and return ctx.Err().
func TestRunMidFlightCancellation(t *testing.T) {
	for _, name := range []string{"sync", "leader", "3-majority"} {
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Int64
		_, err := Run(ctx, name, Spec{
			N: 3000, K: 4, Alpha: 1.5, Seed: 2,
			Observer: ObserverFunc(func(TrajectoryPoint) {
				if seen.Add(1) == 2 {
					cancel()
				}
			}),
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestObserverStreaming: the observer must see exactly the points that end
// up in Result.Trajectory, and discarding the trajectory must not change
// the outcome.
func TestObserverStreaming(t *testing.T) {
	var streamed []TrajectoryPoint
	spec := Spec{N: 1000, K: 3, Alpha: 2, Seed: 9,
		Observer: ObserverFunc(func(p TrajectoryPoint) { streamed = append(streamed, p) })}
	res, err := Run(context.Background(), "sync", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, res.Trajectory) {
		t.Errorf("observer saw %d points, trajectory has %d and differs",
			len(streamed), len(res.Trajectory))
	}

	streamed = nil
	spec.DiscardTrajectory = true
	lean, err := Run(context.Background(), "sync", spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(lean.Trajectory) != 0 {
		t.Errorf("DiscardTrajectory left %d points", len(lean.Trajectory))
	}
	if !reflect.DeepEqual(streamed, res.Trajectory) {
		t.Error("streaming differs when discarding")
	}
	lean.Trajectory = res.Trajectory
	if !reflect.DeepEqual(lean, res) {
		t.Errorf("outcome changed by discarding: %+v vs %+v", lean, res)
	}
}

// TestObserverStreamingAsync covers the discrete-event engines' recorder
// path as well.
func TestObserverStreamingAsync(t *testing.T) {
	var count int
	res, err := Run(context.Background(), "leader", Spec{
		N: 500, K: 2, Alpha: 3, Seed: 6, DiscardTrajectory: true,
		Observer: ObserverFunc(func(TrajectoryPoint) { count++ }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("async observer saw no points")
	}
	if len(res.Trajectory) != 0 {
		t.Error("async DiscardTrajectory left points")
	}
	if !res.FullConsensus {
		t.Errorf("streaming run did not converge: %v", res)
	}
}

// testProtocol exercises external registration through the public API.
type testProtocol struct{ runs atomic.Int64 }

func (p *testProtocol) Info() ProtocolInfo {
	return ProtocolInfo{Name: "test-noop", Family: "test", Description: "registry test stub"}
}

func (p *testProtocol) Run(ctx context.Context, spec Spec) (*Result, error) {
	p.runs.Add(1)
	return &Result{Winner: spec.K - 1, FinalCounts: make([]int, spec.K)}, nil
}

// unregisterForTest removes a test-registered protocol at test end so the
// global registry stays pristine for other tests and repeated runs.
func unregisterForTest(t *testing.T, name string) {
	t.Cleanup(func() {
		registryMu.Lock()
		defer registryMu.Unlock()
		delete(registry, name)
		for i, n := range registryOrder {
			if n == name {
				registryOrder = append(registryOrder[:i], registryOrder[i+1:]...)
				break
			}
		}
	})
}

func TestRegisterExternalProtocol(t *testing.T) {
	p := &testProtocol{}
	Register(p)
	unregisterForTest(t, "test-noop")
	res, err := Run(context.Background(), "test-noop", Spec{N: 10, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != 2 || p.runs.Load() != 1 {
		t.Errorf("stub protocol not routed through the registry: %+v", res)
	}
	found := false
	for _, name := range Protocols() {
		if name == "test-noop" {
			found = true
		}
	}
	if !found {
		t.Error("registered protocol missing from Protocols()")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(p)
}
