package cluster

import (
	"fmt"
	"testing"

	"plurality/internal/sim"
)

func TestFormValidation(t *testing.T) {
	if _, err := Form(Params{N: 2}); err == nil {
		t.Error("N=2 accepted")
	}
	if _, err := Form(Params{N: 100, LeaderProb: 2}); err == nil {
		t.Error("LeaderProb=2 accepted")
	}
}

func TestFormBasic(t *testing.T) {
	cl, err := Form(Params{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cl.TimedOut {
		t.Fatalf("formation timed out at t=%v", cl.EndTime)
	}
	if len(cl.Leaders) == 0 {
		t.Fatal("no leaders elected")
	}
	if got := cl.ParticipatingFrac(); got < 0.8 {
		t.Errorf("only %.3f of nodes in participating clusters", got)
	}
	if cl.FirstSwitch < 0 {
		t.Fatal("no leader switched to consensus mode")
	}
}

func TestFormLeadersSelfAssigned(t *testing.T) {
	cl, err := Form(Params{N: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range cl.Leaders {
		if int(cl.LeaderOf[l]) != l {
			t.Errorf("leader %d assigned to %d", l, cl.LeaderOf[l])
		}
	}
}

func TestFormAssignmentsConsistent(t *testing.T) {
	cl, err := Form(Params{N: 1500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	isLeader := map[int]bool{}
	for _, l := range cl.Leaders {
		isLeader[l] = true
	}
	// Every assigned node points at an actual leader, and sizes add up.
	sizes := map[int]int{}
	for v := 0; v < cl.N; v++ {
		l := int(cl.LeaderOf[v])
		if l < 0 {
			continue
		}
		if !isLeader[l] {
			t.Fatalf("node %d assigned to non-leader %d", v, l)
		}
		sizes[l]++
	}
	for l, want := range cl.Size {
		if sizes[l] != want {
			t.Errorf("leader %d: recorded size %d, actual members %d", l, want, sizes[l])
		}
	}
}

func TestParticipatingClustersAreBig(t *testing.T) {
	cl, err := Form(Params{N: 2000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range cl.ParticipatingLeaders() {
		if cl.Size[l] < cl.TargetSize {
			t.Errorf("participating cluster %d has size %d < target %d",
				l, cl.Size[l], cl.TargetSize)
		}
	}
}

func TestSwitchSpreadSmall(t *testing.T) {
	// Theorem 27: t_l - t_f = O(1). With constant-time rebroadcast the
	// spread must be well under the whole formation time.
	cl, err := Form(Params{N: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	spread := cl.LastSwitch - cl.FirstSwitch
	if spread < 0 {
		t.Fatal("switch times inverted")
	}
	if spread > cl.EndTime/2 {
		t.Errorf("switch spread %v not small relative to formation time %v",
			spread, cl.EndTime)
	}
}

func TestCoverageMonotone(t *testing.T) {
	cl, err := Form(Params{N: 1000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, p := range cl.Coverage {
		if p.ClusteredFrac < prev-1e-12 {
			t.Fatalf("coverage decreased at t=%v", p.Time)
		}
		prev = p.ClusteredFrac
	}
}

func TestFormDeterministic(t *testing.T) {
	a, err := Form(Params{N: 800, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Form(Params{N: 800, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.EndTime != b.EndTime || len(a.Leaders) != len(b.Leaders) ||
		a.FirstSwitch != b.FirstSwitch {
		t.Fatal("formation not deterministic")
	}
}

func TestFormExplicitParams(t *testing.T) {
	cl, err := Form(Params{N: 1000, TargetSize: 16, LeaderProb: 0.02, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cl.TargetSize != 16 {
		t.Errorf("TargetSize overridden: %d", cl.TargetSize)
	}
}

func TestBroadcastCompletes(t *testing.T) {
	cl, err := Form(Params{N: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Broadcast(cl, nil, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || res.CompleteTime < 0 {
		t.Fatalf("broadcast timed out: %+v", res)
	}
	if len(res.InformTimes) != res.LeaderCount {
		t.Errorf("informed %d of %d leaders", len(res.InformTimes), res.LeaderCount)
	}
}

func TestBroadcastFastRelativeToN(t *testing.T) {
	// Theorem 28: completion in O(1) time. Check it does not blow up with n
	// (the two sizes must be within a small factor).
	timeFor := func(n int) float64 {
		cl, err := Form(Params{N: n, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Broadcast(cl, nil, 12, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.CompleteTime < 0 {
			t.Fatalf("broadcast at n=%d timed out", n)
		}
		return res.CompleteTime
	}
	small := timeFor(500)
	large := timeFor(4000)
	if large > 6*small+10 {
		t.Errorf("broadcast time grew from %v (n=500) to %v (n=4000)", small, large)
	}
}

func TestBroadcastSlowLatency(t *testing.T) {
	cl, err := Form(Params{N: 1000, Seed: 13, Latency: sim.ExpLatency{Rate: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Broadcast(cl, sim.ExpLatency{Rate: 0.5}, 14, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompleteTime < 0 {
		t.Fatal("broadcast with slow latency timed out")
	}
}

// BenchmarkForm times one formation at n=2000 and at n=10⁴, the size the
// decentralized-1e4 benchmark workload forms.
func BenchmarkForm(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Form(Params{N: n, Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
