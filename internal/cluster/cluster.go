// Package cluster implements the decentralized substrate of §4 of the
// paper: the clustering protocol that partitions almost all nodes into
// polylog-sized clusters with emergent leaders (§4.1, Theorem 27), and the
// constant-time broadcast among cluster leaders (§4.2, Theorem 28).
//
// The paper states its parameters asymptotically (leader probability
// 1/log^c n, cluster size log^{c-1} n with "c sufficiently large"); those
// exceed n for every laptop-scale n, so the implementation exposes them as
// explicit knobs whose defaults are polylog in n but calibrated to yield
// n/polylog(n) clusters for n up to ~10⁶. The Theorem 27/28 experiments
// validate the shape claims (constant broadcast time, O(log log n)-scale
// formation, near-total coverage) against these scaled knobs.
//
// Formation itself is never checkpointed: the decentralized engine's
// snapshots embed the finished Clustering (see Clustering.Layout), so a
// resumed run skips formation altogether.
//
// Formation queues only the events that can change it. A join by a node
// that is already clustered can only carry the consensus wave, and before
// the first leader switches there is no wave to carry, so such joins are
// held outside the event queue and scheduled at the first switch (see
// formState). A 0-signal to a leader that has already switched or been
// excluded would be ignored on arrival, so it is never queued. Both keep
// every random draw in place, so the Clustering is the one the full event
// set produces.
package cluster

import (
	"context"
	"fmt"
	"math"

	"plurality/internal/sim"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// Params configures cluster formation.
type Params struct {
	// N is the number of nodes (>= 4).
	N int
	// TargetSize is the paper's log^{c-1} n: the size a cluster must reach
	// before its leader may enter consensus mode. Default
	// ⌈(log₂ n)^1.5⌉ clamped to [8, N/8].
	TargetSize int
	// LeaderProb is the self-election probability (paper: 1/log^c n).
	// Default 1/(4·TargetSize), so first-phase capacity is about N/4 and
	// the remaining nodes join during the reacceptance phase.
	LeaderProb float64
	// C2Mult scales the counting pause after a cluster fills
	// (paper: c₂·log^{c-1} n·log log n received 0-signals). Default 1.
	C2Mult float64
	// C3Mult scales the additional count before the first leader switches
	// to consensus mode (paper: c₃·log^{c-1} n·log log n). Default 1.
	C3Mult float64
	// RebroadcastTime is the constant time window during which leaders
	// forward the consensus-mode message after receiving it. Default 4
	// time steps.
	RebroadcastTime float64
	// Latency is the channel-establishment distribution; default Exp(1).
	Latency sim.Latency
	// Topo is the interaction graph random contacts are sampled from; nil
	// means the complete graph on N nodes (the paper's model). Its size
	// must equal N. Signals to an already-known leader are addressed
	// directly and do not traverse the graph.
	Topo topo.Sampler
	// MaxTime aborts formation (virtual time steps); default
	// 64·log₂ log₂ n·(1 + mean latency) + 64.
	MaxTime float64
	// Seed drives all randomness.
	Seed uint64
	// RecordEvery sets the coverage-trajectory resolution; default 1 step.
	RecordEvery float64
	// Ctx cancels or bounds formation; polled every few hundred simulator
	// events. nil means never cancelled.
	Ctx context.Context
}

func (p *Params) normalize() error {
	if p.N < 4 {
		return fmt.Errorf("cluster: need N >= 4, got %d", p.N)
	}
	if p.TargetSize <= 0 {
		l := math.Log2(float64(p.N))
		s := int(math.Ceil(math.Pow(l, 1.5)))
		if s < 8 {
			s = 8
		}
		if s > p.N/8 {
			s = p.N / 8
		}
		if s < 2 {
			s = 2
		}
		p.TargetSize = s
	}
	if p.LeaderProb == 0 {
		p.LeaderProb = 1 / (4 * float64(p.TargetSize))
	}
	if p.LeaderProb <= 0 || p.LeaderProb > 1 {
		return fmt.Errorf("cluster: LeaderProb %v outside (0,1]", p.LeaderProb)
	}
	if p.Latency == nil {
		p.Latency = sim.ExpLatency{Rate: 1}
	}
	tp, err := topo.OrComplete(p.Topo, p.N)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	p.Topo = tp
	if p.C2Mult == 0 {
		p.C2Mult = 1
	}
	if p.C3Mult == 0 {
		// The c₃ window (between reacceptance and the consensus-mode wave)
		// is where the bulk of the nodes joins; a join attempt costs about
		// one accumulated latency plus a tick gap, so the window must scale
		// with the latency mean. The paper buries this in "c sufficiently
		// large"; here it is explicit.
		p.C3Mult = 4 * (1 + 2*p.Latency.Mean())
	}
	if p.RebroadcastTime <= 0 {
		p.RebroadcastTime = 4 * (1 + p.Latency.Mean())
	}
	if p.MaxTime <= 0 {
		p.MaxTime = 64*math.Log2(math.Log2(float64(p.N))+2)*(1+p.Latency.Mean()) + 64
	}
	if p.RecordEvery <= 0 {
		p.RecordEvery = 1
	}
	return nil
}

// CoveragePoint samples cluster coverage over time.
type CoveragePoint struct {
	// Time is virtual time.
	Time float64
	// ClusteredFrac is the fraction of nodes assigned to any cluster.
	ClusteredFrac float64
	// BigClusterFrac is the fraction of nodes in clusters that reached
	// TargetSize.
	BigClusterFrac float64
}

// Clustering is the outcome of cluster formation, consumed by the
// multi-leader consensus protocol and by the Theorem 27/28 experiments.
type Clustering struct {
	// N is the node count and TargetSize the effective threshold used.
	N          int
	TargetSize int
	// LeaderOf maps each node to its cluster leader's node id (-1 if the
	// node never joined a cluster). Leaders map to themselves.
	LeaderOf []int32
	// Leaders lists the node ids that self-elected as leaders.
	Leaders []int
	// Size maps a leader node id to its final cluster size (leader
	// included).
	Size map[int]int
	// InConsensusMode maps a leader node id to whether it switched to the
	// consensus protocol (clusters below TargetSize never switch).
	InConsensusMode map[int]bool
	// SwitchTime maps a leader id to its consensus-mode switch time.
	SwitchTime map[int]float64
	// FirstSwitch and LastSwitch bracket the switch times of participating
	// leaders (Theorem 27's t_f and t_l); both -1 when nothing switched.
	FirstSwitch, LastSwitch float64
	// Coverage is the recorded coverage trajectory.
	Coverage []CoveragePoint
	// EndTime is the virtual time when formation settled (all leaders
	// decided) or MaxTime.
	EndTime float64
	// TimedOut reports whether MaxTime was hit before every big-cluster
	// leader switched.
	TimedOut bool
	// Topo is the interaction graph formation ran on; Broadcast and the
	// consensus phase reuse it so all three phases share one topology.
	Topo topo.Sampler
}

// ParticipatingLeaders returns the leaders that are in consensus mode,
// i.e. the coordinators of the §4.4 protocol.
func (c *Clustering) ParticipatingLeaders() []int {
	out := make([]int, 0, len(c.Leaders))
	for _, l := range c.Leaders {
		if c.InConsensusMode[l] {
			out = append(out, l)
		}
	}
	return out
}

// ParticipatingFrac returns the fraction of all nodes that belong to a
// cluster whose leader participates.
func (c *Clustering) ParticipatingFrac() float64 {
	total := 0
	for _, l := range c.ParticipatingLeaders() {
		total += c.Size[l]
	}
	return float64(total) / float64(c.N)
}

// Typed event kinds of the clustering engine (see formState.HandleEvent).
// The periodic coverage recorder is a typed event too, so the pending queue
// is plain data.
const (
	// evTick is one Poisson tick of node ev.Node.
	evTick int32 = iota
	// evSignal is a 0-signal arriving at leader ev.Node.
	evSignal
	// evJoin is node ev.Node's channels to contacts ev.A, ev.B, ev.C
	// completing: join attempt plus consensus-wave gossip. Joins of
	// clustered nodes before the first switch wait outside the queue (see
	// formState.held).
	evJoin
	// evRecord is the periodic coverage recorder; it reschedules itself
	// every RecordEvery time steps and stops the run once formation
	// settled or MaxTime passed.
	evRecord
)

// formState is the mutable state of one clustering run. Per-leader state is
// dense struct-of-arrays, addressed by leaderIdx, so the signal and join
// hot paths are slice arithmetic without map lookups.
//
// Two kinds of event are left out of the queue, and neither omission
// changes the outcome:
//
//   - Gossip-only joins. A node that is clustered when it ticks stays
//     clustered, so its join can only forward the consensus wave between
//     two leaders, and it forwards nothing while no leader has switched.
//     Before the first switch such a join keeps its contacts in held and
//     its completion time in lockEnd; switchLeader schedules the ones still
//     ahead when the first leader switches (flushHeld). A flushed join takes
//     its sequence number at the flush rather than at its tick, which
//     reorders it only against events at exactly the same time; formation
//     runs on its own simulator and is never checkpointed, so its sequence
//     numbers are not observable.
//   - Dead 0-signals. lConsensus and lExcluded never clear, and
//     leaderSignal ignores a signal to such a leader, so tick draws the
//     signal's latency and drops it.
type formState struct {
	p      Params
	sm     *sim.Simulator
	clocks *sim.Clocks
	tickFn func(int)
	smp    *xrand.RNG
	latR   *xrand.RNG

	leaderOf []int32
	rank     []int32 // join order within the cluster
	// lockEnd[v] is when node v's pending channels complete; v's ticks
	// before it are locked. A tick at exactly lockEnd[v] is not: the clock
	// schedules that tick after the join, so the join runs first.
	lockEnd []float64
	// held[v] are the contacts of node v's held join (see formState),
	// valid while leaderOf[v] >= 0 and lockEnd[v] is ahead; nil after the
	// first switch.
	held [][3]int32

	// leaderIdx maps a node id to its dense leader slot (-1 otherwise);
	// the l* slices are indexed by slot, in Leaders order.
	leaderIdx   []int32
	lSize       []int32 // members including the leader
	lCount      []int32 // 0-signals received since filled
	lFilled     []bool  // reached TargetSize
	lPauseDone  []bool  // finished the c2 counting pause
	lConsensus  []bool  // switched to consensus mode
	lExcluded   []bool  // too small when the wave arrived; never participates
	lSwitchTime []float64
	lRebcastEnd []float64 // forwards the wave until this time

	pauseTicks, switchTicks int32
	clustered               int
	cl                      *Clustering
}

// HandleEvent dispatches the clustering engine's typed events.
func (fs *formState) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evTick:
		fs.clocks.Fire(ev.Node, fs.tickFn)
	case evSignal:
		fs.leaderSignal(fs.leaderIdx[ev.Node])
	case evJoin:
		fs.join(int(ev.Node), int(ev.A), int(ev.B), int(ev.C))
	case evRecord:
		fs.record()
		if fs.settled() {
			fs.sm.Stop()
			return
		}
		if fs.sm.Now() >= fs.p.MaxTime {
			fs.cl.TimedOut = true
			fs.sm.Stop()
			return
		}
		fs.sm.ScheduleAfter(fs.p.RecordEvery, sim.Event{Kind: evRecord})
	}
}

// record appends one coverage snapshot at the current virtual time.
func (fs *formState) record() {
	fs.cl.Coverage = append(fs.cl.Coverage, CoveragePoint{
		Time:           fs.sm.Now(),
		ClusteredFrac:  float64(fs.clustered) / float64(fs.p.N),
		BigClusterFrac: fs.bigFrac(),
	})
}

// bigFrac returns the fraction of nodes in clusters that reached
// TargetSize.
func (fs *formState) bigFrac() float64 {
	tot := int32(0)
	for li := range fs.lSize {
		if int(fs.lSize[li]) >= fs.p.TargetSize {
			tot += fs.lSize[li]
		}
	}
	return float64(tot) / float64(fs.p.N)
}

// settled reports whether every big cluster's leader has decided and the
// rebroadcast window of the slowest switch has passed.
func (fs *formState) settled() bool {
	if fs.cl.FirstSwitch < 0 {
		return false
	}
	for li := range fs.lSize {
		if int(fs.lSize[li]) >= fs.p.TargetSize && !fs.lConsensus[li] && !fs.lExcluded[li] {
			return false
		}
	}
	return fs.sm.Now() > fs.cl.LastSwitch+fs.p.RebroadcastTime
}

// switchLeader moves leader slot li into consensus mode (or excludes it)
// when the consensus wave reaches it.
func (fs *formState) switchLeader(li int32) {
	if fs.lConsensus[li] || fs.lExcluded[li] {
		return
	}
	if int(fs.lSize[li]) < fs.p.TargetSize {
		fs.lExcluded[li] = true
		return
	}
	now := fs.sm.Now()
	fs.lConsensus[li] = true
	fs.lSwitchTime[li] = now
	fs.lRebcastEnd[li] = now + fs.p.RebroadcastTime
	if fs.cl.FirstSwitch < 0 {
		fs.cl.FirstSwitch = now
		fs.flushHeld()
	}
	fs.cl.LastSwitch = now
}

// flushHeld schedules every held join still ahead of the first switch, at
// its completion time. A node clustered at its tick keeps its leader until
// its own join runs, so the held joins are exactly the pending ones of
// clustered nodes.
func (fs *formState) flushHeld() {
	now := fs.sm.Now()
	for v, t := range fs.lockEnd {
		if t > now && fs.leaderOf[v] >= 0 {
			c := fs.held[v]
			fs.sm.Schedule(t, sim.Event{Kind: evJoin, Node: int32(v), A: c[0], B: c[1], C: c[2]})
		}
	}
	fs.held = nil
}

// leaderSignal processes a 0-signal arriving at leader slot li.
func (fs *formState) leaderSignal(li int32) {
	if fs.lConsensus[li] || fs.lExcluded[li] || !fs.lFilled[li] {
		return
	}
	fs.lCount[li]++
	if fs.lCount[li] >= fs.pauseTicks {
		fs.lPauseDone[li] = true
	}
	if fs.lCount[li] >= fs.switchTicks {
		// This leader originates the consensus wave.
		fs.switchLeader(li)
	}
}

// tick is the per-node clustering action.
func (fs *formState) tick(v int) {
	myLeader := int(fs.leaderOf[v])
	// Members among the first TargetSize joiners keep clocking their
	// leader with 0-signals; a signal to a decided leader is dead.
	if myLeader >= 0 && fs.rank[v] < int32(fs.p.TargetSize) {
		d := fs.p.Latency.Sample(fs.latR)
		if li := fs.leaderIdx[myLeader]; !fs.lConsensus[li] && !fs.lExcluded[li] {
			fs.sm.ScheduleAfter(d, sim.Event{Kind: evSignal, Node: int32(myLeader)})
		}
	}
	now := fs.sm.Now()
	if now < fs.lockEnd[v] {
		return
	}
	// Contact own leader (if any) and three random nodes in parallel,
	// then the leader of one of them: accumulated latency
	// max(T2,T2,T2,T2) + T2.
	c1 := fs.p.Topo.SampleNeighbor(fs.smp, v)
	c2 := fs.p.Topo.SampleNeighbor(fs.smp, v)
	c3 := fs.p.Topo.SampleNeighbor(fs.smp, v)
	lat := fs.p.Latency
	d := max(max(lat.Sample(fs.latR), lat.Sample(fs.latR)),
		max(lat.Sample(fs.latR), lat.Sample(fs.latR))) +
		lat.Sample(fs.latR)
	t := now + d
	fs.lockEnd[v] = t
	if myLeader >= 0 && fs.cl.FirstSwitch < 0 {
		fs.held[v] = [3]int32{int32(c1), int32(c2), int32(c3)}
		return
	}
	fs.sm.Schedule(t,
		sim.Event{Kind: evJoin, Node: int32(v), A: int32(c1), B: int32(c2), C: int32(c3)})
}

// join handles node v's established channels: the join attempt if
// unassigned, then consensus-wave gossip between the visible leaders.
func (fs *formState) join(v, c1, c2, c3 int) {
	// Choose a reported leader to call: prefer the first contact with an
	// assigned leader (paper: "one of these leaders is called").
	called := -1
	for _, c := range [3]int{c1, c2, c3} {
		if lc := int(fs.leaderOf[c]); lc >= 0 {
			called = lc
			break
		}
	}
	my := int(fs.leaderOf[v])
	// Join attempt if unassigned.
	if my < 0 && called >= 0 {
		li := fs.leaderIdx[called]
		accepting := !fs.lConsensus[li] && !fs.lExcluded[li] &&
			(int(fs.lSize[li]) < fs.p.TargetSize || fs.lPauseDone[li])
		if accepting {
			fs.leaderOf[v] = int32(called)
			fs.rank[v] = fs.lSize[li]
			fs.lSize[li]++
			if int(fs.lSize[li]) >= fs.p.TargetSize {
				fs.lFilled[li] = true
			}
			fs.clustered++
		}
	}
	// Consensus-wave gossip between the two leaders we can see.
	my = int(fs.leaderOf[v])
	if fs.rebroadcasting(called) && my >= 0 && my != called {
		fs.switchLeader(fs.leaderIdx[my])
	}
	if fs.rebroadcasting(my) && called >= 0 && called != my {
		fs.switchLeader(fs.leaderIdx[called])
	}
}

// rebroadcasting reports whether leader node l is currently forwarding the
// consensus wave.
func (fs *formState) rebroadcasting(l int) bool {
	if l < 0 {
		return false
	}
	li := fs.leaderIdx[l]
	return fs.lConsensus[li] && fs.sm.Now() <= fs.lRebcastEnd[li]
}

// Form runs the clustering protocol of §4.1 and returns the resulting
// structure.
func Form(p Params) (*Clustering, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	root := xrand.New(p.Seed)
	sm := sim.New()
	n := p.N

	fs := &formState{
		p:         p,
		sm:        sm,
		smp:       root.SplitNamed("sampling"),
		latR:      root.SplitNamed("latency"),
		leaderOf:  make([]int32, n),
		rank:      make([]int32, n),
		lockEnd:   make([]float64, n),
		held:      make([][3]int32, n),
		leaderIdx: make([]int32, n),
	}
	coinR := root.SplitNamed("coins")
	for i := range fs.leaderOf {
		fs.leaderOf[i] = -1
		fs.rank[i] = -1
		fs.leaderIdx[i] = -1
	}
	var leaders []int
	addLeader := func(v int) {
		fs.leaderIdx[v] = int32(len(leaders))
		leaders = append(leaders, v)
		fs.leaderOf[v] = int32(v)
		fs.rank[v] = 0
	}
	for v := 0; v < n; v++ {
		if coinR.Bernoulli(p.LeaderProb) {
			addLeader(v)
		}
	}
	if len(leaders) == 0 {
		// Degenerate draw: force one leader so the protocol is well posed.
		addLeader(coinR.Intn(n))
	}
	fs.lSize = make([]int32, len(leaders))
	fs.lCount = make([]int32, len(leaders))
	fs.lFilled = make([]bool, len(leaders))
	fs.lPauseDone = make([]bool, len(leaders))
	fs.lConsensus = make([]bool, len(leaders))
	fs.lExcluded = make([]bool, len(leaders))
	fs.lSwitchTime = make([]float64, len(leaders))
	fs.lRebcastEnd = make([]float64, len(leaders))
	for li := range fs.lSize {
		fs.lSize[li] = 1
	}

	fs.pauseTicks = int32(math.Ceil(p.C2Mult * float64(p.TargetSize) *
		math.Log2(math.Log2(float64(n))+2)))
	fs.switchTicks = fs.pauseTicks + int32(math.Ceil(p.C3Mult*float64(p.TargetSize)*
		math.Log2(math.Log2(float64(n))+2)))

	cl := &Clustering{
		N:               n,
		TargetSize:      p.TargetSize,
		LeaderOf:        fs.leaderOf,
		Leaders:         leaders,
		Size:            make(map[int]int, len(leaders)),
		InConsensusMode: make(map[int]bool, len(leaders)),
		SwitchTime:      make(map[int]float64, len(leaders)),
		FirstSwitch:     -1,
		LastSwitch:      -1,
		Topo:            p.Topo,
	}
	fs.cl = cl
	fs.clustered = len(leaders)

	fs.tickFn = fs.tick
	sm.SetHandler(fs)
	// Pending events stay below one join per node plus the 0-signals in
	// flight: at most TargetSize signalling members per leader, each signal
	// pending for a mean latency by Little's law. With Exp(1) latency the
	// measured peak is 0.97-1.02n against a hint of 1.21-1.27n (n=10⁴ and
	// 10⁵); Exp(1/4) peaks at 1.71-1.96n against 1.84-2.00n.
	signalers := float64(min(n, len(leaders)*p.TargetSize))
	sm.Reserve(n + int(min(signalers*p.Latency.Mean(), float64(n))) + 64)
	clockR := root.SplitNamed("clocks")
	fs.clocks = sim.NewClocks(sm, clockR, n, 1, evTick)
	fs.clocks.StartAll()
	// Coverage recorder + settlement watchdog, a typed event so the pending
	// queue stays plain data (see evRecord).
	fs.record()
	sm.ScheduleAfter(p.RecordEvery, sim.Event{Kind: evRecord})
	if err := sm.RunContext(p.Ctx); err != nil {
		return nil, err
	}

	cl.EndTime = sm.Now()
	for li, l := range leaders {
		cl.Size[l] = int(fs.lSize[li])
		cl.InConsensusMode[l] = fs.lConsensus[li]
		if fs.lConsensus[li] {
			cl.SwitchTime[l] = fs.lSwitchTime[li]
		}
	}
	return cl, nil
}
