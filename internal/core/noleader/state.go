package noleader

import (
	"math"

	"plurality/internal/cluster"
	"plurality/internal/core/asyncrun"
	"plurality/internal/metrics"
	"plurality/internal/opinion"
	"plurality/internal/sim"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// The decentralized engine's own event kinds (see HandleEvent); the tick
// and the cold kinds are the run frame's (asyncrun.Kind*).
const (
	// evSignal is an (i, s, hasChanged)-signal arriving at leader ev.Node
	// with i = ev.A, s = ev.B and hasChanged = ev.C != 0.
	evSignal int32 = 1
	// evComplete is node ev.Node's channels to samples ev.A, ev.B, ev.C
	// completing (Algorithm 4 lines 5-21).
	evComplete int32 = 2
)

// consensusState bundles the mutable state of the consensus phase. The
// per-leader state is held in dense struct-of-arrays form — one slot per
// participating leader, addressed through leaderIdx — so the hot signal
// path is pure slice arithmetic with no map lookups or pointer chasing.
type consensusState struct {
	asyncrun.Frame
	cfg     Config
	cl      *cluster.Clustering
	tickFn  func(int)         // rs.tick bound once so Fire calls allocate nothing
	bs      topo.BatchSampler // cfg.Topo's bulk path, resolved once
	scratch *topo.Scratch     // batch-sampling buffers (per-worker under RunBatch)
	smp     *xrand.RNG

	gens     []int32
	finished []bool
	locked   []bool
	tmpGen   []int32 // leader gen stored at the previous own-leader contact
	tmpState []int8  // leader state stored at the previous own-leader contact

	maxGen int

	// leaderIdx maps a node id to its dense leader slot, -1 for everything
	// that is not a participating leader. The l* slices are indexed by slot.
	leaderIdx []int32
	lGen      []int32
	lState    []int8
	lCard     []int32
	lT        []int32 // 0-signal counter
	lGenSize  []int32 // hasChanged signals for the current gen
	lSleepAt  []int32 // t threshold for state 2
	lPropAt   []int32 // t threshold for state 3

	gStar int

	// §4.5 congestion metric: leader-bound messages per C1-wide time
	// bucket. Virtual time is monotone, so per-leader bucket indices are
	// non-decreasing and a running (bucket, count) pair plus a global peak
	// replaces the old per-leader bucket maps.
	loadBucket []int32
	loadCount  []uint64
	peakLoad   uint64

	phase map[int]*GenPhases
	res   *Result
}

// HandleEvent dispatches the engine's typed events — the hot path of the
// consensus phase; every case is allocation-free.
func (rs *consensusState) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case asyncrun.KindTick:
		rs.Clocks.Fire(ev.Node, rs.tickFn)
	case evSignal:
		rs.signal(int(ev.Node), int(ev.A), LeaderStateKind(ev.B), ev.C != 0)
	case evComplete:
		// The leader of v and its participation bit are static during the
		// consensus phase, so they are recomputed here instead of being
		// carried in the event payload.
		v := int(ev.Node)
		myLeader := int(rs.cl.LeaderOf[v])
		participates := myLeader >= 0 && rs.leaderIdx[myLeader] >= 0
		rs.complete(v, int(ev.A), int(ev.B), int(ev.C), myLeader, participates)
	default:
		rs.Frame.Handle(ev)
	}
}

// point adds the generation field to a recorded trajectory point.
func (rs *consensusState) point(p *metrics.Point) {
	p.MaxGen = rs.maxGen
}

// notePhase updates the Figure 2 marks for generation g entering state s.
func (rs *consensusState) notePhase(g int, s LeaderStateKind, t float64) {
	ph, ok := rs.phase[g]
	if !ok {
		ph = &GenPhases{Gen: g,
			FirstTwoChoices: -1, LastTwoChoices: -1,
			FirstSleeping: -1, LastSleeping: -1,
			FirstPropagation: -1, LastPropagation: -1}
		rs.phase[g] = ph
	}
	var first, last *float64
	switch s {
	case StateTwoChoices:
		first, last = &ph.FirstTwoChoices, &ph.LastTwoChoices
	case StateSleeping:
		first, last = &ph.FirstSleeping, &ph.LastSleeping
	case StatePropagation:
		first, last = &ph.FirstPropagation, &ph.LastPropagation
	default:
		return
	}
	if *first < 0 || t < *first {
		*first = t
	}
	if t > *last {
		*last = t
	}
}

// setLeader transitions leader slot li to (gen, state), recording the phase
// marks.
func (rs *consensusState) setLeader(li int32, gen int32, s LeaderStateKind) {
	if gen != rs.lGen[li] || int8(s) != rs.lState[li] {
		rs.lGen[li] = gen
		rs.lState[li] = int8(s)
		rs.notePhase(int(gen), s, rs.Sim.Now())
	}
}

// leaderMessage accounts one message reaching leader slot li, bucketed by
// time unit for the §4.5 congestion metric.
func (rs *consensusState) leaderMessage(li int32) {
	rs.res.TotalLeaderMessages++
	bucket := int32(rs.Sim.Now() / rs.cfg.C1)
	if bucket != rs.loadBucket[li] {
		if rs.loadCount[li] > rs.peakLoad {
			rs.peakLoad = rs.loadCount[li]
		}
		rs.loadBucket[li] = bucket
		rs.loadCount[li] = 0
	}
	rs.loadCount[li]++
}

// signal processes an (i, s, hasChanged)-signal arriving at leader l
// (Algorithm 5).
func (rs *consensusState) signal(l int, i int, s LeaderStateKind, hasChanged bool) {
	li := rs.leaderIdx[l]
	if li < 0 || rs.Crash.Down[l] {
		return // crashed leaders serve nothing until they recover
	}
	rs.leaderMessage(li)
	if rs.Mono {
		return
	}
	// Lines 1-3: lexicographic adoption of fresher leader states. Only the
	// tick counter t is rebased (Algorithm 5 line 3); gen_size survives
	// state-only changes and resets only when the generation moves on.
	gen, state := rs.lGen[li], LeaderStateKind(rs.lState[li])
	if i > 0 && (int32(i) > gen || (int32(i) == gen && s > state)) {
		genChanged := int32(i) > gen
		rs.setLeader(li, int32(i), s)
		switch s {
		case StateTwoChoices:
			rs.lT[li] = 0
		case StateSleeping:
			rs.lT[li] = rs.lSleepAt[li]
		case StatePropagation:
			rs.lT[li] = rs.lPropAt[li]
		}
		if genChanged {
			rs.lGenSize[li] = 0
		}
	}
	// Lines 4-9: the 0-signal clock.
	if i == 0 {
		rs.lT[li]++
		if rs.lState[li] == int8(StateTwoChoices) && rs.lT[li] >= rs.lSleepAt[li] {
			rs.setLeader(li, rs.lGen[li], StateSleeping)
		} else if rs.lState[li] == int8(StateSleeping) && rs.lT[li] >= rs.lPropAt[li] {
			rs.setLeader(li, rs.lGen[li], StatePropagation)
		}
	}
	// Lines 10-15: population estimate of the newest generation.
	if hasChanged && int32(i) == rs.lGen[li] {
		rs.lGenSize[li]++
		thresh := int32(math.Ceil(rs.cfg.GenFraction * float64(rs.lCard[li])))
		if rs.lGenSize[li] >= thresh && int(rs.lGen[li]) < rs.gStar {
			rs.setLeader(li, rs.lGen[li]+1, StateTwoChoices)
			rs.lT[li] = 0
			rs.lGenSize[li] = 0
		}
	}
}

// sendSignal delivers an (i, s, hasChanged)-signal to leader l after one
// channel latency; fire-and-forget.
func (rs *consensusState) sendSignal(l int, i int, s LeaderStateKind, hasChanged bool) {
	if l < 0 {
		return
	}
	var hc int32
	if hasChanged {
		hc = 1
	}
	rs.SendMsg(rs.Lat.Sample(rs.LatR),
		sim.Event{Kind: evSignal, Node: int32(l), A: int32(i), B: int32(s), C: hc})
}

// setNode commits a color/generation update for node v.
func (rs *consensusState) setNode(v int, col opinion.Opinion, gen int32) {
	old := rs.Cols[v]
	rs.Cols[v] = col
	rs.gens[v] = gen
	if int(gen) > rs.maxGen {
		rs.maxGen = int(gen)
	}
	if old != col {
		rs.Recolor(old, col)
	}
}

// tick handles one Poisson tick of node v (Algorithm 4).
func (rs *consensusState) tick(v int) {
	if rs.Mono || rs.Crash.Down[v] {
		return
	}
	myLeader := int(rs.cl.LeaderOf[v])
	participates := myLeader >= 0 && rs.leaderIdx[myLeader] >= 0
	// Line 1: (0,3,·)-signal to the own leader.
	if participates {
		rs.sendSignal(myLeader, 0, StatePropagation, false)
	}
	// Line 2: locking.
	if rs.locked[v] {
		return
	}
	rs.locked[v] = true

	// Sample v1, v2, v3 now through the topology's bulk path (draw-for-draw
	// identical to three scalar samples); their states are read at channel
	// completion.
	vs, out := rs.scratch.Buffers(3)
	vs[0], vs[1], vs[2] = int32(v), int32(v), int32(v)
	rs.bs.SampleNeighbors(rs.smp, vs, out)
	// Accumulated latency: three contacts in parallel, then own leader and
	// v3's leader in parallel (§4.3).
	lat := rs.Lat
	three := max(lat.Sample(rs.LatR), max(lat.Sample(rs.LatR), lat.Sample(rs.LatR)))
	two := max(lat.Sample(rs.LatR), lat.Sample(rs.LatR))
	rs.SendMsg(three+two,
		sim.Event{Kind: evComplete, Node: int32(v), A: out[0], B: out[1], C: out[2]})
}

// complete handles node v's established channels (Algorithm 4 lines 5-21).
func (rs *consensusState) complete(v, v1, v2, v3, myLeader int, participates bool) {
	// The event runs atomically, so the lock can drop on entry: it only
	// gates future tick events.
	rs.locked[v] = false
	if rs.Mono || rs.Crash.Down[v] {
		return
	}
	// Adversary view of the three sampled partners: a crashed or dropped
	// partner is unreachable this round, and Byzantine liars misreport
	// their color (generations stay truthful — lying about freshness is a
	// different adversary). Honest runs see every partner up with its true
	// color.
	u1Up, u2Up, u3Up := !rs.Crash.Down[v1], !rs.Crash.Down[v2], !rs.Crash.Down[v3]
	col1, col2, col3 := rs.Cols[v1], rs.Cols[v2], rs.Cols[v3]
	if rs.Adv != nil {
		u1Up = u1Up && !rs.Adv.DropMessage()
		u2Up = u2Up && !rs.Adv.DropMessage()
		u3Up = u3Up && !rs.Adv.DropMessage()
		col1 = opinion.Opinion(rs.Adv.Lie(v1, int32(col1)))
		col2 = opinion.Opinion(rs.Adv.Lie(v2, int32(col2)))
		col3 = opinion.Opinion(rs.Adv.Lie(v3, int32(col3)))
	}
	// Line 5: a finished node pushes its final opinion (to the reachable
	// partners; a push onto a crashed node would corrupt the survivor
	// tally).
	if rs.finished[v] {
		for i, u := range [3]int{v1, v2, v3} {
			up := u1Up
			switch i {
			case 1:
				up = u2Up
			case 2:
				up = u3Up
			}
			if !up {
				continue
			}
			rs.setNode(u, rs.Cols[v], rs.gens[u])
			rs.finished[u] = true
		}
		return
	}
	// Line 6-7: adopt a finished sample (at the color it reported).
	for i, u := range [3]int{v1, v2, v3} {
		up, cu := u1Up, col1
		switch i {
		case 1:
			up, cu = u2Up, col2
		case 2:
			up, cu = u3Up, col3
		}
		if up && rs.finished[u] {
			rs.setNode(v, cu, rs.gens[v])
			rs.finished[v] = true
			return
		}
	}
	if !participates {
		// Nodes outside participating clusters only take part in the
		// finished-flag endgame (Theorem 27's "taken care of at the end").
		return
	}
	// Line 8: the sampled third node's leader must be active (and, under a
	// crash adversary, both v3's channel and the leader itself alive).
	if !u3Up {
		return
	}
	l := int(rs.cl.LeaderOf[v3])
	var li int32 = -1
	if l >= 0 && !rs.Crash.Down[l] {
		li = rs.leaderIdx[l]
	}
	if li < 0 {
		return // gen(l) = 0: non-active cluster sampled
	}
	rs.leaderMessage(li) // the (gen, state) read is one served request
	lGen, lState := int(rs.lGen[li]), LeaderStateKind(rs.lState[li])
	inSync := int(rs.tmpGen[v]) == lGen && LeaderStateKind(rs.tmpState[v]) == lState

	promoted := false
	if inSync {
		g1, g2 := rs.gens[v1], rs.gens[v2]
		gv := rs.gens[v]
		switch {
		case lState == StateTwoChoices && u1Up && u2Up &&
			g1 == g2 && int(g1) == lGen-1 && gv <= g1 &&
			col1 == col2:
			// Line 13-16: two-choices promotion into generation lGen.
			rs.setNode(v, col1, int32(lGen))
			rs.sendSignal(myLeader, lGen, StateTwoChoices, true)
			promoted = true
		default:
			// Line 9-12: propagation. Algorithm 4 spells out the
			// top-generation case (gen(v_i) = gen(l), state 3); the prose
			// defers lower generations to Algorithm 2's rule
			// (gen(v̄) < gen is always safe), which we follow.
			pick := -1
			var pickGen int32 = -1
			var pickCol opinion.Opinion
			for i, x := range [2]int{v1, v2} {
				up, cx := u1Up, col1
				if i == 1 {
					up, cx = u2Up, col2
				}
				if !up {
					continue
				}
				gx := rs.gens[x]
				if gx > gv && (int(gx) < lGen ||
					(int(gx) == lGen && lState == StatePropagation)) && gx > pickGen {
					pick = x
					pickGen = gx
					pickCol = cx
				}
			}
			if pick >= 0 {
				rs.setNode(v, pickCol, pickGen)
				rs.sendSignal(myLeader, int(pickGen), StatePropagation, true)
				promoted = true
			}
		}
	}
	if !promoted {
		// Line 17-18: report the sampled leader's state to the own leader
		// (the broadcast backbone of Algorithm 5 lines 1-3).
		rs.sendSignal(myLeader, lGen, lState, false)
	}
	// Line 19: refresh the stored leader view from the own leader.
	if ownLi := rs.leaderIdx[myLeader]; ownLi >= 0 && !rs.Crash.Down[myLeader] {
		rs.leaderMessage(ownLi)
		rs.tmpGen[v] = rs.lGen[ownLi]
		rs.tmpState[v] = rs.lState[ownLi]
	}
	// Line 20: the final generation finishes.
	if int(rs.gens[v]) >= rs.gStar {
		rs.finished[v] = true
	}
}
