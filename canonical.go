package plurality

import (
	"encoding/binary"
	"math"
)

// The canonical spec encoding signature and format version. The version is
// the first thing after the magic, so a layout change can never be confused
// with a field-value change; bump it whenever the field order, the field
// set or a normalization rule below changes. A fold into bytes the
// equivalent spec already encodes to (as with -0 below) needs no bump: no
// key comes to name a different job.
const (
	canonicalSpecMagic   = "PLURSPEC"
	canonicalSpecVersion = 1
)

// CanonicalBytes returns a deterministic, version-tagged byte encoding of
// the spec — the run's identity, and the basis of the serving layer's
// content-addressed result cache keys.
//
// Two guarantees define it:
//
//   - Stability: the encoding is a fixed positional binary layout
//     ("PLURSPEC" magic, u16 version, then every result-affecting field in
//     declaration order, little-endian, floats as IEEE-754 bits with -0
//     folded to +0, strings length-prefixed, the assignment as a
//     length-prefixed uvarint list).
//     Nothing about it depends on map iteration, struct tag spelling or
//     JSON field order, so any wire representation that decodes to the same
//     Spec value encodes to the same bytes.
//
//   - Normalization: zero-valued knobs are folded to the defaults the
//     engines document before encoding — Alpha 0 to the unbiased 1 (and to
//     0 whenever an explicit Assignment overrides it), the latency's
//     ""/0 to exp with mean 1, topology defaults via
//     TopologySpec.Resolve with Kind-unused fields cleared, the enabled
//     adversary's Fraction 0 to 0.1 and the delay kind's Rate 0 to 1, a
//     disabled adversary to the zero spec, and Sync.Gamma 0 to 0.5. A spec
//     spelled with defaults implicit therefore shares its encoding with the
//     same spec spelled explicitly. Only equivalences the engines guarantee
//     are folded: knobs whose defaults are engine-internal (Eps, the
//     MaxSteps/MaxTime horizons, RecordEvery) encode verbatim.
//
// Runtime-only fields (Observer, CheckpointSpec.Sink and .Every, internal
// batch scratch) never enter the encoding. Equal encodings imply equal Results
// for every registered protocol under the same protocol name; the converse
// does not hold (two specs may differ only in a field the chosen protocol
// ignores).
//
// A key names a well-formed job; a random graph's draw is checked where the
// graph is built. The spec is validated structurally first, and an invalid
// spec returns the same error Run would: every field check, the topology
// resolved, and the random graph kinds' parameters. Their seeded draw is
// not made, so the key is a pure function of the fields and costs no graph
// construction. A spec whose drawn graph comes out disconnected or cannot
// be made simple therefore has a key, and Run, Resume and SweepConfig.Plan
// reject it when they build the graph.
func (s Spec) CanonicalBytes() ([]byte, error) {
	if _, err := s.check(nil, false); err != nil {
		return nil, err
	}
	c, err := s.normalizedForKey()
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 256+2*len(c.Assignment))
	b = append(b, canonicalSpecMagic...)
	b = binary.LittleEndian.AppendUint16(b, canonicalSpecVersion)
	b = canonInt(b, int64(c.N))
	b = canonInt(b, int64(c.K))
	b = canonFloat(b, c.Alpha)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.Assignment)))
	for _, v := range c.Assignment {
		b = binary.AppendUvarint(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint64(b, c.Seed)
	b = canonFloat(b, c.Eps)
	b = canonInt(b, int64(c.MaxSteps))
	b = canonFloat(b, c.MaxTime)
	b = canonFloat(b, c.RecordEvery)
	b = canonString(b, c.Latency.Kind)
	b = canonFloat(b, c.Latency.Mean)
	b = canonInt(b, int64(c.Latency.Shape))
	b = canonString(b, c.Topology.Kind)
	b = canonInt(b, int64(c.Topology.Width))
	b = canonInt(b, int64(c.Topology.Rows))
	b = canonInt(b, int64(c.Topology.Cols))
	b = canonInt(b, int64(c.Topology.Degree))
	b = canonFloat(b, c.Topology.P)
	b = binary.LittleEndian.AppendUint64(b, c.Topology.GraphSeed)
	b = canonString(b, c.Adversary.Kind)
	b = canonFloat(b, c.Adversary.Fraction)
	b = canonFloat(b, c.Adversary.Rate)
	b = canonFloat(b, c.Adversary.At)
	b = binary.LittleEndian.AppendUint64(b, c.Adversary.Seed)
	b = canonBool(b, c.DiscardTrajectory)
	b = canonFloat(b, c.Checkpoint.SnapshotAt)
	b = canonBool(b, c.Checkpoint.Halt)
	b = canonFloat(b, c.Sync.Gamma)
	b = canonBool(b, c.Sync.TheoreticalSchedule)
	b = canonInt(b, int64(c.Async.ClusterTargetSize))
	b = canonBool(b, c.Baseline.Sequential)
	return b, nil
}

// normalizedForKey folds the engine-documented defaults into their explicit
// form (see CanonicalBytes) and clears every runtime-only field. Call only
// on a validated spec; the only fallible step is re-resolving the topology,
// which validation has already proven resolvable.
func (s Spec) normalizedForKey() (Spec, error) {
	s.Observer = nil
	s.scratch = nil
	s.Checkpoint.Sink = nil
	s.Checkpoint.Every = 0
	if s.Assignment != nil {
		s.Alpha = 0 // an explicit assignment makes the planted bias moot
	} else if s.Alpha == 0 {
		s.Alpha = 1 // the documented unbiased default
	}
	if s.Latency.Kind == "" {
		s.Latency.Kind = "exp"
	}
	if s.Latency.Mean == 0 {
		s.Latency.Mean = 1
	}
	if s.Latency.Kind != "erlang" {
		s.Latency.Shape = 0
	} else if s.Latency.Shape <= 0 {
		s.Latency.Shape = 2
	}
	t, err := s.Topology.Resolve(s.N)
	if err != nil {
		return s, err
	}
	// Clear the fields the resolved kind ignores, so e.g. a ring spec built
	// by a CLI that also filled Degree keys like a plain ring spec.
	switch t.Kind {
	case "", TopologyComplete:
		t = TopologySpec{Kind: TopologyComplete}
	case TopologyRing:
		t = TopologySpec{Kind: TopologyRing, Width: t.Width}
	case TopologyTorus:
		t = TopologySpec{Kind: TopologyTorus, Rows: t.Rows, Cols: t.Cols}
	case TopologyRandomRegular:
		t = TopologySpec{Kind: TopologyRandomRegular, Degree: t.Degree, GraphSeed: t.GraphSeed}
	case TopologyErdosRenyi:
		t = TopologySpec{Kind: TopologyErdosRenyi, P: t.P, GraphSeed: t.GraphSeed}
	}
	s.Topology = t
	if !s.Adversary.Enabled() {
		s.Adversary = AdversarySpec{} // every knob of a disabled adversary is ignored
	} else {
		if s.Adversary.Fraction == 0 {
			s.Adversary.Fraction = 0.1
		}
		if s.Adversary.Kind == AdversaryDelay && s.Adversary.Rate == 0 {
			s.Adversary.Rate = 1
		}
	}
	if s.Sync.Gamma == 0 {
		s.Sync.Gamma = 0.5
	}
	return s, nil
}

func canonInt(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// canonFloat encodes v's IEEE-754 bits, folding -0 to +0: every engine
// compares the two equal, and JSON with omitempty drops both, so a spec and
// its re-marshalled wire form share a key.
func canonFloat(b []byte, v float64) []byte {
	if v == 0 {
		v = 0
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func canonString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

func canonBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
