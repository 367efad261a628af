package plurality

import (
	"fmt"
	"math"

	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// The registered topology kinds, valid values of TopologySpec.Kind. The
// paper's analysis covers the complete graph only; the other kinds run the
// same dynamics on restricted interaction graphs, the regime of the
// general-graph related work (3-majority with many opinions, two-choices
// k-party voting).
const (
	// TopologyComplete is the complete graph — the paper's model and the
	// default. It is the zero-allocation fast path: runs are byte-identical
	// to the pre-topology code for the same seed.
	TopologyComplete = "complete"
	// TopologyRing is the circulant graph where v neighbors v±1 … v±Width.
	TopologyRing = "ring"
	// TopologyTorus is the Rows×Cols 2-D grid with wraparound.
	TopologyTorus = "torus"
	// TopologyRandomRegular is a seeded random Degree-regular graph.
	TopologyRandomRegular = "random-regular"
	// TopologyErdosRenyi is a seeded G(n, P) sample, required connected.
	TopologyErdosRenyi = "erdos-renyi"
)

// Topologies returns the supported topology kinds in documentation order.
func Topologies() []string {
	return []string{TopologyComplete, TopologyRing, TopologyTorus,
		TopologyRandomRegular, TopologyErdosRenyi}
}

// TopologySpec selects the interaction graph of a run: which nodes a node
// may sample when the protocol says "contact a random other node". The zero
// value is the complete graph, reproducing the paper's model (and the
// pre-topology results) exactly. Fields not used by the selected Kind are
// ignored.
type TopologySpec struct {
	// Kind names the graph family; "" means TopologyComplete.
	Kind string `json:"kind,omitempty"`
	// Width is the ring half-width (neighbors v±1 … v±Width); 0 means 1,
	// the plain cycle. Requires N >= 2·Width+1.
	Width int `json:"width,omitempty"`
	// Rows and Cols are the torus dimensions; both 0 means the most
	// near-square factorization of N with both sides >= 3 (an error if N
	// has none, e.g. primes), and setting exactly one infers the other
	// from N. When both are set, Rows·Cols must equal N.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Degree is the random-regular degree; 0 means 4. N·Degree must be
	// even and 2 <= Degree < N.
	Degree int `json:"degree,omitempty"`
	// P is the Erdős–Rényi edge probability in (0, 1]; 0 means
	// min(1, 2·ln(N)/N), comfortably above the ln(N)/N connectivity
	// threshold. The sampled graph must be connected or the run errors.
	P float64 `json:"p,omitempty"`
	// GraphSeed seeds the construction of the random graph kinds; 0
	// derives the seed from Spec.Seed, so replications with distinct run
	// seeds draw distinct graphs (annealed averaging). Set it to pin one
	// graph across replications (quenched).
	GraphSeed uint64 `json:"graph_seed,omitempty"`
}

// Label renders the spec compactly for tables and sweep axes, e.g.
// "complete", "ring(w=2)", "torus(32x32)", "random-regular(d=4)",
// "erdos-renyi(p=0.01)". Knobs still at their zero value are omitted; pass
// the spec through Resolve first to label the graph a run actually uses.
func (t TopologySpec) Label() string {
	switch t.Kind {
	case "", TopologyComplete:
		return TopologyComplete
	case TopologyRing:
		if t.Width > 0 {
			return fmt.Sprintf("ring(w=%d)", t.Width)
		}
		return "ring"
	case TopologyTorus:
		if t.Rows > 0 || t.Cols > 0 {
			return fmt.Sprintf("torus(%dx%d)", t.Rows, t.Cols)
		}
		return "torus"
	case TopologyRandomRegular:
		if t.Degree > 0 {
			return fmt.Sprintf("random-regular(d=%d)", t.Degree)
		}
		return "random-regular"
	case TopologyErdosRenyi:
		if t.P > 0 {
			return fmt.Sprintf("erdos-renyi(p=%.4g)", t.P)
		}
		return "erdos-renyi"
	default:
		return t.Kind
	}
}

// ResolvedLabel is Label after Resolve: the display name of the graph a run
// on n nodes actually uses, e.g. "torus(30x30)" for a default-dims torus at
// n = 900. When the spec cannot be resolved it falls back to the unresolved
// Label (the caller is about to see the build error anyway).
func (t TopologySpec) ResolvedLabel(n int) string {
	if r, err := t.Resolve(n); err == nil {
		return r.Label()
	}
	return t.Label()
}

// Resolve returns a copy with every Kind-specific default filled in for n
// nodes — Width 1, near-square torus dims, Degree 4, P = min(1, 2·ln n/n) —
// so callers can inspect (and Label) the graph a run will actually use.
// This is the single place defaults are decided; build constructs from the
// resolved values verbatim.
func (t TopologySpec) Resolve(n int) (TopologySpec, error) {
	if n < 2 {
		return t, fmt.Errorf("plurality: topology needs N >= 2, got %d", n)
	}
	switch t.Kind {
	case "", TopologyComplete:
	case TopologyRing:
		if t.Width == 0 {
			t.Width = 1
		}
	case TopologyTorus:
		switch {
		case t.Rows == 0 && t.Cols == 0:
			var ok bool
			t.Rows, t.Cols, ok = topo.NearSquareDims(n)
			if !ok {
				return t, fmt.Errorf("plurality: N = %d has no torus factorization with both sides >= 3; pick N with such a divisor pair or set Rows/Cols", n)
			}
		case t.Cols == 0: // one dimension given: infer the other from N
			if t.Rows <= 0 || n%t.Rows != 0 {
				return t, fmt.Errorf("plurality: torus rows %d does not divide N %d", t.Rows, n)
			}
			t.Cols = n / t.Rows
		case t.Rows == 0:
			if t.Cols <= 0 || n%t.Cols != 0 {
				return t, fmt.Errorf("plurality: torus cols %d does not divide N %d", t.Cols, n)
			}
			t.Rows = n / t.Cols
		}
		if t.Rows*t.Cols != n {
			return t, fmt.Errorf("plurality: torus dims %dx%d = %d != N %d", t.Rows, t.Cols, t.Rows*t.Cols, n)
		}
	case TopologyRandomRegular:
		if t.Degree == 0 {
			t.Degree = 4
		}
	case TopologyErdosRenyi:
		if t.P == 0 {
			t.P = math.Min(1, 2*math.Log(float64(n))/float64(n))
		}
	default:
		return t, fmt.Errorf("plurality: unknown topology kind %q (have %v)", t.Kind, Topologies())
	}
	return t, nil
}

// check is build without the random kinds' seeded draw: every check build
// makes that does not depend on the drawn graph, with the same errors. The
// complete, ring and torus constructors are O(1), so those kinds are simply
// built; the random kinds check their parameters only. What only the draw
// can reveal (a disconnected G(n, p), a regular pairing that cannot be made
// simple) is left to build.
func (t TopologySpec) check(n int) error {
	r, err := t.Resolve(n)
	if err != nil {
		return err
	}
	switch r.Kind {
	case TopologyRandomRegular:
		err = topo.CheckRandomRegular(n, r.Degree)
	case TopologyErdosRenyi:
		err = topo.CheckErdosRenyi(n, r.P)
	default:
		_, err = r.build(n, 0)
		return err
	}
	if err != nil {
		return fmt.Errorf("plurality: %w", err)
	}
	return nil
}

// build constructs the sampler for n nodes. The random graph kinds derive
// their construction seed from runSeed unless GraphSeed pins it; the
// derivation uses a dedicated substream so engine randomness is untouched.
// Connectivity of the random kinds is checked here, and therefore at
// validation time: Spec.check builds the sampler and hands it to the run.
// The other callers are the run prologue, for a spec no validation handed
// a sampler for (RunBatch and Sweep replications), and TopologySpec.check,
// for the O(1) kinds only.
func (t TopologySpec) build(n int, runSeed uint64) (topo.Sampler, error) {
	t, err := t.Resolve(n)
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case "", TopologyComplete:
		return topo.NewComplete(n), nil
	case TopologyRing:
		g, err := topo.NewRing(n, t.Width)
		if err != nil {
			return nil, fmt.Errorf("plurality: %w", err)
		}
		return g, nil
	case TopologyTorus:
		g, err := topo.NewTorus(t.Rows, t.Cols)
		if err != nil {
			return nil, fmt.Errorf("plurality: %w", err)
		}
		return g, nil
	case TopologyRandomRegular:
		g, err := topo.NewRandomRegular(n, t.Degree, t.graphSeed(runSeed))
		if err != nil {
			return nil, fmt.Errorf("plurality: %w", err)
		}
		return g, nil
	default: // TopologyErdosRenyi; Resolve rejected every other kind
		g, err := topo.NewErdosRenyi(n, t.P, t.graphSeed(runSeed))
		if err != nil {
			return nil, fmt.Errorf("plurality: %w", err)
		}
		return g, nil
	}
}

// graphSeed resolves the construction seed for the random graph kinds.
func (t TopologySpec) graphSeed(runSeed uint64) uint64 {
	if t.GraphSeed != 0 {
		return t.GraphSeed
	}
	return xrand.New(runSeed).SplitNamed("topology").Uint64()
}

// topoStats appends the topology diagnostics to a protocol's Stats map for
// non-complete graphs: node count and average degree (Sampler.Degree/Size).
// The complete graph adds nothing, keeping default results byte-identical
// to the pre-topology code.
func (t TopologySpec) topoStats(tp topo.Sampler, extra map[string]float64) {
	switch t.Kind {
	case "", TopologyComplete:
		return
	}
	extra["topology_nodes"] = float64(tp.Size())
	extra["topology_avg_degree"] = topo.AvgDegree(tp)
}
