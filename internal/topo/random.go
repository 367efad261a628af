package topo

import (
	"fmt"
	"math"
	"slices"

	"plurality/internal/xrand"
)

// AdjGraph is an explicit graph in compressed-sparse-row form: the neighbors
// of v are adj[off[v]:off[v+1]]. It backs the random topologies, whose
// neighborhoods have no closed form. Construction is seeded and
// deterministic; sampling is one Intn plus two slice reads.
type AdjGraph struct {
	name string
	off  []int
	adj  []int32
	// uniformDeg is the common degree when the graph is regular (0 when
	// degrees are mixed); Regular exposes the rows it makes flat, so row
	// offsets come from one bounded bulk draw.
	uniformDeg int32
}

// SampleNeighbor returns a uniform neighbor of v.
func (g *AdjGraph) SampleNeighbor(r *xrand.RNG, v int) int {
	lo, hi := g.off[v], g.off[v+1]
	return int(g.adj[lo+r.Intn(hi-lo)])
}

// Degree returns the number of neighbors of v.
func (g *AdjGraph) Degree(v int) int { return g.off[v+1] - g.off[v] }

// Size returns the node count.
func (g *AdjGraph) Size() int { return len(g.off) - 1 }

// String names the graph for diagnostics.
func (g *AdjGraph) String() string { return g.name }

// newCSR builds the CSR arrays from an undirected edge list.
func newCSR(name string, n int, edges [][2]int32) *AdjGraph {
	off := make([]int, n+1)
	for _, e := range edges {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	adj := make([]int32, off[n])
	fill := make([]int, n)
	copy(fill, off[:n])
	for _, e := range edges {
		a, b := e[0], e[1]
		adj[fill[a]] = b
		fill[a]++
		adj[fill[b]] = a
		fill[b]++
	}
	g := &AdjGraph{name: name, off: off, adj: adj}
	if n > 0 {
		d := g.Degree(0)
		uniform := d > 0
		for v := 1; v < n && uniform; v++ {
			uniform = g.Degree(v) == d
		}
		if uniform {
			g.uniformDeg = int32(d)
		}
	}
	return g
}

// connected reports whether g is connected, by BFS from node 0.
func (g *AdjGraph) connected() bool {
	n := g.Size()
	if n == 0 {
		return false
	}
	seen := make([]bool, n)
	queue := make([]int32, 0, n)
	seen[0] = true
	queue = append(queue, 0)
	visited := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[g.off[v]:g.off[v+1]] {
			if !seen[u] {
				seen[u] = true
				visited++
				queue = append(queue, u)
			}
		}
	}
	return visited == n
}

// CheckRandomRegular reports whether NewRandomRegular accepts n and d: n >= 3,
// 2 <= d < n and n·d even. It draws nothing, so a nil error does not promise
// a graph; only the seeded construction can find that the pairing cannot be
// made simple and connected.
func CheckRandomRegular(n, d int) error {
	if n < 3 {
		return fmt.Errorf("topo: random-regular needs n >= 3, got %d", n)
	}
	if d < 2 || d >= n {
		return fmt.Errorf("topo: random-regular degree %d outside [2, n)", d)
	}
	if n*d%2 != 0 {
		return fmt.Errorf("topo: random-regular needs n*d even, got %d*%d", n, d)
	}
	return nil
}

// NewRandomRegular returns a random d-regular graph on n nodes via the
// configuration model with double-edge-swap repair: n·d stubs are shuffled
// and paired, then every self-loop or multi-edge is swapped against a
// random good edge until the pairing is simple (a whole-graph restart would
// need e^{Θ(d²)} expected attempts, hopeless already at d ≈ 8). The repaired
// graph must be connected or the construction restarts. Deterministic in
// seed; n·d must be even, 2 <= d < n.
func NewRandomRegular(n, d int, seed uint64) (*AdjGraph, error) {
	if err := CheckRandomRegular(n, d); err != nil {
		return nil, err
	}
	r := xrand.New(seed).SplitNamed("random-regular")
	// nbr holds each node's good-edge neighbours in a row of capacity d (a
	// node has only d stubs), so membership is a scan of at most d entries
	// and the rows never reallocate. That beats hashing edge keys up to
	// d ≈ 256 at n = 10⁴; near-complete graphs (d ≈ n/2) build about 3×
	// slower than with a hash set.
	nbr := make([]int32, n*d)
	cnt := make([]int32, n)
	row := func(v int32) []int32 { return nbr[int(v)*d : int(v)*d+int(cnt[v])] }
	link := func(a, b int32) {
		nbr[int(a)*d+int(cnt[a])] = b
		cnt[a]++
		nbr[int(b)*d+int(cnt[b])] = a
		cnt[b]++
	}
	unlink := func(a, b int32) { // row order is irrelevant: swap-remove
		for _, e := range [2][2]int32{{a, b}, {b, a}} {
			r := row(e[0])
			r[slices.Index(r, e[1])] = r[len(r)-1]
			cnt[e[0]]--
		}
	}
	stubs := make([]int32, n*d)
	edges := make([][2]int32, 0, n*d/2)
	isBad := make([]bool, n*d/2)
	var bad []int // indices of loops and duplicate edges
	const maxRestarts = 64
	for restart := 0; restart < maxRestarts; restart++ {
		for i := range stubs {
			stubs[i] = int32(i / d)
		}
		xrand.ShuffleSlice(r, stubs)
		clear(cnt)
		clear(isBad)
		edges, bad = edges[:0], bad[:0]
		for i := 0; i < len(stubs); i += 2 {
			a, b := stubs[i], stubs[i+1]
			idx := len(edges)
			edges = append(edges, [2]int32{a, b})
			if a == b || slices.Contains(row(a), b) {
				bad = append(bad, idx)
				isBad[idx] = true
				continue
			}
			link(a, b)
		}
		// Repair: swap each bad edge (a,b) with a random good edge (c,d)
		// into (a,c)+(b,d) or (a,d)+(b,c); both replacements must be new
		// simple edges. The partner must be good — a duplicate's adjacency
		// entry is owned by its first occurrence, so swapping the duplicate
		// would strip that entry and later admit a real multi-edge. Each
		// success fixes one bad edge, so the loop terminates quickly; the
		// attempt cap guards degenerate corners (e.g. d = n-1 leaves
		// nothing to swap against).
		attempts := 0
		maxAttempts := 200 * (len(bad) + 1)
		for len(bad) > 0 && attempts < maxAttempts {
			attempts++
			i := bad[len(bad)-1]
			j := r.Intn(len(edges))
			if isBad[j] {
				continue
			}
			a, b := edges[i][0], edges[i][1]
			c, dd := edges[j][0], edges[j][1]
			if r.Bool() {
				c, dd = dd, c
			}
			// Proposed replacement: (a,c) and (b,dd), two distinct new edges.
			if a == c || b == dd {
				continue
			}
			if (a == b && c == dd) || (a == dd && c == b) {
				continue
			}
			if slices.Contains(row(a), c) || slices.Contains(row(b), dd) {
				continue
			}
			unlink(c, dd)
			link(a, c)
			link(b, dd)
			edges[i] = [2]int32{a, c}
			edges[j] = [2]int32{b, dd}
			bad = bad[:len(bad)-1]
			isBad[i] = false
		}
		if len(bad) > 0 {
			continue
		}
		g := newCSR(fmt.Sprintf("random-regular(n=%d,d=%d)", n, d), n, edges)
		if !g.connected() {
			continue
		}
		return g, nil
	}
	return nil, fmt.Errorf("topo: no simple connected %d-regular graph on %d nodes after %d attempts (d = 2 disconnects easily; use d >= 3)", d, n, maxRestarts)
}

// CheckErdosRenyi reports whether NewErdosRenyi accepts n and p: n >= 2 and
// p in (0, 1]. It draws nothing, so a nil error does not promise a graph;
// only the seeded construction can find the sample disconnected.
func CheckErdosRenyi(n int, p float64) error {
	if n < 2 {
		return fmt.Errorf("topo: erdos-renyi needs n >= 2, got %d", n)
	}
	if !(p > 0 && p <= 1) || math.IsNaN(p) {
		return fmt.Errorf("topo: erdos-renyi p %v outside (0, 1]", p)
	}
	return nil
}

// NewErdosRenyi returns a G(n, p) sample, constructed in O(n + edges) by
// geometric gap-skipping over each row of the upper triangle. Construction
// is deterministic in seed; it errors when the sampled graph is not
// connected (raise p — connectivity needs p ≳ ln n / n).
func NewErdosRenyi(n int, p float64, seed uint64) (*AdjGraph, error) {
	if err := CheckErdosRenyi(n, p); err != nil {
		return nil, err
	}
	r := xrand.New(seed).SplitNamed("erdos-renyi")
	var edges [][2]int32
	if p == 1 {
		for v := 0; v < n-1; v++ {
			for j := v + 1; j < n; j++ {
				edges = append(edges, [2]int32{int32(v), int32(j)})
			}
		}
	} else {
		logQ := math.Log1p(-p) // log(1-p) < 0
		for v := 0; v < n-1; v++ {
			j := v
			for {
				// Skip a Geometric(p) number of absent pairs.
				gap := math.Floor(math.Log(r.Float64Open()) / logQ)
				if gap >= float64(n) { // beyond any row; avoids int overflow
					break
				}
				j += 1 + int(gap)
				if j >= n {
					break
				}
				edges = append(edges, [2]int32{int32(v), int32(j)})
			}
		}
	}
	g := newCSR(fmt.Sprintf("erdos-renyi(n=%d,p=%g)", n, p), n, edges)
	if !g.connected() {
		return nil, fmt.Errorf("topo: erdos-renyi(n=%d, p=%g, seed=%d) is not connected; raise p (connectivity needs p ≳ ln(n)/n ≈ %.2g)",
			n, p, seed, math.Log(float64(n))/float64(n))
	}
	return g, nil
}
