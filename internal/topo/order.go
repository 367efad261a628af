package topo

// This file implements the locality-order API behind the synchronous
// engine's cache-blocked traversal: BlockOrder groups a graph's nodes into
// cache-sized blocks such that most partner gathers issued while a block is
// being processed land on state that is already cache-resident: the torus
// case tiles the grid and the CSR case grows blocks breadth-first over the
// adjacency (bfsBlocks).
//
// BlockOrder only reorders *memory access*, never sampling: callers draw
// their random partners in canonical node-id order first and then walk the
// blocks, so a blocked traversal is observationally identical to a
// sequential one (the engines' RNG streams and golden digests are
// unaffected).

// BlockOrder returns a deterministic cache-blocked traversal order for g:
// a permutation perm of [0, Size()) and block boundaries off (off[0] = 0,
// off[len-1] = Size(), strictly increasing), such that perm[off[b]:off[b+1]]
// lists the nodes of block b. Blocks hold about target nodes each (at least
// 1); callers size target so a block's node state fits in cache.
//
// A nil perm signals the identity order: node ids already encode locality
// (complete graphs have none to exploit, ring neighbors are adjacent in
// id), so the blocks are the contiguous ranges [off[b], off[b+1]) and
// callers can skip the permutation indirection entirely. Tori are tiled
// into near-square sub-grids, and CSR graphs (random-regular, Erdős–Rényi)
// group nodes into blocks grown breadth-first (bfsBlocks).
//
// The result is a pure function of (g, target): any ambient source of
// order (map iteration, goroutine timing) would break run reproducibility.
func BlockOrder(g Sampler, target int) (perm []int32, off []int32) {
	n := g.Size()
	if target < 1 {
		target = 1
	}
	if target > n {
		target = n
	}
	switch t := g.(type) {
	case *Torus:
		return tileOrder(t, target)
	case *AdjGraph:
		s := (n + target - 1) / target
		if s <= 1 {
			return nil, []int32{0, int32(n)}
		}
		return groupByOwner(bfsBlocks(t, s), s)
	default:
		return nil, contiguousBlocks(n, target)
	}
}

// contiguousBlocks cuts [0, n) into ⌈n/target⌉ contiguous ranges of near-
// equal size (they differ by at most one).
func contiguousBlocks(n, target int) []int32 {
	s := (n + target - 1) / target
	off := make([]int32, s+1)
	v := 0
	for b := 0; b < s; b++ {
		size := n / s
		if b < n%s {
			size++
		}
		v += size
		off[b+1] = int32(v)
	}
	return off
}

// tileOrder covers the rows×cols torus with near-square tiles of about
// target nodes, visiting tiles row-major and each tile's nodes row-major.
// A tile's grid neighbors lie inside the tile or one cell beyond its rim,
// so gathers during a tile stay within the tile plus a thin halo.
func tileOrder(t *Torus, target int) (perm []int32, off []int32) {
	n := t.rows * t.cols
	side := isqrt(target)
	if side < 1 {
		side = 1
	}
	tr, tc := side, side
	if tr > t.rows {
		tr = t.rows
	}
	if tc > t.cols {
		tc = t.cols
	}
	if tr == t.rows && tc == t.cols {
		return nil, []int32{0, int32(n)}
	}
	perm = make([]int32, 0, n)
	off = append(off, 0)
	for r0 := 0; r0 < t.rows; r0 += tr {
		rHi := r0 + tr
		if rHi > t.rows {
			rHi = t.rows
		}
		for c0 := 0; c0 < t.cols; c0 += tc {
			cHi := c0 + tc
			if cHi > t.cols {
				cHi = t.cols
			}
			for r := r0; r < rHi; r++ {
				base := int32(r * t.cols)
				for c := c0; c < cHi; c++ {
					perm = append(perm, base+int32(c))
				}
			}
			off = append(off, int32(len(perm)))
		}
	}
	return perm, off
}

// groupByOwner turns a block-owner array into a traversal order: nodes
// grouped by owner, ascending node id within each block —
// a counting sort, so the order is deterministic and O(n + s).
func groupByOwner(owner []int32, s int) (perm []int32, off []int32) {
	n := len(owner)
	off = make([]int32, s+1)
	for _, o := range owner {
		off[o+1]++
	}
	for b := 1; b <= s; b++ {
		off[b] += off[b-1]
	}
	perm = make([]int32, n)
	cursor := make([]int32, s)
	copy(cursor, off[:s])
	for v := 0; v < n; v++ {
		o := owner[v]
		perm[cursor[o]] = int32(v)
		cursor[o]++
	}
	return perm, off
}

// bfsBlocks grows s blocks of near-equal size breadth-first over the
// CSR adjacency and returns the owner array (owner[v] ∈ [0, s)): each block starts from the lowest-numbered unassigned
// node and absorbs a BFS frontier until full, so most edges stay inside a
// block on graphs with any neighborhood structure. The frontier queue
// carries over across block boundaries — when a block fills mid-layer, the
// next block continues from the same frontier, which keeps adjacent
// regions in adjacent blocks. Deterministic: BFS order is fixed by the CSR
// layout and node numbering.
func bfsBlocks(g *AdjGraph, s int) []int32 {
	n := g.Size()
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = -1
	}
	queue := make([]int32, 0, n)
	qpos := 0
	next := 0 // lowest node not yet assigned (scan cursor)

	for b := 0; b < s; b++ {
		size := n / s
		if b < n%s {
			size++
		}
		for taken := 0; taken < size; {
			var v int32
			if qpos < len(queue) {
				v = queue[qpos]
				qpos++
				if owner[v] >= 0 {
					continue
				}
			} else {
				for owner[next] >= 0 {
					next++
				}
				v = int32(next)
			}
			owner[v] = int32(b)
			taken++
			for _, w := range g.adj[g.off[v]:g.off[v+1]] {
				if owner[w] < 0 {
					queue = append(queue, w)
				}
			}
		}
	}
	return owner
}
