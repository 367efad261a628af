package topo

import "testing"

// This file checks the block partitions BlockOrder is built from: the
// contiguous ranges it cuts for complete graphs and rings, and the blocks
// bfsBlocks grows over CSR adjacency.

// checkPartition validates the structural contract: every node owned, owner
// ids in [0, s), block sizes within one of each other.
func checkPartition(t *testing.T, owner []int32, s int) {
	t.Helper()
	counts := make([]int, s)
	for v, b := range owner {
		if b < 0 || int(b) >= s {
			t.Fatalf("node %d has owner %d outside [0, %d)", v, b, s)
		}
		counts[b]++
	}
	lo, hi := len(owner), 0
	for _, c := range counts {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi-lo > 1 {
		t.Fatalf("unbalanced partition: block sizes range %d..%d", lo, hi)
	}
}

// blockOwner turns a BlockOrder result into an owner array (owner[v] is the
// index of the block holding v); a nil perm is the identity order.
func blockOwner(n int, perm, off []int32) []int32 {
	owner := make([]int32, n)
	for b := 0; b+1 < len(off); b++ {
		for i := off[b]; i < off[b+1]; i++ {
			v := i
			if perm != nil {
				v = perm[i]
			}
			owner[v] = int32(b)
		}
	}
	return owner
}

// cutFraction reports the fraction of g's directed edges whose endpoints
// lie in different blocks under owner.
func cutFraction(g *AdjGraph, owner []int32) float64 {
	cut := 0
	for v := 0; v < g.Size(); v++ {
		for _, w := range g.adj[g.off[v]:g.off[v+1]] {
			if owner[v] != owner[w] {
				cut++
			}
		}
	}
	return float64(cut) / float64(len(g.adj))
}

// cycleCSR builds the n-cycle as a CSR graph (a single edge for n = 2).
func cycleCSR(n int) *AdjGraph {
	if n == 2 {
		return newCSR("cycle-csr", 2, [][2]int32{{0, 1}})
	}
	edges := make([][2]int32, n)
	for v := range edges {
		edges[v] = [2]int32{int32(v), int32((v + 1) % n)}
	}
	return newCSR("cycle-csr", n, edges)
}

// TestPartitionBalancedBlocks checks that both block builders balance: the
// contiguous ranges BlockOrder cuts for a complete graph, and the
// breadth-first blocks it grows for a CSR graph, differ in size by at most
// one node for every (n, block count), including more blocks than nodes.
func TestPartitionBalancedBlocks(t *testing.T) {
	for _, n := range []int{2, 7, 100, 1000} {
		for _, s := range []int{1, 2, 3, 8, 1000, 2000} {
			eff := s
			if eff > n {
				eff = n
			}
			target := (n + eff - 1) / eff
			perm, off := BlockOrder(NewComplete(n), target)
			checkPartition(t, blockOwner(n, perm, off), len(off)-1)
			checkPartition(t, bfsBlocks(cycleCSR(n), eff), eff)
		}
	}
}

// TestPartitionContiguousForBlockTopologies checks that a ring keeps the
// identity order with contiguous blocks, so a 4-block cut of a width-2 ring
// severs only the edges at the 4 seams.
func TestPartitionContiguousForBlockTopologies(t *testing.T) {
	ring, err := NewRing(1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	perm, off := BlockOrder(ring, 250)
	if perm != nil {
		t.Fatal("ring should keep the identity order")
	}
	owner := blockOwner(1000, perm, off)
	checkPartition(t, owner, 4)
	for v := 1; v < len(owner); v++ {
		if owner[v] < owner[v-1] {
			t.Fatalf("block partition not monotone at node %d: %d after %d", v, owner[v], owner[v-1])
		}
	}
	// A contiguous 4-block partition of a width-2 ring cuts only the 8
	// boundary edges per seam, 4 seams: 2·2·2·4 = 32 directed cut edges of
	// 4000 total.
	cross := 0
	for v := 0; v < 1000; v++ {
		for d := -2; d <= 2; d++ {
			if d == 0 {
				continue
			}
			w := (v + d + 1000) % 1000
			if owner[v] != owner[w] {
				cross++
			}
		}
	}
	if cross > 32 {
		t.Fatalf("ring cut edges = %d, want <= 32", cross)
	}
}

func TestPartitionBFSBeatsStriping(t *testing.T) {
	g, err := NewRandomRegular(4000, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	const s = 8
	perm, off := BlockOrder(g, g.Size()/s)
	if len(off)-1 != s {
		t.Fatalf("BlockOrder cut %d blocks, want %d", len(off)-1, s)
	}
	owner := blockOwner(g.Size(), perm, off)
	checkPartition(t, owner, s)

	// Striped assignment v % s: expected cut fraction (s-1)/s ≈ 0.875 on a
	// random-regular graph. BFS-greedy should do no worse; on a random
	// 4-regular graph locality is weak, so only require parity, and pin
	// determinism instead.
	striped := make([]int32, g.Size())
	for v := range striped {
		striped[v] = int32(v % s)
	}
	bfsCut, stripedCut := cutFraction(g, owner), cutFraction(g, striped)
	if bfsCut > stripedCut {
		t.Fatalf("BFS cut %.3f worse than striped %.3f", bfsCut, stripedCut)
	}

	// Determinism: same graph, same s, same assignment.
	again := bfsBlocks(g, s)
	for v := range owner {
		if owner[v] != again[v] {
			t.Fatalf("partition not deterministic at node %d", v)
		}
	}
}

func TestPartitionBFSLocalityOnTorusCSR(t *testing.T) {
	// A torus expressed as a CSR graph has strong locality; BFS-greedy must
	// get a materially lower cut than striping.
	const rows, cols = 64, 64
	var edges [][2]int32
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := int32(r*cols + c)
			right := int32(r*cols + (c+1)%cols)
			down := int32(((r+1)%rows)*cols + c)
			edges = append(edges, [2]int32{v, right}, [2]int32{v, down})
		}
	}
	g := newCSR("torus-csr", rows*cols, edges)
	const s = 8
	perm, off := BlockOrder(g, g.Size()/s)
	if len(off)-1 != s {
		t.Fatalf("BlockOrder cut %d blocks, want %d", len(off)-1, s)
	}
	owner := blockOwner(g.Size(), perm, off)
	checkPartition(t, owner, s)
	striped := make([]int32, g.Size())
	for v := range striped {
		striped[v] = int32(v % s)
	}
	bfsCut, stripedCut := cutFraction(g, owner), cutFraction(g, striped)
	// Measured: BFS ≈ 0.16 vs striped 0.50 (the ideal rectangular band is
	// 0.125; BFS frontiers are ragged). Require at least a 2× win.
	if bfsCut > stripedCut/2 {
		t.Fatalf("BFS cut %.3f on torus CSR, want < %.3f (striped/2, striped=%.3f)", bfsCut, stripedCut/2, stripedCut)
	}
}
