package topo

import "testing"

// checkBlockOrder asserts the BlockOrder contract: off covers [0, n) with
// strictly increasing boundaries, and perm (when non-nil) is a permutation.
func checkBlockOrder(t *testing.T, g Sampler, target int) (perm, off []int32) {
	t.Helper()
	n := g.Size()
	perm, off = BlockOrder(g, target)
	if len(off) < 2 || off[0] != 0 || off[len(off)-1] != int32(n) {
		t.Fatalf("off = %v does not cover [0, %d)", off, n)
	}
	for b := 1; b < len(off); b++ {
		if off[b] <= off[b-1] {
			t.Fatalf("empty or inverted block %d: off = %v", b-1, off)
		}
	}
	if perm != nil {
		if len(perm) != n {
			t.Fatalf("perm length %d != n %d", len(perm), n)
		}
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || int(v) >= n || seen[v] {
				t.Fatalf("perm is not a permutation: node %d repeated or out of range", v)
			}
			seen[v] = true
		}
	}
	return perm, off
}

func TestBlockOrderIdentityKinds(t *testing.T) {
	ring, err := NewRing(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]Sampler{
		"complete": NewComplete(1000),
		"ring":     ring,
	} {
		perm, off := checkBlockOrder(t, g, 128)
		if perm != nil {
			t.Errorf("%s: want identity order (nil perm), got a permutation", name)
		}
		for b := 1; b < len(off); b++ {
			if size := off[b] - off[b-1]; size > 129 {
				t.Errorf("%s: block %d holds %d nodes, target 128", name, b-1, size)
			}
		}
	}
}

func TestBlockOrderTorusTiles(t *testing.T) {
	g, err := NewTorus(40, 50)
	if err != nil {
		t.Fatal(err)
	}
	perm, off := checkBlockOrder(t, g, 100)
	if perm == nil {
		t.Fatal("torus larger than one tile should be permuted")
	}
	// Every block is a sub-grid: its nodes span at most √target+1 distinct
	// rows and columns, so in-tile gathers stay within a small footprint.
	for b := 1; b < len(off); b++ {
		rows := map[int32]bool{}
		cols := map[int32]bool{}
		for _, v := range perm[off[b-1]:off[b]] {
			rows[v/50] = true
			cols[v%50] = true
		}
		if len(rows) > 11 || len(cols) > 11 {
			t.Fatalf("block %d spans %dx%d rows/cols for target 100", b-1, len(rows), len(cols))
		}
	}
}

func TestBlockOrderTorusSingleTile(t *testing.T) {
	g, err := NewTorus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	perm, off := checkBlockOrder(t, g, 1024)
	if perm != nil || len(off) != 2 {
		t.Fatalf("a torus that fits one tile should use the identity order, got %d blocks", len(off)-1)
	}
}

func TestBlockOrderCSRMatchesPartition(t *testing.T) {
	g, err := NewRandomRegular(600, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	perm, off := checkBlockOrder(t, g, 100)
	if perm == nil {
		t.Fatal("CSR graphs should be grouped into BFS-grown blocks")
	}
	s := len(off) - 1
	owner := bfsBlocks(g, s)
	for b := 0; b < s; b++ {
		block := perm[off[b]:off[b+1]]
		if d := len(block) - len(perm)/s; d < 0 || d > 1 {
			t.Fatalf("block %d holds %d nodes, want %d or %d", b, len(block), len(perm)/s, len(perm)/s+1)
		}
		for i, v := range block {
			if owner[v] != int32(b) {
				t.Fatalf("node %d in block %d belongs to BFS block %d", v, b, owner[v])
			}
			if i > 0 && block[i] <= block[i-1] {
				t.Fatalf("block %d not in ascending node order: %v", b, block)
			}
		}
	}
}

func TestBlockOrderDeterministic(t *testing.T) {
	g, err := NewRandomRegular(400, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	p1, o1 := BlockOrder(g, 64)
	p2, o2 := BlockOrder(g, 64)
	if len(p1) != len(p2) || len(o1) != len(o2) {
		t.Fatal("BlockOrder is not deterministic")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("perm diverges at %d", i)
		}
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("off diverges at %d", i)
		}
	}
}

func TestBlockOrderTinyTarget(t *testing.T) {
	checkBlockOrder(t, NewComplete(7), 1)
	g, err := NewTorus(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkBlockOrder(t, g, 1)
}
