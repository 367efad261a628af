package opinion

import (
	"fmt"
	"slices"

	"plurality/internal/snap"
)

// SliceLayout runs an opinion assignment through c in the canonical
// checkpoint form (length-prefixed int32s; None is -1). A decoder validates
// every value against k opinions (None allowed).
func SliceLayout(c *snap.Codec, a *[]Opinion, k int) {
	snap.Words(c, a)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	for _, o := range *a {
		if o != None && (o < 0 || int(o) >= k) {
			c.Fail(fmt.Errorf("%w: opinion %d outside [0, %d)", snap.ErrCorrupt, o, k))
			return
		}
	}
}

// CountsLayout runs a per-opinion tally through c; a decoder validates its
// length against k.
func CountsLayout(c *snap.Codec, counts *Counts, k int) {
	snap.Words(c, counts)
	c.Require(len(*counts) == k, "%d counts for k=%d", len(*counts), k)
}

// Tallies reports whether c is exactly the tally, over len(c) opinions, of
// the nodes of a not marked in down (which has len(a) entries), and every
// node of a holds an opinion in range: the consistency a restored engine
// that never holds None checks before it indexes c by node opinions.
func (c Counts) Tallies(a []Opinion, down []bool) bool {
	t := make(Counts, len(c))
	for v, o := range a {
		if o < 0 || int(o) >= len(c) {
			return false
		}
		if !down[v] {
			t[o]++
		}
	}
	return slices.Equal(c, t)
}
