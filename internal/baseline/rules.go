// Package baseline implements the voting dynamics the paper's related-work
// section (§1.1) positions the generation protocol against: pull voting
// (Hassin–Peleg), two-choices voting (Cooper–Elsässer–Radzik), 3-majority
// (Becchetti et al.) and the k-opinion undecided-state dynamics (Angluin et
// al., generalized by Becchetti et al.). Each rule can be driven either in
// synchronous rounds or by a sequential random-pairing scheduler whose time
// is reported in parallel units (interactions divided by n), the standard
// normalization for population protocols.
package baseline

import (
	"fmt"

	"plurality/internal/opinion"
	"plurality/internal/xrand"
)

// Rule is one local update rule. Implementations must be stateless: the
// whole node state is its opinion (possibly opinion.None for undecided
// dynamics).
type Rule interface {
	// Samples returns how many uniformly sampled opinions the rule reads.
	Samples() int
	// Update returns the node's next opinion given its current opinion and
	// the sampled opinions (length Samples()).
	Update(self opinion.Opinion, sampled []opinion.Opinion) opinion.Opinion
	// Name identifies the rule in experiment output.
	Name() string
}

// PullVoting adopts the sampled opinion unconditionally.
type PullVoting struct{}

var _ Rule = PullVoting{}

// Samples returns 1.
func (PullVoting) Samples() int { return 1 }

// Update adopts the sample (undecided samples are ignored).
func (PullVoting) Update(self opinion.Opinion, s []opinion.Opinion) opinion.Opinion {
	return pull(self, s[0])
}

func pull(self, o opinion.Opinion) opinion.Opinion {
	if o == opinion.None {
		return self
	}
	return o
}

// Name returns "pull-voting".
func (PullVoting) Name() string { return "pull-voting" }

// TwoChoices adopts the common opinion of two samples and keeps its own
// otherwise.
type TwoChoices struct{}

var _ Rule = TwoChoices{}

// Samples returns 2.
func (TwoChoices) Samples() int { return 2 }

// Update adopts the samples' opinion iff they coincide.
func (TwoChoices) Update(self opinion.Opinion, s []opinion.Opinion) opinion.Opinion {
	return twoChoices(self, s[0], s[1])
}

func twoChoices(self, a, b opinion.Opinion) opinion.Opinion {
	if a == b && a != opinion.None {
		return a
	}
	return self
}

// Name returns "two-choices".
func (TwoChoices) Name() string { return "two-choices" }

// ThreeMajority samples three opinions and adopts the majority among them,
// breaking three-way ties uniformly at random among the samples.
type ThreeMajority struct {
	// R supplies the tie-breaking randomness; required.
	R *xrand.RNG
}

var _ Rule = &ThreeMajority{}

// Samples returns 3.
func (*ThreeMajority) Samples() int { return 3 }

// Update applies the 3-majority rule of Becchetti et al.
func (m *ThreeMajority) Update(self opinion.Opinion, s []opinion.Opinion) opinion.Opinion {
	return threeMajority(s[0], s[1], s[2], m.R)
}

func threeMajority(a, b, c opinion.Opinion, r *xrand.RNG) opinion.Opinion {
	switch {
	case a == b || a == c:
		return a
	case b == c:
		return b
	default:
		return [3]opinion.Opinion{a, b, c}[r.Intn(3)]
	}
}

// Name returns "3-majority".
func (*ThreeMajority) Name() string { return "3-majority" }

// Undecided is the k-opinion undecided-state dynamics: a decided node that
// pulls a different decided opinion becomes undecided; an undecided node
// adopts the first decided opinion it pulls.
type Undecided struct{}

var _ Rule = Undecided{}

// Samples returns 1.
func (Undecided) Samples() int { return 1 }

// Update applies the undecided-state transition.
func (Undecided) Update(self opinion.Opinion, s []opinion.Opinion) opinion.Opinion {
	return undecided(self, s[0])
}

func undecided(self, o opinion.Opinion) opinion.Opinion {
	switch {
	case self == opinion.None && o != opinion.None:
		return o
	case self != opinion.None && o != opinion.None && o != self:
		return opinion.None
	default:
		return self
	}
}

// Name returns "undecided-state".
func (Undecided) Name() string { return "undecided-state" }

// NewRule constructs a rule by name: "pull-voting", "two-choices",
// "3-majority" or "undecided-state". r is used by rules that need their own
// randomness; it must not be nil for "3-majority".
func NewRule(name string, r *xrand.RNG) (Rule, error) {
	switch name {
	case "pull-voting":
		return PullVoting{}, nil
	case "two-choices":
		return TwoChoices{}, nil
	case "3-majority":
		if r == nil {
			return nil, fmt.Errorf("baseline: 3-majority needs an RNG")
		}
		return &ThreeMajority{R: r}, nil
	case "undecided-state":
		return Undecided{}, nil
	default:
		return nil, fmt.Errorf("baseline: unknown rule %q", name)
	}
}

// RuleNames lists the available rules in a stable order.
func RuleNames() []string {
	return []string{"pull-voting", "two-choices", "3-majority", "undecided-state"}
}
