package experiments

import (
	"fmt"
	"sort"

	"plurality/internal/harness"
)

// Spec describes one registered experiment.
type Spec struct {
	// ID is the experiment's id in the E1–E16 index (e.g. "E1").
	ID string
	// Name is the subcommand / bench name.
	Name string
	// Paper is the paper artifact the experiment regenerates.
	Paper string
	// Run executes the experiment.
	Run func(Opts) *harness.Table
}

// All returns every registered experiment in a stable order.
func All() []Spec {
	specs := []Spec{
		{ID: "E1", Name: "fig1", Paper: "Figure 1", Run: Figure1},
		{ID: "E2", Name: "fig2", Paper: "Figure 2 / Proposition 31", Run: Figure2},
		{ID: "E3", Name: "t1", Paper: "Theorem 1", Run: Theorem1Scaling},
		{ID: "E4", Name: "t13", Paper: "Theorem 13", Run: Theorem13Scaling},
		{ID: "E5", Name: "t26", Paper: "Theorem 26", Run: Theorem26HeadToHead},
		{ID: "E6", Name: "clustering", Paper: "Theorem 27", Run: Theorem27Clustering},
		{ID: "E7", Name: "broadcast", Paper: "Theorem 28", Run: Theorem28Broadcast},
		{ID: "E8", Name: "bias", Paper: "Lemma 4 / Corollary 7 / Proposition 8", Run: BiasSquaring},
		{ID: "E9", Name: "growth", Paper: "Proposition 9 / §2.2 X_i", Run: GenerationGrowth},
		{ID: "E10a", Name: "gamma", Paper: "§2.2 empirical remark on γ", Run: GammaSweep},
		{ID: "E10b", Name: "aging", Paper: "§5 / PODC positive aging", Run: AgingLatencies},
		{ID: "E11", Name: "c1", Paper: "Remark 14 / Example 15", Run: C1Constants},
		{ID: "E12", Name: "shootout", Paper: "§1.1 comparative landscape", Run: Shootout},
		{ID: "E13", Name: "tail", Paper: "Lemma 11 / Lemma 25", Run: TailGenerations},
		{ID: "E14", Name: "ablation", Paper: "design-choice ablations (beyond the paper)", Run: Ablations},
		{ID: "E15", Name: "congestion", Paper: "§4.5 complexity parameters", Run: Congestion},
		{ID: "E16", Name: "asyncshootout", Paper: "§1.1 landscape under async semantics", Run: AsyncShootout},
	}
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	return specs
}

// Lookup finds an experiment by subcommand name.
func Lookup(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("experiments: unknown experiment %q", name)
}
