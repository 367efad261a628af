package baseline

import (
	"reflect"
	"testing"

	"plurality/internal/snap"
	"plurality/internal/xrand"
)

// roundtrip runs rule under a round-based scheduler and asserts the
// run-half → capture → restore → finish result deeply equals the
// uninterrupted run.
func roundtrip(t *testing.T, name string, run func(Rule, Config) (*Result, error)) {
	t.Helper()
	newRule := func() Rule {
		r, err := NewRule(name, xrand.New(99).SplitNamed("rule"))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := Config{N: 300, K: 3, Alpha: 2, Seed: 17}
	plain, err := run(newRule(), base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rounds < 2 {
		t.Fatalf("run too short (%d rounds) to checkpoint meaningfully", plain.Rounds)
	}

	var blob []byte
	ckpt := base
	ckpt.Ckpt = &snap.Checkpoint{
		At:   float64(plain.Rounds) / 2,
		Halt: true,
		Sink: func(state []byte, _ float64, _ uint64) { blob = append([]byte(nil), state...) },
	}
	if _, err := run(newRule(), ckpt); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no snapshot captured")
	}

	resumed := base
	resumed.Ckpt = &snap.Checkpoint{Restore: blob}
	res, err := run(newRule(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("resumed result differs from uninterrupted run:\nresumed: %+v\nplain:   %+v", res, plain)
	}
}

func TestCheckpointRoundtripSync(t *testing.T) {
	for _, rule := range RuleNames() {
		t.Run(rule, func(t *testing.T) { roundtrip(t, rule, RunSync) })
	}
}

func TestCheckpointRoundtripSequential(t *testing.T) {
	for _, rule := range RuleNames() {
		t.Run(rule, func(t *testing.T) { roundtrip(t, rule, RunSequential) })
	}
}

// TestRunPoissonRejectsCheckpoint pins that the Poisson runner, which no
// protocol or experiment checkpoints, refuses a checkpoint request instead
// of ignoring it.
func TestRunPoissonRejectsCheckpoint(t *testing.T) {
	for _, rule := range RuleNames() {
		t.Run(rule, func(t *testing.T) {
			r, err := NewRule(rule, xrand.New(99).SplitNamed("rule"))
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{N: 300, K: 3, Alpha: 2, Seed: 17, Ckpt: &snap.Checkpoint{Restore: []byte{}}}
			if _, err := RunPoisson(r, cfg, nil); err == nil {
				t.Fatal("RunPoisson accepted a checkpoint request")
			}
		})
	}
}

// TestCheckpointRuleMismatch pins that resuming a stateful-rule blob into a
// stateless rule (and vice versa) is a typed error, not a panic.
func TestCheckpointRuleMismatch(t *testing.T) {
	base := Config{N: 200, K: 3, Alpha: 2, Seed: 23}
	maj, err := NewRule("3-majority", xrand.New(1).SplitNamed("rule"))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunSync(maj, base)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	ckpt := base
	ckpt.Ckpt = &snap.Checkpoint{
		At:   float64(plain.Rounds) / 2,
		Halt: true,
		Sink: func(state []byte, _ float64, _ uint64) { blob = append([]byte(nil), state...) },
	}
	maj2, _ := NewRule("3-majority", xrand.New(1).SplitNamed("rule"))
	if _, err := RunSync(maj2, ckpt); err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.Ckpt = &snap.Checkpoint{Restore: blob}
	if _, err := RunSync(PullVoting{}, resumed); err == nil {
		t.Error("resuming a 3-majority blob into pull-voting succeeded, want error")
	}
}
