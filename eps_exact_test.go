package plurality

import (
	"context"
	"testing"
)

// TestExactEpsTime pins the asynchronous engines' exact ε-time on every
// asynchronous spec and seed of TestDistributionGolden. The engines note
// the ε-hit where a survivor count changes, with the recorder's own test
// (PluralityFrac ≥ 1−ε), so for each run:
//   - EpsTime is at or before the first recorded point that meets the test,
//     and EpsReached holds whenever such a point exists;
//   - a run captured before its hit (half way to it, or half way through a
//     run that never reaches it) and resumed reports the same ε outcome as
//     the uninterrupted run.
func TestExactEpsTime(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every asynchronous distribution spec and seed three times; skipped in -short mode")
	}
	ctx := context.Background()
	for _, c := range distributionCases {
		if c.protocol == "sync" {
			continue // round-based: the hit is tested at record points
		}
		t.Run(c.name, func(t *testing.T) {
			for i := range distributionReps {
				spec := c.spec
				spec.Seed = uint64(distributionFirstSeed + i)
				res, err := Run(ctx, c.protocol, spec)
				if err != nil {
					t.Fatalf("seed %d: %v", spec.Seed, err)
				}
				for _, p := range res.Trajectory {
					if p.PluralityFrac < 1-res.Eps {
						continue
					}
					if !res.EpsReached || res.EpsTime > p.Time {
						t.Errorf("seed %d: point at t=%v holds %v ≥ 1−ε, but EpsReached=%t EpsTime=%v",
							spec.Seed, p.Time, p.PluralityFrac, res.EpsReached, res.EpsTime)
					}
					break
				}

				at := res.Duration / 2
				if res.EpsReached {
					at = res.EpsTime / 2
				}
				if at <= 0 {
					continue
				}
				cspec := spec
				cspec.Checkpoint = CheckpointSpec{SnapshotAt: at, Halt: true}
				half, err := Run(ctx, c.protocol, cspec)
				if err != nil {
					t.Fatalf("seed %d: capture at t=%v: %v", spec.Seed, at, err)
				}
				if half.Snapshot == nil {
					t.Fatalf("seed %d: no snapshot at t=%v of %v", spec.Seed, at, res.Duration)
				}
				blob, err := half.Snapshot.Encode()
				if err != nil {
					t.Fatal(err)
				}
				sn, err := DecodeSnapshot(blob)
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := Resume(ctx, sn, nil)
				if err != nil {
					t.Fatalf("seed %d: resume: %v", spec.Seed, err)
				}
				if resumed.EpsReached != res.EpsReached || resumed.EpsTime != res.EpsTime {
					t.Errorf("seed %d: resumed from t=%v: ε reached %t at %v, uninterrupted %t at %v",
						spec.Seed, at, resumed.EpsReached, resumed.EpsTime, res.EpsReached, res.EpsTime)
				}
			}
		})
	}
}
