package plurality

import (
	"context"
	"testing"
)

// sparseSnapshotCases are runs on random graphs, where a graph build costs
// real work and a stale or mismatched graph would change the result.
func sparseSnapshotCases() []struct {
	name string
	spec Spec
} {
	rr := TopologySpec{Kind: TopologyRandomRegular, Degree: 6}
	return []struct {
		name string
		spec Spec
	}{
		{"3-majority", Spec{N: 400, K: 3, Alpha: 1.5, Seed: 11, Topology: rr}},
		{"decentralized", Spec{N: 300, K: 3, Alpha: 2, Seed: 12, Topology: rr}},
		{"leader", Spec{N: 300, K: 3, Alpha: 2, Seed: 13, Topology: TopologySpec{Kind: TopologyErdosRenyi}}},
	}
}

// TestResumeInMemoryMatchesDecoded pins that a snapshot resumed straight
// from memory, which reuses the captured run's graph, and its
// Encode→DecodeSnapshot copy, which rebuilds the graph from the spec, both
// continue to the uninterrupted result. A checkpoint taken by the resumed
// run carries the same graph on to the next segment.
func TestResumeInMemoryMatchesDecoded(t *testing.T) {
	ctx := context.Background()
	for _, c := range sparseSnapshotCases() {
		t.Run(c.name, func(t *testing.T) {
			sn, want := captureSnapshot(t, c.name, c.spec)
			if sn.graph == nil {
				t.Fatal("in-memory snapshot carries no graph")
			}
			blob, err := sn.Encode()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeSnapshot(blob)
			if err != nil {
				t.Fatal(err)
			}
			if dec.graph != nil {
				t.Fatal("decoded snapshot carries a graph")
			}
			for _, from := range []struct {
				label string
				sn    *Snapshot
			}{{"in-memory", sn}, {"decoded", dec}} {
				res, err := Resume(ctx, from.sn, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := digestResult(res); got != want {
					t.Errorf("%s resume digest %s, want uninterrupted %s", from.label, got, want)
				}
			}

			// The capture sits at half the run, so 1.5× its time is 3/4.
			next, err := Resume(ctx, sn, &ResumeOptions{Checkpoint: CheckpointSpec{
				SnapshotAt: 1.5 * sn.Meta().Time, Halt: true}})
			if err != nil {
				t.Fatal(err)
			}
			if next.Snapshot == nil {
				t.Fatal("resumed run took no second snapshot")
			}
			if next.Snapshot.graph != sn.graph {
				t.Error("second segment's snapshot does not carry the first segment's graph")
			}
			res, err := Resume(ctx, next.Snapshot, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := digestResult(res); got != want {
				t.Errorf("two-segment resume digest %s, want uninterrupted %s", got, want)
			}
		})
	}
}

// TestSnapshotMetaSpecCarriesNoGraph pins that the graph a snapshot holds
// never leaks through Meta().Spec: a caller who edits the captured spec's
// Seed, which re-derives the random graph, runs the new graph, not the
// captured one. RunBatch hands its spec to the protocol without
// revalidating it, so a leaked graph would reach the run there.
func TestSnapshotMetaSpecCarriesNoGraph(t *testing.T) {
	c := sparseSnapshotCases()[0]
	sn, _ := captureSnapshot(t, c.name, c.spec)
	spec := sn.Meta().Spec
	if spec.graph != nil || spec.scratch != nil {
		t.Fatal("Meta().Spec carries runtime-only state")
	}
	spec.Seed = c.spec.Seed + 100
	got, err := RunBatch(context.Background(), c.name, spec, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := c.spec
	fresh.Seed = spec.Seed
	want, err := RunBatch(context.Background(), c.name, fresh, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if digestResult(got[i]) != digestResult(want[i]) {
			t.Errorf("replication %d of an edited Meta().Spec differs from a plain run of the same spec", i)
		}
	}
}

// TestRunBatchFromSharedGraph pins warm-start batches on a random graph,
// where every replication reads one shared sampler: results are identical
// at 1 and 3 workers (CI runs this under -race) and match for the
// in-memory snapshot, its decoded copy, and the same capture taken inside
// RunBatch, whose stored spec must not hand the capturing worker's scratch
// buffers to the concurrent resumes.
func TestRunBatchFromSharedGraph(t *testing.T) {
	c := sparseSnapshotCases()[0]
	sn, want := captureSnapshot(t, c.name, c.spec)
	blob, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bspec := c.spec
	bspec.Checkpoint = CheckpointSpec{SnapshotAt: sn.Meta().Time, Halt: true}
	batch, err := RunBatch(ctx, c.name, bspec, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var runs [][]*Result
	for _, w := range []struct {
		sn      *Snapshot
		workers int
	}{{sn, 1}, {sn, 3}, {dec, 3}, {batch[0].Snapshot, 3}} {
		res, err := RunBatchFrom(ctx, w.sn, 4, w.workers)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res)
	}
	if got := digestResult(runs[0][0]); got != want {
		t.Errorf("replication 0 digest %s, want uninterrupted %s", got, want)
	}
	for i := range runs[0] {
		for j := 1; j < len(runs); j++ {
			if digestResult(runs[j][i]) != digestResult(runs[0][i]) {
				t.Errorf("replication %d: batch %d differs from the 1-worker in-memory batch", i, j)
			}
		}
	}
}
