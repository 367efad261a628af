package server

import (
	"testing"

	"plurality"
)

// TestJobKeyGolden pins the exact content addresses of a spread of jobs, in
// both key domains. Persisted caches, job snapshots and sweep IDs are all
// addressed by these bytes, so any change here orphans every store written
// before it: a key may move only with a deliberate EngineEpoch or
// canonical-version bump, and then this table is re-recorded.
func TestJobKeyGolden(t *testing.T) {
	rr := plurality.TopologySpec{Kind: plurality.TopologyRandomRegular, Degree: 8}
	er := plurality.TopologySpec{Kind: plurality.TopologyErdosRenyi, P: 0.02}
	cases := []struct {
		name, protocol string
		spec           plurality.Spec
		run, cell      string
	}{
		{"complete/implicit", "sync", plurality.Spec{N: 100, K: 2, Seed: 1},
			"b34caaea746651a72fdee6843178ca3e6097ac628d3602a2960eaadadd5f464a",
			"34b88b04b49267e013f4098dd14c4d4255d4e7a0f68841a25e96dce879d16db3"},
		{"complete/explicit-defaults", "sync", plurality.Spec{N: 100, K: 2, Seed: 1, Alpha: 1,
			Latency:  plurality.LatencySpec{Kind: "exp", Mean: 1},
			Topology: plurality.TopologySpec{Kind: plurality.TopologyComplete},
			Sync:     plurality.SyncOptions{Gamma: 0.5}},
			"b34caaea746651a72fdee6843178ca3e6097ac628d3602a2960eaadadd5f464a",
			"34b88b04b49267e013f4098dd14c4d4255d4e7a0f68841a25e96dce879d16db3"},
		{"ring", "leader", plurality.Spec{N: 200, K: 3, Alpha: 2, Seed: 7,
			Topology: plurality.TopologySpec{Kind: plurality.TopologyRing, Width: 2}},
			"580f899a79998ef623659d508e59d7fdfdeb8694395f7079e964d5732f6c3469",
			"3c4badbbcb673f08076ffeadd0ed15dad34d38e63b81fb1a5daf497e776af90b"},
		{"torus", "3-majority", plurality.Spec{N: 900, K: 3, Alpha: 1.5, Seed: 11,
			Topology: plurality.TopologySpec{Kind: plurality.TopologyTorus}},
			"61a2990952ef95275491291c44d85ae24f3c8902cc4d2fad8bf2f8708ecf1d7b",
			"5af24ca009f43e15a45bd26e5e3ef53720a45870b2c4eb32c05caa3d911cbed9"},
		{"random-regular", "3-majority", plurality.Spec{N: 1000, K: 2, Alpha: 2, Seed: 3,
			Topology: rr},
			"3695f437b99c5ef88567b592330dd4dde791a0c386de56dcce484b7b3a68e428",
			"3ff11e3fec65c837a911a951d93e58e7273912cdcc1fa6ed6243a2144eb8917c"},
		{"random-regular/graph-seed", "3-majority", plurality.Spec{N: 1000, K: 2, Alpha: 2, Seed: 3,
			Topology: plurality.TopologySpec{Kind: plurality.TopologyRandomRegular, Degree: 8, GraphSeed: 42}},
			"b543a9212a41266d4e9e078fc1992ff9fcd5bc95fbf215c3de4ab319c2394c38",
			"d9720208eba916a955eb10c384a0f250b3d8ad23c014b48dd169e01cf5380ee4"},
		{"erdos-renyi", "sync", plurality.Spec{N: 500, K: 3, Alpha: 2, Seed: 5,
			Topology: er},
			"a8b45d446c154914af564097cf5ec566ae1086d59aed6514b16f59967a8d1f98",
			"092f5dc64b187b7a275ed3518b91b2b89d7f7d44be2bc87ba58a02b2d345c839"},
		{"erdos-renyi/graph-seed/default-p", "leader", plurality.Spec{N: 500, K: 3, Alpha: 2, Seed: 5,
			Topology: plurality.TopologySpec{Kind: plurality.TopologyErdosRenyi, GraphSeed: 9}},
			"966077e49fcea624236b65a3ace28bc57895a536db5222a5b1da3f452a3db156",
			"a370aa814b0f981c75bf3c0b024cdf5285e272408fb3179b2e60e7b872be1519"},
		{"assignment", "sync", plurality.Spec{N: 10, K: 3, Seed: 2, Alpha: 4,
			Assignment: []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 0}},
			"27132fb98db15acc1edde0ce98bc7eded838b7864ae374ac34e530601f97f212",
			"51ba38aa8f08abe39b5494e0e1fd5d9d7d7a7451292a329d604135a04e3bda2e"},
		{"crash", "leader", plurality.Spec{N: 300, K: 2, Alpha: 2, Seed: 13,
			Adversary: plurality.AdversarySpec{Kind: plurality.AdversaryCrash, Fraction: 0.2, At: 1, Seed: 17}},
			"7f1006b3372fd326362e498f455a5a3373591344ae25ccb72519779258e75b2e",
			"198dce3ab32a708bc786deda5f94260b144d04fe4c3b51e485889eaa1b78a21c"},
		{"delay", "decentralized", plurality.Spec{N: 300, K: 2, Alpha: 2, Seed: 19, MaxTime: 50,
			Latency:   plurality.LatencySpec{Kind: "erlang"},
			Adversary: plurality.AdversarySpec{Kind: plurality.AdversaryDelay}},
			"d85069ded3dc12d584f346c6dcd083c3e9a08dc285bb1ef9e400c81f04e04bf6",
			"2e50d61d3ecdec664d3d351f265a44410ec8b93d62030f8c44aa820a469ac1a2"},
	}
	for _, c := range cases {
		for _, d := range []struct{ domain, want string }{{"run", c.run}, {"cell", c.cell}} {
			got, err := jobKey(d.domain, c.protocol, c.spec)
			if err != nil {
				t.Errorf("%s/%s: %v", c.name, d.domain, err)
				continue
			}
			if got != d.want {
				t.Errorf("%s/%s: key = %s, want %s", c.name, d.domain, got, d.want)
			}
		}
	}

	// A sweep's ID hashes its jobs' cell keys; pin one over both random
	// kinds, whose replications each draw their own graph.
	plan, err := plurality.SweepConfig{
		Protocol:   "3-majority",
		Base:       plurality.Spec{N: 1000, K: 2, Alpha: 2, Seed: 1},
		Topologies: []plurality.TopologySpec{rr, er},
		Reps:       3,
	}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	st := &sweepState{plan: plan}
	keys := make([]string, plan.Jobs())
	for job := range keys {
		if keys[job], err = jobKey("cell", plan.Protocol, st.jobSpec(job)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sweepID(plan.Protocol, plan.Reps, keys), "7d03c9c1356bd0df"; got != want {
		t.Errorf("sweep ID = %s, want %s", got, want)
	}
}
