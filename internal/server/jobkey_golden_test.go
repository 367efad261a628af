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
			"846d22b0f9a77e19f542179e6f36609836de96979d2e48d5cf708a1ebd23b2f9",
			"68bdc94a9ca4106a13d2d7e1ab9d1b892f0abef6d888fdb6207889958404984b"},
		{"complete/explicit-defaults", "sync", plurality.Spec{N: 100, K: 2, Seed: 1, Alpha: 1,
			Latency:  plurality.LatencySpec{Kind: "exp", Mean: 1},
			Topology: plurality.TopologySpec{Kind: plurality.TopologyComplete},
			Sync:     plurality.SyncOptions{Gamma: 0.5}},
			"846d22b0f9a77e19f542179e6f36609836de96979d2e48d5cf708a1ebd23b2f9",
			"68bdc94a9ca4106a13d2d7e1ab9d1b892f0abef6d888fdb6207889958404984b"},
		{"ring", "leader", plurality.Spec{N: 200, K: 3, Alpha: 2, Seed: 7,
			Topology: plurality.TopologySpec{Kind: plurality.TopologyRing, Width: 2}},
			"bed4e3b3530946e3d3e8697f1b2b44e27d88215a49e71fc99f6099791e935cfe",
			"d6433da689715a71b588eaec70c522d2e5b0227d5e88e71227dc404c3cb9c447"},
		{"torus", "3-majority", plurality.Spec{N: 900, K: 3, Alpha: 1.5, Seed: 11,
			Topology: plurality.TopologySpec{Kind: plurality.TopologyTorus}},
			"9401de7f8bb2c026b9832684fe73d348ec36262676669bcd57d71da26f990656",
			"0d9d683f7f6b87d1ad65584af0c867a3bcab0cb262e30d44aa116676058e66fd"},
		{"random-regular", "3-majority", plurality.Spec{N: 1000, K: 2, Alpha: 2, Seed: 3,
			Topology: rr},
			"88ec3394ed6fa2c273f0680e521566900fcc307be7f09d7eccfb8933369f4b40",
			"a30fdac92c93a5d85fc90d23649588c11e80cfa3b4cf37702e6c2d1676c712df"},
		{"random-regular/graph-seed", "3-majority", plurality.Spec{N: 1000, K: 2, Alpha: 2, Seed: 3,
			Topology: plurality.TopologySpec{Kind: plurality.TopologyRandomRegular, Degree: 8, GraphSeed: 42}},
			"46152fdc1b5e623cc0d3a85e3add9a6f89d650dd80fef654254fa4c92b04a7d3",
			"763dd093857605950ca19f7da8f4b8613e3f7645a11fe5b927cc1d6fcc19a6e6"},
		{"erdos-renyi", "sync", plurality.Spec{N: 500, K: 3, Alpha: 2, Seed: 5,
			Topology: er},
			"48400743e2c2c25fc0a7c22bff25ba734f5de9237ef1a1af8ea236e5a5c2ab14",
			"186708225f804a33e4687ca7032eda9ee60c42ff83552182f95a172096808fd2"},
		{"erdos-renyi/graph-seed/default-p", "leader", plurality.Spec{N: 500, K: 3, Alpha: 2, Seed: 5,
			Topology: plurality.TopologySpec{Kind: plurality.TopologyErdosRenyi, GraphSeed: 9}},
			"ff6659d5dd40547f99e0ba34be5f0f19f21a8930fe2d71a78444e595886d3c0f",
			"479cba27215fdd8c534e99379296628b9edd3933662ae2129fbff55f778408f8"},
		{"assignment", "sync", plurality.Spec{N: 10, K: 3, Seed: 2, Alpha: 4,
			Assignment: []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 0}},
			"cace2fe9e768d905ccee3768e9a0cde42c82bfe9d8658edce76f0d9c70fc8b0c",
			"35b89c7fd36a999b303649578b986308fc073de2f583a9592489000fd0690ac2"},
		{"crash", "leader", plurality.Spec{N: 300, K: 2, Alpha: 2, Seed: 13,
			Adversary: plurality.AdversarySpec{Kind: plurality.AdversaryCrash, Fraction: 0.2, At: 1, Seed: 17}},
			"6badffe750ec790d76827fd1e47c9fd0d85ba7a5f8e0b0bc4daedec8899a52ad",
			"4c8e19d149eb910fe8b2b62d811a99578a23c05a2ea1f199dddf7ca0c8d995d2"},
		{"delay", "decentralized", plurality.Spec{N: 300, K: 2, Alpha: 2, Seed: 19, MaxTime: 50,
			Latency:   plurality.LatencySpec{Kind: "erlang"},
			Adversary: plurality.AdversarySpec{Kind: plurality.AdversaryDelay}},
			"dead62d9903a52d3cfb36b08c6b05ae07dccad86ab6f8f300788713d1ad4e8ed",
			"cb2d8ac2bba5993a75f7e16e62659bbb2457ee8a177e02bff7fc6385903df3fc"},
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
	if got, want := sweepID(plan.Protocol, plan.Reps, keys), "36c8e7a7dec026e5"; got != want {
		t.Errorf("sweep ID = %s, want %s", got, want)
	}
}
