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
			"03489463715067c532a64d53e03ef313685b443de871b52e1fa1fe75fb4faee2",
			"402a224547bce055e6ffd68ccf933fa64d7c389c2cac974ff91936bac8b51780"},
		{"complete/explicit-defaults", "sync", plurality.Spec{N: 100, K: 2, Seed: 1, Alpha: 1,
			Latency:  plurality.LatencySpec{Kind: "exp", Mean: 1},
			Topology: plurality.TopologySpec{Kind: plurality.TopologyComplete},
			Sync:     plurality.SyncOptions{Gamma: 0.5}},
			"03489463715067c532a64d53e03ef313685b443de871b52e1fa1fe75fb4faee2",
			"402a224547bce055e6ffd68ccf933fa64d7c389c2cac974ff91936bac8b51780"},
		{"ring", "leader", plurality.Spec{N: 200, K: 3, Alpha: 2, Seed: 7,
			Topology: plurality.TopologySpec{Kind: plurality.TopologyRing, Width: 2}},
			"bd5f91ddd2a043c6720037a63f09ebede962df17d82610db014b98911c7a4d1b",
			"1934a16fc9e0a7d8971ae409fd45fbdc6efb23a756b19176605af9ff81ab1059"},
		{"torus", "3-majority", plurality.Spec{N: 900, K: 3, Alpha: 1.5, Seed: 11,
			Topology: plurality.TopologySpec{Kind: plurality.TopologyTorus}},
			"790bdba45e9a0a01a83fd8e7a73e7a7e6da9e20bc229ec2e84c5b59b41b12ef8",
			"38f4c0c07fbc8537f5e5374963ec696dfa300f2136d97e8099bb72dec3430c5e"},
		{"random-regular", "3-majority", plurality.Spec{N: 1000, K: 2, Alpha: 2, Seed: 3,
			Topology: rr},
			"ec400470cf5de3a4ca0f080e86f83a5855ec64f2860ea89a767a3c532f7bfc26",
			"6469f4974731c10398b767dbcdf23583661fd6a6e892ba99d62e2c92fd8a07c9"},
		{"random-regular/graph-seed", "3-majority", plurality.Spec{N: 1000, K: 2, Alpha: 2, Seed: 3,
			Topology: plurality.TopologySpec{Kind: plurality.TopologyRandomRegular, Degree: 8, GraphSeed: 42}},
			"3cffaa1bd2402f0ec9a98b54ab7c4dca8f19f0665eb84aa17fec5a19ab91b242",
			"5916c96f6f21f59349fda5d0e4fa442025e0b3c068093d700d1fa6e072ba6428"},
		{"erdos-renyi", "sync", plurality.Spec{N: 500, K: 3, Alpha: 2, Seed: 5,
			Topology: er},
			"18870b27bacd92dfef3fa1414ae7c30b88aa28e4c7c9f522af1f6eb0b2e49e26",
			"aaf1787b2acddbfa4c6c47234f27f5cc16660431ccc47fe5b646c8b8627598d9"},
		{"erdos-renyi/graph-seed/default-p", "leader", plurality.Spec{N: 500, K: 3, Alpha: 2, Seed: 5,
			Topology: plurality.TopologySpec{Kind: plurality.TopologyErdosRenyi, GraphSeed: 9}},
			"8ed0cf2d31b62fde318bd9bec68bc0fc05b5a0c813653b3e000de1ee972eaa5c",
			"6eb631ab5a73e48a01565518db8d2be229e7362139ae1ad425291abfc42dee76"},
		{"assignment", "sync", plurality.Spec{N: 10, K: 3, Seed: 2, Alpha: 4,
			Assignment: []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 0}},
			"169a030c9f0728595eb2ecf0435eaaac263164352819abb7b7fb22e58bc6cb4c",
			"c140ea5eebda1c85f7a4dce2326614d7818b4cbfee5208a53fb931790473f364"},
		{"crash", "leader", plurality.Spec{N: 300, K: 2, Alpha: 2, Seed: 13,
			Adversary: plurality.AdversarySpec{Kind: plurality.AdversaryCrash, Fraction: 0.2, At: 1, Seed: 17}},
			"d53a85ba1ddbd474e3a2dad22bef94bc45d2200752d3779811251a3a04d72161",
			"d465423321b1a3f12f1757981fb3736655eda656643212baea76f48d4d5a28bd"},
		{"delay", "decentralized", plurality.Spec{N: 300, K: 2, Alpha: 2, Seed: 19, MaxTime: 50,
			Latency:   plurality.LatencySpec{Kind: "erlang"},
			Adversary: plurality.AdversarySpec{Kind: plurality.AdversaryDelay}},
			"455fa9e5723de48b87f4644f096397531011812b26d200a1b0bc23d371df8883",
			"46c4fad6200f25f09530ed4124c499153c835a6dc1c5becd7b395e32338513ee"},
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
	if got, want := sweepID(plan.Protocol, plan.Reps, keys), "c30bad7d70a1747f"; got != want {
		t.Errorf("sweep ID = %s, want %s", got, want)
	}
}
