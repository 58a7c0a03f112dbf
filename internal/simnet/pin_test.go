package simnet

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"distclk/internal/core"
	"distclk/internal/dist"
	"distclk/internal/topology"
	"distclk/internal/tsp"
)

// TestPinnedRuns pins seeded runs to the sha256 of their JSON event log,
// of their FaultStats and of their per-node counters; any change to the
// rng draw order, the event order or the wire ledger shows up here as a
// different digest, not only as a replay that disagrees with itself.
// Every run must decode each delivered tour to exactly the tour sent.
func TestPinnedRuns(t *testing.T) {
	crash := []Crash{{Node: 5, At: 300 * time.Millisecond, Restart: 700 * time.Millisecond, Fresh: true}}
	cases := []struct {
		name                    string
		cfg                     Config
		events, faults, counter string
	}{
		{
			// Delta with a short keyframe, coalescing, every link fault,
			// one fresh restart, and an inbox of two so overflow drops
			// happen next to coalescing.
			name: "delta-coalesce",
			cfg: Config{
				Nodes:         8,
				Topo:          topology.Hypercube,
				Budget:        core.Budget{MaxIterations: 30},
				Seed:          5,
				Link:          chaosLink(),
				Exchange:      dist.ExchangeConfig{Delta: true, KeyframeEvery: 16, Coalesce: true},
				InboxCapacity: 2,
				Crashes:       crash,
			},
			events:  "3c0fbaf018e41b53a65f337566a7484475c038ea91654a06d3687b83437be4b4",
			faults:  "8a527d8df684520edbdab38977e98c99d64600a2adfda99c969402711a61520a",
			counter: "b87ea9eed7160f005b93b3c4ca2016f895287b9b3f30766ebd2c6d25dafbf4c3",
		},
		{
			// After node 5's fresh restart a keyframe to node 2 is lost;
			// node 2 still holds the old incarnation's stream, and the
			// next delta gaps there because generations never repeat
			// across a restart.
			name: "gossip",
			cfg: Config{
				Nodes:    8,
				Topo:     topology.Ring,
				Budget:   core.Budget{MaxIterations: 30},
				Seed:     6,
				Link:     chaosLink(),
				Exchange: dist.ExchangeConfig{Delta: true, KeyframeEvery: 16, Gossip: true, Fanout: 3},
				Crashes:  crash,
			},
			events:  "675b2eae2c561d268386e700309dc880333cc8b84ccd6f540918a44356483136",
			faults:  "7628346867eeb81b58f7ac11a8b2922a6de11887be7f101f04afb8a8c97dbaa2",
			counter: "26649b0d6e0214bbd85cdd58ea697cbe406768c1f6bc42b491228b5cb37576b9",
		},
		{
			// The full-tour protocol with coalescing: the bandwidth model
			// charges the full-tour size and no codec runs.
			name: "full-coalesce",
			cfg: Config{
				Nodes:    8,
				Topo:     topology.Hypercube,
				Budget:   core.Budget{MaxIterations: 30},
				Seed:     7,
				Link:     chaosLink(),
				Exchange: dist.ExchangeConfig{Coalesce: true},
				Crashes:  crash,
			},
			events:  "ef6b8a730b3551ca43529d3aa5c83f941d32c4453a46683ee4bf3f97f1de3fcd",
			faults:  "ec15db65de344df5fae2aa31976d8cd0223d93e23a519ec90632b65e959948b8",
			counter: "9fd90ad9ecd092db03e0636a303f487a0b783eb59916b88da47edae103416d9d",
		},
	}
	in := tsp.Generate(tsp.FamilyUniform, 120, 61)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.EA = core.DefaultConfig()
			c.cfg.EA.KicksPerCall = 2
			res := Run(context.Background(), in, c.cfg)
			events := digest(marshalLog(t, res.Events))
			faults := digest(mustJSON(t, res.Faults))
			counters := digest(mustJSON(t, res.Counters))
			if res.Faults.DeltaMismatches != 0 {
				t.Errorf("%d decoded tours differ from the tour sent", res.Faults.DeltaMismatches)
			}
			if events != c.events || faults != c.faults || counters != c.counter {
				t.Errorf("digests moved (faults %+v):\n events   %s\n faults   %s\n counters %s", res.Faults, events, faults, counters)
			}
		})
	}
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
