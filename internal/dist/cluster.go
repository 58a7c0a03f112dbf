package dist

import (
	"context"
	"sync"
	"time"

	"distclk/internal/clk"
	"distclk/internal/core"
	"distclk/internal/neighbor"
	"distclk/internal/obs"
	"distclk/internal/topology"
	"distclk/internal/tsp"
)

// ClusterConfig describes an in-process distributed run.
type ClusterConfig struct {
	// Nodes is the network size (the paper uses 8).
	Nodes int
	// Topo is the overlay topology (the paper uses Hypercube).
	Topo topology.Kind
	// EA configures each node's evolutionary loop.
	EA core.Config
	// Budget bounds each node's run (the same budget is applied per node,
	// matching the paper's per-node CPU-time limit). Wall-clock limits come
	// from the RunCluster context.
	Budget core.Budget
	// Seed derives per-node seeds (see NewNode).
	Seed int64
	// Exchange selects the wire protocol (tour-diff broadcast, queued
	// message coalescing, gossip peer sampling). The zero value is the
	// full-tour protocol.
	Exchange ExchangeConfig
	// Obs, when set, supplies the run's observer (it must have at least
	// Nodes recorders). When nil, RunCluster creates one internally so
	// events and counters are always available on the result.
	Obs *obs.Observer
}

// ClusterResult aggregates a distributed run: the best tour collected
// from the nodes' local outputs, and each node's counters.
type ClusterResult struct {
	BestTour   tsp.Tour
	BestLength int64
	// Stats is each node's counter snapshot at run end, read from its
	// recorder (the one place a node keeps its counts).
	Stats []obs.CounterSnapshot
	// Events is the merged EA-level event stream of all nodes, ordered by
	// run-clock offset. The paper's §4 message analysis and §4.2.1 variator
	// timeline are computed from it.
	Events []obs.Event
	// Elapsed is the run's wall time (unset for simnet replays, which run
	// on a virtual clock).
	Elapsed time.Duration
	// Nodes echoes the configured node count.
	Nodes int
}

// Broadcasts sums node broadcast counts.
func (r ClusterResult) Broadcasts() int64 {
	var total int64
	for _, s := range r.Stats {
		total += s.Broadcasts
	}
	return total
}

// Iterations sums EA iterations across nodes.
func (r ClusterResult) Iterations() int64 {
	var total int64
	for _, s := range r.Stats {
		total += s.Iterations
	}
	return total
}

// Collect fills in the run's outcome once every node has stopped: the
// observer's events, the counters of its first len(nodes) recorders (an
// observer may hold more), and the best tour of the nodes' local outputs
// (paper §2.3), ties to the lowest node index.
func Collect(observer *obs.Observer, nodes []*core.Node) ClusterResult {
	res := ClusterResult{
		Stats:  observer.Counters()[:len(nodes)],
		Events: observer.Events(),
		Nodes:  len(nodes),
	}
	for _, n := range nodes {
		tour, l := n.Best()
		if res.BestTour == nil || l < res.BestLength {
			res.BestTour, res.BestLength = tour, l
		}
	}
	return res
}

// NewNode builds node id of a cluster run seeded with seed, with rec
// attached. Its search seed is seed + id·1,000,000,007 on every
// transport, so node i of a simnet run, an in-process cluster and a TCP
// deployment search from the same seed.
func NewNode(id int, inst *tsp.Instance, ea core.Config, comm core.Comm, seed int64, rec *obs.Recorder) *core.Node {
	node := core.NewNode(id, inst, ea, comm, seed+int64(id)*1_000_000_007)
	node.SetRecorder(rec)
	return node
}

// ShareCandidates returns ea with candidate lists built, if it has none.
// The lists are identical across nodes (a deterministic build on a shared
// instance), so a cluster builds them once. The paper's machines each
// computed their own, but each had a dedicated CPU; in a time-shared
// simulation the duplicated set-up would unfairly tax the cluster.
func ShareCandidates(inst *tsp.Instance, ea core.Config) core.Config {
	if ea.CLK.Neighbors == nil {
		k := ea.CLK.NeighborK
		if k == 0 {
			k = clk.DefaultParams().NeighborK
		}
		ea.CLK.Neighbors = neighbor.Build(inst, k)
	}
	return ea
}

// RunCluster executes the distributed algorithm with one goroutine per node
// over an in-process channel network and returns the aggregated result.
// The best result "has to be collected from the local output of each node"
// (paper §2.3) — RunCluster does exactly that after all nodes stop. The
// run ends when every node's budget expires or ctx is cancelled/expired;
// cancellation still returns the best-so-far tour.
func RunCluster(ctx context.Context, inst *tsp.Instance, cfg ClusterConfig) ClusterResult {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 8
	}
	start := time.Now()
	cfg.EA = ShareCandidates(inst, cfg.EA)
	observer := cfg.Obs
	if observer == nil {
		observer = obs.NewObserver(cfg.Nodes, nil)
	}
	nw := NewChanNetwork(cfg.Nodes, cfg.Topo, cfg.Exchange, cfg.Seed, observer)

	nodes := make([]*core.Node, cfg.Nodes)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Nodes; i++ {
		nodes[i] = NewNode(i, inst, cfg.EA, nw.Comm(i), cfg.Seed, observer.Recorder(i))
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			nodes[idx].Run(ctx, cfg.Budget)
		}(i)
	}
	wg.Wait()

	res := Collect(observer, nodes)
	res.Elapsed = time.Since(start)
	return res
}
