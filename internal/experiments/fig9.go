package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"bristle/internal/ldt"
	"bristle/internal/metrics"
	"bristle/internal/simnet"
	"bristle/internal/topology"
)

// Fig9Config parameterizes the advertisement/network-proximity experiment
// of Section 4.3: the average per-tree per-edge cost of all LDTs, with and
// without network locality, as the mobile population grows.
//
// Paper parameters: a 10,000-node underlay; nodes dynamically increased
// and randomly attached; capacities uniform in [1, 15]; every LDT's edge
// costs measured via shortest-path weights; M/N swept 0..100%.
type Fig9Config struct {
	Routers      int       // underlay router count (paper: 10000)
	Fracs        []float64 // node density sweep: nodes = frac × Routers
	RegistrySize int       // interested nodes per mobile node (≈ log₂ N)
	// CandidateFrac is the fraction of the population a locality-aware
	// joiner may consider when picking the nodes it registers to. As the
	// population grows the candidate pool grows with it — the paper's
	// §4.3 observation (3) that density gives joiners "greater
	// alternative" in picking nearby interested nodes.
	CandidateFrac float64
	MaxCapacity   int
	Seed          int64
}

// DefaultFig9 returns the laptop-scale configuration.
func DefaultFig9() Fig9Config {
	return Fig9Config{
		Routers:       2000,
		Fracs:         []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		RegistrySize:  15,
		CandidateFrac: 0.15,
		MaxCapacity:   15,
		Seed:          9,
	}
}

// PaperFig9 uses the paper's 10,000-router underlay.
func PaperFig9() Fig9Config {
	cfg := DefaultFig9()
	cfg.Routers = 10000
	return cfg
}

// Fig9Row is one density point.
type Fig9Row struct {
	Frac                float64 // nodes as a fraction of the router count
	Nodes               int
	WithLocality        float64 // avg per-tree per-edge cost
	WithoutLocality     float64
	LocalityImprovement float64 // without/with ratio
}

// RunFig9 sweeps node density and measures all LDT edge costs.
//
// "With locality" applies the paper's two locality levers: a joining node
// registers to the underlay-nearest candidates among those it could be
// interested in (§4.3 observation 3), and the Figure 4 partitioning
// assigns members to the nearest head (package ldt). "Without locality"
// picks registry members uniformly and partitions by pure round-robin.
func RunFig9(cfg Fig9Config) ([]Fig9Row, error) {
	if cfg.RegistrySize < 1 || cfg.CandidateFrac <= 0 || cfg.CandidateFrac > 1 {
		return nil, fmt.Errorf("experiments: invalid Fig9 config %+v", cfg)
	}
	base := rand.New(rand.NewSource(cfg.Seed))
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStub(cfg.Routers), base)
	if err != nil {
		return nil, err
	}
	net := simnet.NewNetwork(g)

	rows := make([]Fig9Row, 0, len(cfg.Fracs))
	for i, frac := range cfg.Fracs {
		if frac <= 0 || frac > 1 {
			return nil, fmt.Errorf("experiments: density %v out of (0,1]", frac)
		}
		nodes := int(frac * float64(cfg.Routers))
		if nodes <= cfg.RegistrySize {
			nodes = cfg.RegistrySize + 1
		}
		seed := cfg.Seed + int64(i)*131
		with, err := fig9Point(cfg, net, nodes, true, seed)
		if err != nil {
			return nil, err
		}
		without, err := fig9Point(cfg, net, nodes, false, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{
			Frac:                frac,
			Nodes:               nodes,
			WithLocality:        with,
			WithoutLocality:     without,
			LocalityImprovement: metrics.RDP(without, with),
		})
	}
	return rows, nil
}

// fig9Point attaches the node population, builds one LDT per node, and
// returns the average per-tree per-edge cost.
func fig9Point(cfg Fig9Config, net *simnet.Network, nodes int, locality bool, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	stubs := net.StubRouters()
	routers := make([]topology.RouterID, nodes)
	caps := make([]float64, nodes)
	for i := range routers {
		routers[i] = stubs[rng.Intn(len(stubs))]
		caps[i] = drawCapacity(rng, cfg.MaxCapacity)
	}

	params := ldt.Params{UnitCost: 1, Locality: locality}
	if locality {
		params.Dist = net.RouterDistance
	}

	perTree := &metrics.Sample{}
	for root := 0; root < nodes; root++ {
		members := pickRegistry(cfg, net, routers, caps, root, locality, rng)
		tree, err := ldt.Build(ldt.Member{
			ID:       int32(root),
			Capacity: caps[root],
			Router:   routers[root],
		}, members, params)
		if err != nil {
			return 0, err
		}
		if tree.Edges() == 0 {
			continue
		}
		perTree.Add(tree.EdgeCost(net.RouterDistance) / float64(tree.Edges()))
	}
	return perTree.Mean(), nil
}

// pickRegistry selects RegistrySize interested nodes for root. With
// locality the root examines Candidates random nodes and registers the
// nearest; without, it takes the first RegistrySize random nodes.
func pickRegistry(cfg Fig9Config, net *simnet.Network, routers []topology.RouterID,
	caps []float64, root int, locality bool, rng *rand.Rand) []ldt.Member {

	candCount := cfg.RegistrySize
	if locality {
		candCount = int(cfg.CandidateFrac * float64(len(routers)))
		if candCount < cfg.RegistrySize {
			candCount = cfg.RegistrySize
		}
	}
	seen := map[int]bool{root: true}
	type cand struct {
		idx  int
		dist float64
	}
	var cands []cand
	for len(cands) < candCount && len(seen) < len(routers) {
		j := rng.Intn(len(routers))
		if seen[j] {
			continue
		}
		seen[j] = true
		d := 0.0
		if locality {
			d = net.RouterDistance(routers[root], routers[j])
		}
		cands = append(cands, cand{idx: j, dist: d})
	}
	if locality {
		sort.Slice(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
	}
	n := cfg.RegistrySize
	if n > len(cands) {
		n = len(cands)
	}
	members := make([]ldt.Member, n)
	for i := 0; i < n; i++ {
		j := cands[i].idx
		members[i] = ldt.Member{ID: int32(j), Capacity: caps[j], Router: routers[j]}
	}
	return members
}

// RenderFig9 produces the paper-style table.
func RenderFig9(rows []Fig9Row) string {
	t := metrics.NewTable("M/N (%)", "nodes", "with locality", "without locality", "improvement (×)")
	for _, r := range rows {
		t.AddRow(r.Frac*100, r.Nodes, r.WithLocality, r.WithoutLocality, r.LocalityImprovement)
	}
	return "Figure 9: average per-tree per-edge LDT cost, with vs without network locality\n" + t.String()
}
