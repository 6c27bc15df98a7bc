// Package stretch measures resolution stretch — the underlay cost a
// client pays contacting the replica it picked, over the cost of the
// best (nearest live) replica of the same record — on generated
// transit-stub topologies with Dijkstra ground-truth distances.
//
// It is the honest evaluation for proximity-aware resolution: the
// replica placement is exactly the live node's (hashkey.RegionStriped
// keys, live.SelectReplicas region-diverse k-closest sets) and the
// contact ordering is exactly the live node's (live.OrderContacts over
// per-peer EWMA RTT estimates fed only by the client's own exchanges,
// an unmeasured peer contacted first). Toggling
// RegionPlacement and LatencyOrdering isolates each mechanism's
// contribution; the random baseline (both off) is the pre-proximity
// behavior. Runs are fully deterministic per seed.
package stretch

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/live"
	"bristle/internal/metrics"
	"bristle/internal/simnet"
	"bristle/internal/topology"
	"bristle/internal/wire"
)

// rttAlpha mirrors the live node's EWMA smoothing factor.
const rttAlpha = 0.25

// costToRTT converts an underlay one-way path cost to the round-trip
// duration a client would measure, reading a unit of cost as a millisecond
// (cost 10 → 20ms).
func costToRTT(cost float64) time.Duration {
	return time.Duration(2 * cost * float64(time.Millisecond))
}

// Config parameterizes one stretch run.
type Config struct {
	Seed    int64
	Routers int // target router count for the transit-stub generator

	Stationary  int // stationary overlay nodes (replica hosts)
	Records     int // published records (global pool)
	Clients     int // resolving clients
	Replication int // replicas per record

	// Correspondents is each client's working-set size: the records it
	// repeatedly resolves (per-peer RTT estimation only helps traffic a
	// client actually repeats, so the workload models the paper's
	// correspondent-host pattern rather than uniform one-shot lookups).
	Correspondents int
	// Warmup is how many rounds over its correspondent set each client
	// runs before measurement — the exchanges that feed its estimators.
	Warmup int
	// Queries is the number of measured resolutions across all clients.
	Queries int

	// RegionPlacement keys stationary nodes with hashkey.RegionStriped
	// (region = serving transit domain) and selects replica sets with
	// region diversity, as a live deployment configured WithRegion does.
	RegionPlacement bool
	// LatencyOrdering contacts replicas in live.OrderContacts order
	// (measured EWMA RTT, unmeasured replicas first). Off, clients
	// contact replicas in placement (key-distance) order.
	LatencyOrdering bool
	// RTTNoise perturbs each RTT observation by a uniform multiplicative
	// factor in [1-RTTNoise, 1+RTTNoise] — measurement jitter.
	RTTNoise float64
}

// Result is the outcome of one run.
type Result struct {
	MedianStretch float64
	P90Stretch    float64
	MeanStretch   float64

	MeanChosenCost float64 // mean underlay cost to the contacted replica
	MeanBestCost   float64 // mean cost to the nearest replica (lower bound)

	Queries          int // measured resolutions contributing a stretch sample
	SkippedColocated int // resolutions where the best replica cost 0 (same router)

	Routers    int
	Regions    int
	Stationary int
}

type client struct {
	host           simnet.HostID
	correspondents []int                    // record indices
	est            map[string]*metrics.EWMA // addr → RTT estimator
}

// Run executes one deterministic stretch experiment.
func Run(cfg Config) (Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStub(cfg.Routers), rng)
	if err != nil {
		return Result{}, err
	}
	net := simnet.NewNetwork(g)

	// Region labels come from the underlay itself: every host behind the
	// same transit domain shares a geography.
	domains := map[int32]bool{}
	for _, r := range g.StubRouters() {
		domains[g.TransitDomainOf(r)] = true
	}
	regions := make([]string, 0, len(domains))
	for d := range domains {
		regions = append(regions, fmt.Sprintf("region-%02d", d))
	}
	sort.Strings(regions)
	regionOfDomain := func(d int32) string { return fmt.Sprintf("region-%02d", d) }

	// Stationary nodes: attached to random stub routers, keyed either by
	// plain hashing or region-striped by their transit domain.
	arc := hashkey.FullRing()
	cands := make([]wire.Entry, cfg.Stationary)
	hostOf := make(map[string]simnet.HostID, cfg.Stationary)
	for i := 0; i < cfg.Stationary; i++ {
		h := net.AttachHostRandom(rng)
		name := fmt.Sprintf("s%d", i)
		key := hashkey.FromName(name)
		if cfg.RegionPlacement {
			region := regionOfDomain(g.TransitDomainOf(net.RouterOf(h)))
			key = hashkey.RegionStriped(arc, name, region, regions)
		}
		cands[i] = wire.Entry{Key: key, Addr: name}
		hostOf[name] = h
	}

	// Replica sets, exactly as every live node computes them from the
	// same membership snapshot.
	selectionRegions := 0
	if cfg.RegionPlacement {
		selectionRegions = len(regions)
	}
	replicaSets := make([][]wire.Entry, cfg.Records)
	scratch := make([]wire.Entry, len(cands))
	for r := 0; r < cfg.Records; r++ {
		key := hashkey.FromName(fmt.Sprintf("record-%d", r))
		copy(scratch, cands)
		set := live.SelectReplicas(scratch, key, cfg.Replication, selectionRegions)
		replicaSets[r] = append([]wire.Entry(nil), set...)
	}

	clients := make([]client, cfg.Clients)
	for c := range clients {
		clients[c] = client{
			host: net.AttachHostRandom(rng),
			est:  make(map[string]*metrics.EWMA),
		}
		for i := 0; i < cfg.Correspondents; i++ {
			clients[c].correspondents = append(clients[c].correspondents, rng.Intn(cfg.Records))
		}
	}

	observe := func(cl *client, addr string, cost float64) {
		rtt := costToRTT(cost)
		if cfg.RTTNoise > 0 {
			rtt = time.Duration(float64(rtt) * (1 + cfg.RTTNoise*(2*rng.Float64()-1)))
		}
		e, ok := cl.est[addr]
		if !ok {
			e = &metrics.EWMA{}
			cl.est[addr] = e
		}
		e.Observe(float64(rtt), rttAlpha)
	}

	// contact resolves one record for one client: it picks the contact
	// order (live.OrderContacts over the client's estimates when ordering
	// is on; placement order otherwise), "sends" to the first replica —
	// every replica is alive here, so discovery succeeds on the first
	// contact — and feeds the client's estimator exactly as the live RPC
	// layer does from a successful exchange.
	ordered := make([]wire.Entry, cfg.Replication)
	contact := func(cl *client, record int) (chosenCost float64) {
		set := replicaSets[record]
		replicas := ordered[:len(set)]
		copy(replicas, set)
		if cfg.LatencyOrdering {
			// As the live node ranks: an unmeasured replica compares at
			// zero, ahead of every measured one.
			live.OrderContacts(replicas, func(e wire.Entry) live.Contact {
				var c live.Contact
				if est, ok := cl.est[e.Addr]; ok {
					if v, n := est.Load(); n > 0 {
						c.RTT = time.Duration(v)
					}
				}
				return c
			})
		}
		chosen := replicas[0]
		_, cost := net.SendSync(cl.host, net.AddrOf(hostOf[chosen.Addr]))
		observe(cl, chosen.Addr, cost)
		return cost
	}

	for round := 0; round < cfg.Warmup; round++ {
		for c := range clients {
			cl := &clients[c]
			for _, record := range cl.correspondents {
				contact(cl, record)
			}
		}
	}

	res := Result{Routers: g.NumRouters(), Regions: len(regions), Stationary: cfg.Stationary}
	stretches := make([]float64, 0, cfg.Queries)
	var sumChosen, sumBest float64
	for q := 0; q < cfg.Queries; q++ {
		cl := &clients[q%len(clients)]
		record := cl.correspondents[rng.Intn(len(cl.correspondents))]
		chosenCost := contact(cl, record)
		best := chosenCost
		for _, e := range replicaSets[record] {
			if c := net.Cost(cl.host, hostOf[e.Addr]); c < best {
				best = c
			}
		}
		sumChosen += chosenCost
		sumBest += best
		if best == 0 {
			// The client shares a router with the nearest replica; the
			// ratio is undefined, the absolute costs still accumulate.
			res.SkippedColocated++
			continue
		}
		stretches = append(stretches, chosenCost/best)
	}
	res.Queries = len(stretches)
	if total := res.Queries + res.SkippedColocated; total > 0 {
		res.MeanChosenCost = sumChosen / float64(total)
		res.MeanBestCost = sumBest / float64(total)
	}
	if len(stretches) > 0 {
		sort.Float64s(stretches)
		res.MedianStretch = quantile(stretches, 0.5)
		res.P90Stretch = quantile(stretches, 0.9)
		var sum float64
		for _, s := range stretches {
			sum += s
		}
		res.MeanStretch = sum / float64(len(stretches))
	}
	return res, nil
}

// quantile reads the q-quantile from an ascending-sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
