// Quickstart: build a small Bristle network, move a mobile peer around,
// and watch the system keep resolving it — the paper's core promise that
// a node's state survives movement (Section 1).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bristle/internal/core"
	"bristle/internal/overlay"
	"bristle/internal/simnet"
	"bristle/internal/topology"
)

func main() {
	// 1. An underlay: a transit-stub network of ~300 routers.
	rng := rand.New(rand.NewSource(7))
	graph, err := topology.GenerateTransitStub(topology.DefaultTransitStub(300), rng)
	if err != nil {
		log.Fatal(err)
	}
	net := simnet.NewNetwork(graph)

	// 2. A Bristle deployment: 60 stationary peers form the location
	// layer; 40 mobile peers roam. Clustered naming keeps stationary
	// routes free of mobile forwarders.
	bn := core.NewNetwork(core.Config{
		Naming:             core.Clustered,
		StationaryFraction: 0.6,
		Overlay:            overlay.DefaultConfig(),
		ReplicationFactor:  3,
		UnitCost:           1,
		LDTLocality:        true,
		CacheResolved:      true,
	}, net, nil, rng)

	for i := 0; i < 60; i++ {
		if _, err := bn.AddPeer(core.Stationary, 1+float64(rng.Intn(15))); err != nil {
			log.Fatal(err)
		}
	}
	var mobiles []*core.Peer
	for i := 0; i < 40; i++ {
		p, err := bn.AddPeer(core.Mobile, 1+float64(rng.Intn(15)))
		if err != nil {
			log.Fatal(err)
		}
		mobiles = append(mobiles, p)
	}
	bn.RefreshEntries()
	bn.BuildRegistries() // overlay neighbors register interest (Figure 5)

	roamer := mobiles[0]
	fmt.Printf("roamer: peer %d, key %v, %d registered watchers\n",
		roamer.ID, roamer.Key, len(roamer.Registry()))

	// 3. Publish the roamer's location and resolve it from a stationary
	// correspondent.
	if _, err := bn.PublishLocation(roamer); err != nil {
		log.Fatal(err)
	}
	correspondent := bn.Peers()[0]
	rec, op, err := bn.Discover(correspondent, roamer.Key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered roamer at %v in %d hops (cost %.1f)\n", rec.Addr, op.Hops, op.Cost)

	// 4. The roamer moves three times. Each move triggers the full
	// location-update protocol: publish to the stationary layer + push
	// through the capacity-aware LDT to every watcher.
	for i := 0; i < 3; i++ {
		us, err := bn.MoveAndUpdate(roamer)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("move %d: LDT depth %d delivered %d updates (cost %.1f); publish took %d hops\n",
			i+1, us.Depth, us.Messages, us.Cost, us.Publish.Hops)

		// The correspondent still reaches the roamer directly — end-to-end
		// semantics survive movement.
		ss, err := bn.SendDirect(correspondent, roamer)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("        correspondent → roamer delivered (cost %.1f, discovery needed: %v)\n",
			ss.Cost, ss.Discovered)
	}

	// 5. Data routing across the mobile layer (Figure 2): route a request
	// from a stationary peer to the peer owning the roamer's key.
	rs, err := bn.RouteData(correspondent, roamer.Key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("data route reached peer %d in %d hops (%d discoveries, cost %.1f)\n",
		rs.Dest.ID, rs.TotalHops, rs.Discoveries, rs.Cost)

	fmt.Printf("\ntotals: %d publishes, %d discoveries (%d misses), %d LDT messages\n",
		bn.Stats.Publishes, bn.Stats.Discoveries, bn.Stats.DiscoveryMisses, bn.Stats.UpdateMessages)
}
