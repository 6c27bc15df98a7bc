// Filelocator: a distributed file-location service where files live on
// mobile laptops. Compares Bristle against a Type A overlay (movement =
// leave + rejoin) on the same underlay: after owners roam, Bristle still
// finds every file; Type A loses the bindings captured before the move.
//
// Run with: go run ./examples/filelocator
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bristle/internal/baseline"
	"bristle/internal/core"
	"bristle/internal/overlay"
	"bristle/internal/simnet"
	"bristle/internal/topology"
)

const (
	numStationary = 80
	numMobile     = 40
	numFiles      = 200
	moveRounds    = 3
)

func main() {
	rng := rand.New(rand.NewSource(11))
	graph, err := topology.GenerateTransitStub(topology.DefaultTransitStub(400), rng)
	if err != nil {
		log.Fatal(err)
	}

	fileNames := make([]string, numFiles)
	for i := range fileNames {
		fileNames[i] = fmt.Sprintf("dataset-%03d.tar", i)
	}

	fmt.Printf("%d files owned by %d mobile laptops, %d stationary peers, %d move rounds\n\n",
		numFiles, numMobile, numStationary, moveRounds)

	bristleFound := runBristle(graph, fileNames, rng)
	typeAFound := runTypeA(graph, fileNames, rng)

	fmt.Printf("\nresults after %d rounds of movement:\n", moveRounds)
	fmt.Printf("  Bristle:  %3d/%d files still locatable (%.1f%%)\n",
		bristleFound, numFiles, 100*float64(bristleFound)/numFiles)
	fmt.Printf("  Type A:   %3d/%d files still locatable (%.1f%%)\n",
		typeAFound, numFiles, 100*float64(typeAFound)/numFiles)
}

// runBristle registers each file with its mobile owner; lookups resolve
// the owner's key through the stationary layer after every move.
func runBristle(graph *topology.Graph, files []string, rng *rand.Rand) int {
	net := simnet.NewNetwork(graph)
	bn := core.NewNetwork(core.Config{
		Naming:             core.Clustered,
		StationaryFraction: float64(numStationary) / (numStationary + numMobile),
		Overlay:            overlay.DefaultConfig(),
		ReplicationFactor:  3,
		UnitCost:           1,
		CacheResolved:      true,
	}, net, nil, rng)

	for i := 0; i < numStationary; i++ {
		if _, err := bn.AddPeer(core.Stationary, 1+float64(rng.Intn(15))); err != nil {
			log.Fatal(err)
		}
	}
	var owners []*core.Peer
	for i := 0; i < numMobile; i++ {
		p, err := bn.AddPeer(core.Mobile, 1+float64(rng.Intn(15)))
		if err != nil {
			log.Fatal(err)
		}
		owners = append(owners, p)
	}
	bn.RefreshEntries()
	bn.BuildRegistries()

	// File index: file name → owning mobile peer (captured once, before
	// any movement — the binding a real client would hold).
	index := make(map[string]*core.Peer, len(files))
	for i, f := range files {
		index[f] = owners[i%len(owners)]
	}
	for _, p := range owners {
		if _, err := bn.PublishLocation(p); err != nil {
			log.Fatal(err)
		}
	}

	// Owners roam; each move runs the location-update protocol.
	for round := 0; round < moveRounds; round++ {
		for _, p := range owners {
			if _, err := bn.MoveAndUpdate(p); err != nil {
				log.Fatal(err)
			}
		}
	}

	// A stationary client fetches every file: resolve the owner (same key
	// as before the moves!) and deliver.
	client := bn.Peers()[0]
	found := 0
	for _, f := range files {
		owner := index[f]
		if _, err := bn.SendDirect(client, owner); err == nil {
			found++
		}
	}
	fmt.Printf("  [bristle] discoveries: %d, misses: %d, LDT messages: %d\n",
		bn.Stats.Discoveries, bn.Stats.DiscoveryMisses, bn.Stats.UpdateMessages)
	return found
}

// runTypeA captures owner identities before movement; moves re-key the
// owners, so old bindings dangle.
func runTypeA(graph *topology.Graph, files []string, rng *rand.Rand) int {
	net := simnet.NewNetwork(graph)
	a := baseline.NewTypeA(overlay.DefaultConfig(), net, rng)

	var stationary []*baseline.APeer
	for i := 0; i < numStationary; i++ {
		p, err := a.AddPeer(net.AttachHostRandom(rng), false)
		if err != nil {
			log.Fatal(err)
		}
		stationary = append(stationary, p)
	}
	var owners []*baseline.APeer
	for i := 0; i < numMobile; i++ {
		p, err := a.AddPeer(net.AttachHostRandom(rng), true)
		if err != nil {
			log.Fatal(err)
		}
		owners = append(owners, p)
	}

	type binding struct {
		owner *baseline.APeer
		epoch int
	}
	index := make(map[string]binding, len(files))
	for i, f := range files {
		o := owners[i%len(owners)]
		index[f] = binding{owner: o, epoch: o.Epoch}
	}

	for round := 0; round < moveRounds; round++ {
		for _, p := range owners {
			if err := a.Move(p); err != nil {
				log.Fatal(err)
			}
		}
	}

	client := stationary[0]
	found := 0
	for _, f := range files {
		b := index[f]
		_, _, ok, err := a.SendToIdentity(client, b.owner.Index, b.epoch)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			found++
		}
	}
	fmt.Printf("  [type A]  maintenance messages spent on moves: %d\n",
		a.Stats.MaintenanceMessages)
	return found
}
