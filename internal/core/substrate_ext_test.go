package core_test

// External tests proving the paper's closing claim: the same Bristle core
// (location management, clustered naming, LDT updates, discovery) runs
// unchanged on a different HS-P2P substrate — here the Chord overlay of
// internal/chord, with its successor-based closeness and unidirectional
// routing.

import (
	"math/rand"
	"testing"

	"bristle/internal/chord"
	"bristle/internal/core"
	"bristle/internal/overlay"
	"bristle/internal/simnet"
	"bristle/internal/topology"
)

func buildOnChord(t testing.TB, stationary, mobile int, seed int64) (*core.Network, []*core.Peer, []*core.Peer) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.GenerateTransitStub(topology.TransitStubParams{
		TransitDomains:   2,
		TransitPerDomain: 3,
		StubsPerTransit:  3,
		StubPerDomain:    4,
		EdgeProb:         0.3,
		WeightJitter:     0.2,
	}, rng)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	net := simnet.NewNetwork(g)
	bn := core.NewNetwork(core.Config{
		Naming:             core.Clustered,
		StationaryFraction: float64(stationary) / float64(stationary+mobile),
		Overlay:            overlay.DefaultConfig(),
		ReplicationFactor:  3,
		UnitCost:           1,
		LDTLocality:        true,
		CacheResolved:      true,
		NewSubstrate: func(oc overlay.Config, sn *simnet.Network) core.Substrate {
			return chord.New(chord.FromOverlayConfig(oc), sn)
		},
	}, net, nil, rng)

	var stats, mobs []*core.Peer
	for i := 0; i < stationary; i++ {
		p, err := bn.AddPeer(core.Stationary, 1+float64(rng.Intn(15)))
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, p)
	}
	for i := 0; i < mobile; i++ {
		p, err := bn.AddPeer(core.Mobile, 1+float64(rng.Intn(15)))
		if err != nil {
			t.Fatal(err)
		}
		mobs = append(mobs, p)
	}
	bn.RefreshEntries()
	bn.BuildRegistries()
	return bn, stats, mobs
}

func TestBristleOnChordPublishDiscover(t *testing.T) {
	bn, stats, mobs := buildOnChord(t, 50, 30, 1)
	mob := mobs[0]
	if _, err := bn.PublishLocation(mob); err != nil {
		t.Fatalf("publish on chord: %v", err)
	}
	rec, op, err := bn.Discover(stats[0], mob.Key)
	if err != nil {
		t.Fatalf("discover on chord: %v", err)
	}
	if !bn.Net.Valid(rec.Addr) || rec.Addr.Host != mob.Host {
		t.Fatalf("resolved wrong address %v", rec.Addr)
	}
	if op.Hops < 1 {
		t.Fatal("no hops accounted")
	}
}

func TestBristleOnChordMovementLifecycle(t *testing.T) {
	bn, stats, mobs := buildOnChord(t, 60, 40, 2)
	rng := rand.New(rand.NewSource(3))
	for _, p := range mobs {
		if _, err := bn.PublishLocation(p); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for _, p := range mobs {
			us, err := bn.MoveAndUpdate(p)
			if err != nil {
				t.Fatalf("update on chord: %v", err)
			}
			if us.Messages != len(p.Registry()) {
				t.Fatalf("LDT delivered %d of %d", us.Messages, len(p.Registry()))
			}
		}
		for i := 0; i < 50; i++ {
			src := stats[rng.Intn(len(stats))]
			dst := mobs[rng.Intn(len(mobs))]
			if _, err := bn.SendDirect(src, dst); err != nil {
				t.Fatalf("send on chord round %d: %v", round, err)
			}
		}
	}
}

func TestBristleOnChordDataRouting(t *testing.T) {
	bn, stats, mobs := buildOnChord(t, 60, 40, 4)
	for _, p := range mobs {
		bn.MoveSilently(p)
		if _, err := bn.PublishLocation(p); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		src := stats[rng.Intn(len(stats))]
		dst := stats[rng.Intn(len(stats))]
		rs, err := bn.RouteData(src, dst.Key)
		if err != nil {
			t.Fatalf("route on chord: %v", err)
		}
		// Chord's responsibility is successor-based; routing to an exact
		// live key must still land on its owner.
		if rs.Dest.ID != dst.ID {
			t.Fatalf("chord route reached %d, want %d", rs.Dest.ID, dst.ID)
		}
	}
}

func TestBristleOnChordChurn(t *testing.T) {
	bn, stats, mobs := buildOnChord(t, 60, 30, 6)
	for _, p := range mobs {
		if _, err := bn.PublishLocation(p); err != nil {
			t.Fatal(err)
		}
	}
	// Kill a chunk of the stationary layer; replication must cover.
	for i := 1; i < 13; i++ {
		if err := bn.Leave(stats[i]); err != nil {
			t.Fatal(err)
		}
	}
	probe := stats[0]
	missed := 0
	for _, p := range mobs {
		if _, _, err := bn.Discover(probe, p.Key); err != nil {
			missed++
		}
	}
	if missed > len(mobs)/5 {
		t.Fatalf("%d/%d discoveries failed after churn on chord", missed, len(mobs))
	}
	// Dynamic join keeps working.
	js, err := bn.Join(core.Mobile, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bn.PublishLocation(js.Peer); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bn.Discover(probe, js.Peer.Key); err != nil {
		t.Fatalf("newcomer not discoverable on chord: %v", err)
	}
}

// TestSubstratesAgreeOnProtocolOutcomes runs the same seeded workload on
// both substrates and verifies protocol-level outcomes (delivery success)
// agree even though routing internals differ.
func TestSubstratesAgreeOnProtocolOutcomes(t *testing.T) {
	run := func(newSub func(overlay.Config, *simnet.Network) core.Substrate) (delivered int) {
		rng := rand.New(rand.NewSource(7))
		g, err := topology.GenerateTransitStub(topology.DefaultTransitStub(300), rng)
		if err != nil {
			t.Fatal(err)
		}
		net := simnet.NewNetwork(g)
		bn := core.NewNetwork(core.Config{
			Naming:             core.Clustered,
			StationaryFraction: 0.6,
			Overlay:            overlay.DefaultConfig(),
			ReplicationFactor:  3,
			UnitCost:           1,
			CacheResolved:      true,
			NewSubstrate:       newSub,
		}, net, nil, rng)
		var stats, mobs []*core.Peer
		for i := 0; i < 45; i++ {
			p, err := bn.AddPeer(core.Stationary, 5)
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, p)
		}
		for i := 0; i < 30; i++ {
			p, err := bn.AddPeer(core.Mobile, 5)
			if err != nil {
				t.Fatal(err)
			}
			mobs = append(mobs, p)
		}
		bn.RefreshEntries()
		for _, p := range mobs {
			bn.MoveSilently(p)
			if _, err := bn.PublishLocation(p); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			src := stats[rng.Intn(len(stats))]
			dst := mobs[rng.Intn(len(mobs))]
			if _, err := bn.SendDirect(src, dst); err == nil {
				delivered++
			}
		}
		return delivered
	}

	ring := run(nil)
	chordN := run(func(oc overlay.Config, sn *simnet.Network) core.Substrate {
		return chord.New(chord.FromOverlayConfig(oc), sn)
	})
	if ring != 100 {
		t.Errorf("ring substrate delivered %d/100", ring)
	}
	if chordN != 100 {
		t.Errorf("chord substrate delivered %d/100", chordN)
	}
}
