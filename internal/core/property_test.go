package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bristle/internal/hashkey"
	"bristle/internal/simnet"
	"bristle/internal/topology"
)

// propTopology builds one small shared topology for the property tests.
func propTopology(t *testing.T) *simnet.Network {
	t.Helper()
	g, err := topology.GenerateTransitStub(topology.TransitStubParams{
		TransitDomains: 1, TransitPerDomain: 2,
		StubsPerTransit: 2, StubPerDomain: 3, EdgeProb: 0.4,
	}, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	return simnet.NewNetwork(g)
}

// TestPropertyPublishDiscoverRoundTrip: after any silent move followed by
// a publish, every stationary peer can resolve the mover's current
// address.
func TestPropertyPublishDiscoverRoundTrip(t *testing.T) {
	bn, _ := buildNetwork(t, DefaultConfig(), 40, 30, 30)
	mobs := peersOfKind(bn, Mobile)
	stats := peersOfKind(bn, Stationary)
	rng := rand.New(rand.NewSource(31))

	f := func(mIdx, sIdx uint8, moves uint8) bool {
		m := mobs[int(mIdx)%len(mobs)]
		s := stats[int(sIdx)%len(stats)]
		for i := 0; i < int(moves%3); i++ {
			bn.MoveSilently(m)
		}
		if _, err := bn.PublishLocation(m); err != nil {
			return false
		}
		rec, _, err := bn.Discover(s, m.Key)
		if err != nil {
			return false
		}
		return bn.Net.Valid(rec.Addr) && rec.Addr.Host == m.Host
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertyClusteredKeysRespectArc: every key assignment under
// clustered naming lands on the correct side, for arbitrary stationary
// fractions.
func TestPropertyClusteredKeysRespectArc(t *testing.T) {
	netw := propTopology(t)
	f := func(seed int64, fracRaw uint8) bool {
		frac := 0.1 + float64(fracRaw%80)/100
		rng := rand.New(rand.NewSource(seed))
		bn := NewNetwork(Config{
			Naming:             Clustered,
			StationaryFraction: frac,
			ReplicationFactor:  1,
			UnitCost:           1,
		}, netw, nil, rng)
		arc, ok := bn.StationaryArc()
		if !ok {
			return false
		}
		for i := 0; i < 20; i++ {
			s, err := bn.AddPeer(Stationary, 1)
			if err != nil || !arc.Contains(s.Key) {
				return false
			}
			m, err := bn.AddPeer(Mobile, 1)
			if err != nil || arc.Contains(m.Key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLocationKeyInArc: the location-key rehash always lands
// inside the stationary arc, and is deterministic.
func TestPropertyLocationKeyInArc(t *testing.T) {
	bn, _ := buildNetwork(t, DefaultConfig(), 20, 20, 36)
	arc, _ := bn.StationaryArc()
	f := func(keyRaw uint64) bool {
		lk1 := bn.locationKey(hashkey.Key(keyRaw))
		lk2 := bn.locationKey(hashkey.Key(keyRaw))
		return lk1 == lk2 && arc.Contains(lk1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRegistrySymmetry: after BuildRegistries, x ∈ R(y) exactly
// when x holds y's state-pair in its mobile-ring table.
func TestPropertyRegistrySymmetry(t *testing.T) {
	bn, _ := buildNetwork(t, DefaultConfig(), 40, 40, 37)
	bn.BuildRegistries()
	for _, x := range bn.Peers() {
		holds := map[PeerID]bool{}
		for _, ref := range bn.MobileRing.NeighborsOf(x.MobileRingID) {
			if q := bn.PeerByMobileNode(ref.ID); q != nil {
				holds[q.ID] = true
			}
		}
		for _, y := range bn.Peers() {
			inRegistry := false
			for _, r := range y.Registry() {
				if r.ID == x.ID {
					inRegistry = true
					break
				}
			}
			if holds[y.ID] && !inRegistry {
				t.Fatalf("peer %d holds %d's state but is not registered", x.ID, y.ID)
			}
		}
	}
}
