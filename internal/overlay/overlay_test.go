package overlay

import (
	"math"
	"math/rand"
	"testing"

	"bristle/internal/hashkey"
	"bristle/internal/simnet"
	"bristle/internal/topology"
)

// buildRing creates a ring of n nodes with random keys over an optional
// underlay.
func buildRing(t testing.TB, n int, seed int64, withNet bool) (*Ring, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var net *simnet.Network
	if withNet {
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
		net = simnet.NewNetwork(g)
	}
	ring := NewRing(DefaultConfig(), net)
	for i := 0; i < n; i++ {
		var host simnet.HostID = simnet.NoHost
		if net != nil {
			host = net.AttachHostRandom(rng)
		}
		for {
			if _, err := ring.AddNode(hashkey.Random(rng), host); err == nil {
				break
			}
		}
	}
	return ring, rng
}

func TestAddNodeDuplicateKeyRejected(t *testing.T) {
	ring := NewRing(DefaultConfig(), nil)
	if _, err := ring.AddNode(42, simnet.NoHost); err != nil {
		t.Fatal(err)
	}
	if _, err := ring.AddNode(42, simnet.NoHost); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestClosestMatchesBruteForce(t *testing.T) {
	ring, rng := buildRing(t, 200, 1, false)
	nodes := ring.Nodes()
	for trial := 0; trial < 200; trial++ {
		target := hashkey.Random(rng)
		want := nodes[0]
		for _, n := range nodes[1:] {
			if hashkey.Closer(target, n.Ref.Key, want.Ref.Key) {
				want = n
			}
		}
		got := ring.Closest(target)
		if got.Ref.ID != want.Ref.ID {
			t.Fatalf("Closest(%v) = node %d (key %v), brute force %d (key %v)",
				target, got.Ref.ID, got.Ref.Key, want.Ref.ID, want.Ref.Key)
		}
	}
}

func TestRouteReachesClosest(t *testing.T) {
	for _, size := range []int{2, 3, 10, 64, 500} {
		ring, rng := buildRing(t, size, int64(size), false)
		nodes := ring.Nodes()
		for trial := 0; trial < 100; trial++ {
			src := nodes[rng.Intn(len(nodes))]
			target := hashkey.Random(rng)
			res, err := ring.Route(src.Ref.ID, target, nil)
			if err != nil {
				t.Fatalf("size %d: route error: %v", size, err)
			}
			want := ring.Closest(target)
			if res.Dest.ID != want.Ref.ID {
				t.Fatalf("size %d: route dest %d, closest %d (target %v)",
					size, res.Dest.ID, want.Ref.ID, target)
			}
		}
	}
}

func TestRouteToOwnKeyZeroHops(t *testing.T) {
	ring, _ := buildRing(t, 50, 3, false)
	for _, n := range ring.Nodes() {
		res, err := ring.Route(n.Ref.ID, n.Ref.Key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumHops() != 0 || res.Dest.ID != n.Ref.ID {
			t.Fatalf("route to own key took %d hops to %d", res.NumHops(), res.Dest.ID)
		}
	}
}

func TestRouteMonotoneStaysOnArc(t *testing.T) {
	// Every non-final hop key must lie on the closed arc from the source
	// key to the target in the chosen direction — the property Equation (1)
	// and the clustered naming scheme depend on.
	ring, rng := buildRing(t, 300, 4, false)
	nodes := ring.Nodes()
	for trial := 0; trial < 300; trial++ {
		src := nodes[rng.Intn(len(nodes))]
		target := hashkey.Random(rng)
		res, err := ring.Route(src.Ref.ID, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		total := hashkey.DirectedDistance(src.Ref.Key, target, res.Dir)
		for _, h := range res.Hops {
			if h.Final {
				continue
			}
			d := hashkey.DirectedDistance(src.Ref.Key, h.To.Key, res.Dir)
			if d > total {
				t.Fatalf("hop to %v leaves arc (dist %d > total %d, dir %v)",
					h.To.Key, d, total, res.Dir)
			}
		}
	}
}

func TestRouteProgressStrictlyMonotone(t *testing.T) {
	ring, rng := buildRing(t, 300, 5, false)
	nodes := ring.Nodes()
	for trial := 0; trial < 100; trial++ {
		src := nodes[rng.Intn(len(nodes))]
		target := hashkey.Random(rng)
		res, err := ring.Route(src.Ref.ID, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		prev := hashkey.DirectedDistance(src.Ref.Key, target, res.Dir)
		for _, h := range res.Hops {
			if h.Final {
				continue
			}
			d := hashkey.DirectedDistance(h.To.Key, target, res.Dir)
			if d >= prev {
				t.Fatalf("hop did not progress: %d → %d", prev, d)
			}
			prev = d
		}
	}
}

func TestRouteHopsLogarithmic(t *testing.T) {
	// O(log N) claim (§2.3.2 responsiveness): mean hops should stay within
	// a small multiple of log2(N).
	for _, size := range []int{100, 400, 1600} {
		ring, rng := buildRing(t, size, int64(100+size), false)
		nodes := ring.Nodes()
		totalHops := 0
		const trials = 300
		for i := 0; i < trials; i++ {
			src := nodes[rng.Intn(len(nodes))]
			res, err := ring.Route(src.Ref.ID, hashkey.Random(rng), nil)
			if err != nil {
				t.Fatal(err)
			}
			totalHops += res.NumHops()
		}
		mean := float64(totalHops) / trials
		logN := math.Log2(float64(size))
		if mean > 2.0*logN {
			t.Errorf("size %d: mean hops %.2f > 2·log2(N)=%.2f", size, mean, 2*logN)
		}
	}
}

func TestStateSizeLogarithmic(t *testing.T) {
	// O(log N) memory per node (§2.3.2 scalability).
	ring, _ := buildRing(t, 1000, 7, false)
	maxState := 0
	for _, n := range ring.Nodes() {
		if s := n.StateSize(); s > maxState {
			maxState = s
		}
	}
	logN := math.Log2(1000)
	if float64(maxState) > 6*logN {
		t.Errorf("max state size %d exceeds 6·log2(N)=%.1f", maxState, 6*logN)
	}
}

func TestHopVisitorAbort(t *testing.T) {
	ring, rng := buildRing(t, 200, 8, false)
	nodes := ring.Nodes()
	src := nodes[rng.Intn(len(nodes))]
	target := hashkey.Random(rng)
	full, err := ring.Route(src.Ref.ID, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumHops() < 2 {
		t.Skip("route too short to abort mid-way")
	}
	seen := 0
	res, err := ring.Route(src.Ref.ID, target, func(Hop) bool {
		seen++
		return seen < 2 // abort before the 2nd hop
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumHops() != 1 {
		t.Fatalf("aborted route recorded %d hops, want 1", res.NumHops())
	}
}

func TestNeighborhoodOrderedAndCorrect(t *testing.T) {
	ring, rng := buildRing(t, 300, 9, false)
	for trial := 0; trial < 50; trial++ {
		target := hashkey.Random(rng)
		k := 1 + rng.Intn(8)
		got := ring.Neighborhood(target, k)
		if len(got) != k {
			t.Fatalf("Neighborhood returned %d, want %d", len(got), k)
		}
		// Nearest-first ordering.
		for i := 1; i < len(got); i++ {
			if hashkey.Closer(target, got[i].Ref.Key, got[i-1].Ref.Key) {
				t.Fatalf("neighborhood not ordered at %d", i)
			}
		}
		// Head must be the closest node overall.
		if got[0].Ref.ID != ring.Closest(target).Ref.ID {
			t.Fatal("neighborhood head is not the closest node")
		}
		// No duplicates.
		seen := map[NodeID]bool{}
		for _, n := range got {
			if seen[n.Ref.ID] {
				t.Fatal("duplicate node in neighborhood")
			}
			seen[n.Ref.ID] = true
		}
	}
}

func TestNeighborhoodClamps(t *testing.T) {
	ring, _ := buildRing(t, 5, 10, false)
	if got := ring.Neighborhood(123, 50); len(got) != 5 {
		t.Fatalf("Neighborhood over-asked returned %d, want 5", len(got))
	}
	if got := ring.Neighborhood(123, 0); got != nil {
		t.Fatal("Neighborhood(k=0) should be nil")
	}
}

func TestRemoveNodeRoutesStillConverge(t *testing.T) {
	ring, rng := buildRing(t, 300, 11, false)
	nodes := ring.Nodes()
	// Remove 30% of nodes.
	for i := 0; i < 90; i++ {
		victim := nodes[rng.Intn(len(nodes))]
		if ring.Node(victim.Ref.ID) == nil {
			continue
		}
		if err := ring.RemoveNode(victim.Ref.ID); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize() // periodic refresh cleans stale fingers
	live := ring.Nodes()
	if len(live) == 0 {
		t.Skip("all nodes removed")
	}
	for trial := 0; trial < 100; trial++ {
		src := live[rng.Intn(len(live))]
		target := hashkey.Random(rng)
		res, err := ring.Route(src.Ref.ID, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dest.ID != ring.Closest(target).Ref.ID {
			t.Fatalf("post-churn route dest %d != closest %d", res.Dest.ID, ring.Closest(target).Ref.ID)
		}
	}
}

func TestRemoveNodeWithoutStabilizeStillConverges(t *testing.T) {
	// Leaf repair alone must keep routing correct (fingers may be stale;
	// dead entries are skipped).
	ring, rng := buildRing(t, 200, 12, false)
	nodes := ring.Nodes()
	for i := 0; i < 40; i++ {
		victim := nodes[rng.Intn(len(nodes))]
		if ring.Node(victim.Ref.ID) == nil {
			continue
		}
		if err := ring.RemoveNode(victim.Ref.ID); err != nil {
			t.Fatal(err)
		}
	}
	live := ring.Nodes()
	for trial := 0; trial < 100; trial++ {
		src := live[rng.Intn(len(live))]
		target := hashkey.Random(rng)
		res, err := ring.Route(src.Ref.ID, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dest.ID != ring.Closest(target).Ref.ID {
			t.Fatalf("stale-finger route dest %d != closest %d", res.Dest.ID, ring.Closest(target).Ref.ID)
		}
	}
}

func TestRemoveUnknownNode(t *testing.T) {
	ring, _ := buildRing(t, 10, 13, false)
	if err := ring.RemoveNode(NodeID(999)); err == nil {
		t.Fatal("removing unknown node succeeded")
	}
	nodes := ring.Nodes()
	if err := ring.RemoveNode(nodes[0].Ref.ID); err != nil {
		t.Fatal(err)
	}
	if err := ring.RemoveNode(nodes[0].Ref.ID); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestProximitySelectionReducesHopCost(t *testing.T) {
	// With proximity neighbor selection the mean underlay cost per overlay
	// hop should not exceed the cost without it (usually strictly lower).
	const n = 400
	seed := int64(14)

	meanHopCost := func(prox int) float64 {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.GenerateTransitStub(topology.TransitStubParams{
			TransitDomains:   3,
			TransitPerDomain: 3,
			StubsPerTransit:  3,
			StubPerDomain:    4,
			EdgeProb:         0.3,
			WeightJitter:     0.2,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		net := simnet.NewNetwork(g)
		ring := NewRing(Config{LeafSize: 4, ProximityChoices: prox}, net)
		for i := 0; i < n; i++ {
			host := net.AttachHostRandom(rng)
			for {
				if _, err := ring.AddNode(hashkey.Random(rng), host); err == nil {
					break
				}
			}
		}
		nodes := ring.Nodes()
		total, hops := 0.0, 0
		for trial := 0; trial < 400; trial++ {
			src := nodes[rng.Intn(len(nodes))]
			res, err := ring.Route(src.Ref.ID, hashkey.Random(rng), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range res.Hops {
				total += net.Cost(ring.Node(h.From.ID).Host, ring.Node(h.To.ID).Host)
				hops++
			}
		}
		return total / float64(hops)
	}

	withPNS := meanHopCost(4)
	withoutPNS := meanHopCost(0)
	if withPNS > withoutPNS*1.05 {
		t.Errorf("proximity selection made hops costlier: %.2f vs %.2f", withPNS, withoutPNS)
	}
}

func TestRouteGreedyAlsoConverges(t *testing.T) {
	ring, rng := buildRing(t, 300, 15, false)
	nodes := ring.Nodes()
	for trial := 0; trial < 100; trial++ {
		src := nodes[rng.Intn(len(nodes))]
		target := hashkey.Random(rng)
		res, err := ring.RouteGreedy(src.Ref.ID, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dest.ID != ring.Closest(target).Ref.ID {
			t.Fatalf("greedy route dest %d != closest %d", res.Dest.ID, ring.Closest(target).Ref.ID)
		}
	}
}

func TestSingleNodeRing(t *testing.T) {
	ring := NewRing(DefaultConfig(), nil)
	id, err := ring.AddNode(100, simnet.NoHost)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ring.Route(id, 999999, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dest.ID != id || res.NumHops() != 0 {
		t.Fatalf("single-node route: %+v", res)
	}
	if got := ring.Closest(12345); got.Ref.ID != id {
		t.Fatal("single-node Closest broken")
	}
}

func TestRouteFromUnknownNode(t *testing.T) {
	ring, _ := buildRing(t, 10, 16, false)
	if _, err := ring.Route(NodeID(999), 5, nil); err == nil {
		t.Fatal("route from unknown node succeeded")
	}
	if _, err := ring.RouteGreedy(NodeID(999), 5, nil); err == nil {
		t.Fatal("greedy route from unknown node succeeded")
	}
}

func TestNodesSortedByKey(t *testing.T) {
	ring, _ := buildRing(t, 100, 17, false)
	nodes := ring.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].Ref.Key >= nodes[i].Ref.Key {
			t.Fatal("Nodes() not sorted by key")
		}
	}
}

func TestNeighborsNoDuplicatesNoSelf(t *testing.T) {
	ring, _ := buildRing(t, 200, 18, true)
	for _, n := range ring.Nodes() {
		seen := map[NodeID]bool{}
		for _, ref := range n.Neighbors() {
			if ref.ID == n.Ref.ID {
				t.Fatal("node lists itself as neighbor")
			}
			if seen[ref.ID] {
				t.Fatal("duplicate neighbor entry")
			}
			seen[ref.ID] = true
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}
