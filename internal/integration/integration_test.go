// Package integration drives the whole simulated stack end to end: the
// discrete-event clock, a Poisson movement workload, Bristle's
// lease-based location management, churn, and the session traffic of a
// real application — asserting system-level invariants none of the unit
// suites can see.
package integration

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bristle/internal/core"
	"bristle/internal/overlay"
	"bristle/internal/simnet"
	"bristle/internal/topology"
)

type world struct {
	sim  *simnet.Simulator
	net  *simnet.Network
	bn   *core.Network
	rng  *rand.Rand
	stat []*core.Peer
	mob  []*core.Peer
}

func buildWorld(t testing.TB, stationary, mobile int, leaseTTL simnet.Time, seed int64) *world {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStub(600), rng)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	sim := &simnet.Simulator{}
	net := simnet.NewNetwork(g)
	bn := core.NewNetwork(core.Config{
		Naming:             core.Clustered,
		StationaryFraction: float64(stationary) / float64(stationary+mobile),
		Overlay:            overlay.DefaultConfig(),
		ReplicationFactor:  3,
		LeaseTTL:           leaseTTL,
		UnitCost:           1,
		LDTLocality:        true,
		CacheResolved:      true,
	}, net, sim, rng)
	w := &world{sim: sim, net: net, bn: bn, rng: rng}
	for i := 0; i < stationary; i++ {
		p, err := bn.AddPeer(core.Stationary, 1+float64(rng.Intn(15)))
		if err != nil {
			t.Fatal(err)
		}
		w.stat = append(w.stat, p)
	}
	for i := 0; i < mobile; i++ {
		p, err := bn.AddPeer(core.Mobile, 1+float64(rng.Intn(15)))
		if err != nil {
			t.Fatal(err)
		}
		w.mob = append(w.mob, p)
	}
	bn.RefreshEntries()
	bn.BuildRegistries()
	for _, p := range w.mob {
		if _, err := bn.PublishLocation(p); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestSessionsSurviveScheduledMobility runs a Poisson movement workload
// through the event clock with the full update protocol on every move,
// while correspondents send to their mobile targets continuously. Every
// message must be deliverable (directly or after one discovery).
func TestSessionsSurviveScheduledMobility(t *testing.T) {
	w := buildWorld(t, 80, 60, 0, 1)

	// Each mobile moves at exponential gaps of mean 40 after a uniform
	// offset in [0, 40), until time 100; at each move it re-attaches to a
	// random stub router and runs the update protocol.
	const horizon, mean = 100, 40
	type move struct {
		at simnet.Time
		p  *core.Peer
	}
	var sched []move
	for _, p := range w.mob {
		at := simnet.Time(w.rng.Float64()) * mean
		for {
			at += simnet.Time(w.rng.ExpFloat64()) * mean
			if at > horizon {
				break
			}
			sched = append(sched, move{at, p})
		}
	}
	slices.SortFunc(sched, func(a, b move) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.p.Host, b.p.Host))
	})
	moves := 0
	for _, mv := range sched {
		w.sim.At(mv.at, func() {
			w.net.MoveRandom(mv.p.Host, w.rng)
			moves++
			if _, err := w.bn.UpdateLocation(mv.p); err != nil {
				t.Errorf("update after move: %v", err)
			}
		})
	}

	// Sessions: every 5 time units, 20 random correspondents message
	// their mobile targets.
	delivered, attempted := 0, 0
	var tick func()
	tick = func() {
		for i := 0; i < 20; i++ {
			src := w.stat[w.rng.Intn(len(w.stat))]
			dst := w.mob[w.rng.Intn(len(w.mob))]
			attempted++
			if _, err := w.bn.SendDirect(src, dst); err == nil {
				delivered++
			}
		}
		if w.sim.Now() < 95 {
			w.sim.Schedule(5, tick)
		}
	}
	w.sim.Schedule(5, tick)
	w.sim.Run(101)

	if moves == 0 {
		t.Fatal("workload scheduled no moves")
	}
	if attempted == 0 {
		t.Fatal("no sessions ran")
	}
	if delivered != attempted {
		t.Fatalf("delivery %d/%d with full update protocol; want 100%%", delivered, attempted)
	}
}

// TestLateBindingOnlyUnderLeases disables proactive updates: mobile peers
// move and republish, correspondents rely purely on discovery (late
// binding). With finite leases every send after a move needs exactly the
// protocol's fallback path, and still succeeds.
func TestLateBindingOnlyUnderLeases(t *testing.T) {
	w := buildWorld(t, 80, 40, 50, 2)

	delivered, attempted, discoveries := 0, 0, uint64(0)
	for round := 0; round < 5; round++ {
		for _, p := range w.mob {
			w.bn.MoveSilently(p)
			if _, err := w.bn.PublishLocation(p); err != nil {
				t.Fatal(err)
			}
		}
		// Advance the clock past nothing in particular; leases are fresh.
		w.sim.Schedule(10, func() {})
		w.sim.RunAll()
		before := w.bn.Stats.Discoveries
		for i := 0; i < 50; i++ {
			src := w.stat[w.rng.Intn(len(w.stat))]
			dst := w.mob[w.rng.Intn(len(w.mob))]
			attempted++
			if _, err := w.bn.SendDirect(src, dst); err == nil {
				delivered++
			}
		}
		discoveries += w.bn.Stats.Discoveries - before
	}
	if delivered != attempted {
		t.Fatalf("late binding delivery %d/%d", delivered, attempted)
	}
	if discoveries == 0 {
		t.Fatal("late binding never used discovery — test is vacuous")
	}
}

// TestLeaseExpiryUnderClock verifies that with a finite lease and no
// republish, records age out as virtual time advances.
func TestLeaseExpiryUnderClock(t *testing.T) {
	w := buildWorld(t, 40, 10, 20, 3)
	target := w.mob[0]
	src := w.stat[0]

	if _, _, err := w.bn.Discover(src, target.Key); err != nil {
		t.Fatalf("fresh discover: %v", err)
	}
	w.sim.Schedule(30, func() {}) // outlive the 20-unit lease
	w.sim.RunAll()
	if _, _, err := w.bn.Discover(src, target.Key); err != core.ErrNotFound {
		t.Fatalf("expired discover: %v, want ErrNotFound", err)
	}
	// Early binding: republish restores resolvability.
	if _, err := w.bn.PublishLocation(target); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.bn.Discover(src, target.Key); err != nil {
		t.Fatalf("post-republish discover: %v", err)
	}
}

// TestChurnDuringMobilityWorkload removes a third of the stationary layer
// and a quarter of the mobile population mid-run, adds fresh peers, and
// checks the system still routes and resolves correctly.
func TestChurnDuringMobilityWorkload(t *testing.T) {
	w := buildWorld(t, 90, 45, 0, 4)

	// Warm-up traffic.
	for i := 0; i < 30; i++ {
		src := w.stat[w.rng.Intn(len(w.stat))]
		dst := w.mob[w.rng.Intn(len(w.mob))]
		if _, err := w.bn.SendDirect(src, dst); err != nil {
			t.Fatalf("warm-up send: %v", err)
		}
	}

	// Kill 30 stationary peers (not index 0, our probe) and 11 mobile.
	for i := 0; i < 30; i++ {
		victim := w.stat[1+w.rng.Intn(len(w.stat)-1)]
		if !w.bn.MobileRing.Alive(victim.MobileRingID) {
			continue
		}
		if err := w.bn.Leave(victim); err != nil {
			t.Fatal(err)
		}
	}
	aliveMob := w.mob[:0]
	for i, p := range w.mob {
		if i%4 == 0 && w.bn.MobileRing.Alive(p.MobileRingID) {
			if err := w.bn.Leave(p); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if w.bn.MobileRing.Alive(p.MobileRingID) {
			aliveMob = append(aliveMob, p)
		}
	}
	w.mob = aliveMob

	// Join replacements dynamically.
	for i := 0; i < 10; i++ {
		js, err := w.bn.Join(core.Mobile, 1+float64(w.rng.Intn(15)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.bn.PublishLocation(js.Peer); err != nil {
			t.Fatal(err)
		}
		w.mob = append(w.mob, js.Peer)
	}
	w.bn.Stabilize()

	// Survivors move and must stay reachable (replication + republish
	// cover the departed resolvers).
	for _, p := range w.mob {
		if _, err := w.bn.MoveAndUpdate(p); err != nil {
			t.Fatalf("post-churn update: %v", err)
		}
	}
	probe := w.stat[0]
	for _, dst := range w.mob {
		if _, err := w.bn.SendDirect(probe, dst); err != nil {
			t.Fatalf("post-churn send to peer %d: %v", dst.ID, err)
		}
	}

	// Data routing on the mobile ring still converges to the true owner.
	for i := 0; i < 50; i++ {
		target := w.mob[w.rng.Intn(len(w.mob))]
		rs, err := w.bn.RouteData(probe, target.Key)
		if err != nil {
			t.Fatalf("post-churn route: %v", err)
		}
		if rs.Dest.ID != target.ID {
			t.Fatalf("route reached %d, want %d", rs.Dest.ID, target.ID)
		}
	}
}

// TestStatsConservation cross-checks the global counters against summed
// per-operation results over a known workload.
func TestStatsConservation(t *testing.T) {
	w := buildWorld(t, 60, 30, 0, 5)
	w.bn.Stats = core.Stats{} // reset after setup publishes

	wantPublishes := 0
	wantUpdates := 0
	for _, p := range w.mob[:10] {
		us, err := w.bn.MoveAndUpdate(p)
		if err != nil {
			t.Fatal(err)
		}
		wantPublishes++
		wantUpdates += us.Messages
	}
	if got := w.bn.Stats.Publishes; got != uint64(wantPublishes) {
		t.Errorf("Publishes = %d, want %d", got, wantPublishes)
	}
	if got := w.bn.Stats.UpdateMessages; got != uint64(wantUpdates) {
		t.Errorf("UpdateMessages = %d, want %d", got, wantUpdates)
	}

	before := w.bn.Stats.Discoveries
	misses := 0
	for i := 0; i < 20; i++ {
		src := w.stat[w.rng.Intn(len(w.stat))]
		dst := w.mob[10+w.rng.Intn(10)] // never moved: records still fresh
		if _, _, err := w.bn.Discover(src, dst.Key); err != nil {
			misses++
		}
	}
	if got := w.bn.Stats.Discoveries - before; got != 20 {
		t.Errorf("Discoveries delta = %d, want 20", got)
	}
	if w.bn.Stats.DiscoveryMisses != uint64(misses) {
		t.Errorf("DiscoveryMisses = %d, observed %d errors", w.bn.Stats.DiscoveryMisses, misses)
	}
}

// TestDeliveryRatioDegradesGracefully quantifies reliability: killing an
// increasing share of the stationary layer must degrade discovery success
// smoothly, never collapse (replication factor 3).
func TestDeliveryRatioDegradesGracefully(t *testing.T) {
	ratios := make([]float64, 0, 3)
	for _, kill := range []int{0, 10, 25} {
		w := buildWorld(t, 60, 30, 0, int64(100+kill))
		for _, p := range w.mob {
			w.bn.MoveSilently(p)
			if _, err := w.bn.PublishLocation(p); err != nil {
				t.Fatal(err)
			}
		}
		killed := 0
		for i := 1; i < len(w.stat) && killed < kill; i++ {
			if err := w.bn.Leave(w.stat[i]); err == nil {
				killed++
			}
		}
		ok, total := 0, 0
		probe := w.stat[0]
		for _, dst := range w.mob {
			total++
			if _, _, err := w.bn.Discover(probe, dst.Key); err == nil {
				ok++
			}
		}
		ratios = append(ratios, float64(ok)/float64(total))
	}
	if ratios[0] < 0.999 {
		t.Fatalf("baseline discovery ratio %v, want 1.0", ratios[0])
	}
	// Degradation must be graceful: even with 25 of 60 stationary peers
	// gone, most records survive on replicas.
	if ratios[2] < 0.6 {
		t.Fatalf("discovery ratio collapsed to %v after heavy stationary loss", ratios[2])
	}
	if ratios[1] < ratios[2]-1e-9 {
		t.Logf("note: ratios not monotone (%v)", ratios) // random placement; informational
	}
	if math.IsNaN(ratios[2]) {
		t.Fatal("NaN ratio")
	}
}
