package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bristle/internal/topology"
)

func testGraph(t testing.TB, seed int64) *topology.Graph {
	t.Helper()
	g, err := topology.GenerateTransitStub(topology.TransitStubParams{
		TransitDomains:   2,
		TransitPerDomain: 2,
		StubsPerTransit:  2,
		StubPerDomain:    3,
		EdgeProb:         0.4,
		WeightJitter:     0.1,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	return g
}

func TestSimulatorOrdering(t *testing.T) {
	var sim Simulator
	var got []int
	sim.Schedule(3, func() { got = append(got, 3) })
	sim.Schedule(1, func() { got = append(got, 1) })
	sim.Schedule(2, func() { got = append(got, 2) })
	sim.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events ran out of order: %v", got)
	}
	if sim.Now() != 3 {
		t.Fatalf("final clock = %v, want 3", sim.Now())
	}
}

func TestSimulatorFIFOTieBreak(t *testing.T) {
	var sim Simulator
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		sim.Schedule(5, func() { got = append(got, i) })
	}
	sim.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSimulatorNestedScheduling(t *testing.T) {
	var sim Simulator
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			sim.Schedule(1, tick)
		}
	}
	sim.Schedule(1, tick)
	sim.RunAll()
	if count != 5 {
		t.Fatalf("nested events ran %d times, want 5", count)
	}
	if sim.Now() != 5 {
		t.Fatalf("clock = %v, want 5", sim.Now())
	}
}

func TestSimulatorRunLimit(t *testing.T) {
	var sim Simulator
	ran := 0
	for i := 1; i <= 10; i++ {
		sim.Schedule(Time(i), func() { ran++ })
	}
	n := sim.Run(5)
	if n != 5 || ran != 5 {
		t.Fatalf("Run(5) executed %d events (cb %d), want 5", n, ran)
	}
	if sim.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", sim.Pending())
	}
	if sim.Now() != 5 {
		t.Fatalf("clock advanced to %v, want 5", sim.Now())
	}
	sim.RunAll()
	if ran != 10 {
		t.Fatalf("after RunAll ran=%d, want 10", ran)
	}
}

func TestSimulatorNegativeDelayClamped(t *testing.T) {
	var sim Simulator
	sim.Schedule(10, func() {})
	sim.Step()
	fired := false
	sim.Schedule(-5, func() { fired = true })
	sim.RunAll()
	if !fired {
		t.Fatal("negative-delay event never ran")
	}
	if sim.Now() != 10 {
		t.Fatalf("clock moved backwards: %v", sim.Now())
	}
}

func TestSimulatorAt(t *testing.T) {
	var sim Simulator
	var at Time
	sim.At(7, func() { at = sim.Now() })
	sim.RunAll()
	if at != 7 {
		t.Fatalf("At(7) ran at %v", at)
	}
}

func TestSimulatorScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	var sim Simulator
	sim.Schedule(1, nil)
}

func TestClockMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		var sim Simulator
		last := Time(-1)
		ok := true
		for _, d := range delays {
			sim.Schedule(Time(d)/100, func() {
				if sim.Now() < last {
					ok = false
				}
				last = sim.Now()
			})
		}
		sim.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNetworkAttachMoveValid(t *testing.T) {
	g := testGraph(t, 1)
	net := NewNetwork(g)
	rng := rand.New(rand.NewSource(2))
	h := net.AttachHostRandom(rng)
	a1 := net.AddrOf(h)
	if !net.Valid(a1) {
		t.Fatal("fresh address invalid")
	}
	a2 := net.MoveRandom(h, rng)
	if net.Valid(a1) {
		t.Fatal("pre-move address still valid")
	}
	if !net.Valid(a2) {
		t.Fatal("post-move address invalid")
	}
	if a2.Epoch != a1.Epoch+1 {
		t.Fatalf("epoch %d → %d, want increment", a1.Epoch, a2.Epoch)
	}
	net.Detach(h)
	if net.Valid(a2) {
		t.Fatal("address of departed host still valid")
	}
}

func TestZeroAddrInvalid(t *testing.T) {
	g := testGraph(t, 1)
	net := NewNetwork(g)
	if net.Valid(Addr{}) {
		t.Fatal("zero address must be invalid (paper's null addr)")
	}
	if !(Addr{}).IsZero() {
		t.Fatal("IsZero on zero Addr")
	}
}

func TestSendSyncAccounting(t *testing.T) {
	g := testGraph(t, 3)
	net := NewNetwork(g)
	rng := rand.New(rand.NewSource(4))
	a := net.AttachHostRandom(rng)
	b := net.AttachHostRandom(rng)

	addrB := net.AddrOf(b)
	ok, cost := net.SendSync(a, addrB)
	if !ok {
		t.Fatal("send to fresh address failed")
	}
	if cost != net.Cost(a, b) {
		t.Fatalf("cost %v != Cost() %v", cost, net.Cost(a, b))
	}

	net.MoveRandom(b, rng)
	ok, _ = net.SendSync(a, addrB) // stale
	if ok {
		t.Fatal("send to stale address succeeded")
	}

	net.Detach(b)
	ok, _ = net.SendSync(a, net.AddrOf(b))
	if ok {
		t.Fatal("send to dead host succeeded")
	}

	c := net.Counters
	if c.MessagesSent != 3 || c.MessagesDelivered != 1 || c.MessagesStale != 1 || c.MessagesDead != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestSendZeroAddrFailsFast(t *testing.T) {
	g := testGraph(t, 9)
	net := NewNetwork(g)
	rng := rand.New(rand.NewSource(10))
	a := net.AttachHostRandom(rng)
	if ok, cost := net.SendSync(a, Addr{}); ok || cost != 0 {
		t.Fatalf("null-address send = (%v, %v), want (false, 0)", ok, cost)
	}
	if net.Counters.MessagesStale != 1 {
		t.Fatalf("stale counter = %d", net.Counters.MessagesStale)
	}
}

func TestCostSymmetricAndZeroSelf(t *testing.T) {
	g := testGraph(t, 11)
	net := NewNetwork(g)
	rng := rand.New(rand.NewSource(12))
	a := net.AttachHostRandom(rng)
	b := net.AttachHostRandom(rng)
	if net.Cost(a, a) != 0 {
		t.Fatal("self cost nonzero")
	}
	if net.Cost(a, b) != net.Cost(b, a) {
		t.Fatal("cost asymmetric")
	}
}

func TestMoveChangesOnlyTarget(t *testing.T) {
	g := testGraph(t, 13)
	net := NewNetwork(g)
	rng := rand.New(rand.NewSource(14))
	a := net.AttachHostRandom(rng)
	b := net.AttachHostRandom(rng)
	addrA := net.AddrOf(a)
	net.MoveRandom(b, rng)
	if !net.Valid(addrA) {
		t.Fatal("moving b invalidated a's address")
	}
}

func TestResetCounters(t *testing.T) {
	g := testGraph(t, 15)
	net := NewNetwork(g)
	rng := rand.New(rand.NewSource(16))
	a := net.AttachHostRandom(rng)
	b := net.AttachHostRandom(rng)
	net.SendSync(a, net.AddrOf(b))
	net.ResetCounters()
	if net.Counters != (Counters{}) {
		t.Fatalf("counters not reset: %+v", net.Counters)
	}
}
