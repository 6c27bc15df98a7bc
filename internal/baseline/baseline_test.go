package baseline

import (
	"math/rand"
	"testing"

	"bristle/internal/overlay"
	"bristle/internal/simnet"
	"bristle/internal/topology"
)

func testNet(t testing.TB, seed int64) (*simnet.Network, *rand.Rand) {
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
	return simnet.NewNetwork(g), rng
}

func buildTypeA(t testing.TB, stationary, mobile int, seed int64) (*TypeA, []*APeer, []*APeer) {
	t.Helper()
	net, rng := testNet(t, seed)
	a := NewTypeA(overlay.DefaultConfig(), net, rng)
	var stat, mob []*APeer
	for i := 0; i < stationary; i++ {
		p, err := a.AddPeer(net.AttachHostRandom(rng), false)
		if err != nil {
			t.Fatal(err)
		}
		stat = append(stat, p)
	}
	for i := 0; i < mobile; i++ {
		p, err := a.AddPeer(net.AttachHostRandom(rng), true)
		if err != nil {
			t.Fatal(err)
		}
		mob = append(mob, p)
	}
	return a, stat, mob
}

func TestTypeADeliveryBeforeMove(t *testing.T) {
	a, stat, mob := buildTypeA(t, 30, 10, 1)
	src := stat[0]
	dst := mob[0]
	_, _, ok, err := a.SendToIdentity(src, dst.Index, dst.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("delivery to unmoved peer failed")
	}
}

func TestTypeAMoveBreaksOldIdentity(t *testing.T) {
	a, stat, mob := buildTypeA(t, 30, 10, 2)
	src := stat[0]
	dst := mob[0]
	oldEpoch := dst.Epoch
	if err := a.Move(dst); err != nil {
		t.Fatal(err)
	}
	// Old identity is gone: end-to-end semantics broken.
	_, _, ok, err := a.SendToIdentity(src, dst.Index, oldEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("delivery to stale identity succeeded")
	}
	// The *new* identity works — but the correspondent had no way to
	// learn it in-band.
	_, _, ok, err = a.SendToIdentity(src, dst.Index, dst.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("delivery to new identity failed")
	}
}

func TestTypeAMoveChangesKey(t *testing.T) {
	a, _, mob := buildTypeA(t, 10, 5, 3)
	p := mob[0]
	oldKey := p.Key
	if err := a.Move(p); err != nil {
		t.Fatal(err)
	}
	if p.Key == oldKey {
		t.Fatal("Type A move kept the same key")
	}
	if a.Ring.Node(p.NodeID) == nil {
		t.Fatal("moved peer not on ring")
	}
}

func TestTypeAMoveCountsMaintenance(t *testing.T) {
	a, _, mob := buildTypeA(t, 30, 10, 4)
	if err := a.Move(mob[0]); err != nil {
		t.Fatal(err)
	}
	if a.Stats.Moves != 1 {
		t.Fatalf("Moves = %d", a.Stats.Moves)
	}
	if a.Stats.MaintenanceMessages == 0 || a.Stats.MaintenanceCost == 0 {
		t.Fatal("maintenance traffic not accounted")
	}
}

func TestTypeAMoveStationaryRejected(t *testing.T) {
	a, stat, _ := buildTypeA(t, 5, 2, 5)
	if err := a.Move(stat[0]); err == nil {
		t.Fatal("moved a stationary peer")
	}
}

func TestTypeASendUnknownIndex(t *testing.T) {
	a, stat, _ := buildTypeA(t, 5, 2, 6)
	if _, _, _, err := a.SendToIdentity(stat[0], 999, 0); err == nil {
		t.Fatal("send to unknown index succeeded")
	}
}

func TestMobileIPTriangularCostAtLeastDirect(t *testing.T) {
	net, rng := testNet(t, 7)
	m := NewMobileIP(net)
	src := net.AttachHostRandom(rng)
	dst := net.AttachHostRandom(rng)
	m.AssignHomeAgent(dst)
	// Move the mobile away from home a few times.
	for i := 0; i < 3; i++ {
		m.Move(dst, rng)
	}
	tri, direct, err := m.Send(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Triangle inequality: via-HA is never cheaper than direct.
	if tri < direct-1e-9 {
		t.Fatalf("triangular %v < direct %v", tri, direct)
	}
	if m.Stats.Delivered != 1 {
		t.Fatalf("Delivered = %d", m.Stats.Delivered)
	}
}

func TestMobileIPDeliversAfterMove(t *testing.T) {
	net, rng := testNet(t, 8)
	m := NewMobileIP(net)
	src := net.AttachHostRandom(rng)
	dst := net.AttachHostRandom(rng)
	m.AssignHomeAgent(dst)
	for i := 0; i < 5; i++ {
		m.Move(dst, rng)
		if _, _, err := m.Send(src, dst); err != nil {
			t.Fatalf("send after move %d: %v", i, err)
		}
	}
	if m.Stats.Registrations != 6 { // initial + 5 moves
		t.Fatalf("Registrations = %d, want 6", m.Stats.Registrations)
	}
}

func TestMobileIPHomeAgentFailure(t *testing.T) {
	net, rng := testNet(t, 9)
	m := NewMobileIP(net)
	src := net.AttachHostRandom(rng)
	dst := net.AttachHostRandom(rng)
	m.AssignHomeAgent(dst)
	m.FailHomeAgent(dst)
	if _, _, err := m.Send(src, dst); err != ErrHomeAgentDown {
		t.Fatalf("err = %v, want ErrHomeAgentDown", err)
	}
	if m.Stats.Failures != 1 {
		t.Fatalf("Failures = %d", m.Stats.Failures)
	}
	m.RestoreHomeAgent(dst)
	if _, _, err := m.Send(src, dst); err != nil {
		t.Fatalf("send after restore: %v", err)
	}
}

func TestMobileIPNoHomeAgent(t *testing.T) {
	net, rng := testNet(t, 10)
	m := NewMobileIP(net)
	src := net.AttachHostRandom(rng)
	dst := net.AttachHostRandom(rng)
	if _, _, err := m.Send(src, dst); err == nil {
		t.Fatal("send without home agent succeeded")
	}
}

func TestMobileIPStaleBindingFails(t *testing.T) {
	net, rng := testNet(t, 11)
	m := NewMobileIP(net)
	src := net.AttachHostRandom(rng)
	dst := net.AttachHostRandom(rng)
	m.AssignHomeAgent(dst)
	// The host moves *without* re-registering (registration lost).
	net.MoveRandom(dst, rng)
	if _, _, err := m.Send(src, dst); err != ErrNoBinding {
		t.Fatalf("err = %v, want ErrNoBinding", err)
	}
}

func TestMobileIPTriangularPenaltyAboveOne(t *testing.T) {
	net, rng := testNet(t, 12)
	m := NewMobileIP(net)
	var mobiles []simnet.HostID
	for i := 0; i < 10; i++ {
		h := net.AttachHostRandom(rng)
		m.AssignHomeAgent(h)
		m.Move(h, rng)
		mobiles = append(mobiles, h)
	}
	src := net.AttachHostRandom(rng)
	for _, dst := range mobiles {
		if _, _, err := m.Send(src, dst); err != nil {
			t.Fatal(err)
		}
	}
	if p := m.TriangularPenalty(); p < 1 {
		t.Fatalf("triangular penalty %v < 1", p)
	}
}

func TestMobileIPPenaltyEmptyIsOne(t *testing.T) {
	net, _ := testNet(t, 13)
	m := NewMobileIP(net)
	if m.TriangularPenalty() != 1 {
		t.Fatal("empty penalty != 1")
	}
}
