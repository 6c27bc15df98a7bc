package live

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

func TestMaintenanceRenewsLeases(t *testing.T) {
	mem := transport.NewMem()
	server := mustNode(t, Config{Name: "srv", Capacity: 3}, mem)
	if err := server.Start(""); err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	mob := mustNode(t, Config{
		Name: "mob", Capacity: 2, Mobile: true,
		LeaseTTL: 80 * time.Millisecond,
	}, mem)
	if err := mob.Start(""); err != nil {
		t.Fatal(err)
	}
	defer mob.Close()
	if err := mob.JoinViaContext(context.Background(), server.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := mob.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	stop := mob.StartMaintenance(MaintainConfig{
		RenewInterval: 25 * time.Millisecond,
		Rand:          rand.New(rand.NewSource(1)),
	})
	defer stop()

	// Well past the raw TTL, the record must still resolve thanks to the
	// periodic republish (early binding).
	time.Sleep(300 * time.Millisecond)
	if _, err := server.DiscoverContext(context.Background(), mob.Key()); err != nil {
		t.Fatalf("lease lapsed despite renewal: %v", err)
	}

	// After stopping maintenance the record ages out.
	stop()
	time.Sleep(200 * time.Millisecond)
	if _, err := server.DiscoverContext(context.Background(), mob.Key()); err != ErrNotFound {
		t.Fatalf("record survived TTL without renewal: %v", err)
	}
}

func TestMaintenanceGossipPropagatesMembership(t *testing.T) {
	mem := transport.NewMem()
	var all []*Node
	mk := func(name string) *Node {
		nd := mustNode(t, Config{Name: name, Capacity: 2}, mem)
		if err := nd.Start(""); err != nil {
			t.Fatal(err)
		}
		all = append(all, nd)
		return nd
	}
	boot := mk("boot")
	a := mk("a")
	b := mk("b")
	c := mk("c")
	defer func() {
		for _, nd := range all {
			nd.Close()
		}
	}()

	// a and b join via boot; c joins via a — nobody knows everyone yet.
	for i, nd := range []*Node{a, b} {
		if err := nd.JoinViaContext(context.Background(), boot.Addr()); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if err := c.JoinViaContext(context.Background(), a.Addr()); err != nil {
		t.Fatal(err)
	}

	var stops []func()
	for i, nd := range all {
		stops = append(stops, nd.StartMaintenance(MaintainConfig{
			GossipInterval: 10 * time.Millisecond,
			Rand:           rand.New(rand.NewSource(int64(i))),
		}))
	}
	defer func() {
		for _, s := range stops {
			s()
		}
	}()

	deadline := time.After(5 * time.Second)
	for {
		complete := true
		for _, nd := range all {
			if len(nd.KnownPeers()) != len(all) {
				complete = false
			}
		}
		if complete {
			return
		}
		select {
		case <-deadline:
			for _, nd := range all {
				t.Logf("%v knows %d peers", nd.Key(), len(nd.KnownPeers()))
			}
			t.Fatal("gossip never converged")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestMaintenanceStopIdempotent(t *testing.T) {
	mem := transport.NewMem()
	nd := mustNode(t, Config{Name: "x", Capacity: 1}, mem)
	if err := nd.Start(""); err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	stop := nd.StartMaintenance(MaintainConfig{GossipInterval: 5 * time.Millisecond})
	stop()
	stop() // second call must not panic or hang
}

// TestMaintenanceStopCancelsBlockedRenew: stop() cancels the exchange a
// duty has in flight instead of waiting it out. The renew here publishes
// to a replica that accepts and never answers, which without cancellation
// holds stop() for the exchange's 4 attempts of RequestTimeout.
func TestMaintenanceStopCancelsBlockedRenew(t *testing.T) {
	mem := transport.NewMem()
	hole, err := mem.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	go func() {
		for {
			if _, err := hole.Accept(); err != nil {
				return
			}
		}
	}()

	const requestTimeout = 2 * time.Second
	counters := metrics.NewCounters()
	mob := mustNode(t, Config{
		Name: "mob", Capacity: 1, Mobile: true,
		RequestTimeout: requestTimeout, Counters: counters,
	}, mem)
	if err := mob.Start(""); err != nil {
		t.Fatal(err)
	}
	defer mob.Close()
	mob.members.apply(direct, wire.Entry{Key: hashkey.FromName("hole"), Addr: hole.Addr(), Capacity: 1})

	stop := mob.StartMaintenance(MaintainConfig{RenewInterval: 5 * time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for counters.Get("rpc.attempts") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the renew never reached the black-holed replica")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	stop()
	if took := time.Since(start); took >= requestTimeout {
		t.Fatalf("stop() took %v with a renew blocked on a silent peer, want under one RequestTimeout (%v)", took, requestTimeout)
	}
}
