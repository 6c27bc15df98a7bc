package live

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bristle/internal/transport"
)

// TestDeadDelegateSubtreeFallsBackToDiscovery kills the most capable
// registrant — the LDT delegate that would re-advertise to the rest —
// before the mobile node moves. Its subtree misses the proactive push
// (the §2.3.2 failure case) but every survivor still resolves the new
// address reactively.
func TestDeadDelegateSubtreeFallsBackToDiscovery(t *testing.T) {
	names := []string{"srv", "head", "w1", "w2", "w3", "mob"}
	caps := map[string]float64{
		"srv": 8,
		// head is the most capable registrant: with a low-capacity root it
		// receives the whole delegated list.
		"head": 7,
		"w1":   2, "w2": 2, "w3": 2,
		"mob": 1.5, // k = 1: single delegate
	}
	nodes, cleanup := startCluster(t, names, map[string]bool{"mob": true}, caps)
	defer cleanup()
	mob := nodes["mob"]
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(mob.PublishContext(context.Background()))
	for _, w := range []string{"head", "w1", "w2", "w3"} {
		must(nodes[w].RegisterWithContext(context.Background(), mob.Addr()))
	}

	// The delegate dies silently.
	nodes["head"].Close()

	must(mob.RebindContext(context.Background(), ""))

	// Workers w1..w3 were behind the dead delegate: they must NOT receive
	// the proactive update.
	missed := 0
	for _, w := range []string{"w1", "w2", "w3"} {
		select {
		case <-nodes[w].Updates():
			// Received directly — possible if the LDT put them at level 2
			// under the root rather than under head.
		case <-time.After(300 * time.Millisecond):
			missed++
		}
	}
	if missed == 0 {
		t.Skip("tree shape delivered everyone directly; nothing to verify")
	}

	// Late binding covers: every survivor resolves the fresh address.
	for _, w := range []string{"w1", "w2", "w3"} {
		addr, err := nodes[w].DiscoverContext(context.Background(), mob.Key())
		if err != nil {
			t.Fatalf("%s discovery after delegate death: %v", w, err)
		}
		if addr != mob.Addr() {
			t.Fatalf("%s resolved stale address %s", w, addr)
		}
		if err := nodes[w].PingContext(context.Background(), addr); err != nil {
			t.Fatalf("%s cannot reach resolved address: %v", w, err)
		}
	}
}

// TestConcurrentOperationsRace exercises gossip, publish, discover,
// register and rebind concurrently; run with -race.
func TestConcurrentOperationsRace(t *testing.T) {
	names := []string{"s1", "s2", "s3", "mob"}
	nodes, cleanup := startCluster(t, names, map[string]bool{"mob": true}, nil)
	defer cleanup()
	mob := nodes["mob"]
	if err := mob.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Gossipers (lightly throttled so the stress doesn't starve the
	// scheduler on small GOMAXPROCS).
	for i, name := range []string{"s1", "s2", "s3"} {
		nd := nodes[name]
		seed := int64(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					nd.GossipOnce(rng)
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	// Discoverers + registrants.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if addr, err := nodes["s1"].DiscoverContext(context.Background(), mob.Key()); err == nil {
				nodes["s1"].RegisterWithContext(context.Background(), addr)
			}
		}
	}()
	// Publisher under churny rebinding.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := mob.RebindContext(context.Background(), ""); err != nil {
				t.Errorf("rebind %d: %v", i, err)
				return
			}
		}
	}()
	// Drain updates so the channel never blocks semantics.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-nodes["s1"].Updates():
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		time.Sleep(500 * time.Millisecond)
		close(stop)
	}()
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("concurrent operations deadlocked")
	}

	// System still coherent: final address resolvable.
	addr, err := nodes["s2"].DiscoverContext(context.Background(), mob.Key())
	if err != nil {
		t.Fatalf("final discover: %v", err)
	}
	if addr != mob.Addr() {
		t.Fatalf("final address stale: %s vs %s", addr, mob.Addr())
	}
}

// TestRegisterSurvivesTargetRebind ensures registrations established
// before a move keep receiving updates after multiple rebinds.
func TestRegisterSurvivesTargetRebind(t *testing.T) {
	nodes, cleanup := startCluster(t, []string{"s1", "s2", "watch", "mob"},
		map[string]bool{"mob": true}, nil)
	defer cleanup()
	mob := nodes["mob"]
	watch := nodes["watch"]
	if err := mob.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := watch.RegisterWithContext(context.Background(), mob.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := mob.RebindContext(context.Background(), ""); err != nil {
			t.Fatal(err)
		}
		select {
		case up := <-watch.Updates():
			if up.Addr != mob.Addr() {
				t.Fatalf("rebind %d: stale update %s", i, up.Addr)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("rebind %d: no update", i)
		}
	}
	if got := len(mob.Registry()); got != 1 {
		t.Fatalf("registry size %d after rebinds, want 1", got)
	}
}

func TestMemTransportClosedBootstrapJoinFails(t *testing.T) {
	mem := transport.NewMem()
	boot := mustNode(t, Config{Name: "boot", Capacity: 2}, mem)
	if err := boot.Start(""); err != nil {
		t.Fatal(err)
	}
	addr := boot.Addr()
	boot.Close()

	joiner := mustNode(t, Config{Name: "joiner", Capacity: 2}, mem)
	if err := joiner.Start(""); err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if err := joiner.JoinViaContext(context.Background(), addr); err == nil {
		t.Fatal("join via dead bootstrap succeeded")
	}
}
