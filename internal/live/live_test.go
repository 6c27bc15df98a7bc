package live

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// startCluster boots n nodes on the mem transport, joined through the
// first node, with full membership propagated.
func startCluster(t *testing.T, names []string, mobile map[string]bool, caps map[string]float64) (map[string]*Node, func()) {
	t.Helper()
	mem := transport.NewMem()
	nodes := make(map[string]*Node, len(names))
	var started []*Node
	for _, name := range names {
		// Short request timeout keeps rebind races cheap in tests: a
		// request dialed into a just-closed listener's backlog errors out
		// quickly instead of waiting the production default.
		cfg := Config{Name: name, Capacity: 4, Mobile: mobile[name], RequestTimeout: time.Second}
		if c, ok := caps[name]; ok {
			cfg.Capacity = c
		}
		nd := mustNode(t, cfg, mem)
		if err := nd.Start(""); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		nodes[name] = nd
		started = append(started, nd)
	}
	boot := started[0]
	for _, nd := range started[1:] {
		if err := nd.JoinViaContext(context.Background(), boot.Addr()); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	// A few deterministic gossip rounds give everyone full membership.
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		for _, nd := range started {
			if _, err := nd.GossipOnce(rng); err != nil {
				t.Fatalf("gossip: %v", err)
			}
		}
	}
	cleanup := func() {
		for _, nd := range started {
			nd.Close()
		}
	}
	return nodes, cleanup
}

// TestJoinAndGossipConverges: joins and gossip give every node, mobile or
// stationary, the whole stationary ring — and nothing else: the mobiles
// joined and gossiped too, yet no view holds one.
func TestJoinAndGossipConverges(t *testing.T) {
	names := []string{"s1", "s2", "s3", "m1", "m2"}
	nodes, cleanup := startCluster(t, names, map[string]bool{"m1": true, "m2": true}, nil)
	defer cleanup()
	for name, nd := range nodes {
		if got := nd.KnownPeers(); len(got) != 3 || slices.ContainsFunc(got, func(e wire.Entry) bool { return e.Mobile }) {
			t.Errorf("%s knows %v, want the 3 stationaries", name, got)
		}
	}
}

func TestPublishDiscoverRoundTrip(t *testing.T) {
	nodes, cleanup := startCluster(t, []string{"s1", "s2", "s3", "mob"},
		map[string]bool{"mob": true}, nil)
	defer cleanup()
	mob := nodes["mob"]
	if err := mob.PublishContext(context.Background()); err != nil {
		t.Fatalf("publish: %v", err)
	}
	addr, err := nodes["s1"].DiscoverContext(context.Background(), mob.Key())
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	if addr != mob.Addr() {
		t.Fatalf("discovered %s, want %s", addr, mob.Addr())
	}
}

func TestDiscoverUnknownKeyMisses(t *testing.T) {
	nodes, cleanup := startCluster(t, []string{"s1", "s2"}, nil, nil)
	defer cleanup()
	if _, err := nodes["s1"].DiscoverContext(context.Background(), hashkey.FromName("ghost")); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestRebindRepublishesAndReachable(t *testing.T) {
	nodes, cleanup := startCluster(t, []string{"s1", "s2", "s3", "mob"},
		map[string]bool{"mob": true}, nil)
	defer cleanup()
	mob := nodes["mob"]
	if err := mob.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	oldAddr := mob.Addr()
	if err := mob.RebindContext(context.Background(), ""); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	if mob.Addr() == oldAddr {
		t.Fatal("rebind kept the old address")
	}
	// The location layer serves the new address.
	addr, err := nodes["s1"].DiscoverContext(context.Background(), mob.Key())
	if err != nil {
		t.Fatalf("discover after rebind: %v", err)
	}
	if addr != mob.Addr() {
		t.Fatalf("discovered %s, want new %s", addr, mob.Addr())
	}
	// The old attachment point is really gone.
	if err := nodes["s1"].PingContext(context.Background(), oldAddr); err == nil {
		t.Fatal("old address still answers")
	}
	// The new one answers.
	if err := nodes["s1"].PingContext(context.Background(), mob.Addr()); err != nil {
		t.Fatalf("new address unreachable: %v", err)
	}
}

func TestRebindStationaryRejected(t *testing.T) {
	nodes, cleanup := startCluster(t, []string{"s1", "s2"}, nil, nil)
	defer cleanup()
	if err := nodes["s1"].RebindContext(context.Background(), ""); err == nil {
		t.Fatal("stationary node rebound")
	}
}

// TestStartTwiceErrs: a started node refuses a second Start and keeps its
// one listener, so no accept loop is orphaned and Close returns promptly.
func TestStartTwiceErrs(t *testing.T) {
	n := mustNode(t, Config{Name: "twice"}, transport.NewMem())
	if err := n.Start(""); err != nil {
		t.Fatal(err)
	}
	first := n.Addr()
	if err := n.Start(""); err == nil {
		t.Error("a second Start succeeded")
	}
	if n.Addr() != first {
		t.Errorf("the second Start moved the node from %s to %s", first, n.Addr())
	}
	closed := make(chan struct{})
	go func() {
		n.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind an orphaned accept loop")
	}
}

// TestRebindAfterCloseErrStopped: a closed node does not move — it opens
// no listener at the new address and says why.
func TestRebindAfterCloseErrStopped(t *testing.T) {
	mem := transport.NewMem()
	n := mustNode(t, Config{Name: "closed-mover", Mobile: true, RequestTimeout: time.Second}, mem)
	if err := n.Start(""); err != nil {
		t.Fatal(err)
	}
	n.Close()
	const next = "mem:after-close"
	if err := n.RebindContext(context.Background(), next); !errors.Is(err, ErrStopped) {
		t.Errorf("RebindContext on a closed node = %v, want ErrStopped", err)
	}
	if c, err := mem.Dial(next); err == nil {
		c.Close()
		t.Error("the closed node accepted a dial at the address it was asked to move to")
	}
}

func TestRegisterAndLDTUpdatePush(t *testing.T) {
	names := []string{"s1", "s2", "s3", "s4", "s5", "mob"}
	caps := map[string]float64{"s1": 5, "s2": 4, "s3": 3, "s4": 2, "s5": 1, "mob": 2}
	nodes, cleanup := startCluster(t, names, map[string]bool{"mob": true}, caps)
	defer cleanup()
	mob := nodes["mob"]
	if err := mob.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	// All five stationary nodes register interest.
	for _, s := range []string{"s1", "s2", "s3", "s4", "s5"} {
		if err := nodes[s].RegisterWithContext(context.Background(), mob.Addr()); err != nil {
			t.Fatalf("register %s: %v", s, err)
		}
	}
	if got := len(mob.Registry()); got != 5 {
		t.Fatalf("registry size %d, want 5", got)
	}

	if err := mob.RebindContext(context.Background(), ""); err != nil {
		t.Fatalf("rebind: %v", err)
	}

	// Every registrant receives the proactive update (directly or через
	// delegated re-advertisement), within a generous deadline.
	for _, s := range []string{"s1", "s2", "s3", "s4", "s5"} {
		select {
		case up := <-nodes[s].Updates():
			if up.Key != mob.Key() {
				t.Fatalf("%s got update for wrong key", s)
			}
			if up.Addr != mob.Addr() {
				t.Fatalf("%s got stale address %s, want %s", s, up.Addr, mob.Addr())
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never received the LDT update", s)
		}
	}
	// Registrants' caches now hold the fresh address.
	if addr, ok := nodes["s5"].CachedAddr(mob.Key()); !ok || addr != mob.Addr() {
		t.Fatalf("cache not refreshed: %v %v", addr, ok)
	}
}

func TestUpdateDelegationRecursion(t *testing.T) {
	// With a root of capacity 1 (overloaded after one message) the update
	// must fan out through delegates rather than directly — and still
	// reach everyone.
	names := []string{"a", "b", "c", "d", "e", "f", "g", "mob"}
	caps := map[string]float64{"mob": 1.5} // k = 1: single delegate chain
	for _, n := range names[:7] {
		caps[n] = 3
	}
	nodes, cleanup := startCluster(t, names, map[string]bool{"mob": true}, caps)
	defer cleanup()
	mob := nodes["mob"]
	for _, s := range names[:7] {
		if err := nodes[s].RegisterWithContext(context.Background(), mob.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if err := mob.RebindContext(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	for _, s := range names[:7] {
		select {
		case up := <-nodes[s].Updates():
			if up.Addr != mob.Addr() {
				t.Fatalf("%s got wrong address", s)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never received the delegated update", s)
		}
	}
}

func TestLeaseExpiryLive(t *testing.T) {
	mem := transport.NewMem()
	server := mustNode(t, Config{Name: "server", Capacity: 3}, mem)
	if err := server.Start(""); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	mob := mustNode(t, Config{Name: "mob", Capacity: 2, Mobile: true, LeaseTTL: 50 * time.Millisecond}, mem)
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
	// Fresh: resolvable.
	if _, err := server.DiscoverContext(context.Background(), mob.Key()); err != nil {
		t.Fatalf("fresh discover: %v", err)
	}
	time.Sleep(80 * time.Millisecond)
	// Expired: the record must no longer be served.
	if _, err := server.DiscoverContext(context.Background(), mob.Key()); err != ErrNotFound {
		t.Fatalf("expired discover: %v, want ErrNotFound", err)
	}
}

func TestPingPong(t *testing.T) {
	nodes, cleanup := startCluster(t, []string{"s1", "s2"}, nil, nil)
	defer cleanup()
	if err := nodes["s1"].PingContext(context.Background(), nodes["s2"].Addr()); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

func TestCloseIdempotentAndStopsServing(t *testing.T) {
	mem := transport.NewMem()
	nd := mustNode(t, Config{Name: "x", Capacity: 1}, mem)
	if err := nd.Start(""); err != nil {
		t.Fatal(err)
	}
	addr := nd.Addr()
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	other := mustNode(t, Config{Name: "y", Capacity: 1}, mem)
	if err := other.Start(""); err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.PingContext(context.Background(), addr); err == nil {
		t.Fatal("closed node still answers")
	}
}

func TestLiveOverTCP(t *testing.T) {
	// One end-to-end pass over real localhost sockets.
	tr := &transport.TCP{}
	server := mustNode(t, Config{Name: "tcp-server", Capacity: 3}, tr)
	if err := server.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	mob := mustNode(t, Config{Name: "tcp-mob", Capacity: 2, Mobile: true}, tr)
	if err := mob.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer mob.Close()

	watcher := mustNode(t, Config{Name: "tcp-watcher", Capacity: 2}, tr)
	if err := watcher.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()

	if err := mob.JoinViaContext(context.Background(), server.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := watcher.JoinViaContext(context.Background(), server.Addr()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3; i++ {
		mob.GossipOnce(rng)
		watcher.GossipOnce(rng)
		server.GossipOnce(rng)
	}

	if err := mob.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := watcher.RegisterWithContext(context.Background(), mob.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := mob.RebindContext(context.Background(), "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	select {
	case up := <-watcher.Updates():
		if up.Addr != mob.Addr() {
			t.Fatalf("TCP update has wrong address: %s vs %s", up.Addr, mob.Addr())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TCP watcher never received the update")
	}
	addr, err := watcher.DiscoverContext(context.Background(), mob.Key())
	if err != nil || addr != mob.Addr() {
		t.Fatalf("TCP discover: %v %s", err, addr)
	}
}

// mustNode builds a stopped node from a whole Config through newNode, the
// step New ends in, so a test's configuration is validated like any other.
func mustNode(tb testing.TB, cfg Config, tr transport.Transport) *Node {
	tb.Helper()
	n, err := newNode(cfg, tr)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// farOff is an attempt deadline for tests that call the pool directly and
// mean their ctx to decide.
func farOff() time.Time { return time.Now().Add(time.Minute) }

// ownersOf is key's replica set in contact order, as one discover orders it.
func (n *Node) ownersOf(key hashkey.Key) ([]wire.Entry, error) {
	var buf [8]wire.Entry
	owners, err := n.owners(buf[:0], key)
	return slices.Clone(owners), err
}
