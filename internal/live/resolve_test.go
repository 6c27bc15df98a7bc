package live

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// resolveCluster boots stationary servers plus a client wired with a
// counter registry, all joined and gossiped to full membership.
func resolveCluster(t *testing.T, servers int) (client *Node, cluster []*Node, ctrs *metrics.Counters, cleanup func()) {
	t.Helper()
	mem := transport.NewMem()
	ctrs = metrics.NewCounters()
	var all []*Node
	for i := 0; i < servers; i++ {
		nd := mustNode(t, Config{Name: fmt.Sprintf("srv%d", i), Capacity: 4, RequestTimeout: time.Second}, mem)
		if err := nd.Start(""); err != nil {
			t.Fatalf("start: %v", err)
		}
		all = append(all, nd)
	}
	client = mustNode(t, Config{Name: "client", Capacity: 4, RequestTimeout: time.Second, Counters: ctrs}, mem)
	if err := client.Start(""); err != nil {
		t.Fatalf("start client: %v", err)
	}
	all = append(all, client)
	for _, nd := range all[1:] {
		if err := nd.JoinViaContext(context.Background(), all[0].Addr()); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 4; round++ {
		for _, nd := range all {
			if _, err := nd.GossipOnce(rng); err != nil {
				t.Fatalf("gossip: %v", err)
			}
		}
	}
	return client, all, ctrs, func() {
		for _, nd := range all {
			nd.Close()
		}
	}
}

// TestResolveStormSingleDiscovery is the concurrent-miss contract: a
// storm of ResolveContext calls for one uncached key must issue exactly
// one network _discovery — every other caller either coalesces onto the
// in-flight request or is answered by the lease it filled, at its first
// lookup or at the re-check of a flight it started after that one landed.
func TestResolveStormSingleDiscovery(t *testing.T) {
	client, cluster, ctrs, cleanup := resolveCluster(t, 3)
	defer cleanup()
	target := cluster[1]
	if err := target.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	const stormers = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < stormers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if addr, err := client.ResolveContext(context.Background(), target.Key()); err != nil || addr != target.Addr() {
				t.Errorf("storm resolve: %q %v, want %q", addr, err, target.Addr())
			}
		}()
	}
	close(start)
	wg.Wait()

	if got := ctrs.Get("resolve.discoveries"); got != 1 {
		t.Fatalf("resolve.discoveries = %d, want exactly 1 for %d concurrent misses", got, stormers)
	}
	coalesced := ctrs.Get("loccache.coalesced")
	hit := ctrs.Get("loccache.hit")
	if coalesced+hit != stormers-1 {
		t.Fatalf("coalesced(%d) + hit(%d) = %d, want %d (every non-leader served without a discovery)",
			coalesced, hit, coalesced+hit, stormers-1)
	}
}

// TestResolveCoalescesWaiters pins the join path: with a flight already
// in progress for the key, ResolveContext callers join it and zero
// network discoveries happen. (Exact N-waiters/1-fn coalescing is pinned
// deterministically by the loccache singleflight tests; here the flight
// also fills the cache, so even a caller that races past the flight's
// completion is answered without a discovery.)
func TestResolveCoalescesWaiters(t *testing.T) {
	client, _, ctrs, cleanup := resolveCluster(t, 2)
	defer cleanup()
	key := hashkey.FromName("slow")
	gate, started := make(chan struct{}), make(chan struct{})
	go client.flights.Do(context.Background(), key, func() (string, error) {
		close(started)
		<-gate
		client.loc.Put(key, "1.2.3.4:5", time.Minute)
		return "1.2.3.4:5", nil
	})
	<-started

	const waiters = 10
	var wg sync.WaitGroup
	var arrived atomic.Int32
	addrs := make([]string, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived.Add(1)
			addrs[i], errs[i] = client.ResolveContext(context.Background(), key)
		}(i)
	}
	// The flight cannot complete while the gate is shut, so every caller
	// that reaches the singleflight group before the gate opens joins it.
	for arrived.Load() != waiters {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	for i := 0; i < waiters; i++ {
		if errs[i] != nil || addrs[i] != "1.2.3.4:5" {
			t.Fatalf("waiter %d: %q %v", i, addrs[i], errs[i])
		}
	}
	if got := ctrs.Get("resolve.discoveries"); got != 0 {
		t.Fatalf("resolve.discoveries = %d, want 0 (all waiters joined the gated flight)", got)
	}
	if got := ctrs.Get("loccache.coalesced"); got == 0 {
		t.Fatal("no waiter coalesced onto the gated flight")
	}
}

// TestDiscoveredAddressGoesStale is the lease-propagation regression:
// a late-binding (DiscoverContext) result must carry the repository
// record's remaining lease into the client cache and expire there: once
// the lease lapses the entry reads as a Miss, never as a usable address.
func TestDiscoveredAddressGoesStale(t *testing.T) {
	mem := transport.NewMem()
	server := mustNode(t, Config{Name: "server", Capacity: 3}, mem)
	if err := server.Start(""); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	mob := mustNode(t, Config{Name: "mob", Capacity: 2, Mobile: true, LeaseTTL: 150 * time.Millisecond}, mem)
	if err := mob.Start(""); err != nil {
		t.Fatal(err)
	}
	defer mob.Close()
	watcher := mustNode(t, Config{Name: "watcher", Capacity: 2, RequestTimeout: time.Second}, mem)
	if err := watcher.Start(""); err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	for _, nd := range []*Node{mob, watcher} {
		if err := nd.JoinViaContext(context.Background(), server.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3; i++ {
		server.GossipOnce(rng)
		mob.GossipOnce(rng)
		watcher.GossipOnce(rng)
	}
	if err := mob.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	addr, err := watcher.DiscoverContext(context.Background(), mob.Key())
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	if got, ok := watcher.CachedAddr(mob.Key()); !ok || got != addr {
		t.Fatalf("discover result not cached fresh: %q %v", got, ok)
	}

	time.Sleep(250 * time.Millisecond) // past the 150ms lease
	if got, ok := watcher.CachedAddr(mob.Key()); ok {
		t.Fatalf("discovered address still fresh after its lease lapsed: %q", got)
	}
	if got, ok := watcher.loc.Peek(mob.Key()); ok || got != "" {
		t.Fatalf("entry %q %v after lease lapse, want a miss", got, ok)
	}
}

// TestStoreAndCacheRoles pins the two location maps' roles: a publish
// lands in the repository fragment (store) and is served to _discovery;
// a TUpdate push lands in the learned-location cache and is NOT served
// to _discovery; answering a _discovery writes neither.
func TestStoreAndCacheRoles(t *testing.T) {
	mem := transport.NewMem()
	n := mustNode(t, Config{Name: "subject", Capacity: 2}, mem)
	if err := n.Start(""); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	published := hashkey.FromName("published")
	pushed := hashkey.FromName("pushed")

	n.handlePublishBatch(publishOf(wire.Entry{Key: published, Addr: "10.0.0.1:1"}))
	n.handleUpdate(&wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: pushed, Addr: "10.0.0.2:2"}})

	// The publication is served to the network but is not a learned
	// location of this node's own.
	if resp := n.handleDiscover(&wire.Message{Type: wire.TDiscover, Key: published}); !resp.Found {
		t.Fatal("published record not served to _discovery")
	}
	if _, ok := n.CachedAddr(published); ok {
		t.Fatal("publication leaked into the location cache")
	}

	// The push is a learned location but must never be served to the
	// network: the pusher did not publish to us as an owner.
	if addr, ok := n.CachedAddr(pushed); !ok || addr != "10.0.0.2:2" {
		t.Fatalf("update push not cached: %q %v", addr, ok)
	}
	if resp := n.handleDiscover(&wire.Message{Type: wire.TDiscover, Key: pushed}); resp.Found {
		t.Fatal("pushed (hearsay) location served to _discovery")
	}

	// Answering a discovery changes neither map.
	before := n.Stats().CacheEntries
	n.handleDiscover(&wire.Message{Type: wire.TDiscover, Key: published})
	if n.Stats().CacheEntries != before {
		t.Fatal("serving a discovery populated the server's own cache")
	}
}

// TestResolveHotPathServesFromCache: after one discovery the resolve hot
// path answers from the lease without any network traffic.
func TestResolveHotPathServesFromCache(t *testing.T) {
	client, cluster, ctrs, cleanup := resolveCluster(t, 3)
	defer cleanup()
	target := cluster[1] // any stationary peer publishes itself
	if err := target.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		addr, err := client.ResolveContext(context.Background(), target.Key())
		if err != nil || addr != target.Addr() {
			t.Fatalf("resolve %d: %q %v", i, addr, err)
		}
	}
	if got := ctrs.Get("resolve.discoveries"); got != 1 {
		t.Fatalf("resolve.discoveries = %d, want 1 (nine hot hits)", got)
	}
	if got := ctrs.Get("loccache.hit"); got != 9 {
		t.Fatalf("loccache.hit = %d, want 9", got)
	}
}

// TestResolveNegativeCaching: a "no record" answer is not cached — each
// resolve of a missing key asks the replicas again, so a record published
// a moment later is found by the next resolve.
func TestResolveNegativeCaching(t *testing.T) {
	client, _, ctrs, cleanup := resolveCluster(t, 2)
	defer cleanup()
	ghost := hashkey.FromName("ghost")
	for i := 0; i < 5; i++ {
		if _, err := client.ResolveContext(context.Background(), ghost); !errors.Is(err, ErrNotFound) {
			t.Fatalf("resolve %d: %v", i, err)
		}
	}
	if got := ctrs.Get("resolve.discoveries"); got != 5 {
		t.Fatalf("resolve.discoveries = %d, want 5 (one per resolve)", got)
	}
}

// TestResolveStaleWhileRevalidate: a lapsed lease is never answered —
// the resolve asks the replicas and returns the current address.
func TestResolveStaleWhileRevalidate(t *testing.T) {
	client, cluster, ctrs, cleanup := resolveCluster(t, 3)
	defer cleanup()
	target := cluster[1]
	if err := target.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Plant an entry with a superseded address and let its lease lapse.
	client.loc.Put(target.Key(), "old-stale-addr", time.Millisecond)
	time.Sleep(5 * time.Millisecond)

	addr, err := client.ResolveContext(context.Background(), target.Key())
	if err != nil || addr != target.Addr() {
		t.Fatalf("resolve after the lease lapsed returned %q %v, want %q", addr, err, target.Addr())
	}
	if got := ctrs.Get("resolve.discoveries"); got != 1 {
		t.Fatalf("resolve.discoveries = %d, want 1", got)
	}
	if got, ok := client.CachedAddr(target.Key()); !ok || got != target.Addr() {
		t.Fatalf("cache after the resolve: %q %v, want %q fresh", got, ok, target.Addr())
	}
}

// TestResolveConcurrentKeysRaceClean drives many goroutines through the
// full resolve path over distinct and shared keys — shard contention,
// coalescing, and write-through all under the race detector.
func TestResolveConcurrentKeysRaceClean(t *testing.T) {
	client, cluster, _, cleanup := resolveCluster(t, 4)
	defer cleanup()
	var keys []hashkey.Key
	for _, nd := range cluster[:4] {
		if err := nd.PublishContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, nd.Key())
	}
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keys[(w+i)%len(keys)]
				if _, err := client.ResolveContext(context.Background(), k); err != nil {
					t.Errorf("worker %d resolve %v: %v", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
