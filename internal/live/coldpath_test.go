package live

// Tests for the cold resolve's shape: the flight that outlives its
// impatient leader, the one pooled timer per attempt, the breaker probe
// whose outcome is discarded, and replica selection against its
// reference.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// ringWithASilentReplica boots two replicas (chaosNodeConfig, as adjusted
// by configure), a target that publishes to both and a client, and makes
// the client ping both: both replicas measured and their sessions up, so
// the order a resolve uses is fixed, and the partition it then installs
// between the client and the replica asked first swallows frames on an
// established session instead of refusing a dial. It returns the client,
// the target and the silent replica's address.
func ringWithASilentReplica(t *testing.T, counters *metrics.Counters, configure func(*Config)) (client, target *Node, silent string) {
	t.Helper()
	faulty := transport.NewFaulty(transport.NewMem(), transport.FaultConfig{Seed: 1})
	names := []string{"r1", "r2", "target", "client"}
	nodes := map[string]*Node{}
	for _, name := range names {
		c := chaosNodeConfig(name, name == "target" || name == "client", nil)
		configure(&c)
		if name == "client" {
			c.Counters = counters
		}
		nd := mustNode(t, c, faulty.Endpoint(name))
		if err := nd.Start(""); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		nodes[name] = nd
		if name != "r1" {
			if err := nd.JoinViaContext(context.Background(), nodes["r1"].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	client, target = nodes["client"], nodes["target"]
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 3; round++ {
		for _, name := range names {
			if _, err := nodes[name].GossipOnce(rng); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := target.PublishContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"r1", "r2"} {
		if err := client.PingContext(context.Background(), nodes[r].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	owners, err := client.ownersOf(target.Key())
	if err != nil || len(owners) != 2 {
		t.Fatalf("owners = %v, %v", owners, err)
	}
	name := "r1"
	if owners[0].Addr == nodes["r2"].Addr() {
		name = "r2"
	}
	faulty.Partition("silence", []string{"client"}, []string{name})
	return client, target, owners[0].Addr
}

// TestImpatientResolverStillFailsOver: a caller whose ctx is shorter than
// RequestTimeout gives up on a silent first replica, and the resolution
// goes on without it — the breaker gets its evidence against the silent
// replica, the second replica answers, the cache is filled.
func TestImpatientResolverStillFailsOver(t *testing.T) {
	counters := metrics.NewCounters()
	client, target, silent := ringWithASilentReplica(t, counters, func(c *Config) { c.RetryAttempts = 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := client.ResolveContext(ctx, target.Key()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("impatient resolve: err = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Fatalf("the caller waited %v past a 50ms ctx", waited)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, ok := client.CachedAddr(target.Key()); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the flight never filled the cache: %s", counters)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if client.peers.get(silent, true).fails.Load() == 0 {
		t.Fatalf("no failure on record against the silent replica %s: %s", silent, counters)
	}
	before := counters.Get("resolve.discoveries")
	addr, err := client.ResolveContext(context.Background(), target.Key())
	if err != nil || addr != target.Addr() {
		t.Fatalf("later resolve = %q, %v; want %q", addr, err, target.Addr())
	}
	if got := counters.Get("resolve.discoveries"); got != before {
		t.Fatalf("later resolve went to the network (%d -> %d discoveries)", before, got)
	}
}

// TestResolveFailsOverPastASilentReplica: a cache-miss resolve under a ctx
// that never ends spends the silent first replica's attempts on it alone,
// then asks the second replica, which answers — as a forced discover
// does. With chaosNodeConfig's six attempts of 250ms the answer comes
// after about 1.6s.
func TestResolveFailsOverPastASilentReplica(t *testing.T) {
	counters := metrics.NewCounters()
	client, target, silent := ringWithASilentReplica(t, counters, func(*Config) {})
	start := time.Now()
	addr, err := client.ResolveContext(context.Background(), target.Key())
	if err != nil || addr != target.Addr() {
		t.Fatalf("resolve past the silent replica %s = %q, %v after %v; want %q: %s",
			silent, addr, err, time.Since(start), target.Addr(), counters)
	}
	if client.peers.get(silent, true).fails.Load() != 1 {
		t.Errorf("failures on record against the silent replica %s = %d, want its one exchange: %s",
			silent, client.peers.get(silent, true).fails.Load(), counters)
	}
}

// TestAttemptTimerNeverLeaksATick: exchanges whose replies race a tiny
// RequestTimeout return their waiters, deadlines included, to the pool;
// none of them may carry a deadline that fired, or is firing, into a later
// exchange, which would read it as its own.
func TestAttemptTimerNeverLeaksATick(t *testing.T) {
	mem := transport.NewMem()
	server := startPingServer(t, mem)
	counters := metrics.NewCounters()
	client := mustNode(t, Config{Name: "racer", RetryAttempts: 1, SuspicionThreshold: 1 << 30,
		RequestTimeout: 10 * time.Second, Counters: counters}, mem)
	defer client.Close()
	ctx := context.Background()
	if err := client.PingContext(ctx, server.l.Addr()); err != nil {
		t.Fatal(err)
	}
	// Every exchange under a deadline that lands about when its reply does
	// (the sweep crosses the round-trip time) is followed by one that cannot
	// time out and that takes the waiter the first just returned.
	for us := 1; us <= 60; us++ {
		for i := 0; i < 100; i++ {
			client.cfg.RequestTimeout = time.Duration(us) * time.Microsecond
			_ = client.PingContext(ctx, server.l.Addr()) // either outcome is fine
			before := counters.Get("rpc.timeouts")
			client.cfg.RequestTimeout = 10 * time.Second
			err := client.PingContext(ctx, server.l.Addr())
			if got := counters.Get("rpc.timeouts"); err != nil || got != before {
				t.Fatalf("after a %dus attempt, one under a 10s RequestTimeout: err = %v, rpc.timeouts %d -> %d",
					us, err, before, got)
			}
		}
	}
	if n := counters.Get("rpc.timeouts"); n == 0 || n == 6000 {
		t.Logf("the sweep did not straddle the round-trip time: %d of 6000 short attempts timed out", n)
	}
}

// silentListener accepts connections and never answers.
type silentListener struct {
	l     transport.Listener
	mu    sync.Mutex
	conns []transport.Conn
}

func startSilentListener(t *testing.T, tr transport.Transport, addr string) *silentListener {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &silentListener{l: l}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *silentListener) stop() {
	s.l.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
}

// TestAbandonedProbeDoesNotWedgeBreaker: the half-open probe is a call
// like any other, and its caller may give up on it. Its discarded outcome
// must not leave the breaker half-open, where every later call fails fast
// and nothing is ever admitted again.
func TestAbandonedProbeDoesNotWedgeBreaker(t *testing.T) {
	mem := transport.NewMem()
	counters := metrics.NewCounters()
	client := mustNode(t, Config{Name: "asker", RetryAttempts: 1, RequestTimeout: 30 * time.Millisecond,
		SuspicionThreshold: 1, SuspicionCooldown: 50 * time.Millisecond, Counters: counters}, mem)
	defer client.Close()
	const addr = "mem:flaky"
	silent := startSilentListener(t, mem, addr)
	if err := client.PingContext(context.Background(), addr); err == nil {
		t.Fatal("ping to a silent peer succeeded")
	}
	if got := counters.Get("breaker.trips"); got != 1 {
		t.Fatalf("breaker.trips = %d, want 1", got)
	}
	time.Sleep(60 * time.Millisecond) // past the cooldown: the next call is the probe
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	err := client.PingContext(ctx, addr)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) || counters.Get("breaker.probes") != 1 {
		t.Fatalf("abandoned probe: err = %v, breaker.probes = %d", err, counters.Get("breaker.probes"))
	}

	silent.stop()
	peer := mustNode(t, Config{Name: "back"}, mem)
	if err := peer.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := client.PingContext(context.Background(), addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer is back but still unreachable after 2s: %v (%s)", err, counters)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if s := client.Stats().Suspects; len(s) != 0 {
		t.Fatalf("Suspects = %v after a successful exchange", s)
	}
}

// referenceOrder is the contact order written out independently of
// OrderContacts: a stable sort by the library, suspects last, then
// ascending effective RTT, read from maps by address (missing: healthy,
// 0).
func referenceOrder(replicas []wire.Entry, suspect map[string]bool, eff map[string]time.Duration) {
	slices.SortStableFunc(replicas, func(a, b wire.Entry) int {
		if sa, sb := suspect[a.Addr], suspect[b.Addr]; sa != sb {
			if sb {
				return -1
			}
			return 1
		}
		return cmp.Compare(eff[a.Addr], eff[b.Addr])
	})
}

// referenceReplicas is replica selection written out independently of
// the ring walk: every candidate sorted by hashkey.Closer, then one stable
// pass that bubbles the closest candidate of each region not yet seen to
// the front, cut at k.
func referenceReplicas(cands []wire.Entry, key hashkey.Key, k, regions int) []wire.Entry {
	slices.SortFunc(cands, func(a, b wire.Entry) int {
		switch {
		case hashkey.Closer(key, a.Key, b.Key):
			return -1
		case hashkey.Closer(key, b.Key, a.Key):
			return 1
		}
		return 0
	})
	if k >= len(cands) {
		return cands
	}
	if regions < 2 {
		return cands[:k]
	}
	region := func(e wire.Entry) int { return hashkey.RegionIndex(hashkey.FullRing(), e.Key, regions) }
	taken := 0 // cands[:taken] are of distinct regions: the regions seen
	for i := 0; i < len(cands) && taken < k && taken < regions; i++ {
		ri := region(cands[i])
		if ri < 0 || slices.ContainsFunc(cands[:taken], func(e wire.Entry) bool { return region(e) == ri }) {
			continue
		}
		e := cands[i]
		copy(cands[taken+1:i+1], cands[taken:i])
		cands[taken] = e
		taken++
	}
	return cands[:k]
}

// TestReplicasMatchReference: SelectReplicas, and the node's owner
// selection (the ring walk in contact order), must return exactly what
// referenceReplicas and referenceOrder do. The rings have 1-80
// stationaries, past any fixed scratch size; regions are 0 or 2-5, k runs
// 1-6 (k at or past the ring's size included), the key sometimes equals a
// member's, and sometimes the two nearest members tie, reflected around
// it. The node reads suspicion and RTT from its peer records, some
// suspect, some unmeasured, the rest measured with ties.
func TestReplicasMatchReference(t *testing.T) {
	n := mustNode(t, Config{Name: "asker", SuspicionThreshold: 1}, transport.NewMem())
	defer n.Close()
	rng := rand.New(rand.NewSource(18))
	has := func(ring []wire.Entry, k hashkey.Key) bool {
		return slices.ContainsFunc(ring, func(e wire.Entry) bool { return e.Key == k })
	}
	for trial := 0; trial < 1000; trial++ {
		size := 1 + rng.Intn(80)
		ring := make([]wire.Entry, 0, size+1)
		for len(ring) < size {
			if k := hashkey.Random(rng); !has(ring, k) {
				ring = append(ring, wire.Entry{Key: k, Addr: fmt.Sprintf("peer-%d", len(ring))})
			}
		}
		key := hashkey.Random(rng)
		switch rng.Intn(8) {
		case 0:
			key = ring[rng.Intn(size)].Key
		case 1: // the nearest member's reflection around key ties with it
			near := referenceReplicas(slices.Clone(ring), key, 1, 0)[0]
			if mirror := key - (near.Key - key); !has(ring, mirror) {
				ring = append(ring, wire.Entry{Key: mirror, Addr: fmt.Sprintf("peer-%d", len(ring))})
			}
		}
		slices.SortFunc(ring, func(a, b wire.Entry) int { return cmp.Compare(a.Key, b.Key) })
		k, regions := 1+rng.Intn(6), []int{0, 2, 3, 4, 5}[rng.Intn(5)]
		want := referenceReplicas(slices.Clone(ring), key, k, regions)

		shuffled := slices.Clone(ring)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := SelectReplicas(shuffled, key, k, regions); !slices.Equal(got, want) {
			t.Fatalf("trial %d (ring %d, k %d, regions %d): SelectReplicas = %v, reference = %v",
				trial, len(ring), k, regions, addrsOf(got), addrsOf(want))
		}

		n.peers = peerTable{}
		n.members.view.Store(&memberView{ring: ring})
		n.cfg.Replication, n.cfg.Regions = k, make([]string, regions)
		suspect, eff := map[string]bool{}, map[string]time.Duration{}
		for _, e := range ring {
			switch rng.Intn(4) {
			case 0: // never reached: healthy, unmeasured
			case 1:
				n.peers.get(e.Addr, true).breakerResult(n, errors.New("lost"), false)
				suspect[e.Addr] = true
			default: // measured, with ties
				p := n.peers.get(e.Addr, true)
				p.observe(time.Duration(1+rng.Intn(3)) * time.Millisecond)
				eff[e.Addr], _ = p.estimate()
			}
		}
		referenceOrder(want, suspect, eff)
		got, err := n.ownersOf(key)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("trial %d (ring %d, k %d, regions %d): owners = %v, %v; reference = %v",
				trial, len(ring), k, regions, addrsOf(got), err, addrsOf(want))
		}
	}
}

// ringNode is a node that knows a ring of size stationaries and has
// measured every one of them, as a node that has run for a while does.
func ringNode(tb testing.TB, size int) *Node {
	n := mustNode(tb, Config{Name: "asker"}, transport.NewMem())
	rng := rand.New(rand.NewSource(int64(size)))
	for n.members.size() < size {
		e := wire.Entry{Key: hashkey.Random(rng), Addr: fmt.Sprintf("mem:peer-%d", n.members.size())}
		n.members.apply(direct, e)
		n.peers.get(e.Addr, true).observe(time.Duration(1+rng.Intn(5)) * time.Millisecond)
	}
	return n
}

// TestOwnersAllocateNothing: one discover's owner selection allocates
// nothing at a ring of 64 stationaries, which no fixed scratch sized for
// a small ring would hold.
func TestOwnersAllocateNothing(t *testing.T) {
	n := ringNode(t, 64)
	defer n.Close()
	rng := rand.New(rand.NewSource(64))
	var buf [8]wire.Entry
	allocs := testing.AllocsPerRun(200, func() {
		if owners, err := n.owners(buf[:0], hashkey.Random(rng)); err != nil || len(owners) != n.cfg.Replication {
			t.Fatalf("owners = %v, %v", addrsOf(owners), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("owner selection at a ring of 64: %.1f allocs per discover, want 0", allocs)
	}
}
