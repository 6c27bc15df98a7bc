package live

// Tests for the cold resolve's shape: the flight that outlives its
// impatient leader, the one pooled timer per attempt, the breaker probe
// whose outcome is discarded, and the ranking against its reference.

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

// TestImpatientResolverStillFailsOver: a caller whose ctx is shorter than
// RequestTimeout gives up on a silent first replica, and the resolution
// goes on without it — the breaker gets its evidence against the silent
// replica, the second replica answers, the cache is filled.
func TestImpatientResolverStillFailsOver(t *testing.T) {
	counters := metrics.NewCounters()
	faulty := transport.NewFaulty(transport.NewMem(), transport.FaultConfig{Seed: 1})
	names := []string{"r1", "r2", "target", "client"}
	cfg := func(name string) Config {
		c := chaosNodeConfig(name, name == "target" || name == "client", nil)
		c.RetryAttempts = 1
		c.RetryBudget = 2 * time.Second // one budget per discover: room for the second replica
		return c
	}
	nodes := map[string]*Node{}
	for _, name := range names {
		c := cfg(name)
		if name == "client" {
			c.Counters = counters
		}
		nd := mustNode(t, c, faulty.Endpoint(name))
		if err := nd.Start(""); err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		nodes[name] = nd
		if name != "r1" {
			if err := nd.JoinViaContext(context.Background(), nodes["r1"].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	client, target := nodes["client"], nodes["target"]
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
	// Both replicas measured and their sessions up: the order below is the
	// order the resolve will use, and a partition now swallows frames on an
	// established session instead of refusing a dial.
	for _, r := range []string{"r1", "r2"} {
		if err := client.PingContext(context.Background(), nodes[r].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	owners, err := client.ownersOf(target.Key(), 2)
	if err != nil || len(owners) != 2 {
		t.Fatalf("owners = %v, %v", owners, err)
	}
	silent := "r1"
	if owners[0].Addr == nodes["r2"].Addr() {
		silent = "r2"
	}
	faulty.Partition("silence", []string{"client"}, []string{silent})

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
	if client.peers.get(owners[0].Addr, true).fails.Load() == 0 {
		t.Fatalf("no failure on record against the silent replica %s: %s", owners[0].Addr, counters)
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

// TestRankingMatchesReference: ranking.owners reads suspicion and RTT from
// arrays parallel to the ring where OrderReplicas reads maps, and orders
// only the selected; over rings of 1-40 stationaries, with and without
// regions, suspects and partial RTT knowledge, it must return exactly
// OrderReplicas(SelectReplicas(...)).
func TestRankingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 1000; trial++ {
		n := 1 + rng.Intn(40)
		ring := make([]wire.Entry, 0, n)
		for len(ring) < n {
			k := hashkey.Random(rng)
			if !slices.ContainsFunc(ring, func(e wire.Entry) bool { return e.Key == k }) {
				ring = append(ring, wire.Entry{Key: k, Addr: fmt.Sprintf("peer-%d", len(ring))})
			}
		}
		slices.SortFunc(ring, func(a, b wire.Entry) int { return cmp.Compare(a.Key, b.Key) })
		rk := ranking{ring: ring, eff: make([]time.Duration, n), cands: slices.Clone(ring)}
		if rng.Intn(2) == 0 {
			rk.regions = 2 + rng.Intn(4)
		}
		eff := map[string]time.Duration{}
		for i, e := range ring {
			if rng.Intn(3) > 0 { // measured, with ties; the rest compare at zero
				rk.eff[i] = time.Duration(1+rng.Intn(3)) * time.Millisecond
				eff[e.Addr] = rk.eff[i]
			}
		}
		var suspect map[string]bool
		if rng.Intn(2) == 0 {
			suspect = map[string]bool{}
			rk.suspect = make([]bool, n)
			for i, e := range ring {
				if rk.suspect[i] = rng.Intn(4) == 0; rk.suspect[i] {
					suspect[e.Addr] = true
				}
			}
		}
		k := 1 + rng.Intn(5)
		key := hashkey.Random(rng)
		if rng.Intn(8) == 0 {
			key = ring[rng.Intn(n)].Key
		}
		want := SelectReplicas(slices.Clone(ring), key, k, rk.regions)
		OrderReplicas(want, suspect, eff)
		got := rk.owners(key, k)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (ring %d, k %d, regions %d, suspects %v): owners = %v, reference = %v",
				trial, n, k, rk.regions, suspect != nil, addrsOf(got), addrsOf(want))
		}
	}
}
