package live

// Tests for the one peer table: a peer is one record for as long as the
// node lives, whatever happens to its session and its breaker, and every
// reader of suspicion reads that record.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOnePeerRecordSurvivesSessionAndBreaker walks one address through a
// session teardown and re-dial, a breaker trip and close, and an idle
// eviction. It is the same *peer throughout — the table never holds a
// second record — and the RTT estimate keeps every sample it was fed.
func TestOnePeerRecordSurvivesSessionAndBreaker(t *testing.T) {
	const addr = "mem:home"
	mem := transport.NewMem()
	counters := metrics.NewCounters()
	client := mustNode(t, Config{Name: "client", RetryAttempts: 1, RequestTimeout: 200 * time.Millisecond,
		SuspicionThreshold: 1, SuspicionCooldown: 20 * time.Millisecond,
		Pool: PoolConfig{IdleTimeout: 40 * time.Millisecond}, Counters: counters}, mem)
	defer client.Close()
	ctx := context.Background()
	serve := func() *Node {
		nd := mustNode(t, Config{Name: "home"}, mem)
		if err := nd.Start(addr); err != nil {
			t.Fatal(err)
		}
		return nd
	}
	var p *peer
	check := func(stage string, samples uint32, suspect bool) {
		t.Helper()
		if got := client.peers.get(addr, false); got != p {
			t.Fatalf("%s: the table answers %p for %s, the exchanges used %p", stage, got, addr, p)
		}
		records := 0
		client.peers.each(func(*peer) { records++ })
		if _, n := p.rtt.Load(); records != 1 || n != samples || p.suspect() != suspect {
			t.Fatalf("%s: %d records, %d samples, suspect %v; want 1, %d, %v (%s)",
				stage, records, n, p.suspect(), samples, suspect, counters)
		}
	}
	sessionGone := func() bool { return client.Stats().PoolSessions == 0 }

	first := serve()
	if err := client.PingContext(ctx, addr); err != nil {
		t.Fatal(err)
	}
	p = client.peers.get(addr, false)
	if p == nil {
		t.Fatal("an exchange left no peer record")
	}
	check("first exchange", 1, false)

	first.Close() // the far end of the session dies: torn down, then one failure trips
	waitFor(t, "the broken session's teardown", sessionGone)
	if err := client.PingContext(ctx, addr); err == nil {
		t.Fatal("ping to a closed node succeeded")
	}
	check("tripped", 1, true)

	second := serve()
	defer second.Close()
	waitFor(t, "the probe to close the breaker", func() bool { return client.PingContext(ctx, addr) == nil })
	check("re-dialed and closed", 2, false)
	if dials, closes := counters.Get("pool.dials"), counters.Get("breaker.closes"); dials != 2 || closes != 1 {
		t.Fatalf("pool.dials = %d, breaker.closes = %d; want 2 and 1", dials, closes)
	}

	waitFor(t, "idle eviction", sessionGone)
	p.mu.Lock()
	sess := p.sess
	p.mu.Unlock()
	if sess != nil || counters.Get("pool.evictions.idle") == 0 {
		t.Fatalf("after idle eviction: sess = %p, pool.evictions.idle = %d", sess, counters.Get("pool.evictions.idle"))
	}
	check("evicted", 2, false)
	if err := client.PingContext(ctx, addr); err != nil {
		t.Fatal(err)
	}
	check("re-dialed after eviction", 3, false)
}

// TestSuspicionViewsAgree: Stats().Suspects, PeerRTTs[i].Suspect and the
// contact order's suspect reading are three readings of one record. While peers
// trip and recover under concurrent exchanges, every Stats snapshot agrees
// with itself; at rest, all three agree.
func TestSuspicionViewsAgree(t *testing.T) {
	mem := transport.NewMem()
	client := mustNode(t, Config{Name: "client", RetryAttempts: 1, RequestTimeout: 100 * time.Millisecond,
		SuspicionThreshold: 2, SuspicionCooldown: time.Millisecond}, mem)
	defer client.Close()
	ctx := context.Background()

	// Three peers that answer, three that come and go, three that never were.
	var addrs, flaky []string
	for i := 0; i < 9; i++ {
		addr := fmt.Sprintf("mem:peer-%d", i)
		addrs = append(addrs, addr)
		client.members.apply(direct, wire.Entry{Key: hashkey.Key(i + 1), Addr: addr})
		switch i % 3 {
		case 0:
			nd := mustNode(t, Config{Name: addr}, mem)
			if err := nd.Start(addr); err != nil {
				t.Fatal(err)
			}
			defer nd.Close()
		case 1:
			flaky = append(flaky, addr)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, addr := range flaky {
		wg.Add(1)
		go func(addr string) { // up for a moment, down for a moment
			defer wg.Done()
			for {
				nd, err := newNode(Config{Name: addr}, mem)
				if err == nil {
					err = nd.Start(addr)
				}
				if err != nil {
					t.Error(err)
					return
				}
				time.Sleep(3 * time.Millisecond)
				nd.Close()
				select {
				case <-stop:
					return
				case <-time.After(3 * time.Millisecond):
				}
			}
		}(addr)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
					_ = client.PingContext(ctx, addrs[i%len(addrs)]) // either outcome is the point
				}
			}
		}(w)
	}

	selfConsistent := func(st Stats) {
		t.Helper()
		for _, r := range st.PeerRTTs {
			if listed := slices.Contains(st.Suspects, r.Addr); listed != r.Suspect {
				t.Fatalf("one snapshot, two answers for %s: in Suspects %v, PeerRTTs.Suspect %v", r.Addr, listed, r.Suspect)
			}
		}
	}
	tripped := false
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		st := client.Stats()
		selfConsistent(st)
		tripped = tripped || len(st.Suspects) > 0
		if _, err := client.ownersOf(hashkey.Key(5)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if !tripped {
		t.Fatal("no peer was ever suspect: the test exercised nothing")
	}

	st := client.Stats()
	selfConsistent(st)
	for _, e := range client.KnownPeers() {
		flag := client.peers.get(e.Addr, false).suspect() // what the contact order reads
		if listed := slices.Contains(st.Suspects, e.Addr); listed != flag {
			t.Fatalf("%s: in Suspects %v, contacted as suspect %v", e.Addr, listed, flag)
		}
	}
}

// TestProbeSuspectsWaitsOutTheCooldown: ProbeSuspects pings a suspect only
// once its cooldown has passed. A peer still in cooldown costs no attempt
// and no fast-fail; once the cooldown is over, the probe goes out.
func TestProbeSuspectsWaitsOutTheCooldown(t *testing.T) {
	const addr = "mem:nobody"
	counters := metrics.NewCounters()
	client := mustNode(t, Config{Name: "client", RetryAttempts: 1, RequestTimeout: 100 * time.Millisecond,
		SuspicionThreshold: 1, SuspicionCooldown: time.Hour, Counters: counters}, transport.NewMem())
	defer client.Close()
	ctx := context.Background()
	if err := client.PingContext(ctx, addr); err == nil {
		t.Fatal("ping to an address nobody serves succeeded")
	}
	p := client.peers.get(addr, false)
	if !p.suspect() {
		t.Fatalf("one failure did not trip the breaker (%s)", counters)
	}

	fastfail, attempts := counters.Get("breaker.fastfail"), counters.Get("rpc.attempts")
	for i := 0; i < 3; i++ {
		client.ProbeSuspects(ctx)
	}
	if f, a := counters.Get("breaker.fastfail"), counters.Get("rpc.attempts"); f != fastfail || a != attempts {
		t.Fatalf("probing a peer in cooldown: breaker.fastfail %d → %d, rpc.attempts %d → %d; want both unchanged",
			fastfail, f, attempts, a)
	}

	p.mu.Lock()
	p.probeAt = time.Now() // the cooldown is over
	p.mu.Unlock()
	client.ProbeSuspects(ctx)
	if got := counters.Get("breaker.probes"); got != 1 {
		t.Fatalf("breaker.probes = %d after the cooldown, want 1", got)
	}
}

// TestPeerAdmissionLinear: admitting an unseen address costs the same
// however many the table already holds — a mobile peer takes a new address
// on every move, so admissions grow with the fleet. Ten times the
// admissions allocate about ten times the bytes; a table that copied
// itself on each admission would allocate about a hundred times.
func TestPeerAdmissionLinear(t *testing.T) {
	admit := func(n int) uint64 {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("mem:mobile-%d", i)
		}
		least := uint64(math.MaxUint64)
		for trial := 0; trial < 3; trial++ { // the least of three sheds other goroutines' allocations
			var tbl peerTable
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, a := range addrs {
				tbl.get(a, true)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := admit(1_000), admit(10_000)
	if ratio := float64(large) / float64(small); ratio > 30 {
		t.Fatalf("admitting 10,000 addresses allocated %d B, 1,000 allocated %d B: %.0f×, want at most 30×",
			large, small, ratio)
	}
}
