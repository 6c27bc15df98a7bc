package live

// Tests for the LDT push path as it is: fanOut hands each head's TUpdate
// straight to the head's pooled session. What a sender-side queue once
// promised is pinned here against the mechanisms that keep it — FIFO
// sessions and forwarding on the reader (no registrant is pushed
// backwards), the pool's life (epoch_test.go's TestCloseUnblocksLDTFanOut),
// sessions that dial on their own (a black-holed head delays nobody), and
// the handler owning its sends (no goroutine is left behind).

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/ldt"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// startRegistrants boots count stationary nodes named prefix00… on tr(name)
// and registers each with target.
func startRegistrants(t *testing.T, tr func(name string) transport.Transport, prefix string, count int, cfg Config, target *Node) []*Node {
	t.Helper()
	regs := make([]*Node, count)
	for i := range regs {
		cfg.Name = fmt.Sprintf("%s%02d", prefix, i)
		regs[i] = mustNode(t, cfg, tr(cfg.Name))
		if err := regs[i].Start(""); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { regs[i].Close() })
		if err := regs[i].RegisterWithContext(context.Background(), target.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	return regs
}

// shared puts every registrant on the one transport tr.
func shared(tr transport.Transport) func(string) transport.Transport {
	return func(string) transport.Transport { return tr }
}

// holding counts the nodes whose cache holds addr for key.
func holding(nodes []*Node, key hashkey.Key, addr string) int {
	held := 0
	for _, nd := range nodes {
		if got, ok := nd.CachedAddr(key); ok && got == addr {
			held++
		}
	}
	return held
}

// TestMoverOutrunsItsTree moves a mobile twenty times back to back, faster
// than its 32-registrant tree delivers, over links of three delays with
// and without duplication. Nothing on the sending side merges the pushes;
// no registrant may ever step back, every cache must end on the final
// address, and on a clean link every push must arrive once and in order.
// The counts are logged for EXPERIMENTS.md's ablation table.
func TestMoverOutrunsItsTree(t *testing.T) {
	const registrants, moves = 32, 20
	for _, link := range []struct {
		delay time.Duration
		dup   float64
	}{{0, 0}, {2 * time.Millisecond, 0}, {10 * time.Millisecond, 0}, {0, 0.35}, {2 * time.Millisecond, 0.35}, {10 * time.Millisecond, 0.35}} {
		t.Run(fmt.Sprintf("delay=%v/dup=%v", link.delay, link.dup), func(t *testing.T) {
			faulty := transport.NewFaulty(transport.NewMem(), transport.FaultConfig{Seed: 7})
			counters := metrics.NewCounters() // the ring receives no updates: these are the registrants'
			ring, cleanup := startChaosRing(t, faulty, []string{"s1", "s2", "s3", "mob"}, map[string]bool{"mob": true}, counters)
			defer cleanup()
			mob := ring["mob"]
			if err := mob.PublishContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			regs := startRegistrants(t, faulty.Endpoint, "r", registrants, chaosNodeConfig("", false, counters), mob)

			// Every registrant's application drains its update stream as a
			// real one would, recording the addresses in arrival order.
			streams := make([][]string, registrants)
			stop := make(chan struct{})
			var drains sync.WaitGroup
			for i, nd := range regs {
				drains.Add(1)
				go func() {
					defer drains.Done()
					for {
						select {
						case u := <-nd.Updates():
							if u.Key == mob.Key() {
								streams[i] = append(streams[i], u.Addr)
							}
						case <-stop:
							return
						}
					}
				}()
			}

			// Jitter rides on top of the link's delay only under duplication:
			// the clean sub-cases keep every frame of a link equally late.
			fc := transport.FaultConfig{Seed: 7, Duplicate: link.dup, DelayMin: link.delay, DelayMax: link.delay}
			if link.dup > 0 {
				fc.DelayMax = link.delay + 5*time.Millisecond
			}
			faulty.SetConfig(fc)
			moveOf := map[string]int{mob.Addr(): 0}
			start := time.Now()
			for m := 1; m <= moves; m++ {
				if err := mob.RebindContext(context.Background(), ""); err != nil {
					t.Fatalf("move %d: %v", m, err)
				}
				moveOf[mob.Addr()] = m
			}
			moved := time.Now()
			final := mob.Addr()
			for deadline := moved.Add(10 * time.Second); holding(regs, mob.Key(), final) < registrants; {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d registrants hold the final address", holding(regs, mob.Key(), final), registrants)
				}
				time.Sleep(time.Millisecond)
			}
			converged := time.Since(moved)

			// Every push received was applied or rejected as stale, once the
			// frames still in flight have landed.
			get := counters.Get
			waitFor(t, "updates.received == applied + stale_rejected", func() bool {
				before := get("updates.received")
				time.Sleep(20 * time.Millisecond)
				return before == get("updates.received") &&
					before == get("updates.applied")+get("updates.stale_rejected")
			})
			close(stop)
			drains.Wait()
			for i, stream := range streams {
				last := 0
				for _, addr := range stream {
					m, ok := moveOf[addr]
					if !ok || m < last {
						t.Fatalf("registrant %d stepped back: move %d (%s) after move %d; stream %v", i, m, addr, last, stream)
					}
					last = m
				}
				if last != moves {
					t.Errorf("registrant %d's stream ended on move %d, want %d", i, last, moves)
				}
			}
			if got := holding(regs, mob.Key(), final); got != registrants {
				t.Errorf("a late frame displaced the final address at %d registrants", registrants-got)
			}
			// Over an unchanged registry every move builds the same tree, so
			// consecutive epochs reach a registrant down the same chain of
			// FIFO sessions, each relay forwarding on the reader that received
			// them: on a clean link, however fast the moves, nothing arrives
			// out of order and nothing is pruned.
			if link.dup == 0 {
				if r, s := get("updates.received"), get("updates.stale_rejected"); r != moves*registrants || s != 0 {
					t.Errorf("updates.received %d, stale_rejected %d; want %d and 0: the moves took different paths", r, s, moves*registrants)
				}
			}
			t.Logf("received %d applied %d stale_rejected %d; %d moves in %v, converged %v after the last",
				get("updates.received"), get("updates.applied"), get("updates.stale_rejected"),
				moves, moved.Sub(start).Round(time.Millisecond), converged.Round(100*time.Microsecond))
		})
	}
}

// TestUpdateRegistrySameHeadsEveryMove: the tree is a function of the
// registry, not of map order. Twelve registrants of equal capacity under a
// capacity-4 mover leave the heads to the tie-break alone; two pushes over
// the unchanged registry must choose the same four, so the second rides
// the sessions the first opened and dials nothing.
func TestUpdateRegistrySameHeadsEveryMove(t *testing.T) {
	mem := transport.NewMem()
	counters, received := metrics.NewCounters(), metrics.NewCounters()
	mover := mustNode(t, Config{Name: "mover", Capacity: 4, RequestTimeout: time.Second, Counters: counters}, mem)
	if err := mover.Start(""); err != nil {
		t.Fatal(err)
	}
	defer mover.Close()
	regs := startRegistrants(t, shared(mem), "w", 12, Config{Capacity: 2, RequestTimeout: time.Second, Counters: received}, mover)

	heads := func() (addrs []string) {
		for _, s := range mover.pool.current() {
			addrs = append(addrs, s.peer.addr)
		}
		slices.Sort(addrs)
		return addrs
	}
	push := func(want uint64) {
		t.Helper()
		if err := mover.UpdateRegistryContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		// One push to m live registrants on a clean link is received exactly
		// m times in total across the tree.
		waitFor(t, "the push to reach every registrant", func() bool { return received.Get("updates.received") >= want })
		time.Sleep(20 * time.Millisecond)
		if got := received.Get("updates.received"); got != want {
			t.Fatalf("updates.received = %d, want %d", got, want)
		}
	}
	push(uint64(len(regs)))
	first, dials := heads(), counters.Get("pool.dials")
	if len(first) != 4 {
		t.Fatalf("the mover holds sessions to %v, want its 4 heads", first)
	}
	push(2 * uint64(len(regs)))
	if second := heads(); !slices.Equal(first, second) {
		t.Errorf("heads changed over an unchanged registry: %v then %v", first, second)
	}
	if got := counters.Get("pool.dials") - dials; got != 0 {
		t.Errorf("the second push dialed %d new heads, want 0", got)
	}
}

// TestFanOutTravelsBuildsTree: a push reaches every registrant from the
// parent ldt.Build gives it over the mover's registry, since each hop deals
// one Figure-4 level and each head re-deals the rest of its partition as
// Build recurses. Faulty's Latency hook sees every frame's link, so each
// registrant's sender is read off the wire, at 32 and 256 registrants of
// equal capacity (ties left to the tie-break alone) and of mixed ones
// (overloaded capacity-1 heads among them).
func TestFanOutTravelsBuildsTree(t *testing.T) {
	equal := func(int) float64 { return 4 }
	mixed := func(i int) float64 { return float64(1 + i*5%7) }
	for _, tc := range []struct {
		registrants int
		caps        string
		capacity    func(i int) float64
	}{{32, "equal", equal}, {32, "mixed", mixed}, {256, "equal", equal}, {256, "mixed", mixed}} {
		t.Run(fmt.Sprintf("%d/%s", tc.registrants, tc.caps), func(t *testing.T) {
			faulty := transport.NewFaulty(transport.NewMem(), transport.FaultConfig{Seed: 1})
			mover := mustNode(t, Config{Name: "mover", Capacity: 4, RequestTimeout: time.Second}, faulty.Endpoint("mover"))
			if err := mover.Start(""); err != nil {
				t.Fatal(err)
			}
			defer mover.Close()
			received := metrics.NewCounters()
			nameOf := map[string]string{} // listener address → endpoint name
			for i := 0; i < tc.registrants; i++ {
				cfg := Config{Name: fmt.Sprintf("r%03d", i), Capacity: tc.capacity(i), RequestTimeout: time.Second, Counters: received}
				nd := mustNode(t, cfg, faulty.Endpoint(cfg.Name))
				if err := nd.Start(""); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { nd.Close() })
				if err := nd.RegisterWithContext(context.Background(), mover.Addr()); err != nil {
					t.Fatal(err)
				}
				nameOf[nd.Addr()] = cfg.Name
			}

			// From here on, every frame a dialer sends is the push's.
			var mu sync.Mutex
			senders := map[string][]string{} // endpoint → who sent it frames
			faulty.SetConfig(transport.FaultConfig{Seed: 1, Latency: func(from, to string) time.Duration {
				if to != "" {
					mu.Lock()
					senders[to] = append(senders[to], from)
					mu.Unlock()
				}
				return 0
			}})
			reg := mover.Registry()
			if err := mover.UpdateRegistryContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the push to reach every registrant", func() bool {
				return received.Get("updates.received") == uint64(tc.registrants)
			})

			members := make([]ldt.Member, len(reg))
			for i, e := range reg {
				members[i] = ldt.Member{ID: int32(i + 1), Capacity: e.Capacity}
			}
			tree, err := ldt.Build(ldt.Member{Capacity: mover.cfg.Capacity}, members, ldt.Params{UnitCost: 1})
			if err != nil {
				t.Fatal(err)
			}
			parent := map[string]string{}
			var walk func(*ldt.Node, string)
			walk = func(nd *ldt.Node, name string) {
				for _, c := range nd.Children {
					child := nameOf[reg[c.Member.ID-1].Addr]
					parent[child] = name
					walk(c, child)
				}
			}
			walk(tree.Root, "mover")
			if len(parent) != tc.registrants {
				t.Fatalf("ldt.Build placed %d of %d registrants", len(parent), tc.registrants)
			}
			mu.Lock()
			defer mu.Unlock()
			wrong := 0
			for name, want := range parent {
				if got := senders[name]; len(got) != 1 || got[0] != want {
					if wrong++; wrong <= 3 {
						t.Errorf("%s got the push from %v, want %s", name, got, want)
					}
				}
			}
			if wrong > 0 {
				t.Errorf("%d of %d registrants got the push from a parent other than ldt.Build's", wrong, tc.registrants)
			}
		})
	}
}

// TestFanOutUnreachableHeadDelaysNoOther: one head is a black hole (its
// dial parks until RequestTimeout) beside two live heads. The live heads'
// subtrees hold the new address well inside RequestTimeout, a second push
// started behind the parked dial reaches them too, and both pushes return
// nil before the dial ends — a push waits on no dial, and a dead head is
// late binding's problem, not the caller's.
func TestFanOutUnreachableHeadDelaysNoOther(t *testing.T) {
	const requestTimeout = time.Second
	mem := transport.NewMem()
	bl, err := mem.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()
	for i := 0; i < 64; i++ { // fill the accept backlog nobody drains
		c, err := mem.Dial(bl.Addr())
		if err != nil {
			t.Fatalf("backlog fill %d: %v", i, err)
		}
		defer c.Close()
	}

	mover := mustNode(t, Config{Name: "mover", Capacity: 3, RequestTimeout: requestTimeout}, mem)
	if err := mover.Start(""); err != nil {
		t.Fatal(err)
	}
	defer mover.Close()
	received := metrics.NewCounters()
	regs := startRegistrants(t, shared(mem), "w", 6, Config{Capacity: 2, RequestTimeout: requestTimeout, Counters: received}, mover)
	// The black hole registers with the highest capacity, which makes it a
	// head whatever the keys are: of the six live registrants, the four
	// dealt to the two live heads' partitions are reachable.
	hole := wire.Entry{Key: hashkey.FromName("hole"), Addr: bl.Addr(), Capacity: 9}
	mover.registry.put(registration{entry: hole})
	const reachable = 4

	start := time.Now()
	pushes := make(chan error, 2)
	push := func() { pushes <- mover.UpdateRegistryContext(context.Background()) }
	go push()
	waitFor(t, "the live heads' subtrees to hold the address", func() bool {
		return holding(regs, mover.Key(), mover.Addr()) == reachable
	})
	go push() // the first is still parked in the black hole's dial
	waitFor(t, "the second push to reach the live subtrees", func() bool {
		return received.Get("updates.received") == 2*reachable
	})
	if elapsed := time.Since(start); elapsed > requestTimeout/2 {
		t.Errorf("live subtrees waited %v behind the black-holed head (RequestTimeout %v)", elapsed, requestTimeout)
	}
	for i := 0; i < 2; i++ {
		if err := <-pushes; err != nil {
			t.Errorf("UpdateRegistryContext = %v, want nil: a failed head is logged, not returned", err)
		}
	}
	if elapsed := time.Since(start); elapsed >= requestTimeout {
		t.Errorf("the pushes returned after %v, want before the black hole's dial ends (RequestTimeout %v)", elapsed, requestTimeout)
	}
	if got := received.Get("updates.received"); got != 2*reachable {
		t.Errorf("updates.received = %d, want %d", got, 2*reachable)
	}
}

// TestFanOutLeavesNoGoroutine: once a push has completed, neither the
// pushing node nor a relaying one runs a goroutine that exists only to
// forward updates. Every session the push can use is opened beforehand, so
// the goroutine count after it must be the count before it.
func TestFanOutLeavesNoGoroutine(t *testing.T) {
	mem := transport.NewMem()
	mover := mustNode(t, Config{Name: "mover", Capacity: 2, RequestTimeout: time.Second}, mem)
	if err := mover.Start(""); err != nil {
		t.Fatal(err)
	}
	defer mover.Close()
	received := metrics.NewCounters()
	regs := startRegistrants(t, shared(mem), "w", 6, Config{Capacity: 2, RequestTimeout: time.Second, Counters: received}, mover)
	for _, from := range append([]*Node{mover}, regs...) {
		for _, to := range regs {
			if from != to {
				if err := from.PingContext(context.Background(), to.Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	baseline := runtime.NumGoroutine()

	if err := mover.UpdateRegistryContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Two heads, six registrants: some frames were relayed.
	waitFor(t, "the push to reach every registrant", func() bool {
		return received.Get("updates.received") == uint64(len(regs))
	})
	waitFor(t, "the goroutine count to return to its baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}
