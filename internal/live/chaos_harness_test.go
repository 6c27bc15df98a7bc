// Chaos acceptance tests rewired onto the scenario harness
// (internal/harness): the harness owns cluster bootstrap, fault
// injection, partitions, update draining, and leak-checked shutdown;
// the tests script the story and assert through the cluster's
// observable surface. They live in package live_test because the
// harness itself imports live.
package live_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"bristle/internal/harness"
	"bristle/internal/live"
	"bristle/internal/transport"
)

// TestChaosRingConvergesUnderLossDelayAndPartition is the acceptance
// scenario: an 8-node live ring under 20% seeded frame loss and ~50ms
// p95 injected delay, with a 2-node island partitioned away and healed
// mid-run. Every member completes publish → move → discover → LDT
// update; no discovery ever returns ErrNotFound; retries and breaker
// trips are observable on the counters. Deterministic under seed 42;
// run with -race.
func TestChaosRingConvergesUnderLossDelayAndPartition(t *testing.T) {
	mainland := []string{"s1", "s2", "s3", "s4", "s5", "m1"}
	island := []string{"s6", "m2"}
	c, err := harness.New(harness.Config{
		Seed:        42,
		Stationary:  []string{"s1", "s2", "s3", "s4", "s5", "s6"},
		Mobile:      []string{"m1", "m2"},
		Replication: 2,
		Faults:      transport.FaultConfig{Drop: 0.20, DelayMax: 52 * time.Millisecond},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	must := func(what string, d time.Duration, op func() error) {
		t.Helper()
		if err := harness.Eventually(d, op); err != nil {
			t.Fatalf("%s: still failing at deadline: %v", what, err)
		}
	}
	// discoverFresh forces late binding (always network) and requires the
	// target's current address; ErrNotFound is forbidden outright — the
	// record must never drop out of the repository.
	discoverFresh := func(from, target string) {
		t.Helper()
		must(from+" discover "+target, 20*time.Second, func() error {
			addr, err := c.Node(from).DiscoverContext(context.Background(), c.Key(target))
			if errors.Is(err, live.ErrNotFound) {
				t.Fatalf("%s discover %s: hit forbidden ErrNotFound", from, target)
			}
			if err != nil {
				return err
			}
			if addr != c.Addr(target) {
				return errors.New("stale address " + addr)
			}
			return nil
		})
	}

	// Cut the island off in both directions. The fault profile is already
	// live: from here every frame faces 20% loss and 0–52ms extra latency.
	if err := c.Partition("island", island, mainland); err != nil {
		t.Fatal(err)
	}

	// Mainland flow under loss: m1 publishes, every mainland stationary
	// node registers interest, m1 moves.
	must("m1 publish", 20*time.Second, func() error { return c.Publish("m1") })
	for _, w := range []string{"s1", "s2", "s3", "s4", "s5"} {
		w := w
		must(w+" register", 20*time.Second, func() error { return c.Register(w, "m1") })
	}
	must("m1 move", 20*time.Second, func() error { return c.Move("m1") })

	// Discovery under loss, across replicas, with zero ErrNotFound: every
	// mainland node resolves m1's fresh address.
	for _, w := range mainland {
		if w == "m1" {
			continue
		}
		discoverFresh(w, "m1")
	}

	// LDT update delivery under loss: each push is best-effort per
	// transmission, so the mobile re-advertises until every registrant has
	// observed the post-move address (the harness drains Updates() into
	// Observed).
	must("LDT update delivery", 30*time.Second, func() error {
		for _, w := range c.Watchers("m1") {
			if got, want := c.Observed(w, "m1"), c.Addr("m1"); got != want {
				if err := c.Node("m1").UpdateRegistryContext(context.Background()); err != nil {
					return err
				}
				return fmt.Errorf("watcher %s observed %q, want %q", w, got, want)
			}
		}
		return nil
	})

	// Trip a breaker across the partition: s1 repeatedly fails to reach
	// s6 and marks it suspect — subsequent calls fail fast.
	s6addr := c.Addr("s6")
	for i := 0; i < 3; i++ {
		if err := c.Node("s1").PingContext(context.Background(), s6addr); err == nil {
			t.Fatal("ping across the partition succeeded")
		}
	}
	if got := c.Counters.Get("breaker.trips"); got == 0 {
		t.Fatal("partition produced no breaker trips")
	}
	if err := c.Node("s1").PingContext(context.Background(), s6addr); !errors.Is(err, live.ErrPeerSuspect) {
		t.Fatalf("suspect peer not failing fast: %v", err)
	}

	// Heal mid-run. The island catches up: m2 publishes, its neighbor s6
	// registers, m2 moves, and everyone — island and mainland — resolves
	// both mobiles' fresh addresses. Still under 20% loss.
	if err := c.Heal("island"); err != nil {
		t.Fatal(err)
	}
	must("m2 publish after heal", 20*time.Second, func() error { return c.Publish("m2") })
	must("s6 register with m2", 20*time.Second, func() error { return c.Register("s6", "m2") })
	must("m2 move", 20*time.Second, func() error { return c.Move("m2") })
	for _, w := range []string{"s1", "s2", "s3", "s4", "s5", "s6"} {
		discoverFresh(w, "m1")
		discoverFresh(w, "m2")
	}
	must("s6 LDT update", 20*time.Second, func() error {
		if got, want := c.Observed("s6", "m2"), c.Addr("m2"); got != want {
			if err := c.Node("m2").UpdateRegistryContext(context.Background()); err != nil {
				return err
			}
			return fmt.Errorf("s6 observed %q, want %q", got, want)
		}
		return nil
	})

	// The healed peer is readmitted after a successful probe.
	must("s6 readmitted", 20*time.Second, func() error {
		return c.Node("s1").PingContext(context.Background(), s6addr)
	})
	if s := c.Node("s1").Stats().Suspects; len(s) != 0 {
		t.Fatalf("breakers still open after recovery: %v", s)
	}

	// Resilience observable: faults were injected and retried.
	for _, name := range []string{"fault.drop", "rpc.retries", "breaker.trips"} {
		if c.Counters.Get(name) == 0 {
			t.Errorf("counter %s = 0 under chaos", name)
		}
	}

	// Tear down through the harness invariants: leak-free shutdown and
	// balanced pool gauges.
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for _, ck := range []harness.Checker{&harness.NoLeaks{}, &harness.CounterConservation{}} {
		if err := ck.AfterShutdown(c); err != nil {
			t.Errorf("invariant %s: %v", ck.Name(), err)
		}
	}
}

// TestCleanTransportZeroRetriesZeroTrips is the control experiment: the
// full protocol flow over a clean (zero-rate) fault transport must
// record zero retries, zero timeouts, and zero breaker trips.
func TestCleanTransportZeroRetriesZeroTrips(t *testing.T) {
	c, err := harness.New(harness.Config{
		Seed:        9,
		Stationary:  []string{"s1", "s2", "s3"},
		Mobile:      []string{"mob"},
		Replication: 2,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	if err := c.Publish("mob"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("s1", "mob"); err != nil {
		t.Fatal(err)
	}
	if err := c.Move("mob"); err != nil {
		t.Fatal(err)
	}
	if addr, err := c.Resolve("s2", "mob"); err != nil || addr != c.Addr("mob") {
		t.Fatalf("resolve: %v %s", err, addr)
	}
	if err := harness.Eventually(5*time.Second, func() error {
		if got, want := c.Observed("s1", "mob"), c.Addr("mob"); got != want {
			return fmt.Errorf("watcher observed %q, want %q", got, want)
		}
		return nil
	}); err != nil {
		t.Fatalf("watcher missed the update on a clean transport: %v", err)
	}
	for _, name := range []string{"rpc.retries", "rpc.timeouts", "rpc.failures", "breaker.trips", "breaker.fastfail"} {
		if got := c.Counters.Get(name); got != 0 {
			t.Errorf("clean transport recorded %s = %d, want 0 (%s)", name, got, c.Counters)
		}
	}
	if c.Counters.Get("rpc.attempts") == 0 {
		t.Fatal("instrumentation vacuous: no attempts recorded at all")
	}
}
