package harness_test

import (
	"math/rand"
	"testing"
	"time"

	"bristle/internal/harness"
)

// TestChurnScheduleDeterministic is GenChurn's replay contract: one
// seed, one schedule — byte-identical across runs, divergent across
// seeds.
func TestChurnScheduleDeterministic(t *testing.T) {
	cfg := harness.FabricCluster(41, 4, 24)
	opt := harness.ChurnOptions{MaxEvents: 48}
	a := harness.ScheduleString(harness.GenChurn(cfg, rand.New(rand.NewSource(41)), opt))
	b := harness.ScheduleString(harness.GenChurn(cfg, rand.New(rand.NewSource(41)), opt))
	if a != b {
		t.Fatalf("same seed produced different churn schedules:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if a == harness.ScheduleString(harness.GenChurn(cfg, rand.New(rand.NewSource(42)), opt)) {
		t.Fatal("different seeds produced identical churn schedules")
	}
}

// TestChurnScheduleWellFormed walks a generated schedule's implied
// lifecycle: no double crash, no restart of a running node, and a whole
// world at the end (every crashed node restarted before the final op).
func TestChurnScheduleWellFormed(t *testing.T) {
	cfg := harness.FabricCluster(7, 4, 32)
	ops := harness.GenChurn(cfg, rand.New(rand.NewSource(7)), harness.ChurnOptions{MaxEvents: 200})
	down := make(map[string]bool)
	for i, op := range ops {
		switch o := op.(type) {
		case harness.Crash:
			if down[o.Node] {
				t.Fatalf("op %d crashes already-crashed %s", i, o.Node)
			}
			down[o.Node] = true
		case harness.Restart:
			if !down[o.Node] {
				t.Fatalf("op %d restarts running %s", i, o.Node)
			}
			delete(down, o.Node)
		}
	}
	if len(down) != 0 {
		t.Fatalf("schedule ends with crashed nodes: %v", down)
	}
}

// TestWeibullSample pins the sampler's shape: deterministic under one
// rng stream, strictly positive, and with the heavy-tail mean the
// inverse-CDF transform implies (λ·Γ(1+1/k); for k=0.5 that is 2λ).
func TestWeibullSample(t *testing.T) {
	w := harness.Weibull{Shape: 0.5, Scale: time.Second}
	var sum time.Duration
	rng := rand.New(rand.NewSource(9))
	const n = 20000
	for i := 0; i < n; i++ {
		d := w.Sample(rng)
		if d <= 0 {
			t.Fatalf("sample %d not positive: %v", i, d)
		}
		sum += d
	}
	mean := sum / n
	if mean < 1600*time.Millisecond || mean > 2400*time.Millisecond {
		t.Fatalf("k=0.5 mean = %v, want ≈ 2s (2λ)", mean)
	}
	a := harness.Weibull{Shape: 0.6, Scale: time.Minute}.Sample(rand.New(rand.NewSource(3)))
	b := harness.Weibull{Shape: 0.6, Scale: time.Minute}.Sample(rand.New(rand.NewSource(3)))
	if a != b {
		t.Fatalf("same rng stream produced different samples: %v vs %v", a, b)
	}
}

// TestChurn200Weibull is the race-mode churn regression: a 200-member
// fabric (16 stationary, 184 verified mobiles) rides a
// Weibull-churn schedule with the full invariant set — resolvability,
// update delivery, counter conservation, no-resurrection, and the
// exact-zero drainer book — under an event-budgeted checker sample.
// The schedule is regenerated from the pinned seed first and compared,
// so the run also re-asserts the replay contract end to end.
func TestChurn200Weibull(t *testing.T) {
	if testing.Short() {
		t.Skip("200-node churn skipped in -short mode")
	}
	const seed = 200_41
	cfg := harness.FabricCluster(seed, 16, 184)
	cfg.CheckBudget = 64
	opt := harness.ChurnOptions{MaxEvents: 48, Watchers: 6}
	schedule := harness.GenChurn(cfg, rand.New(rand.NewSource(seed)), opt)
	replay := harness.GenChurn(cfg, rand.New(rand.NewSource(seed)), opt)
	if harness.ScheduleString(schedule) != harness.ScheduleString(replay) {
		t.Fatal("churn schedule is not replayable from its seed")
	}
	harness.Run(t, harness.Scenario{
		Name:     "churn-200-weibull",
		Cluster:  cfg,
		Ops:      schedule,
		Checkers: append(harness.DefaultCheckers(), &harness.NoResurrection{}),
		Quiesce:  200 * time.Millisecond,
	})
}

// TestDrainerLifecycleUnderChurn is the drainer-leak regression: a
// watcher that crashes and restarts while its targets fan updates out
// must end with its drainer revived exactly once, and the cluster's
// drainer book must read zero after shutdown. Before ensureDrainer
// serialized the alive-check with the drain-channel publication, the
// boot-time drainer start raced Crash's teardown and could strand the
// goroutine — the exact-zero ActiveDrainers assertion is what catches
// that regression.
func TestDrainerLifecycleUnderChurn(t *testing.T) {
	cfg := harness.FabricCluster(101, 3, 6)
	c, err := harness.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	if err := c.PublishAll(); err != nil {
		t.Fatal(err)
	}
	if got := c.ActiveDrainers(); got != 0 {
		t.Fatalf("drainers before any registration: %d, want 0 (drainers must be lazy)", got)
	}
	// Two watchers registered on two targets each: drainers attach lazily.
	for _, w := range []string{"m1", "m2"} {
		for _, target := range []string{"m3", "m4"} {
			if err := c.Register(w, target); err != nil {
				t.Fatalf("register %s→%s: %v", w, target, err)
			}
		}
	}
	if got := c.ActiveDrainers(); got != 2 {
		t.Fatalf("drainers after 2 watchers registered: %d, want 2", got)
	}

	// Heavy fan-out while the watcher churns: the targets move (pushing
	// updates at the watcher's address) as m1 crashes and restarts.
	for cycle := 0; cycle < 3; cycle++ {
		if err := c.Crash("m1"); err != nil {
			t.Fatal(err)
		}
		for _, target := range []string{"m3", "m4"} {
			if err := c.Move(target); err != nil {
				t.Fatal(err)
			}
		}
		if got := c.ActiveDrainers(); got != 1 {
			t.Fatalf("cycle %d: drainers with m1 down: %d, want 1", cycle, got)
		}
		if err := c.Restart("m1"); err != nil {
			t.Fatal(err)
		}
		if got := c.ActiveDrainers(); got != 2 {
			t.Fatalf("cycle %d: drainers after m1 restart: %d, want 2 (watcher's drainer must revive)", cycle, got)
		}
	}

	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := c.ActiveDrainers(); got != 0 {
		t.Fatalf("drainers after shutdown: %d, want exactly 0", got)
	}
	nl := &harness.NoLeaks{}
	if err := nl.AfterShutdown(c); err != nil {
		t.Fatalf("NoLeaks: %v", err)
	}
}
