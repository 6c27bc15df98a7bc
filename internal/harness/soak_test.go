package harness_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"bristle/internal/harness"
)

// TestSoakScheduleDeterministic is the replay contract: one seed, one
// schedule. Running the generator twice from the same seed must produce
// byte-identical op schedules; a different seed must diverge.
func TestSoakScheduleDeterministic(t *testing.T) {
	cfg := harness.SoakCluster(77)
	opt := harness.SoakOptions{Ops: 60}
	a := harness.ScheduleString(harness.GenSchedule(cfg, rand.New(rand.NewSource(77)), opt))
	b := harness.ScheduleString(harness.GenSchedule(cfg, rand.New(rand.NewSource(77)), opt))
	if a != b {
		t.Fatalf("same seed produced different schedules:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	other := harness.ScheduleString(harness.GenSchedule(cfg, rand.New(rand.NewSource(78)), opt))
	if a == other {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestSoakScheduleNeverRestartsUnderPartition: a restart rejoins through
// another member, and a split that separates the two refuses the join, so
// the generator must keep every Restart outside a Partition..Heal span.
func TestSoakScheduleNeverRestartsUnderPartition(t *testing.T) {
	seeds := []int64{1790809329530286746} // failed tier-1 this way
	for seed := int64(1); seed <= 500; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		cfg := harness.SoakCluster(seed)
		open := 0
		for i, op := range harness.GenSchedule(cfg, rand.New(rand.NewSource(seed)), harness.SoakOptions{Ops: 60}) {
			if try, ok := op.(harness.Try); ok {
				op = try.Op
			}
			switch op.(type) {
			case harness.Partition:
				open++
			case harness.Heal:
				open--
			case harness.Restart:
				if open > 0 {
					t.Errorf("seed %d: step %d is %q with %d partition(s) open", seed, i, op, open)
				}
			}
		}
	}
}

// TestSoak runs randomized seeded mobility/churn scenarios until the
// time budget runs out. Defaults are a CI-friendly smoke (one short
// scenario); the nightly job raises the budget via env:
//
//	BRISTLE_SOAK_SECONDS=120 BRISTLE_SOAK_OPS=40 go test -race -run TestSoak -v ./internal/harness
//
// A failure prints the reproducing seed: re-run with BRISTLE_SOAK_SEED
// set to it (and the same BRISTLE_SOAK_OPS) to replay the identical op
// schedule.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	budget := time.Duration(envInt("BRISTLE_SOAK_SECONDS", 0)) * time.Second
	ops := envInt("BRISTLE_SOAK_OPS", 25)
	seed := int64(envInt("BRISTLE_SOAK_SEED", 0))
	pinned := seed != 0
	if seed == 0 {
		seed = time.Now().UnixNano()
	}

	start := time.Now()
	for round := 0; ; round++ {
		runSeed := seed + int64(round)
		cfg := harness.SoakCluster(runSeed)
		schedule := harness.GenSchedule(cfg, rand.New(rand.NewSource(runSeed)), harness.SoakOptions{Ops: ops})
		t.Logf("soak round %d: seed %d, %d ops", round, runSeed, len(schedule))
		err := harness.Execute(harness.Scenario{
			Name:    "soak",
			Cluster: cfg,
			Ops:     schedule,
			Quiesce: 200 * time.Millisecond,
		}, t.Logf)
		if err != nil {
			t.Fatalf("soak failed — reproduce with BRISTLE_SOAK_SEED=%d BRISTLE_SOAK_OPS=%d\nschedule:\n%s\n%v",
				runSeed, ops, harness.ScheduleString(schedule), err)
		}
		if pinned || time.Since(start) >= budget {
			return // a pinned seed replays exactly one round
		}
	}
}

// TestSoak10k is the production-scale nightly soak: a 10,000-member
// fabric (64-node stationary core, 9936 verified mobiles)
// boots, rides a Weibull-churn schedule, and must satisfy the full
// invariant set under event-budgeted sampling. Wall clock is bounded by
// the event budget (BRISTLE_SOAK_EVENTS), not the cluster size, so the
// run fits a nightly tier. Gated behind BRISTLE_SOAK10K so tier-1 stays
// fast; `make soak-10k` is the front door. A failure prints the
// reproducing seed — replaying it regenerates the identical op
// schedule, byte for byte.
func TestSoak10k(t *testing.T) {
	if os.Getenv("BRISTLE_SOAK10K") == "" {
		t.Skip("10k soak: set BRISTLE_SOAK10K=1 (or run `make soak-10k`)")
	}
	seed := int64(envInt("BRISTLE_SOAK_SEED", 0))
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	events := envInt("BRISTLE_SOAK_EVENTS", 400)
	cfg := harness.Soak10kCluster(seed)
	schedule := harness.GenChurn(cfg, rand.New(rand.NewSource(seed)), harness.ChurnOptions{
		MaxEvents: events,
		Watchers:  32,
	})
	t.Logf("10k soak: seed %d, %d churn events, %d ops", seed, events, len(schedule))
	start := time.Now()
	err := harness.Execute(harness.Scenario{
		Name:     "soak-10k",
		Cluster:  cfg,
		Ops:      schedule,
		Checkers: append(harness.DefaultCheckers(), &harness.NoResurrection{}),
		Quiesce:  500 * time.Millisecond,
	}, nil) // per-step narration off: 10k-scale schedules drown the log
	if err != nil {
		t.Fatalf("10k soak failed — reproduce with BRISTLE_SOAK10K=1 BRISTLE_SOAK_SEED=%d BRISTLE_SOAK_EVENTS=%d\n%v",
			seed, events, err)
	}
	t.Logf("10k soak completed in %v", time.Since(start))
}

func envInt(name string, def int) int {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// TestSoakSeed1140IsLossNotAWedge pins what seed 1140's step 5 failure
// was (DESIGN.md §11): the 10 % drop takes one frame of each of register
// s4→m2's six attempts — the request of two, the reply of four — so the
// node's register runs out of attempts. Nothing is stuck: the op, which
// issues the register again, succeeds, and every pooled exchange
// settles.
func TestSoakSeed1140IsLossNotAWedge(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time soak prefix skipped in -short mode")
	}
	const seed = 1140
	cfg := harness.SoakCluster(seed)
	ops := harness.GenSchedule(cfg, rand.New(rand.NewSource(seed)), harness.SoakOptions{Ops: 25})
	if got := ops[4].String(); got != "register s4→m2" {
		t.Fatalf("step 5 of seed %d is %q, want register s4→m2", seed, got)
	}
	c, err := harness.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	for i, op := range ops[:4] {
		if err := op.Apply(c); err != nil {
			t.Fatalf("step %d (%s): %v", i+1, op, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Node("s4").RegisterWithContext(ctx, c.Node("m2").Addr()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("step 5's register, issued once: %v, want %v", err, context.DeadlineExceeded)
	}
	if err := ops[4].Apply(c); err != nil {
		t.Fatalf("step 5 (%s): %v", ops[4], err)
	}
	for _, name := range c.Names() {
		c.StopMaintenance(name)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Gauges.Get("pool.inflight") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool.inflight = %d with the ring at rest, want 0\n%s", c.Gauges.Get("pool.inflight"), c.DumpState())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
